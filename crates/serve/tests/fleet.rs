//! Multi-tenant fleet contracts, end to end:
//!
//! * **Fairness under overload** — a tenant driving multiples of its
//!   quota walks its own Full→Sampled→Shed ladder with exact
//!   per-tenant accounting, while every tenant inside its quota stays
//!   at full fidelity and its view remains **byte-identical** to
//!   direct single-threaded aggregation of its stream.
//! * **Tenant-keyed aggregate** — `Tenanted` checkpoints round-trip
//!   (including the pending touched set, so a worker crash between an
//!   absorb and the next delta extraction loses nothing), and its
//!   deltas apply cleanly onto an empty base.
//! * **Epoch ring** — retained delta frames answer time-windowed
//!   per-tenant deltas (`earlier ⊕ window == later`, byte for byte,
//!   equal to `delta_since` of the returned snapshots across abandoned
//!   deadline cycles, inner cycles, concurrent snapshots and a restart
//!   from a store) and evict oldest-first.
//! * **TCP front-end** — a producer client survives a server stop and
//!   restart via retry/backoff, and no acknowledged sample is lost
//!   across the restart (the durable store carries acked history);
//!   acks of thinned and shed batches report exactly what the tenant's
//!   ladder admitted; a batch resent while its first ingest is still
//!   blocked is counted once.

use profileme_core::{ProfileDatabase, ProfileMeConfig, Sample, Session, WireFormat};
use profileme_serve::{
    ClientConfig, DegradeConfig, DegradeLevel, FleetClient, FleetConfig, FleetServer, FleetService,
    FleetStats, ProfileStore, RetryPolicy, ServeConfig, ShardAggregate, TenantId, TenantQuota,
    Tenanted,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Stream {
    program: profileme_isa::Program,
    samples: Vec<Sample>,
    interval: u64,
}

/// One deterministic profiling run shared by every test.
fn stream() -> &'static Stream {
    static STREAM: OnceLock<Stream> = OnceLock::new();
    STREAM.get_or_init(|| {
        let w = profileme_workloads::ijpeg(1200);
        let run = Session::builder(w.program.clone())
            .memory(w.memory.clone())
            .sampling(ProfileMeConfig {
                mean_interval: 8,
                ..Default::default()
            })
            .build()
            .expect("config is valid")
            .profile_single()
            .expect("workload completes");
        assert!(run.samples.len() > 440, "stream too thin for fleet tests");
        Stream {
            program: w.program,
            interval: run.db.interval(),
            samples: run.samples,
        }
    })
}

fn proto() -> ProfileDatabase {
    let s = stream();
    ProfileDatabase::new(&s.program, s.interval)
}

fn direct(samples: &[Sample]) -> ProfileDatabase {
    let mut db = proto();
    for sample in samples {
        ShardAggregate::absorb(&mut db, sample);
    }
    db
}

fn encoded(db: &ProfileDatabase) -> Vec<u8> {
    db.encode(WireFormat::Sparse).expect("snapshot serializes")
}

/// A quota so generous the test can never trip it.
fn unmetered() -> TenantQuota {
    TenantQuota {
        rate_per_sec: u64::MAX / 4,
        burst: u64::MAX / 4,
        queue_share: u64::MAX / 4,
    }
}

/// A quota the noisy tenant exhausts within the test: the bucket holds
/// `burst` tokens and refills slowly enough (relative to a
/// milliseconds-long test) that deficit pressure is driven by
/// consumption alone.
fn tight(burst: u64) -> TenantQuota {
    TenantQuota {
        rate_per_sec: 1,
        burst,
        queue_share: u64::MAX / 4,
    }
}

fn fleet_config(noisy_burst: u64) -> FleetConfig {
    FleetConfig {
        tenants: vec![
            (TenantId(0), unmetered()),
            (TenantId(1), unmetered()),
            (TenantId(2), tight(noisy_burst)),
        ],
        ..FleetConfig::default()
    }
}

/// Drives two victims at a trickle and one noisy tenant at ≥4× its
/// burst, then asserts the fairness contract on the final state.
fn assert_fair(svc: FleetService<ProfileDatabase>, chaos: bool) {
    let s = stream();
    let victim_a = &s.samples[..120];
    let victim_b = &s.samples[120..240];
    let noisy = &s.samples[240..];
    assert!(noisy.len() as u64 >= 4 * 40, "need ≥4× the noisy burst");

    // Interleave so the noisy tenant's pressure builds while victims
    // keep arriving — the scenario fairness must survive.
    let iters = [
        victim_a.chunks(12).collect::<Vec<_>>(),
        victim_b.chunks(12).collect::<Vec<_>>(),
        noisy.chunks(12).collect::<Vec<_>>(),
    ];
    let rounds = iters.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (tenant, chunks) in iters.iter().enumerate() {
            if let Some(chunk) = chunks.get(round) {
                svc.ingest_batch(TenantId(tenant as u32), chunk.to_vec())
                    .expect("tenant is registered");
            }
        }
    }

    assert_eq!(
        svc.tenant_level(TenantId(0)).unwrap(),
        DegradeLevel::Full,
        "victim A never degrades"
    );
    assert_eq!(svc.tenant_level(TenantId(1)).unwrap(), DegradeLevel::Full);
    assert!(
        svc.tenant_level(TenantId(2)).unwrap() > DegradeLevel::Full,
        "the noisy tenant must have walked its ladder down"
    );

    let (merged, stats) = svc.shutdown().expect("fleet drains");

    // Exact accounting, per tenant and in total.
    for t in &stats.tenants {
        assert_eq!(
            t.offered,
            t.accepted + t.thinned + t.shed,
            "tenant-{} accounting is inexact: {t:?}",
            t.tenant
        );
        assert_eq!(t.inflight, 0, "tenant-{} credit not settled", t.tenant);
    }
    let (a, b, n) = (&stats.tenants[0], &stats.tenants[1], &stats.tenants[2]);
    assert_eq!((a.thinned, a.shed, a.level), (0, 0, 0), "victim A lossless");
    assert_eq!((b.thinned, b.shed, b.level), (0, 0, 0), "victim B lossless");
    assert!(n.thinned > 0, "noisy tenant was thinned: {n:?}");
    assert!(n.shed > 0, "noisy tenant was shed: {n:?}");
    assert_eq!(
        stats.thinned + stats.shed,
        stats
            .tenants
            .iter()
            .map(|t| t.thinned + t.shed)
            .sum::<u64>(),
        "per-tenant losses sum to the fleet totals"
    );
    assert_eq!(
        stats.offered,
        stats.tenants.iter().map(|t| t.offered).sum::<u64>()
    );
    assert_eq!(
        stats.service.enqueued, stats.accepted,
        "everything admitted reached a shard ring"
    );
    assert_eq!(stats.service.dropped, 0, "rings never overflowed");
    if chaos {
        assert!(stats.service.worker_panics > 0, "the fault plan fired");
        assert_eq!(
            stats.service.workers_recovered, stats.service.worker_panics,
            "every panic was recovered"
        );
        assert_eq!(stats.service.lost_to_panics, 0, "recovery was lossless");
    }

    // The fairness tentpole: victims' views are byte-identical to
    // direct aggregation of their own streams, overload or not.
    assert_eq!(
        encoded(merged.tenant(TenantId(0)).expect("victim A present")),
        encoded(&direct(victim_a)),
        "victim A's view diverged from direct aggregation"
    );
    assert_eq!(
        encoded(merged.tenant(TenantId(1)).expect("victim B present")),
        encoded(&direct(victim_b)),
        "victim B's view diverged from direct aggregation"
    );
    // The noisy tenant's view holds exactly what was admitted.
    let noisy_view = merged.tenant(TenantId(2)).expect("noisy present");
    assert_eq!(noisy_view.total_samples, n.accepted);
}

#[test]
fn noisy_tenant_degrades_alone_with_exact_accounting() {
    let svc = FleetService::start(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        fleet_config(40),
    )
    .expect("fleet starts");
    assert_fair(svc, false);
}

#[cfg(feature = "fault-injection")]
#[test]
fn fairness_survives_worker_panics_and_delays() {
    use profileme_serve::FaultPlan;
    // One transient panic plus a delayed message: supervision recovers
    // the worker from checkpoint + journal, so the fairness and
    // byte-identity assertions must hold unchanged.
    let plan = FaultPlan::parse("panic:nth=3; delay:nth=5:ms=10").expect("plan parses");
    let svc = FleetService::start_with_faults(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        fleet_config(40),
        plan,
    )
    .expect("fleet starts");
    assert_fair(svc, true);
}

#[test]
fn unregistered_tenants_and_bad_configs_are_rejected() {
    let svc = FleetService::start(
        proto(),
        ServeConfig::builder().shards(1).build().unwrap(),
        FleetConfig::uniform(1, TenantQuota::default()),
    )
    .expect("fleet starts");
    assert!(svc.ingest_batch(TenantId(9), Vec::new()).is_err());
    drop(svc.shutdown());

    let empty = FleetConfig::default();
    assert!(empty.validate().is_err(), "no tenants is rejected");
    let dup = FleetConfig {
        tenants: vec![
            (TenantId(1), TenantQuota::default()),
            (TenantId(1), TenantQuota::default()),
        ],
        ..FleetConfig::default()
    };
    assert!(dup.validate().is_err(), "duplicate ids are rejected");
    let zero = FleetConfig {
        tenants: vec![(
            TenantId(0),
            TenantQuota {
                rate_per_sec: 0,
                ..TenantQuota::default()
            },
        )],
        ..FleetConfig::default()
    };
    assert!(zero.validate().is_err(), "a zero rate is rejected");
    let zero_k = FleetConfig {
        degrade: DegradeConfig {
            thin_k: 0,
            ..DegradeConfig::default()
        },
        ..FleetConfig::uniform(1, TenantQuota::default())
    };
    assert!(
        zero_k.validate().is_err(),
        "a zero thinning factor is rejected"
    );
}

/// A corrupt view or touched count in a `PMTC` image fails the decode.
/// Sized unchecked, `u32::MAX` asks for ~481 GB of views or ~17 GB of
/// touched ids, and a refused allocation aborts the process.
#[test]
fn corrupt_tenant_checkpoint_counts_fail_the_decode() {
    // An empty image ends with its view count, then its touched count.
    let image = Tenanted::new(proto())
        .checkpoint_bytes()
        .expect("checkpoint serializes");
    for at in [image.len() - 8, image.len() - 4] {
        let mut bad = image.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Tenanted::<ProfileDatabase>::from_checkpoint_bytes(&bad).is_err());
    }
}

/// `Tenanted` finds a tenant by binary search over its view ids, so an
/// image whose ids repeat or run backwards is refused, not loaded into
/// a view list that lookups would miss.
#[test]
fn tenant_checkpoints_with_repeated_or_unordered_view_ids_are_refused() {
    let s = stream();
    let mut agg = Tenanted::new(proto());
    agg.absorb(&(TenantId(3), s.samples[0].clone()));
    agg.absorb(&(TenantId(5), s.samples[1].clone()));
    let image = agg.checkpoint_bytes().expect("checkpoint serializes");
    // magic, prototype chunk, view count, then (id, chunk) per view.
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
    let first_id = 4 + 4 + u32_at(4) as usize + 4;
    let second_id = first_id + 4 + 4 + u32_at(first_id + 4) as usize;
    assert_eq!((u32_at(first_id), u32_at(second_id)), (3, 5));
    for (a, b) in [(3, 3), (5, 3)] {
        let mut bad = image.clone();
        bad[first_id..first_id + 4].copy_from_slice(&u32::to_le_bytes(a));
        bad[second_id..second_id + 4].copy_from_slice(&u32::to_le_bytes(b));
        assert!(
            Tenanted::<ProfileDatabase>::from_checkpoint_bytes(&bad).is_err(),
            "view ids {a}, {b} were accepted"
        );
    }
    let back = Tenanted::<ProfileDatabase>::from_checkpoint_bytes(&image).expect("decodes");
    assert!(back.tenant(TenantId(5)).is_some());
}

/// A fleet store holding no tenant views still names its prototype's
/// program: opening it for another is refused, because every view
/// created later would be cloned from the stored prototype.
#[test]
fn viewless_fleet_store_for_another_program_is_refused() {
    let dir = std::env::temp_dir().join(format!(
        "pm-fleet-foreign-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let cfg = profileme_serve::StoreConfig::new(&dir);
    drop(ProfileStore::open(cfg.clone(), Tenanted::new(proto())).expect("fresh store opens"));
    let foreign = ProfileDatabase::new(&stream().program, stream().interval * 2);
    assert!(matches!(
        ProfileStore::open(cfg, Tenanted::new(foreign)),
        Err(profileme_core::ProfileError::Mismatch { .. })
    ));
    drop(std::fs::remove_dir_all(&dir));
}

#[test]
fn tenanted_checkpoint_roundtrips_with_pending_touched_set() {
    let s = stream();
    let mut agg = Tenanted::new(proto());
    for (i, sample) in s.samples.iter().take(90).enumerate() {
        let item = (TenantId((i % 3) as u32), sample.clone());
        ShardAggregate::absorb(&mut agg, &item);
    }

    let bytes = agg.checkpoint_bytes().expect("checkpoint serializes");
    let mut restored =
        Tenanted::<ProfileDatabase>::from_checkpoint_bytes(&bytes).expect("checkpoint decodes");
    assert_eq!(restored.len(), agg.len());
    for (id, view) in agg.tenants() {
        let twin = restored.tenant(id).expect("tenant survives the roundtrip");
        assert_eq!(encoded(view), encoded(twin), "{id} view diverged");
    }

    // The touched set is part of the checkpoint: a delta extracted
    // after restore must match one extracted from the original, so a
    // worker rebuilt between absorb and extraction publishes the same
    // delta it would have published without the crash.
    let mut agg2 = agg.clone();
    let mut base_a = Tenanted::new(proto());
    let mut base_b = Tenanted::new(proto());
    let from_original = agg2.extract_delta_bytes(&mut base_a).expect("delta");
    let from_restored = restored.extract_delta_bytes(&mut base_b).expect("delta");
    assert_eq!(
        from_original, from_restored,
        "restored touched set lost a pending delta span"
    );

    // Applying that delta onto an empty aggregate reproduces every view.
    let mut applied = Tenanted::new(proto());
    applied
        .apply_delta_bytes(&from_original)
        .expect("delta applies");
    for (id, view) in agg.tenants() {
        assert_eq!(
            encoded(view),
            encoded(applied.tenant(id).expect("tenant materialized")),
            "{id} view diverged after delta apply"
        );
    }
}

#[test]
fn epoch_ring_answers_tenant_windows_and_evicts_oldest() {
    let s = stream();
    let first = &s.samples[..100];
    let second = &s.samples[100..200];
    let svc = FleetService::start(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        FleetConfig {
            tenants: vec![(TenantId(0), unmetered()), (TenantId(1), unmetered())],
            epoch_retain: 2,
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");

    svc.ingest_batch(TenantId(0), first.to_vec()).unwrap();
    let snap = svc.snapshot().expect("snapshot");
    let (s1, earlier) = (snap.seq, snap.merged);
    svc.ingest_batch(TenantId(0), second.to_vec()).unwrap();
    svc.ingest_batch(TenantId(1), first.to_vec()).unwrap();
    let snap = svc.snapshot().expect("snapshot");
    let (s2, later) = (snap.seq, snap.merged);
    assert_eq!(svc.epoch_seqs(), vec![s1, s2]);

    // earlier ⊕ window == later, byte for byte.
    let window = svc
        .tenant_window(TenantId(0), s1, s2)
        .expect("epochs consistent")
        .expect("both epochs retained");
    assert_eq!(window.total_samples, second.len() as u64);
    let mut reconstructed = earlier.tenant(TenantId(0)).expect("present").clone();
    reconstructed.merge(&window).expect("delta merges");
    assert_eq!(
        encoded(&reconstructed),
        encoded(later.tenant(TenantId(0)).expect("present")),
        "window delta does not reconstruct the later epoch"
    );

    // A tenant absent at the earlier epoch yields its whole profile.
    let fresh = svc
        .tenant_window(TenantId(1), s1, s2)
        .expect("epochs consistent")
        .expect("retained");
    assert_eq!(
        encoded(&fresh),
        encoded(later.tenant(TenantId(1)).expect("present"))
    );

    // A third snapshot evicts the oldest epoch (retain = 2).
    let s3 = svc.snapshot().expect("snapshot").seq;
    assert_eq!(svc.epoch_seqs(), vec![s2, s3]);
    assert!(!svc.epoch_seqs().contains(&s1), "s1 evicted");
    assert!(
        svc.tenant_window(TenantId(0), s1, s3)
            .expect("consistent")
            .is_none(),
        "a window over an evicted epoch is None, not wrong"
    );
    drop(svc.shutdown());
}

/// The answer a window query owes: `tenant`'s `delta_since` between the
/// views two returned snapshots carried, `None` when the tenant is
/// absent from the later one, its whole profile when absent from the
/// earlier one, and an error when `from` is the later of the two and
/// the profile moved in between.
fn expected_window(
    from: &Tenanted<ProfileDatabase>,
    to: &Tenanted<ProfileDatabase>,
    tenant: TenantId,
) -> Result<Option<ProfileDatabase>, profileme_core::ProfileError> {
    let Some(later) = to.tenant(tenant) else {
        return Ok(None);
    };
    match from.tenant(tenant) {
        None => Ok(Some(later.clone())),
        Some(earlier) => later.delta_since(earlier).map(Some),
    }
}

/// Every retained `(from, to)` pair, in both orders, answers for every
/// tenant what the returned snapshots say; a returned seq that left the
/// ring answers `None`.
fn check_windows(
    svc: &FleetService<ProfileDatabase>,
    returned: &std::collections::BTreeMap<u64, Tenanted<ProfileDatabase>>,
) {
    let retained = svc.epoch_seqs();
    let tenants = [TenantId(0), TenantId(1), TenantId(2), TenantId(7)];
    for &from in &retained {
        for &to in &retained {
            for tenant in tenants {
                let served = svc.tenant_window(tenant, from, to);
                let expected = expected_window(&returned[&from], &returned[&to], tenant);
                match (served, expected) {
                    (Err(_), Err(_)) | (Ok(None), Ok(None)) => {}
                    (Ok(Some(s)), Ok(Some(e))) => assert_eq!(
                        encoded(&s),
                        encoded(&e),
                        "{tenant} window ({from}, {to}] differs"
                    ),
                    (s, e) => panic!("{tenant} window ({from}, {to}]: served {s:?}, owed {e:?}"),
                }
            }
        }
    }
    let Some(&newest) = retained.last() else {
        return;
    };
    for &gone in returned.keys().filter(|s| !retained.contains(s)) {
        for tenant in tenants {
            assert!(svc.tenant_window(tenant, gone, newest).unwrap().is_none());
            assert!(svc.tenant_window(tenant, newest, gone).unwrap().is_none());
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `samples[at..at + len]` for one tenant.
    Ingest(u32, usize, usize),
    /// `FleetService::snapshot`.
    Snapshot,
    /// A deadline cycle on the inner service that gives up at once:
    /// it folds whatever replies an earlier abandoned cycle left, then
    /// usually misses its own.
    Abandon,
    /// A complete cycle on the inner service, which no epoch records.
    Inner,
}

/// Ingests weigh twice as much as each other step.
fn op() -> impl proptest::Strategy<Value = Op> {
    use proptest::prelude::*;
    let ingest = || (0u32..3, 0usize..400, 1usize..40).prop_map(|(t, at, n)| Op::Ingest(t, at, n));
    prop_oneof![
        ingest(),
        ingest(),
        Just(Op::Snapshot),
        Just(Op::Snapshot),
        Just(Op::Abandon),
        Just(Op::Inner),
    ]
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(64))]

    /// Windows folded from the delta ring equal `delta_since` of the
    /// snapshots the fleet returned, over random schedules of ingests,
    /// fleet snapshots, abandoned deadline cycles and out-of-band inner
    /// cycles.
    #[test]
    fn delta_ring_windows_equal_delta_since_of_returned_snapshots(
        ops in proptest::collection::vec(op(), 4..28),
    ) {
        let svc = FleetService::start(
            proto(),
            ServeConfig::builder().shards(2).build().unwrap(),
            FleetConfig {
                tenants: (0..3).map(|t| (TenantId(t), unmetered())).collect(),
                epoch_retain: 3,
                ..FleetConfig::default()
            },
        )
        .expect("fleet starts");
        let samples = &stream().samples;
        let mut returned = std::collections::BTreeMap::new();
        for op in ops.into_iter().chain([Op::Snapshot]) {
            match op {
                Op::Ingest(t, at, n) => {
                    svc.ingest_batch(TenantId(t), samples[at..at + n].to_vec()).unwrap();
                }
                Op::Snapshot => {
                    let snap = svc.snapshot().expect("snapshot");
                    returned.insert(snap.seq, snap.merged);
                    check_windows(&svc, &returned);
                }
                Op::Abandon => {
                    let replies = || svc.stats().service.deltas_published;
                    let before = replies();
                    drop(svc.service().snapshot_deadline(Duration::ZERO));
                    // Let both shards answer, so that the next cycle
                    // folds these replies first: a next abandoned cycle
                    // folds some of them, then gives up.
                    let waited = std::time::Instant::now();
                    while replies() < before + 2 && waited.elapsed() < Duration::from_secs(2) {
                        std::thread::yield_now();
                    }
                }
                Op::Inner => drop(svc.service().snapshot().expect("inner snapshot")),
            }
        }
        drop(svc.shutdown());
    }
}

/// A tenant recovered from a store is present from the first snapshot
/// on, though no retained delta frame carries it: with no new data its
/// window is empty, not `None`.
#[test]
fn a_tenant_recovered_from_a_store_with_no_new_data_gets_an_empty_window() {
    let dir = std::env::temp_dir().join(format!(
        "pm-fleet-window-restart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let s = stream();
    let start = || {
        FleetService::start(
            proto(),
            ServeConfig::builder()
                .shards(2)
                .data_dir(&dir)
                .build()
                .unwrap(),
            FleetConfig::uniform(2, unmetered()),
        )
        .expect("fleet starts")
    };
    let svc = start();
    svc.ingest_batch(TenantId(0), s.samples[..100].to_vec())
        .unwrap();
    svc.snapshot().expect("snapshot");
    drop(svc.shutdown());

    let svc = start();
    let first = svc.snapshot().expect("snapshot");
    svc.ingest_batch(TenantId(1), s.samples[100..150].to_vec())
        .unwrap();
    let second = svc.snapshot().expect("snapshot");
    let (s1, s2) = (first.seq, second.seq);
    assert_eq!(svc.epoch_seqs(), vec![s1, s2]);
    for (from, to) in [(s1, s2), (s1, s1), (s2, s2)] {
        let window = svc
            .tenant_window(TenantId(0), from, to)
            .expect("consistent")
            .expect("tenant 0 was recovered, so it is present");
        assert_eq!(encoded(&window), encoded(&proto()), "({from}, {to}]");
    }
    let fresh = svc
        .tenant_window(TenantId(1), s1, s2)
        .expect("consistent")
        .expect("tenant 1 is present at s2");
    assert_eq!(encoded(&fresh), encoded(&direct(&s.samples[100..150])));
    assert!(svc
        .tenant_window(TenantId(1), s1, s1)
        .expect("consistent")
        .is_none());
    drop(svc.shutdown());
    drop(std::fs::remove_dir_all(&dir));
}

/// A snapshot cycle run on the inner service folds frames no epoch
/// records, so the ring starts afresh after it: windows across it
/// answer `None`, windows after it stay exact.
#[test]
fn an_inner_snapshot_cycle_ends_the_window_history() {
    let s = stream();
    let svc = FleetService::start(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        FleetConfig::uniform(1, unmetered()),
    )
    .expect("fleet starts");
    svc.ingest_batch(TenantId(0), s.samples[..50].to_vec())
        .unwrap();
    let s1 = svc.snapshot().expect("snapshot").seq;
    svc.ingest_batch(TenantId(0), s.samples[50..100].to_vec())
        .unwrap();
    svc.service().snapshot().expect("inner snapshot");
    svc.ingest_batch(TenantId(0), s.samples[100..150].to_vec())
        .unwrap();
    let s3 = svc.snapshot().expect("snapshot").seq;
    svc.ingest_batch(TenantId(0), s.samples[150..200].to_vec())
        .unwrap();
    let s4 = svc.snapshot().expect("snapshot").seq;
    assert_eq!(svc.epoch_seqs(), vec![s3, s4]);
    assert!(svc
        .tenant_window(TenantId(0), s1, s4)
        .expect("consistent")
        .is_none());
    let window = svc
        .tenant_window(TenantId(0), s3, s4)
        .expect("consistent")
        .expect("retained");
    assert_eq!(encoded(&window), encoded(&direct(&s.samples[150..200])));
    drop(svc.shutdown());
}

/// Two threads snapshotting at once retain their epochs in seq order,
/// with no gap, and the windows between them stay exact. A stress
/// test: a barrier starts both together, and forty cycles contend for
/// the cycle lock.
#[test]
fn concurrent_fleet_snapshots_retain_epochs_in_seq_order() {
    let svc = Arc::new(
        FleetService::start(
            proto(),
            ServeConfig::builder().shards(2).build().unwrap(),
            FleetConfig {
                tenants: vec![(TenantId(0), unmetered())],
                epoch_retain: 64,
                ..FleetConfig::default()
            },
        )
        .expect("fleet starts"),
    );
    let start = Arc::new(std::sync::Barrier::new(2));
    let takers: Vec<_> = (0..2)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                (0..20)
                    .map(|i| {
                        svc.ingest_batch(TenantId(0), stream().samples[i * 10..][..10].to_vec())
                            .unwrap();
                        let snap = svc.snapshot().expect("snapshot");
                        (snap.seq, snap.merged)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let returned: std::collections::BTreeMap<_, _> = takers
        .into_iter()
        .flat_map(|t| t.join().expect("snapshot thread"))
        .collect();
    let seqs = svc.epoch_seqs();
    assert_eq!(seqs, returned.keys().copied().collect::<Vec<_>>());
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");
    check_windows(&svc, &returned);
}

/// A deadline cycle that folded one shard's reply and then gave up
/// leaves that chunk in the view; the next completed cycle's epoch must
/// carry it, or the window would miss it.
#[cfg(feature = "fault-injection")]
#[test]
fn an_abandoned_cycle_s_folded_chunks_belong_to_the_next_epoch() {
    use profileme_serve::FaultPlan;

    let s = stream();
    // Shard 1's first batch takes 400 ms to absorb.
    let plan = FaultPlan::parse("delay:shard=1:nth=1:ms=400").expect("plan parses");
    let svc = FleetService::start_with_faults(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        FleetConfig::uniform(1, unmetered()),
        plan,
    )
    .expect("fleet starts");
    let s0 = svc.snapshot().expect("snapshot").seq;
    // Round-robin: the first batch lands on shard 0, the second on 1.
    svc.ingest_batch(TenantId(0), s.samples[..60].to_vec())
        .unwrap();
    svc.ingest_batch(TenantId(0), s.samples[60..120].to_vec())
        .unwrap();
    let missed = svc.service().snapshot_deadline(Duration::from_millis(100));
    assert!(missed.is_err(), "shard 1 is still absorbing");
    let s1 = svc.snapshot().expect("snapshot").seq;
    let window = svc
        .tenant_window(TenantId(0), s0, s1)
        .expect("consistent")
        .expect("retained");
    assert_eq!(encoded(&window), encoded(&direct(&s.samples[..120])));
    drop(svc.shutdown());
}

/// Starts a fleet service + TCP server over `dir`, returning the stop
/// handle and the join handle of the accept loop.
fn spawn_server(
    addr: &str,
    dir: &std::path::Path,
    fleet: FleetConfig,
) -> (
    Arc<FleetService<ProfileDatabase>>,
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
    std::net::SocketAddr,
) {
    let svc = Arc::new(
        FleetService::start(
            proto(),
            ServeConfig::builder()
                .shards(2)
                .data_dir(dir)
                .build()
                .unwrap(),
            fleet,
        )
        .expect("fleet starts"),
    );
    // A just-stopped listener can linger; retry the bind briefly.
    let mut server = None;
    for _ in 0..200 {
        match FleetServer::bind(addr, Arc::clone(&svc)) {
            Ok(s) => {
                server = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let server = server.expect("bind succeeds within the retry budget");
    let local = server.local_addr();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run().expect("accept loop runs"));
    (svc, stop, handle, local)
}

/// Stops the server, drains the fleet, and returns its final stats.
fn stop_server(
    svc: Arc<FleetService<ProfileDatabase>>,
    stop: &std::sync::atomic::AtomicBool,
    handle: std::thread::JoinHandle<()>,
) -> FleetStats {
    stop.store(true, Ordering::Release);
    handle.join().expect("accept loop exits cleanly");
    let svc = Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("service still shared after the server stopped"));
    svc.shutdown().expect("fleet drains").1
}

#[test]
fn tcp_client_survives_server_restart_without_losing_acked_samples() {
    let dir = std::env::temp_dir().join(format!(
        "pm-fleet-net-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let s = stream();
    let batches: Vec<&[Sample]> = s.samples.chunks(40).take(10).collect();
    assert_eq!(batches.len(), 10, "need ten batches for the restart plot");

    let (svc, stop, handle, local) =
        spawn_server("127.0.0.1:0", &dir, FleetConfig::uniform(2, unmetered()));
    let addr = local.to_string();

    // A patient client: the backoff window must comfortably cover the
    // deliberate outage below.
    let cfg = ClientConfig {
        retry: RetryPolicy {
            max_retries: 400,
            ..RetryPolicy::default()
        },
        ..ClientConfig::default()
    };
    let mut client = FleetClient::new(addr.clone(), TenantId(0), cfg);
    let mut acked_samples = 0u64;
    for batch in &batches[..5] {
        let ack = client.send(batch).expect("batch acknowledged");
        assert_eq!(ack.level, DegradeLevel::Full);
        assert!(!ack.duplicate);
        acked_samples += ack.admitted;
    }

    // Kill the server gracefully (flushes the durable store), keep the
    // client sending into the outage, restart on the same port.
    stop_server(svc, &stop, handle);
    let sender = {
        let batch: Vec<Sample> = batches[5].to_vec();
        std::thread::spawn(move || {
            let ack = client.send(&batch).expect("retries bridge the outage");
            (client, ack)
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let (svc, stop, handle, _) = spawn_server(&addr, &dir, FleetConfig::uniform(2, unmetered()));
    let (mut client, ack) = sender.join().expect("sender thread");
    assert!(!ack.duplicate, "a fresh server run must re-ingest seq 6");
    acked_samples += ack.admitted;
    for batch in &batches[6..] {
        acked_samples += client.send(batch).expect("batch acknowledged").admitted;
    }
    let stats = client.stats();
    assert_eq!(stats.batches_acked, 10);
    assert!(stats.retries > 0, "the outage forced retries: {stats:?}");
    assert!(stats.reconnects > 0, "the outage forced a reconnect");
    client.close();
    stop_server(svc, &stop, handle);

    // No acknowledged sample was lost: the recovered store holds every
    // acked batch exactly once.
    let (recovered, _) =
        ProfileStore::<Tenanted<ProfileDatabase>>::recover(&dir).expect("store recovers");
    let tenant0 = recovered.tenant(TenantId(0)).expect("tenant present");
    let expected: u64 = batches.iter().map(|b| b.len() as u64).sum();
    assert_eq!(acked_samples, expected, "every batch was admitted in full");
    assert_eq!(
        tenant0.total_samples, expected,
        "acknowledged samples lost (or duplicated) across the restart"
    );
    assert_eq!(
        encoded(tenant0),
        encoded(&direct(&s.samples[..400])),
        "recovered view diverged from direct aggregation"
    );
    drop(std::fs::remove_dir_all(&dir));
}

#[test]
fn tcp_rejects_unregistered_tenants_loudly() {
    let dir = std::env::temp_dir().join(format!(
        "pm-fleet-net-badtenant-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let (svc, stop, handle, local) =
        spawn_server("127.0.0.1:0", &dir, FleetConfig::uniform(2, unmetered()));
    let mut client = FleetClient::new(local.to_string(), TenantId(77), ClientConfig::default());
    let err = client
        .send(&stream().samples[..10])
        .expect_err("tenant 77 is not registered");
    assert!(
        err.to_string().contains("tenant-77"),
        "error names the tenant: {err}"
    );
    client.close();
    stop_server(svc, &stop, handle);
    drop(std::fs::remove_dir_all(&dir));
}

/// A tight-quota tenant over TCP walks its ladder Full → Sampled →
/// Shed, and its acks report exactly what admission kept: they sum to
/// the tenant's `accepted`. The non-default `thin_k` pins the Sampled
/// ack to the fleet's own ladder configuration.
#[test]
fn tcp_acks_report_thinned_and_shed_batches_exactly() {
    let dir = std::env::temp_dir().join(format!(
        "pm-fleet-net-ladder-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let fleet = FleetConfig {
        degrade: DegradeConfig {
            thin_k: 3,
            ..DegradeConfig::default()
        },
        ..FleetConfig::uniform(1, tight(100))
    };
    let (svc, stop, handle, local) = spawn_server("127.0.0.1:0", &dir, fleet);
    let mut client = FleetClient::new(local.to_string(), TenantId(0), ClientConfig::default());
    let acks: Vec<_> = stream()
        .samples
        .chunks(40)
        .take(8)
        .map(|batch| client.send(batch).expect("batch acknowledged"))
        .collect();
    client.close();
    let stats = stop_server(svc, &stop, handle);

    let levels: Vec<_> = acks.iter().map(|a| a.level).collect();
    assert!(levels.contains(&DegradeLevel::Sampled), "{levels:?}");
    assert!(levels.contains(&DegradeLevel::Shed), "{levels:?}");
    let t = &stats.tenants[0];
    assert_eq!(
        acks.iter().map(|a| a.admitted).sum::<u64>(),
        t.accepted,
        "acks disagree with admission: {acks:?} vs {t:?}"
    );
    assert_eq!(t.offered, t.accepted + t.thinned + t.shed, "{t:?}");
    drop(std::fs::remove_dir_all(&dir));
}

/// A client whose ack read times out during a slow ingest reconnects
/// and resends the same sequence while the first handler is still
/// blocked on ring backpressure. The batch must be counted once: the
/// resend is refused while the first ingest is in flight, and
/// acknowledged as a duplicate once it settles.
#[cfg(feature = "fault-injection")]
#[test]
fn tcp_resend_during_a_slow_ingest_counts_the_batch_once() {
    use profileme_serve::FaultPlan;
    // One shard whose worker takes 150 ms per message behind a
    // two-message ring: any push waits far longer than the client.
    let plan = FaultPlan::parse("delay:queue:ms=150").expect("plan parses");
    let svc = Arc::new(
        FleetService::start_with_faults(
            proto(),
            ServeConfig::builder()
                .shards(1)
                .queue_depth(2)
                .build()
                .unwrap(),
            FleetConfig::uniform(2, unmetered()),
            plan,
        )
        .expect("fleet starts"),
    );
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run().expect("accept loop runs"));
    let tenant = |svc: &FleetService<ProfileDatabase>, id: u32| {
        let stats = svc.stats();
        *stats
            .tenants
            .iter()
            .find(|t| t.tenant == id)
            .expect("tenant")
    };

    // Tenant 1 keeps the ring full for about a second.
    let s = stream();
    let filler = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            for batch in stream().samples.chunks(40).take(8) {
                svc.ingest_batch(TenantId(1), batch.to_vec())
                    .expect("tenant 1 is registered");
            }
        })
    };
    // Wait until a fourth filler batch is blocked on the full ring.
    while tenant(&svc, 1).offered < 4 * 40 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let cfg = ClientConfig {
        io_timeout: Duration::from_millis(50),
        retry: RetryPolicy {
            max_retries: 400,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(40),
            seed: 0,
        },
        ..ClientConfig::default()
    };
    let mut client = FleetClient::new(addr, TenantId(0), cfg);
    let batch = &s.samples[..40];
    client.send(batch).expect("the batch is acknowledged");
    let stats = client.stats();
    assert_eq!(
        tenant(&svc, 0).accepted,
        40,
        "the resent batch was ingested again: {stats:?}"
    );
    assert!(
        stats.reconnects >= 1,
        "the timed-out read forced a reconnect: {stats:?}"
    );
    client.close();
    filler.join().expect("filler thread");
    let final_stats = stop_server(svc, &stop, handle);
    let t0 = final_stats
        .tenants
        .iter()
        .find(|t| t.tenant == 0)
        .expect("tenant 0");
    assert_eq!(
        (t0.offered, t0.accepted),
        (40, 40),
        "a handler still blocked at the ack ingested the batch again"
    );
}
