//! Chaos tests of the supervision layer, driven by deterministic
//! fault plans (`--features fault-injection`).
//!
//! The contract under test, end to end:
//!
//! * a transient worker panic (a one-shot `nth` fault) is recovered
//!   from checkpoint + journal and the retried message is absorbed —
//!   the merged snapshot stays **byte-identical** to direct
//!   single-threaded aggregation;
//! * a message that panics on the retry too (recurring `every`/`p`
//!   faults) is dropped whole with **exact accounting**
//!   (`total_samples == enqueued − lost_to_panics`);
//! * deadline-bounded operations never block past their budget, even
//!   in front of a worker that is wedged forever (`stall` faults);
//! * a worker that cannot recover fails its shard loudly as
//!   [`ProfileError::WorkerCrashed`], never silently.

#![cfg(feature = "fault-injection")]

use profileme_core::{
    PairProfileDatabase, PairedConfig, ProfileDatabase, ProfileError, ProfileMeConfig, Session,
    WireFormat,
};
use profileme_serve::{
    FaultPlan, FleetConfig, FleetService, ServeConfig, ShardedService, SuperviseConfig, TenantId,
    TenantQuota,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

struct SingleStream {
    program: profileme_isa::Program,
    samples: Vec<profileme_core::Sample>,
    interval: u64,
    direct: Vec<u8>,
}

/// One simulator run shared by every test (the stream is deterministic;
/// producing it is the expensive part).
fn single_stream() -> &'static SingleStream {
    static STREAM: OnceLock<SingleStream> = OnceLock::new();
    STREAM.get_or_init(|| {
        let w = profileme_workloads::ijpeg(400);
        let run = Session::builder(w.program.clone())
            .memory(w.memory.clone())
            .sampling(ProfileMeConfig {
                mean_interval: 32,
                ..Default::default()
            })
            .build()
            .expect("config is valid")
            .profile_single()
            .expect("workload completes");
        assert!(
            run.samples.len() > 100,
            "stream too thin to exercise faults"
        );
        SingleStream {
            program: w.program,
            direct: run
                .db
                .encode(WireFormat::Sparse)
                .expect("snapshot serializes"),
            interval: run.db.interval(),
            samples: run.samples,
        }
    })
}

fn service_with(
    plan: &str,
    shards: usize,
    supervise: SuperviseConfig,
) -> ShardedService<ProfileDatabase> {
    let s = single_stream();
    ShardedService::start_with_faults(
        ProfileDatabase::new(&s.program, s.interval),
        ServeConfig::builder()
            .shards(shards)
            .supervise(supervise)
            .build()
            .expect("config is valid"),
        FaultPlan::parse(plan).expect("plan parses"),
    )
    .expect("service starts")
}

/// A one-shot panic is recovered losslessly: the retry absorbs the
/// in-flight message and the final bytes match direct aggregation.
#[test]
fn single_panic_recovers_byte_identically() {
    let s = single_stream();
    for shards in [1usize, 2, 4] {
        let svc = service_with("panic:shard=0:nth=3", shards, SuperviseConfig::default());
        for batch in s.samples.chunks(5) {
            svc.ingest_batch(batch.to_vec());
        }
        let snap = svc.snapshot().expect("snapshot survives the recovery");
        let (merged, stats) = svc.shutdown().expect("service drains");
        assert_eq!(stats.worker_panics, 1, "shards={shards}");
        assert_eq!(stats.workers_recovered, 1);
        assert_eq!(stats.lost(), 0, "one-shot faults lose nothing");
        assert_eq!(stats.enqueued, s.samples.len() as u64);
        assert_eq!(snap.merged.encode(WireFormat::Sparse).unwrap(), s.direct);
        assert_eq!(
            merged.encode(WireFormat::Sparse).unwrap(),
            s.direct,
            "recovered aggregation diverged at {shards} shard(s)"
        );
    }
}

/// Recovery still works when the panic lands mid-journal, across many
/// checkpoints (small `checkpoint_every` forces several rebuild+replay
/// cycles over a checkpoint kept in sync in O(touched)).
#[test]
fn recovery_replays_checkpoint_plus_journal() {
    let s = single_stream();
    let svc = service_with(
        "panic:shard=0:nth=7; panic:shard=0:nth=19; panic:shard=1:nth=11",
        2,
        SuperviseConfig {
            checkpoint_every: 4,
            ..SuperviseConfig::default()
        },
    );
    for sample in &s.samples {
        svc.ingest_batch(vec![sample.clone()]);
    }
    let (merged, stats) = svc.shutdown().expect("service drains");
    assert_eq!(stats.worker_panics, 3);
    assert_eq!(stats.workers_recovered, 3);
    assert!(stats.checkpoints > 0, "checkpoints were actually taken");
    assert_eq!(stats.lost(), 0);
    assert_eq!(merged.encode(WireFormat::Sparse).unwrap(), s.direct);
    // Journal replay over those in-memory checkpoints stayed
    // byte-identical to the direct sparse columnar image
    // (magic-tagged "PMS1").
    assert_eq!(
        &s.direct[..4],
        b"PMS1",
        "checkpoints use the sparse wire format"
    );
}

/// A multi-tenant crash right after a checkpoint sync: tenants A and B
/// reach the checkpoint after the first snapshot, then tenant C's
/// batch panics. The rebuilt accumulator is a clone of that
/// checkpoint with an empty journal, so the next snapshot's delta
/// carries A's and B's spans only because the sync marked them as
/// touched in the checkpoint — per tenant and per row.
#[test]
fn fleet_crash_right_after_a_checkpoint_sync_loses_nothing() {
    let s = single_stream();
    let fleet = FleetService::start_with_faults(
        ProfileDatabase::new(&s.program, s.interval),
        ServeConfig::builder()
            .shards(1)
            .supervise(SuperviseConfig {
                checkpoint_every: 2,
                ..SuperviseConfig::default()
            })
            .build()
            .expect("config is valid"),
        FleetConfig::uniform(3, TenantQuota::default()),
        // Messages 1 (A) and 2 (B) trigger a sync; message 3 (C)
        // panics once. Snapshot requests take no fault index.
        FaultPlan::parse("panic:shard=0:nth=3").expect("plan parses"),
    )
    .expect("fleet starts");
    let parts = [
        (TenantId(0), &s.samples[..40]),
        (TenantId(1), &s.samples[40..80]),
        (TenantId(2), &s.samples[80..120]),
    ];
    let first = fleet.snapshot().expect("first snapshot");
    assert!(first.merged.is_empty());
    for (id, part) in parts {
        fleet
            .ingest_batch(id, part.to_vec())
            .expect("tenant is registered");
    }
    let snap = fleet.snapshot().expect("snapshot survives the recovery");
    for (id, part) in parts {
        let mut direct = ProfileDatabase::new(&s.program, s.interval);
        for sample in part {
            direct.add(sample);
        }
        let view = snap.merged.tenant(id).expect("tenant is in the view");
        assert_eq!(
            view.encode(WireFormat::Sparse).unwrap(),
            direct.encode(WireFormat::Sparse).unwrap(),
            "{id} view diverged after the recovery"
        );
    }
    let (_, stats) = fleet.shutdown().expect("fleet drains");
    assert_eq!(stats.service.workers_recovered, 1);
    assert_eq!(stats.service.lost(), 0);
    assert!(stats.service.checkpoints > 0, "a checkpoint was synced");
}

/// A deadline-abandoned snapshot epoch must not lose its delta: the
/// worker answers an epoch nobody is waiting for any more, and the
/// next cycle folds that reply ahead of its own. The next successful
/// snapshot still sees every sample.
#[test]
fn abandoned_deadline_epoch_loses_no_deltas() {
    let s = single_stream();
    // The worker sleeps 500 ms on its 2nd work message.
    let svc = service_with("delay:shard=0:nth=2:ms=500", 1, SuperviseConfig::default());
    svc.ingest_batch(s.samples[..10].to_vec());
    svc.snapshot().expect("healthy first cycle");
    // The 2nd batch hits the delay; a tiny deadline abandons its epoch
    // while the worker is asleep.
    svc.ingest_batch(s.samples[10..20].to_vec());
    let err = svc
        .snapshot_deadline(Duration::from_millis(10))
        .expect_err("the worker is mid-delay");
    assert!(matches!(
        err,
        ProfileError::DeadlineExceeded {
            what: "snapshot",
            ..
        }
    ));
    // The worker eventually answers that abandoned epoch on its reply
    // channel. The next cycle must fold it.
    svc.ingest_batch(s.samples[20..30].to_vec());
    let snap = svc.snapshot().expect("worker has recovered");
    let mut direct = ProfileDatabase::new(&s.program, s.interval);
    for sample in &s.samples[..30] {
        direct.add(sample);
    }
    assert_eq!(
        snap.merged.encode(WireFormat::Sparse).unwrap(),
        direct.encode(WireFormat::Sparse).unwrap(),
        "the abandoned epoch's delta was dropped"
    );
    assert_eq!(svc.stats().deadline_misses, 1);
    drop(svc);
}

/// Direct single-threaded aggregation of `samples`, encoded.
fn direct_bytes(samples: &[profileme_core::Sample]) -> Vec<u8> {
    let s = single_stream();
    let mut direct = ProfileDatabase::new(&s.program, s.interval);
    samples.iter().for_each(|sample| direct.add(sample));
    direct.encode(WireFormat::Sparse).unwrap()
}

/// Two consecutive cycles abandoned on the same shard leave two stale
/// replies queued ahead of the next cycle's; it folds all three.
#[test]
fn two_abandoned_cycles_on_one_shard_lose_no_deltas() {
    let s = single_stream();
    let svc = service_with("delay:shard=0:nth=2:ms=500", 1, SuperviseConfig::default());
    svc.ingest_batch(s.samples[..10].to_vec());
    svc.snapshot().expect("healthy first cycle");
    // The worker sleeps on this batch through both deadline cycles.
    svc.ingest_batch(s.samples[10..20].to_vec());
    for _ in 0..2 {
        let err = svc
            .snapshot_deadline(Duration::from_millis(10))
            .expect_err("the worker is mid-delay");
        assert!(matches!(
            err,
            ProfileError::DeadlineExceeded {
                what: "snapshot",
                ..
            }
        ));
    }
    svc.ingest_batch(s.samples[20..30].to_vec());
    let snap = svc.snapshot().expect("worker has recovered");
    assert_eq!(
        snap.merged.encode(WireFormat::Sparse).unwrap(),
        direct_bytes(&s.samples[..30]),
        "an abandoned cycle's delta was dropped"
    );
    assert_eq!(svc.stats().deadline_misses, 2);
    drop(svc);
}

/// A cycle abandoned in phase 1 — shard 0 already holds the request
/// when shard 1's full ring runs out the deadline — leaves shard 0 one
/// stale reply; the next cycle folds it and the fresh one.
#[test]
fn cycle_abandoned_mid_request_loses_no_deltas() {
    let s = single_stream();
    let svc = ShardedService::start_with_faults(
        ProfileDatabase::new(&s.program, s.interval),
        ServeConfig::builder()
            .shards(2)
            .queue_depth(2)
            .build()
            .expect("config is valid"),
        FaultPlan::parse("delay:shard=1:nth=1:ms=400").expect("plan parses"),
    )
    .expect("service starts");
    // Round-robin: shard 1 gets batches 1, 3 and 5. Its worker sleeps
    // on batch 1 while 3 and 5 fill its two-slot ring.
    let batches: Vec<_> = s.samples.chunks(10).take(6).collect();
    for batch in &batches {
        svc.ingest_batch(batch.to_vec());
    }
    let err = svc
        .snapshot_deadline(Duration::from_millis(20))
        .expect_err("shard 1's ring is full");
    assert!(matches!(
        err,
        ProfileError::DeadlineExceeded {
            what: "snapshot",
            ..
        }
    ));
    let snap = svc.snapshot().expect("worker has recovered");
    assert_eq!(
        snap.merged.encode(WireFormat::Sparse).unwrap(),
        direct_bytes(&s.samples[..60]),
        "shard 0's stale reply was dropped"
    );
    let stats = svc.stats();
    assert_eq!(stats.deadline_misses, 1);
    // Shard 0 answered both requests; shard 1 only the second.
    assert_eq!(stats.deltas_published, 3);
    drop(svc);
}

/// A recurring fault hits the retry too: the message is dropped whole
/// and the loss is accounted exactly, sample for sample.
#[test]
fn recurring_panics_drop_with_exact_accounting() {
    let s = single_stream();
    let svc = service_with("panic:every=5", 1, SuperviseConfig::default());
    for sample in &s.samples {
        svc.ingest_batch(vec![sample.clone()]);
    }
    let (merged, stats) = svc.shutdown().expect("service drains");
    let expected_lost = s.samples.len() as u64 / 5;
    assert_eq!(stats.lost_to_panics, expected_lost);
    assert_eq!(stats.worker_panics, 2 * expected_lost, "initial + retry");
    assert_eq!(stats.workers_recovered, 2 * expected_lost);
    assert_eq!(merged.total_samples, stats.enqueued - stats.lost_to_panics);
    assert_eq!(stats.lost(), expected_lost, "every loss is counted");
}

/// Snapshots until the crash guard has failed shard 0.
fn await_crash(mut snapshot: impl FnMut() -> Result<(), ProfileError>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match snapshot() {
            Err(ProfileError::WorkerCrashed { shard: 0 }) => return,
            Err(other) => panic!("unexpected error: {other}"),
            Ok(()) => {
                assert!(Instant::now() < deadline, "worker never crashed");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// A zero recovery budget fails the shard on its first panic: the
/// panic is counted, the crash guard fails the shard loudly instead of
/// hanging callers, and a fleet batch's in-flight credit is released.
#[test]
fn zero_recovery_budget_surfaces_worker_crashed() {
    let s = single_stream();
    let budget = SuperviseConfig {
        max_recoveries: 0,
        ..SuperviseConfig::default()
    };
    let svc = service_with("panic:shard=0:nth=1", 1, budget);
    svc.ingest_batch(vec![s.samples[0].clone()]);
    // The worker dies on that message; every path reports the crash.
    await_crash(|| svc.snapshot().map(drop));
    assert_eq!(svc.stats().worker_panics, 1, "the fatal panic is counted");
    // Ingest onto the dead shard is counted, not lost silently.
    svc.ingest_batch(vec![s.samples[1].clone()]);
    assert!(svc.stats().dropped >= 1);
    assert!(matches!(
        svc.shutdown(),
        Err(ProfileError::WorkerCrashed { shard: 0 })
    ));

    // The same crash under a one-tenant fleet settles the batch's
    // queue-share credit.
    let fleet = FleetService::start_with_faults(
        ProfileDatabase::new(&s.program, s.interval),
        ServeConfig::builder()
            .shards(1)
            .supervise(budget)
            .build()
            .expect("config is valid"),
        FleetConfig::uniform(1, TenantQuota::default()),
        FaultPlan::parse("panic:shard=0:nth=1").expect("plan parses"),
    )
    .expect("fleet starts");
    fleet
        .ingest_batch(TenantId(0), s.samples[..50].to_vec())
        .expect("tenant is registered");
    await_crash(|| fleet.snapshot().map(drop));
    let stats = fleet.stats();
    assert_eq!(stats.service.worker_panics, 1);
    assert_eq!(
        stats.tenants[0].inflight, 0,
        "the crashed batch released its credit"
    );
    assert!(matches!(
        fleet.shutdown(),
        Err(ProfileError::WorkerCrashed { shard: 0 })
    ));
}

/// An exhausted recovery budget fails the shard loudly.
#[test]
fn exhausted_recovery_budget_crashes_the_shard() {
    let s = single_stream();
    let svc = service_with(
        "panic:every=1",
        1,
        SuperviseConfig {
            max_recoveries: 3,
            ..SuperviseConfig::default()
        },
    );
    for sample in s.samples.iter().take(50) {
        svc.ingest_batch(vec![sample.clone()]);
    }
    let err = svc.shutdown().expect_err("the shard must crash");
    assert!(matches!(err, ProfileError::WorkerCrashed { shard: 0 }));
}

/// Deadline-bounded calls genuinely time out in front of a worker that
/// is wedged forever, and never block unboundedly.
#[test]
fn deadlines_hold_against_a_stalled_worker() {
    let s = single_stream();
    let svc = service_with("stall:shard=0:nth=1", 1, SuperviseConfig::default());
    // The worker stalls on its first message. Fill the queue twice
    // (it frees at most one slot by popping that message) so every
    // subsequent push faces a full queue forever.
    let fill = || {
        while svc
            .ingest_deadline(vec![s.samples[0].clone()], Duration::ZERO)
            .is_ok()
        {}
    };
    fill();
    std::thread::sleep(Duration::from_millis(50));
    fill();

    let start = Instant::now();
    let err = svc
        .ingest_deadline(vec![s.samples[1].clone()], Duration::from_millis(100))
        .expect_err("queue is wedged");
    assert!(matches!(
        err,
        ProfileError::DeadlineExceeded {
            what: "ingest",
            millis: 100
        }
    ));
    assert!(start.elapsed() < Duration::from_secs(5), "wait was bounded");

    let start = Instant::now();
    let err = svc
        .snapshot_deadline(Duration::from_millis(100))
        .expect_err("worker never answers the barrier");
    assert!(matches!(
        err,
        ProfileError::DeadlineExceeded {
            what: "snapshot",
            millis: 100
        }
    ));
    assert!(start.elapsed() < Duration::from_secs(5), "wait was bounded");

    let stats = svc.stats();
    assert!(stats.deadline_misses >= 2);
    assert!(stats.dropped >= 1, "abandoned deadline items are counted");

    let start = Instant::now();
    let err = svc
        .shutdown_deadline(Duration::from_millis(100))
        .expect_err("worker never drains");
    assert!(matches!(
        err,
        ProfileError::DeadlineExceeded {
            what: "shutdown",
            millis: 100
        }
    ));
    // The failed shutdown dropped the service; Drop released the stall
    // latch and reaped the worker within its own bounded wait.
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drop was bounded"
    );
}

/// One random fault directive (possibly paired with a second), with a
/// flag for whether the combination is provably lossless (one-shot
/// faults only).
fn arb_directive() -> impl Strategy<Value = (String, bool)> {
    prop_oneof![
        (0usize..8, 1u64..16).prop_map(|(s, n)| (format!("panic:shard={s}:nth={n}"), true)),
        (1u64..16).prop_map(|n| (format!("panic:nth={n}"), true)),
        (3u64..9).prop_map(|n| (format!("panic:every={n}"), false)),
        (0usize..8, 1u64..16).prop_map(|(s, n)| (format!("delay:shard={s}:nth={n}:ms=1"), true)),
    ]
}

fn arb_plan() -> impl Strategy<Value = (String, bool)> {
    prop::collection::vec(arb_directive(), 1..=2).prop_map(|parts| {
        let lossless = parts.iter().all(|(_, l)| *l);
        let spec = parts
            .into_iter()
            .map(|(d, _)| d)
            .collect::<Vec<_>>()
            .join(";");
        (spec, lossless)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random plan, any shard count: accounting is exact, and a
    /// plan that loses nothing leaves the bytes identical to direct
    /// aggregation.
    #[test]
    fn random_plans_keep_exact_accounting(
        (spec, lossless) in arb_plan(),
        shards in 1usize..=8,
        chunk in 1usize..=9,
    ) {
        let s = single_stream();
        let svc = service_with(
            &spec,
            shards,
            SuperviseConfig {
                checkpoint_every: 8,
                max_recoveries: 1_000_000,
            },
        );
        for batch in s.samples.chunks(chunk) {
            svc.ingest_batch(batch.to_vec());
        }
        let (merged, stats) = svc.shutdown().expect("recoverable plans always drain");
        prop_assert_eq!(stats.enqueued, s.samples.len() as u64, "plan `{}`", &spec);
        prop_assert_eq!(stats.dropped, 0);
        // Exact accounting: every sample is either in the profile or
        // counted lost, never both, never neither.
        prop_assert_eq!(
            merged.total_samples,
            stats.enqueued - stats.lost_to_panics,
            "plan `{}` shards={} chunk={}", &spec, shards, chunk
        );
        prop_assert_eq!(stats.workers_recovered, stats.worker_panics);
        if lossless {
            prop_assert_eq!(stats.lost(), 0, "plan `{}`", &spec);
        }
        // Whenever nothing was lost — by construction or by luck of
        // the shard filter — recovery is byte-exact.
        if stats.lost() == 0 {
            prop_assert_eq!(
                merged.encode(WireFormat::Sparse).unwrap(),
                s.direct.clone(),
                "plan `{}` shards={} chunk={}", &spec, shards, chunk
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same recovery contract holds for paired-sample aggregation.
    #[test]
    fn paired_aggregation_recovers_byte_identically(
        nth in 1u64..12,
        shards in 1usize..=4,
    ) {
        static PAIRED: OnceLock<(
            profileme_isa::Program,
            profileme_core::PairedRun,
            Vec<u8>,
        )> = OnceLock::new();
        let (program, run, direct) = PAIRED.get_or_init(|| {
            let w = profileme_workloads::compress(15_000);
            let run = Session::builder(w.program.clone())
                .memory(w.memory.clone())
                .paired_sampling(PairedConfig {
                    mean_major_interval: 48,
                    window: 64,
                    buffer_depth: 4,
                    ..PairedConfig::default()
                })
                .build()
                .expect("config is valid")
                .profile_paired()
                .expect("workload completes");
            let direct = run.db.encode(WireFormat::Sparse).expect("snapshot serializes");
            (w.program, run, direct)
        });
        let svc = ShardedService::start_with_faults(
            PairProfileDatabase::new(program, run.db.interval(), run.db.window()),
            ServeConfig::builder()
                .shards(shards)
                .build()
                .expect("config is valid"),
            FaultPlan::parse(&format!("panic:shard=0:nth={nth}")).unwrap(),
        )
        .expect("service starts");
        for batch in run.pairs.chunks(6) {
            svc.ingest_batch(batch.to_vec());
        }
        let (merged, stats) = svc.shutdown().expect("service drains");
        prop_assert_eq!(stats.lost(), 0);
        prop_assert_eq!(merged.encode(WireFormat::Sparse).unwrap(), direct.clone());
    }
}
