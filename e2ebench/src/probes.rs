//! Layer probes of traced runs: timed calls into each layer's public
//! functions on the workload's own batches, recorded as spans.
//!
//! The service runs these functions on its own threads, where the
//! benchmark cannot time them; the probes replay the same work on the
//! calling thread — one shard's share of each snapshot interval, as
//! round-robin routing over [`SHARDS`](crate::fleet::SHARDS) deals it.

use crate::fleet::{self, Kept, Tracer};
use profileme_core::{ProfileError, ProfileField, Sample};
use profileme_serve::{
    ClientConfig, ClientStats, FleetClient, FleetServer, ProfileStore, ServeConfig, ShardAggregate,
    StoreConfig, TenantId, Tenanted,
};
use profileme_workloads::Workload;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions behind every probe median (the median needs 20).
pub const REPS: usize = 24;
/// Repetitions of the costly one-shot calls (compaction, recovery).
const ONE_SHOT_REPS: usize = 3;
/// Replayed batches between snapshots of the network probe.
const REPLAY_SNAPSHOT_EVERY: usize = 16;
/// Batches behind the absorb probe's per-sample cost.
const ABSORB_BATCHES: usize = 4096;

/// A workload's batches, grouped by snapshot interval as
/// `(tenant, pool index)` pairs.
pub struct Batches<'a> {
    pub pool: &'a [Vec<Sample>],
    pub intervals: Vec<Vec<(TenantId, usize)>>,
}

impl Batches<'_> {
    /// One shard's share of an interval: every other batch.
    fn shard_share(interval: &[(TenantId, usize)]) -> impl Iterator<Item = &(TenantId, usize)> {
        interval.iter().step_by(fleet::SHARDS)
    }

    fn tagged(&self, (tenant, i): (TenantId, usize)) -> Vec<(TenantId, Sample)> {
        self.pool[i].iter().map(|s| (tenant, s.clone())).collect()
    }
}

/// Runs every probe over `batches`, recording spans into `tracer`:
/// `supervise.absorb` (per batch), `supervise.checkpoint`,
/// `supervise.extract_delta`, `service.apply_delta`, `store.append`,
/// `store.recover`, `store.compact`, `tenant.view_clone`,
/// `core.sw.delta_since` and `core.sw.top_n`.
///
/// Recovery is timed on `recover_from` when given (a populated store
/// the workload restarts from), else on the store the append probe
/// filled under `dir`. Returns the samples the absorb probe absorbed.
pub fn run(
    w: &Workload,
    batches: &Batches<'_>,
    kept: &Kept,
    dir: &Path,
    recover_from: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<u64, ProfileError> {
    let proto = Tenanted::new(fleet::proto(w));

    // Absorb, one thread, batch by batch.
    let mut acc = proto.clone();
    let mut absorbed = 0u64;
    for &item in batches.intervals.iter().flatten().take(ABSORB_BATCHES) {
        let tagged = batches.tagged(item);
        let t = Instant::now();
        for sample in &tagged {
            acc.absorb(sample);
        }
        tracer.record("supervise.absorb", t.elapsed());
        absorbed += tagged.len() as u64;
    }
    drop(acc);

    // Checkpoints of one shard's accumulator at the worker's cadence,
    // which the fleets here leave at its default.
    let checkpoint_every = ServeConfig::default().supervise.checkpoint_every as usize;
    let mut shard = proto.clone();
    let share = batches
        .intervals
        .iter()
        .flat_map(|i| Batches::shard_share(i));
    for (n, &item) in share.enumerate().take(REPS * checkpoint_every) {
        for sample in &batches.tagged(item) {
            shard.absorb(sample);
        }
        if (n + 1) % checkpoint_every == 0 {
            let t = Instant::now();
            black_box(shard.checkpoint_bytes()?);
            tracer.record("supervise.checkpoint", t.elapsed());
        }
    }
    drop(shard);

    // One shard's delta per snapshot interval, folded into a view and
    // appended to a scratch store, as a snapshot cycle does.
    let mut shard = proto.clone();
    let mut base = proto.clone();
    let mut view = proto.clone();
    let store_dir = dir.join("probe-store");
    let cfg = StoreConfig {
        compact_every: 0,
        ..StoreConfig::new(&store_dir)
    };
    let (mut store, _) = ProfileStore::open(cfg.clone(), proto.clone())?;
    for interval in &batches.intervals {
        for &item in Batches::shard_share(interval) {
            for sample in &batches.tagged(item) {
                shard.absorb(sample);
            }
        }
        let t = Instant::now();
        let delta = shard.extract_delta_bytes(&mut base)?;
        tracer.record("supervise.extract_delta", t.elapsed());
        let t = Instant::now();
        store.append(&delta)?;
        tracer.record("store.append", t.elapsed());
        let t = Instant::now();
        view.apply_delta_bytes(&delta)?;
        tracer.record("service.apply_delta", t.elapsed());
    }
    store.sync()?;
    drop(store);
    drop((shard, base));

    let recover_cfg = match recover_from {
        Some(dir) => StoreConfig::new(dir),
        None => cfg,
    };
    for _ in 0..ONE_SHOT_REPS {
        let t = Instant::now();
        let (store, recovered) = ProfileStore::open(recover_cfg.clone(), proto.clone())?;
        tracer.record("store.recover", t.elapsed());
        drop((store, recovered));
    }
    let (mut store, _) = ProfileStore::open(StoreConfig::new(&store_dir), proto.clone())?;
    for _ in 0..ONE_SHOT_REPS {
        let t = Instant::now();
        store.compact(&view)?;
        tracer.record("store.compact", t.elapsed());
    }
    drop((store, view));

    // Reads of returned snapshots: the epoch-ring copy, and the two
    // calls a window query makes, on every tenant in turn.
    let (Some(newest), Some(oldest)) = (kept.newest(), kept.oldest()) else {
        return Err(ProfileError::net("no snapshots were kept to probe"));
    };
    for _ in 0..REPS {
        let t = Instant::now();
        let copy = black_box(newest.merged.clone());
        tracer.record("tenant.view_clone", t.elapsed());
        drop(copy);
    }
    let tenants: Vec<TenantId> = newest.merged.tenants().map(|(t, _)| t).collect();
    for r in 0..REPS {
        let tenant = tenants[r % tenants.len()];
        let later = newest.merged.tenant(tenant).expect("listed tenant");
        let window = match oldest.merged.tenant(tenant) {
            None => later.clone(),
            Some(earlier) => {
                let t = Instant::now();
                let delta = later.delta_since(earlier)?;
                tracer.record("core.sw.delta_since", t.elapsed());
                delta
            }
        };
        let t = Instant::now();
        black_box(window.top_n(10, ProfileField::Samples));
        tracer.record("core.sw.top_n", t.elapsed());
    }
    Ok(absorbed)
}

/// The batch codec the client and server use, timed on `batches`:
/// spans `net.encode` and `net.decode`.
pub fn codec(pool: &[Vec<Sample>], tracer: &mut Tracer) -> Result<(), ProfileError> {
    for batch in pool.iter().cycle().take(REPS) {
        let t = Instant::now();
        let body = serde_json::to_string(&batch.to_vec())
            .map_err(|e| ProfileError::net(format!("encode: {e}")))?;
        tracer.record("net.encode", t.elapsed());
        let t = Instant::now();
        let back: Vec<Sample> = serde_json::from_slice(body.as_bytes())
            .map_err(|e| ProfileError::net(format!("decode: {e}")))?;
        tracer.record("net.decode", t.elapsed());
        assert_eq!(back.len(), batch.len(), "the codec round-trips");
    }
    Ok(())
}

/// What the network probe measured.
pub struct NetProbe {
    /// Loopback bytes, both directions, per sample sent.
    pub bytes_per_sample: f64,
    pub client: ClientStats,
}

/// Replays `batches` for tenant 0 through in-process
/// `FleetService::ingest_batch` (spans `net.replay_ingest`) on a
/// scratch one-tenant fleet under `dir`, snapshotting every
/// [`REPLAY_SNAPSHOT_EVERY`] batches so that, as behind the server, no
/// push waits on a full ring. With `send`, the same batches first go
/// through a loopback `FleetServer` with one `FleetClient` (spans
/// `net.send`), and the loopback bytes they move are counted.
pub fn net(
    w: &Workload,
    batches: &[Vec<Sample>],
    dir: &Path,
    send: bool,
    tracer: &mut Tracer,
) -> Result<Option<NetProbe>, ProfileError> {
    let svc = Arc::new(fleet::start(w, &dir.join("probe-net"), 1)?);
    let mut probe = None;
    if send {
        let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&svc))?;
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let serving = std::thread::spawn(move || server.run());
        let mut client = FleetClient::new(addr, TenantId(0), ClientConfig::default());
        let before = crate::sys::loopback_bytes();
        let mut samples = 0u64;
        let mut outcome = Ok(());
        for batch in batches {
            let t = Instant::now();
            if let Err(e) = client.send(batch) {
                outcome = Err(e);
                break;
            }
            tracer.record("net.send", t.elapsed());
            samples += batch.len() as u64;
        }
        let moved = crate::sys::loopback_bytes()
            .zip(before)
            .map_or(0, |(after, before)| after - before);
        let stats = client.stats();
        client.close();
        stop.store(true, Ordering::Release);
        let served = serving.join().expect("server thread panicked");
        outcome?;
        served?;
        probe = Some(NetProbe {
            bytes_per_sample: moved as f64 / samples.max(1) as f64,
            client: stats,
        });
    }
    for (n, batch) in batches.iter().enumerate() {
        let batch = batch.clone();
        let t = Instant::now();
        svc.ingest_batch(TenantId(0), batch)?;
        tracer.record("net.replay_ingest", t.elapsed());
        if (n + 1) % REPLAY_SNAPSHOT_EVERY == 0 {
            svc.snapshot()?;
        }
    }
    let svc = Arc::into_inner(svc).expect("the server released the service");
    svc.shutdown()?;
    Ok(probe)
}

/// `n` batches cycled from `pool`.
pub fn first_batches(pool: &[Vec<Sample>], n: usize) -> Vec<Vec<Sample>> {
    pool.iter().cycle().take(n).cloned().collect()
}
