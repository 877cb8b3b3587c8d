//! Snapshot-plane tracker for the sharded aggregation service: the
//! cost of one request→reply→fold snapshot cycle under concurrent
//! ingest — workers answer a request queued on their ring with sparse
//! deltas that the service folds into its materialized view — at
//! 1/2/4/8 shards. Writes
//! `BENCH_snapshot.json` so snapshot-cycle cost can be compared across
//! revisions.
//!
//! Three families of numbers:
//!
//! * **Cycle throughput** (cycles/s, p50/p95/p99 µs): back-to-back
//!   `snapshot()` calls while a producer thread keeps `ingest_batch`
//!   saturated. The first `WARMUP` cycles per repetition are excluded
//!   — the first cycle replays the whole history, and steady state is
//!   what the dashboard pays.
//! * **Bytes per snapshot**: the measured delta publication bytes
//!   (`IngestStats::delta_bytes`) per cycle.
//! * **Wire micro-costs**: encode/decode latency and size for the
//!   dense (JSON) and sparse (columnar) formats plus
//!   `extract_delta`/`apply_delta`, on one real profiling run's
//!   database.
//!
//! Every cell ends with the byte-identity check: once the producer
//! stops, a quiescent `snapshot()` must serialize identically to the
//! `shutdown()` merge — that pits the incrementally-maintained
//! materialized view against the direct shard merge, under everything
//! the concurrent phase did to it.
//!
//! Knobs, following `bench_ingest`: `PROFILEME_SCALE` sets workload
//! length and timed cycles, `PROFILEME_BENCH_REPS` the repetitions per
//! cell (best-of-N).

use profileme_bench::engine::{env, Emitter};
use profileme_bench::scaled;
use profileme_core::{ProfileDatabase, ProfileField, ProfileMeConfig, Sample, Session, WireFormat};
use profileme_serve::{ServeConfig, ShardedService};
use profileme_workloads::{self as workloads, Workload};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shard counts the tracker sweeps.
const SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Samples per `ingest_batch` call. Smaller than `bench_ingest`'s
/// batches: the producer here models a steady tap, not a flood.
const BATCH: usize = 256;
/// Ring capacity per shard.
const QUEUE_DEPTH: usize = 64;
/// Producer pacing between batches. A snapshot waits for every shard
/// to drain the work queued ahead of its request, so an unpaced
/// producer would turn
/// each cycle into a backlog-drain measurement instead of a
/// snapshot-cost measurement.
const PACE: std::time::Duration = std::time::Duration::from_micros(100);
/// Untimed cycles per repetition before measurement starts.
const WARMUP: usize = 16;
/// Loop-body no-ops of the profiled program: a ~8k-row profile
/// database, the regime the snapshot plane is for. Per-epoch deltas
/// touch only the rows sampled since the last cycle.
const IMAGE_NOPS: usize = 8192;

#[derive(Debug, Serialize)]
struct Cell {
    workload: &'static str,
    shards: usize,
    /// Timed cycles per repetition.
    cycles: u64,
    /// Steady-state cycle throughput, best repetition.
    cycles_per_second: f64,
    /// First repetition (cold workers, cold caches).
    cold_cycles_per_second: f64,
    snapshot_p50_us: f64,
    snapshot_p95_us: f64,
    snapshot_p99_us: f64,
    /// Wire bytes shipped per cycle, mean across repetitions.
    bytes_per_snapshot: f64,
    /// Samples absorbed during the timed phase, mean across
    /// repetitions — the concurrent-ingest context for the cycle cost.
    ingested_per_cycle: f64,
}

/// Wire-format micro-costs on one profiling run's database.
#[derive(Debug, Serialize)]
struct WireCell {
    workload: &'static str,
    /// Rows with at least one sample — the `O(touched)` unit.
    touched_rows: u64,
    dense_bytes: usize,
    sparse_bytes: usize,
    /// Full-history delta (everything dirty), the worst case.
    delta_bytes: usize,
    encode_dense_us: f64,
    encode_sparse_us: f64,
    decode_dense_us: f64,
    decode_sparse_us: f64,
    delta_extract_us: f64,
    delta_apply_us: f64,
}

/// Per-cell comparison against the previous `BENCH_snapshot.json`.
#[derive(Debug, Serialize)]
struct Delta {
    workload: String,
    shards: usize,
    previous_cycles_per_second: f64,
    /// Positive means this run cycles faster.
    cycles_per_second_delta: f64,
    /// Positive means this run ships more bytes per cycle.
    bytes_per_snapshot_delta: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    scale: f64,
    reps: u32,
    batch: usize,
    cycles: u64,
    warmup: usize,
    cores: usize,
    cells: Vec<Cell>,
    wire: Vec<WireCell>,
    /// Deltas vs the previous report, empty on a first run.
    baseline_deltas: Vec<Delta>,
}

/// Nearest-rank percentile over an unsorted pool of latencies.
fn percentile(pool: &[f64], p: f64) -> f64 {
    if pool.is_empty() {
        return 0.0;
    }
    let mut sorted = pool.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn reps() -> u32 {
    std::env::var("PROFILEME_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1)
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Profiles `w` once and cycles the run's samples up to `target`, so
/// the producer can loop the stream indefinitely. Returns the batches
/// and the sampling interval the databases must be built with.
fn sample_batches(w: &Workload, target: usize) -> (Arc<Vec<Vec<Sample>>>, u64) {
    let run = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(ProfileMeConfig {
            mean_interval: 32,
            buffer_depth: 8,
            ..ProfileMeConfig::default()
        })
        .build()
        .expect("config is valid")
        .profile_single()
        .expect("workload completes");
    assert!(!run.samples.is_empty(), "{} produced no samples", w.name);
    let mut stream = Vec::with_capacity(target + run.samples.len());
    while stream.len() < target {
        stream.extend(run.samples.iter().cloned());
    }
    let batches = stream.chunks(BATCH).map(<[Sample]>::to_vec).collect();
    (Arc::new(batches), run.db.interval())
}

/// One repetition of one cell: spin up the service, keep a producer
/// thread saturating ingest, run `WARMUP` untimed cycles then
/// `cycles` timed ones, and finish with the quiescent byte-identity
/// check. Returns (total snapshot seconds, wire bytes, samples
/// absorbed while timed).
fn one_rep(
    w: &Workload,
    batches: &Arc<Vec<Vec<Sample>>>,
    interval: u64,
    shards: usize,
    cycles: u64,
    call_us: &mut Vec<f64>,
) -> (f64, u64, u64) {
    let empty = ProfileDatabase::new(&w.program, interval);
    let service = Arc::new(
        ShardedService::start(
            empty,
            ServeConfig::builder()
                .shards(shards)
                .queue_depth(QUEUE_DEPTH)
                .build()
                .expect("config is valid"),
        )
        .expect("service starts"),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let batches = Arc::clone(batches);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                service.ingest_batch(batches[i % batches.len()].clone());
                i += 1;
                std::thread::sleep(PACE);
            }
        })
    };
    for _ in 0..WARMUP {
        service.snapshot().expect("warmup snapshot cycles");
    }
    let before = service.stats();
    let mut snap_secs = 0.0;
    for _ in 0..cycles {
        let t = Instant::now();
        let snap = service.snapshot().expect("snapshot cycles under ingest");
        let elapsed = t.elapsed().as_secs_f64();
        snap_secs += elapsed;
        call_us.push(elapsed * 1e6);
        std::hint::black_box(&snap);
    }
    let after = service.stats();
    let bytes = after.delta_bytes - before.delta_bytes;
    let ingested = (after.enqueued - after.dropped) - (before.enqueued - before.dropped);
    stop.store(true, Ordering::Relaxed);
    producer.join().expect("producer thread exits");
    // Byte-identity under everything the concurrent phase did: a
    // quiescent snapshot (the producer has stopped, so the request
    // queues behind every enqueued item) must serialize identically to the
    // shutdown merge. This pits the materialized view against the
    // direct shard merge.
    let quiescent = service.snapshot().expect("quiescent snapshot");
    let service = Arc::into_inner(service).expect("producer joined");
    let (merged, stats) = service.shutdown().expect("service drains");
    assert_eq!(
        quiescent
            .merged
            .encode(WireFormat::Sparse)
            .expect("snapshot serializes"),
        merged
            .encode(WireFormat::Sparse)
            .expect("snapshot serializes"),
        "{} at {shards} shard(s): view diverged from direct merge",
        w.name,
    );
    assert_eq!(stats.lost(), 0, "no faults injected, nothing may be lost");
    (snap_secs, bytes, ingested)
}

fn time_cell(
    w: &Workload,
    batches: &Arc<Vec<Vec<Sample>>>,
    interval: u64,
    shards: usize,
    cycles: u64,
    reps: u32,
) -> Cell {
    let mut call_us = Vec::new();
    let mut best = f64::INFINITY;
    let mut cold = f64::NAN;
    let mut bytes_sum = 0.0;
    let mut ingested_sum = 0.0;
    for rep in 0..reps {
        let (secs, bytes, ingested) = one_rep(w, batches, interval, shards, cycles, &mut call_us);
        if rep == 0 {
            cold = secs;
        }
        best = best.min(secs);
        bytes_sum += bytes as f64;
        ingested_sum += ingested as f64;
    }
    let per_cycle = cycles as f64 * reps as f64;
    Cell {
        workload: w.name,
        shards,
        cycles,
        cycles_per_second: cycles as f64 / best,
        cold_cycles_per_second: cycles as f64 / cold,
        snapshot_p50_us: percentile(&call_us, 0.50),
        snapshot_p95_us: percentile(&call_us, 0.95),
        snapshot_p99_us: percentile(&call_us, 0.99),
        bytes_per_snapshot: bytes_sum / per_cycle,
        ingested_per_cycle: ingested_sum / per_cycle,
    }
}

/// Best-of-N wall time in microseconds for `run`, which does its own
/// per-iteration setup and returns just the measured span.
fn best_us(iters: u32, mut run: impl FnMut() -> f64) -> f64 {
    (0..iters).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Wire-format micro-costs on a database built from the head of the
/// stream — encode, decode, and the delta pair.
fn wire_cell(w: &Workload, batches: &[Vec<Sample>], interval: u64) -> WireCell {
    let mut db = ProfileDatabase::new(&w.program, interval);
    for s in batches.iter().flatten().take(8192) {
        db.add(s);
    }
    let sparse = db.encode(WireFormat::Sparse).expect("sparse encodes");
    let dense = db.encode(WireFormat::Dense).expect("dense encodes");
    let empty = ProfileDatabase::new(&w.program, interval);
    let full_delta = {
        let mut d = db.clone();
        let mut base = empty.clone();
        d.extract_delta(&mut base).expect("delta extracts")
    };
    const ITERS: u32 = 40;
    let encode_sparse_us = best_us(ITERS, || {
        let t = Instant::now();
        std::hint::black_box(db.encode(WireFormat::Sparse).expect("sparse encodes"));
        t.elapsed().as_secs_f64() * 1e6
    });
    let encode_dense_us = best_us(ITERS, || {
        let t = Instant::now();
        std::hint::black_box(db.encode(WireFormat::Dense).expect("dense encodes"));
        t.elapsed().as_secs_f64() * 1e6
    });
    let decode_sparse_us = best_us(ITERS, || {
        let t = Instant::now();
        std::hint::black_box(ProfileDatabase::decode(&sparse).expect("decodes"));
        t.elapsed().as_secs_f64() * 1e6
    });
    let decode_dense_us = best_us(ITERS, || {
        let t = Instant::now();
        std::hint::black_box(ProfileDatabase::decode(&dense).expect("decodes"));
        t.elapsed().as_secs_f64() * 1e6
    });
    let delta_extract_us = best_us(ITERS, || {
        let mut d = db.clone();
        let mut base = empty.clone();
        let t = Instant::now();
        std::hint::black_box(d.extract_delta(&mut base).expect("delta extracts"));
        t.elapsed().as_secs_f64() * 1e6
    });
    let delta_apply_us = best_us(ITERS, || {
        let mut replica = empty.clone();
        let t = Instant::now();
        replica.apply_delta(&full_delta).expect("delta applies");
        std::hint::black_box(&replica);
        t.elapsed().as_secs_f64() * 1e6
    });
    WireCell {
        workload: w.name,
        touched_rows: db.top_n(usize::MAX, ProfileField::Samples).len() as u64,
        dense_bytes: dense.len(),
        sparse_bytes: sparse.len(),
        delta_bytes: full_delta.len(),
        encode_dense_us,
        encode_sparse_us,
        decode_dense_us,
        decode_sparse_us,
        delta_extract_us,
        delta_apply_us,
    }
}

/// Loads the previous report's per-cell numbers for delta lines:
/// `(workload, shards) → (cycles_per_second, bytes_per_snapshot)`.
/// Parsed loosely so reports from before a schema change still compare
/// on the fields they have; cells of the retired dense full-clone plane
/// are skipped.
type PreviousCell = (String, usize, f64, f64);

fn previous_cells(path: &std::path::Path) -> Vec<PreviousCell> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(root) = serde_json::parse(&text) else {
        return Vec::new();
    };
    let Some(cells) = root.get("cells").and_then(|c| c.as_array()) else {
        return Vec::new();
    };
    cells
        .iter()
        .filter_map(|cell| {
            if cell.get("plane").and_then(|p| p.as_str()) == Some("dense") {
                return None;
            }
            let workload = cell.get("workload")?.as_str()?.to_string();
            let shards = cell.get("shards")?.as_u64()? as usize;
            let rate = cell.get("cycles_per_second")?.as_f64()?;
            let bytes = cell.get("bytes_per_snapshot")?.as_f64()?;
            Some((workload, shards, rate, bytes))
        })
        .collect()
}

fn baseline_deltas(out: &Emitter, cells: &[Cell], path: &std::path::Path) -> Vec<Delta> {
    let previous = previous_cells(path);
    if previous.is_empty() {
        out.say(format!(
            "no previous {} — baseline comparison skipped",
            path.display()
        ));
        return Vec::new();
    }
    out.say(format!("baseline comparison ({}):", path.display()));
    let mut deltas = Vec::new();
    for cell in cells {
        let Some((_, _, prev_rate, prev_bytes)) = previous
            .iter()
            .find(|(w, s, _, _)| w == cell.workload && *s == cell.shards)
        else {
            continue;
        };
        let rate_delta = cell.cycles_per_second - prev_rate;
        let bytes_delta = cell.bytes_per_snapshot - prev_bytes;
        out.say(format!(
            "{:>9} {:>7}: cycle throughput delta {:+.0}/s, bytes/snapshot {:+.0}",
            cell.workload,
            format!("{}-shard", cell.shards),
            rate_delta,
            bytes_delta,
        ));
        deltas.push(Delta {
            workload: cell.workload.to_string(),
            shards: cell.shards,
            previous_cycles_per_second: *prev_rate,
            cycles_per_second_delta: rate_delta,
            bytes_per_snapshot_delta: bytes_delta,
        });
    }
    deltas
}

fn main() {
    let dump_dir = env::dump_dir().unwrap_or_else(|| std::path::PathBuf::from("."));
    let baseline_path = dump_dir.join("BENCH_snapshot.json");
    let out = Emitter::with_dump_dir(Some(dump_dir));
    out.banner(
        "Snapshot-cycle cost — sparse deltas into the materialized view",
        "repo infrastructure (not a paper figure)",
    );
    let reps = reps();
    let cores = cores();
    let cycles = scaled(240);
    out.say(format!(
        "machine: {cores} core(s); {reps} rep(s), {WARMUP} warmup + {cycles} timed cycles each"
    ));
    // A loop over a ~8k-instruction image: every image row is hot over
    // the whole run, but only the rows sampled since the previous
    // cycle are in any one epoch's delta.
    let (w, _) = workloads::microbench(IMAGE_NOPS, scaled(100));
    let (batches, interval) = sample_batches(&w, scaled(100_000) as usize);
    out.say(format!(
        "{:>9}: {}-instruction image; producer loops {} batches of {} samples",
        w.name,
        w.program.len(),
        batches.len(),
        BATCH
    ));
    out.blank();
    let mut cells = Vec::new();
    for shards in SHARDS {
        let cell = time_cell(&w, &batches, interval, shards, cycles, reps);
        out.say(format!(
            "{:>9} {:>7}: {:>7.0} cycles/s  p50={:.0} p95={:.0} p99={:.0}us  \
             {:>8.0} B/snap  {:>6.0} samples/cycle",
            cell.workload,
            format!("{shards}-shard"),
            cell.cycles_per_second,
            cell.snapshot_p50_us,
            cell.snapshot_p95_us,
            cell.snapshot_p99_us,
            cell.bytes_per_snapshot,
            cell.ingested_per_cycle,
        ));
        cells.push(cell);
    }
    out.blank();
    out.say("every cell's quiescent snapshot matched its shutdown merge byte-for-byte".to_string());
    let wire = vec![wire_cell(&w, &batches, interval)];
    for wc in &wire {
        out.say(format!(
            "{:>9} wire: {} touched rows; dense {} B / sparse {} B / full delta {} B",
            wc.workload, wc.touched_rows, wc.dense_bytes, wc.sparse_bytes, wc.delta_bytes
        ));
        out.say(format!(
            "{:>9} wire: encode dense {:.1}us sparse {:.1}us; decode dense {:.1}us sparse {:.1}us; \
             extract {:.1}us apply {:.1}us",
            wc.workload,
            wc.encode_dense_us,
            wc.encode_sparse_us,
            wc.decode_dense_us,
            wc.decode_sparse_us,
            wc.delta_extract_us,
            wc.delta_apply_us,
        ));
    }
    out.blank();
    let deltas = baseline_deltas(&out, &cells, &baseline_path);
    out.dump(
        "BENCH_snapshot",
        &Report {
            scale: env::scale(),
            reps,
            batch: BATCH,
            cycles,
            warmup: WARMUP,
            cores,
            cells,
            wire,
            baseline_deltas: deltas,
        },
    );
}
