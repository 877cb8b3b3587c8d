//! `fleet_dashboard` — open-loop writer plus closed-loop reader, two
//! threads.
//!
//! Set-up restarts a durable eight-tenant, two-shard fleet from a store
//! the benchmark filled with `gcc` history. A writer thread then sends
//! 64-sample batches at [`RATE`] batches per second, timed from each
//! batch's due time, while the reader loops on `snapshot` followed by
//! four seeded window queries. The snapshot and view layer, used the
//! other way round from `fleet_absorb`: few rows change per cycle, but
//! every cycle copies the full view and every query is O(program).

use crate::fleet::{self, Fleet, Kept, Ops, Pool, Reader, Tracer};
use crate::gate::{self, Reference};
use crate::inputs::{self, Feed};
use crate::layers::{self, LayerFacts};
use crate::stats::min_pool;
use crate::{pct, probes, Args, Outcome, Result};
use profileme_core::Sample;
use profileme_serve::TenantId;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Samples per batch.
const BATCH: usize = 64;
const TENANTS: u32 = 8;
/// Distinct batches the feeds cycle through.
const POOL: usize = 256;
/// The writer's fixed rate, batches per second.
pub const RATE: u64 = 200;
/// Queries after each reader snapshot.
const QUERIES_PER_CYCLE: usize = 4;
/// History batches written into the store before the run.
const HISTORY_BATCHES: usize = 2048;
/// History batches between snapshots (each snapshot logs one delta per
/// shard).
const HISTORY_SNAPSHOT_EVERY: usize = 128;
/// Batches of warm-up traffic in each set-up.
const WARMUP_BATCHES: usize = 64;
/// Batches the network probe sends.
const NET_PROBE_BATCHES: usize = 64;

/// What the writer thread did.
#[derive(Default)]
struct Written {
    /// Completion measured from each batch's due time.
    acks: Pool,
    /// `ingest_batch` call durations.
    calls: Pool,
    /// Acknowledged batches, in order.
    batches: Vec<(TenantId, usize)>,
    ingests: u64,
    failures: u64,
    /// How far behind schedule the writer started a batch, at worst.
    max_lateness: Duration,
}

/// Sends `pool` batches from `feed` at [`RATE`] until `stop`.
fn write(
    svc: &Fleet,
    pool: &[Vec<Sample>],
    mut feed: Feed,
    start: Instant,
    stop: &AtomicBool,
    acked: &AtomicU64,
) -> Written {
    let mut out = Written::default();
    for n in 0u64.. {
        let (tenant, i) = feed.next_batch();
        let batch = pool[i].clone();
        let due = start + Duration::from_nanos(n * 1_000_000_000 / RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let began = Instant::now();
        out.max_lateness = out.max_lateness.max(began - due);
        out.ingests += 1;
        match svc.ingest_batch(tenant, batch) {
            Ok(_) => {
                let done = Instant::now();
                out.acks.push(done - due);
                out.calls.push(done - began);
                out.batches.push((tenant, i));
                acked.fetch_add(1, Ordering::Release);
            }
            Err(_) => out.failures += 1,
        }
    }
    out
}

/// Copies the files of `from` into a fresh `to`.
fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome> {
    let w = inputs::gcc();
    let (base, base_sim) = inputs::base_samples(&w, args.seed)?;
    let pool = inputs::pool(&base, BATCH, POOL, args.seed);
    drop(base);
    let mut feed = Feed::new(args.seed, TENANTS, POOL);
    let mut reference = Reference::new(fleet::proto(&w));

    // Input generation: fill a store with history, then shut it down.
    let history = scratch.join("history");
    {
        let svc = fleet::start(&w, &history, TENANTS)?;
        for n in 1..=HISTORY_BATCHES {
            let (tenant, i) = feed.next_batch();
            svc.ingest_batch(tenant, pool[i].clone())?;
            reference.add(tenant, &pool[i], 1);
            if n % HISTORY_SNAPSHOT_EVERY == 0 {
                svc.snapshot()?;
            }
        }
        svc.shutdown()?;
    }

    let warm = |feed: &mut Feed| -> Vec<(TenantId, Vec<Sample>)> {
        (0..WARMUP_BATCHES)
            .map(|_| {
                let (tenant, i) = feed.next_batch();
                (tenant, pool[i].clone())
            })
            .collect()
    };
    let mut setups = Vec::with_capacity(fleet::SETUPS);
    for i in 0..fleet::SETUPS - 1 {
        let dir = scratch.join(format!("setup-{i}"));
        copy_store(&history, &dir)?;
        let (svc, took) = fleet::set_up(&w, &dir, TENANTS, warm(&mut feed.clone()))?;
        setups.push(took.as_secs_f64());
        svc.shutdown()?;
        std::fs::remove_dir_all(&dir)?;
    }
    let warmed = warm(&mut feed);
    for (tenant, batch) in &warmed {
        reference.add(*tenant, batch, 1);
    }
    let mut ops = Ops {
        ingests: warmed.len() as u64,
        snapshots: 1,
        ..Ops::default()
    };
    let dir = scratch.join("fleet");
    copy_store(&history, &dir)?;
    let (svc, took) = fleet::set_up(&w, &dir, TENANTS, warmed)?;
    setups.push(took.as_secs_f64());

    // Timed phase: the writer on its own thread, the reader here, until
    // the time is up and every percentile has its samples.
    let mut tracer = Tracer::new(args.trace, args.seed);
    let mut snapshots = Pool::default();
    let mut kept = Kept::default();
    let mut reader = Reader::new(args.seed, TENANTS);
    let stop = AtomicBool::new(false);
    let acked = AtomicU64::new(0);
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (written, read) = std::thread::scope(|s| {
        let writer = s.spawn(|| write(&svc, &pool, feed, start, &stop, &acked));
        let read = (|| -> Result<()> {
            loop {
                kept.push(fleet::snapshot(&svc, &mut ops, &mut snapshots)?);
                reader.ask(QUERIES_PER_CYCLE, &svc, &kept, &mut ops, &mut tracer)?;
                tracer.next_block();
                let enough = reader.queries.len() >= min_pool(0.5)
                    && snapshots.len() >= min_pool(0.5)
                    && acked.load(Ordering::Acquire) >= min_pool(0.5) as u64
                    && tracer.blocks_ready();
                if start.elapsed() >= seconds && enough {
                    return Ok(());
                }
            }
        })();
        stop.store(true, Ordering::Release);
        (writer.join().expect("writer thread panicked"), read)
    });
    let elapsed = start.elapsed();
    read?;
    let queries = reader.queries;
    ops.ingests += written.ingests;
    ops.ingest_failures += written.failures;

    // Every acknowledged sample, history included, must be in the view.
    let last = fleet::snapshot(&svc, &mut ops, &mut snapshots)?;
    for &(tenant, i) in &written.batches {
        reference.add(tenant, &pool[i], 1);
    }
    let final_stats = last.stats.clone();
    let mut mismatches = std::mem::take(&mut reader.mismatches);
    mismatches.extend(gate::check_views(&reference, &last.merged)?);
    mismatches.extend(gate::check_accounting(&final_stats));
    ops.lost_samples = final_stats.service.lost();
    kept.push(last);
    let store = svc.service().store_stats().unwrap_or_default();

    let mut layer_metrics = Vec::new();
    if args.trace {
        let per_cycle = (written.batches.len() / snapshots.len().max(1)).max(1);
        let intervals = written
            .batches
            .chunks(per_cycle)
            .map(<[_]>::to_vec)
            .collect();
        let batches = probes::Batches {
            pool: &pool,
            intervals,
        };
        let absorbed = probes::run(&w, &batches, &kept, scratch, Some(&history), &mut tracer)?;
        let sent = probes::first_batches(&pool, NET_PROBE_BATCHES);
        let net = probes::net(&w, &sent, scratch, true, &mut tracer)?.expect("sent");
        let p50 = |stage: &str| pct(tracer.ms(stage), 0.5, stage);
        let stages = [p50("core.sw.delta_since")?, p50("core.sw.top_n")?];
        eprint!("{}", tracer.summary());
        layer_metrics = layers::metrics(&LayerFacts {
            tracer: &tracer,
            sim: base_sim,
            net_self_ms: p50("net.send")? - p50("net.replay_ingest")?,
            net_bytes_per_sample: net.bytes_per_sample,
            net_retries: net.client.retries,
            net_reconnects: net.client.reconnects,
            ingest_ms: written.calls.ms(),
            stats: &final_stats,
            store,
            absorbed,
            unattributed_share: layers::unattributed(pct(queries.ms(), 0.5, "query")?, &stages),
        })?;
    }
    drop(kept);
    svc.shutdown()?;

    let samples = written.batches.len() * BATCH;
    let (end_to_end, tails) = crate::end_to_end(
        &setups,
        samples as f64 / elapsed.as_secs_f64(),
        written.acks.ms(),
        snapshots.ms(),
        queries.ms(),
    )?;
    Ok(Outcome {
        end_to_end,
        layers: layer_metrics,
        tails,
        ops,
        mismatches,
        load_threads: 2,
        connections: 0,
        notes: vec![
            ("timed_s", elapsed.as_secs_f64()),
            ("acks", written.acks.len() as f64),
            ("snapshots_timed", snapshots.len() as f64),
            ("queries_timed", queries.len() as f64),
            ("writer_rate_per_s", RATE as f64),
            (
                "writer_max_lateness_ms",
                written.max_lateness.as_secs_f64() * 1e3,
            ),
        ],
    })
}
