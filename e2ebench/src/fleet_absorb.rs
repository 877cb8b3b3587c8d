//! `fleet_absorb` — closed loop through ring backpressure, one thread.
//!
//! One thread pushes pre-generated 256-sample batches, round-robin over
//! eight unmetered tenants, straight into `FleetService::ingest_batch`
//! of a durable two-shard fleet, snapshots every [`SNAPSHOT_EVERY`]
//! batches and asks window queries of each snapshot. No simulator, no
//! network: the write path — absorb, worker checkpoints, delta
//! publication and the WAL — dominates.

use crate::fleet::{self, Kept, Ops, Pool, Reader, Tracer};
use crate::gate::{self, Reference};
use crate::inputs::{self, Feed};
use crate::layers::{self, LayerFacts};
use crate::stats::{self, min_pool};
use crate::{pct, probes, Args, Outcome, Result};
use profileme_serve::TenantId;
use std::path::Path;
use std::time::{Duration, Instant};

/// Samples per batch.
const BATCH: usize = 256;
const TENANTS: u32 = 8;
/// Distinct batches the feed cycles through.
const POOL: usize = 64;
/// Batches between snapshots, counted: about one snapshot a second,
/// so absorb and worker checkpoints, not snapshot copies, dominate.
pub const SNAPSHOT_EVERY: u64 = 2048;
/// Batches of warm-up traffic in each set-up.
const WARMUP_BATCHES: usize = 64;
/// Window queries after each snapshot: over a run, enough for a p99.
const QUERIES_PER_SNAPSHOT: usize = 16;
/// Batches the network probe sends.
const NET_PROBE_BATCHES: usize = 64;

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome> {
    let w = inputs::gcc();
    let (base, base_sim) = inputs::base_samples(&w, args.seed)?;
    let pool = inputs::pool(&base, BATCH, POOL, args.seed);
    drop(base);
    let feed = Feed::new(args.seed, TENANTS, POOL);

    let warm = |feed: &mut Feed| -> Vec<(TenantId, Vec<_>)> {
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
        let (svc, took) = fleet::set_up(&w, &dir, TENANTS, warm(&mut feed.clone()))?;
        setups.push(took.as_secs_f64());
        svc.shutdown()?;
        std::fs::remove_dir_all(&dir)?;
    }
    let mut reference = Reference::new(fleet::proto(&w));
    let mut feed = feed;
    let warmed = warm(&mut feed);
    for (tenant, batch) in &warmed {
        reference.add(*tenant, batch, 1);
    }
    let mut ops = Ops {
        ingests: warmed.len() as u64,
        snapshots: 1,
        ..Ops::default()
    };
    let (svc, took) = fleet::set_up(&w, &scratch.join("fleet"), TENANTS, warmed)?;
    setups.push(took.as_secs_f64());

    // Timed phase: whole snapshot intervals until the time is up and
    // every median has its samples.
    let probe_feed = feed.clone();
    let mut tracer = Tracer::new(args.trace, args.seed);
    let (mut acks, mut snapshots) = (Pool::default(), Pool::default());
    let mut kept = Kept::default();
    let mut reader = Reader::new(args.seed, TENANTS);
    let mut counts = vec![vec![0u64; POOL]; TENANTS as usize];
    let mut offered = 0u64;
    // Samples offered per second of each snapshot interval.
    let mut rates = Vec::new();
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut interval = start;
    for n in 1u64.. {
        let (tenant, i) = feed.next_batch();
        let batch = pool[i].clone();
        ops.ingests += 1;
        let t = Instant::now();
        let admitted = svc.ingest_batch(tenant, batch);
        let took = t.elapsed();
        offered += BATCH as u64;
        match admitted {
            Ok(_) => {
                acks.push(took);
                tracer.span("tenant.ingest_batch", took);
                counts[tenant.0 as usize][i] += 1;
            }
            Err(_) => ops.ingest_failures += 1,
        }
        if n % SNAPSHOT_EVERY == 0 {
            kept.push(fleet::snapshot(&svc, &mut ops, &mut snapshots)?);
            let samples = SNAPSHOT_EVERY * BATCH as u64;
            rates.push(samples as f64 / interval.elapsed().as_secs_f64());
            // Queries run with the load paused, outside the interval.
            reader.ask(QUERIES_PER_SNAPSHOT, &svc, &kept, &mut ops, &mut tracer)?;
            tracer.next_block();
            interval = Instant::now();
            let enough = rates.len() >= min_pool(0.5)
                && reader.queries.len() >= min_pool(0.5)
                && tracer.blocks_ready();
            if start.elapsed() >= seconds && enough {
                break;
            }
        }
    }
    // The last snapshot shows every offered sample absorbed.
    let elapsed = start.elapsed();
    tracer.end_blocks();

    let last = kept.newest().expect("the loop ends on a snapshot");
    for (tenant, per_batch) in counts.iter().enumerate() {
        for (i, &times) in per_batch.iter().enumerate() {
            reference.add(TenantId(tenant as u32), &pool[i], times);
        }
    }
    let final_stats = last.stats.clone();
    let mut mismatches = std::mem::take(&mut reader.mismatches);
    mismatches.extend(gate::check_views(&reference, &last.merged)?);
    mismatches.extend(gate::check_accounting(&final_stats));
    ops.lost_samples = final_stats.service.lost();
    let queries = reader.queries;
    let store = svc.service().store_stats().unwrap_or_default();

    let mut layer_metrics = Vec::new();
    if args.trace {
        let mut probe_feed = probe_feed;
        let intervals = (0..probes::REPS)
            .map(|_| {
                (0..SNAPSHOT_EVERY)
                    .map(|_| probe_feed.next_batch())
                    .collect()
            })
            .collect();
        let batches = probes::Batches {
            pool: &pool,
            intervals,
        };
        let absorbed = probes::run(&w, &batches, &kept, scratch, None, &mut tracer)?;
        let sent = probes::first_batches(&pool, NET_PROBE_BATCHES);
        let net = probes::net(&w, &sent, scratch, true, &mut tracer)?.expect("sent");
        let snapshot_p50 = pct(snapshots.ms(), 0.5, "snapshot")?;
        let p50 = |stage: &str| pct(tracer.ms(stage), 0.5, stage);
        let shards = fleet::SHARDS as f64;
        let stages = [
            p50("supervise.extract_delta")?,
            shards * p50("store.append")?,
            shards * p50("service.apply_delta")?,
            2.0 * p50("tenant.view_clone")?,
        ];
        eprint!("{}", tracer.summary());
        layer_metrics = layers::metrics(&LayerFacts {
            tracer: &tracer,
            sim: base_sim,
            net_self_ms: p50("net.send")? - p50("net.replay_ingest")?,
            net_bytes_per_sample: net.bytes_per_sample,
            net_retries: net.client.retries,
            net_reconnects: net.client.reconnects,
            ingest_ms: tracer.ms("tenant.ingest_batch"),
            stats: &final_stats,
            store,
            absorbed,
            unattributed_share: layers::unattributed(snapshot_p50, &stages),
        })?;
    }
    drop(kept);
    svc.shutdown()?;

    let (end_to_end, tails) = crate::end_to_end(
        &setups,
        stats::median(&rates),
        acks.ms(),
        snapshots.ms(),
        queries.ms(),
    )?;
    Ok(Outcome {
        end_to_end,
        layers: layer_metrics,
        tails,
        ops,
        mismatches,
        load_threads: 1,
        connections: 0,
        notes: vec![
            ("timed_s", elapsed.as_secs_f64()),
            ("acks", acks.len() as f64),
            ("snapshots_timed", snapshots.len() as f64),
            ("queries_timed", queries.len() as f64),
            ("samples_offered", offered as f64),
        ],
    })
}
