//! `live_wire` — closed loop, one thread, one connection.
//!
//! One thread runs `gcc` under ProfileMe sampling through
//! `Session::run`; its interrupt handler sends every 256 drained
//! samples with one `FleetClient` to a loopback `FleetServer` in front
//! of a durable two-shard, one-tenant fleet, snapshots every 16
//! batches and asks a few window queries of each snapshot. The only
//! workload that runs the simulator and the wire codec.

use crate::fleet::{self, Fleet, Kept, Ops, Pool, Reader, Tracer};
use crate::gate::{self, Reference};
use crate::inputs::{self, stream, Rng, SimRun};
use crate::layers::{self, LayerFacts};
use crate::stats::{self, min_pool};
use crate::{pct, probes, sys, Args, Outcome, Result};
use profileme_core::{ProfileError, Sample};
use profileme_serve::{ClientConfig, FleetClient, FleetServer, TenantId};
use profileme_workloads::Workload;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Samples per `send`.
const BATCH: usize = 256;
/// Batches between snapshots.
const SNAPSHOT_EVERY: u64 = 16;
/// Batches of warm-up traffic in each set-up.
const WARMUP_BATCHES: usize = 8;
/// Window queries after each snapshot: over a run, enough for a p99.
const QUERIES_PER_SNAPSHOT: usize = 4;
/// Snapshot intervals of sent batches the probes replay.
const PROBE_INTERVALS: usize = 40;
/// Batches the in-process replay pushes (enough for a p99).
const REPLAY_BATCHES: usize = 1024;
const TENANT: TenantId = TenantId(0);

/// A fleet behind a loopback server, and the one client.
struct Wire {
    svc: Arc<Fleet>,
    stop: Arc<AtomicBool>,
    server: JoinHandle<std::result::Result<(), ProfileError>>,
    client: FleetClient,
}

impl Wire {
    /// From `FleetService::start` through server bind, client connect
    /// and `warm` sent and snapshotted.
    fn set_up(w: &Workload, dir: &Path, warm: &[Vec<Sample>]) -> Result<(Wire, Duration)> {
        let t = Instant::now();
        let svc = Arc::new(fleet::start(w, dir, 1)?);
        let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&svc))?;
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let mut wire = Wire {
            svc,
            stop,
            server: std::thread::spawn(move || server.run()),
            client: FleetClient::new(addr, TENANT, ClientConfig::default()),
        };
        let warmed = warm
            .iter()
            .try_for_each(|batch| wire.client.send(batch).map(drop))
            .and_then(|()| wire.svc.snapshot().map(drop));
        match warmed {
            Ok(()) => Ok((wire, t.elapsed())),
            Err(e) => {
                drop(wire.tear_down());
                Err(e.into())
            }
        }
    }

    /// Says goodbye, stops and joins the server, shuts the fleet down.
    fn tear_down(self) -> Result<()> {
        self.client.close();
        self.stop.store(true, Ordering::Release);
        let served = self.server.join().expect("server thread panicked");
        let svc = Arc::into_inner(self.svc).expect("the server released the service");
        svc.shutdown()?;
        served?;
        Ok(())
    }
}

/// The timed phase's state, driven from the interrupt handler.
struct Live {
    wire: Wire,
    tracer: Tracer,
    ops: Ops,
    reference: Reference,
    pending: Vec<Sample>,
    acks: Pool,
    snapshots: Pool,
    kept: Kept,
    reader: Reader,
    batches: u64,
    acked: u64,
    /// Start of the current snapshot interval, and samples acknowledged
    /// in it.
    interval: Instant,
    interval_acked: u64,
    /// Samples acknowledged per second of each finished interval.
    rates: Vec<f64>,
    /// Batches of traced blocks, kept for the probes.
    recorded: Vec<Vec<Sample>>,
    /// Loopback bytes around the traced sends, and their samples.
    wire_bytes: u64,
    wire_samples: u64,
    error: Option<ProfileError>,
}

impl Live {
    fn on_samples(&mut self, samples: Vec<Sample>) {
        self.pending.extend(samples);
        while self.pending.len() >= BATCH {
            let batch: Vec<Sample> = self.pending.drain(..BATCH).collect();
            self.send(batch);
        }
    }

    fn send(&mut self, batch: Vec<Sample>) {
        let traced = self.tracer.on();
        let before = if traced { sys::loopback_bytes() } else { None };
        self.ops.sends += 1;
        let t = Instant::now();
        let sent = self.wire.client.send(&batch);
        let took = t.elapsed();
        match sent {
            Ok(_) => {
                self.acks.push(took);
                if let (Some(before), Some(after)) = (before, sys::loopback_bytes()) {
                    self.wire_bytes += after - before;
                    self.wire_samples += batch.len() as u64;
                }
                self.reference.add(TENANT, &batch, 1);
                self.acked += batch.len() as u64;
                self.interval_acked += batch.len() as u64;
                if traced && self.recorded.len() < PROBE_INTERVALS * SNAPSHOT_EVERY as usize {
                    self.recorded.push(batch);
                }
            }
            Err(_) => self.ops.send_failures += 1,
        }
        self.batches += 1;
        if self.batches.is_multiple_of(SNAPSHOT_EVERY) {
            match fleet::snapshot(&self.wire.svc, &mut self.ops, &mut self.snapshots) {
                Ok(snap) => self.kept.push(snap),
                Err(e) => self.error = Some(e),
            }
            let interval = self.interval.elapsed().as_secs_f64();
            self.rates.push(self.interval_acked as f64 / interval);
            // Queries run with the load paused, outside the interval.
            let asked = self.reader.ask(
                QUERIES_PER_SNAPSHOT,
                &self.wire.svc,
                &self.kept,
                &mut self.ops,
                &mut self.tracer,
            );
            if let Err(e) = asked {
                self.error = Some(e);
            }
            self.tracer.next_block();
            self.interval = Instant::now();
            self.interval_acked = 0;
        }
    }
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome> {
    let w = inputs::gcc();
    let (base, _) = inputs::base_samples(&w, args.seed)?;
    let warm = inputs::pool(&base, BATCH, WARMUP_BATCHES, args.seed);
    drop(base);

    let mut setups = Vec::with_capacity(fleet::SETUPS);
    let mut wire = None;
    for i in 0..fleet::SETUPS {
        let dir = scratch.join(format!("setup-{i}"));
        let (set, took) = Wire::set_up(&w, &dir, &warm)?;
        setups.push(took.as_secs_f64());
        if i + 1 < fleet::SETUPS {
            set.tear_down()?;
            std::fs::remove_dir_all(&dir)?;
        } else {
            wire = Some(set);
        }
    }
    let mut reference = Reference::new(fleet::proto(&w));
    for batch in &warm {
        reference.add(TENANT, batch, 1);
    }
    let mut live = Live {
        wire: wire.expect("at least one set-up"),
        tracer: Tracer::new(args.trace, args.seed),
        ops: Ops {
            sends: warm.len() as u64,
            snapshots: 1,
            ..Ops::default()
        },
        reference,
        pending: Vec::new(),
        acks: Pool::default(),
        snapshots: Pool::default(),
        kept: Kept::default(),
        reader: Reader::new(args.seed, 1),
        batches: 0,
        acked: 0,
        interval: Instant::now(),
        interval_acked: 0,
        rates: Vec::new(),
        recorded: Vec::new(),
        wire_bytes: 0,
        wire_samples: 0,
        error: None,
    };

    // Timed phase: whole simulations until the time is up and every
    // median has its samples.
    let seconds = Duration::from_secs(args.seconds);
    let mut sim = SimRun::default();
    let start = Instant::now();
    live.interval = start;
    for chunk in 0.. {
        let seed = Rng::new(args.seed, stream::CHUNK + chunk).next_u64();
        let run = inputs::simulate(&w, seed, args.trace, |s| live.on_samples(s))?;
        sim.wall += run.wall;
        sim.handler += run.handler;
        sim.retired += run.retired;
        sim.drained += run.drained;
        if let Some(e) = live.error.take() {
            return Err(e.into());
        }
        let probed =
            !args.trace || live.recorded.len() == PROBE_INTERVALS * SNAPSHOT_EVERY as usize;
        let enough = live.acks.len() >= min_pool(0.5)
            && live.rates.len() >= min_pool(0.5)
            && live.reader.queries.len() >= min_pool(0.5)
            && live.tracer.blocks_ready()
            && probed;
        if start.elapsed() >= seconds && enough {
            break;
        }
    }
    let elapsed = start.elapsed();
    // The partial batch left over is never offered.
    live.pending.clear();

    live.tracer.end_blocks();

    // Every acknowledged sample must be in the view.
    let last = fleet::snapshot(&live.wire.svc, &mut live.ops, &mut live.snapshots)?;
    let final_stats = last.stats.clone();
    let mut mismatches = std::mem::take(&mut live.reader.mismatches);
    mismatches.extend(gate::check_views(&live.reference, &last.merged)?);
    mismatches.extend(gate::check_accounting(&final_stats));
    live.kept.push(last);
    let store = live.wire.svc.service().store_stats().unwrap_or_default();
    let client = live.wire.client.stats();
    live.ops.retries = client.retries;
    live.ops.reconnects = client.reconnects;
    live.ops.lost_samples = final_stats.service.lost();

    let mut layer_metrics = Vec::new();
    if args.trace {
        let mut tracer = std::mem::replace(&mut live.tracer, Tracer::new(false, 0));
        let intervals: Vec<Vec<(TenantId, usize)>> = (0..live.recorded.len())
            .collect::<Vec<_>>()
            .chunks(SNAPSHOT_EVERY as usize)
            .map(|c| c.iter().map(|&i| (TENANT, i)).collect())
            .collect();
        let batches = probes::Batches {
            pool: &live.recorded,
            intervals,
        };
        let absorbed = probes::run(&w, &batches, &live.kept, scratch, None, &mut tracer)?;
        probes::codec(&live.recorded, &mut tracer)?;
        let replay = probes::first_batches(&live.recorded, REPLAY_BATCHES);
        probes::net(&w, &replay, scratch, false, &mut tracer)?;
        let ingest_ms = tracer.ms("net.replay_ingest").to_vec();
        let send_p50 = pct(live.acks.ms(), 0.5, "send")?;
        let replay_p50 = pct(&ingest_ms, 0.5, "replayed ingest_batch")?;
        let stages = [
            pct(tracer.ms("net.encode"), 0.5, "encode")?,
            pct(tracer.ms("net.decode"), 0.5, "decode")?,
            replay_p50,
        ];
        eprint!("{}", tracer.summary());
        layer_metrics = layers::metrics(&LayerFacts {
            tracer: &tracer,
            sim,
            net_self_ms: send_p50 - replay_p50,
            net_bytes_per_sample: live.wire_bytes as f64 / live.wire_samples.max(1) as f64,
            net_retries: client.retries,
            net_reconnects: client.reconnects,
            ingest_ms: &ingest_ms,
            stats: &final_stats,
            store,
            absorbed,
            unattributed_share: layers::unattributed(send_p50, &stages),
        })?;
    }
    let Live {
        wire,
        acks,
        snapshots,
        kept,
        reader,
        acked,
        rates,
        ops,
        ..
    } = live;
    let queries = reader.queries;
    drop(kept);
    wire.tear_down()?;

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
        connections: 1,
        notes: vec![
            ("timed_s", elapsed.as_secs_f64()),
            ("acks", acks.len() as f64),
            ("snapshots_timed", snapshots.len() as f64),
            ("queries_timed", queries.len() as f64),
            ("samples_acked", acked as f64),
        ],
    })
}
