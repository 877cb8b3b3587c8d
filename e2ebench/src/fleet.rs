//! What the three workloads share: the durable fleet they drive, the
//! dashboard query, the span recorder of traced runs, and the record of
//! every operation a run attempted.

use crate::gate;
use crate::inputs::{stream, Rng, INTERVAL};
use crate::stats::{median, min_pool};
use profileme_core::{ProfileDatabase, ProfileError, ProfileField};
use profileme_serve::{
    FleetConfig, FleetService, FleetSnapshot, ServeConfig, TenantId, TenantQuota,
};
use profileme_workloads::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// Aggregator shards behind every fleet.
pub const SHARDS: usize = 2;
/// WAL records between snapshot compactions: a run of a few hundred
/// snapshots then compacts several times.
pub const COMPACT_EVERY: u64 = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 21;
/// Dashboard windows span `(seq - WINDOW, seq]`.
pub const WINDOW: u64 = 3;
/// One query answer in this many is recomputed from the returned
/// snapshots and compared.
pub const VERIFY_EVERY: u64 = 16;

pub type Fleet = FleetService<ProfileDatabase>;
pub type Snapshot = FleetSnapshot<ProfileDatabase>;

/// A quota no load here comes near: no sample is thinned or shed.
pub fn unmetered() -> TenantQuota {
    TenantQuota {
        rate_per_sec: u64::MAX / 4,
        burst: u64::MAX / 4,
        queue_share: u64::MAX / 4,
    }
}

/// The empty per-tenant profile of `w`.
pub fn proto(w: &Workload) -> ProfileDatabase {
    ProfileDatabase::new(&w.program, INTERVAL)
}

/// Starts a durable fleet of `tenants` unmetered tenants over
/// [`SHARDS`] shards, with its store in `dir` (recovered if present).
pub fn start(w: &Workload, dir: &Path, tenants: u32) -> Result<Fleet, ProfileError> {
    FleetService::start(
        proto(w),
        ServeConfig::builder()
            .shards(SHARDS)
            .data_dir(dir)
            .compact_every(COMPACT_EVERY)
            .build()?,
        FleetConfig::uniform(tenants, unmetered()),
    )
}

/// Every operation a run attempted, and how many failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub sends: u64,
    pub send_failures: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub ingests: u64,
    pub ingest_failures: u64,
    pub snapshots: u64,
    pub snapshot_failures: u64,
    pub queries: u64,
    pub query_failures: u64,
    pub lost_samples: u64,
}

impl Ops {
    pub fn attempted(&self) -> u64 {
        self.sends + self.ingests + self.snapshots + self.queries
    }

    /// Failed operations plus lost samples.
    pub fn failed(&self) -> u64 {
        self.send_failures
            + self.ingest_failures
            + self.snapshot_failures
            + self.query_failures
            + self.lost_samples
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies of one end-to-end operation, in ms.
#[derive(Debug, Clone, Default)]
pub struct Pool(Vec<f64>);

impl Pool {
    pub fn push(&mut self, d: Duration) {
        self.0.push(ms(d));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn ms(&self) -> &[f64] {
        &self.0
    }
}

/// Spans recorded around calls into each layer, kept in memory per
/// stage. While the load runs, a traced run divides it into blocks
/// with tracing on or off and times each block, so that one run yields
/// both the spans and what recording them costs. A seeded coin picks
/// whether each block is traced: with strict alternation, work that
/// recurs every other block (a verified query, a worker checkpoint)
/// would always fall on the same kind.
#[derive(Debug)]
pub struct Tracer {
    /// Picks the kind of each block until the load stops; `None` when
    /// not tracing or once the blocks have ended.
    coin: Option<Rng>,
    on: bool,
    block: Instant,
    /// Durations of finished blocks, ms: untraced, then traced.
    blocks: [Vec<f64>; 2],
    stages: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// Starts the first block.
    pub fn new(enabled: bool, seed: u64) -> Tracer {
        let mut coin = enabled.then(|| Rng::new(seed, stream::TRACE));
        Tracer {
            on: coin.as_mut().is_some_and(|c| c.below(2) == 1),
            coin,
            block: Instant::now(),
            blocks: [Vec::new(), Vec::new()],
            stages: BTreeMap::new(),
        }
    }

    /// Whether the current block records spans.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Ends the current block and starts the next: a traced run times
    /// the block and tosses for the next one.
    pub fn next_block(&mut self) {
        if let Some(coin) = &mut self.coin {
            self.blocks[usize::from(self.on)].push(ms(self.block.elapsed()));
            self.on = coin.below(2) == 1;
        }
        self.block = Instant::now();
    }

    /// Ends the blocks once the load stops: from here a traced run
    /// records every span.
    pub fn end_blocks(&mut self) {
        if self.coin.take().is_some() {
            self.on = true;
        }
    }

    /// Whether traced and untraced blocks are each enough for a median
    /// (always, when not tracing).
    pub fn blocks_ready(&self) -> bool {
        self.coin.is_none() || self.blocks.iter().all(|b| b.len() >= min_pool(0.5))
    }

    /// Durations of the finished traced or untraced blocks, ms.
    pub fn blocks(&self, traced: bool) -> &[f64] {
        &self.blocks[usize::from(traced)]
    }

    pub fn span(&mut self, stage: &'static str, d: Duration) {
        if self.on {
            self.record(stage, d);
        }
    }

    /// Records a probe's span regardless of the block.
    pub fn record(&mut self, stage: &'static str, d: Duration) {
        self.stages.entry(stage).or_default().push(ms(d));
    }

    /// A stage's spans, in ms.
    pub fn ms(&self, stage: &str) -> &[f64] {
        self.stages.get(stage).map_or(&[], Vec::as_slice)
    }

    /// One line per stage: count, median and total.
    pub fn summary(&self) -> String {
        self.stages
            .iter()
            .map(|(stage, ms)| {
                format!(
                    "span {stage}: n={} median={:.4}ms total={:.1}ms\n",
                    ms.len(),
                    median(ms),
                    ms.iter().sum::<f64>()
                )
            })
            .collect()
    }
}

/// The last `WINDOW + 1` snapshots the service returned: enough to
/// recompute a `(seq - WINDOW, seq]` window from returned data alone.
#[derive(Default)]
pub struct Kept(VecDeque<Snapshot>);

impl Kept {
    pub fn push(&mut self, snap: Snapshot) {
        self.0.push_back(snap);
        while self.0.len() > WINDOW as usize + 1 {
            self.0.pop_front();
        }
    }

    pub fn newest(&self) -> Option<&Snapshot> {
        self.0.back()
    }

    pub fn oldest(&self) -> Option<&Snapshot> {
        self.0.front()
    }

    /// Whether a full window is available.
    pub fn full(&self) -> bool {
        self.0.len() == WINDOW as usize + 1
    }
}

/// Takes one snapshot, timing it into `pool`.
pub fn snapshot(svc: &Fleet, ops: &mut Ops, pool: &mut Pool) -> Result<Snapshot, ProfileError> {
    ops.snapshots += 1;
    let t = Instant::now();
    match svc.snapshot() {
        Ok(snap) => {
            pool.push(t.elapsed());
            Ok(snap)
        }
        Err(e) => {
            ops.snapshot_failures += 1;
            Err(e)
        }
    }
}

/// One dashboard query against the newest kept snapshot:
/// `tenant_window(t, seq - 3, seq)` plus `top_n(10, Samples)` on its
/// result, timed into `pool` (and split into its two calls when
/// tracing). Nothing is asked until a full window has been returned.
/// With `verify` the answer is recomputed from the kept snapshots; a
/// difference is returned as a gate mismatch.
pub fn query(
    svc: &Fleet,
    kept: &Kept,
    tenant: TenantId,
    verify: bool,
    ops: &mut Ops,
    pool: &mut Pool,
    tracer: &mut Tracer,
) -> Result<Option<String>, ProfileError> {
    let (Some(newest), Some(oldest), true) = (kept.newest(), kept.oldest(), kept.full()) else {
        return Ok(None);
    };
    let to = newest.seq;
    let from = to.saturating_sub(WINDOW);
    ops.queries += 1;
    let t = Instant::now();
    let window = match svc.tenant_window(tenant, from, to) {
        Ok(Some(window)) => window,
        Ok(None) | Err(_) => {
            ops.query_failures += 1;
            return Ok(None);
        }
    };
    let windowed = t.elapsed();
    let top = std::hint::black_box(window.top_n(10, ProfileField::Samples));
    let total = t.elapsed();
    pool.push(total);
    tracer.span("tenant.window", windowed);
    tracer.span("core.sw.top_n", total - windowed);
    drop(top);
    if !verify {
        return Ok(None);
    }
    let expected = gate::expected_window(&oldest.merged, &newest.merged, tenant)?;
    Ok((!gate::answer_matches(Some(&window), expected.as_ref())?)
        .then(|| format!("{tenant}: window ({from}, {to}] differs from the returned snapshots")))
}

/// The in-process set-up: `FleetService::start` on `dir` (recovering
/// whatever store is there), then `warm` ingested and one snapshot.
/// Returns the fleet and how long that took.
pub fn set_up(
    w: &Workload,
    dir: &Path,
    tenants: u32,
    warm: Vec<(TenantId, Vec<profileme_core::Sample>)>,
) -> Result<(Fleet, Duration), ProfileError> {
    let t = Instant::now();
    let svc = start(w, dir, tenants)?;
    for (tenant, batch) in warm {
        svc.ingest_batch(tenant, batch)?;
    }
    svc.snapshot()?;
    Ok((svc, t.elapsed()))
}

/// Dashboard queries on seeded tenants, one answer in
/// [`VERIFY_EVERY`] checked against the kept snapshots.
pub struct Reader {
    rng: Rng,
    verify_phase: u64,
    tenants: u32,
    pub queries: Pool,
    pub mismatches: Vec<String>,
}

impl Reader {
    pub fn new(seed: u64, tenants: u32) -> Reader {
        let mut rng = Rng::new(seed, stream::QUERIES);
        Reader {
            verify_phase: rng.next_u64() % VERIFY_EVERY,
            rng,
            tenants,
            queries: Pool::default(),
            mismatches: Vec::new(),
        }
    }

    /// Asks `n` queries against the newest kept snapshot.
    pub fn ask(
        &mut self,
        n: usize,
        svc: &Fleet,
        kept: &Kept,
        ops: &mut Ops,
        tracer: &mut Tracer,
    ) -> Result<(), ProfileError> {
        for _ in 0..n {
            let tenant = TenantId(self.rng.below(self.tenants as usize) as u32);
            let verify = ops.queries % VERIFY_EVERY == self.verify_phase;
            let mismatch = query(svc, kept, tenant, verify, ops, &mut self.queries, tracer)?;
            self.mismatches.extend(mismatch);
        }
        Ok(())
    }
}
