//! Seeded inputs: the `gcc` image, ProfileMe sampling runs over it, and
//! the batch feeds cut from a small base set of its samples.
//!
//! The seed drives `ProfileMeConfig::seed`, which batches are cut from
//! the base set, the tenant rotation and which tenants are queried.
//! The program under test only ever sees the generated batches.

use profileme_core::{ProfileError, ProfileMeConfig, ProfileMeHardware, Sample, Session};
use profileme_serve::TenantId;
use profileme_workloads::Workload;
use std::time::{Duration, Instant};

/// Mean sampling interval, in fetched instructions.
pub const INTERVAL: u64 = 64;
/// Profile-register sets buffered per interrupt.
pub const BUFFER_DEPTH: usize = 8;
/// `gcc` main-loop iterations per simulation (≈1.2 M retired
/// instructions, ≈20 k samples at [`INTERVAL`]).
pub const GCC_ITERATIONS: u64 = 100;

/// Independent seed streams derived from the run's `--seed`.
pub mod stream {
    /// Sampling seed of the base-set simulation.
    pub const BASE: u64 = 1;
    /// Offsets of the pool batches within the base set.
    pub const POOL: u64 = 2;
    /// Tenant rotation and pool order of a feed.
    pub const FEED: u64 = 3;
    /// Queried tenants and the verified subset of answers.
    pub const QUERIES: u64 = 4;
    /// Which blocks of a traced run are traced.
    pub const TRACE: u64 = 5;
    /// Sampling seeds of `live_wire`'s simulations (plus the chunk
    /// number).
    pub const CHUNK: u64 = 1 << 32;
}

/// The only suite program with a realistic image: 18,353 PCs whose hot
/// set overflows the L1 I-cache.
pub fn gcc() -> Workload {
    profileme_workloads::gcc(GCC_ITERATIONS)
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for seed stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The sampling configuration of every simulation: interval 64,
/// buffer depth 8, seeded.
pub fn sampling(seed: u64) -> ProfileMeConfig {
    ProfileMeConfig {
        mean_interval: INTERVAL,
        buffer_depth: BUFFER_DEPTH,
        seed,
        ..ProfileMeConfig::default()
    }
}

/// What one simulation did, measured from outside `Session::run`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRun {
    /// Wall time of `Session::run`.
    pub wall: Duration,
    /// Time spent inside the interrupt handler (zero unless timed).
    pub handler: Duration,
    /// Instructions retired (`SimStats::retired`).
    pub retired: u64,
    /// Samples drained via `ProfileMeHardware::drain_samples`.
    pub drained: u64,
}

/// Runs `w` once under ProfileMe sampling seeded with `seed`, handing
/// each interrupt's drained samples to `on_samples`, and the partial
/// buffer left at the end too. With `time_handler` the handler's
/// duration is measured, which is how simulation time is separated
/// from what the handler does.
pub fn simulate(
    w: &Workload,
    seed: u64,
    time_handler: bool,
    mut on_samples: impl FnMut(Vec<Sample>),
) -> Result<SimRun, ProfileError> {
    let cfg = sampling(seed);
    let session = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(cfg)
        .build()?;
    let mut handler = Duration::ZERO;
    let mut drained = 0u64;
    let start = Instant::now();
    let run = session.run(
        ProfileMeHardware::new(cfg),
        |_, hw: &mut ProfileMeHardware| {
            let entered = time_handler.then(Instant::now);
            let samples = hw.drain_samples();
            drained += samples.len() as u64;
            on_samples(samples);
            if let Some(t) = entered {
                handler += t.elapsed();
            }
        },
    )?;
    let wall = start.elapsed();
    let mut hw = run.hardware;
    let rest = hw.drain_samples();
    drained += rest.len() as u64;
    on_samples(rest);
    Ok(SimRun {
        wall,
        handler,
        retired: run.stats.retired,
        drained,
    })
}

/// The base set: every sample of one seeded simulation of `w`.
pub fn base_samples(w: &Workload, seed: u64) -> Result<(Vec<Sample>, SimRun), ProfileError> {
    let mut base = Vec::new();
    let run = simulate(w, Rng::new(seed, stream::BASE).next_u64(), true, |s| {
        base.extend(s)
    })?;
    Ok((base, run))
}

/// `count` batches of `batch` consecutive base samples, each starting
/// at a seeded offset. Feeds cycle through this pool.
pub fn pool(base: &[Sample], batch: usize, count: usize, seed: u64) -> Vec<Vec<Sample>> {
    assert!(base.len() > batch, "base set smaller than one batch");
    let mut rng = Rng::new(seed, stream::POOL);
    (0..count)
        .map(|_| {
            let at = rng.below(base.len() - batch);
            base[at..at + batch].to_vec()
        })
        .collect()
}

/// An endless, seeded sequence of `(tenant, pool index)` pairs: tenants
/// in a seeded rotation, pool batches in seeded order.
#[derive(Debug, Clone)]
pub struct Feed {
    rng: Rng,
    rotation: Vec<u32>,
    pool: usize,
    next: usize,
}

impl Feed {
    pub fn new(seed: u64, tenants: u32, pool: usize) -> Feed {
        let mut rng = Rng::new(seed, stream::FEED);
        let mut rotation: Vec<u32> = (0..tenants).collect();
        for i in (1..rotation.len()).rev() {
            rotation.swap(i, rng.below(i + 1));
        }
        Feed {
            rng,
            rotation,
            pool,
            next: 0,
        }
    }

    pub fn next_batch(&mut self) -> (TenantId, usize) {
        let tenant = self.rotation[self.next % self.rotation.len()];
        self.next += 1;
        (TenantId(tenant), self.rng.below(self.pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        profileme_workloads::gcc(4)
    }

    fn batches(seed: u64) -> Vec<Vec<Sample>> {
        let w = small();
        let (base, run) = base_samples(&w, seed).unwrap();
        assert_eq!(run.drained, base.len() as u64);
        let pool = pool(&base, 64, 8, seed);
        let mut feed = Feed::new(seed, 8, pool.len());
        (0..32)
            .map(|_| {
                let (tenant, i) = feed.next_batch();
                let mut batch = pool[i].clone();
                // Tag the tenant into the comparison.
                batch.truncate(64 - tenant.0 as usize);
                batch
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_identical_batches() {
        assert_eq!(batches(11), batches(11));
    }

    #[test]
    fn another_seed_gives_other_batches() {
        assert_ne!(batches(11), batches(12));
    }

    #[test]
    fn the_feed_rotates_over_every_tenant() {
        let mut feed = Feed::new(5, 8, 16);
        let mut seen: Vec<u32> = (0..8).map(|_| feed.next_batch().0 .0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_ne!(
            Feed::new(5, 8, 16).rotation,
            Feed::new(6, 8, 16).rotation,
            "the rotation is seeded"
        );
    }
}
