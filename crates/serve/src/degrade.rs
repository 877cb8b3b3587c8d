//! Graceful degradation under overload: the Full → Sampled → Shed
//! ladder each fleet tenant walks, plus the jittered-backoff retry
//! policy of the fleet's producer client.
//!
//! The paper's delivery path (§4.3) buffers samples precisely so
//! bursty interrupt load does not corrupt the profile; a production
//! collector additionally needs a story for *sustained* overload. The
//! [`OverloadController`] watches one tenant's pressure and downshifts
//! deterministically instead of letting the daemon die:
//!
//! 1. **Full** — lossless ingest of whole batches (the default).
//! 2. **Sampled** — deterministic 1-in-k thinning with the scale
//!    factor fixed by [`DegradeConfig::thin_k`], mirroring the paper's
//!    sampling-period reasoning in §5.1: a thinned stream is still an
//!    unbiased sample, just at an effectively larger interval, so
//!    estimates stay correct once multiplied by that factor.
//! 3. **Shed** — drop whole batches with exact accounting.
//!
//! Upshifts require the pressure to stay below the low-water mark for
//! a cooldown period (hysteresis), so the ladder does not thrash.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// How much fidelity a tenant's admission is currently delivering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum DegradeLevel {
    /// Lossless: every offered batch is aggregated in full.
    Full,
    /// 1-in-k thinning: a deterministic subsample is aggregated, with
    /// every discarded item counted.
    Sampled,
    /// Shedding: batches are dropped whole, with exact accounting.
    Shed,
}

impl DegradeLevel {
    /// The ladder position as a small integer (0 = full fidelity).
    pub fn as_u8(self) -> u8 {
        match self {
            DegradeLevel::Full => 0,
            DegradeLevel::Sampled => 1,
            DegradeLevel::Shed => 2,
        }
    }

    fn from_u8(v: u8) -> DegradeLevel {
        match v {
            0 => DegradeLevel::Full,
            1 => DegradeLevel::Sampled,
            _ => DegradeLevel::Shed,
        }
    }
}

/// Configuration of the overload controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DegradeConfig {
    /// Thinning factor at [`DegradeLevel::Sampled`]: 1 sample in
    /// `thin_k` is kept.
    pub thin_k: u64,
    /// Pressure (percent) at or above which the controller downshifts
    /// one level.
    pub high_water_pct: u8,
    /// Pressure (percent) at or below which pressure counts as
    /// cleared.
    pub low_water_pct: u8,
    /// Consecutive cleared observations required before upshifting.
    pub cooldown: u32,
}

impl Default for DegradeConfig {
    fn default() -> DegradeConfig {
        DegradeConfig {
            thin_k: 4,
            high_water_pct: 75,
            low_water_pct: 25,
            cooldown: 8,
        }
    }
}

impl DegradeConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects a zero thinning factor, watermarks above 100%, or an
    /// inverted high/low pair.
    pub fn validate(&self) -> Result<(), profileme_core::ProfileError> {
        use profileme_core::ProfileError;
        if self.thin_k == 0 {
            return Err(ProfileError::config("thin_k", "must be at least 1 (got 0)"));
        }
        if self.high_water_pct > 100 {
            return Err(ProfileError::config(
                "high_water_pct",
                format!("must be at most 100 (got {})", self.high_water_pct),
            ));
        }
        if self.low_water_pct >= self.high_water_pct {
            return Err(ProfileError::config(
                "low_water_pct",
                format!(
                    "must be below high_water_pct={} (got {})",
                    self.high_water_pct, self.low_water_pct
                ),
            ));
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Ladder {
    level: DegradeLevel,
    /// Consecutive observations at or below the low-water mark.
    calm: u32,
}

/// Watches pressure and moves the [`DegradeLevel`] ladder with
/// hysteresis. A fleet runs one per tenant, shared by all of that
/// tenant's producers.
#[derive(Debug)]
pub struct OverloadController {
    cfg: DegradeConfig,
    ladder: Mutex<Ladder>,
    downshifts: AtomicU64,
    upshifts: AtomicU64,
    thinned: AtomicU64,
    shed: AtomicU64,
}

impl OverloadController {
    /// A controller starting at [`DegradeLevel::Full`].
    pub fn new(cfg: DegradeConfig) -> OverloadController {
        OverloadController {
            cfg,
            ladder: Mutex::new(Ladder {
                level: DegradeLevel::Full,
                calm: 0,
            }),
            downshifts: AtomicU64::new(0),
            upshifts: AtomicU64::new(0),
            thinned: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> DegradeConfig {
        self.cfg
    }

    /// The current degradation level.
    pub fn level(&self) -> DegradeLevel {
        self.ladder
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .level
    }

    /// Feeds one pressure observation (percent, `0..=100`) and returns
    /// the level to apply to the batch at hand.
    ///
    /// At or above the high-water mark the ladder downshifts one level
    /// immediately; upshifting one level requires `cooldown`
    /// consecutive observations at or below the low-water mark.
    pub fn observe(&self, fill_pct: u8) -> DegradeLevel {
        let mut ladder = self.ladder.lock().unwrap_or_else(PoisonError::into_inner);
        if fill_pct >= self.cfg.high_water_pct {
            ladder.calm = 0;
            if ladder.level < DegradeLevel::Shed {
                ladder.level = DegradeLevel::from_u8(ladder.level.as_u8() + 1);
                self.downshifts.fetch_add(1, Ordering::Relaxed);
            }
        } else if fill_pct <= self.cfg.low_water_pct {
            if ladder.level == DegradeLevel::Full {
                ladder.calm = 0;
            } else {
                ladder.calm += 1;
                if ladder.calm >= self.cfg.cooldown {
                    ladder.level = DegradeLevel::from_u8(ladder.level.as_u8() - 1);
                    ladder.calm = 0;
                    self.upshifts.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            // Between the watermarks: hold the level, reset the calm
            // streak so upshifts need genuinely cleared pressure.
            ladder.calm = 0;
        }
        ladder.level
    }

    /// Records `n` samples discarded by 1-in-k thinning.
    pub fn count_thinned(&self, n: u64) {
        self.thinned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` samples dropped whole at [`DegradeLevel::Shed`].
    pub fn count_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::Relaxed);
    }

    /// (downshifts, upshifts, thinned, shed) so far.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.downshifts.load(Ordering::Relaxed),
            self.upshifts.load(Ordering::Relaxed),
            self.thinned.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
        )
    }
}

/// Jittered exponential backoff for [`FleetClient`](crate::FleetClient)
/// sends: rather than failing on the first refused connect or lost
/// ack, retry a bounded number of times with deterministic full
/// jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = a single attempt).
    pub max_retries: u32,
    /// Backoff base: retry `i` waits up to `base * 2^i`.
    pub base: Duration,
    /// Ceiling on any single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter, so retry schedules are reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(10),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (0-based) of operation `salt`:
    /// full jitter in `[0, min(cap, base * 2^attempt)]`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.cap);
        let nanos = ceiling.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let jitter = crate::faults::mix64(
            self.seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(attempt),
        );
        Duration::from_nanos(jitter % (nanos + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_downshifts_immediately_and_upshifts_after_cooldown() {
        let c = OverloadController::new(DegradeConfig {
            cooldown: 3,
            ..DegradeConfig::default()
        });
        assert_eq!(c.level(), DegradeLevel::Full);
        assert_eq!(c.observe(80), DegradeLevel::Sampled);
        assert_eq!(c.observe(90), DegradeLevel::Shed);
        assert_eq!(c.observe(100), DegradeLevel::Shed, "ladder saturates");
        // Pressure clearing must persist for `cooldown` observations.
        assert_eq!(c.observe(10), DegradeLevel::Shed);
        assert_eq!(c.observe(10), DegradeLevel::Shed);
        assert_eq!(c.observe(10), DegradeLevel::Sampled);
        // A mid-band observation resets the calm streak.
        assert_eq!(c.observe(10), DegradeLevel::Sampled);
        assert_eq!(c.observe(50), DegradeLevel::Sampled);
        assert_eq!(c.observe(10), DegradeLevel::Sampled);
        assert_eq!(c.observe(10), DegradeLevel::Sampled);
        assert_eq!(c.observe(10), DegradeLevel::Full);
        let (down, up, _, _) = c.counters();
        assert_eq!((down, up), (2, 2));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(DegradeConfig::default().validate().is_ok());
        let bad = DegradeConfig {
            thin_k: 0,
            ..DegradeConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DegradeConfig {
            high_water_pct: 101,
            ..DegradeConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DegradeConfig {
            low_water_pct: 80,
            high_water_pct: 75,
            ..DegradeConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = RetryPolicy {
            seed: 9,
            ..RetryPolicy::default()
        };
        for attempt in 0..8 {
            let d = p.backoff(attempt, 1);
            assert_eq!(d, p.backoff(attempt, 1), "deterministic");
            assert!(d <= p.cap, "capped at {:?}, got {d:?}", p.cap);
        }
        // Different salts decorrelate the schedules.
        let schedule_a: Vec<_> = (0..4).map(|a| p.backoff(a, 1)).collect();
        let schedule_b: Vec<_> = (0..4).map(|a| p.backoff(a, 2)).collect();
        assert_ne!(schedule_a, schedule_b);
    }
}
