//! Sharded, mergeable profile aggregation — the DCPI-style daemon
//! layer (§5) on top of `profileme-core`'s databases.
//!
//! ProfileMe's software story is continuous profiling: interrupt
//! handlers drain the sample buffer into per-CPU buffers, and a
//! user-space daemon folds those streams into an on-disk database that
//! tools query while collection keeps running. This crate reproduces
//! that shape in-process — and makes it survive the failures a
//! long-running daemon actually sees:
//!
//! * [`ShardedService`] fans sample batches out to per-shard
//!   aggregator threads behind lock-free [`RingBuffer`]s (zero-copy
//!   round-robin routing, backpressure accounting via [`IngestStats`]);
//! * [`ShardedService::snapshot`] queues a request behind each shard's
//!   work and folds the workers' delta replies into a materialized
//!   view, whose result is **byte-identical for any shard count** —
//!   sample aggregation is a per-PC sum, so sharding cannot change the
//!   answer;
//! * **supervision** ([`SuperviseConfig`]): workers run under
//!   `catch_unwind` with an in-memory checkpoint, synced in
//!   O(touched rows), plus a journal of the messages since; a
//!   panicking worker is rebuilt in place from the two — a transient
//!   panic loses *nothing* (the snapshot stays byte-identical), and a
//!   message that panics twice is dropped whole with exact accounting;
//! * **deadlines**: [`ingest_deadline`](ShardedService::ingest_deadline),
//!   [`snapshot_deadline`](ShardedService::snapshot_deadline), and
//!   [`shutdown_deadline`](ShardedService::shutdown_deadline) never
//!   block past their budget, even in front of a wedged worker;
//! * **graceful degradation** ([`DegradeConfig`]): every tenant of a
//!   [`FleetService`] walks its own Full → Sampled → Shed ladder under
//!   its own quota pressure, with hysteresis, instead of letting
//!   overload take the daemon down;
//! * **deterministic fault injection** ([`FaultPlan`], behind the
//!   `fault-injection` cargo feature): seedable panic/delay/stall
//!   plans (`panic:shard=2:nth=3`) drive reproducible chaos tests of
//!   all of the above;
//! * **durability** ([`StoreConfig`], [`ProfileStore`]): point the
//!   service at a data directory and every published delta is logged
//!   to a CRC-framed segment WAL with periodic snapshot compaction —
//!   a restart recovers the accumulated profile byte-identically, and
//!   a crash tears at most the final record.
//!
//! # Example
//!
//! ```
//! use profileme_core::{ProfileDatabase, ProfileField, Session, WireFormat};
//! use profileme_serve::{ServeConfig, ShardedService};
//!
//! # fn main() -> Result<(), profileme_core::ProfileError> {
//! // Produce a sample stream with the simulator...
//! let w = profileme_workloads::ijpeg(300);
//! let run = Session::builder(w.program.clone())
//!     .memory(w.memory)
//!     .build()?
//!     .profile_single()?;
//!
//! // ...and aggregate it through the sharded service.
//! let svc = ShardedService::start(
//!     ProfileDatabase::new(&w.program, run.db.interval()),
//!     ServeConfig::builder().shards(4).build()?,
//! )?;
//! svc.ingest_batch(run.samples.clone());
//! let snap = svc.snapshot()?;
//! assert_eq!(snap.merged.total_samples, run.db.total_samples);
//! let _hottest = snap.merged.top_n(5, ProfileField::Samples);
//! let (final_db, stats) = svc.shutdown()?;
//! assert_eq!(stats.lost(), 0);
//! // Sharded aggregation is byte-identical to the direct database.
//! assert_eq!(
//!     final_db.encode(WireFormat::Sparse)?,
//!     run.db.encode(WireFormat::Sparse)?,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! [`ProfileDatabase`]: profileme_core::ProfileDatabase
//! [`PairProfileDatabase`]: profileme_core::PairProfileDatabase
//! [`ProfileField`]: profileme_core::ProfileField

// `unsafe` is denied crate-wide and allowed in exactly one place: the
// `ring` module's slot accesses, each with a documented safety
// argument tied to the per-slot sequence protocol.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod degrade;
pub mod faults;
pub mod net;
pub mod ring;
mod service;
pub mod store;
mod supervise;
pub mod tenant;
mod wal;

pub use degrade::{DegradeConfig, DegradeLevel, OverloadController, RetryPolicy};
pub use faults::FaultPlan;
pub use net::{BatchAck, ClientConfig, ClientStats, FleetClient, FleetServer};
pub use ring::{RingBuffer, TryPushError};
pub use service::{
    IngestStats, ServeConfig, ServeConfigBuilder, ServeSnapshot, ShardAggregate, ShardedService,
};
pub use store::{store_info, ProfileStore, SegmentInfo, StoreConfig, StoreInfo, StoreStats};
pub use supervise::SuperviseConfig;
pub use tenant::{
    EpochRing, FleetConfig, FleetService, FleetSnapshot, FleetStats, TenantId, TenantQuota,
    TenantStats, Tenanted, TokenBucket,
};

#[cfg(test)]
mod tests {
    use super::*;
    use profileme_core::{ProfileDatabase, ProfileError, ProfileMeConfig, Session, WireFormat};
    use std::time::Duration;

    fn sample_run() -> (profileme_core::SingleRun, profileme_isa::Program) {
        let w = profileme_workloads::ijpeg(400);
        let run = Session::builder(w.program.clone())
            .memory(w.memory)
            .sampling(ProfileMeConfig {
                mean_interval: 32,
                ..Default::default()
            })
            .build()
            .unwrap()
            .profile_single()
            .unwrap();
        (run, w.program)
    }

    #[test]
    fn zero_shards_rejected() {
        let (_, program) = sample_run();
        let cfg = ServeConfig {
            shards: 0,
            ..Default::default()
        };
        let err = ShardedService::<ProfileDatabase>::start(ProfileDatabase::new(&program, 32), cfg)
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProfileError::Config {
                field: "shards",
                ..
            }
        ));
        // Invalid nested configs are rejected too.
        let bad = ServeConfig {
            supervise: SuperviseConfig {
                checkpoint_every: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn sharded_ingest_matches_direct_aggregation() {
        let (run, program) = sample_run();
        for shards in [1usize, 2, 3, 8] {
            let svc = ShardedService::start(
                ProfileDatabase::new(&program, run.db.interval()),
                ServeConfig::builder()
                    .shards(shards)
                    .queue_depth(4)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for s in &run.samples {
                svc.ingest_batch(vec![s.clone()]);
            }
            let snap = svc.snapshot().unwrap();
            assert_eq!(snap.seq, 1);
            assert_eq!(snap.stats.enqueued, run.samples.len() as u64);
            assert_eq!(snap.stats.dropped, 0);
            assert_eq!(snap.stats.lost(), 0);
            let (final_db, _) = svc.shutdown().unwrap();
            assert_eq!(
                final_db.encode(WireFormat::Sparse).unwrap(),
                run.db.encode(WireFormat::Sparse).unwrap(),
                "shards={shards}"
            );
            assert_eq!(
                snap.merged.encode(WireFormat::Sparse).unwrap(),
                run.db.encode(WireFormat::Sparse).unwrap()
            );
        }
    }

    #[test]
    fn snapshot_is_a_barrier_and_collection_continues() {
        let (run, program) = sample_run();
        let svc = ShardedService::start(
            ProfileDatabase::new(&program, run.db.interval()),
            ServeConfig::default(),
        )
        .unwrap();
        let half = run.samples.len() / 2;
        svc.ingest_batch(run.samples[..half].to_vec());
        let first = svc.snapshot().unwrap();
        assert_eq!(
            first.merged.total_samples,
            run.samples[..half].iter().map(|_| 1).sum::<u64>()
        );
        svc.ingest_batch(run.samples[half..].to_vec());
        let second = svc.snapshot().unwrap();
        assert_eq!(second.seq, 2);
        // The delta between consecutive snapshots is exactly the second
        // half of the stream.
        let delta = second.merged.delta_since(&first.merged).unwrap();
        assert_eq!(delta.total_samples, (run.samples.len() - half) as u64);
        let (final_db, stats) = svc.shutdown().unwrap();
        assert_eq!(stats.snapshots, 2);
        assert_eq!(
            final_db.encode(WireFormat::Sparse).unwrap(),
            run.db.encode(WireFormat::Sparse).unwrap()
        );
    }

    #[test]
    fn zero_deadline_ingest_counts_drops_when_full() {
        let (run, program) = sample_run();
        let svc = ShardedService::start(
            ProfileDatabase::new(&program, run.db.interval()),
            ServeConfig::builder()
                .shards(1)
                .queue_depth(1)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for s in &run.samples {
            match svc.ingest_deadline(vec![s.clone()], Duration::ZERO) {
                Ok(()) => accepted += 1,
                Err(ProfileError::DeadlineExceeded { what: "ingest", .. }) => dropped += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.enqueued, accepted);
        assert_eq!(stats.dropped, dropped);
        assert_eq!(stats.deadline_misses, dropped);
        assert_eq!(accepted + dropped, run.samples.len() as u64);
        // Every drop is a counted loss.
        assert_eq!(stats.lost(), dropped);
        let (final_db, _) = svc.shutdown().unwrap();
        assert_eq!(final_db.total_samples, accepted);
    }

    #[test]
    fn deadline_paths_succeed_on_a_healthy_service() {
        let (run, program) = sample_run();
        let svc = ShardedService::start(
            ProfileDatabase::new(&program, run.db.interval()),
            ServeConfig::builder().shards(2).build().unwrap(),
        )
        .unwrap();
        svc.ingest_deadline(run.samples.clone(), Duration::from_secs(30))
            .unwrap();
        let snap = svc.snapshot_deadline(Duration::from_secs(30)).unwrap();
        assert_eq!(snap.merged.total_samples, run.samples.len() as u64);
        assert_eq!(snap.stats.deadline_misses, 0);
        assert_eq!(snap.stats.lost(), 0);
        let (final_db, stats) = svc.shutdown_deadline(Duration::from_secs(30)).unwrap();
        assert_eq!(stats.lost(), 0);
        assert_eq!(
            final_db.encode(WireFormat::Sparse).unwrap(),
            run.db.encode(WireFormat::Sparse).unwrap()
        );
    }

    #[test]
    fn concurrent_producers_stay_byte_identical() {
        let (run, program) = sample_run();
        let svc = std::sync::Arc::new(
            ShardedService::start(
                ProfileDatabase::new(&program, run.db.interval()),
                ServeConfig::builder()
                    .shards(4)
                    .queue_depth(2)
                    .build()
                    .unwrap(),
            )
            .unwrap(),
        );
        let chunks: Vec<Vec<_>> = run.samples.chunks(97).map(<[_]>::to_vec).collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || svc.ingest_batch(chunk))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let svc = std::sync::Arc::into_inner(svc).unwrap();
        let (final_db, stats) = svc.shutdown().unwrap();
        assert_eq!(stats.dropped, 0);
        assert!(stats.high_water >= 1);
        assert_eq!(
            final_db.encode(WireFormat::Sparse).unwrap(),
            run.db.encode(WireFormat::Sparse).unwrap()
        );
    }

    #[test]
    fn view_matches_direct_aggregation_every_cycle() {
        let (run, program) = sample_run();
        let svc = ShardedService::start(
            ProfileDatabase::new(&program, run.db.interval()),
            ServeConfig::builder().shards(3).build().unwrap(),
        )
        .unwrap();
        let mut direct = ProfileDatabase::new(&program, run.db.interval());
        let mut cycles = 0u64;
        for chunk in run.samples.chunks(50) {
            svc.ingest_batch(chunk.to_vec());
            chunk.iter().for_each(|s| direct.add(s));
            let snap = svc.snapshot().unwrap();
            cycles += 1;
            // Each cycle's view holds exactly the ingested prefix.
            assert_eq!(
                snap.merged.encode(WireFormat::Sparse).unwrap(),
                direct.encode(WireFormat::Sparse).unwrap(),
                "cycle {cycles}"
            );
        }
        let last = svc.snapshot().unwrap();
        // The view lands on bytes identical to direct aggregation.
        assert_eq!(
            last.merged.encode(WireFormat::Sparse).unwrap(),
            run.db.encode(WireFormat::Sparse).unwrap()
        );
        let stats = svc.stats();
        // One delta per shard per cycle, one view refresh per cycle.
        assert_eq!(stats.deltas_published, (cycles + 1) * 3);
        assert!(stats.delta_bytes > 0);
        assert_eq!(stats.view_refreshes, cycles + 1);
        let (final_db, _) = svc.shutdown().unwrap();
        assert_eq!(
            final_db.encode(WireFormat::Sparse).unwrap(),
            run.db.encode(WireFormat::Sparse).unwrap()
        );
    }
}
