//! The service's determinism contract, end to end: replaying a real
//! profiling run's sample stream through `ShardedService` produces a
//! merged database *byte-identical* to single-threaded aggregation —
//! for every shard count, for both database kinds, and regardless of
//! how many producer threads feed the queues.

use profileme_core::{
    PairProfileDatabase, PairedConfig, ProfileDatabase, ProfileMeConfig, Session, WireFormat,
};
use profileme_serve::{ServeConfig, ShardedService};
use profileme_workloads as workloads;
use std::sync::Arc;

const SHARDS: [usize; 4] = [1, 2, 4, 8];

fn single_workloads() -> Vec<workloads::Workload> {
    vec![workloads::compress(20_000), workloads::li(8_000)]
}

/// Shard count never changes the merged single-instruction profile.
#[test]
fn sharded_single_profiles_match_direct_for_all_shard_counts() {
    for w in single_workloads() {
        let run = Session::builder(w.program.clone())
            .memory(w.memory.clone())
            .sampling(ProfileMeConfig {
                mean_interval: 48,
                buffer_depth: 8,
                ..ProfileMeConfig::default()
            })
            .build()
            .expect("config is valid")
            .profile_single()
            .expect("workload completes");
        assert!(run.samples.len() > 100, "{}: thin stream", w.name);
        let direct = run
            .db
            .encode(WireFormat::Sparse)
            .expect("snapshot serializes");
        for shards in SHARDS {
            let svc = ShardedService::start(
                ProfileDatabase::new(&w.program, run.db.interval()),
                ServeConfig::builder()
                    .shards(shards)
                    .build()
                    .expect("config is valid"),
            )
            .expect("service starts");
            for s in &run.samples {
                svc.ingest_batch(vec![s.clone()]);
            }
            let (merged, stats) = svc.shutdown().expect("service drains");
            assert_eq!(stats.dropped, 0, "lossless path never drops");
            assert_eq!(stats.enqueued, run.samples.len() as u64);
            assert_eq!(
                merged
                    .encode(WireFormat::Sparse)
                    .expect("snapshot serializes"),
                direct,
                "{} diverged at {shards} shard(s)",
                w.name
            );
        }
    }
}

/// The same contract holds for paired-sample aggregation.
#[test]
fn sharded_paired_profiles_match_direct_for_all_shard_counts() {
    for w in [workloads::compress(15_000), workloads::go(600)] {
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
        assert!(run.pairs.len() > 50, "{}: thin stream", w.name);
        let direct = run
            .db
            .encode(WireFormat::Sparse)
            .expect("snapshot serializes");
        for shards in SHARDS {
            let svc = ShardedService::start(
                PairProfileDatabase::new(&w.program, run.db.interval(), run.db.window()),
                ServeConfig::builder()
                    .shards(shards)
                    .build()
                    .expect("config is valid"),
            )
            .expect("service starts");
            svc.ingest_batch(run.pairs.clone());
            let (merged, _) = svc.shutdown().expect("service drains");
            assert_eq!(
                merged
                    .encode(WireFormat::Sparse)
                    .expect("snapshot serializes"),
                direct,
                "{} diverged at {shards} shard(s)",
                w.name
            );
        }
    }
}

/// Many producer threads racing onto the same service still converge to
/// the exact single-threaded aggregation: absorb order varies run to
/// run, the merged bytes never do.
#[test]
fn concurrent_producers_match_direct_aggregation() {
    let w = workloads::vortex(15_000);
    let run = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(ProfileMeConfig {
            mean_interval: 48,
            buffer_depth: 8,
            ..ProfileMeConfig::default()
        })
        .build()
        .expect("config is valid")
        .profile_single()
        .expect("workload completes");
    let direct = run
        .db
        .encode(WireFormat::Sparse)
        .expect("snapshot serializes");
    let samples = Arc::new(run.samples);
    for producers in [2usize, 5] {
        let svc = Arc::new(
            ShardedService::start(
                ProfileDatabase::new(&w.program, run.db.interval()),
                // Shallow queues: exercise backpressure blocking.
                ServeConfig::builder()
                    .shards(4)
                    .queue_depth(8)
                    .build()
                    .expect("config is valid"),
            )
            .expect("service starts"),
        );
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let svc = Arc::clone(&svc);
                let samples = Arc::clone(&samples);
                std::thread::spawn(move || {
                    // Interleave producers sample-by-sample across the
                    // whole stream so every queue sees contention.
                    for s in samples.iter().skip(p).step_by(producers) {
                        svc.ingest_batch(vec![s.clone()]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer finishes");
        }
        let svc = Arc::into_inner(svc).expect("all producers dropped their handles");
        let (merged, stats) = svc.shutdown().expect("service drains");
        assert_eq!(stats.dropped, 0);
        assert_eq!(
            merged
                .encode(WireFormat::Sparse)
                .expect("snapshot serializes"),
            direct,
            "diverged with {producers} producers"
        );
    }
}

/// Snapshots mid-stream never disturb the final result, and their
/// interval deltas recompose to the whole.
#[test]
fn interval_deltas_recompose_to_the_final_profile() {
    let w = workloads::compress(20_000);
    let run = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(ProfileMeConfig {
            mean_interval: 48,
            buffer_depth: 8,
            ..ProfileMeConfig::default()
        })
        .build()
        .expect("config is valid")
        .profile_single()
        .expect("workload completes");
    let svc = ShardedService::start(
        ProfileDatabase::new(&w.program, run.db.interval()),
        ServeConfig::default(),
    )
    .expect("service starts");
    let chunk = (run.samples.len() / 5).max(1);
    let mut delta_samples = 0;
    let mut previous: Option<ProfileDatabase> = None;
    for batch in run.samples.chunks(chunk) {
        svc.ingest_batch(batch.to_vec());
        let snap = svc.snapshot().expect("snapshot merges");
        let delta = match &previous {
            None => snap.merged.clone(),
            Some(prev) => snap.merged.delta_since(prev).expect("monotone stream"),
        };
        delta_samples += delta.total_samples;
        previous = Some(snap.merged);
    }
    let (merged, stats) = svc.shutdown().expect("service drains");
    assert_eq!(stats.snapshots as usize, run.samples.len().div_ceil(chunk));
    assert_eq!(delta_samples, merged.total_samples);
    assert_eq!(
        merged
            .encode(WireFormat::Sparse)
            .expect("snapshot serializes"),
        run.db
            .encode(WireFormat::Sparse)
            .expect("snapshot serializes"),
        "mid-stream snapshots perturbed the final aggregation"
    );
}
