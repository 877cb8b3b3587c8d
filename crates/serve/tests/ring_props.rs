//! Property tests for the lock-free [`RingBuffer`] and a full-width
//! stress test of the service built on top of it.
//!
//! The ring's contract, exercised over random shapes:
//!
//! * **No loss, no duplication** — every item accepted by a push is
//!   popped exactly once, across any producer/consumer mix.
//! * **Per-producer FIFO** — pops are globally ordered by the dequeue
//!   cursor, so any one consumer's stream sees each producer's items
//!   in push order (a subsequence of an increasing sequence).
//! * **Close-then-drain** — `close` rejects new items but never
//!   discards accepted ones; `pop` returns `None` only once drained.
//! * **Model equivalence** — against a `VecDeque` reference model the
//!   ring agrees on every accept/reject/deliver decision, including
//!   across many wraparounds of the cursors.

use profileme_core::{ProfileDatabase, ProfileMeConfig, Session, WireFormat};
use profileme_serve::{RingBuffer, ServeConfig, ShardedService, TryPushError};
use profileme_workloads as workloads;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Pack a producer id and a per-producer sequence number into one item
/// so consumers can check ordering without shared state.
fn tag(producer: u64, seq: u64) -> u64 {
    (producer << 32) | seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random producer/consumer/capacity shapes: nothing is lost,
    /// nothing is duplicated, and every consumer sees each producer's
    /// items in push order.
    #[test]
    fn mpmc_is_exactly_once_and_per_producer_fifo(
        producers in 1u64..=4,
        consumers in 1usize..=3,
        per_producer in 64u64..=512,
        cap_bits in 1u32..=5,
    ) {
        let q = Arc::new(RingBuffer::new(1usize << cap_bits));
        let produce: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for seq in 0..per_producer {
                        q.push(tag(p, seq)).expect("ring open while producing");
                    }
                })
            })
            .collect();
        let consume: Vec<_> = (0..consumers)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for h in produce {
            h.join().expect("producer finishes");
        }
        q.close();
        let streams: Vec<Vec<u64>> = consume
            .into_iter()
            .map(|h| h.join().expect("consumer finishes"))
            .collect();

        // Per-consumer streams are increasing per producer.
        for stream in &streams {
            let mut last = vec![None::<u64>; producers as usize];
            for &item in stream {
                let (p, seq) = ((item >> 32) as usize, item & 0xffff_ffff);
                if let Some(prev) = last[p] {
                    prop_assert!(
                        seq > prev,
                        "producer {p} reordered: {seq} after {prev}"
                    );
                }
                last[p] = Some(seq);
            }
        }
        // Exactly-once delivery across all consumers.
        let mut all: Vec<u64> = streams.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..producers)
            .flat_map(|p| (0..per_producer).map(move |s| tag(p, s)))
            .collect();
        prop_assert_eq!(all, expect);
        prop_assert!(q.high_water() <= q.capacity());
    }

    /// Close rejects new pushes with the item handed back, yet every
    /// item accepted before the close drains out in FIFO order.
    #[test]
    fn close_then_drain_keeps_accepted_items(
        capacity in 1usize..=20,
        fill in 0usize..=20,
    ) {
        let q = RingBuffer::new(capacity);
        let mut accepted = Vec::new();
        for i in 0..fill as u64 {
            match q.try_push(i) {
                Ok(()) => accepted.push(i),
                Err(TryPushError::Full(v)) => prop_assert_eq!(v, i),
                Err(TryPushError::Closed(_)) => unreachable!("not closed yet"),
            }
        }
        q.close();
        prop_assert!(matches!(q.try_push(99), Err(TryPushError::Closed(99))));
        prop_assert!(q.push(99).is_err());
        let mut drained = Vec::new();
        while let Some(v) = q.pop() {
            drained.push(v);
        }
        prop_assert_eq!(drained, accepted);
        prop_assert!(q.is_empty());
    }

    /// Single-threaded model check against a bounded `VecDeque`: the
    /// ring and the model agree on every accept/reject and on every
    /// delivered value, through arbitrarily many cursor wraparounds.
    #[test]
    fn ring_agrees_with_a_vecdeque_model(
        cap_bits in 1u32..=3,
        ops in prop::collection::vec(0u8..=3, 1..=400),
    ) {
        let capacity = 1usize << cap_bits;
        let q = RingBuffer::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for op in ops {
            // 0/1 push (biased even), 2/3 pop.
            if op < 2 {
                let res = q.try_push(next);
                if model.len() < capacity {
                    prop_assert!(res.is_ok(), "ring rejected with space free");
                    model.push_back(next);
                } else {
                    prop_assert!(
                        matches!(res, Err(TryPushError::Full(v)) if v == next),
                        "ring accepted past capacity"
                    );
                }
                next += 1;
            } else {
                prop_assert_eq!(q.try_pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain whatever is left; the tails must agree too.
        q.close();
        while let Some(v) = q.pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }
}

/// The capstone stress test: 8 producers hammering 8 shards through
/// shallow rings, with snapshot cycles running concurrently, must
/// still merge byte-identically to single-threaded aggregation — the
/// service-level restatement of exactly-once delivery.
#[test]
fn eight_producers_eight_shards_match_direct_aggregation() {
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
    assert!(run.samples.len() > 500, "thin stream");
    let direct = run
        .db
        .encode(WireFormat::Sparse)
        .expect("snapshot serializes");
    let samples = Arc::new(run.samples);

    let svc = Arc::new(
        ShardedService::start(
            ProfileDatabase::new(&w.program, run.db.interval()),
            // Shallow queues: force backpressure + wraparound.
            ServeConfig::builder()
                .shards(8)
                .queue_depth(4)
                .build()
                .expect("config is valid"),
        )
        .expect("service starts"),
    );
    const PRODUCERS: usize = 8;
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let svc = Arc::clone(&svc);
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                for s in samples.iter().skip(p).step_by(PRODUCERS) {
                    svc.ingest_batch(vec![s.clone()]);
                }
            })
        })
        .collect();

    // Concurrent snapshot cycles: totals must never regress, and each
    // must reflect at most what has been enqueued so far.
    let mut last_total = 0u64;
    for _ in 0..4 {
        let snap = svc.snapshot().expect("snapshot during ingest");
        assert!(
            snap.merged.total_samples >= last_total,
            "snapshot total regressed: {} < {last_total}",
            snap.merged.total_samples
        );
        assert!(snap.merged.total_samples <= snap.stats.enqueued);
        last_total = snap.merged.total_samples;
    }

    for h in producers {
        h.join().expect("producer finishes");
    }
    let svc = Arc::into_inner(svc).expect("all producers dropped their handles");
    let (merged, stats) = svc.shutdown().expect("service drains");
    assert_eq!(stats.dropped, 0, "lossless path never drops");
    assert_eq!(stats.enqueued, samples.len() as u64);
    assert_eq!(
        merged
            .encode(WireFormat::Sparse)
            .expect("snapshot serializes"),
        direct,
        "8 producers x 8 shards diverged from direct aggregation"
    );
}
