//! The lock-free bounded ring buffer between sample producers and
//! per-shard aggregators.
//!
//! This replaces the PR 4 `Mutex+Condvar` `BoundedQueue`: `BENCH_ingest`
//! showed the sharded path *losing* to direct aggregation because every
//! message handoff took a lock and a condvar signal. The ring's hot
//! path is a handful of atomic operations — no locks, no syscalls —
//! and threads park only on the **empty/full edges**, which a healthy
//! pipeline rarely touches.
//!
//! # Layout
//!
//! A power-of-two slot array in the style of Vyukov's bounded MPMC
//! queue: each slot carries its own sequence number, and two
//! cache-line-padded cursors (`enqueue_pos`, `dequeue_pos`) race over
//! the slots with single-word CAS. The per-slot sequence is the
//! ownership protocol — a producer may write slot `i` only while
//! `seq == pos`, a consumer may read it only while `seq == pos + 1` —
//! so producers and consumers never contend on a shared lock, and a
//! stalled thread can delay only its own slot, never the whole ring.
//!
//! Padding matters as much as the algorithm: `enqueue_pos`,
//! `dequeue_pos`, and the parking gates each live on their own cache
//! line ([`CachePadded`]), so producers hammering the tail do not
//! false-share with the consumer walking the head.
//!
//! # Parking
//!
//! Blocking callers ([`push`], [`pop`], and [`push_timeout`]) spin
//! briefly, then park on a [`Gate`] — a condvar used *only* while
//! a thread is actually asleep. The fast path pays one relaxed load
//! (`waiters == 0`) per operation; wakeups happen only on the
//! empty→non-empty and full→non-full edges. See the module's
//! memory-ordering notes on [`Gate`] for why no wakeup can be lost.
//!
//! # Close semantics
//!
//! [`close`] is sticky: subsequent pushes fail with the item handed
//! back, pops drain whatever remains and then report closed. `close`
//! linearizes with *blocking* pushes exactly (they re-check the flag on
//! every wake). A `try_push` racing `close` on another thread may still
//! land its item; the service's teardown paths either own the service
//! exclusively (`shutdown(self)`) or sweep the ring again after closing
//! (the crash guard), so no accepted item is silently stranded.
//!
//! # Safety
//!
//! This module is the one place in the crate that uses `unsafe` (the
//! crate is `deny(unsafe_code)` with a scoped allow here). Both unsafe
//! operations are slot accesses guarded by the sequence protocol:
//!
//! * a producer writes `slot.value` only after winning the CAS on
//!   `enqueue_pos` while `slot.seq == pos` — no other producer can hold
//!   the same `pos`, and consumers do not touch the slot until the
//!   producer publishes `seq = pos + 1` with `Release`;
//! * a consumer moves `slot.value` out only after winning the CAS on
//!   `dequeue_pos` while `slot.seq == pos + 1`, which it observed with
//!   `Acquire` — so the producer's write happens-before the read — and
//!   releases the slot with `seq = pos + capacity`;
//! * `Drop` drains remaining items through the same protocol (by then
//!   the ring is uniquely owned), so no `T` is leaked.
//!
//! [`push`]: RingBuffer::push
//! [`pop`]: RingBuffer::pop
//! [`push_timeout`]: RingBuffer::push_timeout
//! [`close`]: RingBuffer::close
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The outcome of a non-blocking or deadline-bounded push.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The ring was at capacity; the item is handed back.
    Full(T),
    /// The ring was closed; the item is handed back.
    Closed(T),
}

/// Pads (and aligns) a value to two cache lines, so cursor words
/// updated by different threads never false-share. 128 bytes covers
/// the adjacent-line prefetcher on common x86 parts.
#[repr(align(128))]
struct CachePadded<T>(T);

/// One ring slot: the Vyukov per-slot sequence plus the payload cell.
struct Slot<T> {
    /// Ownership state: `pos` = writable by the producer holding `pos`,
    /// `pos + 1` = readable by the consumer holding `pos`, anything
    /// else = in transit.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// An edge-parking gate: a condvar that blocking callers sleep on when
/// the ring is empty (consumers) or full (producers).
///
/// The mutex guards **no ring data** — only the sleep itself — so a
/// thread that panics while holding it cannot leave the ring
/// inconsistent; lock acquisitions still recover from poisoning so one
/// panicking sleeper never wedges its peers (regression-tested below).
///
/// Lost-wakeup argument: a waiter increments `waiters` (a `SeqCst`
/// RMW, which is also a fence), *then* re-checks the ring under the
/// gate lock before sleeping. A notifier publishes its push/pop first,
/// executes a `SeqCst` fence, then loads `waiters`. Either the
/// notifier's load observes the waiter (and notifies under the same
/// lock the waiter sleeps on), or the waiter's re-check observes the
/// published item/slot — the `SeqCst` total order forbids both loads
/// missing. Parks additionally carry a bounded timeout, so even a bug
/// here would degrade to latency, never to a hang.
struct Gate {
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Backstop on any single park; correctness never depends on it.
const PARK_BACKSTOP: Duration = Duration::from_millis(20);

impl Gate {
    fn new() -> Gate {
        Gate {
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Parks until notified, `ready()` holds, or `timeout` elapses.
    /// `ready` is re-checked under the lock after registration, so a
    /// wakeup between the caller's last check and the sleep is never
    /// missed.
    fn park(&self, ready: impl Fn() -> bool, timeout: Duration) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        {
            let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            if !ready() {
                let _ = self
                    .cv
                    .wait_timeout(guard, timeout.min(PARK_BACKSTOP))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes one parked thread, if any. The caller must have published
    /// the state change the sleeper is waiting on *before* calling.
    fn notify_one(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_one();
        }
    }

    /// Wakes every parked thread (close/teardown path).
    fn notify_all(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_all();
        }
    }
}

/// A bounded lock-free MPMC ring buffer with close semantics, edge
/// parking, and a high-water mark — the buffer between sample
/// producers and per-shard aggregators.
pub struct RingBuffer<T> {
    /// Slot index mask (`capacity - 1`; capacity is a power of two).
    mask: usize,
    slots: Box<[Slot<T>]>,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
    closed: AtomicBool,
    /// Deepest occupancy ever observed (approximate under races, exact
    /// whenever producers outnumber pops — which is when it matters).
    high_water: AtomicUsize,
    not_empty: CachePadded<Gate>,
    not_full: CachePadded<Gate>,
}

// SAFETY: the slot sequence protocol (module docs) hands each `T`
// from exactly one producer to exactly one consumer with
// Release/Acquire ordering; `T: Send` is all that transfer needs.
unsafe impl<T: Send> Send for RingBuffer<T> {}
unsafe impl<T: Send> Sync for RingBuffer<T> {}

impl<T> RingBuffer<T> {
    /// Creates a ring holding at most `capacity` items. The capacity is
    /// rounded up to the next power of two, **minimum 2**; see
    /// [`capacity`](RingBuffer::capacity) for the effective value.
    ///
    /// The minimum is structural, not cosmetic: with a single slot the
    /// sequence protocol's producer-at-`pos+1` and consumer-at-`pos`
    /// conditions collapse onto the same `seq` value, letting a second
    /// push overwrite an unconsumed item. Two slots keep the
    /// conditions disjoint for every position.
    pub fn new(capacity: usize) -> RingBuffer<T> {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingBuffer {
            mask: capacity - 1,
            slots,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            high_water: AtomicUsize::new(0),
            not_empty: CachePadded(Gate::new()),
            not_full: CachePadded(Gate::new()),
        }
    }

    /// Non-blocking push: fails immediately when full or closed, handing
    /// the item back.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TryPushError::Closed(item));
        }
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: we won the CAS while `seq == pos`, so
                        // this slot is exclusively ours until the
                        // Release store below publishes it.
                        unsafe { (*slot.value.get()).write(item) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        self.note_occupancy(pos);
                        self.not_empty.0.notify_one();
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                return Err(TryPushError::Full(item));
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: we won the CAS while `seq == pos + 1`,
                        // i.e. after the producer's Release publish that
                        // our Acquire load observed; the value is fully
                        // written and exclusively ours to move out.
                        let item = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        self.not_full.0.notify_one();
                        return Some(item);
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Blocking push: parks while the ring is full. Returns the item
    /// back if the ring has been closed.
    pub fn push(&self, mut item: T) -> Result<(), T> {
        loop {
            match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Closed(it)) => return Err(it),
                Err(TryPushError::Full(it)) => {
                    item = it;
                    self.not_full.0.park(
                        || self.len() < self.capacity() || self.closed.load(Ordering::Acquire),
                        Duration::MAX,
                    );
                }
            }
        }
    }

    /// Deadline-bounded push: waits at most `timeout` for space.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] if the deadline passed with the ring
    /// still full, [`TryPushError::Closed`] if the ring was closed;
    /// the item is handed back either way.
    pub fn push_timeout(&self, mut item: T, timeout: Duration) -> Result<(), TryPushError<T>> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Closed(it)) => return Err(TryPushError::Closed(it)),
                Err(TryPushError::Full(it)) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(TryPushError::Full(it));
                    }
                    item = it;
                    self.not_full.0.park(
                        || self.len() < self.capacity() || self.closed.load(Ordering::Acquire),
                        remaining,
                    );
                }
            }
        }
    }

    /// Blocking pop: parks while the ring is empty. Returns `None` only
    /// once the ring is closed *and* drained, so no accepted item is
    /// ever lost.
    pub fn pop(&self) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            if self.closed.load(Ordering::SeqCst) {
                // Final drain: catch an item published between the
                // failed pop and the closed check.
                return self.try_pop();
            }
            self.not_empty.0.park(
                || !self.is_empty() || self.closed.load(Ordering::Acquire),
                Duration::MAX,
            );
        }
    }

    /// Closes the ring: further pushes fail, pops drain what remains.
    /// Wakes every parked producer and consumer.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.not_empty.0.notify_all();
        self.not_full.0.notify_all();
    }

    /// Whether [`close`](RingBuffer::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// The effective capacity (the requested capacity rounded up to a
    /// power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Items currently in the ring (approximate under concurrent
    /// pushes/pops, exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.0.load(Ordering::Relaxed);
        let head = self.dequeue_pos.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the ring has ever been, in items.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Updates the high-water mark after a push at `pos`. The common
    /// case (not a new maximum) is a pair of relaxed loads — no RMW on
    /// the hot path.
    fn note_occupancy(&self, pos: usize) {
        let occupancy = pos
            .wrapping_add(1)
            .wrapping_sub(self.dequeue_pos.0.load(Ordering::Relaxed));
        if occupancy > self.high_water.load(Ordering::Relaxed) {
            self.high_water.fetch_max(occupancy, Ordering::Relaxed);
        }
    }
}

impl<T> Drop for RingBuffer<T> {
    fn drop(&mut self) {
        // Drain undelivered items so their destructors run. `&mut self`
        // guarantees exclusive access; the protocol still guards which
        // slots actually hold values.
        while self.try_pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for RingBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBuffer")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .field("high_water", &self.high_water())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = RingBuffer::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_water(), 4);
        assert_eq!(q.capacity(), 4);
        assert_eq!(
            (q.pop(), q.pop(), q.pop(), q.pop()),
            (Some(0), Some(1), Some(2), Some(3))
        );
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two_minimum_two() {
        assert_eq!(RingBuffer::<u8>::new(0).capacity(), 2);
        assert_eq!(RingBuffer::<u8>::new(1).capacity(), 2);
        assert_eq!(RingBuffer::<u8>::new(3).capacity(), 4);
        assert_eq!(RingBuffer::<u8>::new(64).capacity(), 64);
        assert_eq!(RingBuffer::<u8>::new(100).capacity(), 128);
    }

    #[test]
    fn try_push_reports_full_and_closed() {
        let q = RingBuffer::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(TryPushError::Full(3))));
        q.close();
        assert!(matches!(q.try_push(4), Err(TryPushError::Closed(4))));
        // Closed rings still drain, in order.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wraparound_many_times_at_tiny_capacity() {
        let q = RingBuffer::new(2);
        for i in 0..1000 {
            q.push(i).unwrap();
            assert_eq!(q.try_pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_blocks_until_space_and_pop_blocks_until_item() {
        let q = Arc::new(RingBuffer::new(2));
        q.push(0u64).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 1..100u64 {
                q2.push(i).unwrap();
            }
            q2.close();
        });
        let mut got = Vec::new();
        while let Some(i) = q.pop() {
            got.push(i);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(q.high_water() <= 2, "backpressure bounded the depth");
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(RingBuffer::<u64>::new(2));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
        assert!(q.is_empty());
        assert!(q.is_closed());
        assert_eq!(q.push(7), Err(7));
    }

    #[test]
    fn close_wakes_blocked_pushers() {
        let q = Arc::new(RingBuffer::new(2));
        q.push(1u64).unwrap();
        q.push(2u64).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(3));
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(3), "the item is handed back");
    }

    #[test]
    fn push_timeout_bounds_the_wait_and_hands_the_item_back() {
        let q = RingBuffer::new(2);
        q.push(1u64).unwrap();
        q.push(2u64).unwrap();
        let start = Instant::now();
        let err = q.push_timeout(3, Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, TryPushError::Full(3)));
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(start.elapsed() < Duration::from_secs(5), "wait is bounded");
        // With space available, the deadline path accepts immediately.
        assert_eq!(q.pop(), Some(1));
        q.push_timeout(3, Duration::from_millis(30)).unwrap();
        q.close();
        assert!(matches!(
            q.push_timeout(4, Duration::from_millis(30)),
            Err(TryPushError::Closed(4))
        ));
    }

    #[test]
    fn drop_runs_destructors_of_undelivered_items() {
        let counter = Arc::new(AtomicUsize::new(0));
        #[derive(Debug)]
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let q = RingBuffer::new(8);
        for _ in 0..5 {
            q.push(Probe(Arc::clone(&counter))).unwrap();
        }
        drop(q.pop());
        drop(q);
        assert_eq!(counter.load(Ordering::SeqCst), 5, "no leaked items");
    }

    /// Regression (ported from the old `BoundedQueue`): the only locks
    /// left are the parking gates, which guard no ring data — a thread
    /// that panics while holding one must not wedge anyone.
    #[test]
    fn poisoned_gate_lock_is_recovered() {
        let q = Arc::new(RingBuffer::new(2));
        q.push(1u64).unwrap();
        let q2 = Arc::clone(&q);
        let poisoner = std::thread::spawn(move || {
            let _guard = q2.not_empty.0.lock.lock().unwrap();
            panic!("poison the not_empty gate");
        });
        assert!(poisoner.join().is_err());
        assert!(q.not_empty.0.lock.is_poisoned(), "the panic did poison it");
        // Every entry point still works, including the parking paths.
        q.push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(TryPushError::Full(3))));
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.push_timeout(4, Duration::from_millis(5)).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn mpmc_smoke_no_loss_no_duplication() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 2_000;
        let q = Arc::new(RingBuffer::new(8));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected, "every item exactly once");
    }
}
