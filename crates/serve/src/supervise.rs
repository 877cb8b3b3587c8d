//! Worker supervision: per-shard aggregators that survive panics.
//!
//! Each shard worker runs under an in-thread supervisor: message
//! processing is wrapped in [`catch_unwind`], and the worker keeps a
//! **checkpoint + journal** pair it can rebuild from —
//!
//! * every `checkpoint_every` messages the accumulator is serialized
//!   (via [`ShardAggregate::checkpoint_bytes`], which reuses the
//!   databases' canonical `encode(WireFormat::Sparse)` wire image)
//!   and the journal
//!   is cleared;
//! * every successfully absorbed message is appended to the journal
//!   (by *moving* the already-owned batch, so the lossless hot path
//!   never clones a sample).
//!
//! On a panic the supervisor records the failure, rebuilds the
//! accumulator from checkpoint-plus-journal-replay, and **retries the
//! in-flight message once**: a transient panic (the common injected
//! case) therefore loses nothing and the recovered `snapshot()` is
//! byte-identical to direct aggregation. A message that panics twice
//! is dropped whole with exact accounting (`lost_to_panics`) — a
//! crash loses at most the in-flight batch. A worker that exhausts
//! its recovery budget (or cannot deserialize its own checkpoint)
//! fails the shard loudly: it closes its ring so producers unblock
//! and later `snapshot`/`shutdown` calls surface
//! [`ProfileError::WorkerCrashed`](profileme_core::ProfileError).
//!
//! # Snapshots without barrier round-trips
//!
//! Snapshots no longer travel through the work ring as sentinel
//! messages. Instead each shard carries a [`SnapShared`] mailbox: the
//! service records the ring's enqueue position as a **watermark**,
//! bumps a request epoch, and drops a cheap [`Msg::Nudge`] into the
//! ring so an idle (parked) worker wakes up. The worker publishes the
//! sparse delta since its last publication into one of two
//! epoch-parity slots as soon as it has processed every ring position
//! below the watermark — the same "everything enqueued before the call
//! is included" guarantee the old barrier gave, without ever making
//! ingest wait on a snapshot reply channel. See [`SnapShared`] for the
//! full protocol and its memory-ordering argument.
//!
//! [`catch_unwind`]: std::panic::catch_unwind

use crate::faults::{ActiveFaults, FaultAction};
use crate::ring::RingBuffer;
use crate::service::ShardAggregate;
use profileme_core::ProfileError;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Configuration of the per-shard supervision layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SuperviseConfig {
    /// Messages between checkpoints — also the journal's bound, and
    /// therefore the worst-case replay length on recovery.
    pub checkpoint_every: u32,
    /// Recoveries each shard may perform before giving up; a bound so
    /// a deterministically-poisonous stream cannot spin forever. `0`
    /// fails the shard on its first panic.
    pub max_recoveries: u32,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            // Checkpoints ride the sparse columnar encoding, so they
            // cost O(touched rows) instead of a full-table serialize —
            // cheap enough to take twice as often, halving the
            // worst-case journal replay on recovery.
            checkpoint_every: 16,
            max_recoveries: 1024,
        }
    }
}

impl SuperviseConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects a zero checkpoint interval.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.checkpoint_every == 0 {
            return Err(ProfileError::config(
                "checkpoint_every",
                "must be at least 1 (got 0)",
            ));
        }
        Ok(())
    }
}

/// One unit of aggregation work (the journal's entry type): one
/// buffered-delivery batch.
pub(crate) struct Work<A: ShardAggregate> {
    pub items: Vec<A::Item>,
    /// The multi-tenant path's queue-share credit: the shared counter
    /// was incremented by the batch length at admission and
    /// [`settle`](Work::settle) releases it when the batch permanently
    /// leaves the pipeline.
    pub credit: Option<Arc<AtomicU64>>,
}

impl<A: ShardAggregate> Work<A> {
    pub(crate) fn len(&self) -> u64 {
        self.items.len() as u64
    }

    pub(crate) fn absorb_into(&self, acc: &mut A) {
        self.items.iter().for_each(|i| acc.absorb(i));
    }

    /// Releases this work's admission credit, if it carries one.
    ///
    /// Called exactly once per message, at the moment it permanently
    /// leaves the pipeline: absorbed into the accumulator, dropped
    /// whole after a double panic or a rejected push, or drained by
    /// the crash guard. Journal replay deliberately does **not**
    /// settle — the journal's copy is recovery bookkeeping for an
    /// absorb that already settled.
    pub(crate) fn settle(&self) {
        if let Some(credit) = &self.credit {
            credit.fetch_sub(self.len(), Ordering::Relaxed);
        }
    }
}

/// A ring message: work, or a wakeup poke for the snapshot protocol.
pub(crate) enum Msg<A: ShardAggregate> {
    /// Aggregate this.
    Work(Work<A>),
    /// Wake an idle worker so it notices a pending [`SnapShared`]
    /// request. Carries no data, is not journaled, and does not
    /// consume a fault index — but it *does* occupy a ring position,
    /// which is fine because watermarks only ever require processing
    /// *more* positions, never fewer.
    Nudge,
}

/// The per-shard snapshot mailbox: how a consistent accumulator view
/// travels from the worker to a snapshot caller without a barrier
/// message round-trip.
///
/// # Protocol
///
/// The service serializes snapshot cycles (one at a time), so each
/// shard has at most one outstanding request:
///
/// 1. The requester stores `watermark` = the ring's enqueue position
///    (everything enqueued before the snapshot call sits below it),
///    then bumps `requested` to a fresh epoch, then nudges the ring.
/// 2. After every message it finishes, the worker checks: if
///    `requested` names an epoch it has not published and its count of
///    processed ring positions has reached `watermark`, it publishes
///    the sparse delta since its last publish into `slots[epoch & 1]`
///    and stores `published = epoch`.
/// 3. The requester waits on `cv` until `published >= epoch` (or the
///    shard crashes), then takes `slots[epoch & 1]`.
///
/// # Why two slots
///
/// A deadline-bounded snapshot can abandon its epoch mid-flight; the
/// worker may publish that stale epoch arbitrarily late. Alternating
/// slots by epoch parity means a late stale publish lands in the slot
/// the *next* request does not read. Two consecutive abandonments
/// reuse a parity, but then the worker's stale write is ordered before
/// its fresh one (same thread), and the requester only reads after
/// observing `published >= epoch`, which the fresh write precedes.
///
/// An abandoned publication is not merely stale — it is the *only*
/// copy of that span of the shard's history (the worker's delta base
/// has already moved past it). So before publishing a fresh epoch the
/// worker sweeps **both** slots and carries any unconsumed delta
/// chunks into the new publication, ahead of the fresh chunk. The
/// sweep cannot race a reader: cycles are serialized, and a slot is
/// only swept while its epoch is either already consumed (empty) or
/// permanently abandoned.
///
/// # Memory ordering
///
/// `watermark` is stored before `requested` (Release); the worker
/// reads `requested` with Acquire, so a matching watermark is always
/// visible. The publication is written under the slot's `Mutex` and
/// `published` is stored with Release after it; the requester's
/// Acquire load of `published` plus the slot lock orders the read
/// after the write. `crashed` (in [`ShardCounters`]) uses
/// Release/Acquire so a requester that sees it also sees the drained
/// ring.
pub(crate) struct SnapShared {
    /// Epoch of the most recent snapshot request (0 = never).
    pub requested: AtomicU64,
    /// Ring enqueue position the current request must cover.
    pub watermark: AtomicU64,
    /// Epoch of the most recent publish (0 = never).
    pub published: AtomicU64,
    /// Double buffer, indexed by `epoch & 1`. A publication is a list
    /// of sparse delta chunks, oldest first, together covering
    /// everything the shard absorbed since the last chunk a requester
    /// actually consumed. Usually one chunk; more when the worker
    /// carried forward chunks from abandoned deadline epochs (see
    /// [`maybe_publish`]).
    pub slots: [Mutex<Option<Vec<Vec<u8>>>>; 2],
    /// Requesters park here; the worker (or the crash guard) notifies.
    pub gate: Mutex<()>,
    pub cv: Condvar,
}

impl SnapShared {
    pub(crate) fn new() -> SnapShared {
        SnapShared {
            requested: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            published: AtomicU64::new(0),
            slots: [Mutex::new(None), Mutex::new(None)],
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wakes any requester parked on `cv`.
    pub(crate) fn notify(&self) {
        let _guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Parks a requester briefly; the predicate is re-checked by the
    /// caller's loop, and the bounded timeout makes a lost notify cost
    /// latency, never a hang.
    pub(crate) fn wait(&self, timeout: Duration) {
        let guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Per-shard accounting shared between the worker and the service.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub enqueued: AtomicU64,
    pub dropped: AtomicU64,
    pub panics: AtomicU64,
    pub recoveries: AtomicU64,
    pub lost_to_panics: AtomicU64,
    pub checkpoints: AtomicU64,
    /// Delta publications shipped through the snapshot mailbox.
    pub deltas_published: AtomicU64,
    /// Serialized bytes across those delta publications.
    pub delta_bytes: AtomicU64,
    /// Set when the worker gives up (recovery budget exhausted or
    /// checkpoint restore failed); the service reports `WorkerCrashed`.
    pub crashed: AtomicBool,
}

/// Everything one shard worker needs.
pub(crate) struct WorkerCtx<A: ShardAggregate> {
    pub shard: usize,
    pub ring: Arc<RingBuffer<Msg<A>>>,
    pub snap: Arc<SnapShared>,
    pub empty: A,
    pub cfg: SuperviseConfig,
    pub counters: Arc<ShardCounters>,
    /// The final accumulator travels back over this channel so the
    /// service can reap results with a bounded wait (a bare
    /// `JoinHandle::join` cannot time out).
    pub done: mpsc::Sender<A>,
    /// Present only when a `FaultPlan` was activated (which requires
    /// the `fault-injection` feature); `None` costs one branch per
    /// message.
    pub faults: Option<Arc<ActiveFaults>>,
}

/// Applies any injected fault for this (shard, message) pair. May
/// panic — that is the point — so callers run it under the same
/// `catch_unwind` as the absorb itself.
fn apply_fault<A: ShardAggregate>(ctx: &WorkerCtx<A>, idx: Option<u64>) {
    let (Some(faults), Some(idx)) = (&ctx.faults, idx) else {
        return;
    };
    match faults.action(ctx.shard, idx) {
        None => {}
        Some(FaultAction::Panic) => {
            panic!("injected fault: panic at shard {} message {idx}", ctx.shard)
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Stall) => {
            // Park until the service tears down; deliberately ignores
            // ring close so deadline paths genuinely time out.
            while !faults.stall_released() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Rebuilds a shard accumulator from its last checkpoint plus a replay
/// of the journal — the state exactly as of the last successfully
/// absorbed message.
fn rebuild<A: ShardAggregate>(
    empty: &A,
    checkpoint: Option<&[u8]>,
    journal: &[Work<A>],
) -> Result<A, ProfileError> {
    let mut acc = match checkpoint {
        Some(bytes) => A::from_checkpoint_bytes(bytes)?,
        None => empty.clone(),
    };
    for work in journal {
        work.absorb_into(&mut acc);
    }
    Ok(acc)
}

/// Marks the shard crashed and closes its ring on any abnormal worker
/// exit — an explicit give-up *or* a panic unwinding the thread — so
/// producers unblock and `snapshot`/`shutdown`
/// surface `WorkerCrashed` instead of hanging on a reply no one will
/// ever publish.
struct CrashGuard<'a, A: ShardAggregate> {
    counters: &'a ShardCounters,
    ring: &'a RingBuffer<Msg<A>>,
    snap: &'a SnapShared,
    armed: bool,
}

impl<A: ShardAggregate> Drop for CrashGuard<'_, A> {
    fn drop(&mut self) {
        if self.armed {
            self.counters.crashed.store(true, Ordering::Release);
            self.ring.close();
            // Drain what the dead shard will never process: abandoned
            // work is counted as dropped. A `try_push` racing `close`
            // may still land an item after an empty drain observation,
            // so sweep until the ring stays empty across two passes.
            loop {
                let mut drained = false;
                while let Some(msg) = self.ring.try_pop() {
                    drained = true;
                    if let Msg::Work(work) = msg {
                        self.counters
                            .dropped
                            .fetch_add(work.len(), Ordering::Relaxed);
                        work.settle();
                    }
                }
                if !drained {
                    break;
                }
            }
            // Wake any snapshot requester so it sees `crashed` and
            // returns `WorkerCrashed` instead of waiting forever.
            self.snap.notify();
        }
    }
}

/// Publishes into the snapshot mailbox if an unanswered request's
/// watermark has been reached. `processed` counts ring positions this
/// worker has fully handled.
///
/// The publication is the sparse delta since `base` — O(touched rows)
/// — prefixed by any unconsumed chunks swept from abandoned epochs
/// (see [`SnapShared`]'s "why two slots").
fn maybe_publish<A: ShardAggregate>(
    ctx: &WorkerCtx<A>,
    acc: &mut A,
    base: &mut A,
    processed: u64,
    last_published: &mut u64,
) {
    let snap = &ctx.snap;
    let req = snap.requested.load(Ordering::Acquire);
    if req == *last_published || processed < snap.watermark.load(Ordering::Acquire) {
        return;
    }
    // Sweep both parity slots for abandoned, never-consumed chunks —
    // they are the only copy of their history span.
    let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(1);
    for slot in &snap.slots {
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(stale) = slot.take() {
            chunks.extend(stale);
        }
    }
    // Infallible by construction: the base only ever advances by
    // syncing to the accumulator, so every counter diff is
    // non-negative and the headers always match.
    let chunk = acc
        .extract_delta_bytes(base)
        .expect("delta base is a past state of this accumulator");
    ctx.counters
        .deltas_published
        .fetch_add(1, Ordering::Relaxed);
    ctx.counters
        .delta_bytes
        .fetch_add(chunk.len() as u64, Ordering::Relaxed);
    chunks.push(chunk);
    {
        let mut slot = snap.slots[(req & 1) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *slot = Some(chunks);
    }
    snap.published.store(req, Ordering::Release);
    *last_published = req;
    snap.notify();
}

/// The shard worker: pops messages until the ring closes, absorbing
/// under supervision and answering snapshot requests between messages,
/// then sends the final accumulator over `done`.
pub(crate) fn run_worker<A: ShardAggregate>(ctx: WorkerCtx<A>) {
    let mut guard = CrashGuard {
        counters: &ctx.counters,
        ring: &ctx.ring,
        snap: &ctx.snap,
        armed: true,
    };
    let mut acc = ctx.empty.clone();
    // The accumulator state as of the last delta this worker shipped.
    // `extract_delta_bytes` advances it in O(touched).
    let mut base = ctx.empty.clone();
    let mut checkpoint: Option<Vec<u8>> = None;
    let mut journal: Vec<Work<A>> = Vec::new();
    let mut since_checkpoint = 0u32;
    let mut recoveries_left = ctx.cfg.max_recoveries;
    // Ring positions fully handled; compared against snapshot
    // watermarks. Counts every message kind — Nudges occupy positions
    // too.
    let mut processed = 0u64;
    let mut last_published = 0u64;
    while let Some(msg) = ctx.ring.pop() {
        let work = match msg {
            Msg::Nudge => {
                processed += 1;
                maybe_publish(&ctx, &mut acc, &mut base, processed, &mut last_published);
                continue;
            }
            Msg::Work(work) => work,
        };
        // One fault index per message: a retry of the same message
        // re-evaluates the same index, so one-shot faults stay one-shot.
        let fault_idx = ctx.faults.as_ref().map(|f| f.next_message(ctx.shard));

        let mut absorbed = false;
        for _attempt in 0..2 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                apply_fault(&ctx, fault_idx);
                work.absorb_into(&mut acc);
            }));
            match outcome {
                Ok(()) => {
                    absorbed = true;
                    break;
                }
                Err(_) => {
                    ctx.counters.panics.fetch_add(1, Ordering::Relaxed);
                    if recoveries_left == 0 {
                        // Budget exhausted: the guard marks the shard
                        // crashed and closes the ring. The in-flight
                        // work leaves the pipeline here.
                        work.settle();
                        return;
                    }
                    recoveries_left -= 1;
                    // The panic may have left `acc` half-updated;
                    // rebuild it to the last consistent state.
                    match rebuild(&ctx.empty, checkpoint.as_deref(), &journal) {
                        Ok(rebuilt) => {
                            acc = rebuilt;
                            ctx.counters.recoveries.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // Cannot restore our own checkpoint: fail
                            // the shard loudly (via the guard) rather
                            // than serve a silently-wrong aggregate.
                            work.settle();
                            return;
                        }
                    }
                }
            }
        }
        work.settle();
        if absorbed {
            journal.push(work);
            since_checkpoint += 1;
            if since_checkpoint >= ctx.cfg.checkpoint_every {
                // On serialization failure keep the journal: recovery
                // replays more but stays exact.
                if let Ok(bytes) = acc.checkpoint_bytes() {
                    checkpoint = Some(bytes);
                    journal.clear();
                    since_checkpoint = 0;
                    ctx.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            // Both attempts panicked: the in-flight message is lost,
            // and `acc` was rebuilt to exclude it — exact accounting.
            ctx.counters
                .lost_to_panics
                .fetch_add(work.len(), Ordering::Relaxed);
        }
        // The position is processed either way (absorbed or dropped
        // with accounting): a snapshot at this watermark must not wait
        // on a message that will never be absorbed.
        processed += 1;
        maybe_publish(&ctx, &mut acc, &mut base, processed, &mut last_published);
    }
    guard.armed = false;
    drop(ctx.done.send(acc));
}
