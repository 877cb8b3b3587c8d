//! Worker supervision: per-shard aggregators that survive panics.
//!
//! Each shard worker runs under an in-thread supervisor: message
//! processing is wrapped in [`catch_unwind`], and the worker keeps a
//! **checkpoint + journal** pair it can rebuild from —
//!
//! * the checkpoint is an in-memory aggregate, cloned from the same
//!   empty prototype as the accumulator. Every `checkpoint_every`
//!   messages [`ShardAggregate::sync_checkpoint`] copies into it the
//!   rows touched since the previous sync — O(touched rows), never
//!   O(image) — and the journal is cleared;
//! * every successfully absorbed message is appended to the journal
//!   (by *moving* the already-owned batch, so the lossless hot path
//!   never clones a sample).
//!
//! On a panic the supervisor records the failure, rebuilds the
//! accumulator as a clone of the checkpoint plus a replay of the
//! journal (nothing is decoded), and **retries the in-flight message
//! once**: a transient panic (the common injected case) therefore
//! loses nothing and the recovered `snapshot()` is byte-identical to
//! direct aggregation. The sync marks every row it copies as touched
//! in the checkpoint too, so the rebuilt accumulator's next delta
//! re-publishes whatever may have moved past the last extraction. A
//! message that panics twice is dropped whole with exact accounting
//! (`lost_to_panics`) — a crash loses at most the in-flight batch. A
//! worker that exhausts its recovery budget fails the shard loudly:
//! it closes its ring so producers unblock and later
//! `snapshot`/`shutdown` calls surface
//! [`ProfileError::WorkerCrashed`](profileme_core::ProfileError).
//!
//! # Snapshots ride the ring
//!
//! A snapshot request is one more ring message, [`Msg::Snapshot`],
//! carrying the cycle's epoch. Each ring is FIFO with a single
//! consumer, so when the worker pops the request it has already
//! handled everything enqueued before it — the "everything enqueued
//! before the call is included" guarantee falls out of the queue
//! order. The worker answers at once with the sparse delta since its
//! previous answer, sent as `(epoch, bytes)` on its shard's reply
//! channel; the service reads the channels in shard order (see
//! [`ShardedService::snapshot`](crate::ShardedService::snapshot)).
//!
//! [`catch_unwind`]: std::panic::catch_unwind

use crate::faults::{ActiveFaults, FaultAction};
use crate::ring::RingBuffer;
use crate::service::ShardAggregate;
use profileme_core::ProfileError;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
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
            // A checkpoint sync copies only the rows touched since the
            // previous sync (for `Tenanted`, only in the tenants
            // touched since), so it costs O(touched): 0.21–0.26 ms at
            // p50 for 16 batches of 256 samples over 8 `gcc` tenants
            // on a 2-vCPU host, where encoding the full image took
            // 3.7 ms. 16 bounds the journal, and so the worst-case
            // replay on recovery.
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

/// A ring message: work, or a snapshot request.
pub(crate) enum Msg<A: ShardAggregate> {
    /// Aggregate this.
    Work(Work<A>),
    /// Answer snapshot cycle `epoch` with the delta since the previous
    /// answer. Not journaled, and does not consume a fault index.
    Snapshot(u64),
}

/// A worker's answer to [`Msg::Snapshot`]: the request's epoch and the
/// sparse delta of everything absorbed since the previous answer.
pub(crate) type Reply = (u64, Vec<u8>);

/// Per-shard accounting shared between the worker and the service.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub enqueued: AtomicU64,
    pub dropped: AtomicU64,
    pub panics: AtomicU64,
    pub recoveries: AtomicU64,
    pub lost_to_panics: AtomicU64,
    pub checkpoints: AtomicU64,
    /// Deltas sent on the reply channel.
    pub deltas_published: AtomicU64,
    /// Serialized bytes across those deltas.
    pub delta_bytes: AtomicU64,
}

/// Everything one shard worker needs.
pub(crate) struct WorkerCtx<A: ShardAggregate> {
    pub shard: usize,
    pub ring: Arc<RingBuffer<Msg<A>>>,
    /// Answers to [`Msg::Snapshot`] requests, in request order.
    pub replies: mpsc::Sender<Reply>,
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

/// Rebuilds a shard accumulator as a clone of its checkpoint plus a
/// replay of the journal — the state exactly as of the last
/// successfully absorbed message.
fn rebuild<A: ShardAggregate>(checkpoint: &A, journal: &[Work<A>]) -> A {
    let mut acc = checkpoint.clone();
    for work in journal {
        work.absorb_into(&mut acc);
    }
    acc
}

/// Closes the shard's ring on any abnormal worker exit — an explicit
/// give-up *or* a panic unwinding the thread — so producers unblock.
/// The worker's reply and `done` senders drop right after the guard,
/// so `snapshot`/`shutdown` surface `WorkerCrashed` instead of hanging
/// on a reply no one will ever send.
struct CrashGuard<'a, A: ShardAggregate> {
    counters: &'a ShardCounters,
    ring: &'a RingBuffer<Msg<A>>,
    armed: bool,
}

impl<A: ShardAggregate> Drop for CrashGuard<'_, A> {
    fn drop(&mut self) {
        if self.armed {
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
        }
    }
}

/// Answers snapshot request `epoch` with the sparse delta since
/// `base` — O(touched rows) — and advances `base`.
fn answer<A: ShardAggregate>(ctx: &WorkerCtx<A>, acc: &mut A, base: &mut A, epoch: u64) {
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
    // The send fails only once the service is gone.
    drop(ctx.replies.send((epoch, chunk)));
}

/// The shard worker: pops messages until the ring closes, absorbing
/// under supervision and answering snapshot requests between messages,
/// then sends the final accumulator over `done`.
pub(crate) fn run_worker<A: ShardAggregate>(ctx: WorkerCtx<A>) {
    let mut guard = CrashGuard {
        counters: &ctx.counters,
        ring: &ctx.ring,
        armed: true,
    };
    let mut acc = ctx.empty.clone();
    // The accumulator state as of the last delta this worker shipped.
    // `extract_delta_bytes` advances it in O(touched).
    let mut base = ctx.empty.clone();
    // The accumulator state as of the last checkpoint sync.
    let mut checkpoint = ctx.empty.clone();
    let mut journal: Vec<Work<A>> = Vec::new();
    let mut since_checkpoint = 0u32;
    let mut recoveries_left = ctx.cfg.max_recoveries;
    while let Some(msg) = ctx.ring.pop() {
        let work = match msg {
            Msg::Snapshot(epoch) => {
                answer(&ctx, &mut acc, &mut base, epoch);
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
                        // Budget exhausted: the guard closes the
                        // ring. The in-flight work leaves the pipeline
                        // here.
                        work.settle();
                        return;
                    }
                    recoveries_left -= 1;
                    // The panic may have left `acc` half-updated;
                    // rebuild it to the last consistent state.
                    acc = rebuild(&checkpoint, &journal);
                    ctx.counters.recoveries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        work.settle();
        if absorbed {
            journal.push(work);
            since_checkpoint += 1;
            if since_checkpoint >= ctx.cfg.checkpoint_every {
                // Infallible by construction, as `answer`'s extract:
                // the checkpoint was cloned from the same prototype.
                acc.sync_checkpoint(&mut checkpoint)
                    .expect("checkpoint is a past state of this accumulator");
                journal.clear();
                since_checkpoint = 0;
                ctx.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            // Both attempts panicked: the in-flight message is lost,
            // and `acc` was rebuilt to exclude it — exact accounting.
            ctx.counters
                .lost_to_panics
                .fetch_add(work.len(), Ordering::Relaxed);
        }
    }
    guard.armed = false;
    drop(ctx.done.send(acc));
}
