//! The sharded ingest/serving layer: per-shard aggregators behind
//! lock-free rings, a snapshot cycle whose requests ride those same
//! rings, and backpressure accounting.
//!
//! # Determinism invariant
//!
//! The merged snapshot is **byte-identical for any shard count and any
//! producer interleaving**, and identical to what one thread calling
//! [`ProfileDatabase::add`] over the whole stream would build. Two
//! facts make that true:
//!
//! 1. Profile aggregation is a *sum* over samples — commutative and
//!    associative per PC (property-tested in `profileme-core`), so
//!    neither the order in which samples reach a shard *nor which
//!    shard they reach* can matter. That freedom is load-bearing:
//!    ingest routes whole batches round-robin (zero routing work, zero
//!    copies) and still lands on the same merged bytes.
//! 2. The final merge folds shard databases in shard-index order on
//!    one thread, and addition of the per-PC sums is order-insensitive
//!    anyway.
//!
//! Supervision (see [`supervise`](crate::supervise)) preserves the
//! invariant across worker panics: whenever
//! [`IngestStats::lost`] is zero, the recovered snapshot is still
//! byte-identical to direct aggregation; when samples *were* lost —
//! via deadline expiry, a crashed shard, or a twice-panicking message
//! — every loss is counted exactly, per class, in [`IngestStats`].
//!
//! [`ProfileDatabase::add`]: profileme_core::ProfileDatabase::add

use crate::faults::ActiveFaults;
use crate::ring::{RingBuffer, TryPushError};
use crate::store::{ProfileStore, StoreConfig, StoreStats};
use crate::supervise::{run_worker, Msg, Reply, ShardCounters, SuperviseConfig, Work, WorkerCtx};
use profileme_core::{
    PairProfileDatabase, PairedSample, ProfileDatabase, ProfileError, Sample, WireFormat,
};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Anything the service can shard and aggregate: an empty accumulator
/// that absorbs items one at a time and merges with its peers.
///
/// Implementations must make `absorb` a commutative, associative
/// accumulation (sums, maxes over disjoint keys, …) for the service's
/// shard-count-independence invariant to hold. Crash recovery relies
/// on [`sync_checkpoint`](ShardAggregate::sync_checkpoint) and
/// durable recovery on the image round-trip
/// (`from_checkpoint_bytes(checkpoint_bytes(x))` behaves identically
/// to `x`).
pub trait ShardAggregate: Clone + Send + 'static {
    /// The streamed item.
    type Item: Send + 'static;

    /// Accumulates one item.
    fn absorb(&mut self, item: &Self::Item);

    /// Accumulates a peer aggregator built from a disjoint part of the
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if the two aggregators do not
    /// describe the same program/configuration.
    fn merge(&mut self, other: &Self) -> Result<(), ProfileError>;

    /// Serializes the accumulator as a full image: the durable
    /// store's compaction image (`snap-<seq>.img`). Worker crash
    /// recovery does not use it — see
    /// [`sync_checkpoint`](ShardAggregate::sync_checkpoint).
    /// Implementations must route through their type's one canonical
    /// encode entry point (for the profile databases,
    /// `encode(WireFormat::Sparse)`); the cost is O(image).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if serialization fails.
    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError>;

    /// Rebuilds an accumulator from [`checkpoint_bytes`] output — how
    /// the durable store decodes its compaction image on open.
    ///
    /// [`checkpoint_bytes`]: ShardAggregate::checkpoint_bytes
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse.
    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<Self, ProfileError>;

    /// Brings `checkpoint`, a past state of `self` cloned from the
    /// same empty prototype, up to date with `self` in O(touched
    /// rows): only what changed since the previous sync is copied.
    /// This is the shard worker's crash-recovery checkpoint.
    ///
    /// Two rules make recovery exact. After a sync, `checkpoint`
    /// equals `self` in content. And a clone of `checkpoint`, plus a
    /// replay of every item absorbed since, must re-extract (in
    /// [`extract_delta_bytes`](ShardAggregate::extract_delta_bytes))
    /// everything that may differ from the extraction `base` — so the
    /// sync marks what it copies as touched in `checkpoint` too.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if `checkpoint` describes a
    /// different program/configuration.
    fn sync_checkpoint(&mut self, checkpoint: &mut Self) -> Result<(), ProfileError>;

    /// Serializes everything this accumulator absorbed since `base`
    /// (a past state of `self`, e.g. the empty prototype or the state
    /// at the previous call) as a sparse delta, and advances `base` to
    /// the current state. Must be O(touched rows), and
    /// [`apply_delta_bytes`](ShardAggregate::apply_delta_bytes) must
    /// be its exact inverse: applying every delta in emission order to
    /// a clone of the original `base` reproduces `self` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if `base` is not a past
    /// state of `self` (different program/configuration, or counters
    /// that ran backwards).
    fn extract_delta_bytes(&mut self, base: &mut Self) -> Result<Vec<u8>, ProfileError>;

    /// Merges one [`extract_delta_bytes`] chunk into this accumulator.
    ///
    /// [`extract_delta_bytes`]: ShardAggregate::extract_delta_bytes
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse,
    /// or [`ProfileError::Mismatch`] if they describe a different
    /// program/configuration.
    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), ProfileError>;
}

impl ShardAggregate for ProfileDatabase {
    type Item = Sample;

    fn absorb(&mut self, item: &Sample) {
        self.add(item);
    }

    fn merge(&mut self, other: &ProfileDatabase) -> Result<(), ProfileError> {
        ProfileDatabase::merge(self, other)
    }

    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError> {
        self.encode(WireFormat::Sparse)
    }

    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<ProfileDatabase, ProfileError> {
        ProfileDatabase::decode(bytes)
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut ProfileDatabase) -> Result<(), ProfileError> {
        ProfileDatabase::sync_checkpoint(self, checkpoint)
    }

    fn extract_delta_bytes(&mut self, base: &mut ProfileDatabase) -> Result<Vec<u8>, ProfileError> {
        self.extract_delta(base)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), ProfileError> {
        self.apply_delta(bytes)
    }
}

impl ShardAggregate for PairProfileDatabase {
    type Item = PairedSample;

    fn absorb(&mut self, item: &PairedSample) {
        self.add(item);
    }

    fn merge(&mut self, other: &PairProfileDatabase) -> Result<(), ProfileError> {
        PairProfileDatabase::merge(self, other)
    }

    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError> {
        self.encode(WireFormat::Sparse)
    }

    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<PairProfileDatabase, ProfileError> {
        PairProfileDatabase::decode(bytes)
    }

    fn sync_checkpoint(
        &mut self,
        checkpoint: &mut PairProfileDatabase,
    ) -> Result<(), ProfileError> {
        PairProfileDatabase::sync_checkpoint(self, checkpoint)
    }

    fn extract_delta_bytes(
        &mut self,
        base: &mut PairProfileDatabase,
    ) -> Result<Vec<u8>, ProfileError> {
        self.extract_delta(base)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), ProfileError> {
        self.apply_delta(bytes)
    }
}

/// Configuration of the sharded ingest layer.
///
/// Prefer [`ServeConfig::builder`] over struct-literal construction:
/// the builder validates at `build()` and maps 1:1 onto the
/// `profileme serve` CLI flags.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Aggregator shards (worker threads).
    pub shards: usize,
    /// Ring capacity per shard, in *messages* (a batch counts as one
    /// message, mirroring one buffered-interrupt delivery). Rounded up
    /// to the next power of two by the ring.
    pub queue_depth: usize,
    /// Worker supervision: panic recovery via checkpoint + journal.
    pub supervise: SuperviseConfig,
    /// Durable store: a delta WAL + compaction snapshots under a data
    /// directory, recovered on start. `None` (the default) keeps the
    /// service purely in-memory.
    pub store: Option<StoreConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 4,
            queue_depth: 64,
            supervise: SuperviseConfig::default(),
            store: None,
        }
    }
}

impl ServeConfig {
    /// A builder over every knob, mirroring
    /// [`SessionBuilder`](profileme_core::SessionBuilder): setters
    /// chain, and [`build`](ServeConfigBuilder::build) validates.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
            segment_bytes: None,
            compact_every: None,
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects zero shards, a zero queue depth, and invalid
    /// supervision or store settings.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.shards == 0 {
            return Err(ProfileError::config("shards", "must be at least 1 (got 0)"));
        }
        if self.queue_depth == 0 {
            return Err(ProfileError::config(
                "queue_depth",
                "must be at least 1 (got 0)",
            ));
        }
        self.supervise.validate()?;
        if let Some(store) = &self.store {
            store.validate()?;
        }
        Ok(())
    }
}

/// Builds a validated [`ServeConfig`]. Obtained from
/// [`ServeConfig::builder`]; every setter maps 1:1 onto a
/// `profileme serve` flag.
///
/// ```
/// use profileme_serve::ServeConfig;
///
/// let cfg = ServeConfig::builder()
///     .shards(8)
///     .queue_depth(128)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.shards, 8);
/// assert!(ServeConfig::builder().shards(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
    segment_bytes: Option<u64>,
    compact_every: Option<u64>,
}

impl ServeConfigBuilder {
    /// Aggregator shards (worker threads). CLI: `--shards`.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> ServeConfigBuilder {
        self.cfg.shards = shards;
        self
    }

    /// Ring capacity per shard, in messages. CLI: `--queue-depth`.
    #[must_use]
    pub fn queue_depth(mut self, queue_depth: usize) -> ServeConfigBuilder {
        self.cfg.queue_depth = queue_depth;
        self
    }

    /// Worker supervision settings.
    #[must_use]
    pub fn supervise(mut self, supervise: SuperviseConfig) -> ServeConfigBuilder {
        self.cfg.supervise = supervise;
        self
    }

    /// Enables the durable store under `data_dir` with default
    /// segment size and compaction cadence. CLI: `--data-dir`.
    #[must_use]
    pub fn data_dir(mut self, data_dir: impl Into<std::path::PathBuf>) -> ServeConfigBuilder {
        self.cfg.store = Some(StoreConfig::new(data_dir));
        self
    }

    /// WAL segment size target in bytes; requires
    /// [`data_dir`](ServeConfigBuilder::data_dir). CLI:
    /// `--segment-bytes`.
    #[must_use]
    pub fn segment_bytes(mut self, segment_bytes: u64) -> ServeConfigBuilder {
        self.segment_bytes = Some(segment_bytes);
        self
    }

    /// Delta records between snapshot compactions (`0` = never);
    /// requires [`data_dir`](ServeConfigBuilder::data_dir). CLI:
    /// `--compact-every`.
    #[must_use]
    pub fn compact_every(mut self, compact_every: u64) -> ServeConfigBuilder {
        self.compact_every = Some(compact_every);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] naming the offending knob —
    /// including a `segment_bytes`/`compact_every` given without a
    /// `data_dir` — as [`ServeConfig::validate`].
    pub fn build(self) -> Result<ServeConfig, ProfileError> {
        let ServeConfigBuilder {
            mut cfg,
            segment_bytes,
            compact_every,
        } = self;
        match (&mut cfg.store, segment_bytes, compact_every) {
            (None, Some(_), _) => {
                return Err(ProfileError::config(
                    "segment_bytes",
                    "requires a data_dir (no store configured)",
                ))
            }
            (None, None, Some(_)) => {
                return Err(ProfileError::config(
                    "compact_every",
                    "requires a data_dir (no store configured)",
                ))
            }
            (Some(store), segment_bytes, compact_every) => {
                if let Some(b) = segment_bytes {
                    store.segment_bytes = b;
                }
                if let Some(n) = compact_every {
                    store.compact_every = n;
                }
            }
            (None, None, None) => {}
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Backpressure and fault accounting for the ingest layer. All
/// counters are cumulative since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IngestStats {
    /// Aggregator shards.
    pub shards: usize,
    /// Items accepted onto shard rings.
    pub enqueued: u64,
    /// Items that never reached an aggregator: pushes onto a crashed
    /// shard's closed ring, batches abandoned when an
    /// [`ingest_deadline`](ShardedService::ingest_deadline) expired,
    /// and items left behind in a crashed shard's ring.
    pub dropped: u64,
    /// Deepest any shard ring has been, in messages.
    pub high_water: usize,
    /// Snapshot cycles served so far.
    pub snapshots: u64,
    /// Worker panics caught by supervision, including the one that
    /// exhausts a shard's recovery budget.
    pub worker_panics: u64,
    /// Successful worker recoveries (checkpoint + journal rebuilds).
    pub workers_recovered: u64,
    /// Items absorbed into a worker state that was then lost to a
    /// twice-panicking message.
    pub lost_to_panics: u64,
    /// Checkpoint syncs across all shards.
    pub checkpoints: u64,
    /// Deadline-bounded calls that ran out of budget.
    pub deadline_misses: u64,
    /// Deltas the shard workers sent in answer to snapshot requests
    /// (one per shard per request that reached the shard).
    pub deltas_published: u64,
    /// Serialized bytes across those deltas.
    pub delta_bytes: u64,
    /// Incremental refreshes applied to the merged materialized view
    /// (one per completed snapshot cycle).
    pub view_refreshes: u64,
}

impl IngestStats {
    /// Total items lost across every lossy path. Whenever this is
    /// zero, the merged snapshot is byte-identical to direct
    /// single-threaded aggregation.
    pub fn lost(&self) -> u64 {
        self.dropped + self.lost_to_panics
    }
}

/// A merged point-in-time view of the whole service.
#[derive(Debug, Clone)]
pub struct ServeSnapshot<A> {
    /// The shard aggregates merged in shard order.
    pub merged: A,
    /// 1-based snapshot sequence number.
    pub seq: u64,
    /// Ingest accounting at snapshot time.
    pub stats: IngestStats,
}

struct Shard<A: ShardAggregate> {
    ring: Arc<RingBuffer<Msg<A>>>,
    worker: Option<JoinHandle<()>>,
    /// Receives the worker's final accumulator: a reapable result with
    /// a bounded wait, unlike `JoinHandle::join`. Behind a `Mutex` only
    /// because `mpsc::Receiver` is `!Sync` and the service is shared;
    /// it is touched solely at shutdown/drop.
    done: Mutex<mpsc::Receiver<A>>,
    counters: Arc<ShardCounters>,
}

impl<A: ShardAggregate> Shard<A> {
    fn accept(&self, items: u64) {
        self.counters.enqueued.fetch_add(items, Ordering::Relaxed);
    }

    fn drop_items(&self, items: u64) {
        self.counters.dropped.fetch_add(items, Ordering::Relaxed);
    }

    /// Waits (optionally bounded) for the worker's final accumulator.
    fn reap(&self, timeout: Option<Duration>) -> Result<A, mpsc::RecvTimeoutError> {
        let done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        match timeout {
            None => done
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            Some(t) => done.recv_timeout(t),
        }
    }
}

/// The materialized view: the merged aggregate kept incrementally up
/// to date by folding in each shard's delta replies — and, when
/// configured, the durable store the same deltas are logged to before
/// they are applied.
struct ViewState<A: ShardAggregate> {
    merged: A,
    store: Option<ProfileStore<A>>,
    /// Each shard's reply channel, in shard order.
    replies: Vec<mpsc::Receiver<Reply>>,
    /// The epoch of the most recent snapshot request.
    epoch: u64,
    /// The delta chunks folded into `merged` since the last completed
    /// cycle, in fold order — abandoned deadline cycles' included,
    /// since their chunks are in the view too. Kept only for a fleet's
    /// epoch ring (see [`ShardedService::keep_epoch_chunks`]); `None`
    /// drops each chunk once it is folded.
    pending: Option<Vec<Vec<u8>>>,
}

/// Receives each completed cycle's seq, its view, and the chunks
/// folded into that view since the previous completed cycle, while the
/// cycle's lock is still held — so calls arrive in seq order.
pub(crate) type OnEpoch<'a, A> = &'a mut dyn FnMut(u64, &A, Vec<Vec<u8>>);

/// The sharded profile-aggregation service: samples in, snapshots out,
/// collection never stops — and, supervised, it survives its own
/// workers panicking.
///
/// See the [module docs](self) for the determinism invariant and the
/// crate docs for a worked example.
pub struct ShardedService<A: ShardAggregate> {
    shards: Vec<Shard<A>>,
    /// Round-robin cursor for batched ingest.
    rr: AtomicUsize,
    snapshots: AtomicU64,
    deadline_misses: AtomicU64,
    view_refreshes: AtomicU64,
    faults: Option<Arc<ActiveFaults>>,
    /// Serializes snapshot cycles, and owns the materialized view and
    /// the reply channels. Ingest never touches this.
    snap_cycle: Mutex<ViewState<A>>,
}

impl<A: ShardAggregate> ShardedService<A> {
    /// Starts `config.shards` worker threads, each owning a clone of
    /// the `empty` aggregator behind a lock-free ring. With
    /// [`ServeConfig::store`] set, the durable store is opened (and
    /// recovered into the materialized view) first.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an invalid `config`,
    /// [`ProfileError::Store`] if the store fails to open, or
    /// [`ProfileError::Mismatch`] if the stored profile describes a
    /// different program than `empty`.
    pub fn start(empty: A, config: ServeConfig) -> Result<ShardedService<A>, ProfileError> {
        ShardedService::start_inner(empty, config, None)
    }

    /// Starts the service with a deterministic [`FaultPlan`] injected
    /// into every worker — the reproducible-chaos entry point.
    ///
    /// [`FaultPlan`]: crate::faults::FaultPlan
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an invalid `config`.
    #[cfg(feature = "fault-injection")]
    pub fn start_with_faults(
        empty: A,
        config: ServeConfig,
        plan: crate::faults::FaultPlan,
    ) -> Result<ShardedService<A>, ProfileError> {
        let faults = (!plan.is_empty()).then(|| Arc::new(plan.activate(config.shards)));
        ShardedService::start_inner(empty, config, faults)
    }

    fn start_inner(
        empty: A,
        config: ServeConfig,
        faults: Option<Arc<ActiveFaults>>,
    ) -> Result<ShardedService<A>, ProfileError> {
        config.validate()?;
        // The view starts at the shards' shared origin: every worker's
        // delta base begins as `empty`, so folding each delta reply
        // into this view reproduces the sum of the shard accumulators
        // exactly. With a durable store the view starts at the
        // *recovered* state instead — history from previous runs the
        // workers know nothing about; `ProfileStore::open` has already
        // refused a store written for another program or interval. This
        // happens before any worker spawns: a store that fails to open
        // leaves no threads behind.
        let (merged, store) = match &config.store {
            None => (empty.clone(), None),
            Some(store_cfg) => {
                let (store, recovered) = ProfileStore::open(store_cfg.clone(), empty.clone())?;
                (recovered, Some(store))
            }
        };
        let mut replies = Vec::with_capacity(config.shards);
        let shards = (0..config.shards)
            .map(|shard| {
                let ring = Arc::new(RingBuffer::new(config.queue_depth));
                let counters = Arc::new(ShardCounters::default());
                let (reply_tx, reply_rx) = mpsc::channel();
                replies.push(reply_rx);
                let (done_tx, done_rx) = mpsc::channel();
                let ctx = WorkerCtx {
                    shard,
                    ring: Arc::clone(&ring),
                    replies: reply_tx,
                    empty: empty.clone(),
                    cfg: config.supervise,
                    counters: Arc::clone(&counters),
                    done: done_tx,
                    faults: faults.clone(),
                };
                Shard {
                    ring,
                    worker: Some(std::thread::spawn(move || run_worker(ctx))),
                    done: Mutex::new(done_rx),
                    counters,
                }
            })
            .collect();
        let view = ViewState {
            merged,
            store,
            replies,
            epoch: 0,
            pending: None,
        };
        Ok(ShardedService {
            shards,
            rr: AtomicUsize::new(0),
            snapshots: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            view_refreshes: AtomicU64::new(0),
            faults,
            snap_cycle: Mutex::new(view),
        })
    }

    /// The number of aggregator shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The next ingest target: whole batches go round-robin — the
    /// merged result is routing-independent (module docs), so ingest
    /// spends zero cycles partitioning and zero copies re-bucketing
    /// samples.
    fn next_shard(&self) -> &Shard<A> {
        let n = self.shards.len();
        if n == 1 {
            return &self.shards[0];
        }
        &self.shards[self.rr.fetch_add(1, Ordering::Relaxed) % n]
    }

    /// The one push routine behind every ingest path: hands `work` to
    /// the next round-robin shard as **one** ring message, blocking
    /// while the ring is full — for at most `timeout` when one is
    /// given. Returns how many items were enqueued.
    ///
    /// A batch that is not enqueued is dropped whole with accounting,
    /// and its admission credit (if any) is released here: a crashed
    /// shard's closed ring costs the batch, not an error.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DeadlineExceeded`] if `timeout` ran out
    /// in front of a full ring.
    pub(crate) fn push(
        &self,
        work: Work<A>,
        timeout: Option<Duration>,
    ) -> Result<u64, ProfileError> {
        let count = work.len();
        if count == 0 {
            return Ok(0);
        }
        let shard = self.next_shard();
        let msg = Msg::Work(work);
        // A rejected message comes back, with the timeout it missed
        // (`None` for a closed ring).
        let rejected = match timeout {
            None => shard.ring.push(msg).err().map(|msg| (msg, None)),
            Some(t) => match shard.ring.push_timeout(msg, t) {
                Ok(()) => None,
                Err(TryPushError::Full(msg)) => Some((msg, Some(t))),
                Err(TryPushError::Closed(msg)) => Some((msg, None)),
            },
        };
        let Some((msg, missed)) = rejected else {
            shard.accept(count);
            return Ok(count);
        };
        shard.drop_items(count);
        if let Msg::Work(work) = msg {
            work.settle();
        }
        let Some(t) = missed else {
            return Ok(0);
        };
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        Err(ProfileError::DeadlineExceeded {
            what: "ingest",
            millis: t.as_millis() as u64,
        })
    }

    /// Lossless batched ingest: hands the whole batch to the next
    /// round-robin shard as **one** ring message — the shape of §4.3's
    /// buffered sample delivery — blocking while that ring is full
    /// (backpressure). The caller's `Vec` moves straight into the
    /// ring: no per-item routing, no partition copies (which is what
    /// let multi-shard finally beat direct aggregation in
    /// `bench_ingest`). Shard-level parallelism comes from successive
    /// batches landing on successive shards. A batch bound for a
    /// crashed shard's closed ring is counted as dropped.
    pub fn ingest_batch(&self, items: Vec<A::Item>) {
        // Without a timeout the push cannot miss a deadline.
        drop(self.push(
            Work {
                items,
                credit: None,
            },
            None,
        ));
    }

    /// Deadline-bounded batched ingest: like
    /// [`ingest_batch`](ShardedService::ingest_batch), but never
    /// blocks past `timeout`. A batch that could not be enqueued
    /// within the budget is dropped whole with accounting;
    /// `Duration::ZERO` makes this a lossy, never-blocking ingest.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DeadlineExceeded`] if the budget ran
    /// out; the batch is counted in [`IngestStats::dropped`].
    pub fn ingest_deadline(
        &self,
        items: Vec<A::Item>,
        timeout: Duration,
    ) -> Result<(), ProfileError> {
        self.push(
            Work {
                items,
                credit: None,
            },
            Some(timeout),
        )
        .map(drop)
    }

    /// One request→reply→fold snapshot cycle: a snapshot request is
    /// pushed onto every shard's ring behind the work already queued
    /// there, each worker answers it with its delta since its previous
    /// answer, and the deltas are folded into the materialized view.
    /// Everything enqueued before this call is included; collection
    /// continues concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::WorkerCrashed`] if a shard worker died,
    /// or [`ProfileError::Mismatch`] if shard aggregates disagree
    /// (which would indicate a bug in the `empty` prototype).
    pub fn snapshot(&self) -> Result<ServeSnapshot<A>, ProfileError> {
        self.snapshot_cycle(None, None)
    }

    /// [`snapshot`](ShardedService::snapshot) that never blocks past
    /// `timeout` in total — neither pushing a request behind a full
    /// ring (a stalled worker) nor awaiting the replies.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DeadlineExceeded`] on budget expiry,
    /// otherwise as [`snapshot`](ShardedService::snapshot).
    pub fn snapshot_deadline(&self, timeout: Duration) -> Result<ServeSnapshot<A>, ProfileError> {
        self.snapshot_cycle(Some(timeout), None)
    }

    /// From now on, keep the chunks each cycle folds until a completed
    /// cycle hands them to its [`OnEpoch`] callback. Cycles without a
    /// callback drop them.
    pub(crate) fn keep_epoch_chunks(&self) {
        self.snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .get_or_insert_with(Vec::new);
    }

    /// [`snapshot`](ShardedService::snapshot) that hands the completed
    /// cycle to `on_epoch` before releasing the cycle's lock.
    pub(crate) fn snapshot_epoch(
        &self,
        on_epoch: OnEpoch<'_, A>,
    ) -> Result<ServeSnapshot<A>, ProfileError> {
        self.snapshot_cycle(None, Some(on_epoch))
    }

    fn snapshot_cycle(
        &self,
        timeout: Option<Duration>,
        on_epoch: Option<OnEpoch<'_, A>>,
    ) -> Result<ServeSnapshot<A>, ProfileError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let remaining = |d: Instant| d.saturating_duration_since(Instant::now());
        let miss = |me: &Self| {
            me.deadline_misses.fetch_add(1, Ordering::Relaxed);
            ProfileError::DeadlineExceeded {
                what: "snapshot",
                millis: timeout.expect("only deadline cycles miss").as_millis() as u64,
            }
        };
        // One cycle at a time: this guard owns the reply channels and
        // the materialized view the cycle folds deltas into.
        let mut cycle = self
            .snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let ViewState {
            merged,
            store,
            replies,
            epoch,
            pending,
        } = &mut *cycle;
        // Every attempt takes a fresh epoch, so a reply to an abandoned
        // cycle is never mistaken for this one's.
        *epoch += 1;
        let epoch = *epoch;

        // Phase 1: queue the request behind everything already on each
        // ring. Rings are FIFO with one consumer each, so a worker that
        // pops it has handled every earlier message.
        for (i, shard) in self.shards.iter().enumerate() {
            let request = Msg::Snapshot(epoch);
            let closed = match deadline {
                None => shard.ring.push(request).is_err(),
                Some(d) => match shard.ring.push_timeout(request, remaining(d)) {
                    Ok(()) => false,
                    Err(TryPushError::Full(_)) => return Err(miss(self)),
                    Err(TryPushError::Closed(_)) => true,
                },
            };
            // Only a crashed worker closes a ring while `&self` is
            // alive: shutdown and drop both consume the service.
            if closed {
                return Err(ProfileError::WorkerCrashed { shard: i });
            }
        }

        // Phase 2: read each shard's replies in shard order, logging
        // and folding each one, up to this epoch's. Earlier epochs come
        // from abandoned deadline cycles; each is the only copy of its
        // span of the shard's history, so it is folded too, in order.
        // A deadline miss partway is safe: the applied prefix is a
        // valid (merely earlier) view state, and the unread replies
        // wait in their channels for the next cycle. On a fleet's
        // service each folded chunk is kept pending until a cycle
        // completes, because it is in the view whichever cycle folded
        // it.
        for (i, rx) in replies.iter().enumerate() {
            loop {
                let reply = match deadline {
                    None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                    Some(d) => rx.recv_timeout(remaining(d)),
                };
                let (answered, chunk) = match reply {
                    Ok(reply) => reply,
                    Err(mpsc::RecvTimeoutError::Timeout) => return Err(miss(self)),
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(ProfileError::WorkerCrashed { shard: i })
                    }
                };
                // WAL first: once a delta is applied to the view it is
                // part of every future compaction image, so the log
                // must already hold it for recovery to reproduce the
                // view exactly.
                if let Some(store) = store.as_mut() {
                    store.append(&chunk)?;
                }
                merged.apply_delta_bytes(&chunk)?;
                if let Some(pending) = pending.as_mut() {
                    pending.push(chunk);
                }
                if answered == epoch {
                    break;
                }
            }
        }
        self.view_refreshes.fetch_add(1, Ordering::Relaxed);
        // The view now aggregates everything appended this cycle:
        // exactly the image the compaction invariant asks for.
        if let Some(store) = store.as_mut() {
            store.maybe_compact(merged)?;
        }
        let seq = self.snapshots.fetch_add(1, Ordering::Relaxed) + 1;
        let chunks = pending.as_mut().map(std::mem::take).unwrap_or_default();
        if let Some(on_epoch) = on_epoch {
            on_epoch(seq, merged, chunks);
        }
        let merged = merged.clone();
        Ok(ServeSnapshot {
            merged,
            seq,
            stats: self.stats(),
        })
    }

    /// A clone of the materialized view as of the most recent
    /// completed snapshot cycle — including, on a durable service, the
    /// history recovered from the store (which the workers' own
    /// accumulators never contain).
    pub fn view_merged(&self) -> A {
        self.snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merged
            .clone()
    }

    /// The durable store's recovery and append counters, or `None`
    /// when the service runs without a store.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .store
            .as_ref()
            .map(ProfileStore::stats)
    }

    /// Current backpressure and fault accounting across all shards.
    pub fn stats(&self) -> IngestStats {
        let sum = |f: &dyn Fn(&ShardCounters) -> &AtomicU64| -> u64 {
            self.shards
                .iter()
                .map(|s| f(&s.counters).load(Ordering::Relaxed))
                .sum()
        };
        IngestStats {
            shards: self.shards.len(),
            enqueued: sum(&|c| &c.enqueued),
            dropped: sum(&|c| &c.dropped),
            high_water: self
                .shards
                .iter()
                .map(|s| s.ring.high_water())
                .max()
                .unwrap_or(0),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            worker_panics: sum(&|c| &c.panics),
            workers_recovered: sum(&|c| &c.recoveries),
            lost_to_panics: sum(&|c| &c.lost_to_panics),
            checkpoints: sum(&|c| &c.checkpoints),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            deltas_published: sum(&|c| &c.deltas_published),
            delta_bytes: sum(&|c| &c.delta_bytes),
            view_refreshes: self.view_refreshes.load(Ordering::Relaxed),
        }
    }

    /// Closes every ring, drains the workers, and returns the final
    /// merged aggregate plus the final accounting.
    ///
    /// The returned aggregate covers **this process's stream** (the
    /// shard accumulators merged in shard order) — on a durable
    /// service, history recovered from the store lives in the view
    /// ([`view_merged`](ShardedService::view_merged)), and shutdown
    /// first runs one final snapshot cycle so every accepted item
    /// reaches the WAL. Blocks until every worker drains; use
    /// [`shutdown_deadline`](ShardedService::shutdown_deadline) when a
    /// worker might be stuck.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::WorkerCrashed`] if a shard worker died
    /// without delivering its aggregate.
    pub fn shutdown(self) -> Result<(A, IngestStats), ProfileError> {
        self.shutdown_impl(None)
    }

    /// [`shutdown`](ShardedService::shutdown) with a bound: waits at
    /// most `timeout` in total for the workers to drain.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DeadlineExceeded`] if a worker did not
    /// drain in time (its thread is left to the bounded `Drop` reaper),
    /// or [`ProfileError::WorkerCrashed`] if one died.
    pub fn shutdown_deadline(self, timeout: Duration) -> Result<(A, IngestStats), ProfileError> {
        self.shutdown_impl(Some(timeout))
    }

    fn shutdown_impl(
        mut self,
        timeout: Option<Duration>,
    ) -> Result<(A, IngestStats), ProfileError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        // On a durable service, run one last snapshot cycle before the
        // rings close: `self` is consumed, so nothing can be enqueued
        // behind the request this cycle queues — every accepted item
        // reaches the WAL. Best-effort: a crashed worker degrades this
        // to whatever the log already holds, exactly as a crash would.
        if self.store_stats().is_some() {
            let flushed = match deadline {
                None => self.snapshot().map(drop),
                Some(d) => self
                    .snapshot_deadline(d.saturating_duration_since(Instant::now()))
                    .map(drop),
            };
            drop(flushed);
            let mut view = self
                .snap_cycle
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(store) = view.store.as_mut() {
                drop(store.sync());
            }
        }
        // `self` is consumed: no producer can race these closes, so
        // every accepted item is already in a ring and will be drained
        // by its worker.
        for shard in &self.shards {
            shard.ring.close();
        }
        let mut merged: Option<A> = None;
        for i in 0..self.shards.len() {
            let remaining =
                deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            let part = match self.shards[i].reap(remaining) {
                Ok(part) => part,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    return Err(ProfileError::DeadlineExceeded {
                        what: "shutdown",
                        millis: timeout.expect("deadline implies timeout").as_millis() as u64,
                    });
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ProfileError::WorkerCrashed { shard: i })
                }
            };
            // The worker has delivered; its thread is exiting.
            if let Some(worker) = self.shards[i].worker.take() {
                drop(worker.join());
            }
            match &mut merged {
                None => merged = Some(part),
                Some(m) => m.merge(&part)?,
            }
        }
        let stats = self.stats();
        Ok((merged.expect("at least one shard"), stats))
    }
}

impl<A: ShardAggregate> Drop for ShardedService<A> {
    fn drop(&mut self) {
        // `shutdown` leaves no workers; a plain drop still unblocks and
        // reaps them — with a bounded wait, so a stuck worker detaches
        // instead of hanging the dropping thread forever.
        if let Some(faults) = &self.faults {
            faults.release_stalled();
        }
        for shard in &self.shards {
            shard.ring.close();
        }
        for i in 0..self.shards.len() {
            if let Some(worker) = self.shards[i].worker.take() {
                match self.shards[i].reap(Some(Duration::from_secs(2))) {
                    // Delivered or died: the thread is exiting, join is
                    // immediate.
                    Ok(_) | Err(mpsc::RecvTimeoutError::Disconnected) => drop(worker.join()),
                    // Genuinely stuck: detach rather than hang.
                    Err(mpsc::RecvTimeoutError::Timeout) => drop(worker),
                }
            }
        }
    }
}
