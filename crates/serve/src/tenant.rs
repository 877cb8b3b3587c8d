//! Multi-tenant fleet aggregation: per-tenant profile views, quotas,
//! and a per-tenant degradation ladder.
//!
//! DCPI's payoff was one aggregation service fed by an entire fleet of
//! production machines. That only works if the service degrades
//! **selectively**: one producer driving 4× its budget must be thinned
//! or shed — with exact accounting — while every other producer keeps
//! full fidelity and byte-identical snapshots. This module builds that
//! in three layers:
//!
//! 1. [`Tenanted<A>`] — a [`ShardAggregate`] wrapper keying per-tenant
//!    views of the underlying aggregate inside each shard. Absorb and
//!    merge stay commutative and associative per tenant, so the
//!    service's routing-independence invariant (byte-identical merged
//!    snapshots for any shard count) holds per tenant too.
//! 2. [`TenantQuota`] + [`TokenBucket`] — deterministic admission
//!    control: a token-bucket rate/burst cap and a queue-share cap on
//!    in-flight items, combined into a **tenant-attributable** pressure
//!    signal. Pressure feeds one [`OverloadController`] per tenant, so
//!    the Full→Sampled→Shed ladder moves independently per tenant.
//! 3. [`FleetService<A>`] — the multi-tenant façade over
//!    [`ShardedService`]: admission, per-tenant accounting
//!    ([`TenantStats`]), and an [`EpochRing`] of snapshot history for
//!    time-windowed per-tenant deltas.
//!
//! Queue-share accounting rides the supervised worker pipeline: every
//! admitted batch carries an `Arc<AtomicU64>` credit that the worker
//! releases when the batch permanently leaves the pipeline (absorbed,
//! dropped after a double panic, or drained by the crash guard), so
//! `inflight` is exact even across injected worker crashes.
//!
//! # The epoch ring keeps deltas, not views
//!
//! Each fleet snapshot moves the `PMTD` delta frames its cycle folded
//! into the view into the ring, keyed by the snapshot's seq, and
//! records the seq at which each tenant first appeared in the view.
//! [`FleetService::tenant_window`] folds one tenant's chunks of the
//! entries in `(from, to]` into a clone of the empty prototype, which
//! equals `delta_since` between the two snapshots' views of it. An
//! epoch costs what its cycle touched (≈1.4 MB on `fleet_absorb`), not
//! a copy of every view (≈26 MiB there). Four rules keep the frames in
//! an entry exactly what the view folded since the previous entry:
//!
//! - An abandoned deadline cycle may have folded some replies before
//!   it gave up; the service keeps those frames pending until a cycle
//!   completes, and that cycle's entry carries them.
//! - A cycle run on [`FleetService::service`] directly folds frames
//!   that no entry records. Its seq is missing from the ring, so the
//!   next fleet snapshot starts the history afresh: windows across the
//!   gap answer `None`.
//! - The service hands a cycle's frames to the ring before it releases
//!   the cycle's lock, so concurrent snapshots retain entries in seq
//!   order.
//! - Frames are sized exactly when they are built and kept as they
//!   are, so an entry carries no spare capacity.

use crate::degrade::{DegradeConfig, DegradeLevel, OverloadController};
use crate::service::{IngestStats, ServeConfig, ShardAggregate, ShardedService};
use crate::supervise::Work;
use profileme_core::{ProfileDatabase, ProfileError};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A fleet producer's identity, carried with every sample through the
/// ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// A tenant's admission budget: a token-bucket rate/burst cap plus a
/// queue-share cap on items in flight inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantQuota {
    /// Sustained admission rate, in items per second (token refill).
    pub rate_per_sec: u64,
    /// Bucket capacity: how many items the tenant may burst above the
    /// sustained rate before pressure saturates.
    pub burst: u64,
    /// Maximum items this tenant may have in flight (enqueued but not
    /// yet absorbed) before share pressure saturates.
    pub queue_share: u64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            rate_per_sec: 100_000,
            burst: 100_000,
            queue_share: 65_536,
        }
    }
}

impl TenantQuota {
    /// Checks the quota.
    ///
    /// # Errors
    ///
    /// Rejects a zero rate, burst, or queue share — a tenant with no
    /// budget at all should simply not be registered.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.rate_per_sec == 0 {
            return Err(ProfileError::config(
                "rate_per_sec",
                "must be at least 1 (got 0)",
            ));
        }
        if self.burst == 0 {
            return Err(ProfileError::config("burst", "must be at least 1 (got 0)"));
        }
        if self.queue_share == 0 {
            return Err(ProfileError::config(
                "queue_share",
                "must be at least 1 (got 0)",
            ));
        }
        Ok(())
    }
}

/// A deterministic token bucket over an explicit clock: all methods
/// take time as nanoseconds since an arbitrary epoch, so tests drive
/// it without sleeping and two runs with the same timestamps agree
/// exactly.
///
/// Tokens are tracked in nano-tokens (`tokens × 10⁹`) so refill is
/// integer-exact: `rate_per_sec × elapsed_nanos` nano-tokens accrue.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: u64,
    burst_e9: u128,
    tokens_e9: u128,
    last_nanos: u64,
}

const E9: u128 = 1_000_000_000;

impl TokenBucket {
    /// A full bucket for `quota`, with the clock at `now_nanos`.
    pub fn new(quota: TenantQuota, now_nanos: u64) -> TokenBucket {
        let burst_e9 = u128::from(quota.burst) * E9;
        TokenBucket {
            rate_per_sec: quota.rate_per_sec,
            burst_e9,
            tokens_e9: burst_e9,
            last_nanos: now_nanos,
        }
    }

    /// Accrues tokens for the time since the last call, capped at the
    /// burst size. Time moving backwards accrues nothing.
    pub fn refill(&mut self, now_nanos: u64) {
        let elapsed = now_nanos.saturating_sub(self.last_nanos);
        self.last_nanos = self.last_nanos.max(now_nanos);
        self.tokens_e9 = self
            .tokens_e9
            .saturating_add(u128::from(self.rate_per_sec) * u128::from(elapsed))
            .min(self.burst_e9);
    }

    /// Consumes up to `n` tokens (all remaining ones if fewer are
    /// available — admission already happened; the deficit shows up as
    /// pressure instead of debt).
    pub fn take(&mut self, n: u64) {
        self.tokens_e9 = self.tokens_e9.saturating_sub(u128::from(n) * E9);
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u64 {
        (self.tokens_e9 / E9) as u64
    }

    /// How depleted the bucket is, as a percentage: 0 when full, 100
    /// when empty — the rate component of tenant pressure.
    pub fn deficit_pct(&self) -> u8 {
        if self.burst_e9 == 0 {
            return 100;
        }
        ((self.burst_e9 - self.tokens_e9) * 100 / self.burst_e9) as u8
    }
}

// ---------------------------------------------------------------------
// Tenant-keyed merge algebra
// ---------------------------------------------------------------------

/// A [`ShardAggregate`] keyed by tenant: each tenant gets its own view
/// of the underlying aggregate, created on first absorb by cloning the
/// empty prototype.
///
/// Per tenant, absorb/merge delegate to `A`, so they stay commutative
/// and associative and the sharded service's determinism invariant
/// holds **per tenant**: whenever a tenant loses no samples, its view
/// in the merged snapshot is byte-identical to direct single-threaded
/// aggregation of that tenant's stream — regardless of what happened
/// to other tenants.
///
/// The store image frames the prototype plus every tenant view (magic
/// `PMTC`); deltas frame one chunk per tenant touched since the last
/// extraction (magic `PMTD`), and a checkpoint sync visits only the
/// tenants touched since the previous sync, so both stay
/// O(touched tenants × touched rows).
#[derive(Debug, Clone)]
pub struct Tenanted<A: ShardAggregate> {
    /// The empty prototype new tenant views are cloned from.
    proto: A,
    /// Tenant views, sorted by tenant id (binary-searchable, and a
    /// canonical order for images and merges).
    views: Vec<View<A>>,
    /// Tenant ids touched since the last delta extraction — tracked
    /// here so extraction never serializes an unchanged tenant,
    /// independent of `A`'s wire format.
    touched: Vec<u32>,
    /// Tenant ids touched since the last checkpoint sync, fed by the
    /// same [`mark_touched`](Tenanted::mark_touched) as `touched`.
    unsynced: Vec<u32>,
}

/// One tenant's view, with marks saying whether its id is already in
/// [`Tenanted`]'s `touched` and `unsynced` lists — so marking a view
/// on every absorb is one byte compare, not a scan of either list.
#[derive(Debug, Clone)]
struct View<A> {
    id: u32,
    marks: u8,
    agg: A,
}

/// [`View::marks`] bits.
const IN_TOUCHED: u8 = 0b01;
const IN_UNSYNCED: u8 = 0b10;

const TENANT_CHECKPOINT_MAGIC: &[u8; 4] = b"PMTC";
const TENANT_DELTA_MAGIC: &[u8; 4] = b"PMTD";

fn push_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn truncated() -> ProfileError {
    ProfileError::Snapshot {
        reason: "tenant frame truncated".into(),
    }
}

fn read_u32(bytes: &[u8], at: &mut usize) -> Result<u32, ProfileError> {
    let end = at
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(truncated)?;
    let v = u32::from_le_bytes(bytes[*at..end].try_into().expect("4 bytes"));
    *at = end;
    Ok(v)
}

/// Reads an item count and checks it against the bytes left at
/// `min_item` bytes per item, so a corrupt count fails the decode
/// instead of sizing an allocation.
fn read_count(bytes: &[u8], at: &mut usize, min_item: usize) -> Result<usize, ProfileError> {
    let count = read_u32(bytes, at)? as usize;
    if count > (bytes.len() - *at) / min_item {
        return Err(truncated());
    }
    Ok(count)
}

fn read_chunk<'a>(bytes: &'a [u8], at: &mut usize) -> Result<&'a [u8], ProfileError> {
    let len = read_u32(bytes, at)? as usize;
    let end = at
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(truncated)?;
    let chunk = &bytes[*at..end];
    *at = end;
    Ok(chunk)
}

impl<A: ShardAggregate> Tenanted<A> {
    /// An empty tenant-keyed aggregate over the given prototype.
    pub fn new(proto: A) -> Tenanted<A> {
        Tenanted {
            proto,
            views: Vec::new(),
            touched: Vec::new(),
            unsynced: Vec::new(),
        }
    }

    fn find(&self, id: u32) -> Result<usize, usize> {
        self.views.binary_search_by_key(&id, |v| v.id)
    }

    /// The view index for `id`, creating the view when absent.
    fn view_index(&mut self, id: u32) -> usize {
        self.find(id).unwrap_or_else(|i| {
            let agg = self.proto.clone();
            self.views.insert(i, View { id, marks: 0, agg });
            i
        })
    }

    /// Records that view `i` changed: its id joins `touched` and
    /// `unsynced` unless already there.
    fn mark_touched(&mut self, i: usize) {
        let view = &mut self.views[i];
        if view.marks != IN_TOUCHED | IN_UNSYNCED {
            if view.marks & IN_TOUCHED == 0 {
                self.touched.push(view.id);
            }
            if view.marks & IN_UNSYNCED == 0 {
                self.unsynced.push(view.id);
            }
            view.marks = IN_TOUCHED | IN_UNSYNCED;
        }
    }

    /// Empties the id list that `mark` names, clearing that mark on
    /// each of its views, and returns the ids.
    fn take_marked(&mut self, mark: u8) -> Vec<u32> {
        let list = if mark == IN_TOUCHED {
            &mut self.touched
        } else {
            &mut self.unsynced
        };
        let ids = std::mem::take(list);
        for &id in &ids {
            let i = self.find(id).expect("marked ids name existing views");
            self.views[i].marks &= !mark;
        }
        ids
    }

    /// The tenant's view, if it has absorbed anything.
    pub fn tenant(&self, id: TenantId) -> Option<&A> {
        self.find(id.0).ok().map(|i| &self.views[i].agg)
    }

    /// Every tenant present, in id order.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &A)> {
        self.views.iter().map(|v| (TenantId(v.id), &v.agg))
    }

    /// How many tenants have a view.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no tenant has absorbed anything yet.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

impl<A: ShardAggregate> ShardAggregate for Tenanted<A> {
    type Item = (TenantId, A::Item);

    fn absorb(&mut self, item: &Self::Item) {
        let i = self.view_index(item.0 .0);
        self.views[i].agg.absorb(&item.1);
        self.mark_touched(i);
    }

    fn merge(&mut self, other: &Tenanted<A>) -> Result<(), ProfileError> {
        // The prototypes must agree even when `other` has no views:
        // every view created later is cloned from `self.proto`.
        self.proto.clone().merge(&other.proto)?;
        for view in &other.views {
            let i = self.view_index(view.id);
            self.views[i].agg.merge(&view.agg)?;
            self.mark_touched(i);
        }
        Ok(())
    }

    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError> {
        let mut out = Vec::new();
        out.extend_from_slice(TENANT_CHECKPOINT_MAGIC);
        push_chunk(&mut out, &self.proto.checkpoint_bytes()?);
        out.extend_from_slice(&(self.views.len() as u32).to_le_bytes());
        for view in &self.views {
            out.extend_from_slice(&view.id.to_le_bytes());
            push_chunk(&mut out, &view.agg.checkpoint_bytes()?);
        }
        // The touched trailer is part of the image format only: a
        // decoded image marks every view instead (see
        // `from_checkpoint_bytes`).
        let mut touched = self.touched.clone();
        touched.sort_unstable();
        out.extend_from_slice(&(touched.len() as u32).to_le_bytes());
        for id in touched {
            out.extend_from_slice(&id.to_le_bytes());
        }
        Ok(out)
    }

    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<Tenanted<A>, ProfileError> {
        let mut at = 0usize;
        let magic = bytes.get(..4).ok_or(ProfileError::Snapshot {
            reason: "tenant checkpoint truncated".into(),
        })?;
        if magic != TENANT_CHECKPOINT_MAGIC {
            return Err(ProfileError::Snapshot {
                reason: "not a tenant checkpoint (bad magic)".into(),
            });
        }
        at += 4;
        let proto = A::from_checkpoint_bytes(read_chunk(bytes, &mut at)?)?;
        // Each view costs at least an id and a chunk length.
        let count = read_count(bytes, &mut at, 8)?;
        let mut views: Vec<View<A>> = Vec::with_capacity(count);
        for _ in 0..count {
            let id = read_u32(bytes, &mut at)?;
            // `find` binary-searches the views: a repeated or
            // out-of-order id would hide tenants from lookups.
            if views.last().is_some_and(|v| v.id >= id) {
                return Err(ProfileError::Snapshot {
                    reason: "tenant checkpoint view ids are not strictly ascending".into(),
                });
            }
            let agg = A::from_checkpoint_bytes(read_chunk(bytes, &mut at)?)?;
            views.push(View {
                id,
                marks: IN_TOUCHED | IN_UNSYNCED,
                agg,
            });
        }
        // The touched trailer is checked but not trusted: every
        // decoded view is marked touched and unsynced instead — a
        // superset, like the rows `decode` marks.
        let touched_count = read_count(bytes, &mut at, 4)?;
        for _ in 0..touched_count {
            read_u32(bytes, &mut at)?;
        }
        let ids: Vec<u32> = views.iter().map(|v| v.id).collect();
        Ok(Tenanted {
            proto,
            views,
            touched: ids.clone(),
            unsynced: ids,
        })
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut Tenanted<A>) -> Result<(), ProfileError> {
        // Only tenants touched since the last sync owe the checkpoint
        // anything; the prototype never changes.
        for id in self.take_marked(IN_UNSYNCED) {
            let i = self.find(id).expect("marked ids name existing views");
            let ci = checkpoint.view_index(id);
            self.views[i]
                .agg
                .sync_checkpoint(&mut checkpoint.views[ci].agg)?;
            // A clone of the checkpoint must re-extract this tenant:
            // its view may have moved past the extraction base.
            checkpoint.mark_touched(ci);
        }
        Ok(())
    }

    fn extract_delta_bytes(&mut self, base: &mut Tenanted<A>) -> Result<Vec<u8>, ProfileError> {
        // Only tenants touched since the last extraction produce a
        // chunk; everyone else's base view is already identical.
        let mut touched = self.take_marked(IN_TOUCHED);
        touched.sort_unstable();
        let mut chunks = Vec::with_capacity(touched.len());
        for id in touched {
            let i = self.find(id).expect("marked ids name existing views");
            let bi = base.view_index(id);
            let chunk = self.views[i]
                .agg
                .extract_delta_bytes(&mut base.views[bi].agg)?;
            chunks.push((id, chunk));
        }
        base.take_marked(IN_TOUCHED);
        // Sized exactly: a fleet's epoch ring keeps this frame as it is.
        let len = 8 + chunks.iter().map(|(_, c)| 8 + c.len()).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(TENANT_DELTA_MAGIC);
        out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
        for (id, chunk) in chunks {
            out.extend_from_slice(&id.to_le_bytes());
            push_chunk(&mut out, &chunk);
        }
        Ok(out)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), ProfileError> {
        for (id, chunk) in delta_chunks(bytes)? {
            let i = self.view_index(id);
            self.views[i].agg.apply_delta_bytes(chunk)?;
            self.mark_touched(i);
        }
        Ok(())
    }
}

/// The `(tenant id, chunk)` entries of one `PMTD` delta frame, read
/// whole before any is used.
fn delta_chunks(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, ProfileError> {
    let magic = bytes.get(..4).ok_or(ProfileError::Snapshot {
        reason: "tenant delta truncated".into(),
    })?;
    if magic != TENANT_DELTA_MAGIC {
        return Err(ProfileError::Snapshot {
            reason: "not a tenant delta (bad magic)".into(),
        });
    }
    let mut at = 4;
    // Each entry costs at least an id and a chunk length.
    let count = read_count(bytes, &mut at, 8)?;
    let mut chunks = Vec::with_capacity(count);
    for _ in 0..count {
        let id = read_u32(bytes, &mut at)?;
        chunks.push((id, read_chunk(bytes, &mut at)?));
    }
    Ok(chunks)
}

// ---------------------------------------------------------------------
// Epoch ring
// ---------------------------------------------------------------------

/// A bounded ring of retained entries, keyed by snapshot sequence
/// number: the history window behind time-windowed per-tenant deltas.
/// [`FleetService`] keeps one entry per snapshot: the delta frames that
/// snapshot folded into the view.
#[derive(Debug)]
pub struct EpochRing<T> {
    retain: usize,
    entries: VecDeque<(u64, T)>,
}

impl<T> EpochRing<T> {
    /// An empty ring retaining at most `retain` snapshots (at least 1).
    pub fn new(retain: usize) -> EpochRing<T> {
        EpochRing {
            retain: retain.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Retains `value` under `seq`, evicting the oldest entry beyond
    /// the retention bound.
    pub fn push(&mut self, seq: u64, value: T) {
        self.entries.push_back((seq, value));
        while self.entries.len() > self.retain {
            self.entries.pop_front();
        }
    }

    /// The retained entry for `seq`, if it has not been evicted.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.entries.iter().find(|(s, _)| *s == seq).map(|(_, v)| v)
    }

    /// Retained entries with their sequence numbers, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries.iter().map(|(s, v)| (*s, v))
    }

    /// The newest retained entry.
    pub fn latest(&self) -> Option<(u64, &T)> {
        self.entries.back().map(|(s, v)| (*s, v))
    }

    /// Sequence numbers currently retained, oldest first.
    pub fn seqs(&self) -> Vec<u64> {
        self.entries.iter().map(|(s, _)| *s).collect()
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retention bound.
    pub fn retain(&self) -> usize {
        self.retain
    }
}

// ---------------------------------------------------------------------
// The fleet service
// ---------------------------------------------------------------------

/// Per-tenant admission state: the quota, its token bucket, the
/// tenant's own degradation ladder, and the in-flight credit counter
/// the supervised workers settle.
struct TenantState {
    id: TenantId,
    quota: TenantQuota,
    bucket: Mutex<TokenBucket>,
    ladder: OverloadController,
    inflight: Arc<AtomicU64>,
    offered: AtomicU64,
    accepted: AtomicU64,
}

impl TenantState {
    /// Tenant-attributable pressure in `[0, 100]`: the worse of the
    /// token-bucket deficit (rate pressure) and the in-flight fraction
    /// of the queue share (share pressure). Neither component can be
    /// moved by another tenant's traffic, which is exactly what makes
    /// the per-tenant ladder fair.
    fn pressure(&self, now_nanos: u64) -> u8 {
        let rate = {
            let mut bucket = self.bucket.lock().unwrap_or_else(PoisonError::into_inner);
            bucket.refill(now_nanos);
            bucket.deficit_pct()
        };
        let inflight = self.inflight.load(Ordering::Relaxed);
        let share = (inflight.saturating_mul(100) / self.quota.queue_share).min(100) as u8;
        rate.max(share)
    }
}

/// Configuration of the multi-tenant layer: who the tenants are, the
/// degradation ladder each of them runs, and how much snapshot history
/// to retain.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The registered tenants and their quotas. Samples for an
    /// unregistered tenant are rejected at admission.
    pub tenants: Vec<(TenantId, TenantQuota)>,
    /// The Full→Sampled→Shed ladder every tenant walks under its own
    /// pressure.
    pub degrade: DegradeConfig,
    /// Snapshots retained in the epoch ring for time-windowed deltas:
    /// [`FleetService::tenant_window`] answers between any two of the
    /// last `epoch_retain` snapshots. Each one costs the delta frames
    /// its cycle folded into the view — O(rows touched since the
    /// previous snapshot), not a copy of every tenant's profile.
    pub epoch_retain: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            tenants: Vec::new(),
            degrade: DegradeConfig::default(),
            epoch_retain: 8,
        }
    }
}

impl FleetConfig {
    /// A uniform fleet: tenants `0..n`, all with `quota`.
    pub fn uniform(n: u32, quota: TenantQuota) -> FleetConfig {
        FleetConfig {
            tenants: (0..n).map(|i| (TenantId(i), quota)).collect(),
            ..FleetConfig::default()
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects an empty tenant list, duplicate tenant ids, any invalid
    /// quota, and an invalid ladder.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.tenants.is_empty() {
            return Err(ProfileError::config(
                "tenants",
                "must register at least one tenant",
            ));
        }
        let mut ids: Vec<u32> = self.tenants.iter().map(|(t, _)| t.0).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(ProfileError::config("tenants", "duplicate tenant id"));
        }
        for (_, quota) in &self.tenants {
            quota.validate()?;
        }
        self.degrade.validate()
    }
}

/// One tenant's accounting, as reported by [`FleetService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: u32,
    /// Items offered to [`FleetService::ingest_batch`].
    pub offered: u64,
    /// Items admitted onto shard rings.
    pub accepted: u64,
    /// Items discarded by this tenant's 1-in-k thinning.
    pub thinned: u64,
    /// Items dropped whole at this tenant's `Shed` level.
    pub shed: u64,
    /// The tenant's current ladder position (0 = full fidelity).
    pub level: u8,
    /// This tenant's ladder downshifts.
    pub downshifts: u64,
    /// This tenant's ladder upshifts.
    pub upshifts: u64,
    /// Items admitted but not yet absorbed by a worker.
    pub inflight: u64,
}

/// Fleet-wide accounting: per-tenant stats plus their totals plus the
/// underlying service's [`IngestStats`]. The fairness invariant ties
/// them together: per-tenant `thinned`/`shed` sum to the totals, and
/// `enqueued` on the inner service equals the sum of per-tenant
/// `accepted`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStats {
    /// Per-tenant accounting, in tenant-id order.
    pub tenants: Vec<TenantStats>,
    /// Σ per-tenant `offered`.
    pub offered: u64,
    /// Σ per-tenant `accepted`.
    pub accepted: u64,
    /// Σ per-tenant `thinned`.
    pub thinned: u64,
    /// Σ per-tenant `shed`.
    pub shed: u64,
    /// The inner sharded service's accounting.
    pub service: IngestStats,
}

/// A merged point-in-time view of the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetSnapshot<A: ShardAggregate> {
    /// Every tenant's view, merged in shard order.
    pub merged: Tenanted<A>,
    /// 1-based snapshot sequence number (also the epoch-ring key).
    pub seq: u64,
    /// Fleet accounting at snapshot time.
    pub stats: FleetStats,
}

/// The fleet's snapshot history, as delta frames rather than copies of
/// the view. Entry `s` of the ring holds the `PMTD` frames the view
/// folded between the snapshot before `s` and `s`, in fold order, so
/// tenant t's profile over `(from, to]` is t's chunks of entries
/// `from + 1 ..= to` folded into a clone of the empty prototype.
struct Epochs<A> {
    ring: EpochRing<Vec<Vec<u8>>>,
    /// The seq at which each tenant first appeared in the view since
    /// the ring's history began: a tenant is present at a retained
    /// seq iff its entry is at or below it.
    first_seen: BTreeMap<u32, u64>,
    proto: A,
}

impl<A: ShardAggregate> Epochs<A> {
    /// Retains snapshot `seq`'s frames; called while its cycle still
    /// holds the view, so seqs arrive in order.
    fn push(&mut self, seq: u64, view: &Tenanted<A>, frames: Vec<Vec<u8>>) {
        // A missing seq is a cycle run on the inner service directly:
        // its frames are in the view but in no entry, so no window
        // may span it. Start the history afresh.
        if self.ring.latest().is_some_and(|(last, _)| seq != last + 1) {
            self.ring = EpochRing::new(self.ring.retain());
            self.first_seen.clear();
        }
        // Read from the view, so that tenants recovered from a store
        // count as present although no frame carries them.
        for (id, _) in view.tenants() {
            self.first_seen.entry(id.0).or_insert(seq);
        }
        self.ring.push(seq, frames);
    }
}

/// The multi-tenant aggregation service: per-tenant admission control
/// and degradation over one [`ShardedService`] of tenant-keyed
/// aggregates.
///
/// # Fairness
///
/// Admission happens per tenant, against that tenant's own token
/// bucket, in-flight share, and [`OverloadController`]. A tenant
/// driving multiples of its quota walks its own ladder down
/// (Full→Sampled→Shed) with exact per-tenant `thinned`/`shed`
/// accounting, while tenants inside their quota never observe pressure
/// at all — their views in every snapshot stay byte-identical to
/// direct aggregation of their streams.
pub struct FleetService<A: ShardAggregate> {
    inner: ShardedService<Tenanted<A>>,
    /// Sorted by tenant id; fixed at start, so lookups are lock-free.
    tenants: Vec<TenantState>,
    /// The ladder configuration every tenant runs.
    degrade: DegradeConfig,
    epochs: Mutex<Epochs<A>>,
    /// The admission clock's epoch: buckets measure time as
    /// nanoseconds since service start.
    started: Instant,
}

impl<A: ShardAggregate> FleetService<A> {
    /// Starts the fleet service: a [`ShardedService`] over
    /// [`Tenanted<A>`] plus one admission state per registered tenant.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an invalid `config` or
    /// `fleet`, and whatever [`ShardedService::start`] reports.
    pub fn start(
        proto: A,
        config: ServeConfig,
        fleet: FleetConfig,
    ) -> Result<FleetService<A>, ProfileError> {
        fleet.validate()?;
        let inner = ShardedService::start(Tenanted::new(proto.clone()), config)?;
        Ok(FleetService::assemble(inner, proto, fleet))
    }

    /// [`start`](FleetService::start) with a deterministic
    /// [`FaultPlan`](crate::faults::FaultPlan) injected into every
    /// worker — fairness under reproducible chaos.
    ///
    /// # Errors
    ///
    /// As [`start`](FleetService::start).
    #[cfg(feature = "fault-injection")]
    pub fn start_with_faults(
        proto: A,
        config: ServeConfig,
        fleet: FleetConfig,
        plan: crate::faults::FaultPlan,
    ) -> Result<FleetService<A>, ProfileError> {
        fleet.validate()?;
        let inner = ShardedService::start_with_faults(Tenanted::new(proto.clone()), config, plan)?;
        Ok(FleetService::assemble(inner, proto, fleet))
    }

    fn assemble(
        inner: ShardedService<Tenanted<A>>,
        proto: A,
        fleet: FleetConfig,
    ) -> FleetService<A> {
        inner.keep_epoch_chunks();
        let started = Instant::now();
        let mut tenants: Vec<TenantState> = fleet
            .tenants
            .into_iter()
            .map(|(id, quota)| TenantState {
                id,
                quota,
                bucket: Mutex::new(TokenBucket::new(quota, 0)),
                ladder: OverloadController::new(fleet.degrade),
                inflight: Arc::new(AtomicU64::new(0)),
                offered: AtomicU64::new(0),
                accepted: AtomicU64::new(0),
            })
            .collect();
        tenants.sort_by_key(|t| t.id);
        FleetService {
            inner,
            tenants,
            degrade: fleet.degrade,
            epochs: Mutex::new(Epochs {
                ring: EpochRing::new(fleet.epoch_retain),
                first_seen: BTreeMap::new(),
                proto,
            }),
            started,
        }
    }

    fn state(&self, tenant: TenantId) -> Result<&TenantState, ProfileError> {
        self.tenants
            .binary_search_by_key(&tenant, |t| t.id)
            .map(|i| &self.tenants[i])
            .map_err(|_| ProfileError::config("tenant", format!("{tenant} is not registered")))
    }

    fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Admits one batch for `tenant` at whatever fidelity its own
    /// ladder currently allows: in full, thinned 1-in-k, or shed whole
    /// — always with exact per-tenant accounting. Returns the level
    /// that was applied.
    ///
    /// Admission consumes tokens for everything actually enqueued and
    /// raises the tenant's in-flight credit, which the shard workers
    /// settle as batches are absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an unregistered tenant.
    pub fn ingest_batch(
        &self,
        tenant: TenantId,
        items: Vec<A::Item>,
    ) -> Result<DegradeLevel, ProfileError> {
        let state = self.state(tenant)?;
        if items.is_empty() {
            return Ok(state.ladder.level());
        }
        let n = items.len() as u64;
        state.offered.fetch_add(n, Ordering::Relaxed);
        let level = state.ladder.observe(state.pressure(self.now_nanos()));
        match level {
            DegradeLevel::Full => self.admit(state, items),
            DegradeLevel::Sampled => {
                let k = state.ladder.config().thin_k as usize;
                let before = items.len();
                // Deterministic 1-in-k thinning by stream position,
                // independent of thread timing.
                let kept: Vec<A::Item> = items
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, item)| (i % k == 0).then_some(item))
                    .collect();
                state.ladder.count_thinned((before - kept.len()) as u64);
                self.admit(state, kept);
            }
            DegradeLevel::Shed => state.ladder.count_shed(n),
        }
        Ok(level)
    }

    /// Enqueues already-admitted items: tags them with the tenant id,
    /// charges the token bucket, raises the in-flight credit, and
    /// hands the batch to the inner service as one credited message.
    fn admit(&self, state: &TenantState, items: Vec<A::Item>) {
        if items.is_empty() {
            return;
        }
        let n = items.len() as u64;
        {
            let mut bucket = state.bucket.lock().unwrap_or_else(PoisonError::into_inner);
            bucket.refill(self.now_nanos());
            bucket.take(n);
        }
        let tagged: Vec<(TenantId, A::Item)> =
            items.into_iter().map(|item| (state.id, item)).collect();
        // Raise the credit before the push: the worker may settle the
        // batch the instant it lands, and the counter must never
        // underflow. A rejected push (crashed shard) releases the
        // credit itself.
        state.inflight.fetch_add(n, Ordering::Relaxed);
        let work = Work {
            items: tagged,
            credit: Some(Arc::clone(&state.inflight)),
        };
        // Without a timeout the push cannot miss a deadline.
        let accepted = self.inner.push(work, None).unwrap_or(0);
        state.accepted.fetch_add(accepted, Ordering::Relaxed);
    }

    /// One snapshot cycle over the whole fleet. The delta frames the
    /// cycle folded into the view are moved into the epoch ring for
    /// time-windowed deltas.
    ///
    /// # Errors
    ///
    /// As [`ShardedService::snapshot`].
    pub fn snapshot(&self) -> Result<FleetSnapshot<A>, ProfileError> {
        let snap = self.inner.snapshot_epoch(&mut |seq, view, frames| {
            self.epochs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(seq, view, frames);
        })?;
        Ok(FleetSnapshot {
            merged: snap.merged,
            seq: snap.seq,
            stats: self.stats(),
        })
    }

    /// Sequence numbers currently retained in the epoch ring, oldest
    /// first.
    pub fn epoch_seqs(&self) -> Vec<u64> {
        self.epochs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ring
            .seqs()
    }

    /// Per-tenant and fleet-wide accounting.
    pub fn stats(&self) -> FleetStats {
        let tenants: Vec<TenantStats> = self
            .tenants
            .iter()
            .map(|t| {
                let (downshifts, upshifts, thinned, shed) = t.ladder.counters();
                TenantStats {
                    tenant: t.id.0,
                    offered: t.offered.load(Ordering::Relaxed),
                    accepted: t.accepted.load(Ordering::Relaxed),
                    thinned,
                    shed,
                    level: t.ladder.level().as_u8(),
                    downshifts,
                    upshifts,
                    inflight: t.inflight.load(Ordering::Relaxed),
                }
            })
            .collect();
        FleetStats {
            offered: tenants.iter().map(|t| t.offered).sum(),
            accepted: tenants.iter().map(|t| t.accepted).sum(),
            thinned: tenants.iter().map(|t| t.thinned).sum(),
            shed: tenants.iter().map(|t| t.shed).sum(),
            service: self.inner.stats(),
            tenants,
        }
    }

    /// The ladder configuration every tenant runs
    /// ([`FleetConfig::degrade`]).
    pub(crate) fn degrade(&self) -> DegradeConfig {
        self.degrade
    }

    /// The current ladder level for one tenant.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an unregistered tenant.
    pub fn tenant_level(&self, tenant: TenantId) -> Result<DegradeLevel, ProfileError> {
        Ok(self.state(tenant)?.ladder.level())
    }

    /// Closes the fleet: drains the inner service and returns the
    /// final tenant-keyed aggregate plus the final accounting.
    ///
    /// # Errors
    ///
    /// As [`ShardedService::shutdown`].
    pub fn shutdown(self) -> Result<(Tenanted<A>, FleetStats), ProfileError> {
        let mut stats = self.stats();
        let (merged, service) = self.inner.shutdown()?;
        stats.service = service;
        // The drain settled every in-flight credit; report the final
        // values rather than the pre-drain sample.
        for (t, state) in stats.tenants.iter_mut().zip(&self.tenants) {
            t.inflight = state.inflight.load(Ordering::Relaxed);
        }
        Ok((merged, stats))
    }

    /// Shared access to the inner sharded service (snapshot deadlines,
    /// view queries, store stats).
    pub fn service(&self) -> &ShardedService<Tenanted<A>> {
        &self.inner
    }
}

impl FleetService<ProfileDatabase> {
    /// The interval delta of one tenant's profile between two retained
    /// snapshots: what that tenant aggregated in `(from_seq, to_seq]`,
    /// equal to `delta_since` of the two snapshots' views of it.
    ///
    /// - `None` if either seq is not in the ring (evicted, never
    ///   taken, or taken before a snapshot cycle was run on
    ///   [`service`](FleetService::service) directly), or if the
    ///   tenant is absent at `to_seq`.
    /// - A tenant absent at `from_seq` yields its whole profile at
    ///   `to_seq`; `from_seq == to_seq` yields an empty profile.
    ///
    /// The answer folds the tenant's chunks of the retained delta
    /// frames in `(from_seq, to_seq]` into a clone of the empty
    /// prototype: O(rows the tenant touched in the window).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if `from_seq > to_seq` and
    /// the tenant's profile changed in between (counters would go
    /// negative), or if a retained frame does not parse (which would
    /// indicate a bug in the snapshot plane).
    pub fn tenant_window(
        &self,
        tenant: TenantId,
        from_seq: u64,
        to_seq: u64,
    ) -> Result<Option<ProfileDatabase>, ProfileError> {
        let epochs = self.epochs.lock().unwrap_or_else(PoisonError::into_inner);
        let retained = epochs.ring.get(from_seq).is_some() && epochs.ring.get(to_seq).is_some();
        let present = epochs
            .first_seen
            .get(&tenant.0)
            .is_some_and(|&first| first <= to_seq);
        if !retained || !present {
            return Ok(None);
        }
        let (lo, hi) = (from_seq.min(to_seq), from_seq.max(to_seq));
        let mut window = epochs.proto.clone();
        for (_, frames) in epochs.ring.iter().filter(|&(seq, _)| lo < seq && seq <= hi) {
            for frame in frames {
                let chunks = delta_chunks(frame)?;
                if let Some((_, chunk)) = chunks.iter().find(|(id, _)| *id == tenant.0) {
                    window.apply_delta(chunk)?;
                }
            }
        }
        if from_seq > to_seq && window != epochs.proto {
            return Err(ProfileError::Mismatch {
                what: "snapshot order (counters would go negative)",
            });
        }
        Ok(Some(window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profileme_core::{ProfileMeConfig, Session};

    /// The ring keeps each frame exactly as the workers built it, so a
    /// frame must carry no spare capacity: at ~21 bytes a touched row,
    /// a reserve of twice that would double what every epoch costs.
    #[test]
    fn retained_frames_carry_no_spare_capacity() {
        let w = profileme_workloads::ijpeg(300);
        let run = Session::builder(w.program.clone())
            .memory(w.memory)
            .sampling(ProfileMeConfig {
                mean_interval: 8,
                ..Default::default()
            })
            .build()
            .unwrap()
            .profile_single()
            .unwrap();
        let svc = FleetService::start(
            ProfileDatabase::new(&w.program, run.db.interval()),
            ServeConfig::builder().shards(2).build().unwrap(),
            FleetConfig::uniform(3, TenantQuota::default()),
        )
        .unwrap();
        for (i, batch) in run.samples.chunks(50).enumerate() {
            svc.ingest_batch(TenantId(i as u32 % 3), batch.to_vec())
                .unwrap();
            if i % 3 == 2 {
                svc.snapshot().unwrap();
            }
        }
        let epochs = svc.epochs.lock().unwrap();
        let frames: Vec<&Vec<u8>> = epochs.ring.iter().flat_map(|(_, f)| f).collect();
        assert!(frames.iter().any(|f| f.len() > 100), "nothing was retained");
        for frame in frames {
            assert_eq!(frame.capacity(), frame.len());
        }
    }
}
