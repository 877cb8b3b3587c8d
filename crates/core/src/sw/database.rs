//! The profile database: compact, incrementally aggregated per-PC
//! profiles, in the style the paper attributes to DCPI (§5, §5.2.3).
//!
//! Databases are **mergeable**: every per-PC field is a sum, so two
//! databases built from disjoint parts of one sample stream merge —
//! field-wise addition — into exactly the database a single aggregator
//! would have built. That algebra (commutative, associative, with the
//! empty database as identity) is what lets `profileme-serve` shard
//! ingest across threads and still produce byte-identical snapshots for
//! any shard count.

use crate::error::ProfileError;
use crate::sw::estimate::Estimate;
use crate::sw::wire;
use crate::sw::{useful_overlap, OverlapKind};
use crate::{PairedSample, Sample};
use profileme_isa::{Pc, Program};
use profileme_uarch::{EventSet, LatencySums};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Per-field columns of a [`PcProfile`] row on the sparse wire.
const PC_COLUMNS: usize = 20;
/// Per-field columns of a [`PcPairProfile`] row on the sparse wire.
const PAIR_COLUMNS: usize = 4;
/// Header words of a single-sample table: base PC, row count,
/// interval, invalid samples, total samples.
const SNAP_HEADER: usize = 5;
/// Header words of a paired table: base PC, row count, interval,
/// window, total pairs, incomplete pairs.
const PAIR_HEADER: usize = 6;
/// Version magic: single-sample snapshot / delta.
const SNAP_MAGIC: [u8; 4] = *b"PMS1";
const DELTA_MAGIC: [u8; 4] = *b"PMD1";
/// Version magic: paired snapshot / delta.
const PAIR_SNAP_MAGIC: [u8; 4] = *b"PMP1";
const PAIR_DELTA_MAGIC: [u8; 4] = *b"PME1";

/// The on-wire encodings a profile database [`encode`]s to.
///
/// Both formats round-trip through the single [`decode`] entry point
/// (the leading bytes pick the parser: a version magic vs. a JSON
/// object), and both carry exactly the database *content* — two
/// databases holding identical aggregates produce identical bytes per
/// format regardless of how they were built.
///
/// [`encode`]: ProfileDatabase::encode
/// [`decode`]: ProfileDatabase::decode
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireFormat {
    /// The legacy dense JSON image: every row, zero or not. Kept for
    /// interoperability and as the reference encoding the decoder
    /// agreement tests compare against.
    Dense,
    /// The canonical sparse columnar format (`PMS1`/`PMP1` magic):
    /// varint-coded touched-row runs plus per-field columns — the
    /// encoding the snapshot plane and the durable store share.
    #[default]
    Sparse,
}

/// Two sets of touched rows, fed by one [`mark`](DirtySet::mark) and
/// drained independently: `touched` since the last delta extraction,
/// and `unsynced` since the last checkpoint sync. Each row owns two
/// adjacent bits of one bitset word (O(1) dedup of both sets with one
/// load), plus an index list per set for O(touched) iteration.
///
/// Invariant: each list ⊇ every row whose profile differs from its
/// value at that list's last drain (or from the all-zero row if none
/// happened yet). Supersets are fine — the delta encoder skips rows
/// whose diff is zero, and a sync re-copies an equal row — so
/// decoding marks every nonzero row rather than trying to reconstruct
/// history.
#[derive(Debug, Clone, Default)]
struct DirtySet {
    words: Vec<u64>,
    touched: Vec<u32>,
    unsynced: Vec<u32>,
}

/// A row's extraction bit within its word; the sync bit sits just
/// above it.
const TOUCHED_BIT: u64 = 0b01;
const UNSYNCED_BIT: u64 = 0b10;

impl DirtySet {
    fn slot(i: usize) -> (usize, u32) {
        (i / 32, 2 * (i % 32) as u32)
    }

    fn mark(&mut self, i: usize) {
        let (w, shift) = DirtySet::slot(i);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let both = (TOUCHED_BIT | UNSYNCED_BIT) << shift;
        let word = self.words[w];
        if word & both != both {
            if word & (TOUCHED_BIT << shift) == 0 {
                self.touched.push(i as u32);
            }
            if word & (UNSYNCED_BIT << shift) == 0 {
                self.unsynced.push(i as u32);
            }
            self.words[w] = word | both;
        }
    }

    /// Drains the extraction set, returning its rows in ascending
    /// order. The sync set is left as it is.
    fn take_sorted(&mut self) -> Vec<u32> {
        let mut t = std::mem::take(&mut self.touched);
        t.sort_unstable();
        for &i in &t {
            let (w, shift) = DirtySet::slot(i as usize);
            self.words[w] &= !(TOUCHED_BIT << shift);
        }
        t
    }

    /// Drains the sync set, visiting its rows in marking order. The
    /// extraction set is left as it is.
    fn drain_unsynced(&mut self, mut visit: impl FnMut(usize)) {
        for &i in &self.unsynced {
            let (w, shift) = DirtySet::slot(i as usize);
            self.words[w] &= !(UNSYNCED_BIT << shift);
            visit(i as usize);
        }
        self.unsynced.clear();
    }
}

/// Shared shape of `top_n`: the rows of the `n` largest nonzero
/// `values`, largest first and lower rows first among ties. It selects
/// on 16-byte `(value, row)` keys, never on copied rows: a selection
/// pass moves the winners to the front (O(len)), and only those are
/// sorted (O(n log n)).
fn top_rows(values: impl Iterator<Item = (usize, u64)>, n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut keys: Vec<(Reverse<u64>, u32)> = values
        .filter(|&(_, v)| v > 0)
        .map(|(i, v)| (Reverse(v), i as u32))
        .collect();
    if n < keys.len() {
        keys.select_nth_unstable(n - 1);
        keys.truncate(n);
    }
    keys.sort_unstable();
    keys.into_iter().map(|(_, i)| i as usize).collect()
}

/// One u64 counter of a [`PcProfile`], named — the "any event" axis of
/// top-N queries over a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ProfileField {
    /// Total samples (retired or aborted).
    Samples,
    /// Retired samples.
    Retired,
    /// Aborted samples.
    Aborted,
    /// I-cache miss samples.
    IcacheMisses,
    /// I-TLB miss samples.
    ItlbMisses,
    /// D-cache miss samples.
    DcacheMisses,
    /// D-TLB miss samples.
    DtlbMisses,
    /// L2 miss samples.
    L2Misses,
    /// Taken-branch samples.
    Taken,
    /// Mispredicted-branch samples.
    Mispredicted,
    /// Σ fetch→retire-ready latency.
    InProgressSum,
    /// Σ load issue→completion latency.
    MemLatencySum,
}

impl ProfileField {
    /// Every queryable field, in declaration order.
    pub const ALL: [ProfileField; 12] = [
        ProfileField::Samples,
        ProfileField::Retired,
        ProfileField::Aborted,
        ProfileField::IcacheMisses,
        ProfileField::ItlbMisses,
        ProfileField::DcacheMisses,
        ProfileField::DtlbMisses,
        ProfileField::L2Misses,
        ProfileField::Taken,
        ProfileField::Mispredicted,
        ProfileField::InProgressSum,
        ProfileField::MemLatencySum,
    ];

    /// The field's stable snake_case name (the CLI's `--by` values).
    pub fn name(&self) -> &'static str {
        match self {
            ProfileField::Samples => "samples",
            ProfileField::Retired => "retired",
            ProfileField::Aborted => "aborted",
            ProfileField::IcacheMisses => "icache_misses",
            ProfileField::ItlbMisses => "itlb_misses",
            ProfileField::DcacheMisses => "dcache_misses",
            ProfileField::DtlbMisses => "dtlb_misses",
            ProfileField::L2Misses => "l2_misses",
            ProfileField::Taken => "taken",
            ProfileField::Mispredicted => "mispredicted",
            ProfileField::InProgressSum => "in_progress_sum",
            ProfileField::MemLatencySum => "mem_latency_sum",
        }
    }

    /// Parses a [`name`](ProfileField::name) back into the field.
    pub fn parse(name: &str) -> Option<ProfileField> {
        ProfileField::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Aggregated single-instruction samples for one static instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcProfile {
    /// Total samples at this PC (retired or aborted).
    pub samples: u64,
    /// Samples that retired.
    pub retired: u64,
    /// Samples that aborted.
    pub aborted: u64,
    /// Samples with an I-cache miss.
    pub icache_misses: u64,
    /// Samples with an I-TLB miss.
    pub itlb_misses: u64,
    /// Samples with a D-cache miss.
    pub dcache_misses: u64,
    /// Samples with a D-TLB miss.
    pub dtlb_misses: u64,
    /// Samples that also missed in the L2.
    pub l2_misses: u64,
    /// Samples where the (conditional branch) instruction was taken.
    pub taken: u64,
    /// Samples where the branch was mispredicted.
    pub mispredicted: u64,
    /// Sum of Table 1 stage latencies over retired samples.
    pub latency_sums: LatencySums,
    /// Retired samples contributing to `latency_sums`.
    pub latency_samples: u64,
    /// Sum of fetch→retire-ready latencies over samples that reached
    /// retire-ready.
    pub in_progress_sum: u64,
    /// Sum of load issue→completion latencies over load samples.
    pub mem_latency_sum: u64,
    /// Load samples contributing to `mem_latency_sum`.
    pub mem_latency_samples: u64,
}

impl PcProfile {
    fn add(&mut self, s: &Sample) {
        let Some(r) = &s.record else { return };
        self.samples += 1;
        if r.retired {
            self.retired += 1;
        } else {
            self.aborted += 1;
        }
        // Event counters aggregate *retired* samples only: aborted
        // (wrong-path) instructions execute with synthesized operands, so
        // mixing their events in would corrupt per-instruction rates.
        // This is exactly why ProfileMe delivers the retirement status in
        // the record instead of discarding unretired samples in hardware
        // (§8's contrast with Westcott & White) — software chooses.
        if r.retired {
            let flags: [(&mut u64, EventSet); 7] = [
                (&mut self.icache_misses, EventSet::ICACHE_MISS),
                (&mut self.itlb_misses, EventSet::ITLB_MISS),
                (&mut self.dcache_misses, EventSet::DCACHE_MISS),
                (&mut self.dtlb_misses, EventSet::DTLB_MISS),
                (&mut self.l2_misses, EventSet::L2_MISS),
                (&mut self.taken, EventSet::BRANCH_TAKEN),
                (&mut self.mispredicted, EventSet::MISPREDICTED),
            ];
            for (counter, bit) in flags {
                if r.events.contains(bit) {
                    *counter += 1;
                }
            }
        }
        if let Some(l) = &r.latencies {
            self.latency_sums.add(l);
            self.latency_samples += 1;
        }
        if let Some(p) = r.timestamps.in_progress_latency() {
            self.in_progress_sum += p;
        }
        if let Some(m) = r.mem_latency {
            self.mem_latency_sum += m;
            self.mem_latency_samples += 1;
        }
    }

    /// Accumulates another profile of the *same* static instruction:
    /// field-wise addition, the per-PC step of database merging.
    ///
    /// Merging is commutative and associative with the default profile
    /// as identity (property-tested in `tests/props.rs`), because every
    /// field is a plain sum over samples.
    pub fn merge(&mut self, other: &PcProfile) {
        self.samples += other.samples;
        self.retired += other.retired;
        self.aborted += other.aborted;
        self.icache_misses += other.icache_misses;
        self.itlb_misses += other.itlb_misses;
        self.dcache_misses += other.dcache_misses;
        self.dtlb_misses += other.dtlb_misses;
        self.l2_misses += other.l2_misses;
        self.taken += other.taken;
        self.mispredicted += other.mispredicted;
        self.latency_sums.merge(&other.latency_sums);
        self.latency_samples += other.latency_samples;
        self.in_progress_sum += other.in_progress_sum;
        self.mem_latency_sum += other.mem_latency_sum;
        self.mem_latency_samples += other.mem_latency_samples;
    }

    /// Reads one named counter.
    pub fn field(&self, field: ProfileField) -> u64 {
        match field {
            ProfileField::Samples => self.samples,
            ProfileField::Retired => self.retired,
            ProfileField::Aborted => self.aborted,
            ProfileField::IcacheMisses => self.icache_misses,
            ProfileField::ItlbMisses => self.itlb_misses,
            ProfileField::DcacheMisses => self.dcache_misses,
            ProfileField::DtlbMisses => self.dtlb_misses,
            ProfileField::L2Misses => self.l2_misses,
            ProfileField::Taken => self.taken,
            ProfileField::Mispredicted => self.mispredicted,
            ProfileField::InProgressSum => self.in_progress_sum,
            ProfileField::MemLatencySum => self.mem_latency_sum,
        }
    }

    /// Field-wise `self - earlier`, or `None` if `earlier` is not an
    /// earlier snapshot of this profile (some field would go negative).
    pub fn checked_sub(&self, earlier: &PcProfile) -> Option<PcProfile> {
        Some(PcProfile {
            samples: self.samples.checked_sub(earlier.samples)?,
            retired: self.retired.checked_sub(earlier.retired)?,
            aborted: self.aborted.checked_sub(earlier.aborted)?,
            icache_misses: self.icache_misses.checked_sub(earlier.icache_misses)?,
            itlb_misses: self.itlb_misses.checked_sub(earlier.itlb_misses)?,
            dcache_misses: self.dcache_misses.checked_sub(earlier.dcache_misses)?,
            dtlb_misses: self.dtlb_misses.checked_sub(earlier.dtlb_misses)?,
            l2_misses: self.l2_misses.checked_sub(earlier.l2_misses)?,
            taken: self.taken.checked_sub(earlier.taken)?,
            mispredicted: self.mispredicted.checked_sub(earlier.mispredicted)?,
            latency_sums: self.latency_sums.checked_sub(&earlier.latency_sums)?,
            latency_samples: self.latency_samples.checked_sub(earlier.latency_samples)?,
            in_progress_sum: self.in_progress_sum.checked_sub(earlier.in_progress_sum)?,
            mem_latency_sum: self.mem_latency_sum.checked_sub(earlier.mem_latency_sum)?,
            mem_latency_samples: self
                .mem_latency_samples
                .checked_sub(earlier.mem_latency_samples)?,
        })
    }

    /// Whether every counter is zero (the encoder's "skip this row").
    fn is_zero(&self) -> bool {
        *self == PcProfile::default()
    }

    /// The row flattened into its wire columns, in layout order.
    fn to_columns(self) -> [u64; PC_COLUMNS] {
        [
            self.samples,
            self.retired,
            self.aborted,
            self.icache_misses,
            self.itlb_misses,
            self.dcache_misses,
            self.dtlb_misses,
            self.l2_misses,
            self.taken,
            self.mispredicted,
            self.latency_sums.fetch_to_map,
            self.latency_sums.map_to_data_ready,
            self.latency_sums.data_ready_to_issue,
            self.latency_sums.issue_to_retire_ready,
            self.latency_sums.retire_ready_to_retire,
            self.latency_sums.load_completion,
            self.latency_samples,
            self.in_progress_sum,
            self.mem_latency_sum,
            self.mem_latency_samples,
        ]
    }

    /// Inverse of [`to_columns`](PcProfile::to_columns).
    fn from_columns(c: &[u64; PC_COLUMNS]) -> PcProfile {
        PcProfile {
            samples: c[0],
            retired: c[1],
            aborted: c[2],
            icache_misses: c[3],
            itlb_misses: c[4],
            dcache_misses: c[5],
            dtlb_misses: c[6],
            l2_misses: c[7],
            taken: c[8],
            mispredicted: c[9],
            latency_sums: LatencySums {
                fetch_to_map: c[10],
                map_to_data_ready: c[11],
                data_ready_to_issue: c[12],
                issue_to_retire_ready: c[13],
                retire_ready_to_retire: c[14],
                load_completion: c[15],
            },
            latency_samples: c[16],
            in_progress_sum: c[17],
            mem_latency_sum: c[18],
            mem_latency_samples: c[19],
        }
    }
}

/// A database of single-instruction samples: one [`PcProfile`] per static
/// instruction, aggregated incrementally so storage stays compact no
/// matter how long the profiled run is.
///
/// # Example
///
/// ```no_run
/// use profileme_core::Session;
/// # fn demo(program: profileme_isa::Program) -> Result<(), Box<dyn std::error::Error>> {
/// let run = Session::builder(program).build()?.profile_single()?;
/// for (pc, prof) in run.db.iter() {
///     println!("{pc}: ~{} retires", run.db.estimated_retires(pc).value());
///     let _ = prof;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProfileDatabase {
    base: Pc,
    per_pc: Vec<PcProfile>,
    /// Mean sampling interval S (fetched instructions per sample).
    interval: u64,
    /// Samples delivered without an instruction (empty selected slots).
    pub invalid_samples: u64,
    /// Total valid samples aggregated.
    pub total_samples: u64,
    /// Rows touched since the last delta extraction and since the
    /// last checkpoint sync. Bookkeeping, not content: excluded from
    /// equality, serialization, and snapshots.
    dirty: DirtySet,
}

/// Content equality only — two databases holding the same aggregates
/// are equal regardless of their dirty-set history.
impl PartialEq for ProfileDatabase {
    fn eq(&self, other: &ProfileDatabase) -> bool {
        self.base == other.base
            && self.per_pc == other.per_pc
            && self.interval == other.interval
            && self.invalid_samples == other.invalid_samples
            && self.total_samples == other.total_samples
    }
}

// Hand-written (rather than derived) so the dirty set stays out of
// the encoding; the field layout matches what the derive produced
// before the dirty set existed, so old dense snapshots still load.
impl Serialize for ProfileDatabase {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("base".to_string(), self.base.to_value()),
            ("per_pc".to_string(), self.per_pc.to_value()),
            ("interval".to_string(), self.interval.to_value()),
            (
                "invalid_samples".to_string(),
                self.invalid_samples.to_value(),
            ),
            ("total_samples".to_string(), self.total_samples.to_value()),
        ])
    }
}

impl Deserialize for ProfileDatabase {
    fn from_value(v: &serde::Value) -> Result<ProfileDatabase, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "ProfileDatabase"))?;
        let mut db = ProfileDatabase {
            base: serde::from_field(obj, "base", "ProfileDatabase")?,
            per_pc: serde::from_field(obj, "per_pc", "ProfileDatabase")?,
            interval: serde::from_field(obj, "interval", "ProfileDatabase")?,
            invalid_samples: serde::from_field(obj, "invalid_samples", "ProfileDatabase")?,
            total_samples: serde::from_field(obj, "total_samples", "ProfileDatabase")?,
            dirty: DirtySet::default(),
        };
        db.mark_all_nonzero();
        Ok(db)
    }
}

impl ProfileDatabase {
    /// Creates an empty database for `program`, recording estimates at
    /// sampling interval `interval`.
    pub fn new(program: &Program, interval: u64) -> ProfileDatabase {
        ProfileDatabase {
            base: program.base(),
            per_pc: vec![PcProfile::default(); program.len()],
            interval,
            invalid_samples: 0,
            total_samples: 0,
            dirty: DirtySet::default(),
        }
    }

    /// The mean sampling interval S.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    fn index_of(&self, pc: Pc) -> Option<usize> {
        let off = pc.distance_from(self.base);
        (0..self.per_pc.len() as i64)
            .contains(&off)
            .then_some(off as usize)
    }

    /// Aggregates one sample.
    pub fn add(&mut self, sample: &Sample) {
        match &sample.record {
            None => self.invalid_samples += 1,
            Some(r) => {
                if let Some(i) = self.index_of(r.pc) {
                    self.per_pc[i].add(sample);
                    self.dirty.mark(i);
                    self.total_samples += 1;
                }
            }
        }
    }

    /// The profile for `pc` (zeroed if out of image).
    pub fn at(&self, pc: Pc) -> PcProfile {
        self.index_of(pc)
            .map(|i| self.per_pc[i])
            .unwrap_or_default()
    }

    /// Iterates `(pc, profile)` for PCs with at least one sample.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &PcProfile)> + '_ {
        self.per_pc
            .iter()
            .enumerate()
            .filter(|(_, p)| p.samples > 0)
            .map(|(i, p)| (self.base.advance(i as u64), p))
    }

    /// Estimated number of retirements of the instruction at `pc`.
    pub fn estimated_retires(&self, pc: Pc) -> Estimate {
        Estimate {
            samples: self.at(pc).retired,
            interval: self.interval,
        }
    }

    /// Estimated number of D-cache misses of the instruction at `pc`.
    pub fn estimated_dcache_misses(&self, pc: Pc) -> Estimate {
        Estimate {
            samples: self.at(pc).dcache_misses,
            interval: self.interval,
        }
    }

    /// Estimated fetch count (retired + aborted samples).
    pub fn estimated_fetches(&self, pc: Pc) -> Estimate {
        Estimate {
            samples: self.at(pc).samples,
            interval: self.interval,
        }
    }

    /// Sample-estimated abort *rate* for `pc` (aborted / samples), or
    /// `None` without samples.
    pub fn abort_rate(&self, pc: Pc) -> Option<f64> {
        let p = self.at(pc);
        (p.samples > 0).then(|| p.aborted as f64 / p.samples as f64)
    }

    fn check_compatible(&self, other: &ProfileDatabase) -> Result<(), ProfileError> {
        if self.base != other.base || self.per_pc.len() != other.per_pc.len() {
            return Err(ProfileError::Mismatch {
                what: "program image",
            });
        }
        if self.interval != other.interval {
            return Err(ProfileError::Mismatch {
                what: "sampling interval",
            });
        }
        Ok(())
    }

    /// Accumulates `other` into `self`: field-wise addition of every
    /// per-PC profile plus the stream totals.
    ///
    /// Because aggregation is a sum over samples, merging databases
    /// built from disjoint parts of one stream reproduces, exactly, the
    /// database a single aggregator would have built from the whole
    /// stream — the invariant behind sharded ingest.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if the databases describe
    /// different program images or sampling intervals.
    pub fn merge(&mut self, other: &ProfileDatabase) -> Result<(), ProfileError> {
        self.check_compatible(other)?;
        for (i, (acc, p)) in self.per_pc.iter_mut().zip(&other.per_pc).enumerate() {
            // Zero rows are identities: skipping them keeps the merge
            // proportional to `other`'s footprint and the dirty set
            // covering exactly the rows that changed.
            if !p.is_zero() {
                acc.merge(p);
                self.dirty.mark(i);
            }
        }
        self.invalid_samples += other.invalid_samples;
        self.total_samples += other.total_samples;
        Ok(())
    }

    /// The interval delta `self - earlier`: what was aggregated between
    /// two snapshots of a continuously profiled run.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if the databases are
    /// incompatible or `earlier` is not actually an earlier snapshot
    /// (some counter would go negative).
    pub fn delta_since(&self, earlier: &ProfileDatabase) -> Result<ProfileDatabase, ProfileError> {
        self.check_compatible(earlier)?;
        let not_earlier = ProfileError::Mismatch {
            what: "snapshot order (counters would go negative)",
        };
        let mut per_pc = Vec::with_capacity(self.per_pc.len());
        for (later, early) in self.per_pc.iter().zip(&earlier.per_pc) {
            per_pc.push(later.checked_sub(early).ok_or(not_earlier.clone())?);
        }
        let mut db = ProfileDatabase {
            base: self.base,
            per_pc,
            interval: self.interval,
            invalid_samples: self
                .invalid_samples
                .checked_sub(earlier.invalid_samples)
                .ok_or(not_earlier.clone())?,
            total_samples: self
                .total_samples
                .checked_sub(earlier.total_samples)
                .ok_or(not_earlier)?,
            dirty: DirtySet::default(),
        };
        db.mark_all_nonzero();
        Ok(db)
    }

    /// The `n` hottest instructions by `field`, descending, PCs
    /// ascending among ties — a deterministic order, so reports and
    /// snapshots diff cleanly.
    ///
    /// Selection runs in O(len + n log n) on `(value, row)` keys, and
    /// only the `n` winning rows are copied out.
    pub fn top_n(&self, n: usize, field: ProfileField) -> Vec<(Pc, PcProfile)> {
        let values = self
            .per_pc
            .iter()
            .enumerate()
            .filter(|(_, p)| p.samples > 0)
            .map(|(i, p)| (i, p.field(field)));
        top_rows(values, n)
            .into_iter()
            .map(|i| (self.base.advance(i as u64), self.per_pc[i]))
            .collect()
    }

    /// The sparse wire header: base PC, rows, interval, then the
    /// stream counters.
    fn header(&self) -> [u64; SNAP_HEADER] {
        [
            self.base.addr(),
            self.per_pc.len() as u64,
            self.interval,
            self.invalid_samples,
            self.total_samples,
        ]
    }

    /// Marks every nonzero row dirty — the safe superset used after
    /// decoding or deriving a database, where the true "touched since
    /// last extraction" history is unknown. Extraction skips zero
    /// diffs, so a superset costs bytes never correctness.
    fn mark_all_nonzero(&mut self) {
        for i in 0..self.per_pc.len() {
            if !self.per_pc[i].is_zero() {
                self.dirty.mark(i);
            }
        }
    }

    /// Serializes the database to its canonical snapshot bytes — the
    /// sparse columnar wire format (varint-coded touched-PC runs plus
    /// per-field columns; see [`wire`](crate::sw::wire)).
    ///
    /// The bytes are a pure function of database *content*: two
    /// databases holding identical aggregates produce identical bytes
    /// regardless of how they were built, which is how the
    /// merge-equivalence tests and the ingest/snapshot benches state
    /// their byte-identity invariant.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if serialization fails.
    pub fn encode(&self, format: WireFormat) -> Result<Vec<u8>, ProfileError> {
        match format {
            WireFormat::Sparse => {
                let mut enc = wire::Encoder::<PC_COLUMNS>::new(self.per_pc.len());
                for (i, p) in self.per_pc.iter().enumerate() {
                    if !p.is_zero() {
                        enc.push(i as u32, &p.to_columns());
                    }
                }
                Ok(enc.finish(SNAP_MAGIC, &self.header()))
            }
            WireFormat::Dense => serde_json::to_string(self)
                .map(String::into_bytes)
                .map_err(|e| ProfileError::Snapshot {
                    reason: e.to_string(),
                }),
        }
    }

    /// Deserializes a database from [`encode`] output of either
    /// [`WireFormat`] — the leading bytes pick the decoder (version
    /// magic vs. a JSON object).
    ///
    /// [`encode`]: ProfileDatabase::encode
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse.
    pub fn decode(bytes: &[u8]) -> Result<ProfileDatabase, ProfileError> {
        if bytes.first() == Some(&b'{') {
            return serde_json::from_slice(bytes).map_err(|e| ProfileError::Snapshot {
                reason: e.to_string(),
            });
        }
        let table = wire::Table::<SNAP_HEADER, PC_COLUMNS>::parse(bytes, SNAP_MAGIC)?;
        let [base, len, interval, invalid_samples, total_samples] = table.header;
        if base % 4 != 0 {
            return Err(wire::malformed("base PC is not 4-byte aligned"));
        }
        if table.end() > len {
            return Err(wire::malformed("row index beyond table length"));
        }
        let mut db = ProfileDatabase {
            base: Pc::new(base),
            per_pc: wire::alloc_rows(len)?,
            interval,
            invalid_samples,
            total_samples,
            dirty: DirtySet::default(),
        };
        table.for_each_row(|i, fields| {
            db.per_pc[i] = PcProfile::from_columns(&fields);
            db.dirty.mark(i);
        });
        Ok(db)
    }

    /// Extracts everything aggregated since `base` as sparse delta
    /// bytes, advancing `base` to match `self` — the O(touched)
    /// epoch-publication step of the sharded snapshot plane.
    ///
    /// Only rows marked dirty since the last extraction are visited,
    /// so the cost is proportional to what changed, not to the image.
    /// [`apply_delta`](ProfileDatabase::apply_delta) is the exact
    /// inverse: applying the returned bytes to a copy of the old
    /// `base` reproduces `self`'s content.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if `base` is incompatible or
    /// is not an earlier state of `self` (a counter would go negative).
    pub fn extract_delta(&mut self, base: &mut ProfileDatabase) -> Result<Vec<u8>, ProfileError> {
        self.check_compatible(base)?;
        let not_earlier = ProfileError::Mismatch {
            what: "delta base (counters would go negative)",
        };
        let touched = self.dirty.take_sorted();
        let mut enc = wire::Encoder::<PC_COLUMNS>::new(touched.len());
        for i in touched {
            let idx = i as usize;
            let diff = self.per_pc[idx]
                .checked_sub(&base.per_pc[idx])
                .ok_or(not_earlier.clone())?;
            if !diff.is_zero() {
                enc.push(i, &diff.to_columns());
                base.per_pc[idx] = self.per_pc[idx];
                base.dirty.mark(idx);
            }
        }
        let header = [
            self.base.addr(),
            self.per_pc.len() as u64,
            self.interval,
            self.invalid_samples
                .checked_sub(base.invalid_samples)
                .ok_or(not_earlier.clone())?,
            self.total_samples
                .checked_sub(base.total_samples)
                .ok_or(not_earlier)?,
        ];
        base.invalid_samples = self.invalid_samples;
        base.total_samples = self.total_samples;
        Ok(enc.finish(DELTA_MAGIC, &header))
    }

    /// Brings `checkpoint` (a past state of `self`) up to date by
    /// copying only the rows touched since the previous sync, plus the
    /// stream counters — O(touched), never O(image).
    ///
    /// Each copied row is also marked dirty in `checkpoint`, so a
    /// clone of the checkpoint re-extracts every row it holds: a crash
    /// rebuild (`checkpoint.clone()` plus a replay of what was added
    /// since) then publishes everything that may differ from the last
    /// extraction's base. The sync set is independent of
    /// [`extract_delta`](ProfileDatabase::extract_delta)'s: neither
    /// drains the other.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if `checkpoint` describes a
    /// different program image or sampling interval.
    pub fn sync_checkpoint(
        &mut self,
        checkpoint: &mut ProfileDatabase,
    ) -> Result<(), ProfileError> {
        self.check_compatible(checkpoint)?;
        let per_pc = &self.per_pc;
        self.dirty.drain_unsynced(|i| {
            checkpoint.per_pc[i] = per_pc[i];
            checkpoint.dirty.mark(i);
        });
        checkpoint.invalid_samples = self.invalid_samples;
        checkpoint.total_samples = self.total_samples;
        Ok(())
    }

    /// Applies delta bytes produced by
    /// [`extract_delta`](ProfileDatabase::extract_delta): field-wise
    /// addition of every carried row plus the stream counters, in
    /// O(touched). The bytes are checked whole before any row is
    /// added, so a refused delta leaves the database as it was.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse,
    /// or [`ProfileError::Mismatch`] if the delta describes a
    /// different program image or interval.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), ProfileError> {
        let table = wire::Table::<SNAP_HEADER, PC_COLUMNS>::parse(bytes, DELTA_MAGIC)?;
        let [base, len, interval, invalid_samples, total_samples] = table.header;
        if base != self.base.addr() || len != self.per_pc.len() as u64 {
            return Err(ProfileError::Mismatch {
                what: "program image",
            });
        }
        if interval != self.interval {
            return Err(ProfileError::Mismatch {
                what: "sampling interval",
            });
        }
        if table.end() > len {
            return Err(wire::malformed("row index beyond table length"));
        }
        table.for_each_row(|i, fields| {
            self.per_pc[i].merge(&PcProfile::from_columns(&fields));
            self.dirty.mark(i);
        });
        self.invalid_samples += invalid_samples;
        self.total_samples += total_samples;
        Ok(())
    }
}

/// One u64 counter of a [`PcPairProfile`], named — the paired-database
/// axis of top-N queries, mirroring [`ProfileField`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PairProfileField {
    /// Samples of I (both positions of every pair).
    Samples,
    /// U_I^F: pairs ⟨I, J⟩ where J usefully overlaps I.
    UsefulForward,
    /// U_I^B: pairs ⟨J, I⟩ where J usefully overlaps I.
    UsefulBackward,
    /// L_I: Σ fetch→retire-ready latency over samples of I.
    LatencySum,
}

impl PairProfileField {
    /// Every queryable field, in declaration order.
    pub const ALL: [PairProfileField; 4] = [
        PairProfileField::Samples,
        PairProfileField::UsefulForward,
        PairProfileField::UsefulBackward,
        PairProfileField::LatencySum,
    ];

    /// The field's stable snake_case name.
    pub fn name(&self) -> &'static str {
        match self {
            PairProfileField::Samples => "samples",
            PairProfileField::UsefulForward => "useful_forward",
            PairProfileField::UsefulBackward => "useful_backward",
            PairProfileField::LatencySum => "latency_sum",
        }
    }

    /// Parses a [`name`](PairProfileField::name) back into the field.
    pub fn parse(name: &str) -> Option<PairProfileField> {
        PairProfileField::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Aggregated paired-sample state for one static instruction I: exactly
/// the compact sums §5.2.3 prescribes (U_I^F, U_I^B, L_I).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcPairProfile {
    /// Samples of I (counting both positions in every pair).
    pub samples: u64,
    /// U_I^F: pairs ⟨I, J⟩ where J usefully overlaps I.
    pub useful_forward: u64,
    /// U_I^B: pairs ⟨J, I⟩ where J usefully overlaps I.
    pub useful_backward: u64,
    /// L_I: sum of fetch→retire-ready latencies over all samples of I.
    pub latency_sum: u64,
}

impl PcPairProfile {
    /// Accumulates another aggregate of the same static instruction —
    /// field-wise addition, exactly as [`PcProfile::merge`].
    pub fn merge(&mut self, other: &PcPairProfile) {
        self.samples += other.samples;
        self.useful_forward += other.useful_forward;
        self.useful_backward += other.useful_backward;
        self.latency_sum += other.latency_sum;
    }

    /// Field-wise `self - earlier`, or `None` if some field would go
    /// negative.
    pub fn checked_sub(&self, earlier: &PcPairProfile) -> Option<PcPairProfile> {
        Some(PcPairProfile {
            samples: self.samples.checked_sub(earlier.samples)?,
            useful_forward: self.useful_forward.checked_sub(earlier.useful_forward)?,
            useful_backward: self.useful_backward.checked_sub(earlier.useful_backward)?,
            latency_sum: self.latency_sum.checked_sub(earlier.latency_sum)?,
        })
    }

    /// Reads one named counter.
    pub fn field(&self, field: PairProfileField) -> u64 {
        match field {
            PairProfileField::Samples => self.samples,
            PairProfileField::UsefulForward => self.useful_forward,
            PairProfileField::UsefulBackward => self.useful_backward,
            PairProfileField::LatencySum => self.latency_sum,
        }
    }

    /// Whether every counter is zero (the encoder's "skip this row").
    fn is_zero(&self) -> bool {
        *self == PcPairProfile::default()
    }

    /// The row flattened into its wire columns, in layout order.
    fn to_columns(self) -> [u64; PAIR_COLUMNS] {
        [
            self.samples,
            self.useful_forward,
            self.useful_backward,
            self.latency_sum,
        ]
    }

    /// Inverse of [`to_columns`](PcPairProfile::to_columns).
    fn from_columns(c: &[u64; PAIR_COLUMNS]) -> PcPairProfile {
        PcPairProfile {
            samples: c[0],
            useful_forward: c[1],
            useful_backward: c[2],
            latency_sum: c[3],
        }
    }
}

/// A database of paired samples with incremental aggregation.
#[derive(Debug, Clone)]
pub struct PairProfileDatabase {
    base: Pc,
    per_pc: Vec<PcPairProfile>,
    /// Mean major interval S (fetched instructions per pair).
    interval: u64,
    /// Window W from which the minor interval is drawn.
    window: u64,
    /// Pairs aggregated (complete pairs only).
    pub total_pairs: u64,
    /// Pairs discarded because a half was an empty selection.
    pub incomplete_pairs: u64,
    /// Rows touched since the last delta extraction and since the
    /// last checkpoint sync (bookkeeping, not content — see
    /// [`ProfileDatabase`]).
    dirty: DirtySet,
}

/// Content equality only, as for [`ProfileDatabase`].
impl PartialEq for PairProfileDatabase {
    fn eq(&self, other: &PairProfileDatabase) -> bool {
        self.base == other.base
            && self.per_pc == other.per_pc
            && self.interval == other.interval
            && self.window == other.window
            && self.total_pairs == other.total_pairs
            && self.incomplete_pairs == other.incomplete_pairs
    }
}

// Hand-written for the same reason as `ProfileDatabase`: the dirty
// set stays out of the encoding, the layout matches the old derive.
impl Serialize for PairProfileDatabase {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("base".to_string(), self.base.to_value()),
            ("per_pc".to_string(), self.per_pc.to_value()),
            ("interval".to_string(), self.interval.to_value()),
            ("window".to_string(), self.window.to_value()),
            ("total_pairs".to_string(), self.total_pairs.to_value()),
            (
                "incomplete_pairs".to_string(),
                self.incomplete_pairs.to_value(),
            ),
        ])
    }
}

impl Deserialize for PairProfileDatabase {
    fn from_value(v: &serde::Value) -> Result<PairProfileDatabase, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "PairProfileDatabase"))?;
        let mut db = PairProfileDatabase {
            base: serde::from_field(obj, "base", "PairProfileDatabase")?,
            per_pc: serde::from_field(obj, "per_pc", "PairProfileDatabase")?,
            interval: serde::from_field(obj, "interval", "PairProfileDatabase")?,
            window: serde::from_field(obj, "window", "PairProfileDatabase")?,
            total_pairs: serde::from_field(obj, "total_pairs", "PairProfileDatabase")?,
            incomplete_pairs: serde::from_field(obj, "incomplete_pairs", "PairProfileDatabase")?,
            dirty: DirtySet::default(),
        };
        db.mark_all_nonzero();
        Ok(db)
    }
}

impl PairProfileDatabase {
    /// Creates an empty paired database.
    pub fn new(program: &Program, interval: u64, window: u64) -> PairProfileDatabase {
        PairProfileDatabase {
            base: program.base(),
            per_pc: vec![PcPairProfile::default(); program.len()],
            interval,
            window,
            total_pairs: 0,
            incomplete_pairs: 0,
            dirty: DirtySet::default(),
        }
    }

    /// The mean major interval S.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The window W.
    pub fn window(&self) -> u64 {
        self.window
    }

    fn index_of(&self, pc: Pc) -> Option<usize> {
        let off = pc.distance_from(self.base);
        (0..self.per_pc.len() as i64)
            .contains(&off)
            .then_some(off as usize)
    }

    /// Aggregates one paired sample using the default *useful overlap*
    /// definition (§5.2.3).
    pub fn add(&mut self, pair: &PairedSample) {
        self.add_with(pair, OverlapKind::UsefulIssue)
    }

    /// Aggregates one paired sample under a chosen overlap definition.
    pub fn add_with(&mut self, pair: &PairedSample, overlap: OverlapKind) {
        let (Some(first), Some(second)) = (&pair.first.record, &pair.second.record) else {
            self.incomplete_pairs += 1;
            return;
        };
        self.total_pairs += 1;
        // Each pair is considered twice (§5.2.2): once per member.
        if let Some(i) = self.index_of(first.pc) {
            let p = &mut self.per_pc[i];
            p.samples += 1;
            if let Some(l) = first.timestamps.in_progress_latency() {
                p.latency_sum += l;
            }
            if useful_overlap(overlap, first, second) {
                p.useful_forward += 1;
            }
            self.dirty.mark(i);
        }
        if let Some(i) = self.index_of(second.pc) {
            let p = &mut self.per_pc[i];
            p.samples += 1;
            if let Some(l) = second.timestamps.in_progress_latency() {
                p.latency_sum += l;
            }
            if useful_overlap(overlap, second, first) {
                p.useful_backward += 1;
            }
            self.dirty.mark(i);
        }
    }

    /// The aggregated state for `pc`.
    pub fn at(&self, pc: Pc) -> PcPairProfile {
        self.index_of(pc)
            .map(|i| self.per_pc[i])
            .unwrap_or_default()
    }

    /// Iterates `(pc, profile)` for PCs with at least one sample.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &PcPairProfile)> + '_ {
        self.per_pc
            .iter()
            .enumerate()
            .filter(|(_, p)| p.samples > 0)
            .map(|(i, p)| (self.base.advance(i as u64), p))
    }

    fn check_compatible(&self, other: &PairProfileDatabase) -> Result<(), ProfileError> {
        if self.base != other.base || self.per_pc.len() != other.per_pc.len() {
            return Err(ProfileError::Mismatch {
                what: "program image",
            });
        }
        if self.interval != other.interval || self.window != other.window {
            return Err(ProfileError::Mismatch {
                what: "sampling interval/window",
            });
        }
        Ok(())
    }

    /// Accumulates `other` into `self`, exactly as
    /// [`ProfileDatabase::merge`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if the databases describe
    /// different programs, intervals, or windows.
    pub fn merge(&mut self, other: &PairProfileDatabase) -> Result<(), ProfileError> {
        self.check_compatible(other)?;
        for (i, (acc, p)) in self.per_pc.iter_mut().zip(&other.per_pc).enumerate() {
            if !p.is_zero() {
                acc.merge(p);
                self.dirty.mark(i);
            }
        }
        self.total_pairs += other.total_pairs;
        self.incomplete_pairs += other.incomplete_pairs;
        Ok(())
    }

    /// The interval delta `self - earlier`, as
    /// [`ProfileDatabase::delta_since`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if the databases are
    /// incompatible or some counter would go negative.
    pub fn delta_since(
        &self,
        earlier: &PairProfileDatabase,
    ) -> Result<PairProfileDatabase, ProfileError> {
        self.check_compatible(earlier)?;
        let not_earlier = ProfileError::Mismatch {
            what: "snapshot order (counters would go negative)",
        };
        let mut per_pc = Vec::with_capacity(self.per_pc.len());
        for (later, early) in self.per_pc.iter().zip(&earlier.per_pc) {
            per_pc.push(later.checked_sub(early).ok_or(not_earlier.clone())?);
        }
        let mut db = PairProfileDatabase {
            base: self.base,
            per_pc,
            interval: self.interval,
            window: self.window,
            total_pairs: self
                .total_pairs
                .checked_sub(earlier.total_pairs)
                .ok_or(not_earlier.clone())?,
            incomplete_pairs: self
                .incomplete_pairs
                .checked_sub(earlier.incomplete_pairs)
                .ok_or(not_earlier)?,
            dirty: DirtySet::default(),
        };
        db.mark_all_nonzero();
        Ok(db)
    }

    /// The `n` hottest instructions by `field`, descending, PCs
    /// ascending among ties — the paired-database mirror of
    /// [`ProfileDatabase::top_n`], with the same O(len + n log n)
    /// selection.
    pub fn top_n(&self, n: usize, field: PairProfileField) -> Vec<(Pc, PcPairProfile)> {
        let values = self
            .per_pc
            .iter()
            .enumerate()
            .filter(|(_, p)| p.samples > 0)
            .map(|(i, p)| (i, p.field(field)));
        top_rows(values, n)
            .into_iter()
            .map(|i| (self.base.advance(i as u64), self.per_pc[i]))
            .collect()
    }

    /// The sparse wire header.
    fn header(&self) -> [u64; PAIR_HEADER] {
        [
            self.base.addr(),
            self.per_pc.len() as u64,
            self.interval,
            self.window,
            self.total_pairs,
            self.incomplete_pairs,
        ]
    }

    /// Marks every nonzero row dirty, as
    /// [`ProfileDatabase::mark_all_nonzero`].
    fn mark_all_nonzero(&mut self) {
        for i in 0..self.per_pc.len() {
            if !self.per_pc[i].is_zero() {
                self.dirty.mark(i);
            }
        }
    }

    /// Serializes the database per `format`, as
    /// [`ProfileDatabase::encode`] (the sparse format carries the
    /// `PMP1` magic).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if serialization fails.
    pub fn encode(&self, format: WireFormat) -> Result<Vec<u8>, ProfileError> {
        match format {
            WireFormat::Sparse => {
                let mut enc = wire::Encoder::<PAIR_COLUMNS>::new(self.per_pc.len());
                for (i, p) in self.per_pc.iter().enumerate() {
                    if !p.is_zero() {
                        enc.push(i as u32, &p.to_columns());
                    }
                }
                Ok(enc.finish(PAIR_SNAP_MAGIC, &self.header()))
            }
            WireFormat::Dense => serde_json::to_string(self)
                .map(String::into_bytes)
                .map_err(|e| ProfileError::Snapshot {
                    reason: e.to_string(),
                }),
        }
    }

    /// Deserializes a database from [`encode`] output of either
    /// [`WireFormat`].
    ///
    /// [`encode`]: PairProfileDatabase::encode
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse.
    pub fn decode(bytes: &[u8]) -> Result<PairProfileDatabase, ProfileError> {
        if bytes.first() == Some(&b'{') {
            return serde_json::from_slice(bytes).map_err(|e| ProfileError::Snapshot {
                reason: e.to_string(),
            });
        }
        let table = wire::Table::<PAIR_HEADER, PAIR_COLUMNS>::parse(bytes, PAIR_SNAP_MAGIC)?;
        let [base, len, interval, window, total_pairs, incomplete_pairs] = table.header;
        if base % 4 != 0 {
            return Err(wire::malformed("base PC is not 4-byte aligned"));
        }
        if table.end() > len {
            return Err(wire::malformed("row index beyond table length"));
        }
        let mut db = PairProfileDatabase {
            base: Pc::new(base),
            per_pc: wire::alloc_rows(len)?,
            interval,
            window,
            total_pairs,
            incomplete_pairs,
            dirty: DirtySet::default(),
        };
        table.for_each_row(|i, fields| {
            db.per_pc[i] = PcPairProfile::from_columns(&fields);
            db.dirty.mark(i);
        });
        Ok(db)
    }

    /// Extracts everything aggregated since `base` as sparse delta
    /// bytes, advancing `base` — as [`ProfileDatabase::extract_delta`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if `base` is incompatible or
    /// not an earlier state of `self`.
    pub fn extract_delta(
        &mut self,
        base: &mut PairProfileDatabase,
    ) -> Result<Vec<u8>, ProfileError> {
        self.check_compatible(base)?;
        let not_earlier = ProfileError::Mismatch {
            what: "delta base (counters would go negative)",
        };
        let touched = self.dirty.take_sorted();
        let mut enc = wire::Encoder::<PAIR_COLUMNS>::new(touched.len());
        for i in touched {
            let idx = i as usize;
            let diff = self.per_pc[idx]
                .checked_sub(&base.per_pc[idx])
                .ok_or(not_earlier.clone())?;
            if !diff.is_zero() {
                enc.push(i, &diff.to_columns());
                base.per_pc[idx] = self.per_pc[idx];
                base.dirty.mark(idx);
            }
        }
        let header = [
            self.base.addr(),
            self.per_pc.len() as u64,
            self.interval,
            self.window,
            self.total_pairs
                .checked_sub(base.total_pairs)
                .ok_or(not_earlier.clone())?,
            self.incomplete_pairs
                .checked_sub(base.incomplete_pairs)
                .ok_or(not_earlier)?,
        ];
        base.total_pairs = self.total_pairs;
        base.incomplete_pairs = self.incomplete_pairs;
        Ok(enc.finish(PAIR_DELTA_MAGIC, &header))
    }

    /// Brings `checkpoint` up to date in O(touched), as
    /// [`ProfileDatabase::sync_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] on image/interval/window
    /// mismatch.
    pub fn sync_checkpoint(
        &mut self,
        checkpoint: &mut PairProfileDatabase,
    ) -> Result<(), ProfileError> {
        self.check_compatible(checkpoint)?;
        let per_pc = &self.per_pc;
        self.dirty.drain_unsynced(|i| {
            checkpoint.per_pc[i] = per_pc[i];
            checkpoint.dirty.mark(i);
        });
        checkpoint.total_pairs = self.total_pairs;
        checkpoint.incomplete_pairs = self.incomplete_pairs;
        Ok(())
    }

    /// Applies delta bytes produced by
    /// [`extract_delta`](PairProfileDatabase::extract_delta), as
    /// [`ProfileDatabase::apply_delta`]: all or nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse,
    /// or [`ProfileError::Mismatch`] on image/interval/window mismatch.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), ProfileError> {
        let table = wire::Table::<PAIR_HEADER, PAIR_COLUMNS>::parse(bytes, PAIR_DELTA_MAGIC)?;
        let [base, len, interval, window, total_pairs, incomplete_pairs] = table.header;
        if base != self.base.addr() || len != self.per_pc.len() as u64 {
            return Err(ProfileError::Mismatch {
                what: "program image",
            });
        }
        if interval != self.interval || window != self.window {
            return Err(ProfileError::Mismatch {
                what: "sampling interval/window",
            });
        }
        if table.end() > len {
            return Err(wire::malformed("row index beyond table length"));
        }
        table.for_each_row(|i, fields| {
            self.per_pc[i].merge(&PcPairProfile::from_columns(&fields));
            self.dirty.mark(i);
        });
        self.total_pairs += total_pairs;
        self.incomplete_pairs += incomplete_pairs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profileme_cfg::BranchHistory;
    use profileme_isa::ProgramBuilder;
    use profileme_uarch::{CompletedSample, TagId, Timestamps};

    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        b.function("f");
        b.nop();
        b.nop();
        b.halt();
        b.build().unwrap()
    }

    fn record(pc: Pc, retired: bool, events: EventSet) -> CompletedSample {
        CompletedSample {
            tag: TagId(0),
            seq: 0,
            pc,
            context: 1,
            class: profileme_isa::OpClass::Nop,
            events,
            retired,
            eff_addr: None,
            taken: None,
            history: BranchHistory::new(),
            timestamps: Timestamps {
                fetched: 10,
                retire_ready: Some(25),
                ..Timestamps::default()
            },
            latencies: None,
            mem_latency: None,
        }
    }

    #[test]
    fn aggregation_and_estimates() {
        let p = program();
        let mut db = ProfileDatabase::new(&p, 100);
        let pc = p.entry();
        let mut miss = EventSet::new();
        miss.set(EventSet::DCACHE_MISS);
        for _ in 0..3 {
            db.add(&Sample {
                record: Some(record(pc, true, miss)),
                selected_cycle: 0,
            });
        }
        db.add(&Sample {
            record: Some(record(pc, false, EventSet::new())),
            selected_cycle: 0,
        });
        db.add(&Sample {
            record: None,
            selected_cycle: 0,
        });
        let prof = db.at(pc);
        assert_eq!(prof.samples, 4);
        assert_eq!(prof.retired, 3);
        assert_eq!(prof.aborted, 1);
        assert_eq!(prof.dcache_misses, 3);
        assert_eq!(prof.in_progress_sum, 4 * 15);
        assert_eq!(db.invalid_samples, 1);
        assert_eq!(db.estimated_retires(pc).value(), 300.0);
        assert_eq!(db.estimated_dcache_misses(pc).value(), 300.0);
        assert_eq!(db.abort_rate(pc), Some(0.25));
        assert_eq!(db.iter().count(), 1);
    }

    #[test]
    fn out_of_image_samples_are_ignored() {
        let p = program();
        let mut db = ProfileDatabase::new(&p, 10);
        db.add(&Sample {
            record: Some(record(Pc::new(0x4), true, EventSet::new())),
            selected_cycle: 0,
        });
        assert_eq!(db.total_samples, 0);
    }

    #[test]
    fn paired_aggregation_counts_both_positions() {
        let p = program();
        let mut db = PairProfileDatabase::new(&p, 1000, 8);
        let a = p.entry();
        let b = p.entry().advance(1);
        // J (second) issues inside I's window and retires: useful forward
        // overlap for I, and I does not overlap J's window usefully
        // (I has no issue timestamp here).
        let mut i_rec = record(a, true, EventSet::new());
        i_rec.timestamps = Timestamps {
            fetched: 0,
            retire_ready: Some(30),
            ..Timestamps::default()
        };
        let mut j_rec = record(b, true, EventSet::new());
        j_rec.timestamps = Timestamps {
            fetched: 5,
            issued: Some(10),
            retire_ready: Some(12),
            ..Timestamps::default()
        };
        let pair = PairedSample {
            first: Sample {
                record: Some(i_rec),
                selected_cycle: 0,
            },
            second: Sample {
                record: Some(j_rec),
                selected_cycle: 5,
            },
            distance_instructions: 5,
            distance_cycles: 5,
        };
        db.add(&pair);
        assert_eq!(db.total_pairs, 1);
        let pa = db.at(a);
        assert_eq!(pa.samples, 1);
        assert_eq!(pa.useful_forward, 1);
        assert_eq!(pa.latency_sum, 30);
        let pb = db.at(b);
        assert_eq!(pb.samples, 1);
        assert_eq!(
            pb.useful_backward, 0,
            "I never issued, so it cannot usefully overlap J"
        );
        assert_eq!(pb.latency_sum, 7);
    }

    #[test]
    fn absurd_row_counts_fail_the_decode_instead_of_aborting() {
        // Sized unchecked, a 2^40-row table asks the allocator for
        // ~176 TB, and a refused allocation aborts the process.
        for len in [1u64 << 32, 1 << 40] {
            let single =
                wire::Encoder::<PC_COLUMNS>::new(0).finish(SNAP_MAGIC, &[0, len, 100, 0, 0]);
            assert!(matches!(
                ProfileDatabase::decode(&single),
                Err(ProfileError::Snapshot { .. })
            ));
            let pair = wire::Encoder::<PAIR_COLUMNS>::new(0)
                .finish(PAIR_SNAP_MAGIC, &[0, len, 100, 8, 0, 0]);
            assert!(matches!(
                PairProfileDatabase::decode(&pair),
                Err(ProfileError::Snapshot { .. })
            ));
        }
    }

    /// A real profile cut in two: the database after the first half
    /// of a short `ijpeg` run, the delta carrying the second half, and
    /// the full database's image.
    fn real_delta_and_image() -> (ProfileDatabase, Vec<u8>, Vec<u8>) {
        let w = profileme_workloads::ijpeg(60);
        let run = crate::Session::builder(w.program.clone())
            .memory(w.memory)
            .sampling(crate::ProfileMeConfig {
                mean_interval: 16,
                ..Default::default()
            })
            .build()
            .unwrap()
            .profile_single()
            .unwrap();
        let (first, second) = run.samples.split_at(run.samples.len() / 2);
        let mut acc = ProfileDatabase::new(&w.program, 16);
        let mut base = acc.clone();
        first.iter().for_each(|s| acc.add(s));
        acc.extract_delta(&mut base).unwrap();
        let before = base.clone();
        second.iter().for_each(|s| acc.add(s));
        let delta = acc.extract_delta(&mut base).unwrap();
        assert!(delta.len() > 200, "delta too small to damage usefully");
        (before, delta, acc.encode(WireFormat::Sparse).unwrap())
    }

    /// What the replaced decoder made of an image: the table, checked
    /// row by row against its length.
    fn reference_image(bytes: &[u8]) -> Option<ProfileDatabase> {
        let d = wire::reference::decode::<PC_COLUMNS>(bytes, SNAP_MAGIC, SNAP_HEADER).ok()?;
        let [base, len, interval, invalid_samples, total_samples] = d.header[..] else {
            unreachable!("the reference returns SNAP_HEADER words");
        };
        (base % 4 == 0).then_some(())?;
        let mut db = ProfileDatabase {
            base: Pc::new(base),
            per_pc: wire::alloc_rows(len).ok()?,
            interval,
            invalid_samples,
            total_samples,
            dirty: DirtySet::default(),
        };
        for (i, fields) in d.rows {
            *db.per_pc.get_mut(i as usize)? = PcProfile::from_columns(&fields);
        }
        Some(db)
    }

    /// What the replaced decoder made of a delta applied to `db`.
    fn reference_apply(db: &ProfileDatabase, bytes: &[u8]) -> Option<ProfileDatabase> {
        let d = wire::reference::decode::<PC_COLUMNS>(bytes, DELTA_MAGIC, SNAP_HEADER).ok()?;
        let [base, len, interval, invalid_samples, total_samples] = d.header[..] else {
            unreachable!("the reference returns SNAP_HEADER words");
        };
        let header_matches =
            base == db.base.addr() && len == db.per_pc.len() as u64 && interval == db.interval;
        header_matches.then_some(())?;
        let mut out = db.clone();
        for (i, fields) in d.rows {
            out.per_pc
                .get_mut(i as usize)?
                .merge(&PcProfile::from_columns(&fields));
        }
        out.invalid_samples += invalid_samples;
        out.total_samples += total_samples;
        Some(out)
    }

    #[test]
    fn damaged_deltas_and_images_are_refused_whole_or_read_as_the_reference_reads_them() {
        let (before, delta, image) = real_delta_and_image();
        let before_bytes = before.encode(WireFormat::Sparse).unwrap();
        let mut damaged: Vec<(Vec<u8>, bool)> = Vec::new();
        for (bytes, is_delta) in [(&delta, true), (&image, false)] {
            for at in 0..bytes.len() {
                damaged.push((bytes[..at].to_vec(), is_delta));
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    damaged.push((flipped, is_delta));
                }
            }
        }
        let mut accepted = 0;
        for (bytes, is_delta) in damaged {
            if is_delta {
                let mut db = before.clone();
                match db.apply_delta(&bytes) {
                    Ok(()) => {
                        accepted += 1;
                        assert_eq!(Some(db), reference_apply(&before, &bytes));
                    }
                    Err(_) => {
                        assert_eq!(reference_apply(&before, &bytes), None);
                        assert_eq!(db.encode(WireFormat::Sparse).unwrap(), before_bytes);
                    }
                }
            } else {
                let decoded = ProfileDatabase::decode(&bytes).ok();
                accepted += usize::from(decoded.is_some());
                assert_eq!(decoded, reference_image(&bytes));
            }
        }
        assert!(
            accepted > 0,
            "no damaged input decoded; the check is vacuous"
        );
    }

    #[test]
    fn a_delta_whose_last_run_passes_the_table_end_changes_nothing() {
        let p = program();
        let mut db = ProfileDatabase::new(&p, 100);
        let pc = p.entry();
        db.add(&Sample {
            record: Some(record(pc, true, EventSet::new())),
            selected_cycle: 0,
        });
        let before = db.encode(WireFormat::Sparse).unwrap();
        // Rows 0 and 1 are in the table; row `len` is one past its end.
        let len = p.len() as u32;
        let mut enc = wire::Encoder::<PC_COLUMNS>::new(3);
        for row in [0, 1, len] {
            enc.push(row, &[1; PC_COLUMNS]);
        }
        let delta = enc.finish(DELTA_MAGIC, &[pc.addr(), u64::from(len), 100, 0, 3]);
        assert!(db.apply_delta(&delta).is_err());
        assert_eq!(db.encode(WireFormat::Sparse).unwrap(), before);
        assert_eq!(db.total_samples, 1);

        let mut pairs = PairProfileDatabase::new(&p, 100, 8);
        let mut enc = wire::Encoder::<PAIR_COLUMNS>::new(3);
        for row in [0, 1, len] {
            enc.push(row, &[1; PAIR_COLUMNS]);
        }
        let delta = enc.finish(PAIR_DELTA_MAGIC, &[pc.addr(), u64::from(len), 100, 8, 3, 0]);
        assert!(pairs.apply_delta(&delta).is_err());
        assert_eq!(pairs, PairProfileDatabase::new(&p, 100, 8));
    }

    /// A database over `rows` instructions whose every row is set by
    /// hand: small values, so that zeros and ties are common.
    fn arbitrary_dbs(rows: &[[u64; 3]]) -> (ProfileDatabase, PairProfileDatabase) {
        let mut b = ProgramBuilder::new();
        b.function("f");
        b.nops(rows.len());
        b.halt();
        let p = b.build().unwrap();
        let mut single = ProfileDatabase::new(&p, 10);
        let mut pair = PairProfileDatabase::new(&p, 10, 8);
        for (i, &[a, b, c]) in rows.iter().enumerate() {
            single.per_pc[i] = PcProfile::from_columns(&std::array::from_fn(|f| {
                [a, b, c][f % 3] * (f as u64 % 2)
            }));
            single.per_pc[i].samples = a;
            pair.per_pc[i] = PcPairProfile::from_columns(&[a, b, c, b ^ c]);
        }
        (single, pair)
    }

    /// The independent reference: every row with samples and a nonzero
    /// `value`, fully sorted by value descending, then PC ascending.
    fn sorted_reference<P: Copy>(
        rows: impl Iterator<Item = (Pc, P)>,
        n: usize,
        value: impl Fn(&P) -> u64,
    ) -> Vec<(Pc, P)> {
        let mut all: Vec<(Pc, P)> = rows.filter(|(_, p)| value(p) > 0).collect();
        all.sort_by(|a, b| {
            value(&b.1)
                .cmp(&value(&a.1))
                .then(a.0.addr().cmp(&b.0.addr()))
        });
        all.truncate(n);
        all
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `top_n` agrees with a full sort of `iter()` for every field,
        /// under heavy ties, at n = 0, 1, 10 and everything.
        #[test]
        fn top_n_matches_a_full_sort(
            rows in proptest::collection::vec(
                (0u64..4, 0u64..3, 0u64..3),
                1usize..60,
            ),
        ) {
            let rows: Vec<[u64; 3]> = rows.into_iter().map(|(a, b, c)| [a, b, c]).collect();
            let (single, pair) = arbitrary_dbs(&rows);
            for n in [0, 1, 10, usize::MAX] {
                for field in ProfileField::ALL {
                    let want = sorted_reference(
                        single.iter().map(|(pc, p)| (pc, *p)),
                        n,
                        |p| p.field(field),
                    );
                    proptest::prop_assert_eq!(single.top_n(n, field), want);
                }
                for field in PairProfileField::ALL {
                    let want = sorted_reference(
                        pair.iter().map(|(pc, p)| (pc, *p)),
                        n,
                        |p| p.field(field),
                    );
                    proptest::prop_assert_eq!(pair.top_n(n, field), want);
                }
            }
        }
    }

    #[test]
    fn incomplete_pairs_are_counted_not_aggregated() {
        let p = program();
        let mut db = PairProfileDatabase::new(&p, 1000, 8);
        let pair = PairedSample {
            first: Sample {
                record: None,
                selected_cycle: 0,
            },
            second: Sample {
                record: None,
                selected_cycle: 0,
            },
            distance_instructions: 1,
            distance_cycles: 0,
        };
        db.add(&pair);
        assert_eq!(db.total_pairs, 0);
        assert_eq!(db.incomplete_pairs, 1);
    }
}
