//! Property tests of the sparse snapshot plane: the delta algebra
//! (`extract_delta`/`apply_delta`) over random add/merge
//! interleavings, the checkpoint algebra (`sync_checkpoint` plus a
//! crash rebuild) interleaved with it, and dense/sparse decoder
//! agreement on every snapshot.

use profileme_cfg::BranchHistory;
use profileme_core::{
    PairProfileDatabase, PairProfileField, PairedSample, ProfileDatabase, Sample, WireFormat,
};
use profileme_isa::{Program, ProgramBuilder};
use profileme_uarch::{CompletedSample, EventSet, TagId, Timestamps};
use proptest::prelude::*;

const IMAGE_LEN: u64 = 48;

fn program() -> Program {
    let mut b = ProgramBuilder::new();
    b.function("f");
    for _ in 0..IMAGE_LEN - 1 {
        b.nop();
    }
    b.halt();
    b.build().unwrap()
}

/// Expands a random bit pattern into the profiled events it selects.
fn events(bits: u16) -> EventSet {
    let all = [
        EventSet::ICACHE_MISS,
        EventSet::ITLB_MISS,
        EventSet::DCACHE_MISS,
        EventSet::DTLB_MISS,
        EventSet::L2_MISS,
        EventSet::BRANCH_TAKEN,
        EventSet::MISPREDICTED,
    ];
    let mut e = EventSet::new();
    for (i, bit) in all.into_iter().enumerate() {
        if bits & (1 << i) != 0 {
            e.set(bit);
        }
    }
    e
}

fn sample(p: &Program, row: u64, event_bits: u16, retired: bool) -> Sample {
    Sample {
        record: Some(CompletedSample {
            tag: TagId(0),
            seq: 0,
            pc: p.base().advance(row),
            context: 1,
            class: profileme_isa::OpClass::Nop,
            events: events(event_bits),
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
        }),
        selected_cycle: 0,
    }
}

/// One mutation: a direct `add`, or a `merge` of a small peer database
/// built from its own adds (the two ways counters grow in production).
#[derive(Debug, Clone)]
enum Op {
    Add {
        row: u64,
        events: u16,
        retired: bool,
    },
    Merge(Vec<(u64, u16, bool)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..IMAGE_LEN, any::<u16>(), any::<bool>()).prop_map(|(row, events, retired)| Op::Add {
            row,
            events,
            retired
        }),
        prop::collection::vec((0..IMAGE_LEN, any::<u16>(), any::<bool>()), 1..6)
            .prop_map(Op::Merge),
    ]
}

fn apply(db: &mut ProfileDatabase, p: &Program, op: &Op) {
    match op {
        Op::Add {
            row,
            events,
            retired,
        } => db.add(&sample(p, *row, *events, *retired)),
        Op::Merge(adds) => {
            let mut peer = ProfileDatabase::new(p, db.interval());
            for (row, events, retired) in adds {
                peer.add(&sample(p, *row, *events, *retired));
            }
            db.merge(&peer).unwrap();
        }
    }
}

proptest! {
    /// `apply_delta` is the exact inverse of `extract_delta`: cutting
    /// deltas at arbitrary points in a random add/merge interleaving
    /// and replaying them onto a replica reproduces the database
    /// exactly — same equality, same snapshot bytes.
    #[test]
    fn delta_extraction_round_trips_random_interleavings(
        ops in prop::collection::vec(arb_op(), 1..60),
        cut_every in 1usize..8,
    ) {
        let p = program();
        let mut db = ProfileDatabase::new(&p, 100);
        let mut base = db.clone();
        let mut replica = db.clone();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut db, &p, op);
            if (i + 1) % cut_every == 0 {
                let chunk = db.extract_delta(&mut base).unwrap();
                replica.apply_delta(&chunk).unwrap();
            }
        }
        let chunk = db.extract_delta(&mut base).unwrap();
        replica.apply_delta(&chunk).unwrap();
        prop_assert_eq!(&replica, &db);
        prop_assert_eq!(&base, &db, "extract_delta syncs its base");
        prop_assert_eq!(
            replica.encode(WireFormat::Sparse).unwrap(),
            db.encode(WireFormat::Sparse).unwrap()
        );
        // A delta over no changes is a no-op when applied.
        let noop = db.extract_delta(&mut base).unwrap();
        replica.apply_delta(&noop).unwrap();
        prop_assert_eq!(&replica, &db);
    }

    /// The dense (JSON) and sparse (columnar) decoders agree on every
    /// snapshot: both round-trip to the original database, and
    /// re-encoding is canonical.
    #[test]
    fn dense_and_sparse_decoders_agree(
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        let p = program();
        let mut db = ProfileDatabase::new(&p, 100);
        for op in &ops {
            apply(&mut db, &p, op);
        }
        let sparse = db.encode(WireFormat::Sparse).unwrap();
        let dense = db.encode(WireFormat::Dense).unwrap();
        let from_sparse = ProfileDatabase::decode(&sparse).unwrap();
        let from_dense = ProfileDatabase::decode(&dense).unwrap();
        prop_assert_eq!(&from_sparse, &db);
        prop_assert_eq!(&from_dense, &db);
        prop_assert_eq!(from_dense.encode(WireFormat::Sparse).unwrap(), sparse);
    }
}

fn pair(p: &Program, first_row: u64, second_row: u64, dist: u64) -> PairedSample {
    PairedSample {
        first: sample(p, first_row, 0, true),
        second: sample(p, second_row, 1 << 5, true),
        distance_instructions: dist.max(1),
        distance_cycles: dist.max(1) * 2,
    }
}

proptest! {
    /// The same delta algebra holds for the pair database, and its new
    /// `top_n` agrees with a manual scan.
    #[test]
    fn pair_delta_round_trips_and_top_n_ranks(
        pairs in prop::collection::vec((0..IMAGE_LEN, 0..IMAGE_LEN, 1u64..16), 1..40),
        cut_every in 1usize..6,
    ) {
        let p = program();
        let mut db = PairProfileDatabase::new(&p, 100, 16);
        let mut base = db.clone();
        let mut replica = db.clone();
        for (i, (a, b, dist)) in pairs.iter().enumerate() {
            db.add(&pair(&p, *a, *b, *dist));
            if (i + 1) % cut_every == 0 {
                let chunk = db.extract_delta(&mut base).unwrap();
                replica.apply_delta(&chunk).unwrap();
            }
        }
        let chunk = db.extract_delta(&mut base).unwrap();
        replica.apply_delta(&chunk).unwrap();
        prop_assert_eq!(&replica, &db);
        prop_assert_eq!(
            replica.encode(WireFormat::Sparse).unwrap(),
            db.encode(WireFormat::Sparse).unwrap()
        );
        // Dense/sparse agreement for the pair database too.
        let from_dense =
            PairProfileDatabase::decode(&db.encode(WireFormat::Dense).unwrap()).unwrap();
        prop_assert_eq!(&from_dense, &db);
        // top_n is the first n of the full ranking.
        let full = db.top_n(usize::MAX, PairProfileField::Samples);
        for n in [0usize, 1, 3] {
            prop_assert_eq!(
                db.top_n(n, PairProfileField::Samples),
                full.iter().take(n).cloned().collect::<Vec<_>>()
            );
        }
    }
}

/// The database calls a shard worker makes, for both database types.
trait Plane: Clone {
    type Item;
    fn add_item(&mut self, item: &Self::Item);
    fn extract(&mut self, base: &mut Self) -> Vec<u8>;
    fn apply(&mut self, chunk: &[u8]);
    fn sync(&mut self, checkpoint: &mut Self);
    fn sparse(&self) -> Vec<u8>;
}

impl Plane for ProfileDatabase {
    type Item = Sample;
    fn add_item(&mut self, item: &Sample) {
        self.add(item);
    }
    fn extract(&mut self, base: &mut Self) -> Vec<u8> {
        self.extract_delta(base).unwrap()
    }
    fn apply(&mut self, chunk: &[u8]) {
        self.apply_delta(chunk).unwrap();
    }
    fn sync(&mut self, checkpoint: &mut Self) {
        self.sync_checkpoint(checkpoint).unwrap();
    }
    fn sparse(&self) -> Vec<u8> {
        self.encode(WireFormat::Sparse).unwrap()
    }
}

impl Plane for PairProfileDatabase {
    type Item = PairedSample;
    fn add_item(&mut self, item: &PairedSample) {
        self.add(item);
    }
    fn extract(&mut self, base: &mut Self) -> Vec<u8> {
        self.extract_delta(base).unwrap()
    }
    fn apply(&mut self, chunk: &[u8]) {
        self.apply_delta(chunk).unwrap();
    }
    fn sync(&mut self, checkpoint: &mut Self) {
        self.sync_checkpoint(checkpoint).unwrap();
    }
    fn sparse(&self) -> Vec<u8> {
        self.encode(WireFormat::Sparse).unwrap()
    }
}

/// One step of a shard worker's life.
#[derive(Debug, Clone)]
enum Step {
    /// Absorb an item built from two rows.
    Add(u64, u64),
    /// Publish the delta since the last extraction into the view.
    Extract,
    /// Bring the checkpoint up to date.
    Sync,
    /// Lose the accumulator: rebuild it as a clone of the checkpoint
    /// plus a replay of everything added since the last sync.
    Crash,
}

/// Half the steps add; the rest split evenly.
fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..6, 0..IMAGE_LEN, 0..IMAGE_LEN).prop_map(|(kind, a, b)| match kind {
        0 => Step::Extract,
        1 => Step::Sync,
        2 => Step::Crash,
        _ => Step::Add(a, b),
    })
}

/// Runs `steps` against a worker's accumulator, extraction base, view
/// and checkpoint. After every step the view must equal direct
/// aggregation of what was added before the last extraction, and the
/// accumulator direct aggregation of everything; right after a sync,
/// the checkpoint must equal the accumulator.
fn check_checkpoint_algebra<D: Plane>(
    empty: &D,
    item: impl Fn(u64, u64) -> D::Item,
    steps: &[Step],
) {
    let mut acc = empty.clone();
    let mut base = empty.clone();
    let mut view = empty.clone();
    let mut checkpoint = empty.clone();
    let mut direct = empty.clone();
    let mut published = empty.sparse();
    let mut since_sync = Vec::new();
    for step in steps {
        match step {
            Step::Add(a, b) => {
                let it = item(*a, *b);
                acc.add_item(&it);
                direct.add_item(&it);
                since_sync.push(it);
            }
            Step::Extract => {
                let chunk = acc.extract(&mut base);
                view.apply(&chunk);
                published = direct.sparse();
            }
            Step::Sync => {
                acc.sync(&mut checkpoint);
                since_sync.clear();
                prop_assert_eq!(checkpoint.sparse(), acc.sparse(), "sync left a row behind");
            }
            Step::Crash => {
                acc = checkpoint.clone();
                for it in &since_sync {
                    acc.add_item(it);
                }
            }
        }
        prop_assert_eq!(view.sparse(), published.clone(), "after {:?}", step);
        prop_assert_eq!(acc.sparse(), direct.sparse(), "after {:?}", step);
    }
    let chunk = acc.extract(&mut base);
    view.apply(&chunk);
    prop_assert_eq!(view.sparse(), direct.sparse(), "the last extraction");
}

proptest! {
    /// Checkpoint syncs, crash rebuilds and delta extraction compose
    /// for the single-sample database: a rebuilt accumulator's next
    /// delta still carries every row that moved past the view.
    #[test]
    fn checkpoint_sync_and_crash_rebuild_keep_the_view_exact(
        steps in prop::collection::vec(arb_step(), 1..60),
    ) {
        let p = program();
        check_checkpoint_algebra(
            &ProfileDatabase::new(&p, 100),
            |row, bits| sample(&p, row, bits as u16, bits % 2 == 0),
            &steps,
        );
    }

    /// The same checkpoint algebra for the pair database.
    #[test]
    fn pair_checkpoint_sync_and_crash_rebuild_keep_the_view_exact(
        steps in prop::collection::vec(arb_step(), 1..60),
    ) {
        let p = program();
        check_checkpoint_algebra(
            &PairProfileDatabase::new(&p, 100, 16),
            |a, b| pair(&p, a, b, a + b),
            &steps,
        );
    }
}
