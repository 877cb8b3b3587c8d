//! Property tests of the sparse snapshot plane: the delta algebra
//! (`extract_delta`/`apply_delta`) over random add/merge
//! interleavings, and dense/sparse decoder agreement on every
//! snapshot.

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
