//! The binary sample-batch codec: every field survives a round trip,
//! for generated batches and for every batch of a simulator run, and
//! the decoder refuses hostile bytes without panicking or allocating
//! for a count the bytes cannot hold.

use profileme_cfg::BranchHistory;
use profileme_core::{ProfileMeConfig, Sample, SelectionMode, Session, MAX_BATCH_SAMPLES};
use profileme_isa::{OpClass, Pc};
use profileme_uarch::{CompletedSample, EventSet, StageLatencies, TagId, Timestamps};
use proptest::prelude::*;

/// SplitMix64: every field of one generated batch from one seed, so
/// a failing case is its seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Small, mid-sized, extreme and arbitrary magnitudes, so deltas
    /// within a batch go forwards, backwards and wrap.
    fn value(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(128),
            1 => self.below(1 << 24),
            2 => u64::MAX - self.below(3),
            _ => self.next(),
        }
    }

    fn maybe(&mut self) -> Option<u64> {
        if self.flip() {
            Some(self.value())
        } else {
            None
        }
    }
}

fn generated(g: &mut Gen) -> Sample {
    if g.below(5) == 0 {
        return Sample {
            record: None,
            selected_cycle: g.value(),
        };
    }
    let mut history = BranchHistory::new();
    for _ in 0..g.below(100) {
        history.shift(g.flip());
    }
    let latencies = g.flip().then(|| StageLatencies {
        fetch_to_map: g.value(),
        map_to_data_ready: g.value(),
        data_ready_to_issue: g.value(),
        issue_to_retire_ready: g.value(),
        retire_ready_to_retire: g.value(),
        load_completion: g.value(),
    });
    Sample {
        record: Some(CompletedSample {
            tag: TagId(g.next() as u8),
            seq: g.value(),
            pc: Pc::new(g.value() & !3),
            context: g.value(),
            class: OpClass::ALL[g.below(OpClass::ALL.len() as u64) as usize],
            events: EventSet::from_bits(g.next() as u32),
            retired: g.flip(),
            eff_addr: g.maybe(),
            taken: g.flip().then(|| g.flip()),
            history,
            timestamps: Timestamps {
                fetched: g.value(),
                mapped: g.maybe(),
                data_ready: g.maybe(),
                issued: g.maybe(),
                retire_ready: g.maybe(),
                retired: g.maybe(),
            },
            latencies,
            mem_latency: g.maybe(),
        }),
        selected_cycle: g.value(),
    }
}

fn round_trip(batch: &[Sample]) {
    let bytes = Sample::encode_batch(batch);
    let back = Sample::decode_batch(&bytes).expect("an encoded batch decodes");
    assert_eq!(back, batch, "the batch changed on the wire");
}

/// A batch of a real run: records with and without milestones,
/// addresses and branch outcomes.
fn simulated(selection: SelectionMode) -> Vec<Sample> {
    let w = profileme_workloads::gcc(2);
    Session::builder(w.program)
        .memory(w.memory)
        .sampling(ProfileMeConfig {
            mean_interval: 16,
            selection,
            seed: 11,
            ..Default::default()
        })
        .build()
        .expect("config is valid")
        .profile_single()
        .expect("workload completes")
        .samples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every field of every generated sample survives, including
    /// record-less samples, both states of every `Option`, `u64::MAX`
    /// values and deltas that run backwards.
    #[test]
    fn generated_batches_round_trip(seed in any::<u64>(), len in 0usize..300) {
        let mut g = Gen(seed);
        let batch: Vec<Sample> = (0..len).map(|_| generated(&mut g)).collect();
        round_trip(&batch);
    }

    /// Arbitrary bytes, raw or behind a valid magic, decode to an
    /// error or a batch, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        magic in any::<bool>(),
    ) {
        let mut input = if magic { b"PMB1".to_vec() } else { Vec::new() };
        input.extend_from_slice(&bytes);
        if let Ok(batch) = Sample::decode_batch(&input) {
            prop_assert!(batch.len() <= input.len() / 2);
        }
    }
}

#[test]
fn every_batch_of_a_simulator_run_round_trips() {
    for selection in [
        SelectionMode::FetchedInstructions,
        SelectionMode::FetchOpportunities,
    ] {
        let samples = simulated(selection);
        assert!(samples.len() > 256, "{selection:?}: run too short");
        if selection == SelectionMode::FetchOpportunities {
            assert!(samples.iter().any(|s| s.record.is_none()));
        }
        for batch in samples.chunks(256) {
            round_trip(batch);
        }
        round_trip(&samples);
    }
}

#[test]
fn truncations_and_byte_flips_of_a_real_batch_never_panic() {
    let samples = simulated(SelectionMode::FetchOpportunities);
    let bytes = Sample::encode_batch(&samples[..64]);
    for cut in 0..bytes.len() {
        assert!(Sample::decode_batch(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            drop(Sample::decode_batch(&flipped));
        }
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(Sample::decode_batch(&trailing).is_err());
}

/// A count is checked against the cap and the bytes left before the
/// decoder allocates for it.
#[test]
fn counts_beyond_the_cap_or_the_bytes_are_refused() {
    let header = |count: u64| {
        let mut b = b"PMB1".to_vec();
        let mut v = count;
        while v >= 0x80 {
            b.push(v as u8 | 0x80);
            v >>= 7;
        }
        b.push(v as u8);
        b
    };
    // Record-less samples are two bytes each: at the cap a batch is
    // legal, one past it is not, however many bytes follow.
    let cap = MAX_BATCH_SAMPLES as u64;
    let mut at_cap = header(cap);
    at_cap.resize(at_cap.len() + 2 * MAX_BATCH_SAMPLES, 0);
    assert_eq!(
        Sample::decode_batch(&at_cap).unwrap().len(),
        MAX_BATCH_SAMPLES
    );
    let mut over = header(cap + 1);
    over.resize(over.len() + 2 * (MAX_BATCH_SAMPLES + 1), 0);
    let err = Sample::decode_batch(&over).unwrap_err();
    assert!(err.to_string().contains("bound"), "{err}");
    // A count within the cap that the bytes left cannot hold is
    // refused up front, not after decoding what is there.
    for (count, why) in [
        (2, "cannot fit"),
        (cap, "cannot fit"),
        (1 << 20, "bound"),
        (u64::MAX, "bound"),
    ] {
        let mut short = header(count);
        short.extend_from_slice(&[0, 0]);
        let err = Sample::decode_batch(&short).unwrap_err();
        assert!(
            matches!(err, profileme_core::ProfileError::Net { .. }),
            "{err}"
        );
        assert!(err.to_string().contains(why), "count {count}: {err}");
    }
}

#[test]
fn out_of_range_fields_are_refused() {
    let sample = Sample {
        record: Some(CompletedSample {
            tag: TagId(0),
            seq: 0,
            pc: Pc::new(0),
            context: 0,
            class: OpClass::ALL[0],
            events: EventSet::new(),
            retired: false,
            eff_addr: None,
            taken: None,
            history: BranchHistory::new(),
            timestamps: Timestamps {
                fetched: 0,
                mapped: None,
                data_ready: None,
                issued: None,
                retire_ready: None,
                retired: None,
            },
            latencies: None,
            mem_latency: None,
        }),
        selected_cycle: 0,
    };
    let bytes = Sample::encode_batch(&[sample]);
    // PMB1, count 1, then one byte per field: flags, cycle, tag, seq,
    // PC, context, class, events, history length, history bits, fetched.
    assert_eq!(bytes.len(), 4 + 1 + 11);
    let with = |at: usize, tail: &[u8]| {
        let mut b = bytes[..at].to_vec();
        b.extend_from_slice(tail);
        b.extend_from_slice(&bytes[at + 1..]);
        Sample::decode_batch(&b)
    };
    let refused = [
        ("unknown flag bit", with(5, &[0x81, 0x20])),
        ("taken without its presence bit", with(5, &[0x09])),
        ("flags on a record-less sample", with(5, &[0x02])),
        ("tag above u8", with(7, &[0x80, 0x02])),
        (
            "class past OpClass::ALL",
            with(11, &[OpClass::ALL.len() as u8]),
        ),
        (
            "event bits above u32",
            with(12, &[0x80, 0x80, 0x80, 0x80, 0x10]),
        ),
        ("history longer than 64", with(13, &[65])),
        ("history bit at its length", with(14, &[0x01])),
    ];
    for (what, decoded) in refused {
        assert!(decoded.is_err(), "{what} was accepted");
    }
    // A PC index whose byte address overflows u64.
    let mut b = bytes[..9].to_vec();
    b.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
    b.extend_from_slice(&bytes[10..]);
    assert!(Sample::decode_batch(&b).is_err(), "PC index past u64 / 4");
    assert!(Sample::decode_batch(b"PMB2\x00").is_err(), "wrong magic");
}
