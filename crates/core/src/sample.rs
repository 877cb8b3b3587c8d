//! Software-visible sample records — what the interrupt handler reads out
//! of the Profile Registers — and the binary batch codec that carries
//! them between processes.

use crate::error::ProfileError;
use crate::sw::wire::{get_uv, put_uv};
use profileme_cfg::BranchHistory;
use profileme_isa::{OpClass, Pc};
use profileme_uarch::{CompletedSample, EventSet, StageLatencies, TagId, Timestamps};
use serde::{Deserialize, Serialize};

/// One instruction sample.
///
/// When instructions are selected by counting *fetch opportunities*
/// (§4.1.1), the selected slot may hold no instruction on the predicted
/// control path; such samples are delivered with `record == None` so
/// software can measure the useful-sampling-rate cost of that selection
/// scheme.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// The profile-register contents, or `None` for an empty selected
    /// slot.
    pub record: Option<CompletedSample>,
    /// Cycle at which the selection fired.
    pub selected_cycle: u64,
}

impl Sample {
    /// Whether the sample carries an instruction record.
    pub fn is_valid(&self) -> bool {
        self.record.is_some()
    }

    /// Whether the sampled instruction retired.
    pub fn retired(&self) -> bool {
        self.record.as_ref().is_some_and(|r| r.retired)
    }

    /// Encodes a batch of samples in the binary `PMB1` layout, which
    /// mirrors the Profile Registers (§4.1, Table 1).
    ///
    /// All integers are LEB128 varints. A *delta* is the zig-zag-coded
    /// wrapping difference from the previous value of the same field
    /// in the batch (starting from 0), so any `u64` round-trips.
    ///
    /// ```text
    /// "PMB1"                         magic: the layout's version tag
    /// count                          samples in the batch
    /// per sample:
    ///   flags                        bit 0 record present, 1 retired,
    ///                                2 taken present, 3 taken, 4 eff_addr,
    ///                                5 latencies, 6 mem_latency,
    ///                                7..=11 mapped … retired milestone present
    ///   Δ selected_cycle
    ///   if a record is present:
    ///     tag, Δ seq, Δ PC index (addr / 4), context,
    ///     class (index in OpClass::ALL), event bits,
    ///     Δ effective address            if flagged
    ///     history length, history bits
    ///     fetched − selected_cycle, each present milestone − the one before
    ///     six stage latencies            if flagged
    ///     mem_latency                    if flagged
    /// ```
    ///
    /// A record-less sample is exactly its zero flag word and its cycle.
    ///
    /// The encoding is lossless: [`decode_batch`](Sample::decode_batch)
    /// gives back every field of every sample, provided the batch holds
    /// at most [`MAX_BATCH_SAMPLES`] samples. Histories must satisfy
    /// [`BranchHistory::from_raw`]'s rule and PCs be 4-byte aligned,
    /// which every history built by `shift` and every [`Pc::new`] does.
    pub fn encode_batch(samples: &[Sample]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + samples.len() * 40);
        buf.extend_from_slice(&BATCH_MAGIC);
        put_uv(&mut buf, samples.len() as u64);
        let mut prev = Deltas::default();
        for sample in samples {
            let Some(r) = &sample.record else {
                put_uv(&mut buf, 0);
                put_delta(&mut buf, sample.selected_cycle, &mut prev.cycle);
                continue;
            };
            let t = &r.timestamps;
            let milestones = [t.mapped, t.data_ready, t.issued, t.retire_ready, t.retired];
            let mut flags = F_RECORD;
            for (bit, present) in [
                (F_RETIRED, r.retired),
                (F_HAS_TAKEN, r.taken.is_some()),
                (F_TAKEN, r.taken == Some(true)),
                (F_EFF_ADDR, r.eff_addr.is_some()),
                (F_LATENCIES, r.latencies.is_some()),
                (F_MEM_LATENCY, r.mem_latency.is_some()),
            ] {
                flags |= if present { bit } else { 0 };
            }
            for (i, m) in milestones.iter().enumerate() {
                flags |= u64::from(m.is_some()) << (F_MILESTONE_SHIFT + i as u32);
            }
            put_uv(&mut buf, flags);
            put_delta(&mut buf, sample.selected_cycle, &mut prev.cycle);
            put_uv(&mut buf, u64::from(r.tag.0));
            put_delta(&mut buf, r.seq, &mut prev.seq);
            put_delta(&mut buf, r.pc.addr() / 4, &mut prev.pc_index);
            put_uv(&mut buf, r.context);
            let class = OpClass::ALL
                .iter()
                .position(|&c| c == r.class)
                .expect("OpClass::ALL lists every class");
            put_uv(&mut buf, class as u64);
            put_uv(&mut buf, u64::from(r.events.bits()));
            if let Some(addr) = r.eff_addr {
                put_delta(&mut buf, addr, &mut prev.eff_addr);
            }
            put_uv(&mut buf, r.history.len() as u64);
            put_uv(&mut buf, r.history.low_bits(r.history.len()));
            // Each milestone relative to the one before it: stage
            // latencies are small even when cycle counts are not.
            let mut at = sample.selected_cycle;
            put_delta(&mut buf, t.fetched, &mut at);
            for m in milestones.into_iter().flatten() {
                put_delta(&mut buf, m, &mut at);
            }
            if let Some(l) = &r.latencies {
                for v in [
                    l.fetch_to_map,
                    l.map_to_data_ready,
                    l.data_ready_to_issue,
                    l.issue_to_retire_ready,
                    l.retire_ready_to_retire,
                    l.load_completion,
                ] {
                    put_uv(&mut buf, v);
                }
            }
            if let Some(m) = r.mem_latency {
                put_uv(&mut buf, m);
            }
        }
        buf
    }

    /// Decodes an [`encode_batch`](Sample::encode_batch) batch.
    ///
    /// The bytes may come from anywhere: decode never panics, and it
    /// checks the sample count against [`MAX_BATCH_SAMPLES`] and
    /// against the bytes left before allocating.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Net`] for a wrong magic, a count over
    /// either bound, truncation, unknown flag bits, an out-of-range
    /// tag, class, history or PC, or trailing bytes.
    pub fn decode_batch(bytes: &[u8]) -> Result<Vec<Sample>, ProfileError> {
        let body = bytes
            .strip_prefix(&BATCH_MAGIC)
            .ok_or_else(|| batch_err("not a PMB1 sample batch"))?;
        let mut r = BatchReader { body, pos: 0 };
        let count = r.uv()?;
        if count > MAX_BATCH_SAMPLES as u64 {
            return Err(batch_err(format!(
                "{count} samples exceed the {MAX_BATCH_SAMPLES}-sample bound"
            )));
        }
        // Every sample costs at least a flag byte and a cycle byte.
        if count > (body.len() - r.pos) as u64 / 2 {
            return Err(batch_err(format!(
                "{count} samples cannot fit in {} bytes",
                body.len() - r.pos
            )));
        }
        let mut samples = Vec::with_capacity(count as usize);
        let mut prev = Deltas::default();
        for _ in 0..count {
            let flags = r.uv()?;
            let selected_cycle = r.delta(&mut prev.cycle)?;
            if flags & F_RECORD == 0 {
                if flags != 0 {
                    return Err(batch_err("flag bits on a sample without a record"));
                }
                samples.push(Sample {
                    record: None,
                    selected_cycle,
                });
                continue;
            }
            if flags & !F_ALL != 0 || (flags & F_TAKEN != 0 && flags & F_HAS_TAKEN == 0) {
                return Err(batch_err(format!("unknown flag bits {flags:#x}")));
            }
            let has = |bit: u64| flags & bit != 0;
            let tag = u8::try_from(r.uv()?).map_err(|_| batch_err("tag out of range"))?;
            let seq = r.delta(&mut prev.seq)?;
            let pc = r
                .delta(&mut prev.pc_index)?
                .checked_mul(4)
                .map(Pc::new)
                .ok_or_else(|| batch_err("PC out of range"))?;
            let context = r.uv()?;
            let class = usize::try_from(r.uv()?)
                .ok()
                .and_then(|i| OpClass::ALL.get(i).copied())
                .ok_or_else(|| batch_err("opcode class out of range"))?;
            let events = u32::try_from(r.uv()?)
                .map(EventSet::from_bits)
                .map_err(|_| batch_err("event bits out of range"))?;
            let eff_addr = if has(F_EFF_ADDR) {
                Some(r.delta(&mut prev.eff_addr)?)
            } else {
                None
            };
            let history_len = r.uv()?;
            let history_bits = r.uv()?;
            let history = usize::try_from(history_len)
                .ok()
                .and_then(|len| BranchHistory::from_raw(history_bits, len))
                .ok_or_else(|| batch_err("branch history out of range"))?;
            let mut at = selected_cycle;
            let fetched = r.delta(&mut at)?;
            let mut milestones = [None; 5];
            for (i, m) in milestones.iter_mut().enumerate() {
                if has(1 << (F_MILESTONE_SHIFT + i as u32)) {
                    *m = Some(r.delta(&mut at)?);
                }
            }
            let [mapped, data_ready, issued, retire_ready, retired] = milestones;
            let latencies = if has(F_LATENCIES) {
                Some(StageLatencies {
                    fetch_to_map: r.uv()?,
                    map_to_data_ready: r.uv()?,
                    data_ready_to_issue: r.uv()?,
                    issue_to_retire_ready: r.uv()?,
                    retire_ready_to_retire: r.uv()?,
                    load_completion: r.uv()?,
                })
            } else {
                None
            };
            let mem_latency = if has(F_MEM_LATENCY) {
                Some(r.uv()?)
            } else {
                None
            };
            samples.push(Sample {
                record: Some(CompletedSample {
                    tag: TagId(tag),
                    seq,
                    pc,
                    context,
                    class,
                    events,
                    retired: has(F_RETIRED),
                    eff_addr,
                    taken: has(F_HAS_TAKEN).then_some(has(F_TAKEN)),
                    history,
                    timestamps: Timestamps {
                        fetched,
                        mapped,
                        data_ready,
                        issued,
                        retire_ready,
                        retired,
                    },
                    latencies,
                    mem_latency,
                }),
                selected_cycle,
            });
        }
        if r.pos != body.len() {
            return Err(batch_err("trailing bytes after the last sample"));
        }
        Ok(samples)
    }
}

/// The most samples one encoded batch may carry; [`Sample::decode_batch`]
/// refuses a larger count before allocating for it.
///
/// A sample without a record is 2 bytes on the wire but
/// `size_of::<Sample>()` (232) bytes in memory, so a count bounded only
/// by the bytes of a 64 MiB frame could ask for ≈7.8 GB. This cap
/// bounds one decode at ≈15 MB.
pub const MAX_BATCH_SAMPLES: usize = 65_536;

/// The batch layout's magic and version tag.
const BATCH_MAGIC: [u8; 4] = *b"PMB1";

const F_RECORD: u64 = 1 << 0;
const F_RETIRED: u64 = 1 << 1;
const F_HAS_TAKEN: u64 = 1 << 2;
const F_TAKEN: u64 = 1 << 3;
const F_EFF_ADDR: u64 = 1 << 4;
const F_LATENCIES: u64 = 1 << 5;
const F_MEM_LATENCY: u64 = 1 << 6;
/// Bits 7..=11 flag the five optional pipeline milestones.
const F_MILESTONE_SHIFT: u32 = 7;
const F_ALL: u64 = (1 << 12) - 1;

/// The previous value of each delta-coded field within one batch.
#[derive(Default)]
struct Deltas {
    cycle: u64,
    seq: u64,
    pc_index: u64,
    eff_addr: u64,
}

fn put_delta(buf: &mut Vec<u8>, v: u64, prev: &mut u64) {
    let d = v.wrapping_sub(*prev) as i64;
    put_uv(buf, ((d << 1) ^ (d >> 63)) as u64);
    *prev = v;
}

fn batch_err(reason: impl std::fmt::Display) -> ProfileError {
    ProfileError::net(format!("malformed sample batch: {reason}"))
}

/// A cursor over a batch body whose errors are network errors.
struct BatchReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl BatchReader<'_> {
    fn uv(&mut self) -> Result<u64, ProfileError> {
        get_uv(self.body, &mut self.pos).map_err(|_| batch_err("truncated or overlong varint"))
    }

    /// Reads a delta and applies it to `prev`, returning the value.
    fn delta(&mut self, prev: &mut u64) -> Result<u64, ProfileError> {
        let z = self.uv()?;
        let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
        *prev = prev.wrapping_add(d as u64);
        Ok(*prev)
    }
}

/// A paired sample (§4.2): two potentially concurrent instructions plus
/// the fetch latency between them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairedSample {
    /// The first selected instruction.
    pub first: Sample,
    /// The second selected instruction (fetched `distance` instructions
    /// later).
    pub second: Sample,
    /// The minor interval actually used: fetched instructions between the
    /// two selections (1..=W).
    pub distance_instructions: u64,
    /// The inter-pair fetch latency register: cycles between the two
    /// selections.
    pub distance_cycles: u64,
}

impl PairedSample {
    /// Whether both halves carry instruction records.
    pub fn is_complete(&self) -> bool {
        self.first.is_valid() && self.second.is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_sample_predicates() {
        let s = Sample {
            record: None,
            selected_cycle: 42,
        };
        assert!(!s.is_valid());
        assert!(!s.retired());
    }
}
