//! Per-instruction event bits — the contents of the *Profiled Event
//! Register* (§4.1.3).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an instruction left the pipeline without retiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbortReason {
    /// Squashed because an older branch was mispredicted (the instruction
    /// was on the bad path).
    MispredictSquash,
    /// Still in flight when the simulation ended.
    SimulationEnd,
}

/// A compact bit-field of the events an instruction experienced, matching
/// the paper's Profiled Event Register: cache/TLB misses, branch direction
/// and misprediction, and retirement status.
///
/// # Example
///
/// ```
/// use profileme_uarch::EventSet;
/// let mut e = EventSet::new();
/// e.set(EventSet::DCACHE_MISS);
/// e.set(EventSet::RETIRED);
/// assert!(e.contains(EventSet::DCACHE_MISS));
/// assert!(!e.contains(EventSet::ICACHE_MISS));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct EventSet(u32);

impl EventSet {
    /// Instruction fetch missed in the L1 I-cache.
    pub const ICACHE_MISS: EventSet = EventSet(1 << 0);
    /// Instruction fetch missed in the I-TLB.
    pub const ITLB_MISS: EventSet = EventSet(1 << 1);
    /// Data access missed in the L1 D-cache.
    pub const DCACHE_MISS: EventSet = EventSet(1 << 2);
    /// Data access missed in the D-TLB.
    pub const DTLB_MISS: EventSet = EventSet(1 << 3);
    /// Data access also missed in the L2 (went to memory).
    pub const L2_MISS: EventSet = EventSet(1 << 4);
    /// Conditional branch was taken.
    pub const BRANCH_TAKEN: EventSet = EventSet(1 << 5);
    /// Branch or jump was mispredicted (direction or target).
    pub const MISPREDICTED: EventSet = EventSet(1 << 6);
    /// The instruction retired (committed architecturally).
    pub const RETIRED: EventSet = EventSet(1 << 7);
    /// The instruction was fetched on the predicted (wrong) path.
    pub const WRONG_PATH: EventSet = EventSet(1 << 8);
    /// The instruction is a memory operation.
    pub const MEMORY_OP: EventSet = EventSet(1 << 9);

    /// Creates an empty event set.
    pub const fn new() -> EventSet {
        EventSet(0)
    }

    /// Sets the given event bit(s).
    pub fn set(&mut self, events: EventSet) {
        self.0 |= events.0;
    }

    /// Whether all the given bit(s) are set.
    pub const fn contains(self, events: EventSet) -> bool {
        self.0 & events.0 == events.0
    }

    /// The raw bit representation.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// The event set whose raw representation is `bits`, the inverse
    /// of [`bits`](EventSet::bits). Every `u32` is a valid set.
    pub const fn from_bits(bits: u32) -> EventSet {
        EventSet(bits)
    }

    /// Whether no events are recorded.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for EventSet {
    type Output = EventSet;
    fn bitor(self, rhs: EventSet) -> EventSet {
        EventSet(self.0 | rhs.0)
    }
}

impl fmt::Display for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(EventSet, &str); 10] = [
            (EventSet::ICACHE_MISS, "i$miss"),
            (EventSet::ITLB_MISS, "itlb"),
            (EventSet::DCACHE_MISS, "d$miss"),
            (EventSet::DTLB_MISS, "dtlb"),
            (EventSet::L2_MISS, "l2miss"),
            (EventSet::BRANCH_TAKEN, "taken"),
            (EventSet::MISPREDICTED, "mispred"),
            (EventSet::RETIRED, "retired"),
            (EventSet::WRONG_PATH, "wrongpath"),
            (EventSet::MEMORY_OP, "mem"),
        ];
        if self.is_empty() {
            return f.write_str("(none)");
        }
        let mut first = true;
        for (bit, name) in NAMES {
            if self.contains(bit) {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query() {
        let mut e = EventSet::new();
        assert!(e.is_empty());
        e.set(EventSet::DCACHE_MISS | EventSet::DTLB_MISS);
        assert!(e.contains(EventSet::DCACHE_MISS));
        assert!(e.contains(EventSet::DTLB_MISS));
        assert!(!e.contains(EventSet::DCACHE_MISS | EventSet::RETIRED));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(EventSet::new().to_string(), "(none)");
        let mut e = EventSet::new();
        e.set(EventSet::BRANCH_TAKEN);
        e.set(EventSet::MISPREDICTED);
        assert_eq!(e.to_string(), "taken|mispred");
    }
}
