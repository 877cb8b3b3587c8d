//! The global branch history register.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A global branch history register: the taken/not-taken directions of the
/// most recent conditional branches, newest in bit 0.
///
/// This is the register ProfileMe snapshots into the *Profiled Path
/// Register* (§4.1.3) and that path reconstruction (§5.3) consumes. It
/// holds up to 64 bits; analyses examine a prefix of the `len` most recent
/// directions.
///
/// # Example
///
/// ```
/// use profileme_cfg::BranchHistory;
/// let mut h = BranchHistory::new();
/// h.shift(true);
/// h.shift(false);
/// h.shift(true);
/// assert_eq!(h.recent(0), Some(true)); // newest
/// assert_eq!(h.recent(1), Some(false));
/// assert_eq!(h.recent(2), Some(true)); // oldest
/// assert_eq!(h.recent(3), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BranchHistory {
    bits: u64,
    len: u8,
}

/// Maximum number of directions retained.
pub const MAX_HISTORY: usize = 64;

impl BranchHistory {
    /// Creates an empty history.
    pub fn new() -> BranchHistory {
        BranchHistory::default()
    }

    /// The history holding the `len` newest directions in the low bits
    /// of `bits` (newest in bit 0), as [`low_bits`](Self::low_bits)
    /// and [`len`](Self::len) report them. `None` if `len` exceeds
    /// [`MAX_HISTORY`] or `bits` has a bit at or above `len`: no
    /// sequence of [`shift`](Self::shift)s builds such a history.
    ///
    /// ```
    /// use profileme_cfg::BranchHistory;
    /// let mut h = BranchHistory::new();
    /// h.shift(true);
    /// h.shift(false);
    /// assert_eq!(BranchHistory::from_raw(h.low_bits(h.len()), h.len()), Some(h));
    /// assert_eq!(BranchHistory::from_raw(0b100, 2), None);
    /// assert_eq!(BranchHistory::from_raw(0, 65), None);
    /// ```
    pub fn from_raw(bits: u64, len: usize) -> Option<BranchHistory> {
        let fits = len >= MAX_HISTORY || bits >> len == 0;
        (len <= MAX_HISTORY && fits).then_some(BranchHistory {
            bits,
            len: len as u8,
        })
    }

    /// Records a branch direction (`true` = taken). The oldest direction is
    /// discarded once [`MAX_HISTORY`] are held.
    pub fn shift(&mut self, taken: bool) {
        self.bits = (self.bits << 1) | taken as u64;
        self.len = (self.len + 1).min(MAX_HISTORY as u8);
    }

    /// Direction of the `age`-th most recent branch (0 = newest), or `None`
    /// if fewer than `age + 1` directions have been recorded.
    pub fn recent(&self, age: usize) -> Option<bool> {
        if age < self.len as usize {
            Some((self.bits >> age) & 1 == 1)
        } else {
            None
        }
    }

    /// Number of directions recorded (saturating at [`MAX_HISTORY`]).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no directions have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The low `n` bits as an integer (newest in bit 0) — the form a
    /// gshare-style predictor XORs with the PC.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_HISTORY`.
    pub fn low_bits(&self, n: usize) -> u64 {
        assert!(n <= MAX_HISTORY);
        if n == 64 {
            self.bits
        } else {
            self.bits & ((1u64 << n) - 1)
        }
    }
}

impl fmt::Display for BranchHistory {
    /// Renders newest-first, `T` for taken, `N` for not-taken.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(empty)");
        }
        for age in 0..self.len() {
            f.write_str(if self.recent(age) == Some(true) {
                "T"
            } else {
                "N"
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_order_newest_first() {
        let mut h = BranchHistory::new();
        for taken in [true, true, false, true] {
            h.shift(taken);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.recent(0), Some(true));
        assert_eq!(h.recent(1), Some(false));
        assert_eq!(h.recent(2), Some(true));
        assert_eq!(h.recent(3), Some(true));
        assert_eq!(h.to_string(), "TNTT");
    }

    #[test]
    fn low_bits_for_indexing() {
        let mut h = BranchHistory::new();
        h.shift(true);
        h.shift(false);
        h.shift(true); // bits = 0b101
        assert_eq!(h.low_bits(2), 0b01);
        assert_eq!(h.low_bits(3), 0b101);
        assert_eq!(h.low_bits(64), 0b101);
    }

    #[test]
    fn saturates_at_max() {
        let mut h = BranchHistory::new();
        for i in 0..100 {
            h.shift(i % 2 == 0);
        }
        assert_eq!(h.len(), MAX_HISTORY);
        // recent(a) is the shift from iteration 99 - a: 99 - 63 = 36, even.
        assert_eq!(h.recent(63), Some(true));
        assert_eq!(h.recent(64), None);
    }

    #[test]
    fn empty_display() {
        assert_eq!(BranchHistory::new().to_string(), "(empty)");
    }
}
