//! The sparse columnar wire format shared by database snapshots,
//! crash-recovery checkpoints, and epoch deltas.
//!
//! A profile database is a dense table (one row per static
//! instruction), but at any point in a run most rows are still zero —
//! and between two snapshot epochs only the rows the workload actually
//! executed have *changed*. The wire format therefore ships only the
//! touched rows:
//!
//! ```text
//! magic[4]                       version-tagged layout id
//! header: H × varint             base PC, row count, interval, …
//! run_count varint               touched rows as (gap, len) runs
//! runs: run_count × (gap, len)   gap = rows skipped since last run
//! columns: N × touched × varint  per-field columns, field-major
//! ```
//!
//! All integers are LEB128 varints, so small counters (the common
//! case by far) cost one byte. Row indices are run-length coded:
//! loops touch contiguous PC ranges, so a hot loop of 40 instructions
//! costs two varints, not forty. Values are laid out **column-major**
//! (all rows' `samples`, then all rows' `retired`, …): fields are
//! correlated across rows, which keeps varint widths uniform within a
//! column and makes per-field streaming decode possible.
//!
//! The encoder writes rows in ascending index order and skips rows
//! equal to the all-zero profile, so the bytes are a **pure function
//! of database content** — never of the dirty-set history. That
//! purity is what lets the sharded service's merged-view bytes stay
//! identical to direct aggregation no matter how the deltas were
//! batched (see `profileme-serve`'s merge-equivalence suite).

use crate::error::ProfileError;

/// Appends one LEB128 varint.
pub(crate) fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint, advancing `pos`.
pub(crate) fn get_uv(bytes: &[u8], pos: &mut usize) -> Result<u64, ProfileError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or_else(|| truncated("varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(malformed("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(malformed("varint longer than 10 bytes"));
        }
    }
}

pub(crate) fn truncated(what: &str) -> ProfileError {
    ProfileError::Snapshot {
        reason: format!("sparse wire data truncated reading {what}"),
    }
}

pub(crate) fn malformed(what: &str) -> ProfileError {
    ProfileError::Snapshot {
        reason: format!("malformed sparse wire data: {what}"),
    }
}

/// Encodes one sparse table: `header` varints, then the touched-row
/// runs, then `N` field-major columns.
///
/// `rows` must be sorted by ascending row index with no duplicates —
/// the callers iterate either a full table scan or a sorted dirty
/// set, both of which guarantee it (debug-asserted below).
pub(crate) fn encode<const N: usize>(
    magic: [u8; 4],
    header: &[u64],
    rows: &[(u32, [u64; N])],
) -> Vec<u8> {
    debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    // Guess: magic + ~2 bytes per header word + ~1.5 bytes per value.
    let mut buf = Vec::with_capacity(4 + header.len() * 2 + rows.len() * (N * 2 + 2) + 8);
    buf.extend_from_slice(&magic);
    for &h in header {
        put_uv(&mut buf, h);
    }
    // Run-length code the touched indices.
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut next = 0u64; // first index not covered by a previous run
    for &(idx, _) in rows {
        let idx = u64::from(idx);
        match runs.last_mut() {
            Some((_, len)) if idx == next => *len += 1,
            _ => runs.push((idx - next, 1)),
        }
        next = idx + 1;
    }
    put_uv(&mut buf, runs.len() as u64);
    for (gap, len) in runs {
        put_uv(&mut buf, gap);
        put_uv(&mut buf, len);
    }
    // Field-major columns.
    for field in 0..N {
        for (_, cols) in rows {
            put_uv(&mut buf, cols[field]);
        }
    }
    buf
}

/// The all-default row table of a decoded snapshot. `len` comes from
/// untrusted bytes: it must fit the u32 row indices the wire carries,
/// and an allocation the system refuses is a decode error, not an
/// abort.
pub(crate) fn alloc_rows<T: Clone + Default>(len: u64) -> Result<Vec<T>, ProfileError> {
    let len = u32::try_from(len).map_err(|_| malformed("row count exceeds u32 row indices"))?;
    let mut rows = Vec::new();
    rows.try_reserve_exact(len as usize)
        .map_err(|_| malformed("row table too large to allocate"))?;
    rows.resize(len as usize, T::default());
    Ok(rows)
}

/// A decoded sparse table.
pub(crate) struct Decoded<const N: usize> {
    pub header: Vec<u64>,
    /// `(row index, field values)`, ascending by index.
    pub rows: Vec<(u32, [u64; N])>,
}

/// Decodes [`encode`] output. `magic` and `header_len` pin the layout
/// version; anything that does not parse exactly (wrong magic, short
/// data, trailing bytes, out-of-order runs) is an error — snapshots
/// feed byte-identity checks, so leniency would only mask corruption.
pub(crate) fn decode<const N: usize>(
    bytes: &[u8],
    magic: [u8; 4],
    header_len: usize,
) -> Result<Decoded<N>, ProfileError> {
    if bytes.len() < 4 || bytes[..4] != magic {
        return Err(malformed("magic/version tag mismatch"));
    }
    let mut pos = 4;
    let mut header = Vec::with_capacity(header_len);
    for _ in 0..header_len {
        header.push(get_uv(bytes, &mut pos)?);
    }
    let run_count = get_uv(bytes, &mut pos)?;
    if run_count > bytes.len() as u64 {
        // Each run costs at least two bytes; a larger claim is corrupt
        // and would otherwise pre-allocate unboundedly.
        return Err(malformed("run count exceeds available data"));
    }
    let mut indices: Vec<u32> = Vec::new();
    let mut next = 0u64;
    for _ in 0..run_count {
        let gap = get_uv(bytes, &mut pos)?;
        let len = get_uv(bytes, &mut pos)?;
        if len == 0 {
            return Err(malformed("empty run"));
        }
        let start = next + gap;
        let end = start
            .checked_add(len)
            .ok_or_else(|| malformed("run overflows index space"))?;
        if end > u64::from(u32::MAX) {
            return Err(malformed("run exceeds addressable rows"));
        }
        // Every row costs at least N ≥ 1 column bytes, so more rows
        // than bytes is corrupt — reject before allocating for it.
        if indices.len() as u64 + len > bytes.len() as u64 {
            return Err(malformed("row count exceeds available data"));
        }
        for idx in start..end {
            indices.push(idx as u32);
        }
        next = end;
    }
    let mut rows: Vec<(u32, [u64; N])> = indices.into_iter().map(|i| (i, [0u64; N])).collect();
    for field in 0..N {
        for row in &mut rows {
            row.1[field] = get_uv(bytes, &mut pos)?;
        }
    }
    if pos != bytes.len() {
        return Err(malformed("trailing bytes after columns"));
    }
    Ok(Decoded { header, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uv(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uv(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        put_uv(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(get_uv(&buf[..buf.len() - 1], &mut pos).is_err());
        // 10 continuation bytes overflow u64.
        let bad = [0xff; 11];
        let mut pos = 0;
        assert!(get_uv(&bad, &mut pos).is_err());
    }

    #[test]
    fn table_round_trips_with_runs_and_gaps() {
        let magic = *b"TST1";
        let rows: Vec<(u32, [u64; 3])> = vec![
            (0, [1, 2, 3]),
            (1, [4, 0, 6]),
            (7, [7, 8, 9]),
            (8, [0, 0, 1]),
            (100, [u64::MAX, 0, 127]),
        ];
        let bytes = encode(magic, &[42, 1000], &rows);
        let back: Decoded<3> = decode(&bytes, magic, 2).unwrap();
        assert_eq!(back.header, vec![42, 1000]);
        assert_eq!(back.rows, rows);
    }

    #[test]
    fn empty_table_round_trips() {
        let magic = *b"TST1";
        let bytes = encode::<4>(magic, &[7], &[]);
        let back: Decoded<4> = decode(&bytes, magic, 1).unwrap();
        assert_eq!(back.header, vec![7]);
        assert!(back.rows.is_empty());
    }

    #[test]
    fn decode_rejects_wrong_magic_and_trailing_bytes() {
        let magic = *b"TST1";
        let mut bytes = encode::<2>(magic, &[1], &[(3, [5, 6])]);
        assert!(decode::<2>(&bytes, *b"TST2", 1).is_err());
        bytes.push(0);
        assert!(decode::<2>(&bytes, magic, 1).is_err());
    }
}
