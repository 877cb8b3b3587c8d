//! The sparse columnar wire format shared by database snapshots,
//! store images, and epoch deltas.
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
//! column.
//!
//! Both directions stream, with no row-major intermediate.
//! [`Encoder`] takes rows one at a time in ascending index order and
//! writes each field straight into its own column buffer; `finish`
//! concatenates them into one exactly sized allocation. [`Table`]
//! decodes in two passes: `parse` validates everything first — the
//! header, the runs, and every varint of every column — and only then
//! does `for_each_row` visit the rows, infallibly, with one cursor per
//! column. A caller that checks the header before visiting therefore
//! either refuses bytes or applies all of them, never a prefix.
//!
//! The callers push exactly the rows that differ from the all-zero
//! profile, in ascending order, so the bytes are a **pure function of
//! database content** — never of the dirty-set history. That purity is
//! what lets the sharded service's merged-view bytes stay identical to
//! direct aggregation no matter how the deltas were batched (see
//! `profileme-serve`'s merge-equivalence suite).

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

/// Steps over `count` varints from `pos` with [`get_uv`]'s refusals,
/// returning the position after the last one. Eight bytes at a time
/// while no varint in them can reach its tenth byte: a byte with its
/// high bit clear ends a varint, so a word's varint count is a
/// popcount.
fn skip_uvs(bytes: &[u8], mut pos: usize, mut count: u64) -> Result<usize, ProfileError> {
    const ENDS: u64 = 0x8080_8080_8080_8080;
    // Continuation bytes read since the last varint ended.
    let mut run = 0usize;
    while count > 0 {
        if let Some(word) = bytes.get(pos..pos + 8) {
            let ends = !u64::from_le_bytes(word.try_into().expect("8 bytes")) & ENDS;
            // The varint in progress ends at byte `first` of the word
            // (8: not in this word); it must end by its ninth byte.
            let first = ends.trailing_zeros() as usize / 8;
            if u64::from(ends.count_ones()) < count && run + first < 9 {
                count -= u64::from(ends.count_ones());
                run = if ends == 0 {
                    run + 8
                } else {
                    ends.leading_zeros() as usize / 8
                };
                pos += 8;
                continue;
            }
        }
        // One byte at a time, exactly as `get_uv` reads it.
        let byte = *bytes.get(pos).ok_or_else(|| truncated("varint"))?;
        pos += 1;
        if run == 9 && byte > 1 {
            return Err(malformed("varint overflows u64"));
        }
        if byte < 0x80 {
            count -= 1;
            run = 0;
        } else {
            run += 1;
        }
    }
    Ok(pos)
}

/// Reads one varint that [`Table::parse`] has already checked, so it
/// cannot run off the end or overflow. One- and two-byte varints, most
/// counters and latency sums, take the inlined fast path.
#[inline(always)]
fn read_uv(bytes: &[u8], pos: &mut usize) -> u64 {
    let b0 = bytes[*pos];
    if b0 < 0x80 {
        *pos += 1;
        return u64::from(b0);
    }
    let b1 = bytes[*pos + 1];
    if b1 < 0x80 {
        *pos += 2;
        return u64::from(b0 & 0x7f) | u64::from(b1) << 7;
    }
    read_uv_long(bytes, pos)
}

/// [`read_uv`] for a varint of three bytes or more.
#[inline(never)]
fn read_uv_long(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
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

/// Encodes one sparse table in a single pass: [`push`](Encoder::push)
/// the touched rows in ascending index order, then
/// [`finish`](Encoder::finish) with the magic and header.
pub(crate) struct Encoder<const N: usize> {
    /// The closed (gap, len) runs.
    runs: Vec<u8>,
    run_count: u64,
    /// The open run's gap and length (`len == 0`: no row yet).
    gap: u64,
    len: u64,
    /// One past the last pushed row index.
    next: u64,
    /// One buffer per field column.
    cols: [Vec<u8>; N],
}

impl<const N: usize> Encoder<N> {
    /// An encoder expecting about `rows` rows: each column reserves a
    /// byte per row, the width of most counters.
    pub(crate) fn new(rows: usize) -> Encoder<N> {
        Encoder {
            runs: Vec::new(),
            run_count: 0,
            gap: 0,
            len: 0,
            next: 0,
            cols: std::array::from_fn(|_| Vec::with_capacity(rows)),
        }
    }

    /// Appends row `idx`, which must be above every row pushed so far.
    pub(crate) fn push(&mut self, idx: u32, fields: &[u64; N]) {
        let idx = u64::from(idx);
        debug_assert!(idx >= self.next, "rows must be pushed in ascending order");
        if self.len > 0 && idx == self.next {
            self.len += 1;
        } else {
            self.close_run();
            self.gap = idx - self.next;
            self.len = 1;
        }
        self.next = idx + 1;
        for (col, &v) in self.cols.iter_mut().zip(fields) {
            put_uv(col, v);
        }
    }

    fn close_run(&mut self) {
        if self.len > 0 {
            put_uv(&mut self.runs, self.gap);
            put_uv(&mut self.runs, self.len);
            self.run_count += 1;
        }
    }

    /// The encoded table, in one allocation of exactly its length.
    pub(crate) fn finish(mut self, magic: [u8; 4], header: &[u64]) -> Vec<u8> {
        self.close_run();
        let mut head = Vec::with_capacity(4 + 10 * (header.len() + 1));
        head.extend_from_slice(&magic);
        for &h in header {
            put_uv(&mut head, h);
        }
        put_uv(&mut head, self.run_count);
        let len = head.len() + self.runs.len() + self.cols.iter().map(Vec::len).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&head);
        out.extend_from_slice(&self.runs);
        for col in &self.cols {
            out.extend_from_slice(col);
        }
        out
    }
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

/// A sparse table whose every byte [`parse`](Table::parse) has
/// checked: `H` header words, then rows of `N` fields that
/// [`for_each_row`](Table::for_each_row) visits without failing.
pub(crate) struct Table<'a, const H: usize, const N: usize> {
    /// The header words, in layout order.
    pub header: [u64; H],
    bytes: &'a [u8],
    /// Where the (gap, len) runs start, and how many there are.
    runs_at: usize,
    run_count: u64,
    /// One past the highest row index carried (0 without rows).
    end: u64,
    /// Where each field column starts.
    cols: [usize; N],
}

impl<'a, const H: usize, const N: usize> Table<'a, H, N> {
    /// Validates [`Encoder`] output. `magic` and `H` pin the layout
    /// version; anything that does not parse exactly (wrong magic,
    /// short data, a bad varint, an empty or overflowing run, trailing
    /// bytes) is an error — snapshots feed byte-identity checks, so
    /// leniency would only mask corruption.
    pub(crate) fn parse(bytes: &'a [u8], magic: [u8; 4]) -> Result<Self, ProfileError> {
        if bytes.len() < 4 || bytes[..4] != magic {
            return Err(malformed("magic/version tag mismatch"));
        }
        let mut pos = 4;
        let mut header = [0u64; H];
        for word in &mut header {
            *word = get_uv(bytes, &mut pos)?;
        }
        let run_count = get_uv(bytes, &mut pos)?;
        if run_count > bytes.len() as u64 {
            // Each run costs at least two bytes; a larger claim is
            // corrupt.
            return Err(malformed("run count exceeds available data"));
        }
        let runs_at = pos;
        let mut rows = 0u64;
        let mut next = 0u64;
        for _ in 0..run_count {
            let gap = get_uv(bytes, &mut pos)?;
            let len = get_uv(bytes, &mut pos)?;
            if len == 0 {
                return Err(malformed("empty run"));
            }
            let end = next
                .checked_add(gap)
                .and_then(|start| start.checked_add(len))
                .ok_or_else(|| malformed("run overflows index space"))?;
            if end > u64::from(u32::MAX) {
                return Err(malformed("run exceeds addressable rows"));
            }
            // Every row costs at least N ≥ 1 column bytes, so more
            // rows than bytes is corrupt.
            if rows + len > bytes.len() as u64 {
                return Err(malformed("row count exceeds available data"));
            }
            rows += len;
            next = end;
        }
        let mut cols = [0usize; N];
        for col in &mut cols {
            *col = pos;
            pos = skip_uvs(bytes, pos, rows)?;
        }
        if pos != bytes.len() {
            return Err(malformed("trailing bytes after columns"));
        }
        Ok(Table {
            header,
            bytes,
            runs_at,
            run_count,
            end: next,
            cols,
        })
    }

    /// One past the highest row index carried: a table of `len` rows
    /// can hold every row iff `end() <= len`.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// Visits every row in ascending index order with its `N` field
    /// values.
    pub(crate) fn for_each_row(&self, mut visit: impl FnMut(usize, [u64; N])) {
        let bytes = self.bytes;
        let mut at = self.runs_at;
        let mut cursors = self.cols;
        let mut next = 0u64;
        for _ in 0..self.run_count {
            let start = next + read_uv(bytes, &mut at);
            let end = start + read_uv(bytes, &mut at);
            for idx in start..end {
                visit(
                    idx as usize,
                    std::array::from_fn(|f| read_uv(bytes, &mut cursors[f])),
                );
            }
            next = end;
        }
    }
}

#[cfg(test)]
pub(crate) mod reference {
    //! The row-materializing codec the streaming one replaced, kept as
    //! the reference the tests hold it to. One deliberate difference:
    //! a run gap that overflows `u64` is refused here, as in
    //! [`Table::parse`](super::Table::parse); the replaced decoder
    //! wrapped it in release builds and panicked in debug ones.

    use super::*;

    /// Encodes `rows` (ascending by index) the way the replaced
    /// encoder did: runs first, then field-major columns.
    pub(crate) fn encode<const N: usize>(
        magic: [u8; 4],
        header: &[u64],
        rows: &[(u32, [u64; N])],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&magic);
        for &h in header {
            put_uv(&mut buf, h);
        }
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut next = 0u64;
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
        for field in 0..N {
            for (_, cols) in rows {
                put_uv(&mut buf, cols[field]);
            }
        }
        buf
    }

    /// A decoded table, materialized row-major.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) struct Decoded<const N: usize> {
        pub header: Vec<u64>,
        pub rows: Vec<(u32, [u64; N])>,
    }

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
            let start = next
                .checked_add(gap)
                .ok_or_else(|| malformed("run overflows index space"))?;
            let end = start
                .checked_add(len)
                .ok_or_else(|| malformed("run overflows index space"))?;
            if end > u64::from(u32::MAX) {
                return Err(malformed("run exceeds addressable rows"));
            }
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

    /// Whether the streaming decoder agrees with [`decode`] on
    /// `bytes`: both refuse, or both accept with the same header and
    /// rows.
    pub(crate) fn agrees<const H: usize, const N: usize>(bytes: &[u8], magic: [u8; 4]) -> bool {
        match (
            Table::<H, N>::parse(bytes, magic),
            decode::<N>(bytes, magic, H),
        ) {
            (Err(_), Err(_)) => true,
            (Ok(table), Ok(old)) => {
                table.header[..] == old.header[..] && super::tests::rows_of(&table) == old.rows
            }
            _ => false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    const MAGIC: [u8; 4] = *b"TST1";

    /// Every row of `table`, materialized.
    pub(crate) fn rows_of<const H: usize, const N: usize>(
        table: &Table<'_, H, N>,
    ) -> Vec<(u32, [u64; N])> {
        let mut rows = Vec::new();
        table.for_each_row(|i, fields| rows.push((i as u32, fields)));
        rows
    }

    fn encode<const N: usize>(header: &[u64], rows: &[(u32, [u64; N])]) -> Vec<u8> {
        let mut enc = Encoder::<N>::new(rows.len());
        for (i, fields) in rows {
            enc.push(*i, fields);
        }
        enc.finish(MAGIC, header)
    }

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
        let rows: Vec<(u32, [u64; 3])> = vec![
            (0, [1, 2, 3]),
            (1, [4, 0, 6]),
            (7, [7, 8, 9]),
            (8, [0, 0, 1]),
            (100, [u64::MAX, 0, 127]),
        ];
        let bytes = encode(&[42, 1000], &rows);
        assert_eq!(bytes, reference::encode(MAGIC, &[42, 1000], &rows));
        let back = Table::<2, 3>::parse(&bytes, MAGIC).unwrap();
        assert_eq!(back.header, [42, 1000]);
        assert_eq!(back.end(), 101);
        assert_eq!(rows_of(&back), rows);
    }

    #[test]
    fn empty_table_round_trips() {
        let bytes = encode::<4>(&[7], &[]);
        assert_eq!(bytes, reference::encode::<4>(MAGIC, &[7], &[]));
        let back = Table::<1, 4>::parse(&bytes, MAGIC).unwrap();
        assert_eq!(back.header, [7]);
        assert_eq!(back.end(), 0);
        assert!(rows_of(&back).is_empty());
    }

    #[test]
    fn parse_rejects_wrong_magic_and_trailing_bytes() {
        let mut bytes = encode::<2>(&[1], &[(3, [5, 6])]);
        assert!(Table::<1, 2>::parse(&bytes, *b"TST2").is_err());
        bytes.push(0);
        assert!(Table::<1, 2>::parse(&bytes, MAGIC).is_err());
    }

    #[test]
    fn a_gap_that_overflows_the_index_space_is_refused() {
        // One run at row 1, then a gap of u64::MAX: in u64 arithmetic
        // the second run would wrap round to start at row 1 again.
        let mut bytes = MAGIC.to_vec();
        put_uv(&mut bytes, 2);
        for v in [1, 1, u64::MAX, 1, 5, 6] {
            put_uv(&mut bytes, v);
        }
        assert!(Table::<0, 1>::parse(&bytes, MAGIC).is_err());
        assert!(reference::decode::<1>(&bytes, MAGIC, 0).is_err());
    }

    #[test]
    fn encoded_tables_carry_no_spare_capacity() {
        let rows: Vec<(u32, [u64; 20])> = (0..5_000u32)
            .filter(|i| i % 7 != 3)
            .map(|i| (i, std::array::from_fn(|f| u64::from(i) * f as u64)))
            .collect();
        let bytes = encode(&[1, 2, 3], &rows);
        assert_eq!(bytes.capacity(), bytes.len());
    }

    /// Ascending rows with random gaps, runs and values of every
    /// width.
    fn table() -> impl Strategy<Value = Vec<(u32, [u64; 3])>> {
        let value = || prop_oneof![0u64..4, 0u64..300, any::<u64>()];
        let row = (0u32..3, 1usize..5, (value(), value(), value()));
        prop::collection::vec(row, 0..40).prop_map(|runs| {
            let mut rows = Vec::new();
            let mut next = 0u32;
            for (gap, len, (a, b, c)) in runs {
                next += gap;
                for k in 0..len as u64 {
                    rows.push((next, [a, b.wrapping_add(k), c]));
                    next += 1;
                }
            }
            rows
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streaming encoder writes the replaced encoder's bytes,
        /// and the streaming decoder reads them back.
        #[test]
        fn streaming_codec_matches_the_reference(rows in table(), h in any::<u64>()) {
            let bytes = encode(&[h, 9], &rows);
            prop_assert_eq!(&bytes, &reference::encode(MAGIC, &[h, 9], &rows));
            prop_assert_eq!(bytes.capacity(), bytes.len());
            let back = Table::<2, 3>::parse(&bytes, MAGIC).unwrap();
            prop_assert_eq!(rows_of(&back), rows.clone());
            prop_assert_eq!(back.end(), rows.last().map_or(0, |r| u64::from(r.0) + 1));
        }

        /// Truncations, byte edits and bit flips of valid tables: the
        /// decoders agree on every one.
        #[test]
        fn damaged_tables_are_refused_or_read_as_the_reference_reads_them(
            rows in table(),
            at in any::<usize>(),
            byte in any::<u8>(),
            bit in 0u8..8,
        ) {
            let bytes = encode(&[3, 1000], &rows);
            let at = at % bytes.len();
            prop_assert!(reference::agrees::<2, 3>(&bytes[..at], MAGIC));
            let mut edited = bytes.clone();
            edited[at] = byte;
            prop_assert!(reference::agrees::<2, 3>(&edited, MAGIC));
            let mut flipped = bytes;
            flipped[at] ^= 1 << bit;
            prop_assert!(reference::agrees::<2, 3>(&flipped, MAGIC));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// On arbitrary bytes behind a valid magic the decoder accepts
        /// exactly what the reference accepts, with the same rows. The
        /// bytes are short and mostly small, so that some parse.
        #[test]
        fn parse_accepts_exactly_what_the_reference_accepts(
            body in prop::collection::vec(prop_oneof![0u8..3, 0u8..3, any::<u8>()], 0..20),
        ) {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&body);
            prop_assert!(reference::agrees::<1, 2>(&bytes, MAGIC));
            prop_assert!(reference::agrees::<0, 1>(&bytes, MAGIC));
        }
    }
}
