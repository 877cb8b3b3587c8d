//! The append-only segment log under the durable profile store.
//!
//! A log is a directory of numbered segment files
//! (`wal-00000000.seg`, `wal-00000001.seg`, …), each a concatenation
//! of framed records:
//!
//! ```text
//! ┌──────────────┬──────────────┬──────────────────┐
//! │ len: u32 LE  │ crc: u32 LE  │ payload (len B)  │
//! └──────────────┴──────────────┴──────────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE 802.3 polynomial, as zlib) over the payload.
//! Records never span segments: a record is appended whole to the
//! active segment, and the log rotates to a fresh segment once the
//! active one has reached its size target. A crash can therefore tear
//! at most the final record of the final segment, and
//! [`scan_segment`] classifies exactly that: a short header, a short
//! payload, or a CRC mismatch ends the valid prefix, and everything
//! before it is intact.

use profileme_core::ProfileError;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Bytes of framing in front of every record payload.
pub(crate) const RECORD_HEADER_BYTES: u64 = 8;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".seg";

/// Slicing-by-8 lookup tables for the IEEE 802.3 (zlib) polynomial:
/// `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 / zlib) of `bytes`, eight bytes per step.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Wraps an I/O failure as the typed store error, naming the
/// operation and the path.
pub(crate) fn io_err(op: &str, path: &Path, e: std::io::Error) -> ProfileError {
    ProfileError::store_at(format!("{op}: {e}"), path, None)
}

/// The file name of segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{seq:08}{SEGMENT_SUFFIX}")
}

/// Parses a segment file name back to its sequence number.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Every segment in `dir`, sorted by sequence number.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ProfileError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err("list", dir, e))? {
        let entry = entry.map_err(|e| io_err("list", dir, e))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// The parse of one segment file: the intact record payloads, how far
/// the valid prefix reaches, and why it ended early (if it did).
pub(crate) struct SegmentScan {
    /// Record payloads of the valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of the valid prefix (whole records only).
    pub valid_bytes: u64,
    /// Bytes in the file.
    pub total_bytes: u64,
    /// Why the scan stopped before the end of the file: a torn or
    /// corrupt record. `None` when every byte parses.
    pub torn: Option<&'static str>,
}

/// Parses a segment file, stopping at the first record whose framing
/// or checksum does not hold.
pub(crate) fn scan_segment(path: &Path) -> Result<SegmentScan, ProfileError> {
    let bytes = fs::read(path).map_err(|e| io_err("read", path, e))?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < RECORD_HEADER_BYTES as usize {
            torn = Some("truncated record header");
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > remaining - RECORD_HEADER_BYTES as usize {
            torn = Some("truncated record payload");
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            torn = Some("record CRC mismatch");
            break;
        }
        records.push(payload.to_vec());
        pos += RECORD_HEADER_BYTES as usize + len;
    }
    Ok(SegmentScan {
        records,
        valid_bytes: pos as u64,
        total_bytes: bytes.len() as u64,
        torn,
    })
}

/// The live append end of the log: the active segment plus the
/// rotation policy. Replay and recovery are directory-level concerns
/// and live in [`store`](crate::store).
///
/// Appends land in a [`BufWriter`] — one `write` syscall per buffer
/// fill instead of per record keeps the WAL's cost on the service's
/// snapshot path in the noise. [`sync`](Wal::sync) (and therefore
/// rotation and compaction) flushes the buffer before reaching the
/// file, so everything recovery reads is a prefix of what was
/// appended.
pub(crate) struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    active: BufWriter<File>,
    active_path: PathBuf,
    active_seq: u64,
    active_len: u64,
}

impl Wal {
    /// Opens segment `seq` of the log in `dir` for appending,
    /// creating it (and the directory) if absent. Appends continue at
    /// the file's current end — the caller is responsible for having
    /// truncated any torn tail first.
    pub(crate) fn open_at(dir: &Path, segment_bytes: u64, seq: u64) -> Result<Wal, ProfileError> {
        let path = dir.join(segment_name(seq));
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let active_len = active
            .metadata()
            .map_err(|e| io_err("stat", &path, e))?
            .len();

        Ok(Wal {
            dir: dir.to_path_buf(),
            segment_bytes,
            active: BufWriter::new(active),
            active_path: path,
            active_seq: seq,
            active_len,
        })
    }

    /// The sequence number of the segment currently accepting appends.
    pub(crate) fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// Appends one framed record, rotating to a fresh segment
    /// afterwards if the active one reached its size target. Returns
    /// the framed size in bytes.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<u64, ProfileError> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            ProfileError::store(format!(
                "record of {} bytes exceeds the u32 frame",
                payload.len()
            ))
        })?;
        let mut frame = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.active
            .write_all(&frame)
            .map_err(|e| io_err("append", &self.active_path, e))?;
        self.active_len += frame.len() as u64;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(frame.len() as u64)
    }

    /// Moves appends to a fresh segment. A no-op while the active
    /// segment is still empty (it is already fresh).
    pub(crate) fn rotate(&mut self) -> Result<(), ProfileError> {
        if self.active_len == 0 {
            return Ok(());
        }
        self.sync()?;
        let next = Wal::open_at(&self.dir, self.segment_bytes, self.active_seq + 1)?;
        *self = next;
        Ok(())
    }

    /// Flushes the active segment to stable storage: drains the write
    /// buffer, then `fdatasync`s the file.
    pub(crate) fn sync(&mut self) -> Result<(), ProfileError> {
        self.active
            .flush()
            .map_err(|e| io_err("flush", &self.active_path, e))?;
        self.active
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("sync", &self.active_path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/ISO-HDLC test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time CRC-32, independent of the tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Slicing-by-8 agrees with the bitwise definition for every
        /// length up to a page and at every alignment of the start.
        #[test]
        fn crc32_matches_a_bitwise_reference(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0usize..4106),
            start in 0usize..8,
        ) {
            let slice = &bytes[start.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(slice), crc32_bitwise(slice), "len {}", slice.len());
        }
    }

    #[test]
    fn segment_names_round_trip_and_sort() {
        assert_eq!(segment_name(7), "wal-00000007.seg");
        assert_eq!(parse_segment_name("wal-00000007.seg"), Some(7));
        assert_eq!(parse_segment_name("snap-00000007.img"), None);
        assert_eq!(parse_segment_name("wal-x.seg"), None);
        assert!(segment_name(9) < segment_name(10));
    }

    #[test]
    fn append_scan_round_trips_and_tears_drop_exactly_the_tail() {
        let dir = std::env::temp_dir().join(format!("pm-wal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open_at(&dir, 1 << 20, 0).unwrap();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize * 7]).collect();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        let path = dir.join(segment_name(0));
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.torn, None);
        assert_eq!(scan.valid_bytes, scan.total_bytes);

        // Truncate into the middle of the last record's payload: the
        // scan keeps every earlier record and reports the tear.
        let full = scan.total_bytes;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 2).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records, payloads[..4]);
        assert_eq!(scan.torn, Some("truncated record payload"));

        // Truncate into record 3's header: records 0-2 survive and the
        // stray header bytes read as a tear.
        let frame = |i: usize| RECORD_HEADER_BYTES + payloads[i].len() as u64;
        let end2: u64 = (0..3).map(frame).sum();
        f.set_len(end2 + 3).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records, payloads[..3]);
        assert_eq!(scan.torn, Some("truncated record header"));
        assert_eq!(scan.valid_bytes, end2);

        // Flip the last payload byte of the last surviving record: the
        // CRC refuses the record, so only the two before it remain.
        f.set_len(end2).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records, payloads[..2]);
        assert_eq!(scan.torn, Some("record CRC mismatch"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_moves_appends_to_the_next_segment() {
        let dir = std::env::temp_dir().join(format!("pm-wal-rot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Tiny size target: every record lands in its own segment.
        let mut wal = Wal::open_at(&dir, 1, 0).unwrap();
        for i in 0..3u8 {
            wal.append(&[i; 16]).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        let seqs: Vec<u64> = segs.iter().map(|(s, _)| *s).collect();
        // Segments 0..=2 hold one record each; 3 is the fresh active.
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        for (seq, path) in &segs[..3] {
            let scan = scan_segment(path).unwrap();
            assert_eq!(scan.records.len(), 1, "segment {seq}");
            assert_eq!(scan.torn, None);
        }
        // An empty active segment does not rotate.
        wal.rotate().unwrap();
        assert_eq!(wal.active_seq(), 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
