//! The durable profile store: a delta WAL plus snapshot compaction,
//! so an aggregation service survives a restart without losing its
//! acknowledged history — the paper's fleet-wide, always-on profile
//! database made crash-safe.
//!
//! # Layout
//!
//! A store is one directory:
//!
//! * `wal-<seq>.seg` — append-only segments of CRC-framed sparse
//!   delta records (see [`wal`](crate::wal) for the framing). Every
//!   record is one [`ShardAggregate::extract_delta_bytes`] chunk, in
//!   publication order.
//! * `snap-<seq>.img` — at most one full image, written by
//!   compaction through the canonical encode entry point
//!   ([`ShardAggregate::checkpoint_bytes`], i.e.
//!   `encode(WireFormat::Sparse)` — `PMS1`/`PMP1` magic). The
//!   sequence number names the first segment the image does **not**
//!   cover.
//!
//! # Compaction invariant
//!
//! `decode(snap-<N>.img)` equals the empty aggregate plus every
//! record of every segment with sequence `< N`, so recovery is always
//! *image + replay of segments `>= N`* and never applies a record
//! twice. Compaction enforces this by rotating to a fresh segment
//! first, writing the image to a temporary file, persisting it with
//! an atomic rename, and only then deleting the consumed segments —
//! a crash at any point leaves either the old image with all its
//! segments or the new image with (a superset of) its own.
//!
//! # Recovery ordering
//!
//! 1. pick the newest image that decodes (a half-written temporary
//!    never has the final name); when images exist but none decodes,
//!    refuse with [`ProfileError::Store`] and change nothing;
//! 2. drop segments and images older than it (leftovers of an
//!    interrupted compaction cleanup);
//! 3. replay the remaining segments in sequence order, applying each
//!    record;
//! 4. a torn or corrupt record in the **final** segment ends the
//!    replay and is dropped — exactly the record a crash could tear —
//!    while a tear followed by later segments is refused as
//!    [`ProfileError::Store`], because silently skipping an interior
//!    record would corrupt every aggregate after it.

use crate::service::ShardAggregate;
use crate::wal::{self, Wal};
use profileme_core::ProfileError;
use serde::Serialize;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

const IMAGE_PREFIX: &str = "snap-";
const IMAGE_SUFFIX: &str = ".img";
const IMAGE_TMP_SUFFIX: &str = ".img.tmp";

/// Durable-store knobs, carried by
/// [`ServeConfig::store`](crate::ServeConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// The store directory; created on open if absent.
    pub data_dir: PathBuf,
    /// Size target of one WAL segment in bytes: the log rotates to a
    /// fresh segment once the active one reaches this. Smaller
    /// segments bound how much one compaction deletes at a time;
    /// larger ones mean fewer files.
    pub segment_bytes: u64,
    /// Delta records between snapshot compactions; `0` never
    /// compacts (the log only grows until
    /// [`ProfileStore::compact`] is called explicitly).
    pub compact_every: u64,
}

impl StoreConfig {
    /// A configuration for `data_dir` with the default segment size
    /// (256 KiB) and compaction cadence (every 1024 records).
    pub fn new(data_dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            data_dir: data_dir.into(),
            segment_bytes: 256 * 1024,
            compact_every: 1024,
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects an empty `data_dir` and a zero `segment_bytes`.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.data_dir.as_os_str().is_empty() {
            return Err(ProfileError::config("data_dir", "must not be empty"));
        }
        if self.segment_bytes == 0 {
            return Err(ProfileError::config(
                "segment_bytes",
                "must be at least 1 (got 0)",
            ));
        }
        Ok(())
    }
}

impl Serialize for StoreConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "data_dir".to_string(),
                serde::Value::Str(self.data_dir.display().to_string()),
            ),
            ("segment_bytes".to_string(), self.segment_bytes.to_value()),
            ("compact_every".to_string(), self.compact_every.to_value()),
        ])
    }
}

/// Counters of one open [`ProfileStore`]: what recovery replayed and
/// what has been appended since.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StoreStats {
    /// WAL records replayed on open.
    pub recovered_records: u64,
    /// Payload bytes across the replayed records.
    pub recovered_bytes: u64,
    /// Bytes of torn tail dropped (and truncated) on open.
    pub dropped_tail_bytes: u64,
    /// Sequence number of the segment whose tail was torn, when one
    /// was found.
    pub torn_segment: Option<u64>,
    /// Byte offset of the tear within that segment — the end of its
    /// last valid record.
    pub torn_offset: Option<u64>,
    /// Records appended since open.
    pub appended_records: u64,
    /// Framed bytes across the appended records.
    pub appended_bytes: u64,
    /// Snapshot compactions since open.
    pub compactions: u64,
}

/// One WAL segment as seen by [`store_info`].
#[derive(Debug, Clone, Serialize)]
pub struct SegmentInfo {
    /// Segment sequence number.
    pub seq: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Intact records in the file.
    pub records: u64,
    /// Whether the file ends in a torn or corrupt record.
    pub torn: bool,
}

/// A static description of a store directory: the image, the
/// segments, and their record counts — no replay, no mutation.
#[derive(Debug, Clone, Serialize)]
pub struct StoreInfo {
    /// Sequence number of the newest image file, if any.
    pub image_seq: Option<u64>,
    /// Size of that image in bytes.
    pub image_bytes: u64,
    /// The image's leading magic (`"PMS1"`, `"PMP1"`, or `"JSON"`).
    pub image_magic: Option<String>,
    /// Every segment, in sequence order.
    pub segments: Vec<SegmentInfo>,
    /// Intact records across all segments.
    pub records: u64,
    /// Payload bytes across those records.
    pub record_bytes: u64,
    /// Bytes past the last intact record (a torn tail; 0 when clean).
    pub torn_bytes: u64,
}

/// What [`recover`](ProfileStore::recover) rebuilt, without opening
/// the store for appends.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    image_seq: Option<u64>,
    records: u64,
    bytes: u64,
    dropped_tail: u64,
    torn_segment: Option<u64>,
    torn_offset: Option<u64>,
    next_seq: u64,
}

fn image_name(seq: u64) -> String {
    format!("{IMAGE_PREFIX}{seq:08}{IMAGE_SUFFIX}")
}

fn parse_image_name(name: &str) -> Option<u64> {
    name.strip_prefix(IMAGE_PREFIX)?
        .strip_suffix(IMAGE_SUFFIX)?
        .parse()
        .ok()
}

/// Every image in `dir`, sorted by sequence number.
fn list_images(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ProfileError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| wal::io_err("list", dir, e))? {
        let entry = entry.map_err(|e| wal::io_err("list", dir, e))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_image_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// The shared recovery walk: image + telescoped deltas. With
/// `repair` set it also truncates a torn tail and deletes files
/// superseded by the chosen image; read-only callers (verify, dump)
/// leave the directory untouched.
fn recover_dir<A: ShardAggregate>(
    dir: &Path,
    empty: Option<A>,
    repair: bool,
) -> Result<(A, Replay), ProfileError> {
    let mut replay = Replay::default();
    // 1. The newest decodable image wins. Temporaries from a crashed
    //    compaction never carry the final name and are swept here.
    let images = list_images(dir)?;
    let mut state: Option<A> = None;
    let mut newest_failure: Option<(&Path, ProfileError)> = None;
    for (seq, path) in images.iter().rev() {
        let bytes = fs::read(path).map_err(|e| wal::io_err("read", path, e))?;
        match A::from_checkpoint_bytes(&bytes) {
            Ok(decoded) => {
                state = Some(decoded);
                replay.image_seq = Some(*seq);
                break;
            }
            Err(e) => {
                newest_failure.get_or_insert((path, e));
            }
        }
    }
    // Images exist but none decodes: refuse and delete nothing. The
    // newest image holds history that compaction already trimmed from
    // the segments, so starting from empty would silently lose it.
    if let (None, Some((path, e))) = (&state, newest_failure) {
        return Err(ProfileError::store_at(
            format!("no snapshot image decodes (newest: {e})"),
            path,
            None,
        ));
    }
    if repair {
        // Everything but the chosen image: undecodable newer debris
        // and superseded older images.
        for (seq, path) in &images {
            if Some(*seq) != replay.image_seq {
                fs::remove_file(path).map_err(|e| wal::io_err("remove", path, e))?;
            }
        }
        for entry in fs::read_dir(dir).map_err(|e| wal::io_err("list", dir, e))? {
            let entry = entry.map_err(|e| wal::io_err("list", dir, e))?;
            let name = entry.file_name();
            if name.to_str().is_some_and(|n| n.ends_with(IMAGE_TMP_SUFFIX)) {
                fs::remove_file(entry.path())
                    .map_err(|e| wal::io_err("remove", &entry.path(), e))?;
            }
        }
    }
    let mut state = match (state, empty) {
        (Some(s), _) => s,
        (None, Some(e)) => e,
        (None, None) => return Err(ProfileError::store_at("no snapshot image found", dir, None)),
    };
    // 2./3. Replay segments the image does not cover, in order.
    let covered = replay.image_seq.unwrap_or(0);
    replay.next_seq = covered;
    let segments = wal::list_segments(dir)?;
    let last_seq = segments.last().map(|(seq, _)| *seq);
    for (seq, path) in segments {
        if seq < covered {
            if repair {
                fs::remove_file(&path).map_err(|e| wal::io_err("remove", &path, e))?;
            }
            continue;
        }
        replay.next_seq = seq;
        let scan = wal::scan_segment(&path)?;
        for record in &scan.records {
            replay.bytes += record.len() as u64;
            state.apply_delta_bytes(record)?;
        }
        replay.records += scan.records.len() as u64;
        // 4. A tear is legal only at the very end of the log.
        if let Some(why) = scan.torn {
            if Some(seq) != last_seq {
                return Err(ProfileError::store_at(
                    format!("{why} but later segments exist — refusing to skip interior records"),
                    &path,
                    Some(scan.valid_bytes),
                ));
            }
            replay.dropped_tail = scan.total_bytes - scan.valid_bytes;
            replay.torn_segment = Some(seq);
            replay.torn_offset = Some(scan.valid_bytes);
            if repair {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| wal::io_err("open", &path, e))?;
                f.set_len(scan.valid_bytes)
                    .map_err(|e| wal::io_err("truncate", &path, e))?;
            }
        }
    }
    Ok((state, replay))
}

/// The durable profile store: owns the WAL's append end and the
/// compaction cadence for one aggregate. Opened by the service when
/// [`ServeConfig::store`](crate::ServeConfig) is set, or directly for
/// offline tooling.
pub struct ProfileStore<A: ShardAggregate> {
    cfg: StoreConfig,
    wal: Wal,
    records_since_compact: u64,
    stats: StoreStats,
    _aggregate: PhantomData<fn() -> A>,
}

impl<A: ShardAggregate> ProfileStore<A> {
    /// Opens (creating if necessary) the store in
    /// `cfg.data_dir` and recovers its content: the newest image plus
    /// every intact WAL record after it, byte-identical to direct
    /// aggregation of everything previously appended. A torn tail is
    /// truncated — dropping exactly the record a crash tore — and a
    /// fresh directory starts from `empty`, whose image is written
    /// immediately so the store always recovers standalone.
    ///
    /// Returns the store (ready for appends) and the recovered
    /// aggregate.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an invalid `cfg`,
    /// [`ProfileError::Store`] for I/O failures, an interior torn
    /// record, or image files none of which decodes (naming the newest
    /// and its decode error; nothing is deleted), and
    /// [`ProfileError::Mismatch`] if the stored profile does not
    /// describe `empty`'s program.
    pub fn open(cfg: StoreConfig, empty: A) -> Result<(ProfileStore<A>, A), ProfileError> {
        cfg.validate()?;
        fs::create_dir_all(&cfg.data_dir).map_err(|e| wal::io_err("create", &cfg.data_dir, e))?;
        let (state, replay) = recover_dir::<A>(&cfg.data_dir, Some(empty.clone()), true)?;
        // The image names its own program and sampling interval; refuse
        // a store written for another before anything is appended to
        // it, or every later recovery would fail on the foreign deltas.
        let mut probe = empty;
        probe.merge(&state)?;
        let wal = Wal::open_at(&cfg.data_dir, cfg.segment_bytes, replay.next_seq)?;
        let mut store = ProfileStore {
            cfg,
            wal,
            records_since_compact: replay.records,
            stats: StoreStats {
                recovered_records: replay.records,
                recovered_bytes: replay.bytes,
                dropped_tail_bytes: replay.dropped_tail,
                torn_segment: replay.torn_segment,
                torn_offset: replay.torn_offset,
                ..StoreStats::default()
            },
            _aggregate: PhantomData,
        };
        if replay.image_seq.is_none() {
            // First open (or a directory missing its image): compact
            // immediately so recovery never depends on the caller
            // supplying the empty prototype again.
            store.compact(&state)?;
        }
        Ok((store, state))
    }

    /// [`open`](ProfileStore::open) for an existing store only: no
    /// prototype is needed because the image on disk provides the
    /// base state. The offline `profileme store` subcommands use
    /// this.
    ///
    /// # Errors
    ///
    /// As [`open`](ProfileStore::open), plus [`ProfileError::Store`]
    /// if the directory holds no image at all.
    pub fn open_existing(cfg: StoreConfig) -> Result<(ProfileStore<A>, A), ProfileError> {
        cfg.validate()?;
        let (state, replay) = recover_dir::<A>(&cfg.data_dir, None, true)?;
        let wal = Wal::open_at(&cfg.data_dir, cfg.segment_bytes, replay.next_seq)?;
        Ok((
            ProfileStore {
                cfg,
                wal,
                records_since_compact: replay.records,
                stats: StoreStats {
                    recovered_records: replay.records,
                    recovered_bytes: replay.bytes,
                    dropped_tail_bytes: replay.dropped_tail,
                    torn_segment: replay.torn_segment,
                    torn_offset: replay.torn_offset,
                    ..StoreStats::default()
                },
                _aggregate: PhantomData,
            },
            state,
        ))
    }

    /// Rebuilds the aggregate from a store directory **read-only**:
    /// no truncation, no cleanup, no append handle — the walk behind
    /// `profileme store {dump,verify}`. A torn tail is skipped (and
    /// reported in the stats) but left on disk.
    ///
    /// # Errors
    ///
    /// As [`open_existing`](ProfileStore::open_existing).
    pub fn recover(dir: &Path) -> Result<(A, StoreStats), ProfileError> {
        let (state, replay) = recover_dir::<A>(dir, None, false)?;
        Ok((
            state,
            StoreStats {
                recovered_records: replay.records,
                recovered_bytes: replay.bytes,
                dropped_tail_bytes: replay.dropped_tail,
                torn_segment: replay.torn_segment,
                torn_offset: replay.torn_offset,
                ..StoreStats::default()
            },
        ))
    }

    /// Appends one sparse delta record to the WAL. The bytes must be
    /// an [`extract_delta_bytes`](ShardAggregate::extract_delta_bytes)
    /// chunk for this store's aggregate lineage, appended in
    /// publication order.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Store`] on I/O failure.
    pub fn append(&mut self, delta: &[u8]) -> Result<(), ProfileError> {
        let framed = self.wal.append(delta)?;
        self.stats.appended_records += 1;
        self.stats.appended_bytes += framed;
        self.records_since_compact += 1;
        Ok(())
    }

    /// Runs a compaction if at least `compact_every` records
    /// accumulated since the last one. `image` must be the aggregate
    /// of *everything appended so far* (the service passes its
    /// materialized view). Returns whether a compaction ran.
    ///
    /// # Errors
    ///
    /// As [`compact`](ProfileStore::compact).
    pub fn maybe_compact(&mut self, image: &A) -> Result<bool, ProfileError> {
        if self.cfg.compact_every > 0 && self.records_since_compact >= self.cfg.compact_every {
            self.compact(image)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Compacts unconditionally: rotates to a fresh segment, writes
    /// `image` as the new snapshot image (temp file + atomic rename),
    /// then deletes the consumed segments and the superseded image.
    /// See the module docs for why this ordering is crash-safe.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if `image` fails to encode,
    /// or [`ProfileError::Store`] on I/O failure.
    pub fn compact(&mut self, image: &A) -> Result<(), ProfileError> {
        self.wal.rotate()?;
        let seq = self.wal.active_seq();
        let bytes = image.checkpoint_bytes()?;
        let dir = &self.cfg.data_dir;
        let tmp = dir.join(format!("{IMAGE_PREFIX}{seq:08}{IMAGE_TMP_SUFFIX}"));
        let path = dir.join(image_name(seq));
        let mut f = fs::File::create(&tmp).map_err(|e| wal::io_err("create", &tmp, e))?;
        f.write_all(&bytes)
            .map_err(|e| wal::io_err("write", &tmp, e))?;
        f.sync_all().map_err(|e| wal::io_err("sync", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| wal::io_err("rename", &tmp, e))?;
        // The image is durable under its final name: everything it
        // supersedes can go.
        for (old, p) in list_images(dir)? {
            if old < seq {
                fs::remove_file(&p).map_err(|e| wal::io_err("remove", &p, e))?;
            }
        }
        for (old, p) in wal::list_segments(dir)? {
            if old < seq {
                fs::remove_file(&p).map_err(|e| wal::io_err("remove", &p, e))?;
            }
        }
        self.stats.compactions += 1;
        self.records_since_compact = 0;
        Ok(())
    }

    /// Flushes the WAL's active segment to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Store`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), ProfileError> {
        self.wal.sync()
    }

    /// This store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Recovery and append counters since open.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

/// Describes a store directory without replaying it: the image, each
/// segment's record count, and any torn tail — the read-only walk
/// behind `profileme store info`.
///
/// # Errors
///
/// Returns [`ProfileError::Store`] if the directory cannot be read.
pub fn store_info(dir: &Path) -> Result<StoreInfo, ProfileError> {
    let images = list_images(dir)?;
    let (image_seq, image_bytes, image_magic) = match images.last() {
        None => (None, 0, None),
        Some((seq, path)) => {
            let bytes = fs::read(path).map_err(|e| wal::io_err("read", path, e))?;
            let magic = match bytes.first() {
                Some(b'{') => "JSON".to_string(),
                _ => String::from_utf8_lossy(&bytes[..bytes.len().min(4)]).into_owned(),
            };
            (Some(*seq), bytes.len() as u64, Some(magic))
        }
    };
    let mut info = StoreInfo {
        image_seq,
        image_bytes,
        image_magic,
        segments: Vec::new(),
        records: 0,
        record_bytes: 0,
        torn_bytes: 0,
    };
    for (seq, path) in wal::list_segments(dir)? {
        let scan = wal::scan_segment(&path)?;
        info.records += scan.records.len() as u64;
        info.record_bytes += scan.records.iter().map(|r| r.len() as u64).sum::<u64>();
        info.torn_bytes += scan.total_bytes - scan.valid_bytes;
        info.segments.push(SegmentInfo {
            seq,
            bytes: scan.total_bytes,
            records: scan.records.len() as u64,
            torn: scan.torn.is_some(),
        });
    }
    Ok(info)
}
