//! Crash-recovery tests of the durable profile store: kill the log at
//! an arbitrary byte offset and prove recovery returns **exactly** the
//! acknowledged prefix.
//!
//! The contract under test, end to end:
//!
//! * recovery after a clean close is byte-identical to direct
//!   aggregation of everything appended;
//! * a kill at *any* byte offset — mid-payload, mid-header, or on a
//!   segment boundary — recovers the image plus every record whose
//!   frame survives whole, and nothing else: the recovered bytes equal
//!   the direct aggregation of that exact acknowledged prefix;
//! * a torn record is legal only at the very end of the log; a tear
//!   *followed by later segments* is refused loudly as
//!   [`ProfileError::Store`] rather than silently skipped;
//! * leftovers of a compaction interrupted at any point (temporary
//!   images, undecodable images, superseded segments) are swept on the
//!   next open without losing a record.
//!
//! The tests parse segment files with the documented wire framing
//! (`[len: u32 LE][crc: u32 LE][payload]`) rather than through the
//! store's own scanner, so a framing regression cannot hide itself.

use profileme_core::{
    PairProfileDatabase, PairedConfig, ProfileDatabase, ProfileError, ProfileMeConfig, Session,
};
use profileme_serve::{ProfileStore, ServeConfig, ShardAggregate, ShardedService, StoreConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

struct SingleStream {
    program: profileme_isa::Program,
    samples: Vec<profileme_core::Sample>,
    interval: u64,
}

/// One simulator run shared by every test (the stream is deterministic;
/// producing it is the expensive part).
fn single_stream() -> &'static SingleStream {
    static STREAM: OnceLock<SingleStream> = OnceLock::new();
    STREAM.get_or_init(|| {
        let w = profileme_workloads::ijpeg(400);
        let run = Session::builder(w.program.clone())
            .memory(w.memory.clone())
            .sampling(ProfileMeConfig {
                mean_interval: 32,
                ..Default::default()
            })
            .build()
            .expect("config is valid")
            .profile_single()
            .expect("workload completes");
        assert!(run.samples.len() > 100, "stream too thin to tear");
        SingleStream {
            program: w.program,
            samples: run.samples,
            interval: run.db.interval(),
        }
    })
}

/// A scratch store directory, unique per call, removed by `Drop` so a
/// failing test never poisons the next run.
struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pm-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        TempStore(dir)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Writes the whole sample stream through a store in `chunk`-sample
/// delta records, exactly the way the service publishes them. Returns
/// the acknowledged-prefix images (`prefixes[k]` = canonical bytes of
/// the empty aggregate plus records `0..k`) and how many records the
/// final on-disk snapshot image covers.
fn write_log(
    dir: &Path,
    segment_bytes: u64,
    compact_every: u64,
    chunk: usize,
) -> (Vec<Vec<u8>>, u64) {
    let s = single_stream();
    let empty = ProfileDatabase::new(&s.program, s.interval);
    let cfg = StoreConfig {
        data_dir: dir.to_path_buf(),
        segment_bytes,
        compact_every,
    };
    let (mut store, recovered) = ProfileStore::open(cfg, empty.clone()).expect("store opens");
    assert_eq!(
        recovered.checkpoint_bytes().unwrap(),
        empty.checkpoint_bytes().unwrap(),
        "a fresh store recovers to the empty aggregate"
    );
    let mut running = empty.clone();
    let mut base = empty;
    let mut prefixes = vec![running.checkpoint_bytes().unwrap()];
    let mut covered = 0u64;
    let mut appended = 0u64;
    for batch in s.samples.chunks(chunk) {
        for sample in batch {
            running.absorb(sample);
        }
        let delta = running
            .extract_delta_bytes(&mut base)
            .expect("delta extracts");
        store.append(&delta).expect("append succeeds");
        appended += 1;
        prefixes.push(running.checkpoint_bytes().unwrap());
        if store.maybe_compact(&running).expect("compaction succeeds") {
            covered = appended;
        }
    }
    store.sync().expect("sync succeeds");
    (prefixes, covered)
}

/// Every WAL segment in `dir`, in sequence order — parsed from the file
/// *names*, independently of the store's own listing.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("store dir lists")
        .map(|e| e.expect("entry reads").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    out.sort();
    out
}

/// Frame ends within one segment file, parsed with the documented
/// framing: each record is `[len: u32 LE][crc: u32 LE][payload]`.
fn frame_ends(bytes: &[u8]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if bytes.len() - pos - 8 < len {
            break;
        }
        pos += 8 + len;
        ends.push(pos as u64);
    }
    ends
}

/// Simulates a kill at global byte offset `g` over the concatenated
/// segment stream: truncates the segment containing `g` and deletes
/// every later one. Returns how many on-disk records survive whole.
fn kill_at(dir: &Path, g: u64) -> u64 {
    let mut offset = 0u64;
    let mut cut = false;
    let mut survivors = 0u64;
    for path in segments(dir) {
        if cut {
            fs::remove_file(&path).expect("later segment removes");
            continue;
        }
        let bytes = fs::read(&path).expect("segment reads");
        let len = bytes.len() as u64;
        if offset + len <= g {
            survivors += frame_ends(&bytes).len() as u64;
            offset += len;
            continue;
        }
        let local = g - offset;
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("segment opens");
        f.set_len(local).expect("segment truncates");
        survivors += frame_ends(&bytes)
            .iter()
            .filter(|&&end| end <= local)
            .count() as u64;
        cut = true;
    }
    survivors
}

/// Total bytes across all segments.
fn log_bytes(dir: &Path) -> u64 {
    segments(dir)
        .iter()
        .map(|p| fs::metadata(p).expect("segment stats").len())
        .sum()
}

/// The core assertion: after a kill at `g`, recovery — both the
/// read-only walk and the repairing open — returns byte-for-byte the
/// direct aggregation of the acknowledged prefix that survived.
fn assert_recovers_exact_prefix(dir: &Path, prefixes: &[Vec<u8>], covered: u64, g: u64) {
    let survivors = kill_at(dir, g);
    let expected = &prefixes[(covered + survivors) as usize];

    // Read-only first: verify/dump must see the same state the
    // repairing open will produce, without mutating anything.
    let (readonly, ro_stats) =
        ProfileStore::<ProfileDatabase>::recover(dir).expect("read-only recovery succeeds");
    assert_eq!(&readonly.checkpoint_bytes().unwrap(), expected);
    assert_eq!(ro_stats.recovered_records, survivors);

    let s = single_stream();
    let empty = ProfileDatabase::new(&s.program, s.interval);
    let (store, recovered) =
        ProfileStore::open(StoreConfig::new(dir), empty.clone()).expect("store reopens");
    assert_eq!(
        &recovered.checkpoint_bytes().unwrap(),
        expected,
        "kill at byte {g}: recovery must equal the acknowledged prefix of {} record(s)",
        covered + survivors
    );
    assert_eq!(store.stats().recovered_records, survivors);
    drop(store);

    // Reopening again is idempotent: the tail was truncated, nothing
    // further is dropped.
    let (store, again) = ProfileStore::open(StoreConfig::new(dir), empty).expect("third open");
    assert_eq!(&again.checkpoint_bytes().unwrap(), expected);
    assert_eq!(store.stats().dropped_tail_bytes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A kill anywhere in a multi-segment, uncompacted log recovers
    /// exactly the records whose frames survived whole.
    #[test]
    fn kill_anywhere_recovers_the_acknowledged_prefix(
        g_permille in 0u64..=1000,
        segment_bytes in prop_oneof![Just(64u64), Just(256), Just(1024)],
        chunk in prop_oneof![Just(10usize), Just(25)],
    ) {
        let tmp = TempStore::new("prop");
        let (prefixes, covered) = write_log(&tmp.0, segment_bytes, 0, chunk);
        prop_assert_eq!(covered, 0, "compaction is off in this case");
        let total = log_bytes(&tmp.0);
        let g = total * g_permille / 1000;
        assert_recovers_exact_prefix(&tmp.0, &prefixes, covered, g);
    }

    /// The same exactness holds *through* compactions: the surviving
    /// image supplies the compacted prefix and the cut log the rest.
    #[test]
    fn kill_anywhere_after_compactions_stays_prefix_exact(
        g_permille in 0u64..=1000,
        compact_every in prop_oneof![Just(3u64), Just(7)],
    ) {
        let tmp = TempStore::new("compact");
        let (prefixes, covered) = write_log(&tmp.0, 512, compact_every, 20);
        prop_assert!(covered > 0, "the cadence must have fired");
        let total = log_bytes(&tmp.0);
        let g = total * g_permille / 1000;
        assert_recovers_exact_prefix(&tmp.0, &prefixes, covered, g);
    }
}

/// Deterministic edge cuts: mid-payload, mid-header, and exactly on a
/// segment boundary.
#[test]
fn edge_offset_kills_are_exact() {
    // One big segment: cut 2 bytes into the final record's payload,
    // then 4 bytes into a mid-log record header.
    let tmp = TempStore::new("edges");
    let (prefixes, covered) = write_log(&tmp.0, u64::MAX, 0, 15);
    let segs = segments(&tmp.0);
    assert_eq!(segs.len(), 1, "u64::MAX segment target never rotates");
    let ends = frame_ends(&fs::read(&segs[0]).unwrap());
    assert!(ends.len() >= 4);
    assert_recovers_exact_prefix(&tmp.0, &prefixes, covered, ends[ends.len() - 1] - 2);

    let tmp = TempStore::new("midheader");
    let (prefixes, covered) = write_log(&tmp.0, u64::MAX, 0, 15);
    let segs = segments(&tmp.0);
    let ends = frame_ends(&fs::read(&segs[0]).unwrap());
    let mid = ends.len() / 2;
    assert_recovers_exact_prefix(&tmp.0, &prefixes, covered, ends[mid] + 4);

    // Small segments: cut exactly on the first segment's end — every
    // record in it survives, every later segment is gone.
    let tmp = TempStore::new("boundary");
    let (prefixes, covered) = write_log(&tmp.0, 128, 0, 10);
    let segs = segments(&tmp.0);
    assert!(segs.len() >= 3, "the log must have rotated");
    let first = fs::metadata(&segs[0]).unwrap().len();
    assert_recovers_exact_prefix(&tmp.0, &prefixes, covered, first);
}

/// A corrupt record in a *non-final* segment is refused outright:
/// skipping an interior record would corrupt every aggregate after it.
#[test]
fn interior_tear_is_refused_not_skipped() {
    let tmp = TempStore::new("interior");
    write_log(&tmp.0, 128, 0, 10);
    let segs = segments(&tmp.0);
    assert!(segs.len() >= 2);
    // Flip one payload byte in the first segment: its CRC now fails
    // while later segments still exist.
    let mut bytes = fs::read(&segs[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&segs[0], &bytes).unwrap();

    let err = ProfileStore::<ProfileDatabase>::recover(&tmp.0)
        .map(|(db, _)| db.total_samples)
        .expect_err("interior tear must fail recovery");
    assert!(
        matches!(&err, ProfileError::Store { reason, .. } if reason.contains("later segments")),
        "unexpected error: {err}"
    );
    // The refusal names the torn segment and the byte offset of the
    // tear (the end of the last intact record).
    if let ProfileError::Store { path, offset, .. } = &err {
        assert_eq!(path.as_deref(), Some(segs[0].as_path()));
        assert!(offset.is_some(), "tear offset must be reported");
        assert!(offset.unwrap() < fs::metadata(&segs[0]).unwrap().len());
    }
    let s = single_stream();
    let empty = ProfileDatabase::new(&s.program, s.interval);
    assert!(ProfileStore::open(StoreConfig::new(&tmp.0), empty).is_err());
}

/// Debris from a compaction interrupted at any point — a temporary
/// image, an undecodable image with the final name, a superseded older
/// image — is swept on open without losing a record. An image whose
/// header claims 2^40 rows is undecodable too, not an allocation that
/// aborts the process.
#[test]
fn interrupted_compaction_debris_is_swept() {
    let tmp = TempStore::new("debris");
    let (prefixes, covered) = write_log(&tmp.0, 512, 5, 20);
    assert!(covered > 0);
    let tmp_img = tmp.0.join("snap-00000099.img.tmp");
    fs::write(&tmp_img, b"half-written").unwrap();
    // Newer than the real image but garbage: recovery must fall back.
    let junk_img = tmp.0.join("snap-00009999.img");
    fs::write(&junk_img, b"not a snapshot").unwrap();
    // `PMS1`, header (base, rows = 2^40, interval, invalid, total), no
    // runs.
    let mut huge = b"PMS1".to_vec();
    for mut v in [0u64, 1 << 40, 32, 0, 0, 0] {
        while v >= 0x80 {
            huge.push((v as u8) | 0x80);
            v >>= 7;
        }
        huge.push(v as u8);
    }
    let huge_img = tmp.0.join("snap-00009998.img");
    fs::write(&huge_img, &huge).unwrap();
    // Older than the real image: superseded, must be removed.
    let old_img = tmp.0.join("snap-00000000.img");
    fs::write(&old_img, b"stale").unwrap();

    let s = single_stream();
    let empty = ProfileDatabase::new(&s.program, s.interval);
    let (_store, recovered) =
        ProfileStore::open(StoreConfig::new(&tmp.0), empty).expect("store reopens over debris");
    assert_eq!(
        &recovered.checkpoint_bytes().unwrap(),
        prefixes.last().unwrap(),
        "debris must not change the recovered state"
    );
    assert!(!tmp_img.exists(), "temporary image swept");
    assert!(!junk_img.exists(), "undecodable image swept");
    assert!(!huge_img.exists(), "undecodable image swept");
    assert!(!old_img.exists(), "superseded image swept");
}

/// A store whose images are all undecodable is refused, not reset:
/// compaction already trimmed the segments the newest image covers,
/// so starting from empty would silently drop that history. Nothing
/// in the directory changes, and repairing the image recovers all of
/// it.
#[test]
fn undecodable_only_image_is_refused_and_left_untouched() {
    let tmp = TempStore::new("bad-image");
    let (prefixes, covered) = write_log(&tmp.0, 512, 5, 20);
    assert!(covered > 0, "some history lives only in the image");
    let image = fs::read_dir(&tmp.0)
        .expect("store dir lists")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "img"))
        .expect("compaction wrote an image");
    let good = fs::read(&image).expect("image reads");
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    fs::write(&image, &bad).expect("image writes");
    let before = dir_contents(&tmp.0);

    let s = single_stream();
    let empty = ProfileDatabase::new(&s.program, s.interval);
    match ProfileStore::open(StoreConfig::new(&tmp.0), empty.clone()) {
        Err(ProfileError::Store { path, reason, .. }) => {
            assert_eq!(path.as_deref(), Some(image.as_path()), "{reason}");
            assert!(reason.contains("magic"), "the decode reason: {reason}");
        }
        other => panic!("expected Store, got {:?}", other.map(drop)),
    }
    assert!(matches!(
        ProfileStore::<ProfileDatabase>::recover(&tmp.0),
        Err(ProfileError::Store { .. })
    ));
    assert!(matches!(
        ProfileStore::<ProfileDatabase>::open_existing(StoreConfig::new(&tmp.0)),
        Err(ProfileError::Store { .. })
    ));
    assert_eq!(dir_contents(&tmp.0), before, "a refused open changed files");

    fs::write(&image, &good).expect("image writes");
    let (_store, recovered) =
        ProfileStore::open(StoreConfig::new(&tmp.0), empty).expect("the repaired store opens");
    assert_eq!(
        &recovered.checkpoint_bytes().unwrap(),
        prefixes.last().unwrap(),
        "the repaired store recovers every record"
    );
}

/// The full service loop: a `ShardedService` with a `data_dir`
/// persists across restarts — the second process picks up exactly
/// where the first stopped, and the combined view is byte-identical
/// to direct aggregation of both runs' streams.
#[test]
fn service_restart_recovers_history() {
    let s = single_stream();
    let tmp = TempStore::new("svc");
    let half = s.samples.len() / 2;
    let config = || {
        ServeConfig::builder()
            .shards(2)
            .data_dir(&tmp.0)
            .compact_every(4)
            .build()
            .expect("config is valid")
    };
    let empty = || ProfileDatabase::new(&s.program, s.interval);
    let mut direct = empty();
    for sample in &s.samples {
        direct.absorb(sample);
    }

    // First run: the front half, snapshot cycles interleaved.
    let svc = ShardedService::start(empty(), config()).expect("first run starts");
    for batch in s.samples[..half].chunks(16) {
        svc.ingest_batch(batch.to_vec());
        svc.snapshot().expect("snapshot cycles");
    }
    let (merged1, stats1) = svc.shutdown().expect("first run drains");
    assert_eq!(stats1.lost(), 0);
    assert_eq!(merged1.total_samples as usize, half);

    // Second run: recovery hands back run one's aggregate before a
    // single new sample arrives, then the back half lands on top.
    let svc = ShardedService::start(empty(), config()).expect("second run starts");
    let recovered = svc.view_merged();
    assert_eq!(
        recovered.checkpoint_bytes().unwrap(),
        merged1.checkpoint_bytes().unwrap(),
        "restart must recover run one byte-identically"
    );
    for batch in s.samples[half..].chunks(16) {
        svc.ingest_batch(batch.to_vec());
    }
    svc.snapshot().expect("snapshot publishes the back half");
    let view = svc.view_merged();
    assert_eq!(
        view.checkpoint_bytes().unwrap(),
        direct.checkpoint_bytes().unwrap(),
        "history + this run must equal direct aggregation of the whole stream"
    );
    let (merged2, stats2) = svc.shutdown().expect("second run drains");
    assert_eq!(stats2.lost(), 0);
    assert_eq!(merged2.total_samples as usize, s.samples.len() - half);

    // Third run: no new ingest, the full history is simply there.
    let svc = ShardedService::start(empty(), config()).expect("third run starts");
    assert_eq!(
        svc.view_merged().checkpoint_bytes().unwrap(),
        direct.checkpoint_bytes().unwrap()
    );
    svc.shutdown().expect("third run drains");
}

/// Every file in `dir`, by name, with its content.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .expect("store dir lists")
        .map(|e| {
            let e = e.expect("entry reads");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, fs::read(e.path()).expect("file reads"))
        })
        .collect();
    files.sort();
    files
}

/// A store written for one program or sampling interval is refused at
/// start with `Mismatch` by a service built for another, and nothing
/// is written to it: a foreign delta in its log would make every later
/// recovery of the store fail.
#[test]
fn foreign_store_is_refused_and_left_untouched() {
    let s = single_stream();
    let tmp = TempStore::new("foreign");
    let config = || {
        ServeConfig::builder()
            .shards(2)
            .data_dir(&tmp.0)
            .build()
            .expect("config is valid")
    };
    let svc = ShardedService::start(ProfileDatabase::new(&s.program, s.interval), config())
        .expect("first run starts");
    svc.ingest_batch(s.samples.clone());
    svc.snapshot().expect("snapshot cycles");
    svc.shutdown().expect("first run drains");
    let before = dir_contents(&tmp.0);

    let other = profileme_workloads::li(400).program;
    for foreign in [
        ProfileDatabase::new(&s.program, s.interval * 2),
        ProfileDatabase::new(&other, s.interval),
    ] {
        match ShardedService::start(foreign, config()) {
            Err(ProfileError::Mismatch { .. }) => {}
            other => panic!("expected Mismatch, got {:?}", other.map(drop)),
        }
        assert_eq!(dir_contents(&tmp.0), before, "a refused start wrote");
    }
    let (recovered, _) =
        ProfileStore::<ProfileDatabase>::recover(&tmp.0).expect("the store still recovers");
    assert_eq!(recovered.total_samples as usize, s.samples.len());
}

/// The paired-sample lineage rides the same store: a `PMP1` image plus
/// pair deltas recover byte-identically too.
#[test]
fn pair_store_round_trips() {
    let w = profileme_workloads::ijpeg(400);
    let run = Session::builder(w.program.clone())
        .memory(w.memory)
        .paired_sampling(PairedConfig {
            mean_major_interval: 32,
            window: 16,
            ..PairedConfig::default()
        })
        .build()
        .expect("config is valid")
        .profile_paired()
        .expect("workload completes");
    assert!(run.pairs.len() > 20, "stream too thin");

    let tmp = TempStore::new("pair");
    let empty = PairProfileDatabase::new(&w.program, run.db.interval(), run.db.window());
    let (mut store, _) =
        ProfileStore::open(StoreConfig::new(&tmp.0), empty.clone()).expect("store opens");
    let mut running = empty.clone();
    let mut base = empty.clone();
    for batch in run.pairs.chunks(10) {
        for pair in batch {
            running.absorb(pair);
        }
        let delta = running
            .extract_delta_bytes(&mut base)
            .expect("delta extracts");
        store.append(&delta).expect("append succeeds");
    }
    store.sync().expect("sync succeeds");
    drop(store);

    let (_store, recovered) =
        ProfileStore::open(StoreConfig::new(&tmp.0), empty).expect("store reopens");
    assert_eq!(
        recovered.checkpoint_bytes().unwrap(),
        running.checkpoint_bytes().unwrap(),
        "pair store recovery must be byte-identical"
    );
    assert_eq!(recovered.total_pairs, run.db.total_pairs);
}
