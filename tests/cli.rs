//! End-to-end tests of the `profileme` command-line tool.

use std::process::Command;

fn profileme(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_profileme"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_names_every_workload() {
    let out = profileme(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in [
        "compress",
        "gcc",
        "go",
        "ijpeg",
        "li",
        "perl",
        "povray",
        "vortex",
        "microbench",
        "loops3",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn instruction_report_runs() {
    let out = profileme(&["--workload", "compress", "--budget", "50000", "--top", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("samples over"), "{text}");
    assert!(text.lines().count() >= 5, "{text}");
}

#[test]
fn procedure_report_runs() {
    let out = profileme(&[
        "--workload",
        "li",
        "--budget",
        "50000",
        "--report",
        "procedures",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("li_walk") && text.contains("li_car"),
        "{text}"
    );
}

#[test]
fn wasted_report_runs() {
    let out = profileme(&[
        "--workload",
        "loops3",
        "--budget",
        "300000",
        "--report",
        "wasted",
        "--interval",
        "48",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("wasted slots"), "{text}");
}

#[test]
fn disasm_report_annotates_instructions() {
    let out = profileme(&[
        "--workload",
        "microbench",
        "--budget",
        "60000",
        "--report",
        "disasm",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("microbench:"), "{text}");
    assert!(text.contains("nop"), "{text}");
    // The load line carries sample annotations.
    let load_line = text
        .lines()
        .find(|l| l.contains("ld r1"))
        .expect("load present");
    assert!(
        load_line.split_whitespace().count() > 4,
        "load line is annotated: {load_line}"
    );
}

#[test]
fn json_output_parses() {
    let out = profileme(&[
        "--workload",
        "go",
        "--budget",
        "50000",
        "--report",
        "procedures",
        "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert!(v.as_array().is_some_and(|a| !a.is_empty()));
}

#[test]
fn serve_subcommand_reports_identical_snapshots() {
    let out = profileme(&[
        "serve",
        "--workload",
        "compress",
        "--budget",
        "50000",
        "--shards",
        "4",
        "--chunks",
        "6",
        "--top",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("through 4 shard(s)"), "got: {text}");
    assert!(
        text.lines().filter(|l| l.starts_with("snapshot")).count() >= 6,
        "one snapshot line per chunk: {text}"
    );
    assert!(
        text.contains("identical to direct aggregation"),
        "the byte-identity cross-check ran: {text}"
    );
}

#[test]
fn serve_json_emits_ingest_stats() {
    let out = profileme(&[
        "serve",
        "--workload",
        "li",
        "--budget",
        "50000",
        "--shards",
        "2",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    let field = |k: &str| v.get(k).and_then(serde_json::Value::as_u64);
    assert_eq!(field("shards"), Some(2));
    assert_eq!(field("dropped"), Some(0), "lossless ingest never drops");
    assert!(field("enqueued").is_some_and(|n| n > 0));
    assert!(field("snapshots").is_some_and(|n| n > 0));
}

#[test]
fn serve_snapshot_cadence_knob() {
    // Snapshotting every second chunk: half the snapshot lines, same
    // byte-identity cross-check at the end.
    let out = profileme(&[
        "serve",
        "--workload",
        "compress",
        "--budget",
        "50000",
        "--shards",
        "2",
        "--chunks",
        "6",
        "--snapshot-every",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.lines().filter(|l| l.starts_with("snapshot")).count(),
        3,
        "one snapshot line per two chunks: {text}"
    );
    assert!(
        text.contains("identical to direct aggregation"),
        "the byte-identity cross-check ran: {text}"
    );
}

#[test]
fn serve_json_reports_snapshot_plane_counters() {
    let out = profileme(&[
        "serve",
        "--workload",
        "li",
        "--budget",
        "50000",
        "--shards",
        "2",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    let field = |k: &str| v.get(k).and_then(serde_json::Value::as_u64);
    // Workers publish sparse epoch deltas and the service maintains the
    // materialized view; the counters must surface in `--json`.
    assert!(field("deltas_published").is_some_and(|n| n > 0));
    assert!(field("delta_bytes").is_some_and(|n| n > 0));
    assert!(field("view_refreshes").is_some_and(|n| n > 0));
}

#[test]
fn serve_without_data_dir_prints_no_store_banner() {
    let out = profileme(&["serve", "--workload", "li", "--budget", "50000"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.lines().any(|l| l.starts_with("# store:")),
        "an in-memory run has no store to report: {text}"
    );
}

#[test]
fn serve_json_reports_supervision_and_degradation_state() {
    let out = profileme(&[
        "serve",
        "--workload",
        "li",
        "--budget",
        "50000",
        "--deadline-ms",
        "5000",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    let field = |k: &str| v.get(k).and_then(serde_json::Value::as_u64);
    // The self-check surface: supervision and loss accounting are
    // part of the machine-readable stats.
    assert_eq!(field("worker_panics"), Some(0));
    assert_eq!(field("workers_recovered"), Some(0));
    for key in ["deadline_misses", "dropped", "lost_to_panics"] {
        assert_eq!(field(key), Some(0), "{key} on a calm lossless run");
    }
}

#[cfg(feature = "fault-injection")]
#[test]
fn serve_fail_spec_recovers_and_reports_it() {
    let out = profileme(&[
        "serve",
        "--workload",
        "compress",
        "--budget",
        "50000",
        "--shards",
        "2",
        "--chunks",
        "8",
        "--fail-spec",
        "panic:shard=0:nth=2",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    let field = |k: &str| v.get(k).and_then(serde_json::Value::as_u64);
    assert_eq!(field("worker_panics"), Some(1), "the injected panic fired");
    assert_eq!(field("workers_recovered"), Some(1), "and was recovered");
    assert_eq!(
        field("lost_to_panics"),
        Some(0),
        "one-shot faults are lossless"
    );
}

#[cfg(feature = "fault-injection")]
#[test]
fn serve_fail_spec_rejects_bad_grammar() {
    let out = profileme(&["serve", "--workload", "li", "--fail-spec", "explode:nth=1"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown fault kind"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[cfg(not(feature = "fault-injection"))]
#[test]
fn serve_fail_spec_requires_the_feature() {
    let out = profileme(&["serve", "--workload", "li", "--fail-spec", "panic:nth=1"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fault-injection"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn optimize_subcommand_reports_layout_changes_and_ipc() {
    let out = profileme(&[
        "optimize",
        "--workload",
        "vortex",
        "--budget",
        "100000",
        "--iterations",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("baseline"), "got: {text}");
    assert!(text.contains("functions relaid out:"), "got: {text}");
    assert!(
        text.contains("original") && text.contains("optimized"),
        "both binaries reported: {text}"
    );
    assert!(text.contains("speedup"), "got: {text}");
}

#[test]
fn optimize_json_parses_and_never_regresses() {
    let out = profileme(&[
        "optimize",
        "--workload",
        "li",
        "--budget",
        "100000",
        "--iterations",
        "2",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("li"));
    assert_eq!(v.get("optimizable").and_then(|b| b.as_bool()), Some(true));
    let cycles = |k: &str| v.get(k).and_then(serde_json::Value::as_u64).unwrap();
    // Keep-best adoption: the optimized binary never loses cycles.
    assert!(cycles("optimized_cycles") <= cycles("baseline_cycles"));
    assert!(v
        .get("speedup")
        .and_then(serde_json::Value::as_f64)
        .is_some_and(|s| s >= 1.0));
    assert!(v
        .get("functions_relaid")
        .and_then(serde_json::Value::as_array)
        .is_some());
}

#[test]
fn optimize_reports_indirect_jumps_as_unoptimizable() {
    let out = profileme(&["optimize", "--workload", "perl", "--budget", "50000"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("unoptimizable"), "got: {text}");
    assert!(text.contains("indirect jump"), "got: {text}");
    assert!(text.contains("speedup 1.000x"), "got: {text}");
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = profileme(&["--workload", "nonexistent"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
    let out = profileme(&["--bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

/// A scratch store directory for the durability tests, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("pm-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn arg(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn serve_stored(dir: &TempDir) -> std::process::Output {
    profileme(&[
        "serve",
        "--workload",
        "compress",
        "--budget",
        "50000",
        "--chunks",
        "6",
        "--top",
        "3",
        "--data-dir",
        dir.arg(),
        "--compact-every",
        "4",
    ])
}

#[test]
fn serve_data_dir_persists_and_restart_recovers() {
    let dir = TempDir::new("restart");
    let out = serve_stored(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("recovered 0 samples"),
        "first run starts empty: {text}"
    );
    assert!(text.contains("store: now holds"), "got: {text}");
    assert!(
        text.contains("identical to direct aggregation"),
        "the byte-identity cross-check still runs with a store: {text}"
    );

    // Second run against the same directory recovers the first run's
    // aggregate and stacks its own on top: N recovered + N this run.
    let out = serve_stored(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let recovered: u64 = text
        .lines()
        .find(|l| l.starts_with("# store: recovered"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no recovery banner in: {text}"));
    assert!(recovered > 0, "second run must recover history: {text}");
    let holds = format!("({recovered} recovered + {recovered} this run)");
    assert!(
        text.contains(&holds),
        "deterministic replay doubles the store ({holds}): {text}"
    );
}

#[test]
fn store_subcommands_inspect_verify_dump_and_compact() {
    let dir = TempDir::new("subcmds");
    let out = serve_stored(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = profileme(&["store", "info", "--data-dir", dir.arg()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("image snap-"), "an image exists: {text}");
    assert!(text.contains("PMS1 wire"), "sparse magic reported: {text}");
    assert!(text.contains("torn byte(s)"), "got: {text}");

    let out = profileme(&["store", "verify", "--data-dir", dir.arg()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verifies"), "got: {text}");

    let out = profileme(&["store", "dump", "--data-dir", dir.arg(), "--top", "3"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("samples (S="), "dump header: {text}");
    assert!(
        text.lines().any(|l| l.starts_with("0x")),
        "dump prints instruction rows: {text}"
    );

    let out = profileme(&["store", "compact", "--data-dir", dir.arg()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("compacted"), "got: {text}");

    // After compaction the log is folded into the image: info shows
    // zero loose records and verify agrees.
    let out = profileme(&["store", "info", "--data-dir", dir.arg(), "--json"]);
    assert!(out.status.success());
    let info: serde_json::Value = serde_json::from_slice(&out.stdout).expect("info is JSON");
    assert_eq!(
        info.get("records").and_then(serde_json::Value::as_u64),
        Some(0),
        "compaction consumed the log"
    );
    let out = profileme(&["store", "verify", "--data-dir", dir.arg()]);
    assert!(out.status.success());
}

/// A durable start over a store whose only image no longer decodes
/// is refused: the image holds compacted history no segment still
/// carries, so starting from empty would silently lose it.
#[test]
fn store_corrupt_image_refuses_to_serve() {
    let dir = TempDir::new("corrupt-image");
    let out = serve_stored(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = profileme(&["store", "compact", "--data-dir", dir.arg()]);
    assert!(out.status.success());
    let image = std::fs::read_dir(&dir.0)
        .expect("store dir lists")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "img"))
        .expect("compaction wrote an image");
    let mut bytes = std::fs::read(&image).expect("image reads");
    bytes[0] ^= 0xff;
    std::fs::write(&image, &bytes).expect("image writes");

    let out = serve_stored(&dir);
    assert_eq!(out.status.code(), Some(1), "a corrupt image must refuse");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&image.display().to_string()),
        "the error names the image: {stderr}"
    );
    assert_eq!(
        std::fs::read(&image).expect("the image is kept"),
        bytes,
        "a refused start leaves the image as it was"
    );
}

#[test]
fn store_verify_reports_a_corrupted_tail() {
    let dir = TempDir::new("torn");
    // Default compaction cadence (1024 records): the six delta records
    // stay in the log, so there is a tail to tear.
    let out = profileme(&[
        "serve",
        "--workload",
        "compress",
        "--budget",
        "50000",
        "--chunks",
        "6",
        "--data-dir",
        dir.arg(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Tear the newest segment mid-record, as a crash would.
    let mut segs: Vec<_> = std::fs::read_dir(&dir.0)
        .expect("store dir lists")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    segs.sort();
    let last = segs
        .iter()
        .rev()
        .find(|p| std::fs::metadata(p).expect("segment stats").len() > 0)
        .expect("a non-empty segment exists");
    let len = std::fs::metadata(last).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(last).unwrap();
    f.set_len(len - 3).expect("tear the tail");

    let out = profileme(&["store", "verify", "--data-dir", dir.arg()]);
    assert!(
        out.status.success(),
        "a torn tail is recoverable: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("torn tail") && text.contains("would be dropped"),
        "verify reports the tear: {text}"
    );

    // The JSON shape pins the tear to a segment and byte offset.
    let out = profileme(&["store", "verify", "--data-dir", dir.arg(), "--json"]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("verify is JSON");
    assert!(
        v.get("dropped_tail_bytes")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
            > 0,
        "torn bytes counted: {v:?}"
    );
    assert!(
        v.get("torn_segment")
            .and_then(serde_json::Value::as_u64)
            .is_some(),
        "the torn segment is named: {v:?}"
    );
    assert!(
        v.get("torn_offset")
            .and_then(serde_json::Value::as_u64)
            .is_some(),
        "the tear offset is reported: {v:?}"
    );

    // A repairing run truncates the tear and continues cleanly.
    let out = serve_stored(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("torn tail"),
        "the recovery banner names the tear: {text}"
    );
    let out = profileme(&["store", "verify", "--data-dir", dir.arg()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("torn tail"),
        "the tear is gone after repair: {text}"
    );
}

#[test]
fn fleet_serve_listen_and_ingest_roundtrip() {
    use std::io::{BufRead, BufReader, Read};
    // Port 0: the server prints the OS-assigned address on its first
    // line, which this test (like any script) parses.
    let mut server = Command::new(env!("CARGO_BIN_EXE_profileme"))
        .args([
            "serve",
            "--workload",
            "compress",
            "--budget",
            "50000",
            "--listen",
            "127.0.0.1:0",
            "--tenants",
            "2",
            "--quota",
            "100000:100000:65536",
            "--serve-for-ms",
            "15000",
            "--json",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut reader = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server prints its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();

    let out = profileme(&[
        "ingest",
        "--connect",
        &addr,
        "--tenant",
        "1",
        "--workload",
        "compress",
        "--budget",
        "50000",
        "--batch",
        "128",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let client: serde_json::Value = serde_json::from_slice(&out.stdout).expect("client JSON");
    let samples = client
        .get("samples")
        .and_then(serde_json::Value::as_u64)
        .expect("sample count");
    assert!(samples > 0, "the producer profiled something");
    assert_eq!(
        client.get("last_level").and_then(serde_json::Value::as_u64),
        Some(0),
        "this stream fits the default quota: {client:?}"
    );
    assert_eq!(
        client
            .get("client")
            .and_then(|c| c.get("samples_acked"))
            .and_then(serde_json::Value::as_u64),
        Some(samples),
        "every sample acknowledged: {client:?}"
    );

    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exited cleanly");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("server stats read");
    let stats: serde_json::Value = serde_json::from_str(&rest).expect("fleet stats JSON");
    assert_eq!(
        stats.get("offered").and_then(serde_json::Value::as_u64),
        Some(samples),
        "the server accounted every offered sample: {stats:?}"
    );
    assert_eq!(
        stats.get("accepted").and_then(serde_json::Value::as_u64),
        Some(samples),
        "nothing was thinned or shed: {stats:?}"
    );
    let tenants = stats
        .get("tenants")
        .and_then(serde_json::Value::as_array)
        .expect("per-tenant stats");
    assert_eq!(tenants.len(), 2, "both registered tenants reported");
}

#[test]
fn fleet_flags_fail_cleanly() {
    let out = profileme(&["ingest", "--workload", "li"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--connect"));

    let out = profileme(&[
        "serve",
        "--workload",
        "li",
        "--listen",
        "127.0.0.1:0",
        "--quota",
        "0",
        "--serve-for-ms",
        "100",
    ]);
    assert!(!out.status.success(), "a zero-rate quota is rejected");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid configuration"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = profileme(&[
        "serve",
        "--workload",
        "li",
        "--listen",
        "127.0.0.1:0",
        "--quota",
        "1:2:3:4",
        "--serve-for-ms",
        "100",
    ]);
    assert!(!out.status.success(), "an overlong quota spec is rejected");
}

#[test]
fn store_flags_fail_cleanly() {
    let out = profileme(&["store", "info"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data-dir"));
    let out = profileme(&["store", "shrink", "--data-dir", "/tmp/x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown store action"));
    let dir = TempDir::new("absent");
    let out = profileme(&["store", "verify", "--data-dir", dir.arg()]);
    assert!(!out.status.success(), "an absent directory is an error");
}
