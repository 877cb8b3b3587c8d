//! The `profileme` command-line tool: run a workload under ProfileMe on
//! the simulated out-of-order machine and print instruction- or
//! procedure-level reports — a miniature DCPI.
//!
//! ```text
//! profileme --workload li --interval 64 --report procedures
//! profileme --workload compress --report instructions --top 15
//! profileme --workload go --paired --report wasted
//! profileme serve --workload perl --shards 4 --chunks 8
//! profileme serve --workload perl --data-dir /var/tmp/pm-perl
//! profileme store info --data-dir /var/tmp/pm-perl
//! profileme optimize --workload vortex --iterations 4
//! profileme --list
//! ```
//!
//! The `serve` subcommand replays a run's sample stream through the
//! sharded aggregation service (`profileme-serve`), printing an
//! interval-delta snapshot per chunk and a final top-N report — the
//! continuous-profiling daemon loop of §5 in miniature. With
//! `--data-dir` the service logs every published delta to a durable
//! store; a second run against the same directory recovers the
//! accumulated profile and keeps aggregating on top of it.
//!
//! The `store` subcommand inspects such a directory offline:
//! `info` describes the image and segments without replaying,
//! `verify` replays read-only and reports what recovery would keep,
//! `dump` prints the recovered top-N rows, and `compact` folds the
//! log into a fresh snapshot image.
//!
//! The `optimize` subcommand closes the §7 loop: profile the workload
//! with ProfileMe sampling, inline the hot leaf call sites and relayout
//! each function's blocks along the sampled hot paths, re-simulate, and
//! print the per-function layout changes and the IPC delta. With
//! `--iterations N` the optimized binary is re-profiled and re-laid-out
//! until the layout converges or the budget runs out.

use profileme::core::{
    procedure_summaries, wasted_issue_slots, PairedConfig, ProfileField, ProfileMeConfig, Session,
    WireFormat,
};
use profileme::serve::{
    store_info, ClientConfig, FleetClient, FleetConfig, FleetServer, FleetService, ProfileStore,
    ServeConfig, ShardedService, StoreConfig, TenantId, TenantQuota,
};
use profileme::uarch::PipelineConfig;
use profileme::workloads::{loops3, microbench, suite};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct Args {
    workload: String,
    interval: u64,
    buffer: usize,
    budget: u64,
    top: usize,
    paired: bool,
    report: String,
    list: bool,
    json: bool,
    // `serve` subcommand knobs.
    serve: bool,
    shards: usize,
    chunks: usize,
    snapshot_every: usize,
    deadline_ms: Option<u64>,
    fail_spec: String,
    // Durable-store knobs (`serve --data-dir`, `store <action>`).
    data_dir: Option<String>,
    segment_bytes: Option<u64>,
    compact_every: Option<u64>,
    store: Option<String>,
    // `optimize` subcommand knobs.
    optimize: bool,
    iterations: u32,
    // Fleet knobs (`serve --listen`, `ingest`).
    listen: Option<String>,
    tenants: u32,
    quota: Option<String>,
    serve_for_ms: Option<u64>,
    ingest: bool,
    connect: Option<String>,
    tenant: u32,
    batch: usize,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: "compress".into(),
            interval: 64,
            buffer: 8,
            budget: 300_000,
            top: 15,
            paired: false,
            report: "instructions".into(),
            list: false,
            json: false,
            serve: false,
            shards: 4,
            chunks: 8,
            snapshot_every: 1,
            deadline_ms: None,
            fail_spec: String::new(),
            data_dir: None,
            segment_bytes: None,
            compact_every: None,
            store: None,
            optimize: false,
            iterations: 1,
            listen: None,
            tenants: 2,
            quota: None,
            serve_for_ms: None,
            ingest: false,
            connect: None,
            tenant: 0,
            batch: 256,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("serve") {
        it.next();
        args.serve = true;
    } else if it.peek().map(String::as_str) == Some("optimize") {
        it.next();
        args.optimize = true;
    } else if it.peek().map(String::as_str) == Some("ingest") {
        it.next();
        args.ingest = true;
    } else if it.peek().map(String::as_str) == Some("store") {
        it.next();
        let action = it
            .next()
            .ok_or("store needs an action (info|compact|dump|verify)")?;
        if !matches!(action.as_str(), "info" | "compact" | "dump" | "verify") {
            return Err(format!(
                "unknown store action `{action}` (info|compact|dump|verify)"
            ));
        }
        args.store = Some(action);
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" | "-w" => args.workload = value("--workload")?,
            "--interval" | "-i" => {
                args.interval = value("--interval")?.parse().map_err(|e| format!("{e}"))?
            }
            "--buffer" | "-b" => {
                args.buffer = value("--buffer")?.parse().map_err(|e| format!("{e}"))?
            }
            "--budget" => args.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--top" => args.top = value("--top")?.parse().map_err(|e| format!("{e}"))?,
            "--paired" if !args.serve => args.paired = true,
            "--report" | "-r" if !args.serve => args.report = value("--report")?,
            "--shards" if args.serve => {
                args.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?
            }
            "--chunks" if args.serve => {
                args.chunks = value("--chunks")?.parse().map_err(|e| format!("{e}"))?
            }
            "--snapshot-every" if args.serve => {
                args.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--deadline-ms" if args.serve => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--fail-spec" if args.serve => args.fail_spec = value("--fail-spec")?,
            "--listen" if args.serve => args.listen = Some(value("--listen")?),
            "--tenants" if args.serve => {
                args.tenants = value("--tenants")?.parse().map_err(|e| format!("{e}"))?
            }
            "--quota" if args.serve => args.quota = Some(value("--quota")?),
            "--serve-for-ms" if args.serve => {
                args.serve_for_ms = Some(
                    value("--serve-for-ms")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--connect" if args.ingest => args.connect = Some(value("--connect")?),
            "--tenant" if args.ingest => {
                args.tenant = value("--tenant")?.parse().map_err(|e| format!("{e}"))?
            }
            "--batch" if args.ingest => {
                args.batch = value("--batch")?.parse().map_err(|e| format!("{e}"))?
            }
            "--data-dir" if args.serve || args.store.is_some() => {
                args.data_dir = Some(value("--data-dir")?)
            }
            "--segment-bytes" if args.serve || args.store.is_some() => {
                args.segment_bytes = Some(
                    value("--segment-bytes")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--compact-every" if args.serve || args.store.is_some() => {
                args.compact_every = Some(
                    value("--compact-every")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--iterations" if args.optimize => {
                args.iterations = value("--iterations")?.parse().map_err(|e| format!("{e}"))?
            }
            "--list" => args.list = true,
            "--json" => args.json = true,
            "--help" | "-h" => {
                println!(
                    "usage: profileme [--workload NAME] [--interval S] [--buffer N] \
                     [--budget INSTRUCTIONS] [--top N] [--paired] \
                     [--report instructions|procedures|wasted|disasm] [--json] [--list]\n       \
                     profileme serve [--workload NAME] [--interval S] [--budget INSTRUCTIONS] \
                     [--shards N] [--chunks N] [--snapshot-every N] \
                     [--top N] [--deadline-ms N] [--fail-spec SPEC] \
                     [--data-dir DIR] [--segment-bytes N] [--compact-every N] [--json]\n       \
                     profileme serve --listen ADDR [--tenants N] [--quota RATE[:BURST[:SHARE]]] \
                     [--serve-for-ms N] [--shards N] [--json]\n       \
                     profileme ingest --connect ADDR [--tenant N] [--workload NAME] \
                     [--interval S] [--budget INSTRUCTIONS] [--batch N] [--json]\n       \
                     profileme store info|compact|dump|verify --data-dir DIR [--top N] [--json]\n       \
                     profileme optimize [--workload NAME] [--interval S] [--buffer N] \
                     [--budget INSTRUCTIONS] [--iterations N] [--json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn find_workload(name: &str, budget: u64) -> Option<profileme::workloads::Workload> {
    if name == "microbench" {
        return Some(microbench(200, budget / 203).0);
    }
    if name == "loops3" {
        return Some(loops3(budget / 300).workload);
    }
    suite(budget).into_iter().find(|w| w.name == name)
}

/// Maps the `serve` flags onto [`ServeConfig`] — 1:1 through the
/// builder, so the CLI rejects exactly what the library rejects.
fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let mut builder = ServeConfig::builder().shards(args.shards);
    if let Some(dir) = &args.data_dir {
        builder = builder.data_dir(dir);
    }
    if let Some(bytes) = args.segment_bytes {
        builder = builder.segment_bytes(bytes);
    }
    if let Some(every) = args.compact_every {
        builder = builder.compact_every(every);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Starts the service, injecting the `--fail-spec` plan when the build
/// carries the `fault-injection` feature.
fn start_service(
    args: &Args,
    db: profileme::core::ProfileDatabase,
    config: ServeConfig,
) -> Result<ShardedService<profileme::core::ProfileDatabase>, String> {
    if args.fail_spec.is_empty() {
        return ShardedService::start(db, config).map_err(|e| e.to_string());
    }
    #[cfg(feature = "fault-injection")]
    {
        let plan =
            profileme::serve::FaultPlan::parse(&args.fail_spec).map_err(|e| e.to_string())?;
        ShardedService::start_with_faults(db, config, plan).map_err(|e| e.to_string())
    }
    #[cfg(not(feature = "fault-injection"))]
    Err("--fail-spec requires a build with `--features fault-injection`".into())
}

/// JSON shape of `profileme serve --data-dir ... --json`.
#[derive(serde::Serialize)]
struct ServeStoreOutcome {
    ingest: profileme::serve::IngestStats,
    store: profileme::serve::StoreStats,
    recovered_samples: u64,
    stored_samples: u64,
}

/// The `profileme serve` subcommand: replay the sample stream through
/// the sharded service in chunks, reporting an interval delta per
/// snapshot cycle, then cross-check the final merged database against
/// the direct single-threaded aggregation — byte for byte when nothing
/// was lost, by exact accounting otherwise (deadlines and injected
/// faults are lossy on purpose).
fn serve_demo(args: &Args, w: &profileme::workloads::Workload) -> Result<(), String> {
    let session = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(ProfileMeConfig {
            mean_interval: args.interval,
            buffer_depth: args.buffer.max(1),
            ..ProfileMeConfig::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    let run = session.profile_single().map_err(|e| e.to_string())?;

    let svc = start_service(
        args,
        profileme::core::ProfileDatabase::new(&w.program, run.db.interval()),
        serve_config(args)?,
    )?;

    // With a durable store the view starts from the recovered history;
    // everything this run aggregates lands on top of it.
    let recovered = svc
        .store_stats()
        .map(|store| (svc.view_merged().total_samples, store));
    if !args.json {
        println!(
            "# serve: {} samples from `{}` through {} shard(s) in {} chunk(s)",
            run.samples.len(),
            w.name,
            args.shards,
            args.chunks,
        );
        if let Some((samples, store)) = &recovered {
            println!(
                "# store: recovered {} samples ({} WAL records, {} bytes{}) from {}",
                samples,
                store.recovered_records,
                store.recovered_bytes,
                if store.dropped_tail_bytes > 0 {
                    format!(", dropped {}-byte torn tail", store.dropped_tail_bytes)
                } else {
                    String::new()
                },
                args.data_dir.as_deref().unwrap_or("?"),
            );
        }
    }
    let chunk = (run.samples.len() / args.chunks.max(1)).max(1);
    let deadline = args.deadline_ms.map(std::time::Duration::from_millis);
    let mut previous = None;
    for (i, batch) in run.samples.chunks(chunk).enumerate() {
        let batch = batch.to_vec();
        if let Some(budget) = deadline {
            // A missed deadline is not fatal: the remainder is dropped
            // with accounting, which is the point of the bounded path.
            let _ = svc.ingest_deadline(batch, budget);
        } else {
            svc.ingest_batch(batch);
        }
        // `--snapshot-every n` runs a snapshot cycle after every n-th
        // chunk; ingest between cycles accumulates into one epoch delta.
        if (i + 1) % args.snapshot_every.max(1) != 0 {
            continue;
        }
        let snap = match deadline {
            Some(budget) => match svc.snapshot_deadline(budget) {
                Ok(snap) => snap,
                Err(profileme::core::ProfileError::DeadlineExceeded { .. }) => continue,
                Err(e) => return Err(e.to_string()),
            },
            None => svc.snapshot().map_err(|e| e.to_string())?,
        };
        let delta_samples = match &previous {
            None => snap.merged.total_samples,
            Some(prev) => {
                snap.merged
                    .delta_since(prev)
                    .map_err(|e| e.to_string())?
                    .total_samples
            }
        };
        if !args.json {
            println!(
                "snapshot {:>3}: {:>8} samples total (+{:>6} this interval, queue high-water {})",
                snap.seq, snap.merged.total_samples, delta_samples, snap.stats.high_water
            );
        }
        previous = Some(snap.merged);
    }

    let store_stats = svc.store_stats();
    let (merged, stats) = match deadline {
        Some(budget) => svc.shutdown_deadline(budget.max(std::time::Duration::from_secs(5))),
        None => svc.shutdown(),
    }
    .map_err(|e| e.to_string())?;
    // Self-check: with zero losses the service must agree byte-for-byte
    // with direct aggregation; with losses (deadlines, injected faults)
    // every missing sample must be accounted for.
    let served = merged
        .encode(WireFormat::Sparse)
        .map_err(|e| e.to_string())?;
    let direct = run
        .db
        .encode(WireFormat::Sparse)
        .map_err(|e| e.to_string())?;
    let fidelity_ok = stats.lost() == 0;
    if fidelity_ok && served != direct {
        return Err("sharded snapshot diverged from direct aggregation".into());
    }
    if merged.total_samples != stats.enqueued - stats.lost_to_panics {
        return Err(format!(
            "loss accounting is inexact: {} aggregated, {} enqueued, {} lost to panics",
            merged.total_samples, stats.enqueued, stats.lost_to_panics
        ));
    }

    if args.json {
        match (recovered, store_stats) {
            (Some((recovered, _)), Some(store)) => {
                let out = ServeStoreOutcome {
                    ingest: stats,
                    store,
                    recovered_samples: recovered,
                    stored_samples: recovered + merged.total_samples,
                };
                println!(
                    "{}",
                    serde_json::to_string_pretty(&out).expect("serializable")
                );
            }
            _ => println!(
                "{}",
                serde_json::to_string_pretty(&stats).expect("serializable")
            ),
        }
        return Ok(());
    }
    if let (Some((recovered, _)), Some(store)) = (recovered, store_stats) {
        println!(
            "store: now holds {} samples ({} recovered + {} this run), \
             {} record(s) appended, {} compaction(s)",
            recovered + merged.total_samples,
            recovered,
            merged.total_samples,
            store.appended_records,
            store.compactions,
        );
    }
    println!(
        "ingest: {} enqueued, {} dropped, {} snapshot cycles ({} shards); \
         {} worker panic(s), {} recovered; {}",
        stats.enqueued,
        stats.dropped,
        stats.snapshots,
        stats.shards,
        stats.worker_panics,
        stats.workers_recovered,
        if fidelity_ok {
            format!(
                "final snapshot identical to direct aggregation ({} bytes)",
                served.len()
            )
        } else {
            format!("{} sample(s) lost, all accounted", stats.lost())
        }
    );
    println!(
        "{:<10} {:<24} {:>8} {:>10}",
        "pc", "instruction", "samples", "Σ latency"
    );
    for (pc, p) in merged.top_n(args.top, ProfileField::Samples) {
        println!(
            "{:<10} {:<24} {:>8} {:>10}",
            pc.to_string(),
            w.program
                .fetch(pc)
                .map(|i| i.to_string())
                .unwrap_or_default(),
            p.samples,
            p.in_progress_sum
        );
    }
    Ok(())
}

/// Parses `--quota RATE[:BURST[:SHARE]]` onto a [`TenantQuota`];
/// omitted fields default (burst to the rate, share to the library
/// default).
fn parse_quota(spec: &str) -> Result<TenantQuota, String> {
    let mut quota = TenantQuota::default();
    let mut parts = spec.split(':');
    let rate = parts.next().ok_or("--quota needs RATE[:BURST[:SHARE]]")?;
    quota.rate_per_sec = rate.parse().map_err(|e| format!("--quota rate: {e}"))?;
    quota.burst = quota.rate_per_sec;
    if let Some(burst) = parts.next() {
        quota.burst = burst.parse().map_err(|e| format!("--quota burst: {e}"))?;
    }
    if let Some(share) = parts.next() {
        quota.queue_share = share.parse().map_err(|e| format!("--quota share: {e}"))?;
    }
    if parts.next().is_some() {
        return Err("--quota takes at most RATE:BURST:SHARE".into());
    }
    Ok(quota)
}

/// The `profileme serve --listen` mode: a multi-tenant TCP front-end
/// over the fleet service. Producers (`profileme ingest --connect`)
/// stream sample batches; each registered tenant is admitted against
/// its own quota and degradation ladder. `--serve-for-ms` bounds the
/// run for scripted use; otherwise the server accepts until killed.
fn serve_listen(args: &Args, w: &profileme::workloads::Workload) -> Result<(), String> {
    let listen = args.listen.as_deref().expect("caller checked --listen");
    let quota = match &args.quota {
        Some(spec) => parse_quota(spec)?,
        None => TenantQuota::default(),
    };
    let fleet = FleetConfig::uniform(args.tenants.max(1), quota);
    let svc = FleetService::start(
        profileme::core::ProfileDatabase::new(&w.program, args.interval.max(1)),
        serve_config(args)?,
        fleet,
    )
    .map_err(|e| e.to_string())?;
    let svc = Arc::new(svc);
    let server = FleetServer::bind(listen, Arc::clone(&svc)).map_err(|e| e.to_string())?;
    // The resolved address line is load-bearing: scripts and tests
    // bind port 0 and parse the OS-assigned port from it.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    drop(std::io::stdout().flush());
    if let Some(ms) = args.serve_for_ms {
        let stop = server.stop_handle();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            stop.store(true, Ordering::Release);
        });
    }
    server.run().map_err(|e| e.to_string())?;
    // `run` joined every handler, so the service Arc is unique again.
    let svc = Arc::try_unwrap(svc).map_err(|_| "service still shared after stop".to_string())?;
    let (merged, stats) = svc.shutdown().map_err(|e| e.to_string())?;
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).expect("serializable")
        );
        return Ok(());
    }
    println!(
        "fleet: {} offered, {} accepted, {} thinned, {} shed across {} tenant view(s)",
        stats.offered,
        stats.accepted,
        stats.thinned,
        stats.shed,
        merged.len()
    );
    for t in &stats.tenants {
        println!(
            "  tenant-{}: level {}, {} offered, {} accepted, {} thinned, {} shed",
            t.tenant, t.level, t.offered, t.accepted, t.thinned, t.shed
        );
    }
    Ok(())
}

/// JSON shape of `profileme ingest --json`.
#[derive(serde::Serialize)]
struct IngestOutcome {
    tenant: u32,
    batches: u64,
    samples: u64,
    last_level: u8,
    client: profileme::serve::ClientStats,
}

/// The `profileme ingest` subcommand: a fleet producer. Profiles the
/// workload locally, then streams the sample batches to a
/// `serve --listen` front-end with retry/backoff, reporting what the
/// server acknowledged and at which fidelity.
fn ingest_demo(args: &Args, w: &profileme::workloads::Workload) -> Result<(), String> {
    let connect = args
        .connect
        .as_deref()
        .ok_or("ingest needs --connect ADDR")?;
    let session = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(ProfileMeConfig {
            mean_interval: args.interval,
            buffer_depth: args.buffer.max(1),
            ..ProfileMeConfig::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    let run = session.profile_single().map_err(|e| e.to_string())?;
    let mut client = FleetClient::new(connect, TenantId(args.tenant), ClientConfig::default());
    let mut batches = 0u64;
    let mut last_level = 0u8;
    for chunk in run.samples.chunks(args.batch.max(1)) {
        let ack = client.send(chunk).map_err(|e| e.to_string())?;
        batches += 1;
        last_level = ack.level.as_u8();
        if !args.json {
            println!(
                "batch {:>4}: seq {:>4}, level {}, {} admitted{}",
                batches,
                ack.seq,
                ack.level.as_u8(),
                ack.admitted,
                if ack.duplicate { " (duplicate)" } else { "" }
            );
        }
    }
    let stats = client.stats();
    client.close();
    if args.json {
        let out = IngestOutcome {
            tenant: args.tenant,
            batches,
            samples: run.samples.len() as u64,
            last_level,
            client: stats,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
        return Ok(());
    }
    println!(
        "ingested {} sample(s) in {} batch(es) as tenant-{}: {} acked, {} retries, {} reconnects",
        run.samples.len(),
        batches,
        args.tenant,
        stats.samples_acked,
        stats.retries,
        stats.reconnects
    );
    Ok(())
}

/// JSON shape of `profileme store verify --json`.
#[derive(serde::Serialize)]
struct StoreVerifyOutcome {
    wire: String,
    samples: u64,
    recovered_records: u64,
    recovered_bytes: u64,
    dropped_tail_bytes: u64,
    torn_segment: Option<u64>,
    torn_offset: Option<u64>,
}

/// The `profileme store` subcommand: offline tooling over a durable
/// store directory. `info` never replays; `verify` and `dump` replay
/// read-only (a torn tail is reported but left on disk); `compact`
/// repairs, replays, and folds the log into a fresh image.
fn store_demo(args: &Args, action: &str) -> Result<(), String> {
    use profileme::core::{PairProfileDatabase, ProfileDatabase};
    let dir = std::path::PathBuf::from(
        args.data_dir
            .as_deref()
            .ok_or("store commands need --data-dir DIR")?,
    );
    let info = store_info(&dir).map_err(|e| e.to_string())?;
    if action == "info" {
        if args.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&info).expect("serializable")
            );
            return Ok(());
        }
        println!("store {}:", dir.display());
        match (info.image_seq, &info.image_magic) {
            (Some(seq), Some(magic)) => println!(
                "  image snap-{seq:08}.img: {} bytes, {magic} wire",
                info.image_bytes
            ),
            _ => println!("  no snapshot image"),
        }
        for s in &info.segments {
            println!(
                "  segment wal-{:08}.seg: {} record(s), {} bytes{}",
                s.seq,
                s.records,
                s.bytes,
                if s.torn { ", torn tail" } else { "" }
            );
        }
        println!(
            "  {} record(s), {} payload bytes, {} torn byte(s)",
            info.records, info.record_bytes, info.torn_bytes
        );
        return Ok(());
    }
    // The remaining actions replay the log; the image's magic decides
    // which database lineage the store holds.
    let magic = info
        .image_magic
        .clone()
        .ok_or_else(|| format!("{}: no snapshot image found (not a store?)", dir.display()))?;
    let paired = match magic.as_str() {
        "PMP1" => true,
        "PMS1" | "JSON" => false,
        other => return Err(format!("{}: unknown image magic `{other}`", dir.display())),
    };
    match action {
        "verify" => {
            let (samples, stats) = if paired {
                ProfileStore::<PairProfileDatabase>::recover(&dir)
                    .map(|(db, s)| (db.total_pairs, s))
            } else {
                ProfileStore::<ProfileDatabase>::recover(&dir).map(|(db, s)| (db.total_samples, s))
            }
            .map_err(|e| e.to_string())?;
            if args.json {
                let out = StoreVerifyOutcome {
                    wire: magic,
                    samples,
                    recovered_records: stats.recovered_records,
                    recovered_bytes: stats.recovered_bytes,
                    dropped_tail_bytes: stats.dropped_tail_bytes,
                    torn_segment: stats.torn_segment,
                    torn_offset: stats.torn_offset,
                };
                println!(
                    "{}",
                    serde_json::to_string_pretty(&out).expect("serializable")
                );
                return Ok(());
            }
            println!(
                "store {} verifies: {samples} {} over image + {} record(s) ({} bytes){}",
                dir.display(),
                if paired { "pairs" } else { "samples" },
                stats.recovered_records,
                stats.recovered_bytes,
                if stats.dropped_tail_bytes > 0 {
                    format!(
                        " — torn tail of {} byte(s) would be dropped",
                        stats.dropped_tail_bytes
                    )
                } else {
                    String::new()
                }
            );
        }
        "dump" => {
            if paired {
                let (db, _) = ProfileStore::<PairProfileDatabase>::recover(&dir)
                    .map_err(|e| e.to_string())?;
                if args.json {
                    let rows: Vec<_> = db.iter().collect();
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&rows).expect("serializable")
                    );
                    return Ok(());
                }
                println!(
                    "# {} pairs (S={}, W={})",
                    db.total_pairs,
                    db.interval(),
                    db.window()
                );
                let mut rows: Vec<_> = db.iter().collect();
                rows.sort_by_key(|(_, p)| std::cmp::Reverse(p.samples));
                println!(
                    "{:<10} {:>8} {:>8} {:>8} {:>10}",
                    "pc", "samples", "useful→", "useful←", "Σ latency"
                );
                for (pc, p) in rows.iter().take(args.top) {
                    println!(
                        "{:<10} {:>8} {:>8} {:>8} {:>10}",
                        pc.to_string(),
                        p.samples,
                        p.useful_forward,
                        p.useful_backward,
                        p.latency_sum
                    );
                }
            } else {
                let (db, _) =
                    ProfileStore::<ProfileDatabase>::recover(&dir).map_err(|e| e.to_string())?;
                if args.json {
                    let rows: Vec<_> = db.iter().collect();
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&rows).expect("serializable")
                    );
                    return Ok(());
                }
                println!("# {} samples (S={})", db.total_samples, db.interval());
                println!(
                    "{:<10} {:>8} {:>10} {:>8} {:>8}",
                    "pc", "samples", "Σ latency", "d$miss", "mispr"
                );
                for (pc, p) in db.top_n(args.top, ProfileField::Samples) {
                    println!(
                        "{:<10} {:>8} {:>10} {:>8} {:>8}",
                        pc.to_string(),
                        p.samples,
                        p.in_progress_sum,
                        p.dcache_misses,
                        p.mispredicted
                    );
                }
            }
        }
        "compact" => {
            let mut cfg = StoreConfig::new(&dir);
            if let Some(bytes) = args.segment_bytes {
                cfg.segment_bytes = bytes;
            }
            if let Some(every) = args.compact_every {
                cfg.compact_every = every;
            }
            if paired {
                let (mut store, db) = ProfileStore::<PairProfileDatabase>::open_existing(cfg)
                    .map_err(|e| e.to_string())?;
                store.compact(&db).map_err(|e| e.to_string())?;
            } else {
                let (mut store, db) = ProfileStore::<ProfileDatabase>::open_existing(cfg)
                    .map_err(|e| e.to_string())?;
                store.compact(&db).map_err(|e| e.to_string())?;
            }
            let after = store_info(&dir).map_err(|e| e.to_string())?;
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&after).expect("serializable")
                );
                return Ok(());
            }
            println!(
                "compacted {} record(s) ({} bytes) into snap-{:08}.img ({} bytes)",
                info.records,
                info.record_bytes,
                after.image_seq.unwrap_or(0),
                after.image_bytes
            );
        }
        other => return Err(format!("unknown store action `{other}`")),
    }
    Ok(())
}

/// JSON shape of `profileme optimize --json`.
#[derive(serde::Serialize)]
struct OptimizeOutcome {
    workload: String,
    iterations: u32,
    converged: bool,
    optimizable: bool,
    inlined_calls: u32,
    functions_relaid: Vec<String>,
    baseline_cycles: u64,
    optimized_cycles: u64,
    baseline_ipc: f64,
    /// The optimized binary's own retires over its own cycles.
    optimized_ipc: f64,
    /// Original work over optimized cycles — monotone with speedup.
    effective_ipc: f64,
    speedup: f64,
    note: String,
}

/// The `profileme optimize` subcommand: the §7 loop on one workload.
/// Profile → inline hot leaf calls → hot-chain relayout → re-simulate,
/// iterated to convergence under `--iterations`. Candidates are adopted
/// only when they cut simulated cycles, so the result never regresses
/// the baseline; every adopted binary is checked architecturally
/// equivalent to the original before anything is reported.
fn optimize_demo(args: &Args, w: &profileme::workloads::Workload) -> Result<(), String> {
    use profileme::cfg::Cfg;
    use profileme::isa::{ArchState, Op, Program};
    use profileme::opt::{
        edge_weights_from_profile, hot_chains, inline_call, reorder_blocks, LayoutError,
    };

    let pipeline = PipelineConfig::default();
    let simulate = |p: &Program| -> Result<profileme::uarch::SimStats, String> {
        profileme::core::run_ground_truth(
            p.clone(),
            Some(w.memory.clone()),
            pipeline.clone(),
            u64::MAX,
        )
        .map(|r| r.stats)
        .map_err(|e| e.to_string())
    };
    let profile = |p: &Program| -> Result<profileme::core::SingleRun, String> {
        Session::builder(p.clone())
            .memory(w.memory.clone())
            .pipeline(pipeline.clone())
            .sampling(ProfileMeConfig {
                mean_interval: args.interval,
                buffer_depth: args.buffer.max(1),
                ..ProfileMeConfig::default()
            })
            .build()
            .map_err(|e| e.to_string())?
            .profile_single()
            .map_err(|e| e.to_string())
    };

    let baseline = simulate(&w.program)?;
    let mut out = OptimizeOutcome {
        workload: w.name.to_string(),
        iterations: 0,
        converged: false,
        optimizable: true,
        inlined_calls: 0,
        functions_relaid: Vec::new(),
        baseline_cycles: baseline.cycles,
        optimized_cycles: baseline.cycles,
        baseline_ipc: baseline.ipc(),
        optimized_ipc: baseline.ipc(),
        effective_ipc: baseline.ipc(),
        speedup: 1.0,
        note: String::new(),
    };
    if !args.json {
        println!(
            "# {}: baseline {} cycles, IPC {:.3} ({} instructions)",
            w.name,
            baseline.cycles,
            baseline.ipc(),
            w.program.len()
        );
    }

    let mut run = profile(&w.program)?;
    let mut best = w.program.clone();
    let mut best_stats = baseline.clone();

    // Profile-guided inlining of hot, small, leaf call sites. Sites are
    // chosen hottest-first and spliced bottom-up (each splice shifts
    // only the PCs after it, keeping lower call-site PCs valid).
    let total: f64 = best
        .iter()
        .map(|(pc, _)| run.db.estimated_retires(pc).value())
        .sum();
    let mut sites: Vec<(profileme::isa::Pc, f64)> = best
        .iter()
        .filter(|(_, i)| matches!(i.op, Op::Call { .. }))
        .map(|(pc, _)| (pc, run.db.estimated_retires(pc).value()))
        .filter(|(_, weight)| total > 0.0 && *weight / total >= 0.01)
        .collect();
    sites.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.addr().cmp(&b.0.addr())));
    sites.truncate(4);
    sites.sort_by_key(|s| std::cmp::Reverse(s.0.addr()));
    let mut inlined_program = best.clone();
    let mut inlined = 0u32;
    for (call_pc, _) in sites {
        let cfg = Cfg::build(&inlined_program);
        let small = match inlined_program.fetch(call_pc).map(|i| i.op) {
            Some(Op::Call { target, .. }) => inlined_program
                .function_of(target)
                .is_some_and(|f| f.len() <= 24),
            _ => false,
        };
        if !small {
            continue;
        }
        if let Ok(q) = inline_call(&inlined_program, &cfg, call_pc) {
            inlined_program = q;
            inlined += 1;
        }
    }
    if inlined > 0 {
        let stats = simulate(&inlined_program)?;
        if stats.cycles < best_stats.cycles {
            out.inlined_calls = inlined;
            best = inlined_program;
            best_stats = stats;
            run = profile(&best)?;
            if !args.json {
                println!(
                    "inlined {inlined} hot call site(s): {} cycles ({:.3}x)",
                    best_stats.cycles,
                    baseline.cycles as f64 / best_stats.cycles as f64
                );
            }
        }
    }

    while out.iterations < args.iterations.max(1) {
        out.iterations += 1;
        let cfg = Cfg::build(&best);
        let weights = edge_weights_from_profile(&run.db, &cfg);
        let order = hot_chains(&best, &cfg, &weights);
        if order.iter().enumerate().all(|(i, b)| b.index() == i) {
            out.converged = true; // layout fixpoint
            break;
        }
        let (candidate, _remap) = match reorder_blocks(&best, &cfg, &order) {
            Ok(pair) => pair,
            Err(e @ LayoutError::IndirectJump { .. }) => {
                out.optimizable = false;
                out.converged = true;
                out.note = format!("unoptimizable: {e}");
                break;
            }
            Err(e) => return Err(format!("hot-chain order rejected: {e}")),
        };
        let stats = simulate(&candidate)?;
        // Adopt only candidates that cut cycles by >0.1%; below that the
        // loop has converged (monotone non-regression, best kept).
        if (stats.cycles as f64) < best_stats.cycles as f64 * 0.999 {
            if !args.json {
                println!(
                    "round {}: relayout adopted, {} cycles ({:.3}x)",
                    out.iterations,
                    stats.cycles,
                    baseline.cycles as f64 / stats.cycles as f64
                );
            }
            best = candidate;
            best_stats = stats;
            run = profile(&best)?;
        } else {
            out.converged = true;
            break;
        }
    }

    // Equivalence before reporting: same final architectural state
    // (link register excluded — return addresses move under relayout).
    let final_regs = |p: &Program| -> Result<Vec<u64>, String> {
        let mut s = ArchState::with_memory(p, w.memory.clone());
        s.run(p, 1_000_000_000).map_err(|e| e.to_string())?;
        Ok((0..32u8)
            .filter(|&i| i as usize != profileme::isa::Reg::LINK.index())
            .map(|i| s.reg(profileme::isa::Reg::new(i)))
            .collect())
    };
    if final_regs(&w.program)? != final_regs(&best)? {
        return Err("optimized binary diverged architecturally".into());
    }

    // Per-function layout changes: a function was relaid out when its
    // instruction sequence differs from the original's.
    let body = |p: &Program, name: &str| -> Vec<String> {
        p.functions()
            .iter()
            .find(|f| f.name == name)
            .map(|f| {
                (0..f.len())
                    .filter_map(|i| p.fetch(f.entry.advance(i as u64)))
                    .map(|i| i.to_string())
                    .collect()
            })
            .unwrap_or_default()
    };
    out.functions_relaid = best
        .functions()
        .iter()
        .map(|f| f.name.clone())
        .filter(|name| body(&best, name) != body(&w.program, name))
        .collect();

    out.optimized_cycles = best_stats.cycles;
    out.optimized_ipc = best_stats.ipc();
    out.effective_ipc = baseline.retired as f64 / best_stats.cycles as f64;
    out.speedup = baseline.cycles as f64 / best_stats.cycles as f64;

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
        return Ok(());
    }
    if !out.optimizable {
        println!("{}", out.note);
    }
    println!(
        "functions relaid out: {}{}",
        out.functions_relaid.len(),
        if out.functions_relaid.is_empty() {
            String::new()
        } else {
            format!(" ({})", out.functions_relaid.join(", "))
        }
    );
    println!(
        "{:<12} {:>12} {:>9} {:>9}",
        "binary", "cycles", "raw IPC", "eff IPC"
    );
    println!(
        "{:<12} {:>12} {:>9.3} {:>9.3}",
        "original", out.baseline_cycles, out.baseline_ipc, out.baseline_ipc
    );
    println!(
        "{:<12} {:>12} {:>9.3} {:>9.3}",
        "optimized", out.optimized_cycles, out.optimized_ipc, out.effective_ipc
    );
    println!(
        "speedup {:.3}x over {} round(s){}{}",
        out.speedup,
        out.iterations,
        if out.converged { ", converged" } else { "" },
        if out.inlined_calls > 0 {
            format!(", {} call site(s) inlined", out.inlined_calls)
        } else {
            String::new()
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        println!("available workloads:");
        for w in suite(1_000) {
            println!("  {:<10} {}", w.name, w.description);
        }
        println!(
            "  {:<10} one cache-hit load + 200 nops (Figure 2)",
            "microbench"
        );
        println!("  {:<10} three contrasting loops (Figure 7)", "loops3");
        return ExitCode::SUCCESS;
    }
    if let Some(action) = args.store.clone() {
        // Offline store tooling: no workload, no simulation.
        return match store_demo(&args, &action) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = find_workload(&args.workload, args.budget) else {
        eprintln!("error: unknown workload `{}` (use --list)", args.workload);
        return ExitCode::FAILURE;
    };
    if args.ingest {
        return match ingest_demo(&args, &w) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.serve && args.listen.is_some() {
        return match serve_listen(&args, &w) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.serve {
        return match serve_demo(&args, &w) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.optimize {
        return match optimize_demo(&args, &w) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let pipeline = PipelineConfig::default();

    if args.paired || args.report == "wasted" {
        let session = match Session::builder(w.program.clone())
            .memory(w.memory.clone())
            .pipeline(pipeline.clone())
            .paired_sampling(PairedConfig {
                mean_major_interval: args.interval,
                window: 64,
                buffer_depth: args.buffer.max(1),
                ..PairedConfig::default()
            })
            .build()
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let run = match session.profile_paired() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "# {}: {} pairs over {} cycles (S={}, W={})",
            w.name,
            run.pairs.len(),
            run.cycles,
            run.db.interval(),
            run.db.window()
        );
        let mut rows: Vec<_> = run
            .db
            .iter()
            .filter(|(_, p)| p.samples >= 4)
            .map(|(pc, p)| {
                let ws = wasted_issue_slots(&run.db, pc, pipeline.issue_width as u64);
                (pc, p.samples, ws.total_latency, ws.wasted())
            })
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        println!(
            "{:<10} {:<24} {:>8} {:>14} {:>14}",
            "pc", "instruction", "samples", "Σ latency", "wasted slots"
        );
        for (pc, samples, lat, wasted) in rows.iter().take(args.top) {
            println!(
                "{:<10} {:<24} {:>8} {:>14.0} {:>14.0}",
                pc.to_string(),
                w.program
                    .fetch(*pc)
                    .map(|i| i.to_string())
                    .unwrap_or_default(),
                samples,
                lat,
                wasted
            );
        }
        return ExitCode::SUCCESS;
    }

    let session = match Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .pipeline(pipeline)
        .sampling(ProfileMeConfig {
            mean_interval: args.interval,
            buffer_depth: args.buffer.max(1),
            ..ProfileMeConfig::default()
        })
        .build()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match session.profile_single() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.json {
        println!(
            "# {}: {} samples over {} cycles (IPC {:.2}, effective S={})",
            w.name,
            run.samples.len(),
            run.cycles,
            run.stats.ipc(),
            run.db.interval()
        );
    }
    match args.report.as_str() {
        "procedures" => {
            let procs = procedure_summaries(&run.db, &w.program);
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&procs).expect("serializable")
                );
                return ExitCode::SUCCESS;
            }
            println!(
                "{:<18} {:>8} {:>12} {:>10} {:>8} {:>8}",
                "procedure", "samples", "est.retires", "Σ latency", "d$miss", "abort%"
            );
            for p in procs.iter().take(args.top) {
                println!(
                    "{:<18} {:>8} {:>12.0} {:>10} {:>8} {:>7.1}%",
                    p.name,
                    p.samples,
                    p.estimated_retires,
                    p.in_progress_sum,
                    p.dcache_misses,
                    100.0 * p.aborted as f64 / p.samples.max(1) as f64
                );
            }
        }
        "disasm" => {
            // Annotated disassembly: every instruction with its sample
            // counts, dcpiprof style.
            for (pc, inst) in w.program.iter() {
                if let Some(f) = w.program.functions().iter().find(|f| f.entry == pc) {
                    println!("{}:", f.name);
                }
                let prof = run.db.at(pc);
                println!(
                    "  {:#08x}  {:>7} {:>8} {:>7}    {}",
                    pc.addr(),
                    if prof.samples > 0 {
                        prof.samples.to_string()
                    } else {
                        String::new()
                    },
                    if prof.in_progress_sum > 0 {
                        prof.in_progress_sum.to_string()
                    } else {
                        String::new()
                    },
                    if prof.dcache_misses > 0 {
                        prof.dcache_misses.to_string()
                    } else {
                        String::new()
                    },
                    inst
                );
            }
        }
        "instructions" => {
            if args.json {
                let rows: Vec<_> = run.db.iter().collect();
                println!(
                    "{}",
                    serde_json::to_string_pretty(&rows).expect("serializable")
                );
                return ExitCode::SUCCESS;
            }
            let mut rows: Vec<_> = run.db.iter().collect();
            rows.sort_by_key(|(_, p)| std::cmp::Reverse(p.in_progress_sum));
            println!(
                "{:<10} {:<24} {:>8} {:>10} {:>8} {:>8} {:>8}",
                "pc", "instruction", "samples", "Σ latency", "d$miss", "mispr", "abort%"
            );
            for (pc, p) in rows.iter().take(args.top) {
                println!(
                    "{:<10} {:<24} {:>8} {:>10} {:>8} {:>8} {:>7.1}%",
                    pc.to_string(),
                    w.program
                        .fetch(*pc)
                        .map(|i| i.to_string())
                        .unwrap_or_default(),
                    p.samples,
                    p.in_progress_sum,
                    p.dcache_misses,
                    p.mispredicted,
                    100.0 * p.aborted as f64 / p.samples.max(1) as f64
                );
            }
        }
        other => {
            eprintln!("error: unknown report `{other}` (instructions|procedures|wasted|disasm)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
