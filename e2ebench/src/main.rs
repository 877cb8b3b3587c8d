//! End-to-end benchmark of the profiling plane.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload live_wire --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`live_wire`, `fleet_absorb` or `fleet_dashboard`)
//! for `--seconds`, checks every output against direct aggregation,
//! and prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `README.md` for what
//! each workload exercises and how each metric is defined.

mod fleet;
mod fleet_absorb;
mod fleet_dashboard;
mod gate;
mod inputs;
mod layers;
mod live_wire;
mod probes;
mod stats;
mod sys;

use serde_json::{json, Value};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Named tail percentiles; `None` where the pool cannot support one.
type Tails = Vec<(&'static str, Option<f64>)>;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LiveWire,
    FleetAbsorb,
    FleetDashboard,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "live_wire" => Some(Workload::LiveWire),
            "fleet_absorb" => Some(Workload::FleetAbsorb),
            "fleet_dashboard" => Some(Workload::FleetDashboard),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LiveWire => "live_wire",
            Workload::FleetAbsorb => "fleet_absorb",
            Workload::FleetDashboard => "fleet_dashboard",
        }
    }
}

/// Command-line arguments; all four are required.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let missing = |what: &str| format!("missing --{what}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("workload"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        })
    }
}

/// One named, measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layers: Vec<Metric>,
    pub ops: fleet::Ops,
    /// Correctness-gate failures; any one fails the run.
    pub mismatches: Vec<String>,
    /// Threads and connections generating load.
    pub load_threads: usize,
    pub connections: usize,
    /// Extra facts for the record line (sample counts, lateness).
    pub notes: Vec<(&'static str, f64)>,
    /// Tail percentiles for the record line.
    pub tails: Tails,
}

/// A percentile that the run was sized to support.
pub fn pct(pool: &[f64], p: f64, what: &str) -> Result<f64> {
    stats::percentile(pool, p).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support p{} (needs {})",
            pool.len(),
            p * 100.0,
            stats::min_pool(p)
        )
        .into()
    })
}

/// The end-to-end metrics every workload reports, from its set-up
/// times, throughput and latency pools (ms), plus the tails the record
/// line carries. The tails are not gated: across runs on a shared
/// two-vCPU host they spread wider than any bound the benchmark may
/// set (see `STEADINESS.md`).
pub fn end_to_end(
    setups: &[f64],
    throughput: f64,
    acks: &[f64],
    snapshots: &[f64],
    queries: &[f64],
) -> Result<(Vec<Metric>, Tails)> {
    let metrics = vec![
        metric("setup_s", stats::median(setups), "s"),
        metric("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0), "MiB"),
        metric("throughput_samples_per_s", throughput, "samples/s"),
        metric("ack_p50_ms", pct(acks, 0.5, "ack")?, "ms"),
        metric("snapshot_p50_ms", pct(snapshots, 0.5, "snapshot")?, "ms"),
        metric("query_p50_ms", pct(queries, 0.5, "query")?, "ms"),
    ];
    let tails = vec![
        ("ack_p99_ms", stats::percentile(acks, 0.99)),
        ("snapshot_p90_ms", stats::percentile(snapshots, 0.9)),
        ("query_p99_ms", stats::percentile(queries, 0.99)),
    ];
    Ok((metrics, tails))
}

/// The environment and failure record printed before the result.
fn record(args: &Args, outcome: &Outcome) -> Value {
    let o = &outcome.ops;
    let tails = Value::Object(
        outcome
            .tails
            .iter()
            .map(|(k, v)| (k.to_string(), json!(v)))
            .collect(),
    );
    let notes = Value::Object(
        outcome
            .notes
            .iter()
            .map(|(k, v)| (k.to_string(), json!(v)))
            .collect(),
    );
    json!({"record": {
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": u8::from(args.trace),
        "nproc": sys::nproc(),
        "cpu": sys::cpu_model(),
        "rustc": sys::rustc_version(),
        "shards": fleet::SHARDS,
        "load_threads": outcome.load_threads,
        "connections": outcome.connections,
        "ops": {
            "sends": o.sends,
            "send_failures": o.send_failures,
            "send_retries": o.retries,
            "reconnects": o.reconnects,
            "ingests": o.ingests,
            "ingest_failures": o.ingest_failures,
            "snapshots": o.snapshots,
            "snapshot_failures": o.snapshot_failures,
            "queries": o.queries,
            "query_failures": o.query_failures,
            "lost_samples": o.lost_samples,
            "gate_mismatches": outcome.mismatches.len(),
        },
        "tails": tails,
        "notes": notes,
        "mismatches": outcome.mismatches,
    }})
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome> {
    match args.workload {
        Workload::LiveWire => live_wire::run(args, scratch),
        Workload::FleetAbsorb => fleet_absorb::run(args, scratch),
        Workload::FleetDashboard => fleet_dashboard::run(args, scratch),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload live_wire|fleet_absorb|fleet_dashboard \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Stores live in a scratch directory under the working directory,
    // removed when the run ends.
    let scratch = PathBuf::from(".e2ebench-scratch").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &scratch);
    let cleaned = std::fs::remove_dir_all(&scratch);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = cleaned {
        eprintln!("e2ebench: could not remove {}: {e}", scratch.display());
    }
    for m in &outcome.mismatches {
        eprintln!("e2ebench: correctness gate: {m}");
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            )
        })
        .collect();
    let correct = outcome.mismatches.is_empty();
    let failed = outcome.ops.failed() + outcome.mismatches.len() as u64;
    let result = json!({
        "correct": correct,
        "attempted": outcome.ops.attempted().max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    // `to_string` refuses a NaN or an infinity: every metric is a number.
    let lines = serde_json::to_string(&record(&args, &outcome))
        .and_then(|record| Ok((record, serde_json::to_string(&result)?)));
    match lines {
        Ok((record, result)) => println!("{record}\n{result}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> std::result::Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse("--workload fleet_absorb --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FleetAbsorb);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload live_wire --seed 1 --seconds 1").is_err());
        assert!(parse("--workload live_wire --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload live_wire --seed 1 --seconds 1 --trace 2").is_err());
    }
}
