//! The per-layer metrics of a traced run: one fixed list, so every
//! workload prints every metric, each measured on that workload's own
//! data.

use crate::fleet::Tracer;
use crate::inputs::SimRun;
use crate::stats::median;
use crate::{metric, pct, Metric, Result};
use profileme_serve::{FleetStats, StoreStats};

/// What a workload measured for its layers.
pub struct LayerFacts<'a> {
    /// Spans of the run and of its probes.
    pub tracer: &'a Tracer,
    /// Simulation the workload ran (summed over simulations).
    pub sim: SimRun,
    /// `send` median minus the in-process `ingest_batch` median.
    pub net_self_ms: f64,
    /// Loopback bytes per sample sent.
    pub net_bytes_per_sample: f64,
    pub net_retries: u64,
    pub net_reconnects: u64,
    /// `FleetService::ingest_batch` call durations, ms.
    pub ingest_ms: &'a [f64],
    /// Fleet accounting at the final snapshot.
    pub stats: &'a FleetStats,
    /// The fleet's store counters at the final snapshot.
    pub store: StoreStats,
    /// Samples behind the `supervise.absorb` spans.
    pub absorbed: u64,
    pub unattributed_share: f64,
}

pub fn metrics(f: &LayerFacts<'_>) -> Result<Vec<Metric>> {
    let t = f.tracer;
    let p50 = |stage: &str| pct(t.ms(stage), 0.5, stage);
    let once = |stage: &str| -> Result<f64> {
        let ms = t.ms(stage);
        if ms.is_empty() {
            return Err(format!("{stage}: never measured").into());
        }
        Ok(median(ms))
    };
    let sim_s = f.sim.wall.saturating_sub(f.sim.handler).as_secs_f64();
    let service = &f.stats.service;
    let enqueued = service.enqueued.max(1) as f64;
    let absorb_ms: f64 = t.ms("supervise.absorb").iter().sum();
    let untraced = pct(t.blocks(false), 0.5, "untraced blocks")?;
    let traced = pct(t.blocks(true), 0.5, "traced blocks")?;
    Ok(vec![
        metric("uarch.sim_s", sim_s, "s"),
        metric(
            "uarch.retired_minstr_per_s",
            f.sim.retired as f64 / sim_s / 1e6,
            "Minstr/s",
        ),
        metric("core.hw.samples", f.sim.drained as f64, "count"),
        metric("net.self_ms_p50", f.net_self_ms, "ms"),
        metric("net.bytes_per_sample", f.net_bytes_per_sample, "B/sample"),
        metric("net.retries", f.net_retries as f64, "count"),
        metric("net.reconnects", f.net_reconnects as f64, "count"),
        metric(
            "tenant.ingest_batch_us_p50",
            pct(f.ingest_ms, 0.5, "ingest_batch")? * 1e3,
            "us",
        ),
        metric(
            "tenant.ingest_batch_us_p99",
            pct(f.ingest_ms, 0.99, "ingest_batch")? * 1e3,
            "us",
        ),
        metric("tenant.window_ms_p50", p50("tenant.window")?, "ms"),
        metric("tenant.view_clone_ms_p50", p50("tenant.view_clone")?, "ms"),
        metric("ring.high_water", service.high_water as f64, "messages"),
        metric(
            "supervise.absorb_ns_per_sample",
            absorb_ms * 1e6 / f.absorbed.max(1) as f64,
            "ns",
        ),
        metric("supervise.checkpoints", service.checkpoints as f64, "count"),
        metric(
            "supervise.checkpoint_ms_p50",
            p50("supervise.checkpoint")?,
            "ms",
        ),
        metric(
            "supervise.extract_delta_ms_p50",
            p50("supervise.extract_delta")?,
            "ms",
        ),
        metric(
            "supervise.delta_bytes_per_sample",
            service.delta_bytes as f64 / enqueued,
            "B/sample",
        ),
        metric(
            "service.apply_delta_ms_p50",
            p50("service.apply_delta")?,
            "ms",
        ),
        metric(
            "service.view_refreshes",
            service.view_refreshes as f64,
            "count",
        ),
        metric("store.append_us_p50", p50("store.append")? * 1e3, "us"),
        metric(
            "store.bytes_per_sample",
            f.store.appended_bytes as f64 / enqueued,
            "B/sample",
        ),
        metric("store.compactions", f.store.compactions as f64, "count"),
        metric("store.compact_ms", once("store.compact")?, "ms"),
        metric("store.recover_ms", once("store.recover")?, "ms"),
        metric(
            "store.recovered_records",
            f.store.recovered_records as f64,
            "count",
        ),
        metric(
            "core.sw.delta_since_ms_p50",
            p50("core.sw.delta_since")?,
            "ms",
        ),
        metric("core.sw.top_n_us_p50", p50("core.sw.top_n")? * 1e3, "us"),
        metric("trace.unattributed_share", f.unattributed_share, "share"),
        metric("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%"),
    ])
}

/// `1 − Σ stage medians ÷ end-to-end median`: the share of the
/// blocking path no measured stage accounts for.
pub fn unattributed(end_to_end_ms: f64, stage_ms: &[f64]) -> f64 {
    1.0 - stage_ms.iter().sum::<f64>() / end_to_end_ms
}
