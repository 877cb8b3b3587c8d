//! # profileme-core
//!
//! The primary contribution of *"ProfileMe: Hardware Support for
//! Instruction-Level Profiling on Out-of-Order Processors"* (Dean, Hicks,
//! Waldspurger, Weihl, Chrysos — MICRO-30, 1997), reproduced in full:
//!
//! * **Hardware** (§4): the Fetched Instruction Counter that randomly
//!   selects instructions ([`SelectionMode`], [`IntervalGenerator`]), the
//!   ProfileMe tag that follows a selected instruction through the
//!   pipeline, the Profile Registers that record its PC, events,
//!   addresses, branch history, and per-stage latencies
//!   ([`ProfileMeHardware`]), *paired sampling* with major/minor
//!   intervals and an inter-pair fetch latency register
//!   ([`PairedHardware`]), and sample buffering to amortize interrupt
//!   cost ([`SampleBuffer`]).
//! * **Software** (§5): the [`Session`] builder over the sampling
//!   drivers, a compact incrementally aggregated — and *mergeable* —
//!   profile database ([`ProfileDatabase`], [`PairProfileDatabase`]),
//!   statistical estimators with convergence behaviour
//!   ([`Estimate`]), concurrency metrics over paired samples including
//!   *wasted issue slots* ([`wasted_issue_slots`], [`OverlapKind`]), and
//!   path profiling from branch-history bits ([`PathProfiler`]).
//!
//! The hardware attaches to the out-of-order pipeline simulator in
//! [`profileme_uarch`] through its
//! [`ProfilingHardware`](profileme_uarch::ProfilingHardware) seam — the
//! same seam the event-counter baseline (`profileme-counters`) uses, so
//! comparisons run on identical machines.
//!
//! # Example: find the D-cache-missing instruction
//!
//! ```
//! use profileme_core::{ProfileMeConfig, Session};
//! use profileme_isa::{Cond, ProgramBuilder, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A loop whose load strides through memory, missing often.
//! let mut b = ProgramBuilder::new();
//! b.function("main");
//! b.load_imm(Reg::R9, 4000);
//! b.load_imm(Reg::R12, 0x100000);
//! let top = b.label("top");
//! let load_pc = b.current_pc();
//! b.load(Reg::R1, Reg::R12, 0);
//! b.addi(Reg::R12, Reg::R12, 512);
//! b.addi(Reg::R9, Reg::R9, -1);
//! b.cond_br(Cond::Ne0, Reg::R9, top);
//! b.halt();
//!
//! let run = Session::builder(b.build()?)
//!     .sampling(ProfileMeConfig { mean_interval: 64, ..Default::default() })
//!     .build()?
//!     .profile_single()?;
//!
//! // The load dominates the sampled D-cache misses.
//! let (worst_pc, _) = run
//!     .db
//!     .iter()
//!     .max_by_key(|(_, p)| p.dcache_misses)
//!     .expect("samples were collected");
//! assert_eq!(worst_pc, load_pc);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hw;
mod sample;
mod session;
mod sw;

pub use error::ProfileError;
pub use hw::{
    IntervalGenerator, NWayConfig, NWayHardware, PairedConfig, PairedHardware, ProfileMeConfig,
    ProfileMeHardware, SampleBuffer, SelectionMode,
};
pub use sample::{PairedSample, Sample, MAX_BATCH_SAMPLES};
pub use session::{Session, SessionBuilder};
pub use sw::{
    confidence_interval, estimate_pair_metric, estimate_total, expected_cov,
    instructions_retired_around, neighborhood_ipc, pipeline_population, procedure_summaries,
    run_ground_truth, run_hardware, useful_overlap, wasted_issue_slots, Estimate, HardwareRun,
    OverlapKind, PairMetric, PairProfileDatabase, PairProfileField, PairedRun, PathProfiler,
    PathScheme, PcPairProfile, PcProfile, ProcedureSummary, ProfileDatabase, ProfileField,
    ReconstructionOutcome, SampleCollector, SingleRun, StagePopulation, WastedSlots, WireFormat,
};
