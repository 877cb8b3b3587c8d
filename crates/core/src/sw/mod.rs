//! The ProfileMe profiling software (§5): interrupt drivers, the profile
//! database with incremental aggregation, statistical estimators,
//! concurrency analyses over paired samples, and path profiling.

mod concurrency;
mod database;
pub(crate) mod driver;
mod estimate;
mod pathprof;
mod report;
pub(crate) mod wire;

pub use concurrency::{
    estimate_pair_metric, instructions_retired_around, neighborhood_ipc, pipeline_population,
    useful_overlap, wasted_issue_slots, OverlapKind, PairMetric, StagePopulation, WastedSlots,
};
pub use database::{
    PairProfileDatabase, PairProfileField, PcPairProfile, PcProfile, ProfileDatabase, ProfileField,
    WireFormat,
};
pub use driver::{
    run_ground_truth, run_hardware, HardwareRun, PairedRun, SampleCollector, SingleRun,
};
pub use estimate::{confidence_interval, estimate_total, expected_cov, Estimate};
pub use pathprof::{PathProfiler, PathScheme, ReconstructionOutcome};
pub use report::{procedure_summaries, ProcedureSummary};
