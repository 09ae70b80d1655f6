//! Facade over the `eqimpact` workspace: one `use eqimpact::prelude::*`
//! away from building a closed loop.
//!
//! The heavy lifting lives in the member crates; this crate only
//! re-exports them under stable names and hosts the workspace-level
//! examples and integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eqimpact_bench as bench;
pub use eqimpact_census as census;
pub use eqimpact_certify as certify;
pub use eqimpact_control as control;
pub use eqimpact_core as core;
pub use eqimpact_credit as credit;
pub use eqimpact_graph as graph;
pub use eqimpact_hiring as hiring;
pub use eqimpact_lab as lab;
pub use eqimpact_linalg as linalg;
pub use eqimpact_markov as markov;
pub use eqimpact_ml as ml;
pub use eqimpact_stats as stats;
pub use eqimpact_trace as trace;

/// The most common imports for building and running a closed loop.
pub mod prelude {
    pub use eqimpact_core::closed_loop::{
        AiSystem, Feedback, FeedbackFilter, LoopBuilder, LoopRunner, MeanFilter, UserPopulation,
    };
    pub use eqimpact_core::features::FeatureMatrix;
    pub use eqimpact_core::pool::{BudgetLease, ThreadBudget};
    pub use eqimpact_core::recorder::{LoopRecord, RecordPolicy};
    pub use eqimpact_core::scenario::{
        run_scenario, write_artifacts, Artifact, ArtifactSpec, DynScenario, Scale, Scenario,
        ScenarioConfig, ScenarioError, ScenarioReport,
    };
    pub use eqimpact_core::shard::{
        full_cols, shard_bounds, ColsMut, ColsView, PopulationShard, RowStreams, ShardableAi,
        ShardablePopulation, ShardedRunner,
    };
    pub use eqimpact_core::trials::run_trials_with;
    pub use eqimpact_stats::SimRng;
}
