//! The closed-loop view of an AI system and its users (the paper's Fig. 1),
//! with executable definitions of **equal treatment** (Defs. 1-2) and
//! **equal impact** (Defs. 3-4).
//!
//! The loop is decomposed exactly as in the figure:
//!
//! ```text
//!  Goal + AiSystem ──π(k)──▶ UserPopulation ──y(k)──▶ FeedbackFilter
//!        ▲                                                  │
//!        └────────────── Delay (retraining) ◀───────────────┘
//! ```
//!
//! * [`closed_loop`] — the [`closed_loop::AiSystem`],
//!   [`closed_loop::UserPopulation`] and [`closed_loop::FeedbackFilter`]
//!   traits plus the generic [`closed_loop::LoopRunner`] that wires them
//!   together. Each block operation is one required in-place `*_into`
//!   method and the runner is **statically dispatched** over its three
//!   blocks, so a steady-state step performs **zero allocations**. The
//!   filter → record → delay → retrain tail of a step is one
//!   [`closed_loop::StepTail`], shared by every loop driver;
//! * [`features`] — [`features::FeatureMatrix`], the flat row-major
//!   feature storage that replaces `Vec<Vec<f64>>` on the hot path;
//! * [`recorder`] — the telemetry of a run ([`recorder::LoopRecord`],
//!   stored flat) and how much of it to keep ([`recorder::RecordPolicy`]);
//! * [`treatment`] — checkers for equal treatment, unconditional and
//!   conditioned on non-protected attributes;
//! * [`impact`] — estimators of the per-user Cesàro limits `r_i` and their
//!   coincidence, unconditional and group-conditioned;
//! * [`pool`] — the process-wide [`pool::ThreadBudget`] (every parallel
//!   region leases its lanes from one ledger, so `trials × shards` can
//!   never oversubscribe the host) and its two scoped fan-outs:
//!   [`pool::run_indexed`] for one-shot batches of independent jobs
//!   (trials, sweep and certification cells), the caller waiting, and
//!   [`pool::run_striped`] for the sharded runner's per-step sweep, the
//!   caller running stripe 0;
//! * [`shard`] — deterministic **intra-trial** parallelism: the
//!   [`shard::ShardedRunner`] splits one step's user sweep over the
//!   lanes of one budget lease per run (contiguous row shards,
//!   index-keyed [`shard::RowStreams`] RNG streams, one
//!   [`pool::run_striped`] call per step) and merges at a per-step
//!   barrier, producing records bit-identical to the sequential runner
//!   for any shard count;
//! * [`trials`] — deterministic multi-seed trial running, one
//!   [`pool::run_indexed`] batch over lanes leased from the
//!   [`pool::ThreadBudget`];
//! * [`scenario`] — first-class pluggable workloads: the
//!   [`scenario::Scenario`] trait bundles a closed-loop workload's
//!   config ([`scenario::Scale`]), per-trial construction, shard
//!   support and artifact rendering, so trial striping,
//!   sharding and artifact writing are implemented once generically
//!   ([`scenario::run_scenario`], [`scenario::write_artifacts`]); the
//!   object-safe [`scenario::DynScenario`] face powers static registries
//!   and the `experiments` CLI.
//!
//! # Example
//!
//! A one-dimensional toy loop, assembled with [`closed_loop::LoopBuilder`]:
//! the AI system broadcasts the filtered average of past actions and users
//! respond stochastically. Every block writes into the buffer the runner
//! hands it, so the loop allocates nothing once the buffers have grown.
//!
//! ```
//! use eqimpact_core::closed_loop::{AiSystem, Feedback, LoopBuilder, MeanFilter, UserPopulation};
//! use eqimpact_core::features::FeatureMatrix;
//! use eqimpact_core::impact::equal_impact_report;
//! use eqimpact_core::recorder::RecordPolicy;
//! use eqimpact_stats::SimRng;
//!
//! struct Broadcast(f64);
//! impl AiSystem for Broadcast {
//!     fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
//!         out.clear();
//!         out.resize(visible.row_count(), self.0);
//!     }
//!     fn retrain(&mut self, _k: usize, feedback: &Feedback) {
//!         self.0 = 0.5 * self.0 + 0.5 * feedback.aggregate;
//!     }
//! }
//!
//! struct Coins(usize);
//! impl UserPopulation for Coins {
//!     fn user_count(&self) -> usize { self.0 }
//!     fn observe_into(&mut self, _k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
//!         out.reshape(self.0, 0);
//!     }
//!     fn respond_into(&mut self, _k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
//!         out.clear();
//!         out.extend(signals.iter().map(|&s| if rng.bernoulli(0.2 + 0.6 * s.clamp(0.0, 1.0)) { 1.0 } else { 0.0 }));
//!     }
//! }
//!
//! let mut runner = LoopBuilder::new(Broadcast(0.9), Coins(50))
//!     .filter(MeanFilter::default())
//!     .delay(1)                       // the paper's one-step delay
//!     .record(RecordPolicy::Full)     // keep every per-user series
//!     .build();
//! let record = runner.run(3000, &mut SimRng::new(7));
//! let report = equal_impact_report(&record, 0.2, 0.1);
//! assert!(report.all_coincide);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod closed_loop;
pub mod fairness;
pub mod features;
pub mod impact;
pub mod pool;
pub mod recorder;
pub mod scenario;
pub mod shard;
pub mod treatment;
pub mod trials;

pub use checkpoint::ModelCheckpoint;
pub use closed_loop::{
    AiSystem, Feedback, FeedbackFilter, LoopBuilder, LoopRunner, MeanFilter, UserPopulation,
};
pub use fairness::{demographic_parity, equal_opportunity, individual_fairness};
pub use features::FeatureMatrix;
pub use impact::{equal_impact_report, EqualImpactReport};
pub use pool::{BudgetLease, ThreadBudget};
pub use recorder::{LoopRecord, RecordPolicy, StepSink};
pub use scenario::{
    run_scenario, write_artifacts, Artifact, ArtifactSpec, DynScenario, Scale, Scenario,
    ScenarioConfig, ScenarioError, ScenarioReport, TraceMeta, TraceSinkFactory,
};
pub use treatment::{equal_treatment_report, EqualTreatmentReport};
pub use trials::run_trials_with;
