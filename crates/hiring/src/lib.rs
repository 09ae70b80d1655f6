//! A second closed-loop workload: **hiring/admissions** through the
//! paper's Fig. 1 lens, assembled from the existing building blocks —
//! census demographics (`eqimpact-census`), the retrained logistic
//! learner (`eqimpact-ml`) and a fading-memory filter (`eqimpact-control`) —
//! on the generic loop machinery of `eqimpact-core`.
//!
//! A screener (the AI system) decides each round who is hired; hired
//! applicants succeed or fail on the job according to their household
//! resources and accumulated experience (the user population); a filter
//! turns outcomes into per-applicant **track records** that feed the
//! screener's next retraining — the same closed loop as the credit case
//! study, with access to work instead of access to credit.
//!
//! * [`model`] — the probit job-performance model (readiness margin,
//!   success probability);
//! * [`applicants`] — the shardable applicant-pool population block;
//! * [`screener`] — the retrained logistic screener (the learner of
//!   `eqimpact_ml::retrained` plus the hire-at-cut-off decision) and the
//!   credential-gate equal-treatment baseline;
//! * [`track`] — the track-record feedback filter (per-applicant running
//!   success rates, EWMA-smoothed aggregate);
//! * [`sim`] — configuration and single trials;
//! * [`scenario`] — the workload as a registry
//!   [`Scenario`](eqimpact_core::scenario::Scenario) (`experiments run
//!   hiring`);
//! * [`trace`] — verified replay of recorded hiring traces
//!   (`experiments record hiring` / `experiments replay`);
//! * [`sweep`] — the off-policy face: candidate grids of
//!   screeners/thresholds evaluated over recorded traces
//!   (`experiments sweep hiring`), and the single candidate of
//!   `experiments replay --policy`;
//! * [`certify`] — the certification face (`experiments certify
//!   hiring`).
//!
//! The loop inherits the workspace-wide determinism contract: records
//! are **bit-identical for every intra-trial shard count** (property-tested
//! in `tests/properties.rs`), and to the sequential runner's (the
//! workspace's `tests/columnar_parity.rs`).
//!
//! # Example
//!
//! ```
//! use eqimpact_hiring::sim::{run_trial, HiringConfig, ScreenerKind};
//!
//! let config = HiringConfig {
//!     applicants: 100,
//!     rounds: 6,
//!     screener: ScreenerKind::Credential,
//!     ..HiringConfig::default()
//! };
//! let outcome = run_trial(&config, 0);
//! assert_eq!(outcome.record.steps(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod applicants;
pub mod certify;
pub mod model;
pub mod scenario;
pub mod screener;
pub mod sim;
pub mod sweep;
pub mod trace;
pub mod track;

pub use applicants::{ApplicantPool, ApplicantShard};
pub use certify::HiringCertify;
pub use scenario::HiringScenario;
pub use screener::{AdaptiveScreener, CredentialScreener};
pub use sim::{run_trial, HiringConfig, HiringOutcome, ScreenerKind};
pub use sweep::HiringSweep;
pub use trace::HiringTracer;
pub use track::TrackRecordFilter;
