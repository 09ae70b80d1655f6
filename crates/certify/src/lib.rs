//! # eqimpact-certify — the certification plane
//!
//! The paper's long-term-impact claims rest on theorem preconditions —
//! ergodicity, contractivity, input-to-state stability — that the theory
//! crates encode but nothing exercised against real runs. This crate
//! closes the loop: it turns a directory of recorded EQTRACE1 traces into
//! a per-scenario **certification verdict artifact** stating which
//! preconditions the scenario's own empirical dynamics satisfy.
//!
//! Three layers:
//!
//! 1. **Extraction** ([`extract`](mod@extract)) streams each trace once,
//!    discretizing the per-user filter state into an empirical transition matrix plus
//!    sampled trajectories, checkpoint-to-checkpoint model states, and a
//!    streaming filter-channel regression — bounded memory, the full
//!    record is never materialized.
//! 2. **Analysis** ([`checks`]) runs the existing theory passes over the
//!    extracted structure: `graph::primitivity` on the transition support
//!    digraph, `markov::ergodic::analyze` + `empirical_equal_impact` on
//!    the embedded chain, `contractivity::estimate_contraction_factor`
//!    and `lyapunov_exponent` on the fitted checkpoint dynamics, and
//!    `control::iss::estimate_iss` on the filter channel. Each pass
//!    yields a named [`Check`] with a [`Verdict`]
//!    (certified / refuted / inconclusive), evidence numbers, and the
//!    theorem precondition it tests.
//! 3. **Reporting** ([`report`], [`engine`]) fans the per-trace cells
//!    through the shared `WorkerPool`/`ThreadBudget` machinery and
//!    renders a deterministic [`CertificateReport`] (JSON + aligned
//!    text), byte-identical across runs and thread counts.
//!
//! Workload crates opt in by implementing [`CertifyTarget`] and
//! registering it in their scenario's row of the bench registry, which
//! gives them the `experiments certify <scenario>` CLI path for free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod engine;
pub mod extract;
pub mod report;

pub use checks::{Check, Verdict};
pub use engine::{certificate_of, certify_trace, run_certification, CertifyConfig, CertifyError};
pub use extract::{extract, Extraction, ExtractionSpec};
pub use report::{CertificateReport, TraceCertificate};

/// A scenario that can be certified from its recorded traces: names the
/// scenario and states how its traces map onto the certification state
/// space.
pub trait CertifyTarget: Sync {
    /// Registry name of the scenario (matches its registry row).
    fn name(&self) -> &'static str;

    /// How to extract the certification structure from this scenario's
    /// traces.
    fn spec(&self) -> ExtractionSpec;
}
