//! The counterfactual lab: fleet-scale off-policy **sweeps** over
//! recorded traces.
//!
//! A single `experiments replay --policy X` answers one counterfactual,
//! through a workload's [`SweepTarget`]. This crate asks them in bulk: a
//! [`CandidateGrid`] enumerates (policy, filter, threshold) combinations,
//! and [`run_sweep`] evaluates each (policy, filter) pair off-policy once
//! per recorded trace and reads every threshold off that one evaluation
//! (a threshold changes only which decisions count as positive). The evaluations run on the
//! process-wide [`ThreadBudget`](eqimpact_core::pool::ThreadBudget) (one
//! [`run_indexed`](eqimpact_core::pool::run_indexed) batch with
//! per-evaluation panic isolation, then one for the bootstrap
//! intervals), and the result is a [`SweepReport`]: candidates
//! ranked by demographic-parity gap, every gap and impact delta carrying
//! a bootstrap confidence interval.
//!
//! # Determinism contract
//!
//! The same traces, grid and [`SweepConfig`] produce a bit-identical
//! report regardless of thread count or scheduling: evaluations come
//! back in index order, cells are pooled per candidate in trace order,
//! and interval `k` of candidate `i` draws only from an RNG derived from
//! `(seed, i, k + 1)`.
//!
//! # The checkpoint fast-path
//!
//! Traces recorded with model checkpoints (format v2,
//! [`TraceHeader::with_checkpoints`](eqimpact_trace::TraceHeader::with_checkpoints))
//! let a candidate that shares the logged learner skip retraining
//! entirely; [`SweepTarget`] implementations enable it exactly when the
//! candidate's policy equals the recorded variant, so the fast-path is
//! sound by construction and every other candidate retrains as usual.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod report;
pub mod sweep;

pub use grid::{CandidateGrid, CandidateSpec, GridError};
pub use report::{RankedCandidate, SweepReport};
pub use sweep::{
    run_sweep, FileTrace, MemTrace, SweepConfig, SweepError, SweepEval, SweepTarget, TraceSource,
    CI_LEVEL,
};
