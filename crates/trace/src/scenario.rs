//! The replay face a workload exposes to the CLI: given a trace file,
//! rebuild the blocks that produced it and re-drive it.
//!
//! Recording needs no per-workload code beyond honouring
//! [`ScenarioConfig::trace`](eqimpact_core::ScenarioConfig) — the sink
//! sees everything. Replay is the asymmetric half: only the workload
//! knows how to construct the AI system and feedback filter its trace
//! was recorded against, so each traceable workload implements
//! [`TraceReplayer`] and registers it next to its scenario. Off-policy
//! evaluation of an alternative policy is the workload's sweep face
//! (`eqimpact_lab::SweepTarget`), which `experiments replay --policy`
//! calls for one candidate and renders with
//! [`off_policy_report`](crate::off_policy_report).

use crate::store::{TraceHeader, TraceReader};
use crate::TraceError;
use eqimpact_core::recorder::LoopRecord;
use std::io::Read;

/// The result of a verified replay.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    /// The trace's provenance header.
    pub header: TraceHeader,
    /// The reconstructed record — byte-identical to the original run's
    /// (the replay verified every recomputed signal and filter output
    /// against the recorded bits).
    pub record: LoopRecord,
}

/// A workload that can rebuild its loop blocks from a trace header, for
/// verified replay. Implemented by the traceable scenarios (credit,
/// hiring) and registered in their rows of the bench crate's scenario
/// registry, which `experiments replay` dispatches on.
pub trait TraceReplayer: Sync {
    /// Replays the trace byte-identically against freshly built blocks,
    /// verifying every recomputed value against the recorded bits.
    fn replay(&self, reader: TraceReader<&mut dyn Read>) -> Result<ReplaySummary, TraceError>;
}

/// The unknown-policy error of an off-policy evaluation, listing the
/// workload's policy names.
pub fn unknown_policy(policy: &str, known: &'static [&'static str]) -> TraceError {
    TraceError::UnknownPolicy {
        policy: policy.to_string(),
        known: known.to_vec(),
    }
}
