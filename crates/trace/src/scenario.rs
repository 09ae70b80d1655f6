//! The replay face a workload exposes to the CLI: given a trace file,
//! rebuild the blocks that produced it and re-drive or re-evaluate it.
//!
//! Recording needs no per-workload code beyond honouring
//! [`ScenarioConfig::trace`](eqimpact_core::ScenarioConfig) — the sink
//! sees everything. Replay is the asymmetric half: only the workload
//! knows how to construct the AI system and feedback filter its trace
//! was recorded against (and which *alternative* policies make sense for
//! off-policy evaluation), so each traceable workload implements
//! [`TraceReplayer`] and registers it next to its scenario.

use crate::offpolicy::OffPolicyReport;
use crate::store::{TraceHeader, TraceReader};
use crate::TraceError;
use eqimpact_core::recorder::LoopRecord;
use std::io::Read;

/// One alternative policy a workload can evaluate off-policy.
#[derive(Debug, Clone, Copy)]
pub struct PolicySpec {
    /// Stable name, as selected by `experiments replay --policy`.
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
}

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
/// verified replay and off-policy evaluation. Implemented by the
/// traceable scenarios (credit, hiring) and registered in their rows of
/// the bench crate's scenario registry, which `experiments replay`
/// dispatches on.
pub trait TraceReplayer: Sync {
    /// The scenario name this replayer handles (matches both the
    /// scenario registry and trace headers' `scenario` field).
    fn name(&self) -> &'static str;

    /// The alternative policies available for off-policy evaluation.
    fn policies(&self) -> &'static [PolicySpec];

    /// Replays the trace byte-identically against freshly built blocks,
    /// verifying every recomputed value against the recorded bits.
    fn replay(&self, reader: TraceReader<&mut dyn Read>) -> Result<ReplaySummary, TraceError>;

    /// Evaluates the named alternative policy against the trace,
    /// returning fairness/impact deltas vs the recorded behaviour.
    fn evaluate(
        &self,
        reader: TraceReader<&mut dyn Read>,
        policy: &str,
    ) -> Result<OffPolicyReport, TraceError>;
}

/// Helper for [`TraceReplayer::evaluate`] implementations: the
/// unknown-policy error listing a workload's known names.
pub fn unknown_policy(policy: &str, specs: &'static [PolicySpec]) -> TraceError {
    TraceError::UnknownPolicy {
        policy: policy.to_string(),
        known: specs.iter().map(|s| s.name).collect(),
    }
}
