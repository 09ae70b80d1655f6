//! Columnar trace store for closed-loop runs: record once, replay and
//! re-evaluate forever.
//!
//! Every question about a recorded run — "what happened?", "does it
//! reproduce?", "what if a *different* lender had seen the same
//! signals?" — previously required re-simulating the population from
//! scratch. This crate turns one trial into a compact, self-describing,
//! replayable asset with three layers:
//!
//! * **Storage** ([`column`](mod@column), [`store`]) — a dependency-free
//!   binary columnar format for [`LoopRecord`](eqimpact_core::LoopRecord) /
//!   [`FeatureMatrix`](eqimpact_core::FeatureMatrix) streams: per-column
//!   delta + zigzag-varint encoding with optional run-length encoding,
//!   CRC-32-checksummed length-framed blocks, and a versioned JSON header
//!   carrying scenario name, scale, seed, shard count and record policy.
//!   [`TraceWriter`] streams steps out as they happen; [`TraceReader`]
//!   iterates them back with bounded memory.
//! * **Replay** ([`replay`], [`offpolicy`]) — [`ReplayRunner`] re-drives
//!   the loop from the recorded features and actions instead of
//!   simulating the population, producing a record **byte-identical** to
//!   the original run (recomputed signals and filter outputs are verified
//!   against the recorded ones step by step). [`evaluate_off_policy`]
//!   swaps in an alternative AI/filter pair and scores it against the
//!   recorded trajectory, reporting fairness and impact deltas through
//!   `eqimpact_core::fairness`.
//! * **Integration** ([`sink`], [`scenario`]) — [`TraceDirFactory`]
//!   plugs into [`ScenarioConfig::trace`](eqimpact_core::ScenarioConfig)
//!   so `run_scenario` records every loop of every trial to disk, and
//!   the [`TraceReplayer`] trait is what workload crates implement to
//!   wire `experiments replay` through the registry.
//!
//! # Determinism contract
//!
//! A trace stores, per step, the visible features, broadcast signals,
//! actions and filter outputs exactly as `f64` bit patterns. Replay
//! rebuilds the workload's AI system and feedback filter from their
//! deterministic initial state, feeds them the recorded features and
//! actions, and checks that every recomputed signal and filter output
//! matches the recorded bits. Because both runners emit telemetry at the
//! sequential step barrier, a trace recorded under **any shard count**
//! replays byte-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod offpolicy;
pub mod replay;
pub mod scenario;
pub mod sink;
pub mod store;

pub use column::{decode_column, encode_column};
pub use offpolicy::{
    evaluate_off_policy, off_policy_report, OffPolicyOutcome, OffPolicyReport, DECISION_THRESHOLD,
};
pub use replay::ReplayRunner;
pub use scenario::{ReplaySummary, TraceReplayer};
pub use sink::{TraceDirFactory, TraceStepSink};
pub use store::{StepFrame, TraceGroups, TraceHeader, TraceReader, TraceWriter, FORMAT_VERSION};

use std::fmt;

/// Errors from writing, reading, replaying or evaluating traces.
///
/// Every malformed-input condition is a named variant — truncated or
/// corrupted traces never panic the readers.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The input does not start with the trace magic.
    BadMagic,
    /// The header's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// A frame's payload does not match its CRC-32 checksum.
    ChecksumMismatch {
        /// Zero-based index of the corrupt frame.
        frame: usize,
    },
    /// The input ended mid-structure.
    Truncated {
        /// What was being read when the input ran out.
        what: &'static str,
    },
    /// The input decoded but is structurally invalid.
    Corrupt {
        /// What is wrong.
        what: String,
    },
    /// The writer refused a frame its reader would reject; no byte of
    /// the frame was written.
    Refused {
        /// The rule the frame breaks, with the reader's limit.
        what: String,
    },
    /// Replay recomputed a value that differs from the recorded one —
    /// the workload's blocks are not deterministic, or the trace does
    /// not belong to them.
    ReplayMismatch {
        /// The step at which replay diverged.
        step: usize,
        /// The channel that diverged (`signals` or `filtered`).
        channel: &'static str,
    },
    /// The trace's recorded variant is not one this workload can rebuild.
    UnknownVariant {
        /// Scenario named in the header.
        scenario: String,
        /// The unrecognized variant.
        variant: String,
    },
    /// An off-policy evaluation named a policy the workload doesn't have.
    UnknownPolicy {
        /// The unrecognized policy.
        policy: String,
        /// Every policy the workload offers.
        known: Vec<&'static str>,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (reader supports {FORMAT_VERSION})"
                )
            }
            TraceError::ChecksumMismatch { frame } => {
                write!(f, "checksum mismatch in frame {frame} (corrupted trace)")
            }
            TraceError::Truncated { what } => write!(f, "truncated trace while reading {what}"),
            TraceError::Corrupt { what } => write!(f, "corrupt trace: {what}"),
            TraceError::Refused { what } => write!(f, "trace writer refused a frame: {what}"),
            TraceError::ReplayMismatch { step, channel } => write!(
                f,
                "replay diverged from the recorded {channel} at step {step}"
            ),
            TraceError::UnknownVariant { scenario, variant } => write!(
                f,
                "scenario `{scenario}` cannot rebuild recorded variant `{variant}`"
            ),
            TraceError::UnknownPolicy { policy, known } => {
                write!(f, "unknown policy `{policy}` (known: {})", known.join(", "))
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
