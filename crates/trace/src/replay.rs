//! Deterministic replay: re-driving the closed loop from a recorded
//! trace instead of simulating the population.
//!
//! [`ReplayRunner`] mirrors
//! [`LoopRunner::run`](eqimpact_core::closed_loop::LoopRunner::run)'s
//! step order exactly — observe (from the trace) → signal (from the
//! replayed AI) → respond (from the trace) → filter → record → delayed
//! retrain, or a restore from the trace's model checkpoint — and
//! **verifies** every recomputed signal and filter output against the
//! recorded bits, so a successful replay is a proof of byte-identity,
//! and a corrupt or foreign trace surfaces as a named [`TraceError`]
//! instead of bad data.

use crate::store::{StepFrame, TraceReader};
use crate::TraceError;
use eqimpact_core::closed_loop::{AiSystem, FeedbackFilter, StepTail, StepView};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::{LoopRecord, StepSink};
use std::io::Read;

/// Bitwise equality over float slices (NaN == NaN, +0 != -0): replay
/// verification is about byte-identity, not numeric closeness.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The replay's step sink: checks each recomputed filter output against
/// the one the trace recorded for the same step.
struct FilteredCheck<'a> {
    recorded: &'a [f64],
    matches: bool,
}

impl StepSink for FilteredCheck<'_> {
    fn on_step(
        &mut self,
        _k: usize,
        _visible: &FeatureMatrix,
        _signals: &[f64],
        _actions: &[f64],
        filtered: &[f64],
    ) {
        self.matches = bits_equal(filtered, self.recorded);
    }
}

/// Re-drives a recorded loop against a freshly built AI system and
/// feedback filter (see the module docs). The delay line and record
/// policy come from the trace header, so the produced [`LoopRecord`] is
/// byte-identical to the original run's.
///
/// A recorded model checkpoint replaces the corresponding `retrain` call
/// wherever the AI system accepts it, skipping training; checkpoint-free
/// traces retrain throughout. Per-step verification applies either way,
/// so a restored model that diverges from the recorded signals surfaces
/// as a [`TraceError::ReplayMismatch`].
pub struct ReplayRunner<S, F, R: Read> {
    reader: TraceReader<R>,
    ai: S,
    filter: F,
    restored: usize,
    tail: StepTail,
    frame: StepFrame,
    signals: Vec<f64>,
}

impl<S: AiSystem, F: FeedbackFilter, R: Read> ReplayRunner<S, F, R> {
    /// Wraps an opened trace with the blocks to replay it against.
    pub fn new(reader: TraceReader<R>, ai: S, filter: F) -> Self {
        let tail = StepTail::new(reader.header().delay);
        ReplayRunner {
            reader,
            ai,
            filter,
            restored: 0,
            tail,
            frame: StepFrame::default(),
            signals: Vec::new(),
        }
    }

    /// How many retrains were replaced by checkpoint restores so far.
    // analyze::allow(R8): credit and hiring trace unit tests check that replays restore checkpoints through it
    pub fn checkpoints_restored(&self) -> usize {
        self.restored
    }

    /// Replays the whole trace, returning the reconstructed record.
    pub fn run(&mut self) -> Result<LoopRecord, TraceError> {
        let policy = self.reader.header().policy;
        let mut record: Option<LoopRecord> = None;
        while self.reader.next_step(&mut self.frame)? {
            let k = self.frame.step;
            let record = record
                .get_or_insert_with(|| LoopRecord::with_policy(self.frame.signals.len(), policy));
            let mismatch = |channel| TraceError::ReplayMismatch { step: k, channel };

            self.ai
                .signals_into(k, &self.frame.visible, &mut self.signals);
            if !bits_equal(&self.signals, &self.frame.signals) {
                return Err(mismatch("signals"));
            }

            let step = StepView {
                k,
                visible: &mut self.frame.visible,
                signals: &mut self.signals,
                actions: &mut self.frame.actions,
            };
            let mut check = FilteredCheck {
                recorded: &self.frame.filtered,
                matches: false,
            };
            // The checkpoint of step k's retrain sits directly after the
            // step-k frame; the tail restores it instead of retraining
            // when present and accepted. A missing or rejected checkpoint
            // falls back to the real retrain, so partial support degrades
            // to correctness, not corruption.
            let restored = self.tail.step(
                &mut self.ai,
                &mut self.filter,
                step,
                record,
                &mut check,
                |checkpoint| self.reader.next_checkpoint(checkpoint),
            )?;
            if !check.matches {
                return Err(mismatch("filtered"));
            }
            self.restored += usize::from(restored);
        }
        Ok(record.unwrap_or_else(|| {
            let users = self.reader.groups().map(|g| g.codes.len()).unwrap_or(0);
            LoopRecord::with_policy(users, policy)
        }))
    }
}
