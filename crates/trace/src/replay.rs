//! Deterministic replay: re-driving the closed loop from a recorded
//! trace instead of simulating the population.
//!
//! Two faces of the same idea:
//!
//! * [`ReplayRunner`] is the Result-based driver: it mirrors
//!   [`LoopRunner::run`](eqimpact_core::closed_loop::LoopRunner::run)'s
//!   step order exactly — observe (from the trace) → signal (from the
//!   replayed AI) → respond (from the trace) → filter → record → delayed
//!   retrain — and **verifies** every recomputed signal and filter
//!   output against the recorded bits, so a successful replay is
//!   a proof of byte-identity, and a corrupt or foreign trace surfaces
//!   as a named [`TraceError`] instead of bad data.
//! * [`RecordedPopulation`] implements the core
//!   [`UserPopulation`] contract directly, so a trace can stand in for a
//!   live population anywhere a runner takes one (the cross-runner
//!   property tests drive a standard `LoopRunner` over it).

use crate::store::{StepFrame, TraceHeader, TraceReader};
use crate::TraceError;
use eqimpact_core::closed_loop::{AiSystem, FeedbackFilter, StepTail, StepView, UserPopulation};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::{LoopRecord, StepSink};
use eqimpact_stats::SimRng;
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
pub struct ReplayRunner<S, F, R: Read> {
    reader: TraceReader<R>,
    ai: S,
    filter: F,
    use_checkpoints: bool,
    restored: usize,
    tail: StepTail,
    frame: StepFrame,
    signals: Vec<f64>,
}

impl<S: AiSystem, F: FeedbackFilter, R: Read> ReplayRunner<S, F, R> {
    /// Wraps an opened trace with the blocks to replay it against. The
    /// checkpoint fast-path is on by default (a no-op on checkpoint-free
    /// traces).
    pub fn new(reader: TraceReader<R>, ai: S, filter: F) -> Self {
        let tail = StepTail::new(reader.header().delay);
        ReplayRunner {
            reader,
            ai,
            filter,
            use_checkpoints: true,
            restored: 0,
            tail,
            frame: StepFrame::default(),
            signals: Vec::new(),
        }
    }

    /// Enables or disables the checkpoint fast-path: when on (the
    /// default) a recorded model checkpoint replaces the corresponding
    /// `retrain` call wherever the AI system accepts it, skipping
    /// training entirely. Per-step verification still applies, so a
    /// restored model that diverges from the recorded signals surfaces
    /// as a [`TraceError::ReplayMismatch`].
    pub fn use_checkpoints(mut self, on: bool) -> Self {
        self.use_checkpoints = on;
        self
    }

    /// How many retrains were replaced by checkpoint restores so far.
    // analyze::allow(R8): credit and hiring trace unit tests check that replays restore checkpoints through it
    pub fn checkpoints_restored(&self) -> usize {
        self.restored
    }

    /// The trace's provenance header.
    pub fn header(&self) -> &TraceHeader {
        self.reader.header()
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
                |checkpoint| {
                    if self.use_checkpoints {
                        self.reader.next_checkpoint(checkpoint)
                    } else {
                        Ok(false)
                    }
                },
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

    /// Decomposes the runner back into its blocks (e.g. to inspect the
    /// replayed AI's final model).
    pub fn into_parts(self) -> (S, F) {
        (self.ai, self.filter)
    }
}

/// A recorded trace as a drop-in [`UserPopulation`] block: `observe`
/// serves the recorded visible features, `respond` the recorded actions,
/// and the runner's RNG is ignored (the trace *is* the randomness).
///
/// This is the bridge into the infallible runner APIs, so trace errors
/// mid-run **panic** with the underlying [`TraceError`] message; use
/// [`ReplayRunner`] for Result-based replay of untrusted inputs.
pub struct RecordedPopulation<R: Read> {
    reader: TraceReader<R>,
    frame: StepFrame,
    users: usize,
    /// Whether `frame` holds a step not yet consumed by `observe`.
    primed: bool,
}

impl<R: Read> RecordedPopulation<R> {
    /// Opens a recorded population, priming the first step (so the user
    /// count is known up front). Zero-step traces yield an empty
    /// population.
    pub fn new(mut reader: TraceReader<R>) -> Result<Self, TraceError> {
        let mut frame = StepFrame::default();
        let primed = reader.next_step(&mut frame)?;
        let users = if primed {
            frame.signals.len()
        } else {
            reader.groups().map(|g| g.codes.len()).unwrap_or(0)
        };
        Ok(RecordedPopulation {
            reader,
            frame,
            users,
            primed,
        })
    }

    /// The trace's provenance header.
    pub fn header(&self) -> &TraceHeader {
        self.reader.header()
    }

    fn frame_for(&mut self, k: usize, what: &str) -> &StepFrame {
        while self.primed && self.frame.step < k {
            self.primed = self
                .reader
                .next_step(&mut self.frame)
                .unwrap_or_else(|e| panic!("RecordedPopulation: {e}"));
        }
        assert!(
            self.primed && self.frame.step == k,
            "RecordedPopulation: {what} asked for step {k} but the trace has no such step"
        );
        &self.frame
    }
}

impl<R: Read> UserPopulation for RecordedPopulation<R> {
    fn user_count(&self) -> usize {
        self.users
    }

    fn observe_into(&mut self, k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
        let frame = self.frame_for(k, "observe");
        out.fill_from(&frame.visible);
    }

    fn respond_into(&mut self, k: usize, _signals: &[f64], _rng: &mut SimRng, out: &mut Vec<f64>) {
        let frame = self.frame_for(k, "respond");
        out.clear();
        out.extend_from_slice(&frame.actions);
    }
}
