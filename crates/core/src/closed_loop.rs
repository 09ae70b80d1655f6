//! The closed loop of Fig. 1: AI system, user population, feedback filter
//! and delay, wired by the statically dispatched [`LoopRunner`].
//!
//! Each block operation is one in-place method (`signals_into`,
//! `observe_into`, `respond_into`, `apply_into`) that writes into a
//! reusable buffer, so a steady-state step is **allocation-free**.
//!
//! The tail of a step — filter, record, delay line, retrain or restore,
//! checkpoint capture — is the one [`StepTail`] that every loop driver
//! shares: [`LoopRunner`], the sharded runner, and the trace crate's
//! replay and off-policy evaluator.

use crate::checkpoint::ModelCheckpoint;
use crate::features::FeatureMatrix;
use crate::recorder::{LoopRecord, RecordPolicy, StepSink};
use eqimpact_stats::SimRng;
use eqimpact_telemetry::metrics as tm;
use std::collections::VecDeque;
use std::convert::Infallible;

/// The filtered feedback package delivered (after the delay) to the AI
/// system for retraining.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Feedback {
    /// Step at which the underlying actions were taken (set by the tail).
    pub step: usize,
    /// Filtered per-user values (e.g. running average default rates),
    /// written by the filter.
    pub per_user: Vec<f64>,
    /// Filtered aggregate of the actions, written by the filter.
    pub aggregate: f64,
    /// The per-user visible features at observation time (what the AI was
    /// allowed to see — e.g. income codes, never protected attributes),
    /// moved in by the tail.
    pub visible: FeatureMatrix,
    /// The raw actions `y_i` of that step, moved in by the tail.
    pub actions: Vec<f64>,
    /// The signals `π(k, i)` that were broadcast at that step, moved in
    /// by the tail.
    pub signals: Vec<f64>,
}

/// The AI system block: produces per-user signals, retrains on delayed
/// feedback.
///
/// Signals are written in place, and `signals_into` has no default, so
/// an implementation without it does not compile:
///
/// ```compile_fail,E0046
/// use eqimpact_core::closed_loop::{AiSystem, Feedback};
///
/// struct Silent;
/// impl AiSystem for Silent {
///     fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
/// }
/// ```
pub trait AiSystem {
    /// Writes `π(k, i)` for every user into `out` (cleared first),
    /// reusing its capacity.
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>);

    /// Absorbs one (delayed, filtered) feedback package — the retraining
    /// edge of Fig. 1.
    fn retrain(&mut self, k: usize, feedback: &Feedback);

    /// Captures this system's learned state (weights, per-user memory)
    /// into `out` and returns `true`, or returns `false` when the system
    /// does not support checkpointing (the default). `out` arrives
    /// already [`reset`](ModelCheckpoint::reset) for the current step —
    /// implementations only append fields.
    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        let _ = out;
        false
    }

    /// Restores learned state previously captured by
    /// [`Self::checkpoint_into`], returning `true` on success. Returning
    /// `false` (the default, or on an unrecognized checkpoint) tells the
    /// caller to fall back to [`Self::retrain`].
    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let _ = checkpoint;
        false
    }

    /// Optional downcasting hook so callers can inspect a concrete AI
    /// system (e.g. read the final scorecard) after a type-erased run.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The user population block: holds private states `x_i`, responds
/// stochastically to signals.
///
/// Both operations are written in place and both are required:
///
/// ```compile_fail,E0046
/// use eqimpact_core::closed_loop::UserPopulation;
/// use eqimpact_core::features::FeatureMatrix;
/// use eqimpact_stats::SimRng;
///
/// struct Mute;
/// impl UserPopulation for Mute {
///     fn user_count(&self) -> usize {
///         1
///     }
///     fn observe_into(&mut self, _k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
///         out.reshape(1, 0);
///     }
/// }
/// ```
pub trait UserPopulation {
    /// Number of users `N`.
    fn user_count(&self) -> usize;

    /// Advances private states to step `k` (e.g. income resampling) and
    /// writes the per-user features visible to the AI system into `out`,
    /// reusing its allocation. `out` may hold an older step's features or
    /// be empty, so an implementation shapes it and writes every cell.
    fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix);

    /// Responds to the broadcast signals, writing the actions `y_i(k)`
    /// into `out` (cleared first), reusing its capacity.
    fn respond_into(&mut self, k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>);
}

/// The filter block on the feedback path.
///
/// The feedback package is written in place into a package the
/// [`StepTail`] recycles; an implementation without `apply_into` does
/// not compile:
///
/// ```compile_fail,E0046
/// use eqimpact_core::closed_loop::FeedbackFilter;
///
/// struct Dropped;
/// impl FeedbackFilter for Dropped {}
/// ```
pub trait FeedbackFilter {
    /// Writes the filtered output of step `k`, computed from the raw
    /// observations, into `out.per_user` and `out.aggregate`, reusing
    /// their buffers (`out` is a recycled package).
    ///
    /// Nothing else of `out` is the filter's: after `apply_into` returns,
    /// the [`StepTail`] sets `out.step` and moves the step's `visible`,
    /// `signals` and `actions` into the package, replacing anything the
    /// filter wrote there.
    fn apply_into(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    );

    /// Captures the filter's accumulated state into `out` (append-only;
    /// by convention filter fields are prefixed `filter.`) and returns
    /// `true`, or `false` when the filter does not support checkpointing
    /// (the default — correct for stateless filters).
    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        let _ = out;
        false
    }

    /// Restores state captured by [`Self::checkpoint_into`], returning
    /// `true` on success; `false` means the caller must rebuild the
    /// filter state some other way (e.g. re-applying the trace).
    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let _ = checkpoint;
        false
    }
}

/// A boxed AI system is itself one, so callers can pick the system at
/// runtime (e.g. the policy a trace names) and still drive the generic
/// loop drivers.
impl<T: AiSystem + ?Sized> AiSystem for Box<T> {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        (**self).signals_into(k, visible, out)
    }
    fn retrain(&mut self, k: usize, feedback: &Feedback) {
        (**self).retrain(k, feedback)
    }
    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        (**self).checkpoint_into(out)
    }
    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        (**self).restore_checkpoint(checkpoint)
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

/// The default filter: running (accumulating) per-user means and the
/// aggregate mean — Fig. 1's "accumulating the training data".
#[derive(Debug, Clone, Default)]
pub struct MeanFilter {
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl FeedbackFilter for MeanFilter {
    fn apply_into(
        &mut self,
        _k: usize,
        _visible: &FeatureMatrix,
        _signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        if self.sums.len() != actions.len() {
            self.sums = vec![0.0; actions.len()];
            self.counts = vec![0; actions.len()];
        }
        for (i, &a) in actions.iter().enumerate() {
            self.sums[i] += a;
            self.counts[i] += 1;
        }
        out.per_user.clear();
        // Every count was just incremented above, so c >= 1 here.
        out.per_user.extend(
            self.sums
                .iter()
                .zip(&self.counts)
                .map(|(&s, &c)| s / c as f64),
        );
        out.aggregate = if actions.is_empty() {
            f64::NAN
        } else {
            actions.iter().sum::<f64>() / actions.len() as f64
        };
    }
}

/// One step's buffers at the step barrier, as a loop driver hands them
/// to the [`StepTail`]: what the AI saw, what it broadcast, and how the
/// users acted.
///
/// The tail moves the buffers into the step's feedback package and
/// leaves the driver a recycled package's buffers in their place: an
/// older step's contents, or empty ones. The driver rewrites every
/// buffer in full before its next step.
#[derive(Debug)]
pub struct StepView<'a> {
    /// The step index `k`.
    pub k: usize,
    /// The visible features of every user.
    pub visible: &'a mut FeatureMatrix,
    /// The broadcast signals `π(k, ·)`.
    pub signals: &'a mut Vec<f64>,
    /// The actions `y(k)`.
    pub actions: &'a mut Vec<f64>,
}

/// The restore source of a live run: no recorded checkpoints, so every
/// due package is retrained on.
pub(crate) fn retrain_always(_: &mut ModelCheckpoint) -> Result<bool, Infallible> {
    Ok(false)
}

/// The tail of a loop step — the feedback half of Fig. 1 — shared by
/// every loop driver: the two runners, and the trace crate's replay and
/// off-policy evaluator. A driver produces a step's buffers its own way
/// (simulating, sharding, or reading a trace) and hands them to
/// [`Self::step`].
///
/// The tail owns the delay line: the packages waiting out the delay, the
/// spare packages whose buffers the next step reuses, and the checkpoint
/// buffer. A steady-state step therefore allocates nothing.
#[derive(Debug, Default)]
pub struct StepTail {
    delay: usize,
    pending: VecDeque<Feedback>,
    spare: Vec<Feedback>,
    checkpoint: ModelCheckpoint,
}

impl StepTail {
    /// An empty delay line of `delay` steps: `0` retrains on the same
    /// step's feedback, `1` on the previous step's.
    pub fn new(delay: usize) -> Self {
        StepTail {
            delay,
            ..StepTail::default()
        }
    }

    /// Runs the tail of one step, in this order:
    ///
    /// 1. **filter** — `filter` writes the step's filtered output into a
    ///    recycled [`Feedback`] package;
    /// 2. **record** — `record` and `sink` see the step and the package's
    ///    per-user output;
    /// 3. **attach** — the package takes the step's index, and its
    ///    buffers trade places with the step's (see [`StepView`]);
    /// 4. **retrain or restore** — the package joins the delay line, and
    ///    once more than `delay` packages wait the oldest is due. `restore`
    ///    may load a recorded checkpoint for it; when it does and `ai`
    ///    accepts it, the checkpoint replaces the retrain and `filter` is
    ///    restored from it too. Otherwise `ai` retrains on the package;
    /// 5. **capture** — when `sink` wants checkpoints, the retrained state
    ///    of `ai` and `filter` goes to the sink.
    ///
    /// Returns whether a checkpoint replaced the retrain; an error of
    /// `restore` ends the step there.
    pub fn step<S, F, K, E>(
        &mut self,
        ai: &mut S,
        filter: &mut F,
        step: StepView<'_>,
        record: &mut LoopRecord,
        sink: &mut K,
        restore: impl FnOnce(&mut ModelCheckpoint) -> Result<bool, E>,
    ) -> Result<bool, E>
    where
        S: AiSystem,
        F: FeedbackFilter,
        K: StepSink + ?Sized,
    {
        let StepView {
            k,
            visible,
            signals,
            actions,
        } = step;
        let mut feedback = self.spare.pop().unwrap_or_default();
        {
            let _phase = tm::LOOP_FILTER.enter();
            filter.apply_into(k, visible, signals, actions, &mut feedback);
        }
        {
            let _phase = tm::LOOP_RECORD.enter();
            record.push_step(signals, actions, &feedback.per_user);
            sink.on_step(k, visible, signals, actions, &feedback.per_user);
        }
        feedback.step = k;
        std::mem::swap(&mut feedback.visible, visible);
        std::mem::swap(&mut feedback.signals, signals);
        std::mem::swap(&mut feedback.actions, actions);

        self.pending.push_back(feedback);
        if self.pending.len() <= self.delay {
            return Ok(false);
        }
        let _phase = tm::LOOP_RETRAIN.enter();
        let due = self.pending.pop_front().expect("non-empty by check");
        let restored = restore(&mut self.checkpoint)? && ai.restore_checkpoint(&self.checkpoint);
        if restored {
            let _ = filter.restore_checkpoint(&self.checkpoint);
        } else {
            ai.retrain(k, &due);
        }
        // Recycle the package: its buffers become a later step's.
        self.spare.push(due);
        if sink.wants_checkpoints() {
            self.checkpoint.reset(k);
            if ai.checkpoint_into(&mut self.checkpoint) {
                let _ = filter.checkpoint_into(&mut self.checkpoint);
                sink.on_checkpoint(k, &self.checkpoint);
            }
        }
        Ok(restored)
    }
}

/// The loop runner: wires AI system, population, filter and a delay line
/// of `delay` steps between observation and retraining. Generic over its
/// blocks — the hot path is statically dispatched and allocation-free in
/// steady state (observation, signal, action and feedback buffers are
/// all recycled).
///
/// Use [`LoopBuilder`] to construct one, or [`LoopRunner::new`] for the
/// positional form.
pub struct LoopRunner<S, P, F> {
    ai: S,
    population: P,
    filter: F,
    policy: RecordPolicy,
    tail: StepTail,
    visible: FeatureMatrix,
    signals: Vec<f64>,
    actions: Vec<f64>,
}

impl<S: AiSystem, P: UserPopulation, F: FeedbackFilter> LoopRunner<S, P, F> {
    /// Creates a runner. `delay = 0` retrains on the same step's feedback;
    /// `delay = 1` reproduces the paper's "with some delay, their actions
    /// ... are utilized in retraining".
    pub fn new(ai: S, population: P, filter: F, delay: usize) -> Self {
        LoopRunner {
            ai,
            population,
            filter,
            policy: RecordPolicy::Full,
            tail: StepTail::new(delay),
            visible: FeatureMatrix::default(),
            signals: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// The configured record policy.
    #[cfg(test)]
    pub fn record_policy(&self) -> RecordPolicy {
        self.policy
    }

    /// Runs `steps` passes of the loop, returning the telemetry selected
    /// by the record policy.
    pub fn run(&mut self, steps: usize, rng: &mut SimRng) -> LoopRecord {
        self.run_with_sink(steps, rng, &mut ())
    }

    /// [`Self::run`] with a [`StepSink`] observing every step's raw
    /// telemetry (visible features included) at the step barrier — the
    /// hook the trace store records through. The returned record is
    /// unaffected by the sink.
    pub fn run_with_sink<K: StepSink + ?Sized>(
        &mut self,
        steps: usize,
        rng: &mut SimRng,
        sink: &mut K,
    ) -> LoopRecord {
        let n = self.population.user_count();
        let mut record = LoopRecord::with_policy(n, self.policy);
        record.reserve(steps);
        eqimpact_telemetry::progress::add_goal(steps as u64);

        for k in 0..steps {
            {
                let _phase = tm::LOOP_OBSERVE.enter();
                self.population.observe_into(k, rng, &mut self.visible);
            }
            debug_assert_eq!(
                self.visible.row_count(),
                n,
                "observe must return N feature rows"
            );
            {
                let _phase = tm::LOOP_SIGNAL.enter();
                self.ai.signals_into(k, &self.visible, &mut self.signals);
            }
            assert_eq!(
                self.signals.len(),
                n,
                "AiSystem must emit one signal per user"
            );
            {
                let _phase = tm::LOOP_RESPOND.enter();
                self.population
                    .respond_into(k, &self.signals, rng, &mut self.actions);
            }
            assert_eq!(
                self.actions.len(),
                n,
                "population must emit one action per user"
            );

            let step = StepView {
                k,
                visible: &mut self.visible,
                signals: &mut self.signals,
                actions: &mut self.actions,
            };
            let Ok(_) = self.tail.step(
                &mut self.ai,
                &mut self.filter,
                step,
                &mut record,
                sink,
                retrain_always,
            );
            tm::LOOP_STEPS.incr();
        }
        record
    }

    /// Decomposes the runner back into its blocks.
    pub fn into_parts(self) -> (S, P, F) {
        (self.ai, self.population, self.filter)
    }
}

/// Fluent constructor for [`LoopRunner`].
///
/// ```
/// use eqimpact_core::closed_loop::{LoopBuilder, MeanFilter};
/// use eqimpact_core::recorder::RecordPolicy;
/// # use eqimpact_core::closed_loop::{AiSystem, Feedback, UserPopulation};
/// # use eqimpact_core::features::FeatureMatrix;
/// # use eqimpact_stats::SimRng;
/// # struct Ai; impl AiSystem for Ai {
/// #     fn signals_into(&mut self, _k: usize, v: &FeatureMatrix, out: &mut Vec<f64>) {
/// #         out.clear();
/// #         out.resize(v.row_count(), 0.0);
/// #     }
/// #     fn retrain(&mut self, _k: usize, _f: &Feedback) {}
/// # }
/// # struct Users; impl UserPopulation for Users {
/// #     fn user_count(&self) -> usize { 3 }
/// #     fn observe_into(&mut self, _k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) { out.reshape(3, 0) }
/// #     fn respond_into(&mut self, _k: usize, s: &[f64], _rng: &mut SimRng, out: &mut Vec<f64>) {
/// #         out.clear();
/// #         out.extend_from_slice(s);
/// #     }
/// # }
/// let mut runner = LoopBuilder::new(Ai, Users)
///     .filter(MeanFilter::default())
///     .delay(1)
///     .record(RecordPolicy::Full)
///     .build();
/// let record = runner.run(10, &mut SimRng::new(7));
/// assert_eq!(record.steps(), 10);
/// ```
pub struct LoopBuilder<S, P, F = MeanFilter> {
    ai: S,
    population: P,
    filter: F,
    delay: usize,
    policy: RecordPolicy,
    shards: Option<usize>,
}

impl<S: AiSystem, P: UserPopulation> LoopBuilder<S, P, MeanFilter> {
    /// Starts a builder from the two mandatory blocks. Defaults: a
    /// [`MeanFilter`], the paper's one-step delay, and full recording.
    pub fn new(ai: S, population: P) -> Self {
        LoopBuilder {
            ai,
            population,
            filter: MeanFilter::default(),
            delay: 1,
            policy: RecordPolicy::Full,
            shards: None,
        }
    }
}

impl<S: AiSystem, P: UserPopulation, F: FeedbackFilter> LoopBuilder<S, P, F> {
    /// Replaces the feedback filter.
    pub fn filter<G: FeedbackFilter>(self, filter: G) -> LoopBuilder<S, P, G> {
        LoopBuilder {
            ai: self.ai,
            population: self.population,
            filter,
            delay: self.delay,
            policy: self.policy,
            shards: self.shards,
        }
    }

    /// Sets the shard count for [`Self::build_sharded`] (`0` means auto:
    /// resolve against the thread budget's
    /// [`available_lanes`](crate::pool::ThreadBudget::available_lanes);
    /// always clamped to the population size). Ignored by the sequential
    /// [`Self::build`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Sets the feedback delay in steps.
    pub fn delay(mut self, delay: usize) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the record policy ([`RecordPolicy::Full`] keeps every per-user
    /// series; [`RecordPolicy::Thin`] keeps per-step aggregates only).
    pub fn record(mut self, policy: RecordPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the runner.
    pub fn build(self) -> LoopRunner<S, P, F> {
        let mut runner = LoopRunner::new(self.ai, self.population, self.filter, self.delay);
        runner.policy = self.policy;
        runner
    }

    /// Builds the intra-trial parallel runner
    /// ([`crate::shard::ShardedRunner`]): the population is partitioned
    /// into the configured number of row shards ([`Self::shards`]; auto =
    /// the budget's available lanes when unset), each run leases its lanes
    /// once from the process-wide
    /// [`ThreadBudget::global`](crate::pool::ThreadBudget::global), and
    /// each step's user sweep is one
    /// [`run_striped`](crate::pool::run_striped) call over them.
    /// The produced record is bit-identical to [`Self::build`]'s for
    /// blocks honouring the [`crate::shard::RowStreams`] contract.
    pub fn build_sharded(self) -> crate::shard::ShardedRunner<S, P, F>
    where
        S: crate::shard::ShardableAi,
        P: crate::shard::ShardablePopulation,
    {
        let mut runner = crate::shard::ShardedRunner::with_budget(
            self.ai,
            self.population,
            self.filter,
            self.delay,
            self.shards.unwrap_or(0),
            crate::pool::ThreadBudget::global(),
        );
        runner.set_record_policy(self.policy);
        runner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AI that broadcasts its internal level and tracks feedback count.
    struct CountingAi {
        level: f64,
        retrain_steps: Vec<usize>,
    }

    impl AiSystem for CountingAi {
        fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
            out.clear();
            out.resize(visible.row_count(), self.level);
        }
        fn retrain(&mut self, _k: usize, feedback: &Feedback) {
            self.retrain_steps.push(feedback.step);
            self.level = feedback.aggregate;
        }
    }

    struct DeterministicUsers {
        n: usize,
    }

    impl UserPopulation for DeterministicUsers {
        fn user_count(&self) -> usize {
            self.n
        }
        fn observe_into(&mut self, k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
            out.reshape(self.n, 1);
            for (i, cell) in out.col_mut(0).iter_mut().enumerate() {
                *cell = (i + k) as f64;
            }
        }
        fn respond_into(
            &mut self,
            _k: usize,
            signals: &[f64],
            _rng: &mut SimRng,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.extend(signals.iter().map(|&s| s + 1.0));
        }
    }

    fn runner_with_delay(delay: usize) -> LoopRunner<CountingAi, DeterministicUsers, MeanFilter> {
        LoopBuilder::new(
            CountingAi {
                level: 0.0,
                retrain_steps: Vec::new(),
            },
            DeterministicUsers { n: 3 },
        )
        .delay(delay)
        .build()
    }

    #[test]
    fn record_dimensions() {
        let mut runner = runner_with_delay(1);
        let mut rng = SimRng::new(1);
        let record = runner.run(10, &mut rng);
        assert_eq!(record.steps(), 10);
        assert_eq!(record.user_count(), 3);
        assert_eq!(record.signals(0).len(), 3);
        assert_eq!(record.actions(9).len(), 3);
    }

    #[test]
    fn delay_line_shifts_feedback() {
        // With delay d, the feedback absorbed at step k is from step k - d.
        for delay in [0usize, 1, 3] {
            let mut runner = runner_with_delay(delay);
            let mut rng = SimRng::new(2);
            runner.run(8, &mut rng);
            let expected: Vec<usize> = (0..(8 - delay)).collect();
            let (ai, _, _) = runner.into_parts();
            assert_eq!(ai.retrain_steps, expected, "delay {delay}");
        }
    }

    fn apply(f: &mut MeanFilter, k: usize, visible: &FeatureMatrix, actions: &[f64]) -> Feedback {
        let mut out = Feedback::default();
        f.apply_into(k, visible, &vec![0.0; actions.len()], actions, &mut out);
        out
    }

    #[test]
    fn mean_filter_accumulates_per_user() {
        let mut f = MeanFilter::default();
        let visible = FeatureMatrix::zeros(2, 0);
        let f1 = apply(&mut f, 0, &visible, &[1.0, 0.0]);
        assert_eq!(f1.per_user, vec![1.0, 0.0]);
        assert_eq!(f1.aggregate, 0.5);
        let f2 = apply(&mut f, 1, &visible, &[0.0, 0.0]);
        assert_eq!(f2.per_user, vec![0.5, 0.0]);
        assert_eq!(f2.aggregate, 0.0);
    }

    #[test]
    fn loop_converges_to_fixed_point() {
        // Verify the recorded dynamics are consistent:
        // signal(k) = action(k) - 1 for every step (user responds s + 1).
        let mut runner = runner_with_delay(1);
        let mut rng = SimRng::new(3);
        let record = runner.run(20, &mut rng);
        for k in 0..20 {
            for i in 0..3 {
                assert!((record.actions(k)[i] - record.signals(k)[i] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn thin_record_keeps_aggregates_only() {
        let mut runner = LoopBuilder::new(
            CountingAi {
                level: 0.25,
                retrain_steps: Vec::new(),
            },
            DeterministicUsers { n: 4 },
        )
        .record(RecordPolicy::Thin)
        .build();
        let record = runner.run(6, &mut SimRng::new(5));
        assert_eq!(record.steps(), 6);
        assert_eq!(record.mean_actions().len(), 6);
        // First step: signal 0.25 broadcast, users respond s + 1.
        assert!((record.mean_actions()[0] - 1.25).abs() < 1e-12);
    }

    #[test]
    fn builder_defaults_match_paper() {
        let mut runner = LoopBuilder::new(
            CountingAi {
                level: 0.0,
                retrain_steps: Vec::new(),
            },
            DeterministicUsers { n: 2 },
        )
        .build();
        assert_eq!(runner.record_policy(), RecordPolicy::Full);
        // A delay of one step: the last step's feedback is still pending.
        runner.run(4, &mut SimRng::new(1));
        let (ai, _, _) = runner.into_parts();
        assert_eq!(ai.retrain_steps, [0, 1, 2]);
    }

    #[test]
    fn into_parts_returns_blocks() {
        let mut runner = runner_with_delay(0);
        runner.run(3, &mut SimRng::new(1));
        let (ai, population, _filter) = runner.into_parts();
        assert_eq!(ai.retrain_steps, vec![0, 1, 2]);
        assert_eq!(population.user_count(), 3);
    }

    #[test]
    #[should_panic(expected = "one signal per user")]
    fn mismatched_ai_is_caught() {
        struct BadAi;
        impl AiSystem for BadAi {
            fn signals_into(&mut self, _k: usize, _visible: &FeatureMatrix, out: &mut Vec<f64>) {
                out.clear();
                out.push(0.0); // wrong length
            }
            fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
        }
        let mut runner =
            LoopRunner::new(BadAi, DeterministicUsers { n: 3 }, MeanFilter::default(), 0);
        runner.run(1, &mut SimRng::new(0));
    }
}
