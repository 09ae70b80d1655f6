//! Integration: the generic closed loop wired from real blocks across
//! crates (core + control filters + ml models + stats diagnostics), and
//! the step tail's contract on every loop driver.

use eqimpact_core::closed_loop::{
    AiSystem, Feedback, FeedbackFilter, LoopBuilder, LoopRunner, MeanFilter, UserPopulation,
};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::impact::{conditioned_equal_impact_report, equal_impact_report, group_limits};
use eqimpact_core::recorder::RecordPolicy;
use eqimpact_core::scenario::Scale;
use eqimpact_core::shard::{ColsView, ShardableAi};
use eqimpact_core::treatment::{classes_by_attribute, conditioned_equal_treatment_report};
use eqimpact_core::trials::run_trials_with;
use eqimpact_credit::CreditPopulation;
use eqimpact_stats::describe::Summary;
use eqimpact_stats::SimRng;
use eqimpact_trace::offpolicy::evaluate_off_policy;
use eqimpact_trace::{
    ReplayRunner, StepFrame, TraceHeader, TraceReader, TraceStepSink, FORMAT_VERSION,
};
use std::sync::{Arc, Mutex};

/// A two-class population: class 0 responds at a lower rate than class 1
/// for the same signal — equal treatment without equal impact.
struct TwoClassUsers {
    classes: Vec<u32>,
}

impl UserPopulation for TwoClassUsers {
    fn user_count(&self) -> usize {
        self.classes.len()
    }
    fn observe_into(&mut self, _k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
        out.reshape(self.classes.len(), 1);
        for (cell, &c) in out.col_mut(0).iter_mut().zip(&self.classes) {
            *cell = c as f64;
        }
    }
    fn respond_into(&mut self, _k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.classes.iter().zip(signals).map(|(&c, &s)| {
            let base = if c == 0 { 0.2 } else { 0.6 };
            let p = (base * s.clamp(0.0, 2.0)).clamp(0.0, 1.0);
            if rng.bernoulli(p) {
                1.0
            } else {
                0.0
            }
        }));
    }
}

/// Constant broadcaster (maximally equal treatment).
struct ConstantAi(f64);

impl AiSystem for ConstantAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(visible.row_count(), self.0);
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

fn two_class_record(seed: u64, steps: usize) -> eqimpact_core::recorder::LoopRecord {
    let classes: Vec<u32> = (0..60).map(|i| (i % 2) as u32).collect();
    let mut runner = LoopBuilder::new(ConstantAi(1.0), TwoClassUsers { classes })
        .filter(MeanFilter::default())
        .delay(1)
        .build();
    runner.run(steps, &mut SimRng::new(seed))
}

#[test]
fn equal_treatment_without_equal_impact() {
    // The conflict at the heart of the paper (Ricci v. DeStefano):
    // identical signals, diverging long-run outcomes.
    let record = two_class_record(1, 4_000);
    let classes: Vec<u32> = (0..60).map(|i| (i % 2) as u32).collect();
    let class_sets = classes_by_attribute(&classes);

    let treatment = conditioned_equal_treatment_report(&record, &class_sets, 0.08);
    assert!(treatment.same_signal, "everyone saw the same signal");

    let unconditional_impact = equal_impact_report(&record, 0.2, 0.08);
    assert!(
        !unconditional_impact.all_coincide,
        "class responses must diverge: spread = {}",
        unconditional_impact.max_spread
    );

    // Conditioned on the class attribute, impact is equal within classes.
    let conditional = conditioned_equal_impact_report(&record, &class_sets, 0.2, 0.08);
    assert!(conditional.all_coincide);
    let groups = group_limits(&conditional, &class_sets);
    assert!(
        (groups[0] - 0.2).abs() < 0.05,
        "class 0 limit = {}",
        groups[0]
    );
    assert!(
        (groups[1] - 0.6).abs() < 0.05,
        "class 1 limit = {}",
        groups[1]
    );
}

#[test]
fn multi_trial_limits_are_stable_across_seeds() {
    let records = run_trials_with(6, |t| two_class_record(100 + t as u64, 3_000));
    let mut summary = Summary::new();
    for r in &records {
        let report = equal_impact_report(r, 0.2, 1.0);
        summary.push(report.limits.iter().sum::<f64>() / report.limits.len() as f64);
    }
    // Mean of per-user limits ~ (0.2 + 0.6)/2 = 0.4 across all trials.
    assert!(
        (summary.mean() - 0.4).abs() < 0.03,
        "mean = {}",
        summary.mean()
    );
    assert!(summary.std_dev() < 0.03);
}

/// A smoothed-aggregate filter plugged into the loop: cross-crate use of
/// `eqimpact-control` filters inside `eqimpact-core`.
struct SmoothedAggregateFilter {
    inner: eqimpact_control::filter::EwmaFilter,
}

impl FeedbackFilter for SmoothedAggregateFilter {
    fn apply_into(
        &mut self,
        _k: usize,
        _visible: &FeatureMatrix,
        _signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        use eqimpact_control::filter::Filter as _;
        let raw = actions.iter().sum::<f64>() / actions.len().max(1) as f64;
        out.per_user.clear();
        out.per_user.extend_from_slice(actions);
        out.aggregate = self.inner.push(raw);
    }
}

#[test]
fn control_filter_integrates_with_loop() {
    let classes: Vec<u32> = vec![1; 40];
    let mut runner = LoopBuilder::new(ConstantAi(1.0), TwoClassUsers { classes })
        .filter(SmoothedAggregateFilter {
            inner: eqimpact_control::filter::EwmaFilter::new(0.3),
        })
        .delay(0)
        .build();
    let record = runner.run(500, &mut SimRng::new(5));
    assert_eq!(record.steps(), 500);
    // Class-1 users respond at 0.6 on average.
    let mean = record.mean_actions().iter().sum::<f64>() / 500.0;
    assert!((mean - 0.6).abs() < 0.05, "mean = {mean}");
}

#[test]
fn delayed_and_undelayed_loops_agree_in_distribution() {
    // The delay shifts retraining but the ConstantAi ignores feedback, so
    // the records depend only on the stochastic responses: same seed, same
    // record regardless of delay.
    let classes: Vec<u32> = (0..10).map(|i| (i % 2) as u32).collect();
    let build = |delay: usize| {
        let mut runner = LoopRunner::new(
            ConstantAi(1.0),
            TwoClassUsers {
                classes: classes.clone(),
            },
            MeanFilter::default(),
            delay,
        );
        runner.run(100, &mut SimRng::new(9))
    };
    assert_eq!(build(0), build(3));
}

/// Writes the filter's two fields from the actions alone, and junk (NaN,
/// wrong shapes, an impossible step) into every field the step tail owns.
struct JunkFilter;

impl FeedbackFilter for JunkFilter {
    fn apply_into(
        &mut self,
        _k: usize,
        _visible: &FeatureMatrix,
        _signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        out.per_user.clear();
        out.per_user.extend(actions.iter().map(|&y| 1.0 - y));
        out.aggregate = actions.iter().sum();
        out.step = usize::MAX;
        out.visible = FeatureMatrix::from_nested(&[vec![f64::NAN; 3]]);
        out.signals = vec![f64::NAN; actions.len() + 1];
        out.actions.clear();
    }
}

/// Offers three times each income, and logs every package it retrains on
/// into a log its clones share.
#[derive(Clone, Default)]
struct RecordingAi(Arc<Mutex<Vec<Feedback>>>);

impl AiSystem for RecordingAi {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        self.signals_full(k, visible, out);
    }
    fn retrain(&mut self, _k: usize, feedback: &Feedback) {
        self.0
            .lock()
            .expect("no retrain panicked")
            .push(feedback.clone());
    }
}

impl ShardableAi for RecordingAi {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        for (o, &income) in out.iter_mut().zip(visible.col(1)) {
            *o = 3.0 * income;
        }
    }
}

/// A step's index and feature width, and the bits of its features,
/// signals, actions and filter output.
type StepBits = (usize, usize, Vec<Vec<u64>>);

fn step_bits(step: usize, visible: &FeatureMatrix, channels: [&[f64]; 3]) -> StepBits {
    let bits = |values: &[f64]| -> Vec<u64> { values.iter().map(|v| v.to_bits()).collect() };
    let mut all = vec![bits(&visible.to_row_major())];
    all.extend(channels.map(bits));
    (step, visible.width(), all)
}

impl RecordingAi {
    fn retrained(&self) -> Vec<StepBits> {
        let log = self.0.lock().expect("no retrain panicked");
        log.iter()
            .map(|p| step_bits(p.step, &p.visible, [&p.signals, &p.actions, &p.per_user]))
            .collect()
    }
}

#[test]
fn every_driver_retrains_on_exactly_the_delayed_step() {
    const STEPS: usize = 6;
    for delay in [0usize, 1, 3] {
        let builder = |ai: &RecordingAi| {
            let population = CreditPopulation::generate(40, &mut SimRng::new(7));
            LoopBuilder::new(ai.clone(), population)
                .filter(JunkFilter)
                .delay(delay)
        };
        // The sequential run records the trace every driver is held to:
        // the package retrained on at step k is step k − delay's.
        let header = TraceHeader {
            version: FORMAT_VERSION,
            scenario: "contract".to_string(),
            variant: "junk".to_string(),
            trial: 0,
            scale: Scale::Quick,
            seed: 11,
            shards: 1,
            delay,
            policy: RecordPolicy::Full,
            checkpoints: false,
        };
        let mut sink = TraceStepSink::new(Vec::new(), &header).expect("in-memory trace");
        let sequential = RecordingAi::default();
        builder(&sequential)
            .build()
            .run_with_sink(STEPS, &mut SimRng::new(11), &mut sink);
        let bytes = sink.finish().expect("trace finishes");
        let mut reader = TraceReader::new(&bytes[..]).expect("trace opens");
        let (mut expected, mut frame) = (Vec::new(), StepFrame::default());
        while reader.next_step(&mut frame).expect("step decodes") {
            let channels = [&frame.signals[..], &frame.actions, &frame.filtered];
            expected.push(step_bits(frame.step, &frame.visible, channels));
        }
        assert_eq!(expected.len(), STEPS);
        expected.truncate(STEPS - delay);

        let sharded = [1, 3].map(|shards| {
            let ai = RecordingAi::default();
            builder(&ai)
                .shards(shards)
                .build_sharded()
                .run(STEPS, &mut SimRng::new(11));
            ai
        });
        let replayed = RecordingAi::default();
        let reader = TraceReader::new(&bytes[..]).expect("trace opens");
        let mut replay = ReplayRunner::new(reader, replayed.clone(), JunkFilter);
        replay.run().expect("replay verifies");
        let evaluated = RecordingAi::default();
        let reader = TraceReader::new(&bytes[..]).expect("trace opens");
        evaluate_off_policy(reader, evaluated.clone(), JunkFilter, false).expect("evaluation runs");

        let drivers = [
            ("LoopRunner", &sequential),
            ("1-shard ShardedRunner", &sharded[0]),
            ("3-shard ShardedRunner", &sharded[1]),
            ("ReplayRunner", &replayed),
            ("off-policy evaluator", &evaluated),
        ];
        for (driver, ai) in drivers {
            assert_eq!(ai.retrained(), expected, "{driver}, delay {delay}");
        }
    }
}
