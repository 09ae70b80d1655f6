//! Off-policy counterfactual evaluation: score an *alternative* policy
//! against a recorded trajectory, without re-simulating the population.
//!
//! The evaluator walks the trace once. At every step the alternative AI
//! sees exactly the visible features the behaviour policy saw and emits
//! its own signals; the recorded actions stand in for the population's
//! responses (the classical logged-bandit reading: the log is the data,
//! the candidate policy is the question), the alternative filter digests
//! them, and the delayed feedback retrains the alternative AI through the
//! same [`StepTail`] as the live loop — so the candidate adapts over the
//! trajectory just as it would have there. The result is a pair of
//! [`LoopRecord`]s over identical actions — recorded behaviour vs
//! counterfactual decisions — which [`off_policy_report`] turns into
//! fairness and impact deltas through [`eqimpact_core::fairness`].
//!
//! The one caveat of any off-policy read-out is confounding: the
//! recorded actions were taken *under the behaviour policy's signals*,
//! so second-order feedback effects of the candidate are out of scope —
//! exactly the gap the paper's closed-loop analysis warns about, and the
//! reason the report carries the decision-agreement rate as a validity
//! measure alongside the deltas.

use crate::store::{StepFrame, TraceGroups, TraceReader};
use crate::TraceError;
use eqimpact_core::closed_loop::{AiSystem, FeedbackFilter, StepTail, StepView};
use eqimpact_core::fairness::{demographic_parity, equal_opportunity};
use eqimpact_core::recorder::{LoopRecord, RecordPolicy};
use eqimpact_core::scenario::Scale;
use eqimpact_stats::{Json, ToJson};
use std::io::Read;

/// The positive-decision threshold on the signal channel of every traced
/// scenario: a signal above it is a positive decision (a loan offered, an
/// applicant hired). [`off_policy_report`] reads decisions at it; a sweep
/// grid may ask about others through [`OffPolicyOutcome::agreement_at`].
pub const DECISION_THRESHOLD: f64 = 0.0;

/// The raw material of an off-policy evaluation: the recorded behaviour
/// and the counterfactual decisions, over the same logged actions.
#[derive(Debug, Clone)]
pub struct OffPolicyOutcome {
    /// The recorded run (signals, actions, filter outputs as logged).
    pub baseline: LoopRecord,
    /// The counterfactual run: the alternative policy's signals and
    /// filter outputs over the logged actions.
    pub counterfactual: LoopRecord,
    /// Group metadata carried by the trace, when present.
    pub groups: Option<TraceGroups>,
}

impl OffPolicyOutcome {
    /// Fraction of (step, user) decisions on which the two policies
    /// agree at `threshold`: both signals `> threshold`, or neither. The
    /// comparison is strict, so a signal equal to `threshold` is a
    /// negative decision. NaN when the records hold no decision.
    ///
    /// No part of the evaluation depends on the threshold, so one
    /// outcome answers every threshold a sweep asks about.
    pub fn agreement_at(&self, threshold: f64) -> f64 {
        let mut agree = 0usize;
        let mut total = 0usize;
        for k in 0..self.counterfactual.steps() {
            let baseline = self.baseline.signals(k);
            for (a, b) in self.counterfactual.signals(k).iter().zip(baseline) {
                total += 1;
                if (*a > threshold) == (*b > threshold) {
                    agree += 1;
                }
            }
        }
        if total == 0 {
            f64::NAN
        } else {
            agree as f64 / total as f64
        }
    }
}

/// Walks the trace once, driving `alt_ai`/`alt_filter` over the recorded
/// features and actions (see the module docs). Both returned records are
/// [`RecordPolicy::Full`] so the fairness auditors can read them
/// regardless of the original policy; a decision threshold enters only
/// their read-out ([`OffPolicyOutcome::agreement_at`],
/// [`off_policy_report`]).
///
/// With `use_checkpoints`, the candidate's retrains are replaced by the
/// trace's model checkpoints wherever the candidate accepts them
/// ([`AiSystem::restore_checkpoint`] returns `true`), and the candidate
/// filter is restored from the same checkpoint. That is only sound when
/// the candidate shares the logged policy's learner (e.g. threshold
/// variants of the recorded scorecard); a candidate that learns
/// differently must retrain, so pass `false` for it.
pub fn evaluate_off_policy<S: AiSystem, F: FeedbackFilter, R: Read>(
    mut reader: TraceReader<R>,
    mut alt_ai: S,
    mut alt_filter: F,
    use_checkpoints: bool,
) -> Result<OffPolicyOutcome, TraceError> {
    let mut tail = StepTail::new(reader.header().delay);
    let mut frame = StepFrame::default();
    let mut baseline: Option<LoopRecord> = None;
    let mut counterfactual: Option<LoopRecord> = None;
    let mut signals = Vec::new();

    while reader.next_step(&mut frame)? {
        let k = frame.step;
        let n = frame.signals.len();
        let baseline =
            baseline.get_or_insert_with(|| LoopRecord::with_policy(n, RecordPolicy::Full));
        let counterfactual =
            counterfactual.get_or_insert_with(|| LoopRecord::with_policy(n, RecordPolicy::Full));

        baseline.push_step(&frame.signals, &frame.actions, &frame.filtered);

        alt_ai.signals_into(k, &frame.visible, &mut signals);
        assert_eq!(
            signals.len(),
            n,
            "alternative AI must emit one signal per user"
        );

        let step = StepView {
            k,
            visible: &mut frame.visible,
            signals: &mut signals,
            actions: &mut frame.actions,
        };
        tail.step(
            &mut alt_ai,
            &mut alt_filter,
            step,
            counterfactual,
            &mut (),
            |checkpoint| {
                if use_checkpoints {
                    reader.next_checkpoint(checkpoint)
                } else {
                    Ok(false)
                }
            },
        )?;
    }

    let users = reader.groups().map(|g| g.codes.len()).unwrap_or(0);
    Ok(OffPolicyOutcome {
        baseline: baseline.unwrap_or_else(|| LoopRecord::with_policy(users, RecordPolicy::Full)),
        counterfactual: counterfactual
            .unwrap_or_else(|| LoopRecord::with_policy(users, RecordPolicy::Full)),
        groups: reader.groups().cloned(),
    })
}

/// One policy's fairness read-out within an [`OffPolicyReport`].
#[derive(Debug, Clone)]
pub struct PolicyFairness {
    /// Pooled positive-decision rate.
    pub positive_rate: f64,
    /// Per-group positive-decision rates, in group-label order.
    pub group_rates: Vec<f64>,
    /// Largest pairwise demographic-parity gap.
    pub parity_gap: f64,
    /// Largest pairwise equal-opportunity gap (among favourable
    /// actions).
    pub opportunity_gap: f64,
    /// Final filter output (e.g. ADR / track record) per group — the
    /// impact channel.
    pub group_final_filtered: Vec<f64>,
}

impl ToJson for PolicyFairness {
    fn to_json(&self) -> Json {
        Json::obj([
            ("positive_rate", self.positive_rate.to_json()),
            ("group_rates", self.group_rates.to_json()),
            ("parity_gap", self.parity_gap.to_json()),
            ("opportunity_gap", self.opportunity_gap.to_json()),
            ("group_final_filtered", self.group_final_filtered.to_json()),
        ])
    }
}

/// The rendered verdict of an off-policy evaluation: behaviour vs
/// candidate, with fairness/impact deltas (candidate − behaviour).
#[derive(Debug, Clone)]
pub struct OffPolicyReport {
    /// Scenario the trace was recorded from.
    pub scenario: String,
    /// The recorded loop variant (the behaviour policy).
    pub variant: String,
    /// The evaluated alternative policy.
    pub policy: String,
    /// Scale of the recorded run.
    pub scale: Scale,
    /// Seed of the recorded run.
    pub seed: u64,
    /// Steps evaluated.
    pub steps: usize,
    /// Users in the trace.
    pub users: usize,
    /// Decision-agreement rate between the two policies.
    pub agreement: f64,
    /// Group labels behind the per-group vectors.
    pub group_labels: Vec<String>,
    /// The behaviour policy's fairness read-out.
    pub baseline: PolicyFairness,
    /// The candidate policy's fairness read-out.
    pub candidate: PolicyFairness,
    /// `candidate.parity_gap - baseline.parity_gap` (negative = the
    /// candidate is more demographically even).
    pub parity_gap_delta: f64,
    /// `candidate.opportunity_gap - baseline.opportunity_gap`.
    pub opportunity_gap_delta: f64,
}

impl ToJson for OffPolicyReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.as_str().to_json()),
            ("variant", self.variant.as_str().to_json()),
            ("policy", self.policy.as_str().to_json()),
            (
                "scale",
                match self.scale {
                    Scale::Paper => "paper",
                    Scale::Quick => "quick",
                }
                .to_json(),
            ),
            ("seed", self.seed.to_string().as_str().to_json()),
            ("steps", self.steps.to_json()),
            ("users", self.users.to_json()),
            ("agreement", self.agreement.to_json()),
            (
                "group_labels",
                Json::Arr(
                    self.group_labels
                        .iter()
                        .map(|l| l.as_str().to_json())
                        .collect(),
                ),
            ),
            ("baseline", self.baseline.to_json()),
            ("candidate", self.candidate.to_json()),
            ("parity_gap_delta", self.parity_gap_delta.to_json()),
            (
                "opportunity_gap_delta",
                self.opportunity_gap_delta.to_json(),
            ),
        ])
    }
}

fn fairness_of(record: &LoopRecord, groups: &[Vec<usize>]) -> PolicyFairness {
    let steps = record.steps();
    let users = record.user_count();
    let positive: usize = (0..steps)
        .map(|k| {
            record
                .signals(k)
                .iter()
                .filter(|&&s| s > DECISION_THRESHOLD)
                .count()
        })
        .sum();
    let positive_rate = if steps * users == 0 {
        f64::NAN
    } else {
        positive as f64 / (steps * users) as f64
    };
    let parity = demographic_parity(record, groups, DECISION_THRESHOLD);
    let opportunity = equal_opportunity(record, groups, DECISION_THRESHOLD, 0.5);
    let group_final_filtered = groups
        .iter()
        .map(|members| {
            if steps == 0 || members.is_empty() {
                f64::NAN
            } else {
                let last = record.filtered(steps - 1);
                members.iter().map(|&i| last[i]).sum::<f64>() / members.len() as f64
            }
        })
        .collect();
    PolicyFairness {
        positive_rate,
        group_rates: parity.group_rates.iter().map(|r| r.rate).collect(),
        parity_gap: parity.max_gap,
        opportunity_gap: opportunity.max_gap,
        group_final_filtered,
    }
}

/// Renders an [`OffPolicyOutcome`] into the report the CLI prints and
/// persists, reading decisions at [`DECISION_THRESHOLD`]. `header`
/// supplies provenance; `policy` names the evaluated candidate.
pub fn off_policy_report(
    outcome: &OffPolicyOutcome,
    header: &crate::store::TraceHeader,
    policy: &str,
) -> OffPolicyReport {
    let (labels, groups) = match &outcome.groups {
        Some(g) => (g.labels.clone(), g.index_sets()),
        None => (Vec::new(), Vec::new()),
    };
    let baseline = fairness_of(&outcome.baseline, &groups);
    let candidate = fairness_of(&outcome.counterfactual, &groups);
    OffPolicyReport {
        scenario: header.scenario.clone(),
        variant: header.variant.clone(),
        policy: policy.to_string(),
        scale: header.scale,
        seed: header.seed,
        steps: outcome.baseline.steps(),
        users: outcome.baseline.user_count(),
        agreement: outcome.agreement_at(DECISION_THRESHOLD),
        group_labels: labels,
        parity_gap_delta: candidate.parity_gap - baseline.parity_gap,
        opportunity_gap_delta: candidate.opportunity_gap - baseline.opportunity_gap,
        baseline,
        candidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TraceHeader;
    use crate::TraceStepSink;
    use eqimpact_core::closed_loop::Feedback;
    use eqimpact_core::features::FeatureMatrix;
    use eqimpact_core::recorder::StepSink;
    use eqimpact_core::scenario::TraceMeta;

    /// Echoes the first visible feature column as its signal — by
    /// construction in [`synthetic_trace`], identical to the recorded
    /// behaviour policy. Retrains are counted, never needed for output.
    struct EchoAi {
        retrains: usize,
    }

    impl AiSystem for EchoAi {
        fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
            out.clear();
            out.extend_from_slice(visible.col(0));
        }
        fn retrain(&mut self, _k: usize, _feedback: &Feedback) {
            self.retrains += 1;
        }
    }

    /// Emits a constant signal for every user.
    struct ConstAi(f64);

    impl AiSystem for ConstAi {
        fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
            out.clear();
            out.extend(std::iter::repeat_n(self.0, visible.row_count()));
        }
        fn retrain(&mut self, _k: usize, _feedback: &Feedback) {
            panic!("a single-step trace must never reach a retrain");
        }
    }

    /// Emits, for user `i` at step `k`, entry `(i + k) % 5` of
    /// [`SCRIPT`]: values equal to the recorded ±1 signals, a NaN, and
    /// values between. Retrains do nothing.
    struct ScriptedAi;

    const SCRIPT: [f64; 5] = [1.0, f64::NAN, -1.0, 0.5, 0.0];

    fn scripted(k: usize, i: usize) -> f64 {
        SCRIPT[(i + k) % SCRIPT.len()]
    }

    impl AiSystem for ScriptedAi {
        fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
            out.clear();
            out.extend((0..visible.row_count()).map(|i| scripted(k, i)));
        }
        fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
    }

    /// Passes the raw actions through as the per-user filter output.
    struct IdentityFilter;

    impl FeedbackFilter for IdentityFilter {
        fn apply_into(
            &mut self,
            _k: usize,
            _visible: &FeatureMatrix,
            _signals: &[f64],
            actions: &[f64],
            out: &mut Feedback,
        ) {
            out.per_user.clear();
            out.per_user.extend_from_slice(actions);
            out.aggregate = actions.iter().sum::<f64>() / actions.len().max(1) as f64;
        }
    }

    /// A delay-1 trace over four users (group codes `codes`, labels
    /// `labels`): the behaviour policy signals +1 for the first two users
    /// and −1 for the rest, every step; positive signals become
    /// favourable (1.0) actions. The signal is mirrored into the visible
    /// feature column so [`EchoAi`] reproduces it exactly.
    fn synthetic_trace(steps: usize, labels: &[&str], codes: &[u32]) -> (Vec<u8>, TraceHeader) {
        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: "synthetic".to_string(),
            variant: "fixed".to_string(),
            trial: 0,
            scale: Scale::Quick,
            seed: 1,
            shards: 1,
            delay: 1,
            policy: RecordPolicy::Full,
        });
        let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header writes");
        sink.on_groups(labels, codes);
        let n = codes.len();
        let signals: Vec<f64> = (0..n).map(|i| if i < n / 2 { 1.0 } else { -1.0 }).collect();
        let actions: Vec<f64> = signals
            .iter()
            .map(|&s| if s > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let mut visible = FeatureMatrix::new(1);
        for &s in &signals {
            visible.push_row(&[s]);
        }
        for k in 0..steps {
            sink.on_step(k, &visible, &signals, &actions, &actions);
        }
        (sink.finish().expect("trace finishes"), header)
    }

    fn evaluate<S: AiSystem>(bytes: &[u8], ai: S) -> OffPolicyOutcome {
        let mut input: &[u8] = bytes;
        let reader = TraceReader::new(&mut input).expect("trace reads back");
        evaluate_off_policy(reader, ai, IdentityFilter, false).expect("evaluation runs")
    }

    #[test]
    fn single_step_trace_evaluates_without_ever_retraining() {
        // One step at delay 1: the feedback stays in the delay line, so
        // the candidate's (panicking) retrain hook must never fire, and
        // the statistics still come out well-defined.
        let (bytes, header) = synthetic_trace(1, &["alpha", "beta"], &[0, 0, 1, 1]);
        let outcome = evaluate(&bytes, ConstAi(2.0));
        assert_eq!(outcome.baseline.steps(), 1);
        assert_eq!(outcome.counterfactual.steps(), 1);
        // ConstAi(2.0) is positive everywhere; the log is positive for
        // exactly half the users.
        assert!((outcome.agreement_at(0.0) - 0.5).abs() < 1e-12);
        let report = off_policy_report(&outcome, &header, "const");
        assert_eq!(report.steps, 1);
        assert_eq!(report.users, 4);
        assert!((report.candidate.positive_rate - 1.0).abs() < 1e-12);
        assert_eq!(report.candidate.parity_gap, 0.0);
    }

    #[test]
    fn absent_group_rates_are_nan_and_excluded_from_gaps() {
        // The "ghost" label has no members in the trace: its rate column
        // is NaN, and the parity/opportunity gaps are computed over the
        // populated groups only instead of poisoning to NaN.
        let (bytes, header) = synthetic_trace(3, &["alpha", "beta", "ghost"], &[0, 0, 1, 1]);
        let outcome = evaluate(&bytes, EchoAi { retrains: 0 });
        let report = off_policy_report(&outcome, &header, "echo");
        assert_eq!(report.group_labels.len(), 3);
        assert_eq!(report.candidate.group_rates.len(), 3);
        assert!(report.candidate.group_rates[2].is_nan());
        assert!(report.candidate.group_final_filtered[2].is_nan());
        // alpha decides 1.0, beta 0.0 — the gap over the live groups.
        assert!((report.candidate.parity_gap - 1.0).abs() < 1e-12);
        assert!(report.candidate.opportunity_gap.is_finite());
    }

    #[test]
    fn full_agreement_candidate_scores_one_with_zero_deltas() {
        // A candidate that reproduces every logged decision: agreement
        // is exactly 1.0 and every fairness delta is exactly zero.
        let (bytes, header) = synthetic_trace(4, &["alpha", "beta"], &[0, 0, 1, 1]);
        let outcome = evaluate(&bytes, EchoAi { retrains: 0 });
        assert_eq!(outcome.agreement_at(0.0), 1.0);
        assert_eq!(
            outcome.counterfactual.signals(0),
            outcome.baseline.signals(0)
        );
        let report = off_policy_report(&outcome, &header, "echo");
        assert_eq!(report.parity_gap_delta, 0.0);
        assert_eq!(report.opportunity_gap_delta, 0.0);
        assert_eq!(
            report.candidate.positive_rate,
            report.baseline.positive_rate
        );
    }

    #[test]
    fn agreement_at_matches_a_direct_count_at_every_threshold() {
        // Six users, so the users in [0, 3) log +1 and the rest −1; the
        // script puts NaN, ±1 and values between against them.
        let (bytes, _) = synthetic_trace(4, &["alpha", "beta"], &[0, 0, 0, 1, 1, 1]);
        let outcome = evaluate(&bytes, ScriptedAi);
        for threshold in [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, f64::NEG_INFINITY] {
            let mut agree = 0usize;
            for k in 0..4 {
                for i in 0..6 {
                    let logged = if i < 3 { 1.0 } else { -1.0 };
                    if (scripted(k, i) > threshold) == (logged > threshold) {
                        agree += 1;
                    }
                }
            }
            let expected = agree as f64 / 24.0;
            assert_eq!(
                outcome.agreement_at(threshold).to_bits(),
                expected.to_bits(),
                "threshold {threshold}"
            );
        }
        // A threshold equal to a recorded signal decides it negative:
        // at +1 every logged decision is negative, and so is every
        // scripted one (the strict `>` fails for 1.0 and for NaN).
        assert_eq!(outcome.agreement_at(1.0), 1.0);
    }

    #[test]
    fn a_zero_step_outcome_has_no_agreement() {
        let (bytes, _) = synthetic_trace(0, &["alpha", "beta"], &[0, 0, 1, 1]);
        let outcome = evaluate(&bytes, ScriptedAi);
        assert_eq!(outcome.counterfactual.steps(), 0);
        for threshold in [0.0, 1.0, f64::INFINITY] {
            assert!(outcome.agreement_at(threshold).is_nan());
        }
    }
}
