//! Replay and off-policy evaluation of recorded credit traces.
//!
//! [`CreditTracer`] implements [`TraceReplayer`]: it rebuilds the lender
//! named by a trace's `variant` header from its deterministic initial
//! state (the paper's parameters) together with a fresh [`AdrFilter`], so
//! a recorded credit trial replays **byte-identically** without touching
//! the census population. For off-policy evaluation it
//! swaps in one of the introduction's baseline lenders and scores it
//! against the recorded trajectory — "what access would the uniform-$50K
//! policy have granted to the households the scorecard actually saw?".

use crate::adr::AdrFilter;
use crate::lender::{IncomeMultipleLender, ScorecardLender, UniformExclusionLender};
use eqimpact_core::closed_loop::AiSystem;
use eqimpact_trace::scenario::{unknown_policy, PolicySpec, ReplaySummary, TraceReplayer};
use eqimpact_trace::{
    evaluate_off_policy, off_policy_report, OffPolicyReport, ReplayRunner, TraceError, TraceReader,
};
use std::io::Read;

/// Positive-decision threshold on the signal channel: signals are loan
/// amounts in $K, so any positive amount is an approval.
pub const DECISION_THRESHOLD: f64 = 0.0;

/// The replay face of the credit scenario, registered in the
/// same registry row as [`CreditScenario`](crate::CreditScenario).
pub struct CreditTracer;

/// The alternative policies [`CreditTracer`] can evaluate.
pub(crate) const POLICIES: &[PolicySpec] = &[
    PolicySpec {
        name: "scorecard",
        description: "the paper's retrained scorecard lender (the recorded behaviour)",
    },
    PolicySpec {
        name: "uniform-exclusion",
        description: "flat-$50K offers with permanent exclusion after a default",
    },
    PolicySpec {
        name: "income-multiple",
        description: "always approve, loan sized at a multiple of income",
    },
];

/// Builds the lender a variant/policy name denotes, boxed for uniform
/// dispatch (replay and evaluation are not hot paths).
pub(crate) fn build_lender(name: &str) -> Option<Box<dyn AiSystem>> {
    match name {
        "scorecard" => Some(Box::new(ScorecardLender::paper_default())),
        "uniform-exclusion" => Some(Box::new(UniformExclusionLender::paper_default())),
        "income-multiple" => Some(Box::new(IncomeMultipleLender::new(
            crate::model::INCOME_MULTIPLE,
        ))),
        _ => None,
    }
}

impl TraceReplayer for CreditTracer {
    fn name(&self) -> &'static str {
        "credit"
    }

    fn policies(&self) -> &'static [PolicySpec] {
        POLICIES
    }

    fn replay(&self, reader: TraceReader<&mut dyn Read>) -> Result<ReplaySummary, TraceError> {
        let header = reader.header().clone();
        let lender = build_lender(&header.variant).ok_or_else(|| TraceError::UnknownVariant {
            scenario: header.scenario.clone(),
            variant: header.variant.clone(),
        })?;
        let record = ReplayRunner::new(reader, lender, AdrFilter::new()).run()?;
        Ok(ReplaySummary { header, record })
    }

    fn evaluate(
        &self,
        reader: TraceReader<&mut dyn Read>,
        policy: &str,
    ) -> Result<OffPolicyReport, TraceError> {
        let header = reader.header().clone();
        let lender = build_lender(policy).ok_or_else(|| unknown_policy(policy, POLICIES))?;
        let outcome = evaluate_off_policy(reader, lender, AdrFilter::new(), DECISION_THRESHOLD)?;
        Ok(off_policy_report(
            &outcome,
            &header,
            policy,
            DECISION_THRESHOLD,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TRACE_VARIANT;
    use crate::sim::{run_trial_sunk, CreditConfig, LenderKind};
    use eqimpact_core::recorder::RecordPolicy;
    use eqimpact_core::scenario::Scale;
    use eqimpact_trace::{TraceHeader, TraceStepSink, FORMAT_VERSION};

    fn record_trace(config: &CreditConfig, trial: usize) -> (Vec<u8>, eqimpact_core::LoopRecord) {
        record_trace_with(config, trial, false)
    }

    fn record_trace_with(
        config: &CreditConfig,
        trial: usize,
        checkpoints: bool,
    ) -> (Vec<u8>, eqimpact_core::LoopRecord) {
        let header = TraceHeader {
            version: FORMAT_VERSION,
            scenario: "credit".to_string(),
            variant: TRACE_VARIANT.to_string(),
            trial,
            scale: Scale::Quick,
            seed: config.seed,
            shards: config.shards,
            delay: config.delay,
            policy: config.policy,
            checkpoints,
        };
        let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header writes");
        let outcome = run_trial_sunk(config, trial, &mut sink);
        (sink.finish().expect("trace finishes"), outcome.record)
    }

    fn small_config() -> CreditConfig {
        CreditConfig {
            users: 120,
            steps: 8,
            trials: 1,
            seed: 5,
            lender: LenderKind::Scorecard,
            delay: 1,
            shards: 1,
            policy: RecordPolicy::Full,
        }
    }

    #[test]
    fn replay_reproduces_the_record_byte_identically() {
        let config = small_config();
        let (bytes, original) = record_trace(&config, 0);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let summary = CreditTracer.replay(reader).unwrap();
        assert_eq!(summary.record, original);
        assert_eq!(summary.header.variant, TRACE_VARIANT);
        // Byte-identity in the strongest sense: serialized forms match.
        assert_eq!(
            summary.record.to_json().render(),
            original.to_json().render()
        );
    }

    #[test]
    fn checkpointed_replay_skips_retraining_byte_identically() {
        let config = small_config();
        let (bytes, original) = record_trace_with(&config, 0, true);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let mut runner = eqimpact_trace::ReplayRunner::new(
            reader,
            ScorecardLender::paper_default(),
            AdrFilter::new(),
        );
        let record = runner.run().unwrap();
        assert_eq!(record, original);
        assert!(
            runner.checkpoints_restored() > 0,
            "checkpoint fast-path never engaged"
        );
        let (lender, _) = runner.into_parts();
        assert_eq!(lender.refits(), 0, "restore must replace every retrain");

        // The same trace replays with the fast-path off too (the frames
        // are transparent), exercising the real retrain path.
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let mut slow = eqimpact_trace::ReplayRunner::new(
            reader,
            ScorecardLender::paper_default(),
            AdrFilter::new(),
        )
        .use_checkpoints(false);
        assert_eq!(slow.run().unwrap(), original);
        assert_eq!(slow.checkpoints_restored(), 0);
    }

    #[test]
    fn checkpointed_off_policy_matches_retrained_evaluation() {
        // A candidate that shares the logged learner gives the same
        // verdict whether it retrains or restores the checkpoints.
        let config = small_config();
        let (bytes, _) = record_trace_with(&config, 0, true);
        let run = |use_checkpoints: bool| {
            let mut input: &[u8] = &bytes;
            let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
            eqimpact_trace::evaluate_off_policy_with(
                reader,
                ScorecardLender::paper_default(),
                AdrFilter::new(),
                DECISION_THRESHOLD,
                eqimpact_trace::OffPolicyOptions { use_checkpoints },
            )
            .unwrap()
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.agreement, slow.agreement);
        assert_eq!(fast.counterfactual, slow.counterfactual);
    }

    #[test]
    fn off_policy_income_multiple_approves_everyone() {
        let config = small_config();
        let (bytes, _) = record_trace(&config, 0);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let report = CreditTracer.evaluate(reader, "income-multiple").unwrap();
        // The income-multiple lender always approves: positive rate 1.
        assert!((report.candidate.positive_rate - 1.0).abs() < 1e-12);
        assert_eq!(report.candidate.parity_gap, 0.0);
        assert_eq!(report.group_labels.len(), 3);
        assert!(report.agreement > 0.0 && report.agreement <= 1.0);
        assert_eq!(report.steps, config.steps);
        assert_eq!(report.users, config.users);
    }

    #[test]
    fn unknown_policy_is_a_named_error() {
        let (bytes, _) = record_trace(&small_config(), 0);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        match CreditTracer.evaluate(reader, "quikc") {
            Err(TraceError::UnknownPolicy { policy, known }) => {
                assert_eq!(policy, "quikc");
                assert!(known.contains(&"income-multiple"));
            }
            other => panic!("expected UnknownPolicy, got {other:?}"),
        }
    }
}
