//! The credit scenario's sweep face: off-policy candidate grids over
//! recorded credit traces (`experiments sweep credit`).
//!
//! Candidates combine the tracer's lender policies with the ADR filter
//! and a loan-approval threshold on the signal channel (signals are loan
//! amounts in $K, so `threshold=10` asks "what if only offers above
//! $10K counted as approvals?"). The checkpointed replay fast-path is
//! enabled exactly when the trace carries checkpoints **and** the
//! candidate's policy is the recorded variant — the one case where the
//! recorded model states are the states the candidate's retraining
//! would have produced.

use crate::adr::AdrFilter;
use crate::trace::{build_lender, DECISION_THRESHOLD, POLICIES};
use eqimpact_lab::{CandidateGrid, CandidateSpec, SweepEval, SweepTarget};
use eqimpact_trace::scenario::unknown_policy;
use eqimpact_trace::{evaluate_off_policy, TraceError, TraceReader};
use std::io::Read;

/// The sweep face of the credit scenario, registered in the
/// same registry row as [`CreditTracer`](crate::CreditTracer).
pub struct CreditSweep;

/// The lender policies a sweep can instantiate (the tracer's list).
const POLICY_NAMES: &[&str] = &["scorecard", "uniform-exclusion", "income-multiple"];

/// The feedback filters a sweep can instantiate.
const FILTER_NAMES: &[&str] = &["adr"];

impl SweepTarget for CreditSweep {
    fn name(&self) -> &'static str {
        "credit"
    }

    fn default_grid(&self) -> CandidateGrid {
        CandidateGrid::new(
            POLICY_NAMES.iter().copied(),
            FILTER_NAMES.iter().copied(),
            [DECISION_THRESHOLD, 10.0, 25.0],
        )
    }

    fn known_policies(&self) -> &'static [&'static str] {
        POLICY_NAMES
    }

    fn known_filters(&self) -> &'static [&'static str] {
        FILTER_NAMES
    }

    fn evaluate(
        &self,
        input: &mut dyn Read,
        candidate: &CandidateSpec,
    ) -> Result<SweepEval, TraceError> {
        let reader = TraceReader::new(input)?;
        let header = reader.header().clone();
        let lender = build_lender(&candidate.policy)
            .ok_or_else(|| unknown_policy(&candidate.policy, POLICIES))?;
        let use_checkpoints = header.checkpoints && candidate.policy == header.variant;
        let outcome = evaluate_off_policy(reader, lender, AdrFilter::new(), use_checkpoints)?;
        Ok(SweepEval { header, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TRACE_VARIANT;
    use crate::sim::{run_trial_sunk, CreditConfig, LenderKind};
    use eqimpact_core::scenario::{Scale, TraceMeta};
    use eqimpact_trace::{TraceHeader, TraceStepSink};

    fn checkpointed_trace() -> Vec<u8> {
        let config = CreditConfig {
            users: 90,
            steps: 6,
            trials: 1,
            seed: 11,
            lender: LenderKind::Scorecard,
            ..CreditConfig::default()
        };
        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: "credit".to_string(),
            variant: TRACE_VARIANT.to_string(),
            trial: 0,
            scale: Scale::Quick,
            seed: config.seed,
            shards: config.shards,
            delay: config.delay,
            policy: config.policy,
        })
        .with_checkpoints();
        let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header writes");
        run_trial_sunk(&config, 0, &mut sink);
        sink.finish().expect("trace finishes")
    }

    #[test]
    fn grid_axes_match_the_known_names() {
        let grid = CreditSweep.default_grid();
        assert_eq!(grid.policies, POLICY_NAMES);
        assert_eq!(grid.filters, FILTER_NAMES);
        assert!(!grid.is_empty());
        for policy in &grid.policies {
            assert!(CreditSweep.known_policies().contains(&policy.as_str()));
        }
    }

    #[test]
    fn evaluate_reports_unknown_policies_by_name() {
        let bytes = checkpointed_trace();
        let candidate = CandidateSpec {
            index: 0,
            policy: "quikc".to_string(),
            filter: "adr".to_string(),
            threshold: 0.0,
        };
        match CreditSweep.evaluate(&mut bytes.as_slice(), &candidate) {
            Err(TraceError::UnknownPolicy { policy, .. }) => assert_eq!(policy, "quikc"),
            other => panic!("expected UnknownPolicy, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn checkpoint_fast_path_matches_the_retrained_answer() {
        // The same-learner candidate gives identical results whether it
        // restores checkpoints (policy == variant) or retrains — the
        // soundness condition the fast-path gate encodes.
        let bytes = checkpointed_trace();
        let fast = CandidateSpec {
            index: 0,
            policy: TRACE_VARIANT.to_string(),
            filter: "adr".to_string(),
            threshold: 0.0,
        };
        let eval = CreditSweep
            .evaluate(&mut bytes.as_slice(), &fast)
            .expect("sweep evaluates");
        assert!(eval.header.checkpoints);
        let slow = evaluate_off_policy(
            TraceReader::new(&mut bytes.as_slice()).unwrap(),
            build_lender(TRACE_VARIANT).unwrap(),
            AdrFilter::new(),
            false,
        )
        .expect("retrained evaluation");
        assert_eq!(eval.outcome.agreement_at(0.0), slow.agreement_at(0.0));
        assert_eq!(eval.outcome.counterfactual, slow.counterfactual);
    }

    #[test]
    fn cross_policy_candidates_retrain_from_scratch() {
        // A different learner must not consume the scorecard's
        // checkpoints: the gate disables the fast-path, and the verdict
        // matches a plain retrained evaluation.
        let bytes = checkpointed_trace();
        let candidate = CandidateSpec {
            index: 1,
            policy: "uniform-exclusion".to_string(),
            filter: "adr".to_string(),
            threshold: 0.0,
        };
        let eval = CreditSweep
            .evaluate(&mut bytes.as_slice(), &candidate)
            .expect("sweep evaluates");
        let plain = evaluate_off_policy(
            TraceReader::new(&mut bytes.as_slice()).unwrap(),
            build_lender("uniform-exclusion").unwrap(),
            AdrFilter::new(),
            false,
        )
        .expect("retrained evaluation");
        assert_eq!(eval.outcome.counterfactual, plain.counterfactual);
    }
}
