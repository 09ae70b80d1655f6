//! The credit scenario's sweep face: off-policy candidate grids over
//! recorded credit traces (`experiments sweep credit`), and the one
//! candidate `experiments replay --policy` evaluates.
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
use crate::trace::{build_lender, POLICIES};
use eqimpact_lab::{CandidateGrid, CandidateSpec, SweepEval, SweepTarget};
use eqimpact_trace::scenario::unknown_policy;
use eqimpact_trace::{evaluate_off_policy, TraceError, TraceReader, DECISION_THRESHOLD};
use std::io::Read;

/// The sweep face of the credit scenario, registered in the
/// same registry row as [`CreditTracer`](crate::CreditTracer).
pub struct CreditSweep;

/// The feedback filters a sweep can instantiate.
const FILTER_NAMES: &[&str] = &["adr"];

impl SweepTarget for CreditSweep {
    fn name(&self) -> &'static str {
        "credit"
    }

    fn default_grid(&self) -> CandidateGrid {
        CandidateGrid::new(
            POLICIES.iter().copied(),
            FILTER_NAMES.iter().copied(),
            [DECISION_THRESHOLD, 10.0, 25.0],
        )
    }

    fn known_policies(&self) -> &'static [&'static str] {
        POLICIES
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
    use crate::trace::fixture::{self, candidate};

    #[test]
    fn grid_axes_match_the_known_names() {
        let grid = CreditSweep.default_grid();
        assert_eq!(grid.policies, POLICIES);
        assert_eq!(grid.filters, FILTER_NAMES);
        assert!(!grid.is_empty());
        for policy in &grid.policies {
            assert!(CreditSweep.known_policies().contains(&policy.as_str()));
        }
    }

    #[test]
    fn evaluate_reports_unknown_policies_by_name() {
        let (bytes, _) = fixture::trace(true);
        match CreditSweep.evaluate(&mut bytes.as_slice(), &candidate(0, "quikc")) {
            Err(TraceError::UnknownPolicy { policy, known }) => {
                assert_eq!(policy, "quikc");
                assert_eq!(known, POLICIES);
            }
            other => panic!("expected UnknownPolicy, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn checkpoint_fast_path_matches_the_retrained_answer() {
        // The same-learner candidate gives identical results whether it
        // restores checkpoints (policy == variant) or retrains — the
        // soundness condition the fast-path gate encodes.
        let (bytes, _) = fixture::trace(true);
        let eval = CreditSweep
            .evaluate(&mut bytes.as_slice(), &candidate(0, TRACE_VARIANT))
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
        let (bytes, _) = fixture::trace(true);
        let eval = CreditSweep
            .evaluate(&mut bytes.as_slice(), &candidate(1, "uniform-exclusion"))
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
