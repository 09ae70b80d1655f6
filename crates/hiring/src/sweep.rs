//! The hiring scenario's sweep face: off-policy candidate grids over
//! recorded hiring traces (`experiments sweep hiring`), and the one
//! candidate `experiments replay --policy` evaluates.
//!
//! Candidates combine the tracer's screener policies with the
//! track-record filter and a hire threshold on the signal channel. As in
//! the credit sweep, the checkpointed fast-path engages only when the
//! candidate's policy is the trace's recorded variant.

use crate::trace::{build_screener, POLICIES};
use crate::track::TrackRecordFilter;
use eqimpact_lab::{CandidateGrid, CandidateSpec, SweepEval, SweepTarget};
use eqimpact_trace::scenario::unknown_policy;
use eqimpact_trace::{evaluate_off_policy, TraceError, TraceReader, DECISION_THRESHOLD};
use std::io::Read;

/// The sweep face of the hiring scenario, registered in the
/// same registry row as [`HiringTracer`](crate::HiringTracer).
pub struct HiringSweep;

/// The feedback filters a sweep can instantiate.
const FILTER_NAMES: &[&str] = &["track-record"];

impl SweepTarget for HiringSweep {
    fn name(&self) -> &'static str {
        "hiring"
    }

    fn default_grid(&self) -> CandidateGrid {
        CandidateGrid::new(
            POLICIES.iter().copied(),
            FILTER_NAMES.iter().copied(),
            [DECISION_THRESHOLD, 0.25, 0.5],
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
        let screener = build_screener(&candidate.policy)
            .ok_or_else(|| unknown_policy(&candidate.policy, POLICIES))?;
        let use_checkpoints = header.checkpoints && candidate.policy == header.variant;
        let outcome =
            evaluate_off_policy(reader, screener, TrackRecordFilter::new(), use_checkpoints)?;
        Ok(SweepEval { header, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ScreenerKind;
    use crate::trace::fixture::{self, candidate};

    #[test]
    fn grid_axes_match_the_known_names() {
        let grid = HiringSweep.default_grid();
        assert_eq!(grid.policies, POLICIES);
        assert_eq!(grid.filters, FILTER_NAMES);
        assert!(!grid.is_empty());
    }

    #[test]
    fn checkpoint_fast_path_matches_the_retrained_answer() {
        let (bytes, _) = fixture::trace(ScreenerKind::Adaptive, true);
        let eval = HiringSweep
            .evaluate(&mut bytes.as_slice(), &candidate(0, "adaptive"))
            .expect("sweep evaluates");
        assert!(eval.header.checkpoints);
        let slow = evaluate_off_policy(
            TraceReader::new(&mut bytes.as_slice()).unwrap(),
            build_screener("adaptive").unwrap(),
            TrackRecordFilter::new(),
            false,
        )
        .expect("retrained evaluation");
        assert_eq!(eval.outcome.agreement_at(0.0), slow.agreement_at(0.0));
        assert_eq!(eval.outcome.counterfactual, slow.counterfactual);
    }

    #[test]
    fn cross_policy_candidates_are_evaluated_without_checkpoints() {
        let (bytes, _) = fixture::trace(ScreenerKind::Adaptive, true);
        let eval = HiringSweep
            .evaluate(&mut bytes.as_slice(), &candidate(1, "credential"))
            .expect("sweep evaluates");
        let plain = evaluate_off_policy(
            TraceReader::new(&mut bytes.as_slice()).unwrap(),
            build_screener("credential").unwrap(),
            TrackRecordFilter::new(),
            false,
        )
        .expect("retrained evaluation");
        assert_eq!(eval.outcome.counterfactual, plain.counterfactual);
    }
}
