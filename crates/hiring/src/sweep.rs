//! The hiring scenario's sweep face: off-policy candidate grids over
//! recorded hiring traces (`experiments sweep hiring`).
//!
//! Candidates combine the tracer's screener policies with the
//! track-record filter and a hire threshold on the signal channel. As in
//! the credit sweep, the checkpointed fast-path engages only when the
//! candidate's policy is the trace's recorded variant.

use crate::trace::{build_screener, DECISION_THRESHOLD, POLICIES};
use crate::track::TrackRecordFilter;
use eqimpact_lab::{CandidateGrid, CandidateSpec, SweepEval, SweepTarget};
use eqimpact_trace::scenario::unknown_policy;
use eqimpact_trace::{evaluate_off_policy_with, OffPolicyOptions, TraceError, TraceReader};
use std::io::Read;

/// The sweep face of the hiring scenario, registered in the
/// same registry row as [`HiringTracer`](crate::HiringTracer).
pub struct HiringSweep;

/// The screener policies a sweep can instantiate (the tracer's list).
const POLICY_NAMES: &[&str] = &["adaptive", "credential"];

/// The feedback filters a sweep can instantiate.
const FILTER_NAMES: &[&str] = &["track-record"];

impl SweepTarget for HiringSweep {
    fn name(&self) -> &'static str {
        "hiring"
    }

    fn default_grid(&self) -> CandidateGrid {
        CandidateGrid::new(
            POLICY_NAMES.iter().copied(),
            FILTER_NAMES.iter().copied(),
            [DECISION_THRESHOLD, 0.25, 0.5],
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
        let screener = build_screener(&candidate.policy)
            .ok_or_else(|| unknown_policy(&candidate.policy, POLICIES))?;
        let options = OffPolicyOptions {
            use_checkpoints: header.checkpoints && candidate.policy == header.variant,
        };
        let outcome = evaluate_off_policy_with(
            reader,
            screener,
            TrackRecordFilter::new(),
            candidate.threshold,
            options,
        )?;
        Ok(SweepEval { header, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::variant_name;
    use crate::sim::{run_trial_sunk, HiringConfig, ScreenerKind};
    use eqimpact_core::scenario::{Scale, TraceMeta};
    use eqimpact_trace::{TraceHeader, TraceStepSink};

    fn checkpointed_trace() -> Vec<u8> {
        let config = HiringConfig {
            applicants: 90,
            rounds: 6,
            trials: 1,
            seed: 13,
            screener: ScreenerKind::Adaptive,
            ..HiringConfig::default()
        };
        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: "hiring".to_string(),
            variant: variant_name(config.screener).to_string(),
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
        let grid = HiringSweep.default_grid();
        assert_eq!(grid.policies, POLICY_NAMES);
        assert_eq!(grid.filters, FILTER_NAMES);
        assert!(!grid.is_empty());
    }

    #[test]
    fn checkpoint_fast_path_matches_the_retrained_answer() {
        let bytes = checkpointed_trace();
        let fast = CandidateSpec {
            index: 0,
            policy: "adaptive".to_string(),
            filter: "track-record".to_string(),
            threshold: 0.0,
        };
        let eval = HiringSweep
            .evaluate(&mut bytes.as_slice(), &fast)
            .expect("sweep evaluates");
        assert!(eval.header.checkpoints);
        let slow = evaluate_off_policy_with(
            TraceReader::new(&mut bytes.as_slice()).unwrap(),
            build_screener("adaptive").unwrap(),
            TrackRecordFilter::new(),
            0.0,
            OffPolicyOptions {
                use_checkpoints: false,
            },
        )
        .expect("retrained evaluation");
        assert_eq!(eval.outcome.agreement, slow.agreement);
        assert_eq!(eval.outcome.counterfactual, slow.counterfactual);
    }

    #[test]
    fn cross_policy_candidates_are_evaluated_without_checkpoints() {
        let bytes = checkpointed_trace();
        let candidate = CandidateSpec {
            index: 1,
            policy: "credential".to_string(),
            filter: "track-record".to_string(),
            threshold: 0.0,
        };
        let eval = HiringSweep
            .evaluate(&mut bytes.as_slice(), &candidate)
            .expect("sweep evaluates");
        let plain = evaluate_off_policy_with(
            TraceReader::new(&mut bytes.as_slice()).unwrap(),
            build_screener("credential").unwrap(),
            TrackRecordFilter::new(),
            0.0,
            OffPolicyOptions {
                use_checkpoints: false,
            },
        )
        .expect("retrained evaluation");
        assert_eq!(eval.outcome.counterfactual, plain.counterfactual);
    }
}
