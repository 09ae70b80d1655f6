//! Replay and off-policy evaluation of recorded hiring traces.
//!
//! [`HiringTracer`] rebuilds the screener named by a trace's `variant`
//! header (adaptive or credential-gate) together with a fresh
//! [`TrackRecordFilter`], replaying a recorded hiring round sequence
//! byte-identically. Off-policy, it answers the cross-screener
//! counterfactual directly from the log: "who would the credential gate
//! have hired among the applicants the adaptive screener actually saw
//! (and vice versa), and what does that do to the race-wise hire rates?"

use crate::screener::{AdaptiveScreener, CredentialScreener};
use crate::track::TrackRecordFilter;
use eqimpact_core::closed_loop::AiSystem;
use eqimpact_trace::scenario::{unknown_policy, PolicySpec, ReplaySummary, TraceReplayer};
use eqimpact_trace::{
    evaluate_off_policy, off_policy_report, OffPolicyReport, ReplayRunner, TraceError, TraceReader,
};
use std::io::Read;

/// Positive-decision threshold on the signal channel: positive signals
/// are hires.
pub const DECISION_THRESHOLD: f64 = 0.0;

/// The replay face of the hiring scenario, registered in the
/// same registry row as [`HiringScenario`](crate::HiringScenario).
pub struct HiringTracer;

/// The alternative policies [`HiringTracer`] can evaluate.
pub(crate) const POLICIES: &[PolicySpec] = &[
    PolicySpec {
        name: "adaptive",
        description: "the retrained logistic screener",
    },
    PolicySpec {
        name: "credential",
        description: "the credential-gate equal-treatment baseline",
    },
];

/// Builds the screener a variant/policy name denotes.
pub(crate) fn build_screener(name: &str) -> Option<Box<dyn AiSystem>> {
    match name {
        "adaptive" => Some(Box::new(AdaptiveScreener::default_config())),
        "credential" => Some(Box::new(CredentialScreener::new())),
        _ => None,
    }
}

impl TraceReplayer for HiringTracer {
    fn name(&self) -> &'static str {
        "hiring"
    }

    fn policies(&self) -> &'static [PolicySpec] {
        POLICIES
    }

    fn replay(&self, reader: TraceReader<&mut dyn Read>) -> Result<ReplaySummary, TraceError> {
        let header = reader.header().clone();
        let screener =
            build_screener(&header.variant).ok_or_else(|| TraceError::UnknownVariant {
                scenario: header.scenario.clone(),
                variant: header.variant.clone(),
            })?;
        let record = ReplayRunner::new(reader, screener, TrackRecordFilter::new()).run()?;
        Ok(ReplaySummary { header, record })
    }

    fn evaluate(
        &self,
        reader: TraceReader<&mut dyn Read>,
        policy: &str,
    ) -> Result<OffPolicyReport, TraceError> {
        let header = reader.header().clone();
        let screener = build_screener(policy).ok_or_else(|| unknown_policy(policy, POLICIES))?;
        let outcome = evaluate_off_policy(
            reader,
            screener,
            TrackRecordFilter::new(),
            DECISION_THRESHOLD,
        )?;
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
    use crate::scenario::variant_name;
    use crate::sim::{run_trial_sunk, HiringConfig, ScreenerKind};
    use eqimpact_core::scenario::Scale;
    use eqimpact_trace::{TraceHeader, TraceStepSink, FORMAT_VERSION};

    fn record_trace(config: &HiringConfig, trial: usize) -> (Vec<u8>, eqimpact_core::LoopRecord) {
        record_trace_with(config, trial, false)
    }

    fn record_trace_with(
        config: &HiringConfig,
        trial: usize,
        checkpoints: bool,
    ) -> (Vec<u8>, eqimpact_core::LoopRecord) {
        let header = TraceHeader {
            version: FORMAT_VERSION,
            scenario: "hiring".to_string(),
            variant: variant_name(config.screener).to_string(),
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

    fn small_config(screener: ScreenerKind) -> HiringConfig {
        HiringConfig {
            applicants: 120,
            rounds: 8,
            trials: 1,
            seed: 3,
            screener,
            ..HiringConfig::default()
        }
    }

    #[test]
    fn replay_reproduces_both_screeners_byte_identically() {
        for screener in [ScreenerKind::Adaptive, ScreenerKind::Credential] {
            let config = small_config(screener);
            let (bytes, original) = record_trace(&config, 0);
            let mut input: &[u8] = &bytes;
            let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
            let summary = HiringTracer.replay(reader).unwrap();
            assert_eq!(summary.record, original, "{screener:?}");
        }
    }

    #[test]
    fn checkpointed_replay_skips_retraining_byte_identically() {
        let config = small_config(ScreenerKind::Adaptive);
        let (bytes, original) = record_trace_with(&config, 0, true);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let mut runner = eqimpact_trace::ReplayRunner::new(
            reader,
            AdaptiveScreener::default_config(),
            TrackRecordFilter::new(),
        );
        let record = runner.run().unwrap();
        assert_eq!(record, original);
        assert!(
            runner.checkpoints_restored() > 0,
            "checkpoint fast-path never engaged"
        );
        let (screener, _) = runner.into_parts();
        assert_eq!(screener.refits(), 0, "restore must replace every retrain");
    }

    #[test]
    fn cross_screener_off_policy_reports_hire_rate_contrast() {
        // Record the adaptive screener, ask what the credential gate
        // would have done with the same applicants.
        let (bytes, _) = record_trace(&small_config(ScreenerKind::Adaptive), 0);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let report = HiringTracer.evaluate(reader, "credential").unwrap();
        assert_eq!(report.policy, "credential");
        assert_eq!(report.variant, "adaptive");
        // The gate hires a strict subset rate: positive rates differ.
        assert!(report.candidate.positive_rate < report.baseline.positive_rate);
        // And its equal treatment of credentials lands unequal impact:
        // a positive demographic-parity gap.
        assert!(report.candidate.parity_gap > 0.0);
        assert!(report.agreement.is_finite());
    }
}
