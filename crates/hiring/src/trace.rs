//! Replay of recorded hiring traces.
//!
//! [`HiringTracer`] rebuilds the screener named by a trace's `variant`
//! header (adaptive or credential-gate) together with a fresh
//! [`TrackRecordFilter`], replaying a recorded hiring round sequence
//! byte-identically. Off-policy evaluation is the sweep face's
//! ([`HiringSweep`](crate::HiringSweep)): it answers the cross-screener
//! counterfactual directly from the log: "who would the credential gate
//! have hired among the applicants the adaptive screener actually saw
//! (and vice versa), and what does that do to the race-wise hire rates?"

use crate::screener::{AdaptiveScreener, CredentialScreener};
use crate::track::TrackRecordFilter;
use eqimpact_core::closed_loop::AiSystem;
use eqimpact_trace::scenario::{ReplaySummary, TraceReplayer};
use eqimpact_trace::{ReplayRunner, TraceError, TraceReader};
use std::io::Read;

/// The replay face of the hiring scenario, registered in the
/// same registry row as [`HiringScenario`](crate::HiringScenario).
pub struct HiringTracer;

/// The screeners [`build_screener`] builds: every variant a hiring trace
/// can record, and every policy off-policy evaluation can swap in.
pub(crate) const POLICIES: &[&str] = &["adaptive", "credential"];

/// Builds the screener a variant/policy name denotes.
pub(crate) fn build_screener(name: &str) -> Option<Box<dyn AiSystem>> {
    match name {
        "adaptive" => Some(Box::new(AdaptiveScreener::default_config())),
        "credential" => Some(Box::new(CredentialScreener::new())),
        _ => None,
    }
}

impl TraceReplayer for HiringTracer {
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
}

/// The recorded traces the tests of the hiring trace faces read.
#[cfg(test)]
pub(crate) mod fixture {
    use crate::scenario::variant_name;
    use crate::sim::{run_trial_sunk, HiringConfig, ScreenerKind};
    use eqimpact_core::recorder::LoopRecord;
    use eqimpact_core::scenario::{Scale, TraceMeta};
    use eqimpact_lab::CandidateSpec;
    use eqimpact_trace::{TraceHeader, TraceStepSink, DECISION_THRESHOLD};

    /// The recorded trial's configuration: a small loop of `screener`.
    pub(crate) fn config(screener: ScreenerKind) -> HiringConfig {
        HiringConfig {
            applicants: 120,
            rounds: 8,
            trials: 1,
            seed: 3,
            screener,
            ..HiringConfig::default()
        }
    }

    /// The sweep candidate `policy` with the scenario's one filter;
    /// `index` seeds a sweep's bootstrap, which these tests do not run.
    pub(crate) fn candidate(index: usize, policy: &str) -> CandidateSpec {
        CandidateSpec {
            index,
            policy: policy.to_string(),
            filter: "track-record".to_string(),
            threshold: DECISION_THRESHOLD,
        }
    }

    /// Trial 0 of [`config`] as trace bytes, with model checkpoint frames
    /// when `checkpoints` is set, and the record of the live run.
    pub(crate) fn trace(screener: ScreenerKind, checkpoints: bool) -> (Vec<u8>, LoopRecord) {
        let config = config(screener);
        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: "hiring".to_string(),
            variant: variant_name(screener).to_string(),
            trial: 0,
            scale: Scale::Quick,
            seed: config.seed,
            shards: config.shards,
            delay: config.delay,
            policy: config.policy,
        });
        let header = if checkpoints {
            header.with_checkpoints()
        } else {
            header
        };
        let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header writes");
        let outcome = run_trial_sunk(&config, 0, &mut sink);
        (sink.finish().expect("trace finishes"), outcome.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ScreenerKind;
    use eqimpact_lab::SweepTarget;
    use eqimpact_trace::off_policy_report;

    #[test]
    fn replay_reproduces_both_screeners_byte_identically() {
        for screener in [ScreenerKind::Adaptive, ScreenerKind::Credential] {
            let (bytes, original) = fixture::trace(screener, false);
            let mut input: &[u8] = &bytes;
            let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
            let summary = HiringTracer.replay(reader).unwrap();
            assert_eq!(summary.record, original, "{screener:?}");
        }
    }

    #[test]
    fn checkpointed_replay_skips_retraining_byte_identically() {
        let config = fixture::config(ScreenerKind::Adaptive);
        let (bytes, original) = fixture::trace(ScreenerKind::Adaptive, true);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let mut runner = eqimpact_trace::ReplayRunner::new(
            reader,
            AdaptiveScreener::default_config(),
            TrackRecordFilter::new(),
        );
        let record = runner.run().unwrap();
        assert_eq!(record, original);
        // Every due retrain (one per round after the delay) was
        // restored, so none refit.
        assert_eq!(
            runner.checkpoints_restored(),
            config.rounds - config.delay,
            "restore must replace every retrain"
        );
    }

    #[test]
    fn cross_screener_off_policy_reports_hire_rate_contrast() {
        // Record the adaptive screener, ask what the credential gate
        // would have done with the same applicants: the
        // `replay --policy credential` path, where the sweep face
        // evaluates the candidate and the report reads it out.
        let (bytes, _) = fixture::trace(ScreenerKind::Adaptive, false);
        let candidate = fixture::candidate(0, "credential");
        let eval = crate::HiringSweep
            .evaluate(&mut bytes.as_slice(), &candidate)
            .unwrap();
        let report = off_policy_report(&eval.outcome, &eval.header, &candidate.policy);
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
