//! Replay of recorded credit traces.
//!
//! [`CreditTracer`] implements [`TraceReplayer`]: it rebuilds the lender
//! named by a trace's `variant` header from its deterministic initial
//! state (the paper's parameters) together with a fresh [`AdrFilter`], so
//! a recorded credit trial replays **byte-identically** without touching
//! the census population. Off-policy evaluation is the sweep face's
//! ([`CreditSweep`](crate::CreditSweep)): it swaps in one of the
//! introduction's baseline lenders and scores it against the recorded
//! trajectory — "what access would the uniform-$50K policy have granted
//! to the households the scorecard actually saw?".

use crate::adr::AdrFilter;
use crate::lender::{IncomeMultipleLender, ScorecardLender, UniformExclusionLender};
use eqimpact_core::closed_loop::AiSystem;
use eqimpact_trace::scenario::{ReplaySummary, TraceReplayer};
use eqimpact_trace::{ReplayRunner, TraceError, TraceReader};
use std::io::Read;

/// The replay face of the credit scenario, registered in the
/// same registry row as [`CreditScenario`](crate::CreditScenario).
pub struct CreditTracer;

/// The lenders [`build_lender`] builds: every variant a credit trace can
/// record, and every policy off-policy evaluation can swap in.
pub(crate) const POLICIES: &[&str] = &["scorecard", "uniform-exclusion", "income-multiple"];

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
    fn replay(&self, reader: TraceReader<&mut dyn Read>) -> Result<ReplaySummary, TraceError> {
        let header = reader.header().clone();
        let lender = build_lender(&header.variant).ok_or_else(|| TraceError::UnknownVariant {
            scenario: header.scenario.clone(),
            variant: header.variant.clone(),
        })?;
        let record = ReplayRunner::new(reader, lender, AdrFilter::new()).run()?;
        Ok(ReplaySummary { header, record })
    }
}

/// The recorded trace the tests of the credit trace faces read.
#[cfg(test)]
pub(crate) mod fixture {
    use crate::scenario::TRACE_VARIANT;
    use crate::sim::{run_trial_sunk, CreditConfig, LenderKind};
    use eqimpact_core::recorder::{LoopRecord, RecordPolicy};
    use eqimpact_core::scenario::{Scale, TraceMeta};
    use eqimpact_lab::CandidateSpec;
    use eqimpact_trace::{TraceHeader, TraceStepSink, DECISION_THRESHOLD};

    /// The recorded trial's configuration: a small scorecard loop.
    pub(crate) fn config() -> CreditConfig {
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

    /// The sweep candidate `policy` with the scenario's one filter;
    /// `index` seeds a sweep's bootstrap, which these tests do not run.
    pub(crate) fn candidate(index: usize, policy: &str) -> CandidateSpec {
        CandidateSpec {
            index,
            policy: policy.to_string(),
            filter: "adr".to_string(),
            threshold: DECISION_THRESHOLD,
        }
    }

    /// Trial 0 of [`config`] as trace bytes, with model checkpoint frames
    /// when `checkpoints` is set, and the record of the live run.
    pub(crate) fn trace(checkpoints: bool) -> (Vec<u8>, LoopRecord) {
        let config = config();
        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: "credit".to_string(),
            variant: TRACE_VARIANT.to_string(),
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
    use crate::scenario::TRACE_VARIANT;
    use eqimpact_lab::SweepTarget;
    use eqimpact_trace::off_policy_report;

    #[test]
    fn replay_reproduces_the_record_byte_identically() {
        let (bytes, original) = fixture::trace(false);
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
        let config = fixture::config();
        let (bytes, original) = fixture::trace(true);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let mut runner = eqimpact_trace::ReplayRunner::new(
            reader,
            ScorecardLender::paper_default(),
            AdrFilter::new(),
        );
        let record = runner.run().unwrap();
        assert_eq!(record, original);
        // Every due retrain (one per step after the delay) was restored,
        // so none refit.
        assert_eq!(
            runner.checkpoints_restored(),
            config.steps - config.delay,
            "restore must replace every retrain"
        );
    }

    #[test]
    fn off_policy_income_multiple_approves_everyone() {
        // The `replay --policy income-multiple` path: the sweep face
        // evaluates the candidate, the report reads it out.
        let config = fixture::config();
        let (bytes, _) = fixture::trace(false);
        let candidate = fixture::candidate(0, "income-multiple");
        let eval = crate::CreditSweep
            .evaluate(&mut bytes.as_slice(), &candidate)
            .unwrap();
        let report = off_policy_report(&eval.outcome, &eval.header, &candidate.policy);
        // The income-multiple lender always approves: positive rate 1.
        assert!((report.candidate.positive_rate - 1.0).abs() < 1e-12);
        assert_eq!(report.candidate.parity_gap, 0.0);
        assert_eq!(report.group_labels.len(), 3);
        assert!(report.agreement > 0.0 && report.agreement <= 1.0);
        assert_eq!(report.steps, config.steps);
        assert_eq!(report.users, config.users);
    }
}
