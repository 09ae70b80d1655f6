//! The credit scenario's certification face: maps recorded credit traces
//! onto the certification plane (`experiments certify credit`).
//!
//! The certified state channel is the per-user ADR (adverse-decision
//! ratio), which the `AdrFilter` keeps in `[0, 1]` with a clean history
//! at `0.0`. The model dynamics come from the scorecard's checkpoint
//! fields (`model.intercept` + `model.coefficients`); `prev_adr` is
//! deliberately excluded — it is per-user state, not model state, and
//! would blow the surrogate dimension up to the user count.

use crate::trace::DECISION_THRESHOLD;
use eqimpact_certify::{CertifyTarget, ExtractionSpec};

/// The certification face of the credit scenario, registered in the
/// same registry row as [`CreditTracer`](crate::CreditTracer).
pub struct CreditCertify;

impl CertifyTarget for CreditCertify {
    fn name(&self) -> &'static str {
        "credit"
    }

    fn spec(&self) -> ExtractionSpec {
        ExtractionSpec {
            state_lo: 0.0,
            state_hi: 1.0,
            bins: 8,
            threshold: DECISION_THRESHOLD,
            model_fields: &["model.intercept", "model.coefficients"],
            sampled_trajectories: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TRACE_VARIANT;
    use crate::sim::{run_trial_sunk, CreditConfig, LenderKind};
    use eqimpact_certify::{extract, Verdict};
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
    fn recorded_credit_trace_extracts_and_renders_all_checks() {
        use eqimpact_certify::engine::{certificate_of, CertifyConfig};
        use eqimpact_stats::SimRng;

        let bytes = checkpointed_trace();
        let ex = extract(&CreditCertify.spec(), &mut bytes.as_slice()).expect("extracts");
        assert_eq!(ex.steps, 6);
        assert_eq!(ex.users, 90);
        assert!(ex.transition_count() > 0);
        assert!(!ex.checkpoints.is_empty(), "scorecard checkpoints present");
        let cert = certificate_of(
            "credit-000",
            &ex,
            &CertifyConfig::default(),
            &SimRng::new(42),
        );
        let names: Vec<&str> = cert.checks.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "primitivity",
                "unique-ergodicity",
                "contraction",
                "lyapunov",
                "iss"
            ]
        );
        for check in &cert.checks {
            // Every check must commit to a rendered verdict, never panic.
            assert!(!check.detail.is_empty(), "check {}", check.name);
            let _ = check.verdict == Verdict::Certified;
        }
    }
}
