//! The hiring scenario's certification face: maps recorded hiring traces
//! onto the certification plane (`experiments certify hiring`).
//!
//! The certified state channel is the per-applicant track record, kept in
//! `[0, 1]` by the `TrackRecordFilter` with a clean record at `1.0`. The
//! model dynamics come from the adaptive screener's checkpoint fields
//! (`model.intercept` + `model.coefficients`); the credential variant
//! records no checkpoints, so its checkpoint-dynamics checks come back
//! inconclusive by design — that is the honest verdict for a loop with no
//! retrained model.

use crate::trace::DECISION_THRESHOLD;
use eqimpact_certify::{CertifyTarget, ExtractionSpec};

/// The certification face of the hiring scenario, registered in the
/// same registry row as [`HiringTracer`](crate::HiringTracer).
pub struct HiringCertify;

impl CertifyTarget for HiringCertify {
    fn name(&self) -> &'static str {
        "hiring"
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
    use crate::scenario::variant_name;
    use crate::sim::{run_trial_sunk, HiringConfig, ScreenerKind};
    use eqimpact_certify::engine::{certificate_of, CertifyConfig};
    use eqimpact_certify::extract;
    use eqimpact_core::scenario::{Scale, TraceMeta};
    use eqimpact_stats::SimRng;
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
    fn recorded_hiring_trace_extracts_and_renders_all_checks() {
        let bytes = checkpointed_trace();
        let ex = extract(&HiringCertify.spec(), &mut bytes.as_slice()).expect("extracts");
        assert_eq!(ex.steps, 6);
        assert_eq!(ex.users, 90);
        assert!(ex.transition_count() > 0);
        assert!(!ex.checkpoints.is_empty(), "adaptive checkpoints present");
        let cert = certificate_of(
            "hiring-000",
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
            assert!(!check.detail.is_empty(), "check {}", check.name);
        }
    }
}
