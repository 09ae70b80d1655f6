//! The hiring scenario's certification face: maps recorded hiring traces
//! onto the certification plane (`experiments certify hiring`).
//!
//! The certified state channel is the per-applicant track record, kept in
//! `[0, 1]` by the `TrackRecordFilter` with a clean record at `1.0`. The
//! model dynamics come from the adaptive screener's checkpoint fields
//! (`model.intercept` + `model.coefficients`); the credential variant
//! records no checkpoints, so its checkpoint-dynamics checks come back
//! inconclusive by design — that is the honest verdict for a loop with no
//! retrained model. Both are the default [`CertifyTarget::spec`].

use eqimpact_certify::CertifyTarget;

/// The certification face of the hiring scenario, registered in the
/// same registry row as [`HiringTracer`](crate::HiringTracer).
pub struct HiringCertify;

impl CertifyTarget for HiringCertify {
    fn name(&self) -> &'static str {
        "hiring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ScreenerKind;
    use crate::trace::fixture;
    use eqimpact_certify::engine::{certificate_of, CertifyConfig};
    use eqimpact_certify::extract;
    use eqimpact_stats::SimRng;

    #[test]
    fn recorded_hiring_trace_extracts_and_renders_all_checks() {
        let config = fixture::config(ScreenerKind::Adaptive);
        let (bytes, _) = fixture::trace(ScreenerKind::Adaptive, true);
        let ex = extract(&HiringCertify.spec(), &mut bytes.as_slice()).expect("extracts");
        assert_eq!(ex.steps, config.rounds);
        assert_eq!(ex.users, config.applicants);
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
