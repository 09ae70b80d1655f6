//! The credit scenario's certification face: maps recorded credit traces
//! onto the certification plane (`experiments certify credit`).
//!
//! The certified state channel is the per-user ADR (adverse-decision
//! ratio), which the `AdrFilter` keeps in `[0, 1]` with a clean history
//! at `0.0`. The model dynamics come from the scorecard's checkpoint
//! fields (`model.intercept` + `model.coefficients`); `prev_adr` is
//! deliberately excluded — it is per-user state, not model state, and
//! would blow the surrogate dimension up to the user count. Both are the
//! default [`CertifyTarget::spec`].

use eqimpact_certify::CertifyTarget;

/// The certification face of the credit scenario, registered in the
/// same registry row as [`CreditTracer`](crate::CreditTracer).
pub struct CreditCertify;

impl CertifyTarget for CreditCertify {
    fn name(&self) -> &'static str {
        "credit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::fixture;
    use eqimpact_certify::{extract, Verdict};

    #[test]
    fn recorded_credit_trace_extracts_and_renders_all_checks() {
        use eqimpact_certify::engine::{certificate_of, CertifyConfig};
        use eqimpact_stats::SimRng;

        let config = fixture::config();
        let (bytes, _) = fixture::trace(true);
        let ex = extract(&CreditCertify.spec(), &mut bytes.as_slice()).expect("extracts");
        assert_eq!(ex.steps, config.steps);
        assert_eq!(ex.users, config.users);
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
