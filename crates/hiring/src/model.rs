//! The job-performance model: a Gaussian conditional-independence analog
//! of the credit study's eq. (10)-(11), retargeted at hiring.
//!
//! An applicant's **resources** `z_i(k)` ($K household income, sampled
//! from the census tables as a socioeconomic proxy) determine whether a
//! job placement succeeds: holding the position costs a fixed
//! [`SUPPORT_COST_K`] per year (commuting, childcare, relocation), and
//! accumulated on-the-job [`experience`](EXPERIENCE_BONUS_K) adds
//! effective resources. The **readiness margin** is the fraction of
//! effective resources left after the support cost, and a placement
//! succeeds with probability `Φ(3 x)` on a positive margin — the same
//! probit shape as the paper's repayment model, so the theory transfers
//! unchanged.

use eqimpact_stats::dist::{bernoulli_std_normal_cdf, std_normal_cdf, CdfDraw};
use eqimpact_stats::SimRng;

/// Annual cost of holding the job, $K (commuting, childcare, …).
pub const SUPPORT_COST_K: f64 = 20.0;

/// Effective extra resources per year of accumulated experience, $K.
pub const EXPERIENCE_BONUS_K: f64 = 2.0;

/// Years of experience beyond which the bonus saturates.
pub const EXPERIENCE_CAP: f64 = 10.0;

/// Sensitivity of the success probability (`Φ(3 x)`).
pub const SUCCESS_SENSITIVITY: f64 = 3.0;

/// Resource threshold of the visible credential code `1_{z ≥ 35}` ($K):
/// the screener sees only whether the applicant's household clears it
/// (a degree/certification proxy), never the raw resources.
pub const CREDENTIAL_THRESHOLD_K: f64 = 35.0;

/// The readiness margin: the fraction of effective resources left after
/// the support cost, `x = (z + 2·min(e, 10) − 20) / z`.
///
/// # Panics
/// Panics for non-positive resources. The respond sweep never reaches the
/// panic: every applicant's resources are drawn uniformly from a census
/// bracket, and the census crate asserts at compile time that each
/// bracket has `0 < lo < hi`.
pub fn readiness(resources_k: f64, experience: f64) -> f64 {
    assert!(resources_k > 0.0, "readiness: resources must be positive");
    let effective = resources_k + EXPERIENCE_BONUS_K * experience.min(EXPERIENCE_CAP);
    (effective - SUPPORT_COST_K) / resources_k
}

/// Success probability given the readiness margin: `Φ(3 x)` for `x > 0`,
/// zero otherwise.
// analyze::allow(R8): hiring/tests/properties.rs readiness_bounded_and_monotone_in_experience checks it; it is the oracle of sample_performance's tests
pub fn success_probability(margin: f64) -> f64 {
    if margin <= 0.0 {
        0.0
    } else {
        std_normal_cdf(SUCCESS_SENSITIVITY * margin)
    }
}

/// The readiness margin `x` of an applicant whose placement outcome is
/// drawn from `Φ(3x)`, or `None` when the outcome is forced to 0: not
/// hired (`signal <= 0`) or a non-positive margin.
pub(crate) fn drawn_margin(resources_k: f64, experience: f64, signal: f64) -> Option<f64> {
    if signal <= 0.0 {
        return None;
    }
    let x = readiness(resources_k, experience);
    if x <= 0.0 {
        None
    } else {
        Some(x)
    }
}

/// Samples the binary placement outcome `y_i(k)`. It is forced to 0, and
/// `None` is returned without touching `rng`, when the applicant is not
/// hired (`signal <= 0`) or the margin is non-positive. Otherwise the
/// outcome is the returned Bernoulli(`Φ(3x)`) draw's `success`, with the
/// outcome and stream use of `rng.bernoulli(success_probability(x))`.
pub fn sample_performance(
    resources_k: f64,
    experience: f64,
    signal: f64,
    rng: &mut SimRng,
) -> Option<CdfDraw> {
    drawn_margin(resources_k, experience, signal)
        .map(|x| bernoulli_std_normal_cdf(SUCCESS_SENSITIVITY * x, rng))
}

/// The visible credential code `1_{z ≥ 35}`.
pub fn credential_code(resources_k: f64) -> f64 {
    if resources_k >= CREDENTIAL_THRESHOLD_K {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_census::{HouseholdSampler, IncomeTable, FIRST_YEAR, LAST_YEAR};

    #[test]
    fn readiness_margin_shape() {
        // z = 50, no experience: x = (50 - 20)/50 = 0.6.
        assert!((readiness(50.0, 0.0) - 0.6).abs() < 1e-12);
        // Experience adds capped effective resources.
        assert!((readiness(50.0, 5.0) - 0.8).abs() < 1e-12);
        assert_eq!(readiness(50.0, 10.0), readiness(50.0, 25.0));
        // Below the support cost the margin is negative.
        assert!(readiness(15.0, 0.0) < 0.0);
    }

    #[test]
    fn success_probability_branches() {
        assert_eq!(success_probability(-0.1), 0.0);
        assert_eq!(success_probability(0.0), 0.0);
        assert!((success_probability(1.0 / 3.0) - std_normal_cdf(1.0)).abs() < 1e-15);
        assert!(success_probability(0.9) > 0.99);
    }

    #[test]
    fn forced_failures() {
        let mut rng = SimRng::new(1);
        // Not hired: no outcome to observe.
        assert_eq!(sample_performance(100.0, 0.0, 0.0, &mut rng), None);
        // Resources below the support cost: the placement always fails.
        assert_eq!(sample_performance(12.0, 0.0, 1.0, &mut rng), None);
        // Neither is a draw from Φ.
        assert_eq!(drawn_margin(100.0, 0.0, 0.0), None);
        assert_eq!(drawn_margin(12.0, 0.0, 1.0), None);
    }

    #[test]
    fn well_resourced_applicants_mostly_succeed() {
        let mut rng = SimRng::new(2);
        let n = 5_000;
        let ok = (0..n)
            .filter(|_| sample_performance(120.0, 0.0, 1.0, &mut rng).is_some_and(|d| d.success))
            .count();
        assert!(ok as f64 / n as f64 > 0.99);
    }

    #[test]
    fn experience_raises_success_odds() {
        // z = 25: x goes from 0.2 (rookie) to 1.0 (10 years).
        assert!(
            success_probability(readiness(25.0, 10.0))
                > success_probability(readiness(25.0, 0.0)) + 0.2
        );
    }

    #[test]
    fn performance_draws_equal_bernoulli_of_the_probability_on_census_rows() {
        // Hired applicants in row order, as the respond sweep meets them:
        // census resources per row and 0 to 12 years of experience.
        let table = IncomeTable::embedded();
        let sampler = HouseholdSampler::new(&table);
        let mut census = SimRng::new(2002);
        let mut stream = SimRng::new(13);
        let (mut drawn, mut exact) = (0, 0);
        for i in 0..1_000_000u32 {
            let year = FIRST_YEAR + i % (LAST_YEAR - FIRST_YEAR + 1);
            let race = sampler.sample_race(&mut census);
            let resources = sampler.sample_income(year, race, &mut census).unwrap();
            let experience = f64::from(i % 13);
            let mut oracle = stream.clone();
            let got = sample_performance(resources, experience, 1.0, &mut stream);
            let want = drawn_margin(resources, experience, 1.0)
                .map(|x| oracle.bernoulli(success_probability(x)));
            assert_eq!(
                got.map(|d| d.success),
                want,
                "row {i}: resources {resources}"
            );
            assert_eq!(stream.clone().next_u64(), oracle.next_u64(), "row {i}");
            drawn += u32::from(got.is_some());
            exact += u32::from(got.is_some_and(|d| d.exact));
        }
        assert!(drawn > 500_000, "{drawn} drawn rows");
        assert!(exact > 0, "no row reached the exact Φ");
    }

    #[test]
    fn credential_threshold() {
        assert_eq!(credential_code(34.999), 0.0);
        assert_eq!(credential_code(35.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resources_rejected() {
        readiness(0.0, 0.0);
    }
}
