//! Eq. (10) state and eq. (11) repayment: the Gaussian conditional
//! independence model (Rutkowski-Tarca 2015) as used in the paper.

use eqimpact_stats::dist::{bernoulli_std_normal_cdf, std_normal_cdf, CdfDraw};
use eqimpact_stats::SimRng;

/// Basic annual living cost, $K (the paper's $10K).
pub const LIVING_COST_K: f64 = 10.0;

/// Annual mortgage rate (the paper's 2.16 % p.a.).
pub const ANNUAL_RATE: f64 = 0.0216;

/// The paper's mortgage sizing: 3.5 times annual income.
pub const INCOME_MULTIPLE: f64 = 3.5;

/// The paper's scorecard cut-off.
pub const CUTOFF: f64 = 0.4;

/// The sensitivity of the repayment probability (the paper's `F(5 x)`).
pub const REPAYMENT_SENSITIVITY: f64 = 5.0;

/// The income threshold of the visible code `1_{z ≥ 15}` ($K).
pub const INCOME_CODE_THRESHOLD_K: f64 = 15.0;

/// Eq. (10) generalized to an arbitrary loan amount `L` ($K): the portion
/// of income left after living cost and mortgage interest,
/// `x = (z − 10 − 0.0216 · L) / z`.
///
/// With `L = 3.5 z` this is exactly the paper's eq. (10).
///
/// # Panics
/// Panics for non-positive income. The respond sweep never reaches the
/// panic: every income is drawn uniformly from a census bracket, and the
/// census crate asserts at compile time that each bracket has `0 < lo < hi`.
pub fn state_fraction(income_k: f64, loan_k: f64) -> f64 {
    assert!(income_k > 0.0, "state_fraction: income must be positive");
    (income_k - LIVING_COST_K - ANNUAL_RATE * loan_k) / income_k
}

/// The paper's sizing `L = 3.5 z`.
// analyze::allow(R8): credit/tests/properties.rs state_fraction_monotone_in_income_for_proportional_loan uses it as the paper's loan rule
pub fn income_multiple_loan(income_k: f64) -> f64 {
    INCOME_MULTIPLE * income_k
}

/// Repayment probability given the state: `Φ(5 x)` for `x > 0`, zero
/// otherwise (eq. (11)'s first branch).
// analyze::allow(R8): credit/tests/properties.rs repayment_probability_monotone checks it; it is eq. (11)'s probability and the oracle of sample_repayment's tests
pub fn repayment_probability(state: f64) -> f64 {
    if state <= 0.0 {
        0.0
    } else {
        std_normal_cdf(REPAYMENT_SENSITIVITY * state)
    }
}

/// The state `x` of a household whose eq. (11) repayment is drawn from
/// `Φ(5x)`, or `None` when the repayment is forced to 0: no loan is
/// offered (`loan_k <= 0`) or the state is non-positive.
pub(crate) fn drawn_state(income_k: f64, loan_k: f64) -> Option<f64> {
    if loan_k <= 0.0 {
        return None;
    }
    let x = state_fraction(income_k, loan_k);
    if x <= 0.0 {
        None
    } else {
        Some(x)
    }
}

/// Samples the binary repayment action `y_i(k)` of eq. (11). It is forced
/// to 0, and `None` is returned without touching `rng`, when no loan is
/// offered (`loan_k <= 0`) or the state is non-positive. Otherwise the
/// action is the returned Bernoulli(`Φ(5x)`) draw's `success`, with the
/// outcome and stream use of `rng.bernoulli(repayment_probability(x))`.
/// A NaN loan gives a NaN state and `Φ(NaN)` is NaN, so that household
/// never repays.
pub fn sample_repayment(income_k: f64, loan_k: f64, rng: &mut SimRng) -> Option<CdfDraw> {
    drawn_state(income_k, loan_k).map(|x| bernoulli_std_normal_cdf(REPAYMENT_SENSITIVITY * x, rng))
}

/// The visible income code `1_{z ≥ 15}`.
pub fn income_code(income_k: f64) -> f64 {
    if income_k >= INCOME_CODE_THRESHOLD_K {
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
    fn paper_state_formula() {
        // z = 50, L = 3.5 z: x = (50 - 10 - 0.0216*175)/50 = 0.7244.
        let z = 50.0;
        let x = state_fraction(z, income_multiple_loan(z));
        assert!((x - 0.7244).abs() < 1e-10, "x = {x}");
    }

    #[test]
    fn state_negative_below_breakeven() {
        // With L = 3.5 z, x <= 0 iff z <= 10 / (1 - 0.0756) ≈ 10.818.
        let breakeven = LIVING_COST_K / (1.0 - ANNUAL_RATE * INCOME_MULTIPLE);
        let lo = breakeven - 0.01;
        let hi = breakeven + 0.01;
        assert!(state_fraction(lo, income_multiple_loan(lo)) < 0.0);
        assert!(state_fraction(hi, income_multiple_loan(hi)) > 0.0);
    }

    #[test]
    fn repayment_probability_branches() {
        assert_eq!(repayment_probability(-0.5), 0.0);
        assert_eq!(repayment_probability(0.0), 0.0);
        assert!((repayment_probability(0.2) - std_normal_cdf(1.0)).abs() < 1e-15);
        assert!(repayment_probability(0.7244) > 0.999);
    }

    #[test]
    fn forced_defaults() {
        let mut rng = SimRng::new(1);
        // No offer: never repays.
        assert_eq!(sample_repayment(50.0, 0.0, &mut rng), None);
        // Income below living cost: never repays.
        assert_eq!(
            sample_repayment(8.0, income_multiple_loan(8.0), &mut rng),
            None
        );
        // Neither is a draw from Φ.
        assert_eq!(drawn_state(50.0, 0.0), None);
        assert_eq!(drawn_state(8.0, income_multiple_loan(8.0)), None);
    }

    #[test]
    fn nan_loan_never_repays() {
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            assert_eq!(
                sample_repayment(50.0, f64::NAN, &mut rng),
                Some(CdfDraw {
                    success: false,
                    exact: true
                })
            );
        }
        // The NaN state is drawn (Φ is evaluated), not forced.
        assert!(drawn_state(50.0, f64::NAN).is_some_and(f64::is_nan));
    }

    #[test]
    fn high_income_almost_always_repays() {
        let mut rng = SimRng::new(2);
        let n = 5_000;
        let loan = income_multiple_loan(100.0);
        let repaid = (0..n)
            .filter(|_| sample_repayment(100.0, loan, &mut rng).is_some_and(|d| d.success))
            .count();
        assert!(repaid as f64 / n as f64 > 0.999);
    }

    #[test]
    fn marginal_income_defaults_often() {
        // z = 11: x ≈ 0.0154, Φ(0.077) ≈ 0.53.
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let loan = income_multiple_loan(11.0);
        let repaid = (0..n)
            .filter(|_| sample_repayment(11.0, loan, &mut rng).is_some_and(|d| d.success))
            .count();
        let rate = repaid as f64 / n as f64;
        assert!((rate - 0.53).abs() < 0.03, "repay rate = {rate}");
    }

    #[test]
    fn repayment_draws_equal_bernoulli_of_the_probability_on_census_rows() {
        // Households in row order, as the respond sweep meets them: a
        // census race and income per row, and the paper's L = 3.5 z.
        let table = IncomeTable::embedded();
        let sampler = HouseholdSampler::new(&table);
        let mut census = SimRng::new(2002);
        let mut stream = SimRng::new(11);
        let (mut drawn, mut exact) = (0, 0);
        for i in 0..1_000_000u32 {
            let year = FIRST_YEAR + i % (LAST_YEAR - FIRST_YEAR + 1);
            let race = sampler.sample_race(&mut census);
            let income = sampler.sample_income(year, race, &mut census).unwrap();
            let loan = income_multiple_loan(income);
            let mut oracle = stream.clone();
            let got = sample_repayment(income, loan, &mut stream);
            let want =
                drawn_state(income, loan).map(|x| oracle.bernoulli(repayment_probability(x)));
            assert_eq!(got.map(|d| d.success), want, "row {i}: income {income}");
            assert_eq!(stream.clone().next_u64(), oracle.next_u64(), "row {i}");
            drawn += u32::from(got.is_some());
            exact += u32::from(got.is_some_and(|d| d.exact));
        }
        assert!(drawn > 900_000, "{drawn} drawn rows");
        assert!(exact > 0, "no row reached the exact Φ");
    }

    #[test]
    fn income_code_threshold() {
        assert_eq!(income_code(14.999), 0.0);
        assert_eq!(income_code(15.0), 1.0);
        assert_eq!(income_code(200.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_income_rejected() {
        state_fraction(0.0, 10.0);
    }
}
