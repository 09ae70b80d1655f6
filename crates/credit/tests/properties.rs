//! Property-based tests for the credit case study.

use eqimpact_credit::adr::AdrTracker;
use eqimpact_credit::model::{
    income_code, income_multiple_loan, repayment_probability, sample_repayment, state_fraction,
};
use eqimpact_credit::sim::{run_trial, CreditConfig, LenderKind};
use eqimpact_stats::SimRng;
use proptest::prelude::*;

proptest! {
    #[test]
    fn state_fraction_bounded_above_by_one(income in 0.5f64..500.0, loan in 0.0f64..2000.0) {
        // x = (z - 10 - r L)/z <= 1 - 10/z < 1 always.
        let x = state_fraction(income, loan);
        prop_assert!(x < 1.0);
    }

    #[test]
    fn state_fraction_monotone_in_income_for_proportional_loan(a in 11.0f64..400.0, b in 11.0f64..400.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let x_lo = state_fraction(lo, income_multiple_loan(lo));
        let x_hi = state_fraction(hi, income_multiple_loan(hi));
        prop_assert!(x_lo <= x_hi + 1e-12);
    }

    #[test]
    fn repayment_probability_monotone(a in -1.0f64..1.0, b in -1.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(repayment_probability(lo) <= repayment_probability(hi) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&repayment_probability(a)));
    }

    #[test]
    fn no_loan_never_repays(income in 1.0f64..500.0, seed in 0u64..100) {
        let mut rng = SimRng::new(seed);
        prop_assert_eq!(sample_repayment(income, 0.0, &mut rng), 0.0);
    }

    #[test]
    fn income_code_is_binary(income in 0.5f64..500.0) {
        let c = income_code(income);
        prop_assert!(c == 0.0 || c == 1.0);
        prop_assert_eq!(c == 1.0, income >= 15.0);
    }

    #[test]
    fn adr_tracker_invariants(
        rounds in prop::collection::vec(
            prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 4..=4),
            1..15,
        ),
    ) {
        // 4 users, arbitrary offer/repay patterns per round.
        let mut t = AdrTracker::new(4);
        let mut expected_offers = [0u64; 4];
        let mut expected_defaults = [0u64; 4];
        for round in &rounds {
            let loans: Vec<f64> = round.iter().map(|(o, _)| if *o { 100.0 } else { 0.0 }).collect();
            let repaid: Vec<f64> = round.iter().map(|(_, r)| if *r { 1.0 } else { 0.0 }).collect();
            for i in 0..4 {
                if round[i].0 {
                    expected_offers[i] += 1;
                    if !round[i].1 {
                        expected_defaults[i] += 1;
                    }
                }
            }
            t.record(&loans, &repaid);
        }
        for i in 0..4 {
            prop_assert_eq!(t.offers(i), expected_offers[i]);
            prop_assert_eq!(t.defaults(i), expected_defaults[i]);
            let adr = t.adr(i);
            prop_assert!((0.0..=1.0).contains(&adr));
            if expected_offers[i] == 0 {
                prop_assert_eq!(adr, 0.0);
            }
        }
    }

    #[test]
    fn simulation_invariants_hold_for_any_seed(seed in 0u64..20) {
        let config = CreditConfig {
            users: 50,
            steps: 10,
            trials: 1,
            seed,
            lender: LenderKind::Scorecard,
            ..Default::default()
        };
        let outcome = run_trial(&config, 0);
        prop_assert_eq!(outcome.record.steps(), 10);
        prop_assert_eq!(outcome.races.len(), 50);
        for k in 0..10 {
            // Signals are loan amounts: non-negative, and repayment is
            // binary; ADR is a probability.
            for (&loan, &y) in outcome.record.signals(k).iter().zip(outcome.record.actions(k)) {
                prop_assert!(loan >= 0.0);
                prop_assert!(y == 0.0 || y == 1.0);
                if loan == 0.0 {
                    prop_assert_eq!(y, 0.0, "repayment without an offer");
                }
            }
            for &adr in outcome.record.filtered(k) {
                prop_assert!((0.0..=1.0).contains(&adr));
            }
        }
        // Warmup approves everyone.
        prop_assert!(outcome.record.signals(0).iter().all(|&l| l > 0.0));
        prop_assert!(outcome.record.signals(1).iter().all(|&l| l > 0.0));
    }
}
