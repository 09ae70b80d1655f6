//! Property-based tests for the credit case study.

use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{Feedback, FeedbackFilter};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_credit::adr::AdrFilter;
use eqimpact_credit::model::{
    income_code, income_multiple_loan, repayment_probability, sample_repayment, state_fraction,
};
use eqimpact_credit::sim::{run_trial, CreditConfig, LenderKind};
use eqimpact_stats::SimRng;
use proptest::prelude::*;

/// One round of `filter` (the step index and features are not its input).
fn filter_round(filter: &mut AdrFilter, loans: &[f64], repaid: &[f64]) -> Feedback {
    let mut out = Feedback::default();
    filter.apply_into(0, &FeatureMatrix::default(), loans, repaid, &mut out);
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

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
        prop_assert_eq!(sample_repayment(income, 0.0, &mut rng), None);
    }

    #[test]
    fn income_code_is_binary(income in 0.5f64..500.0) {
        let c = income_code(income);
        prop_assert!(c == 0.0 || c == 1.0);
        prop_assert_eq!(c == 1.0, income >= 15.0);
    }

    /// `AdrFilter` against the counts and the aggregate expression it
    /// replaced, bit for bit: each user's ADR is defaults over offers (0
    /// if never offered), and the aggregate is the `Iterator::sum` of
    /// `1 − y` over the offered users divided by their count (0 if none).
    #[test]
    fn adr_tracker_invariants(
        // Per round and user: offered?, and the action's index into
        // {0, 0.5, 1}.
        rounds in prop::collection::vec(
            prop::collection::vec((prop::bool::ANY, 0usize..3), 4..=4),
            1..15,
        ),
        restore_after in 0usize..15,
    ) {
        const ACTIONS: [f64; 3] = [0.0, 0.5, 1.0];
        let mut filter = AdrFilter::new();
        let mut restored: Option<AdrFilter> = None;
        let mut offers = [0u64; 4];
        let mut defaults = [0u64; 4];
        for (r, round) in rounds.iter().enumerate() {
            let loans: Vec<f64> = round.iter().map(|&(o, _)| if o { 100.0 } else { 0.0 }).collect();
            let repaid: Vec<f64> = round.iter().map(|&(_, y)| ACTIONS[y]).collect();
            for i in 0..4 {
                if loans[i] > 0.0 {
                    offers[i] += 1;
                    defaults[i] += u64::from(repaid[i] == 0.0);
                }
            }
            let adr: Vec<f64> = (0..4)
                .map(|i| if offers[i] == 0 { 0.0 } else { defaults[i] as f64 / offers[i] as f64 })
                .collect();
            let offered = loans.iter().filter(|&&l| l > 0.0).count();
            let aggregate = if offered == 0 {
                0.0
            } else {
                loans
                    .iter()
                    .zip(&repaid)
                    .filter(|(&l, _)| l > 0.0)
                    .map(|(_, &y)| 1.0 - y)
                    .sum::<f64>()
                    / offered as f64
            };

            let fb = filter_round(&mut filter, &loans, &repaid);
            prop_assert_eq!(bits(&fb.per_user), bits(&adr), "round {}", r);
            prop_assert_eq!(fb.aggregate.to_bits(), aggregate.to_bits(), "round {}", r);
            if let Some(restored) = restored.as_mut() {
                let again = filter_round(restored, &loans, &repaid);
                prop_assert_eq!(bits(&again.per_user), bits(&fb.per_user), "restored, round {}", r);
                prop_assert_eq!(again.aggregate.to_bits(), fb.aggregate.to_bits());
            }
            if r == restore_after {
                let mut checkpoint = ModelCheckpoint::new();
                prop_assert!(filter.checkpoint_into(&mut checkpoint));
                let mut fresh = AdrFilter::new();
                prop_assert!(fresh.restore_checkpoint(&checkpoint));
                restored = Some(fresh);
            }
        }
        // A round of three users starts from zero counts.
        let (loans, repaid) = ([100.0, 100.0, 0.0], [0.0, 1.0, 0.0]);
        let fb = filter_round(&mut filter, &loans, &repaid);
        let fresh = filter_round(&mut AdrFilter::new(), &loans, &repaid);
        prop_assert_eq!(bits(&fb.per_user), bits(&fresh.per_user));
        prop_assert_eq!(bits(&fb.per_user), bits(&[1.0, 0.0, 0.0]));
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
