//! Property-based tests for the ML crate.

use eqimpact_ml::counterfactual::{minimal_counterfactual, CounterfactualError, FeatureBounds};
use eqimpact_ml::logistic::{sigmoid, LogisticModel, LogisticRegression};
use eqimpact_ml::scorecard::{CreditDecision, Scorecard, ScorecardRow};
use eqimpact_ml::{Dataset, GroupedTable};
use eqimpact_stats::SimRng;
use proptest::prelude::*;

/// `n` labeled rows on a small feature grid, so rows repeat the way the
/// learners' do: a history on ratios of small counts and a binary code,
/// labels drawn from a fixed logistic model.
fn grid_rows(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    const HISTORY: [f64; 6] = [0.0, 0.2, 0.25, 1.0 / 3.0, 0.5, 1.0];
    let mut rng = SimRng::new(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| vec![HISTORY[rng.index(HISTORY.len())], rng.index(2) as f64])
        .collect();
    let labels = rows
        .iter()
        .map(|x| {
            if rng.bernoulli(sigmoid(1.0 - 4.0 * x[0] + 2.0 * x[1])) {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    (rows, labels)
}

/// The table fitted after pushing `rows[order[0]], rows[order[1]], …`.
fn table_fit(rows: &[Vec<f64>], labels: &[f64], order: &[usize]) -> LogisticModel {
    let mut table = GroupedTable::new();
    for &i in order {
        table.push(&rows[i], labels[i]).unwrap();
    }
    table.fit(&LogisticRegression::default()).unwrap()
}

fn model_bits(m: &LogisticModel) -> Vec<u64> {
    std::iter::once(m.intercept)
        .chain(m.coefficients.iter().copied())
        .map(f64::to_bits)
        .collect()
}

fn arb_scorecard() -> impl Strategy<Value = Scorecard> {
    (
        -2.0f64..2.0,
        prop::collection::vec(-10.0f64..10.0, 1..5),
        -1.0f64..1.0,
    )
        .prop_map(|(base, weights, cutoff)| {
            Scorecard::from_rows(
                base,
                weights
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| ScorecardRow {
                        factor: format!("f{i}"),
                        points_per_unit: w,
                    })
                    .collect(),
                cutoff,
            )
        })
}

proptest! {
    #[test]
    fn sigmoid_monotone_and_bounded(a in -700.0f64..700.0, b in -700.0f64..700.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(sigmoid(lo) <= sigmoid(hi) + 1e-15);
        prop_assert!((0.0..=1.0).contains(&sigmoid(a)));
    }

    #[test]
    fn scorecard_score_is_linear(card in arb_scorecard(), scale in 0.1f64..3.0) {
        let n = card.factor_count();
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.3).collect();
        let x_scaled: Vec<f64> = x.iter().map(|v| v * scale).collect();
        let zero = vec![0.0; n];
        let s0 = card.score(&zero);
        // score(ax) - s0 == a (score(x) - s0) for linear scorecards.
        let lhs = card.score(&x_scaled) - s0;
        let rhs = scale * (card.score(&x) - s0);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn decision_consistent_with_score(card in arb_scorecard()) {
        let n = card.factor_count();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 - 1.0) * 0.4).collect();
        let decided = card.decide(&x);
        let expected = if card.score(&x) >= card.cutoff {
            CreditDecision::Approved
        } else {
            CreditDecision::Denied
        };
        prop_assert_eq!(decided, expected);
    }

    #[test]
    fn counterfactual_always_reaches_cutoff_or_reports_infeasible(
        card in arb_scorecard(),
        raw in prop::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let n = card.factor_count();
        prop_assume!(raw.len() >= n);
        let x: Vec<f64> = raw[..n].to_vec();
        let bounds: Vec<FeatureBounds> = (0..n).map(|_| FeatureBounds::free(0.0, 1.0)).collect();
        match minimal_counterfactual(&card, &x, &bounds) {
            Ok(cf) => {
                prop_assert!(cf.counterfactual_score >= card.cutoff - 1e-9);
                prop_assert!(cf.effort >= 0.0);
                // All counterfactual values stay within bounds.
                for c in &cf.changes {
                    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c.to));
                }
            }
            Err(CounterfactualError::AlreadyApproved) => {
                prop_assert_eq!(card.decide(&x), CreditDecision::Approved);
            }
            Err(CounterfactualError::Infeasible) => {
                // The best admissible score must indeed fall short.
                let best: f64 = card.base_points
                    + card
                        .rows
                        .iter()
                        .map(|r| {
                            if r.points_per_unit > 0.0 {
                                r.points_per_unit
                            } else {
                                0.0
                            }
                        })
                        .sum::<f64>();
                prop_assert!(best < card.cutoff + 1e-9, "best {best} vs cutoff {}", card.cutoff);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn logistic_predictions_are_probabilities(seed in 0u64..500) {
        let mut rng = SimRng::new(seed);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.uniform_in(-3.0, 3.0)])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| if rng.bernoulli(sigmoid(r[0])) { 1.0 } else { 0.0 })
            .collect();
        prop_assume!(labels.contains(&0.0) && labels.contains(&1.0));
        let data = Dataset::new(&rows, &labels).unwrap();
        let model = LogisticRegression::default().fit(&data).unwrap();
        for r in rows.iter().take(20) {
            let p = model.predict_proba(r);
            prop_assert!((0.0..=1.0).contains(&p));
        }
        prop_assert!(model.log_loss(&data).is_finite());
    }

    /// The grouped fit is the row fit up to fold order: the same Newton
    /// path, coefficients within 1e-9.
    #[test]
    fn grouped_fit_matches_the_row_fit(seed in 0u64..1_000_000, n in 1usize..400) {
        let (rows, labels) = grid_rows(seed, n);
        let by_rows = LogisticRegression::default()
            .fit(&Dataset::new(&rows, &labels).unwrap())
            .unwrap();
        let order: Vec<usize> = (0..n).collect();
        let by_cells = table_fit(&rows, &labels, &order);
        prop_assert_eq!(by_cells.iterations, by_rows.iterations);
        prop_assert_eq!(by_cells.converged, by_rows.converged);
        let gap = (by_cells.intercept - by_rows.intercept).abs().max(
            by_cells
                .coefficients
                .iter()
                .zip(&by_rows.coefficients)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        );
        prop_assert!(gap <= 1e-9, "∞-norm gap {gap:e} over {n} rows");
    }

    /// Arrival order never moves a bit of the grouped fit.
    #[test]
    fn grouped_fit_ignores_arrival_order(seed in 0u64..1_000_000, n in 1usize..400) {
        let (rows, labels) = grid_rows(seed, n);
        let order: Vec<usize> = (0..n).collect();
        let mut shuffled = order.clone();
        SimRng::new(seed).split(1).shuffle(&mut shuffled);
        prop_assert_eq!(
            model_bits(&table_fit(&rows, &labels, &shuffled)),
            model_bits(&table_fit(&rows, &labels, &order))
        );
    }

    /// A row the table rejects leaves no trace in the fit.
    #[test]
    fn grouped_fit_ignores_rejected_rows(seed in 0u64..1_000_000, n in 1usize..400) {
        let (rows, labels) = grid_rows(seed, n);
        let order: Vec<usize> = (0..n).collect();
        let mut table = GroupedTable::new();
        for (x, &y) in rows.iter().zip(&labels) {
            prop_assert!(table.push(&[x[0], f64::NAN], y).is_err());
            prop_assert!(table.push(x, 0.5).is_err());
            table.push(x, y).unwrap();
        }
        prop_assert_eq!(table.len(), n);
        prop_assert_eq!(
            model_bits(&table.fit(&LogisticRegression::default()).unwrap()),
            model_bits(&table_fit(&rows, &labels, &order))
        );
    }

}
