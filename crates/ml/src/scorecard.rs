//! Scorecards: the explainable face of the logistic model (paper Table I).
//!
//! A scorecard lists one row per factor with the score contribution per
//! unit; a user's credit score is the sum of contributions, and a cut-off
//! converts the score into the binary decision `π(k, i)` broadcast by the
//! lender. The paper's running example:
//!
//! ```text
//! Factor   Code        Description           Score
//! History  -    × average default rate      -8.17
//! Income   0      ≤ $15K                     0
//!          1      > $15K                    +5.77
//! ```
//!
//! so a user with ADR 0.1 and income > $15K scores
//! `-8.17 × 0.1 + 5.77 = 4.953`, above the cut-off 0.4 ⇒ approved.

use crate::logistic::LogisticModel;

/// The lender's binary decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditDecision {
    /// Credit approved (`π(k, i) = 1`).
    Approved,
    /// Credit denied (`π(k, i) = 0`).
    Denied,
}

impl CreditDecision {
    /// The paper's numeric coding: 1 for approval.
    pub fn as_f64(self) -> f64 {
        match self {
            CreditDecision::Approved => 1.0,
            CreditDecision::Denied => 0.0,
        }
    }
}

/// One scorecard row.
#[derive(Debug, Clone, PartialEq)]
pub struct ScorecardRow {
    /// Factor name (e.g. "History", "Income").
    pub factor: String,
    /// Score contribution per unit of the factor.
    pub points_per_unit: f64,
}

/// A linear scorecard with a decision cut-off.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    /// Base points (the model intercept, often folded into the cut-off).
    pub base_points: f64,
    /// One row per factor, in feature order.
    pub rows: Vec<ScorecardRow>,
    /// Scores at or above the cut-off are approved.
    pub cutoff: f64,
}

impl Scorecard {
    /// Builds a scorecard directly from a fitted logistic model: the score
    /// *is* the linear predictor (log-odds), the standard practice the
    /// paper follows.
    pub fn from_model(model: &LogisticModel, factor_names: &[&str], cutoff: f64) -> Self {
        assert_eq!(
            model.coefficients.len(),
            factor_names.len(),
            "Scorecard: one name per coefficient required"
        );
        Scorecard {
            base_points: model.intercept,
            rows: model
                .coefficients
                .iter()
                .zip(factor_names)
                .map(|(&c, &name)| ScorecardRow {
                    factor: name.to_string(),
                    points_per_unit: c,
                })
                .collect(),
            cutoff,
        }
    }

    /// Builds a scorecard from explicit rows (e.g. the paper's Table I).
    pub fn from_rows(base_points: f64, rows: Vec<ScorecardRow>, cutoff: f64) -> Self {
        Scorecard {
            base_points,
            rows,
            cutoff,
        }
    }

    /// Number of factors.
    pub fn factor_count(&self) -> usize {
        self.rows.len()
    }

    /// The credit score of a feature vector.
    ///
    /// # Panics
    /// Panics when `features.len()` differs from the factor count.
    pub fn score(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.rows.len(),
            "Scorecard::score: feature length mismatch"
        );
        // Strict sequential accumulation, bitwise identical to the
        // former `zip().map().sum::<f64>()` fold (same operand order:
        // the products reduce from 0.0, then shift by the base). The
        // factor weights live in struct rows, so this is the manual
        // twin of `kernels::dot_seq` (rule R6).
        let mut acc = 0.0;
        for (r, &v) in self.rows.iter().zip(features) {
            acc += r.points_per_unit * v;
        }
        self.base_points + acc
    }

    /// The decision for a feature vector.
    pub fn decide(&self, features: &[f64]) -> CreditDecision {
        if self.score(features) >= self.cutoff {
            CreditDecision::Approved
        } else {
            CreditDecision::Denied
        }
    }

    /// Renders the scorecard as an aligned text table (the Table I format).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<12} {:>10}\n", "Factor", "Score"));
        out.push_str(&format!("{:<12} {:>10.3}\n", "(base)", self.base_points));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>10.3}\n",
                row.factor, row.points_per_unit
            ));
        }
        out.push_str(&format!("{:<12} {:>10.3}\n", "(cut-off)", self.cutoff));
        out
    }

    /// The paper's illustrative Table I scorecard: history −8.17 per unit
    /// ADR, income +5.77 for the `> $15K` code, cut-off 0.4, no base
    /// points.
    #[cfg(test)]
    pub fn paper_table1() -> Self {
        Scorecard::from_rows(
            0.0,
            vec![
                ScorecardRow {
                    factor: "History".to_string(),
                    points_per_unit: -8.17,
                },
                ScorecardRow {
                    factor: "Income".to_string(),
                    points_per_unit: 5.77,
                },
            ],
            0.4,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_score() {
        // The worked example under Table I: ADR 0.1, income > $15K.
        let card = Scorecard::paper_table1();
        let s = card.score(&[0.1, 1.0]);
        assert!((s - 4.953).abs() < 1e-12, "score = {s}");
        assert_eq!(card.decide(&[0.1, 1.0]), CreditDecision::Approved);
    }

    #[test]
    fn high_default_history_denied() {
        let card = Scorecard::paper_table1();
        // ADR 0.75 with low income: score = -6.1275 < 0.4.
        assert_eq!(card.decide(&[0.75, 0.0]), CreditDecision::Denied);
        // Low-income user with moderate history: -8.17*0.04 = -0.33 < 0.4.
        assert_eq!(card.decide(&[0.04, 0.0]), CreditDecision::Denied);
        // Clean history with income: 5.77 > 0.4.
        assert_eq!(card.decide(&[0.0, 1.0]), CreditDecision::Approved);
    }

    #[test]
    fn from_model_copies_coefficients() {
        let model = LogisticModel {
            intercept: 1.5,
            coefficients: vec![-2.0, 3.0],
            iterations: 5,
            converged: true,
        };
        let card = Scorecard::from_model(&model, &["History", "Income"], 0.0);
        assert_eq!(card.base_points, 1.5);
        assert_eq!(card.factor_count(), 2);
        assert_eq!(card.rows[0].factor, "History");
        assert_eq!(card.rows[0].points_per_unit, -2.0);
        // Score equals the model's linear predictor.
        let x = [0.3, 1.0];
        assert!((card.score(&x) - model.linear_score(&x)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "one name per coefficient")]
    fn from_model_checks_names() {
        let model = LogisticModel {
            intercept: 0.0,
            coefficients: vec![1.0],
            iterations: 0,
            converged: true,
        };
        Scorecard::from_model(&model, &[], 0.0);
    }

    #[test]
    fn decision_coding() {
        assert_eq!(CreditDecision::Approved.as_f64(), 1.0);
        assert_eq!(CreditDecision::Denied.as_f64(), 0.0);
    }

    #[test]
    fn table_rendering() {
        let card = Scorecard::paper_table1();
        let table = card.to_table();
        assert!(table.contains("History"));
        assert!(table.contains("-8.170"));
        assert!(table.contains("5.770"));
        assert!(table.contains("0.400"));
    }

    #[test]
    fn cutoff_boundary_is_approval() {
        let card = Scorecard::from_rows(
            0.0,
            vec![ScorecardRow {
                factor: "x".to_string(),
                points_per_unit: 1.0,
            }],
            0.4,
        );
        assert_eq!(card.decide(&[0.4]), CreditDecision::Approved);
        assert_eq!(card.decide(&[0.399_999]), CreditDecision::Denied);
    }
}
