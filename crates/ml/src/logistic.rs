//! Binomial logistic regression, fitted by IRLS with an L2 ridge.
//!
//! The model is `P(y = 1 | x) = σ(β₀ + βᵀ x)`. IRLS (Newton's method on
//! the penalized log-likelihood) solves
//! `(Xᵀ W X + λI) δ = Xᵀ (y − p) − λβ` per iteration via Cholesky; when a
//! Newton step fails (separation, degenerate weights) the fitter falls
//! back to plain gradient ascent, so training always returns a model.

use crate::dataset::Dataset;
use eqimpact_linalg::cholesky::solve_spd_with_ridge;
use eqimpact_linalg::{kernels, Matrix, Vector};
use eqimpact_telemetry::metrics as tm;
use std::fmt;

/// Training-time failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// There are no observations to fit.
    Empty,
    /// All labels identical: the MLE does not exist without regularization.
    DegenerateLabels,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Empty => write!(f, "no observations to fit"),
            TrainError::DegenerateLabels => {
                write!(f, "all labels identical; add regularization or more data")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// The numerically safe sigmoid `σ(t) = 1/(1+e^{-t})`.
pub fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

/// Hyper-parameters of the logistic fitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticRegression {
    /// L2 ridge strength `λ ≥ 0` (applied to all coefficients including
    /// the intercept; keeps the MLE finite under separation).
    pub ridge: f64,
    /// Maximum IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the coefficient step (∞-norm).
    pub tol: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            ridge: 1e-4,
            max_iter: 100,
            tol: 1e-10,
        }
    }
}

/// Largest allowed ∞-norm of a single Newton step. Under (quasi-)complete
/// separation the IRLS Hessian degenerates to the ridge and raw Newton
/// steps explode; clamping keeps the iteration a damped ascent that still
/// converges to the penalized MLE.
const MAX_STEP_INF_NORM: f64 = 2.0;

/// A fitted logistic model: intercept plus one coefficient per feature.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Intercept `β₀`.
    pub intercept: f64,
    /// Feature coefficients `β`.
    pub coefficients: Vec<f64>,
    /// IRLS iterations actually used.
    pub iterations: usize,
    /// Whether the coefficient step converged below tolerance.
    pub converged: bool,
}

impl LogisticModel {
    /// The linear predictor `β₀ + βᵀ x`.
    ///
    /// # Panics
    /// Panics when `x` has the wrong length.
    pub fn linear_score(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.coefficients.len(),
            "linear_score: feature length mismatch"
        );
        // `dot_seq` matches the scalar `zip().map().sum()` fold bitwise
        // (see linalg::kernels), keeping scores reproducible while the
        // reduction stays inside the documented kernel home (rule R6).
        self.intercept + kernels::dot_seq(&self.coefficients, x)
    }

    /// The predicted probability `P(y = 1 | x)`.
    // analyze::allow(R8): ml/tests/properties.rs checks fitted probabilities through it
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.linear_score(x))
    }

    /// Batched linear predictor over columnar features:
    /// `out[i] = β₀ + Σⱼ βⱼ · colsⱼ[i]`.
    ///
    /// This is the hot-path twin of [`Self::linear_score`]: one
    /// `kernels::axpy` pass per feature column plus a `kernels::offset`
    /// for the intercept, bit-identical to calling `linear_score` on each
    /// gathered row (same per-element fold, no reassociation).
    ///
    /// # Panics
    /// Panics when the number of columns differs from the number of
    /// coefficients, or when any column's length differs from `out`'s.
    pub fn linear_scores_into(&self, cols: &[&[f64]], out: &mut [f64]) {
        assert_eq!(
            cols.len(),
            self.coefficients.len(),
            "linear_scores_into: column count mismatch"
        );
        kernels::fill(out, 0.0);
        for (b, col) in self.coefficients.iter().zip(cols) {
            kernels::axpy(out, *b, col);
        }
        kernels::offset(out, self.intercept);
    }

    /// Average log-loss on a dataset, scored through the batch kernels.
    // analyze::allow(R8): ml/tests/properties.rs checks fitted models through it
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        let n = data.len();
        let mut scores = vec![0.0; n];
        self.linear_scores_into(&data.feature_columns(), &mut scores);
        let y = data.labels();
        let mut total = 0.0;
        for (i, &s) in scores.iter().enumerate() {
            let p = sigmoid(s).clamp(1e-12, 1.0 - 1e-12);
            total -= y[i] * p.ln() + (1.0 - y[i]) * (1.0 - p).ln();
        }
        total / n as f64
    }
}

impl LogisticRegression {
    /// Fits the model to a dataset.
    ///
    /// Returns [`TrainError::DegenerateLabels`] when every label is
    /// identical **and** no ridge is configured; with a positive ridge the
    /// penalized MLE exists and is returned instead.
    pub fn fit(&self, data: &Dataset) -> Result<LogisticModel, TrainError> {
        // Every row is one observation. A count of 1.0 multiplies exactly
        // and sums exactly to `n`, so this is the row-by-row IRLS bit for
        // bit.
        let ones = vec![1.0; data.len()];
        self.fit_grouped(&data.feature_columns(), data.labels().as_slice(), &ones)
    }

    /// The IRLS core over grouped-binomial rows: row `i` has features
    /// `cols[·][i]` and stands for `counts[i]` observations, `positives[i]`
    /// of them labeled 1. The grouped likelihood
    /// `Σᵢ sᵢ ln pᵢ + (cᵢ − sᵢ) ln(1 − pᵢ)` equals the likelihood of the
    /// rows expanded one per observation, so the fit is the same model
    /// for the price of one row per distinct feature vector.
    ///
    /// Returns [`TrainError::Empty`] when the counts sum to zero.
    pub(crate) fn fit_grouped(
        &self,
        cols: &[&[f64]],
        positives: &[f64],
        counts: &[f64],
    ) -> Result<LogisticModel, TrainError> {
        let n = counts.len();
        let d = cols.len();
        let observations = kernels::sum_seq(counts);
        if observations == 0.0 {
            return Err(TrainError::Empty);
        }
        let pos = kernels::sum_seq(positives) / observations;
        if (pos == 0.0 || pos == 1.0) && self.ridge == 0.0 {
            return Err(TrainError::DegenerateLabels);
        }

        // The design matrix stays implicit: the intercept column is all
        // ones, and the feature columns come straight from the caller's
        // columnar storage.
        let xat = |i: usize, j: usize| if j == 0 { 1.0 } else { cols[j - 1][i] };

        let mut beta = Vector::zeros(d + 1);
        // Warm start the intercept at the log-odds of the base rate.
        let p0 = pos.clamp(1e-6, 1.0 - 1e-6);
        beta[0] = (p0 / (1.0 - p0)).ln();

        let mut iterations = 0usize;
        let mut converged = false;
        let mut eta = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut w = vec![0.0; n];
        let mut resid = vec![0.0; n];

        for _ in 0..self.max_iter {
            iterations += 1;
            // η = X β through the batch kernels: per element this is the
            // same left fold as a row-major mat-vec, one column at a time.
            kernels::fill(&mut eta, 0.0);
            kernels::offset(&mut eta, beta[0]);
            for (j, col) in cols.iter().enumerate() {
                kernels::axpy(&mut eta, beta[j + 1], col);
            }
            // p = σ(X β); W = diag(c p (1 - p)); residual s − c p.
            for i in 0..n {
                p[i] = sigmoid(eta[i]);
                w[i] = counts[i] * (p[i] * (1.0 - p[i])).max(1e-10);
                resid[i] = positives[i] - counts[i] * p[i];
            }
            // Gradient of penalized log-likelihood: Xᵀ(s − c p) − λβ.
            // Accumulates over rows in ascending order with a skip on
            // zero residuals, exactly like the row-major transpose
            // mat-vec it replaces (skipping vs adding a signed zero can
            // differ bitwise, so the skip is part of the contract).
            let mut grad = Vector::zeros(d + 1);
            for a in 0..=d {
                let mut acc = 0.0;
                for (i, &vi) in resid.iter().enumerate() {
                    if vi == 0.0 {
                        continue;
                    }
                    acc += vi * xat(i, a);
                }
                grad[a] = acc;
            }
            grad.axpy(-self.ridge, &beta).expect("same length");
            // Hessian: Xᵀ W X + λI, same row-outer accumulation order as
            // the dense design-matrix loop.
            let mut h = Matrix::zeros(d + 1, d + 1);
            for (i, &wi) in w.iter().enumerate() {
                for a in 0..=d {
                    let ra = xat(i, a) * wi;
                    if ra == 0.0 {
                        continue;
                    }
                    for b in 0..=d {
                        h[(a, b)] += ra * xat(i, b);
                    }
                }
            }
            for a in 0..=d {
                h[(a, a)] += self.ridge.max(1e-12);
            }

            let step = match solve_spd_with_ridge(&h, &grad, 1e3) {
                Ok((s, _)) => s,
                Err(_) => {
                    // Newton failed outright: take a small gradient step.
                    grad.scaled(1e-3)
                }
            };
            // Damping: keep the step finite and clamp its length so the
            // iteration cannot explode under separation.
            let mut damped = step;
            let mut tries = 0;
            while damped.has_non_finite() && tries < 40 {
                damped.scale_mut(0.5);
                tries += 1;
            }
            let norm = damped.norm_inf();
            if norm > MAX_STEP_INF_NORM {
                damped.scale_mut(MAX_STEP_INF_NORM / norm);
            }
            beta += &damped;
            if beta.has_non_finite() {
                // Retreat: undo and stop with the last finite iterate.
                beta -= &damped;
                break;
            }
            if damped.norm_inf() < self.tol {
                converged = true;
                break;
            }
        }

        tm::IRLS_FITS.incr();
        tm::IRLS_ITERATIONS.add(iterations as u64);
        tm::IRLS_ROWS.add(n as u64);
        Ok(LogisticModel {
            intercept: beta[0],
            coefficients: beta.as_slice()[1..].to_vec(),
            iterations,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_stats::SimRng;

    /// Generates a dataset from known coefficients for recovery tests.
    fn synthetic(n: usize, intercept: f64, coefs: &[f64], seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = coefs.iter().map(|_| rng.uniform_in(-2.0, 2.0)).collect();
            let eta: f64 = intercept + coefs.iter().zip(&x).map(|(b, v)| b * v).sum::<f64>();
            let y = if rng.bernoulli(sigmoid(eta)) {
                1.0
            } else {
                0.0
            };
            rows.push(x);
            labels.push(y);
        }
        Dataset::new(&rows, &labels).unwrap()
    }

    #[test]
    fn sigmoid_basics() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        assert!((sigmoid(700.0) - 1.0).abs() < 1e-15);
        assert!(sigmoid(-700.0) >= 0.0);
        // Symmetry.
        for &t in &[0.3, 1.7, 4.0] {
            assert!((sigmoid(t) + sigmoid(-t) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn recovers_known_coefficients() {
        let data = synthetic(20_000, 0.5, &[2.0, -1.0], 1);
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert!(model.converged);
        assert!(
            (model.intercept - 0.5).abs() < 0.1,
            "b0 = {}",
            model.intercept
        );
        assert!(
            (model.coefficients[0] - 2.0).abs() < 0.1,
            "b1 = {}",
            model.coefficients[0]
        );
        assert!(
            (model.coefficients[1] + 1.0).abs() < 0.1,
            "b2 = {}",
            model.coefficients[1]
        );
    }

    #[test]
    fn prediction_api() {
        let data = synthetic(5_000, 0.0, &[3.0], 2);
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert!(model.predict_proba(&[2.0]) > 0.9);
        assert!(model.predict_proba(&[-2.0]) < 0.1);
    }

    #[test]
    fn log_loss_better_than_chance() {
        let data = synthetic(5_000, 0.0, &[2.0], 3);
        let model = LogisticRegression::default().fit(&data).unwrap();
        // Chance log-loss is ln 2 ≈ 0.693.
        assert!(model.log_loss(&data) < 0.55);
    }

    #[test]
    fn separation_is_tamed_by_ridge() {
        // Perfectly separated data: unpenalized MLE diverges; the ridge
        // keeps coefficients finite.
        let data = Dataset::new(
            &[vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]],
            &[0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
        let model = LogisticRegression {
            ridge: 0.1,
            ..Default::default()
        }
        .fit(&data)
        .unwrap();
        assert!(model.coefficients[0].is_finite());
        assert!(model.coefficients[0] > 0.5);
        assert!(model.predict_proba(&[2.0]) > 0.7);
    }

    #[test]
    fn degenerate_labels_rejected_without_ridge() {
        let data = Dataset::new(&[vec![1.0], vec![2.0]], &[1.0, 1.0]).unwrap();
        let err = LogisticRegression {
            ridge: 0.0,
            ..Default::default()
        }
        .fit(&data)
        .unwrap_err();
        assert_eq!(err, TrainError::DegenerateLabels);
        // With a ridge the fit succeeds and predicts high probability.
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert!(model.predict_proba(&[1.5]) > 0.9);
    }

    #[test]
    fn paper_scorecard_shape_negative_history_positive_income() {
        // Simulate the paper's feature pattern: income code in {0, 1},
        // average default rate in [0, 1]; repayment more likely with income,
        // less likely with default history.
        let mut rng = SimRng::new(4);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..10_000 {
            let income = if rng.bernoulli(0.7) { 1.0 } else { 0.0 };
            let adr = rng.uniform();
            let eta = -8.0 * adr + 5.5 * income + 1.0;
            let y = if rng.bernoulli(sigmoid(eta)) {
                1.0
            } else {
                0.0
            };
            rows.push(vec![adr, income]);
            labels.push(y);
        }
        let data = Dataset::new(&rows, &labels).unwrap();
        let model = LogisticRegression::default().fit(&data).unwrap();
        // Table I shape: history (ADR) negative, income positive.
        assert!(
            model.coefficients[0] < -5.0,
            "adr coef = {}",
            model.coefficients[0]
        );
        assert!(
            model.coefficients[1] > 3.0,
            "income coef = {}",
            model.coefficients[1]
        );
    }

    #[test]
    fn batch_scores_match_per_row_bitwise() {
        let data = synthetic(500, 0.25, &[1.5, -0.75], 9);
        let model = LogisticRegression::default().fit(&data).unwrap();
        let cols = data.feature_columns();
        let mut scores = vec![f64::NAN; data.len()];
        model.linear_scores_into(&cols, &mut scores);
        for (i, score) in scores.iter().enumerate() {
            assert_eq!(score.to_bits(), model.linear_score(&data.row(i)).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn batch_scores_check_column_count() {
        let model = LogisticModel {
            intercept: 0.0,
            coefficients: vec![1.0, 2.0],
            iterations: 0,
            converged: true,
        };
        let mut out = [0.0; 2];
        model.linear_scores_into(&[&[1.0, 2.0]], &mut out);
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn linear_score_checks_length() {
        let model = LogisticModel {
            intercept: 0.0,
            coefficients: vec![1.0, 2.0],
            iterations: 0,
            converged: true,
        };
        model.linear_score(&[1.0]);
    }

    #[test]
    fn train_error_display() {
        assert!(TrainError::DegenerateLabels
            .to_string()
            .contains("identical"));
    }
}
