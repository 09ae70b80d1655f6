//! The retrained learner of Fig. 1, shared by both traced scenarios.
//!
//! Every retrain refits a logistic model on `(h_i(k−1), c_i(k)) → y_i(k)`
//! over the users the AI system reached (`π(k, i) > 0`): `h_i` is the
//! feedback filter's per-user history as of the previous feedback
//! (credit's ADR, hiring's track record), `c_i` the visible code in
//! column [`SCORED_COLUMN`] (the income code, the credential) and `y_i`
//! the outcome. Observations accumulate in a [`GroupedTable`], so a refit
//! costs one IRLS row per distinct `(h, c)` pair. From step
//! [`WARMUP_STEPS`] on, once a model exists, [`RetrainedLogistic::scores`]
//! gives every user the model's linear predictor; what a score decides
//! (a loan size, a hire) is the scenario's.

use crate::grouped::GroupedTable;
use crate::logistic::{LogisticModel, LogisticRegression};
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::Feedback;
use eqimpact_core::shard::ColsView;

/// The visible column scored next to the history.
pub const SCORED_COLUMN: usize = 0;

/// Steps during which nothing is scored: the paper's two warmup years.
pub const WARMUP_STEPS: usize = 2;

/// Features of every row the learner fits and scores: the history and
/// the visible column [`SCORED_COLUMN`].
const FEATURES: usize = 2;

/// The per-user history, the accumulated training table and the current
/// model of a retrained logistic learner.
pub struct RetrainedLogistic {
    /// Checkpoint field of the history (`prev_adr`, `prev_track`).
    history_name: &'static str,
    /// History of a user no feedback has reported yet.
    prior: f64,
    fitter: LogisticRegression,
    /// `h_i(k−1)`: the filter's per-user output of the last feedback.
    history: Vec<f64>,
    /// Every accepted `(h, c) → y` observation, pooled by feature vector.
    training: GroupedTable,
    model: Option<LogisticModel>,
    refits: usize,
}

impl RetrainedLogistic {
    /// A learner with no history and no model, checkpointing its history
    /// as `history_name` and giving unreported users the history `prior`.
    pub fn new(history_name: &'static str, prior: f64) -> Self {
        RetrainedLogistic {
            history_name,
            prior,
            fitter: LogisticRegression::default(),
            history: Vec::new(),
            training: GroupedTable::new(),
            model: None,
            refits: 0,
        }
    }

    /// The current model, if any retraining has happened.
    pub fn model(&self) -> Option<&LogisticModel> {
        self.model.as_ref()
    }

    /// Number of refits performed.
    pub fn refits(&self) -> usize {
        self.refits
    }

    /// Accumulated training-set size, in observations.
    pub fn training_size(&self) -> usize {
        self.training.len()
    }

    /// Resets the history to the prior when the user count is not
    /// `users`, so a reused learner never reads another population's
    /// history.
    pub fn size_to(&mut self, users: usize) {
        if self.history.len() != users {
            self.history = vec![self.prior; users];
        }
    }

    /// Absorbs one feedback package and refits.
    pub fn retrain(&mut self, feedback: &Feedback) {
        self.size_to(feedback.actions.len());
        let code = feedback.visible.col(SCORED_COLUMN);
        for (i, &action) in feedback.actions.iter().enumerate() {
            if feedback.signals[i] > 0.0 {
                // The table rejects a malformed row (non-finite history,
                // non-binary outcome); the refit runs on the rest.
                let _ = self.training.push(&[self.history[i], code[i]], action);
            }
        }
        // The filter's output up to the feedback step is exactly the
        // history at the next decision.
        self.history.clone_from(&feedback.per_user);

        // Fitting an empty table is an error, so nothing is refitted
        // before the first user is reached.
        if let Ok(model) = self.training.fit(&self.fitter) {
            self.model = Some(model);
            self.refits += 1;
        }
    }

    /// Appends the history and, once fitted, the model's
    /// `model.{intercept, coefficients, iterations, converged}` fields.
    pub fn checkpoint_into(&self, out: &mut ModelCheckpoint) {
        out.push_field(self.history_name, &self.history);
        if let Some(model) = &self.model {
            out.push_scalar("model.intercept", model.intercept);
            out.push_field("model.coefficients", &model.coefficients);
            out.push_scalar("model.iterations", model.iterations as f64);
            out.push_scalar("model.converged", if model.converged { 1.0 } else { 0.0 });
        }
    }

    /// Restores what [`Self::checkpoint_into`] captured. Returns `false`,
    /// changing nothing, when the checkpoint carries no history, or a
    /// model whose coefficients are missing or not one per scored
    /// feature (a model [`Self::scores`] could not apply).
    pub fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let Some(history) = checkpoint.field(self.history_name) else {
            return false;
        };
        // The model is present exactly when its intercept was captured.
        let model = match checkpoint.scalar("model.intercept") {
            None => None,
            Some(intercept) => match checkpoint.field("model.coefficients") {
                Some(coefficients) if coefficients.len() == FEATURES => Some(LogisticModel {
                    intercept,
                    coefficients: coefficients.to_vec(),
                    iterations: checkpoint.scalar("model.iterations").unwrap_or(0.0) as usize,
                    converged: checkpoint.scalar("model.converged") == Some(1.0),
                }),
                _ => return false,
            },
        };
        self.history.clear();
        self.history.extend_from_slice(history);
        // The training set stays untouched: decisions never read it.
        self.model = model;
        true
    }

    /// The linear score of each row of `visible` at step `k`, or `None`
    /// during the warmup and before the first fit. Users beyond the last
    /// feedback carry the prior, matching the retrain sizing.
    pub fn scores(&self, k: usize, visible: &ColsView<'_>) -> Option<Vec<f64>> {
        if k < WARMUP_STEPS {
            return None;
        }
        let model = self.model.as_ref()?;
        let history: Vec<f64> = visible
            .rows()
            .map(|i| self.history.get(i).copied().unwrap_or(self.prior))
            .collect();
        let mut scores = vec![0.0; history.len()];
        model.linear_scores_into(&[&history, visible.col(SCORED_COLUMN)], &mut scores);
        Some(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;
    use eqimpact_core::features::FeatureMatrix;
    use eqimpact_core::shard::full_cols;

    /// The two scenarios' histories: credit's clean ADR of 0 and hiring's
    /// clean track record of 1.
    const CONFIGS: [(&str, f64); 2] = [("prev_adr", 0.0), ("prev_track", 1.0)];

    /// One feedback package over users with the visible codes `codes`,
    /// every user reached.
    fn feedback(codes: &[f64], per_user: Vec<f64>, actions: Vec<f64>) -> Feedback {
        let rows: Vec<Vec<f64>> = codes.iter().map(|&c| vec![c, 0.0]).collect();
        Feedback {
            step: 0,
            per_user,
            aggregate: 0.0,
            visible: FeatureMatrix::from_nested(&rows),
            signals: vec![1.0; codes.len()],
            actions,
        }
    }

    #[test]
    fn pooled_fit_equals_the_row_fit() {
        let n = 400;
        let codes: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let actions = codes.clone();
        for (name, prior) in CONFIGS {
            let mut learner = RetrainedLogistic::new(name, prior);
            learner.retrain(&feedback(&codes, actions.clone(), actions.clone()));
            assert_eq!(learner.refits(), 1, "{name}");
            assert_eq!(learner.training_size(), n, "{name}");
            let model = learner.model().unwrap();
            // A fresh learner's history is the prior for every user.
            let rows: Vec<Vec<f64>> = codes.iter().map(|&c| vec![prior, c]).collect();
            let by_rows = LogisticRegression::default()
                .fit(&Dataset::new(&rows, &actions).unwrap())
                .unwrap();
            assert_eq!(model.iterations, by_rows.iterations, "{name}");
            assert_eq!(model.converged, by_rows.converged, "{name}");
            assert!((model.intercept - by_rows.intercept).abs() < 1e-9, "{name}");
            for (a, b) in model.coefficients.iter().zip(&by_rows.coefficients) {
                assert!((a - b).abs() < 1e-9, "{name}: pooled {a} vs rows {b}");
            }
        }
    }

    #[test]
    fn a_model_that_cannot_score_is_not_restored() {
        let codes = [0.0, 1.0, 0.0, 1.0];
        let visible = FeatureMatrix::from_nested(&[vec![0.0, 0.0], vec![1.0, 0.0]]);
        let view = full_cols(&visible);
        for (name, prior) in CONFIGS {
            let mut learner = RetrainedLogistic::new(name, prior);
            learner.retrain(&feedback(
                &codes,
                vec![prior, 1.0 - prior, prior, prior],
                vec![0.0, 1.0, 0.0, 1.0],
            ));
            let (history, model) = (learner.history.clone(), learner.model.clone());
            let scores = learner.scores(WARMUP_STEPS, &view);
            assert!(scores.is_some(), "{name}");
            // Coefficients one short, one over, and missing beside an
            // intercept: scoring such a model would panic.
            for coefficients in [Some(&[0.5][..]), Some(&[0.5, 1.0, 2.0]), None] {
                let mut checkpoint = ModelCheckpoint::new();
                checkpoint.push_field(name, &[0.25, 0.75]);
                checkpoint.push_scalar("model.intercept", 0.5);
                if let Some(coefficients) = coefficients {
                    checkpoint.push_field("model.coefficients", coefficients);
                }
                assert!(!learner.restore_checkpoint(&checkpoint), "{name}");
                assert_eq!(learner.history, history, "{name}");
                assert_eq!(learner.model, model, "{name}");
                assert_eq!(learner.scores(WARMUP_STEPS, &view), scores, "{name}");
            }
            // The same checkpoint with one coefficient per feature restores.
            let mut checkpoint = ModelCheckpoint::new();
            checkpoint.push_field(name, &[0.25, 0.75]);
            checkpoint.push_scalar("model.intercept", 0.5);
            checkpoint.push_field("model.coefficients", &[1.0, 2.0]);
            assert!(learner.restore_checkpoint(&checkpoint), "{name}");
            assert_eq!(learner.history, [0.25, 0.75], "{name}");
            let restored = learner.scores(WARMUP_STEPS, &view).unwrap();
            assert_eq!(restored, [0.5 + 0.25, 0.5 + 0.75 + 2.0], "{name}");
        }
    }

    #[test]
    fn malformed_rows_are_skipped_and_it_still_refits() {
        let codes = [0.0, 1.0, 0.0, 1.0];
        for (name, prior) in CONFIGS {
            let mut learner = RetrainedLogistic::new(name, prior);
            // User 0's filter output is NaN, so its next row has a NaN
            // history.
            learner.retrain(&feedback(
                &codes,
                vec![f64::NAN, prior, 1.0 - prior, prior],
                vec![0.0, 1.0, 0.0, 1.0],
            ));
            assert_eq!(learner.training_size(), 4, "{name}");
            // User 1's outcome of 0.5 is not a label either.
            learner.retrain(&feedback(
                &codes,
                vec![prior, prior, 1.0 - prior, prior],
                vec![1.0, 0.5, 0.0, 1.0],
            ));
            assert_eq!(learner.training_size(), 6, "{name}");
            assert_eq!(learner.refits(), 2, "{name}");
            assert!(learner.model().is_some(), "{name}");
        }
    }
}
