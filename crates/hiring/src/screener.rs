//! The screener: two implementations of the loop's AI-system block.
//!
//! * [`AdaptiveScreener`] — the retrained logistic screener: hire
//!   everyone for a warmup period, then refit a logistic model each round
//!   on `(track_record, credential)` over past placements and hire by
//!   cut-off — the hiring analog of the paper's scorecard lender;
//! * [`CredentialScreener`] — the "most equal treatment" baseline: hire
//!   exactly the credentialed, forever. Identical treatment of identical
//!   visible features, unequal impact across races because credential
//!   rates differ.
//!
//! The broadcast signal `π(k, i)` is `1.0` (offer) or `0.0` (reject).
//! Both screeners are [`ShardableAi`]: the per-row decision reads `&self`
//! only, so each round's screening sweep parallelizes over row shards
//! with bit-identical records.

use crate::applicants::VISIBLE_CREDENTIAL;
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{AiSystem, Feedback};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::shard::{ColsView, ShardableAi};
use eqimpact_ml::grouped::GroupedTable;
use eqimpact_ml::logistic::{LogisticModel, LogisticRegression};

/// The default warmup: rounds during which everyone is hired before the
/// first model exists.
pub const WARMUP_ROUNDS: usize = 2;

/// The default decision cut-off on the linear score.
pub const CUTOFF: f64 = 0.5;

/// The retrained logistic screener.
pub struct AdaptiveScreener {
    warmup_rounds: usize,
    cutoff: f64,
    fitter: LogisticRegression,
    /// `track_record_i(k−1)` as known to the screener (from the last
    /// feedback); `1.0` (clean record) for applicants never seen.
    prev_track: Vec<f64>,
    /// Accumulated training observations `(track_record, credential) →
    /// y_i(j)` (hired applicants only), pooled by feature vector.
    training: GroupedTable,
    model: Option<LogisticModel>,
    refits: usize,
}

impl AdaptiveScreener {
    /// Creates the screener with the default warmup and cut-off.
    pub fn default_config() -> Self {
        AdaptiveScreener::new(WARMUP_ROUNDS, CUTOFF)
    }

    /// Creates a screener with explicit warmup and cut-off.
    pub fn new(warmup_rounds: usize, cutoff: f64) -> Self {
        AdaptiveScreener {
            warmup_rounds,
            cutoff,
            fitter: LogisticRegression::default(),
            prev_track: Vec::new(),
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
}

impl AiSystem for AdaptiveScreener {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        // Sequential-path safety net only: a stateful shard-capable AI
        // block is a per-population block (see `ShardableAi`'s docs) —
        // reuse against a differently sized pool is out of contract, and
        // the `&self` sharded sweep cannot resize. This resize merely
        // keeps the sequential path from indexing another pool's records
        // until the first retrain, mirroring the credit lenders.
        if self.prev_track.len() != visible.row_count() {
            self.prev_track = vec![1.0; visible.row_count()];
        }
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, feedback: &Feedback) {
        if self.prev_track.len() != feedback.actions.len() {
            self.prev_track = vec![1.0; feedback.actions.len()];
        }
        // Training rows pair the screener's *previous* knowledge of the
        // track record with this round's credential and outcome, hired
        // applicants only.
        let cred = feedback.visible.col(VISIBLE_CREDENTIAL);
        for (i, &action) in feedback.actions.iter().enumerate() {
            if feedback.signals[i] > 0.0 {
                // The table rejects a malformed row (non-finite track
                // record, non-binary outcome); the refit runs on the rest.
                let _ = self.training.push(&[self.prev_track[i], cred[i]], action);
            }
        }
        self.prev_track.clone_from(&feedback.per_user);

        // Fitting an empty table is an error, so nothing is refitted
        // before the first hire.
        if let Ok(model) = self.training.fit(&self.fitter) {
            self.model = Some(model);
            self.refits += 1;
        }
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        out.push_field("prev_track", &self.prev_track);
        if let Some(model) = &self.model {
            out.push_scalar("model.intercept", model.intercept);
            out.push_field("model.coefficients", &model.coefficients);
            out.push_scalar("model.iterations", model.iterations as f64);
            out.push_scalar("model.converged", if model.converged { 1.0 } else { 0.0 });
        }
        true
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let Some(prev_track) = checkpoint.field("prev_track") else {
            return false;
        };
        self.prev_track.clear();
        self.prev_track.extend_from_slice(prev_track);
        // The model is present exactly when its intercept was captured;
        // the training set stays untouched — decisions never read it.
        self.model = checkpoint
            .scalar("model.intercept")
            .map(|intercept| LogisticModel {
                intercept,
                coefficients: checkpoint
                    .field("model.coefficients")
                    .unwrap_or(&[])
                    .to_vec(),
                iterations: checkpoint.scalar("model.iterations").unwrap_or(0.0) as usize,
                converged: checkpoint.scalar("model.converged") == Some(1.0),
            });
        true
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl ShardableAi for AdaptiveScreener {
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        if k < self.warmup_rounds || self.model.is_none() {
            // Warmup, or no model yet: keep hiring.
            for o in out.iter_mut() {
                *o = 1.0;
            }
            return;
        }
        let m = self.model.as_ref().expect("checked above");
        // Applicants beyond the last feedback carry a clean record,
        // matching the retrain sizing; the whole lane is then scored in
        // one batched pass.
        let prev: Vec<f64> = visible
            .rows()
            .map(|i| self.prev_track.get(i).copied().unwrap_or(1.0))
            .collect();
        let mut scores = vec![0.0; out.len()];
        m.linear_scores_into(&[&prev, visible.col(VISIBLE_CREDENTIAL)], &mut scores);
        for (o, &s) in out.iter_mut().zip(&scores) {
            *o = if s >= self.cutoff { 1.0 } else { 0.0 };
        }
    }
}

/// The credential-gate baseline: hire exactly the credentialed.
#[derive(Debug, Clone, Default)]
pub struct CredentialScreener;

impl CredentialScreener {
    /// Creates the screener.
    pub fn new() -> Self {
        CredentialScreener
    }
}

impl AiSystem for CredentialScreener {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

impl ShardableAi for CredentialScreener {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        out.copy_from_slice(visible.col(VISIBLE_CREDENTIAL));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals_of(ai: &mut impl AiSystem, k: usize, visible: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        ai.signals_into(k, visible, &mut out);
        out
    }

    fn visible_matrix(rows: &[(f64, f64)]) -> FeatureMatrix {
        let nested: Vec<Vec<f64>> = rows.iter().map(|&(c, e)| vec![c, e]).collect();
        FeatureMatrix::from_nested(&nested)
    }

    #[test]
    fn adaptive_warmup_hires_everyone() {
        let mut s = AdaptiveScreener::default_config();
        let visible = visible_matrix(&[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(signals_of(&mut s, 0, &visible), vec![1.0, 1.0]);
        assert_eq!(signals_of(&mut s, 1, &visible), vec![1.0, 1.0]);
        assert!(s.model().is_none());
    }

    #[test]
    fn adaptive_learns_and_rejects() {
        let mut s = AdaptiveScreener::default_config();
        // Synthetic history: uncredentialed placements fail, credentialed
        // succeed, with track-record contrast.
        let n = 400;
        let rows: Vec<(f64, f64)> = (0..n)
            .map(|i| (if i % 2 == 0 { 0.0 } else { 1.0 }, 0.0))
            .collect();
        let visible = visible_matrix(&rows);
        let signals = vec![1.0; n];
        let actions: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let per_user = actions.clone();
        let feedback = Feedback {
            step: 0,
            per_user,
            aggregate: 0.5,
            visible: visible.clone(),
            signals,
            actions,
        };
        s.retrain(0, &feedback);
        assert_eq!(s.refits(), 1);
        assert_eq!(s.training_size(), n);
        let model = s.model().unwrap();
        assert!(
            model.coefficients[1] > 0.0,
            "credential coef = {}",
            model.coefficients[1]
        );
        // The pooled fit is the row fit over the same 400 rows, whose
        // track record is the fresh screener's clean 1.0.
        let rows: Vec<Vec<f64>> = visible
            .col(VISIBLE_CREDENTIAL)
            .iter()
            .map(|&cred| vec![1.0, cred])
            .collect();
        let by_rows = LogisticRegression::default()
            .fit(&eqimpact_ml::Dataset::new(&rows, &feedback.actions).unwrap())
            .unwrap();
        assert_eq!(model.iterations, by_rows.iterations);
        assert_eq!(model.converged, by_rows.converged);
        assert!((model.intercept - by_rows.intercept).abs() < 1e-9);
        for (a, b) in model.coefficients.iter().zip(&by_rows.coefficients) {
            assert!((a - b).abs() < 1e-9, "pooled {a} vs rows {b}");
        }
        // Past warmup, the failed uncredentialed applicant is rejected and
        // the successful credentialed one hired.
        let decisions = signals_of(&mut s, 2, &visible);
        assert_eq!(decisions[0], 0.0);
        assert_eq!(decisions[1], 1.0);
    }

    #[test]
    fn adaptive_skips_malformed_rows_and_still_refits() {
        let mut s = AdaptiveScreener::default_config();
        let visible = visible_matrix(&[(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]);
        let feedback = |per_user: Vec<f64>, actions: Vec<f64>| Feedback {
            step: 0,
            per_user,
            aggregate: 0.0,
            visible: visible.clone(),
            signals: vec![1.0; 4],
            actions,
        };
        // Applicant 0's filter output is NaN, so its next row has a NaN
        // track record.
        s.retrain(
            0,
            &feedback(vec![f64::NAN, 1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0, 1.0]),
        );
        assert_eq!(s.training_size(), 4);
        // Applicant 1's outcome of 0.5 is not a label either.
        s.retrain(
            1,
            &feedback(vec![1.0, 1.0, 0.0, 1.0], vec![1.0, 0.5, 0.0, 1.0]),
        );
        assert_eq!(s.training_size(), 6);
        assert_eq!(s.refits(), 2);
        assert!(s.model().is_some());
    }

    #[test]
    fn credential_screener_gates_on_the_code() {
        let mut s = CredentialScreener::new();
        let visible = visible_matrix(&[(1.0, 3.0), (0.0, 9.0)]);
        // Experience is visible but never consulted.
        assert_eq!(signals_of(&mut s, 0, &visible), vec![1.0, 0.0]);
        assert_eq!(signals_of(&mut s, 7, &visible), vec![1.0, 0.0]);
    }
}
