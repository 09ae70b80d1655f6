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
use eqimpact_ml::logistic::LogisticModel;
use eqimpact_ml::retrained::RetrainedLogistic;

/// The default decision cut-off on the linear score.
pub const CUTOFF: f64 = 0.5;

/// The retrained logistic screener: the shared retrained learner over
/// `(track_record_i(k−1), credential)`, hiring when the score is at or
/// above [`CUTOFF`].
pub struct AdaptiveScreener {
    learner: RetrainedLogistic,
}

impl AdaptiveScreener {
    /// Creates the screener: applicants the filter has not reported
    /// carry a clean record (`1.0`).
    pub fn default_config() -> Self {
        AdaptiveScreener {
            learner: RetrainedLogistic::new("prev_track", 1.0),
        }
    }

    /// The current model, if any retraining has happened.
    pub fn model(&self) -> Option<&LogisticModel> {
        self.learner.model()
    }

    /// Number of refits performed.
    pub fn refits(&self) -> usize {
        self.learner.refits()
    }

    /// Accumulated training-set size, in observations.
    pub fn training_size(&self) -> usize {
        self.learner.training_size()
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
        self.learner.size_to(visible.row_count());
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, feedback: &Feedback) {
        self.learner.retrain(feedback);
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        self.learner.checkpoint_into(out);
        true
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        self.learner.restore_checkpoint(checkpoint)
    }
}

impl ShardableAi for AdaptiveScreener {
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        let Some(scores) = self.learner.scores(k, visible) else {
            // Warmup, or no model yet: keep hiring.
            out.fill(1.0);
            return;
        };
        for (o, &s) in out.iter_mut().zip(&scores) {
            *o = if s >= CUTOFF { 1.0 } else { 0.0 };
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
    fn a_nan_track_record_is_rejected() {
        // A restored track record of NaN scores NaN, which is not at or
        // above the cut-off: the applicant is rejected.
        let mut checkpoint = ModelCheckpoint::new();
        checkpoint.push_field("prev_track", &[f64::NAN, 1.0]);
        checkpoint.push_scalar("model.intercept", 0.0);
        checkpoint.push_field("model.coefficients", &[2.0, 1.0]);
        let mut s = AdaptiveScreener::default_config();
        assert!(s.restore_checkpoint(&checkpoint));
        let visible = visible_matrix(&[(1.0, 0.0), (1.0, 0.0)]);
        assert_eq!(signals_of(&mut s, 2, &visible), vec![0.0, 1.0]);
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
