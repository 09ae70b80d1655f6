//! The lender: three implementations of the loop's AI-system block.
//!
//! * [`ScorecardLender`] — the paper's Sec. VII protocol: approve everyone
//!   for the first two years, then retrain a logistic scorecard each year
//!   on `(ADR_i(k−1), 1_{z≥15})` and decide by cut-off;
//! * [`UniformExclusionLender`] — the introduction's "most equal
//!   treatment" baseline: a flat $50K to everyone who has never defaulted,
//!   permanent exclusion afterwards;
//! * [`IncomeMultipleLender`] — the introduction's differentiated
//!   baseline: always approve, size the loan at a multiple of income.
//!
//! The broadcast signal `π(k, i)` is the offered loan amount in $K, with
//! `0` meaning denial. Visible features per user are
//! `[income_code, income]`: the scorecard only ever *scores* on the code
//! (and the default history), while the raw income is used solely to size
//! the 3.5x mortgage, as in the paper.

use crate::model;
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{AiSystem, Feedback};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::shard::{ColsView, ShardableAi};
use eqimpact_ml::logistic::LogisticModel;
use eqimpact_ml::retrained::{RetrainedLogistic, SCORED_COLUMN};
use eqimpact_ml::scorecard::Scorecard;

/// Index of the income code in the visible feature rows: the column the
/// retrained learner scores.
pub const VISIBLE_INCOME_CODE: usize = SCORED_COLUMN;

/// Index of the raw income ($K) in the visible feature rows.
pub const VISIBLE_INCOME_K: usize = 1;

/// The flat loan amount ($K) of the uniform policy, the introduction's
/// $50K.
const UNIFORM_AMOUNT_K: f64 = 50.0;

/// The paper's retrained scorecard lender: the shared retrained learner
/// over `(ADR_i(k−1), income code)`, sizing each offer at
/// [`model::INCOME_MULTIPLE`] × income and denying scores below
/// [`model::CUTOFF`].
pub struct ScorecardLender {
    learner: RetrainedLogistic,
}

impl ScorecardLender {
    /// Creates the lender with the paper's parameters: users the filter
    /// has not reported carry a clean history (ADR 0).
    pub fn paper_default() -> Self {
        ScorecardLender {
            learner: RetrainedLogistic::new("prev_adr", 0.0),
        }
    }

    /// The current model, if any retraining has happened.
    pub fn model(&self) -> Option<&LogisticModel> {
        self.learner.model()
    }

    /// The current scorecard (factor order: History = ADR, Income = code).
    pub fn scorecard(&self) -> Option<Scorecard> {
        self.learner
            .model()
            .map(|m| Scorecard::from_model(m, &["History", "Income"], model::CUTOFF))
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

impl AiSystem for ScorecardLender {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        // A reused lender facing a differently sized population would
        // otherwise read another population's ADRs until the first
        // retrain resizes the state.
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

impl ShardableAi for ScorecardLender {
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        // Sized offers for everyone first; the scorecard then zeroes the
        // denials in place.
        for (o, &income) in out.iter_mut().zip(visible.col(VISIBLE_INCOME_K)) {
            *o = model::INCOME_MULTIPLE * income;
        }
        // No scores in the warmup or before the first scorecard: keep
        // approving.
        let Some(scores) = self.learner.scores(k, visible) else {
            return;
        };
        for (o, &s) in out.iter_mut().zip(&scores) {
            if s < model::CUTOFF {
                *o = 0.0;
            }
        }
    }
}

/// The introduction's uniform policy: a flat loan to anyone who has never
/// defaulted, permanent denial afterwards. Maximal equal treatment,
/// failing equal impact.
pub struct UniformExclusionLender {
    /// Lender-side memory of who has ever defaulted.
    defaulted: Vec<bool>,
}

impl UniformExclusionLender {
    /// Creates the lender with the introduction's $50K amount.
    pub fn paper_default() -> Self {
        UniformExclusionLender {
            defaulted: Vec::new(),
        }
    }
}

impl AiSystem for UniformExclusionLender {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        // See ScorecardLender::signals_into: drop stale per-user state
        // when the population size changed between runs.
        if self.defaulted.len() != visible.row_count() {
            self.defaulted = vec![false; visible.row_count()];
        }
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, feedback: &Feedback) {
        if self.defaulted.len() != feedback.actions.len() {
            self.defaulted = vec![false; feedback.actions.len()];
        }
        for i in 0..feedback.actions.len() {
            if feedback.signals[i] > 0.0 && feedback.actions[i] == 0.0 {
                self.defaulted[i] = true;
            }
        }
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        out.field_mut("defaulted")
            .extend(self.defaulted.iter().map(|&d| if d { 1.0 } else { 0.0 }));
        true
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let Some(defaulted) = checkpoint.field("defaulted") else {
            return false;
        };
        self.defaulted.clear();
        self.defaulted.extend(defaulted.iter().map(|&d| d != 0.0));
        true
    }
}

impl ShardableAi for UniformExclusionLender {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        for (o, i) in out.iter_mut().zip(visible.rows()) {
            // Users beyond the last feedback have never defaulted.
            let defaulted = self.defaulted.get(i).copied().unwrap_or(false);
            *o = if defaulted { 0.0 } else { UNIFORM_AMOUNT_K };
        }
    }
}

/// The introduction's differentiated policy: always approve, size the loan
/// at a multiple of income. Unequal treatment, aiming for equal impact.
pub struct IncomeMultipleLender {
    /// The sizing multiple (the introduction's "three times the annual
    /// salary"; the Sec. VII experiments use 3.5).
    pub multiple: f64,
}

impl IncomeMultipleLender {
    /// Creates the lender.
    pub fn new(multiple: f64) -> Self {
        IncomeMultipleLender { multiple }
    }
}

impl AiSystem for IncomeMultipleLender {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

impl ShardableAi for IncomeMultipleLender {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        for (o, &income) in out.iter_mut().zip(visible.col(VISIBLE_INCOME_K)) {
            *o = self.multiple * income;
        }
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

    fn visible_row(income: f64) -> Vec<f64> {
        vec![model::income_code(income), income]
    }

    fn visible_matrix(incomes: &[f64]) -> FeatureMatrix {
        let rows: Vec<Vec<f64>> = incomes.iter().map(|&i| visible_row(i)).collect();
        FeatureMatrix::from_nested(&rows)
    }

    #[test]
    fn scorecard_lender_warmup_approves_everyone() {
        let mut lender = ScorecardLender::paper_default();
        let visible = visible_matrix(&[8.0, 60.0]);
        let signals = signals_of(&mut lender, 0, &visible);
        assert_eq!(signals, vec![28.0, 210.0]);
        let signals1 = signals_of(&mut lender, 1, &visible);
        assert_eq!(signals1.len(), 2);
        assert!(signals1.iter().all(|&l| l > 0.0));
        assert!(lender.model().is_none());
        assert!(lender.scorecard().is_none());
    }

    #[test]
    fn scorecard_lender_learns_and_denies() {
        let mut lender = ScorecardLender::paper_default();
        // Feed it a synthetic history where low-code users default and
        // high-code users repay, plus ADR contrast.
        let n = 400;
        let incomes: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 10.0 } else { 60.0 })
            .collect();
        let visible = visible_matrix(&incomes);
        let signals: Vec<f64> = visible
            .col(VISIBLE_INCOME_K)
            .iter()
            .map(|&v| 3.5 * v)
            .collect();
        let actions: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let per_user: Vec<f64> = actions.iter().map(|&y| 1.0 - y).collect();
        let feedback = Feedback {
            step: 0,
            per_user,
            aggregate: 0.5,
            visible: visible.clone(),
            signals,
            actions,
        };
        lender.retrain(0, &feedback);
        assert_eq!(lender.refits(), 1);
        assert_eq!(lender.training_size(), n);
        let model = lender.model().unwrap();
        // Income code raises the score (positive coefficient).
        assert!(
            model.coefficients[1] > 0.0,
            "income coef = {}",
            model.coefficients[1]
        );
        // Decisions at k >= warmup use the scorecard: a defaulted low-income
        // user is denied, a clean high-income user approved.
        let signals = signals_of(&mut lender, 2, &visible);
        assert_eq!(signals[0], 0.0, "defaulted low-income user still approved");
        assert!(signals[1] > 0.0, "clean high-income user denied");
        // The scorecard table renders.
        let card = lender.scorecard().unwrap();
        assert!(card.to_table().contains("History"));
    }

    #[test]
    fn scorecard_lender_skips_malformed_rows_and_still_refits() {
        let mut lender = ScorecardLender::paper_default();
        let visible = visible_matrix(&[10.0, 60.0, 10.0, 60.0]);
        let feedback = |per_user: Vec<f64>, actions: Vec<f64>| Feedback {
            step: 0,
            per_user,
            aggregate: 0.0,
            visible: visible.clone(),
            signals: vec![35.0, 210.0, 35.0, 210.0],
            actions,
        };
        // User 0's filter output is NaN, so its next row has a NaN history.
        lender.retrain(
            0,
            &feedback(vec![f64::NAN, 0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]),
        );
        assert_eq!(lender.training_size(), 4);
        // User 1's outcome of 0.5 is not a label either.
        lender.retrain(
            1,
            &feedback(vec![0.0, 0.0, 1.0, 0.0], vec![1.0, 0.5, 0.0, 1.0]),
        );
        assert_eq!(lender.training_size(), 6);
        assert_eq!(lender.refits(), 2);
        assert!(lender.model().is_some());
    }

    #[test]
    fn a_nan_history_keeps_the_sized_offer() {
        // A restored history of NaN scores NaN, which is not below the
        // cut-off: the user keeps the sized offer.
        let mut checkpoint = ModelCheckpoint::new();
        checkpoint.push_field("prev_adr", &[f64::NAN, 1.0]);
        checkpoint.push_scalar("model.intercept", 0.0);
        checkpoint.push_field("model.coefficients", &[-8.0, 5.0]);
        let mut lender = ScorecardLender::paper_default();
        assert!(lender.restore_checkpoint(&checkpoint));
        let visible = visible_matrix(&[10.0, 10.0]);
        assert_eq!(signals_of(&mut lender, 2, &visible), vec![35.0, 0.0]);
    }

    #[test]
    fn uniform_lender_excludes_after_default() {
        let mut lender = UniformExclusionLender::paper_default();
        let visible = visible_matrix(&[12.0, 80.0]);
        let s0 = signals_of(&mut lender, 0, &visible);
        assert_eq!(s0, vec![50.0, 50.0]);
        // User 0 defaults.
        let feedback = Feedback {
            step: 0,
            per_user: vec![1.0, 0.0],
            aggregate: 0.5,
            visible: visible.clone(),
            signals: s0,
            actions: vec![0.0, 1.0],
        };
        lender.retrain(0, &feedback);
        let s1 = signals_of(&mut lender, 1, &visible);
        assert_eq!(s1, vec![0.0, 50.0]);
        // Exclusion is permanent: another clean round changes nothing.
        let feedback2 = Feedback {
            step: 1,
            per_user: vec![1.0, 0.0],
            aggregate: 0.0,
            visible: visible.clone(),
            signals: s1.clone(),
            actions: vec![0.0, 1.0],
        };
        lender.retrain(1, &feedback2);
        assert_eq!(signals_of(&mut lender, 2, &visible), vec![0.0, 50.0]);
    }

    #[test]
    fn income_multiple_lender_always_approves() {
        let mut lender = IncomeMultipleLender::new(3.0);
        let visible = visible_matrix(&[10.0, 100.0]);
        assert_eq!(signals_of(&mut lender, 0, &visible), vec![30.0, 300.0]);
        // Retrain is a no-op.
        let feedback = Feedback {
            step: 0,
            per_user: vec![0.0, 0.0],
            aggregate: 0.0,
            visible: visible.clone(),
            signals: vec![30.0, 300.0],
            actions: vec![1.0, 1.0],
        };
        lender.retrain(0, &feedback);
        assert_eq!(signals_of(&mut lender, 5, &visible), vec![30.0, 300.0]);
    }
}
