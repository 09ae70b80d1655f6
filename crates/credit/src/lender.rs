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
use eqimpact_ml::grouped::GroupedTable;
use eqimpact_ml::logistic::{LogisticModel, LogisticRegression};
use eqimpact_ml::scorecard::Scorecard;

/// Index of the income code in the visible feature rows.
pub const VISIBLE_INCOME_CODE: usize = 0;

/// Index of the raw income ($K) in the visible feature rows.
pub const VISIBLE_INCOME_K: usize = 1;

/// The paper's retrained scorecard lender.
pub struct ScorecardLender {
    /// Steps (years) during which everyone is approved before the first
    /// scorecard exists (the paper uses 2).
    warmup_steps: usize,
    /// Scorecard decision cut-off (the paper's 0.4).
    cutoff: f64,
    /// Loan sizing multiple (the paper's 3.5).
    multiple: f64,
    fitter: LogisticRegression,
    /// `ADR_i(k−1)` as known to the lender (from the last feedback).
    prev_adr: Vec<f64>,
    /// Accumulated training observations `(adr_prev, income_code) →
    /// y_i(j)` (offered users only), pooled by feature vector.
    training: GroupedTable,
    /// The current model, if fitted.
    model: Option<LogisticModel>,
    /// Refits performed.
    refits: usize,
}

impl ScorecardLender {
    /// Creates the lender with the paper's parameters.
    pub fn paper_default() -> Self {
        ScorecardLender::new(2, model::CUTOFF, model::INCOME_MULTIPLE)
    }

    /// Creates a lender with explicit warmup, cut-off and sizing multiple.
    pub fn new(warmup_steps: usize, cutoff: f64, multiple: f64) -> Self {
        ScorecardLender {
            warmup_steps,
            cutoff,
            multiple,
            fitter: LogisticRegression::default(),
            prev_adr: Vec::new(),
            training: GroupedTable::new(),
            model: None,
            refits: 0,
        }
    }

    /// The current model, if any retraining has happened.
    pub fn model(&self) -> Option<&LogisticModel> {
        self.model.as_ref()
    }

    /// The current scorecard (factor order: History = ADR, Income = code).
    pub fn scorecard(&self) -> Option<Scorecard> {
        self.model
            .as_ref()
            .map(|m| Scorecard::from_model(m, &["History", "Income"], self.cutoff))
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

impl AiSystem for ScorecardLender {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        // A reused lender facing a differently sized population would
        // otherwise read another population's ADRs until the first
        // retrain resizes the state.
        if self.prev_adr.len() != visible.row_count() {
            self.prev_adr = vec![0.0; visible.row_count()];
        }
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, feedback: &Feedback) {
        // Training rows pair the lender's *previous* knowledge of ADR with
        // this step's income code and repayment outcome, offered users only.
        if self.prev_adr.len() != feedback.actions.len() {
            self.prev_adr = vec![0.0; feedback.actions.len()];
        }
        let code = feedback.visible.col(VISIBLE_INCOME_CODE);
        for (i, &action) in feedback.actions.iter().enumerate() {
            if feedback.signals[i] > 0.0 {
                // The table rejects a malformed row (non-finite history,
                // non-binary outcome); the refit runs on the rest.
                let _ = self.training.push(&[self.prev_adr[i], code[i]], action);
            }
        }
        // The filter's per-user output is ADR_i up to the feedback step —
        // which is exactly ADR_i(k−1) at the next decision.
        self.prev_adr.clone_from(&feedback.per_user);

        // Fitting an empty table is an error, so nothing is refitted
        // before the first offer.
        if let Ok(model) = self.training.fit(&self.fitter) {
            self.model = Some(model);
            self.refits += 1;
        }
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        out.push_field("prev_adr", &self.prev_adr);
        if let Some(model) = &self.model {
            out.push_scalar("model.intercept", model.intercept);
            out.push_field("model.coefficients", &model.coefficients);
            out.push_scalar("model.iterations", model.iterations as f64);
            out.push_scalar("model.converged", if model.converged { 1.0 } else { 0.0 });
        }
        true
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let Some(prev_adr) = checkpoint.field("prev_adr") else {
            return false;
        };
        self.prev_adr.clear();
        self.prev_adr.extend_from_slice(prev_adr);
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

impl ShardableAi for ScorecardLender {
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        // Sized offers for everyone first; the scorecard then zeroes the
        // denials in place.
        for (o, &income) in out.iter_mut().zip(visible.col(VISIBLE_INCOME_K)) {
            *o = self.multiple * income;
        }
        if k < self.warmup_steps {
            return;
        }
        let Some(m) = &self.model else {
            return; // no scorecard yet: keep approving
        };
        // Users beyond the last feedback carry a clean history (ADR 0),
        // matching the retrain sizing.
        let prev: Vec<f64> = visible
            .rows()
            .map(|i| self.prev_adr.get(i).copied().unwrap_or(0.0))
            .collect();
        let mut scores = vec![0.0; out.len()];
        m.linear_scores_into(&[&prev, visible.col(VISIBLE_INCOME_CODE)], &mut scores);
        for (o, &s) in out.iter_mut().zip(&scores) {
            if s < self.cutoff {
                *o = 0.0;
            }
        }
    }
}

/// The introduction's uniform policy: a flat loan to anyone who has never
/// defaulted, permanent denial afterwards. Maximal equal treatment,
/// failing equal impact.
pub struct UniformExclusionLender {
    /// The flat loan amount ($K), the introduction's $50K.
    pub amount_k: f64,
    /// Lender-side memory of who has ever defaulted.
    defaulted: Vec<bool>,
}

impl UniformExclusionLender {
    /// Creates the lender with the introduction's $50K amount.
    pub fn paper_default() -> Self {
        UniformExclusionLender::new(50.0)
    }

    /// Creates the lender with an explicit amount.
    pub fn new(amount_k: f64) -> Self {
        UniformExclusionLender {
            amount_k,
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
            *o = if defaulted { 0.0 } else { self.amount_k };
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
        // The pooled fit is the row fit over the same 400 rows, whose
        // history is the fresh lender's ADR of 0.
        let rows: Vec<Vec<f64>> = visible
            .col(VISIBLE_INCOME_CODE)
            .iter()
            .map(|&code| vec![0.0, code])
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
