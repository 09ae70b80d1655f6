//! Average default rates (eq. (12)): the closed loop's feedback filter.
//!
//! A *default* is a mortgage offered but not repaid
//! (`y_i(k) = 0 | π(k, i) = 1`); the average default rate of user `i` at
//! time `k` is the fraction of defaults among all offers made to `i` up to
//! `k`. Users never offered anything carry a clean history (`ADR = 0`),
//! matching the initialization of the paper (everyone approved in
//! 2002-2003 before any scorecard exists).
//!
//! [`AdrFilter`] counts each user's offers and defaults, rates them and
//! sums the step's aggregate in one pass over the users.

use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{Feedback, FeedbackFilter};
use eqimpact_core::features::FeatureMatrix;

/// The loop's feedback filter: per-user running offer and default counts,
/// emitting `per_user = ADR_i(k)` — the "filter calculates the average
/// default rates of each user, using historical repayment actions" of
/// Sec. VII — and, as the aggregate, the default rate among step `k`'s
/// offers (0 when no one was offered a loan).
#[derive(Debug, Clone, Default)]
pub struct AdrFilter {
    offers: Vec<u64>,
    defaults: Vec<u64>,
}

impl AdrFilter {
    /// Creates an empty filter (sized on first use, and reset to zero
    /// counts whenever the user count changes).
    pub fn new() -> Self {
        AdrFilter::default()
    }
}

impl FeedbackFilter for AdrFilter {
    /// `signals[i] > 0` is an offer to user `i`; an offer with
    /// `actions[i] == 0` is a default.
    fn apply_into(
        &mut self,
        _k: usize,
        _visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        let n = actions.len();
        if self.offers.len() != n || self.defaults.len() != n {
            self.offers = vec![0; n];
            self.defaults = vec![0; n];
        }
        out.per_user.clear();
        out.per_user.reserve(n);
        let mut offered = 0u64;
        // `1 − y` summed over the offered users in user order. It is read
        // only when someone was offered, so its first term is added to the
        // starting zero, and +0.0 gives the bits `Iterator::sum`'s −0.0
        // would.
        let mut unpaid = 0.0;
        for i in 0..n {
            if signals[i] > 0.0 {
                offered += 1;
                unpaid += 1.0 - actions[i];
                self.offers[i] += 1;
                if actions[i] == 0.0 {
                    self.defaults[i] += 1;
                }
            }
            out.per_user.push(if self.offers[i] == 0 {
                0.0
            } else {
                self.defaults[i] as f64 / self.offers[i] as f64
            });
        }
        out.aggregate = if offered == 0 {
            0.0
        } else {
            unpaid / offered as f64
        };
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        out.field_mut("filter.offers")
            .extend(self.offers.iter().map(|&c| c as f64));
        out.field_mut("filter.defaults")
            .extend(self.defaults.iter().map(|&c| c as f64));
        true
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let (Some(offers), Some(defaults)) = (
            checkpoint.field("filter.offers"),
            checkpoint.field("filter.defaults"),
        ) else {
            return false;
        };
        // Counts are exact in f64 (bounded by steps, far below 2^53).
        self.offers = offers.iter().map(|&c| c as u64).collect();
        self.defaults = defaults.iter().map(|&c| c as u64).collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(f: &mut AdrFilter, loans: &[f64], repaid: &[f64]) -> Feedback {
        let mut out = Feedback::default();
        f.apply_into(0, &FeatureMatrix::default(), loans, repaid, &mut out);
        out
    }

    /// The filter's (offers, defaults) counts, read through its checkpoint.
    fn counts(f: &AdrFilter) -> (Vec<f64>, Vec<f64>) {
        let mut checkpoint = ModelCheckpoint::new();
        assert!(f.checkpoint_into(&mut checkpoint));
        let field = |name| checkpoint.field(name).expect("written").to_vec();
        (field("filter.offers"), field("filter.defaults"))
    }

    #[test]
    fn tracker_counts_offers_and_defaults() {
        let mut f = AdrFilter::new();
        // User 0 offered & repaid, user 1 offered & defaulted, user 2 not
        // offered: a clean history, not a default.
        let fb = apply(&mut f, &[100.0, 50.0, 0.0], &[1.0, 0.0, 0.0]);
        assert_eq!(fb.per_user, vec![0.0, 1.0, 0.0]);
        assert_eq!(counts(&f), (vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0]));

        let fb = apply(&mut f, &[100.0, 50.0, 10.0], &[0.0, 1.0, 1.0]);
        assert_eq!(fb.per_user, vec![0.5, 0.5, 0.0]);
        assert_eq!(counts(&f), (vec![2.0, 2.0, 1.0], vec![1.0, 1.0, 0.0]));
    }

    #[test]
    fn filter_emits_adr_per_user() {
        let mut f = AdrFilter::new();
        let fb = apply(&mut f, &[100.0, 100.0], &[1.0, 0.0]);
        assert_eq!(fb.per_user, vec![0.0, 1.0]);
        assert_eq!(fb.aggregate, 0.5);

        // Second step: user 1 denied; their ADR freezes at 1.0.
        let fb2 = apply(&mut f, &[100.0, 0.0], &[1.0, 0.0]);
        assert_eq!(fb2.per_user, vec![0.0, 1.0]);
        assert_eq!(fb2.aggregate, 0.0);
    }

    #[test]
    fn ragged_checkpoint_restarts_from_zero_counts() {
        // Defaults shorter than offers (a crafted trace's checkpoint can
        // carry them) count as a user-count change: the round starts from
        // zero counts instead of indexing past the end.
        let mut checkpoint = ModelCheckpoint::new();
        checkpoint.push_field("filter.offers", &[1.0, 1.0]);
        checkpoint.push_field("filter.defaults", &[1.0]);
        let mut f = AdrFilter::new();
        assert!(f.restore_checkpoint(&checkpoint));
        let fb = apply(&mut f, &[1.0, 1.0], &[0.0, 0.0]);
        assert_eq!(fb.per_user, vec![1.0, 1.0]);
        assert_eq!(counts(&f), (vec![1.0, 1.0], vec![1.0, 1.0]));
    }

    #[test]
    fn filter_aggregate_with_no_offers() {
        let mut f = AdrFilter::new();
        let fb = apply(&mut f, &[0.0], &[0.0]);
        assert_eq!(fb.aggregate, 0.0);
        assert_eq!(fb.per_user, vec![0.0]);
    }
}
