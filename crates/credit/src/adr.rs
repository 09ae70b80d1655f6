//! Average default rates (eq. (12)): per-user and per-race, both as a
//! standalone tracker and as the closed loop's feedback filter.
//!
//! A *default* is a mortgage offered but not repaid
//! (`y_i(k) = 0 | π(k, i) = 1`); the average default rate of user `i` at
//! time `k` is the fraction of defaults among all offers made to `i` up to
//! `k`. Users never offered anything carry a clean history (`ADR = 0`),
//! matching the initialization of the paper (everyone approved in
//! 2002-2003 before any scorecard exists).

use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{Feedback, FeedbackFilter};
use eqimpact_core::features::FeatureMatrix;

/// Per-user running default statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct AdrTracker {
    offers: Vec<u64>,
    defaults: Vec<u64>,
}

impl AdrTracker {
    /// Creates a tracker for `n` users.
    pub fn new(n: usize) -> Self {
        AdrTracker {
            offers: vec![0; n],
            defaults: vec![0; n],
        }
    }

    /// Number of users tracked.
    pub fn user_count(&self) -> usize {
        self.offers.len()
    }

    /// Records one step: `loans[i] > 0` means an offer; an offer with
    /// `repaid[i] == 0` is a default.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn record(&mut self, loans: &[f64], repaid: &[f64]) {
        assert_eq!(loans.len(), self.offers.len(), "loans length");
        assert_eq!(repaid.len(), self.offers.len(), "repaid length");
        for i in 0..loans.len() {
            if loans[i] > 0.0 {
                self.offers[i] += 1;
                if repaid[i] == 0.0 {
                    self.defaults[i] += 1;
                }
            }
        }
    }

    /// `ADR_i(k)`: defaults over offers for user `i`; 0 for users never
    /// offered credit (clean history).
    pub fn adr(&self, i: usize) -> f64 {
        if self.offers[i] == 0 {
            0.0
        } else {
            self.defaults[i] as f64 / self.offers[i] as f64
        }
    }

    /// Writes the full per-user ADR vector into `out` (cleared first).
    pub fn adr_all_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.offers.len()).map(|i| self.adr(i)));
    }

    /// Total offers made to user `i`.
    pub fn offers(&self, i: usize) -> u64 {
        self.offers[i]
    }

    /// Total defaults of user `i`.
    pub fn defaults(&self, i: usize) -> u64 {
        self.defaults[i]
    }
}

/// The loop's feedback filter: maintains the [`AdrTracker`] and emits
/// `per_user = ADR_i(k)` — the "filter calculates the average default
/// rates of each user, using historical repayment actions" of Sec. VII.
#[derive(Debug, Clone, Default)]
pub struct AdrFilter {
    tracker: Option<AdrTracker>,
}

impl AdrFilter {
    /// Creates an empty filter (sized on first use).
    pub fn new() -> Self {
        AdrFilter::default()
    }

    /// The tracker, if any step has been filtered.
    pub fn tracker(&self) -> Option<&AdrTracker> {
        self.tracker.as_ref()
    }
}

impl FeedbackFilter for AdrFilter {
    fn apply_into(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        let tracker = self
            .tracker
            .get_or_insert_with(|| AdrTracker::new(actions.len()));
        tracker.record(signals, actions);
        let offered = signals.iter().filter(|&&l| l > 0.0).count();
        out.step = k;
        tracker.adr_all_into(&mut out.per_user);
        out.aggregate = if offered == 0 {
            0.0
        } else {
            signals
                .iter()
                .zip(actions)
                .filter(|(&l, _)| l > 0.0)
                .map(|(_, &y)| 1.0 - y)
                .sum::<f64>()
                / offered as f64
        };
        out.visible.fill_from(visible);
        out.signals.clear();
        out.signals.extend_from_slice(signals);
        out.actions.clear();
        out.actions.extend_from_slice(actions);
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        let Some(tracker) = &self.tracker else {
            return false;
        };
        out.field_mut("filter.offers")
            .extend(tracker.offers.iter().map(|&c| c as f64));
        out.field_mut("filter.defaults")
            .extend(tracker.defaults.iter().map(|&c| c as f64));
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
        self.tracker = Some(AdrTracker {
            offers: offers.iter().map(|&c| c as u64).collect(),
            defaults: defaults.iter().map(|&c| c as u64).collect(),
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(
        f: &mut impl FeedbackFilter,
        k: usize,
        v: &FeatureMatrix,
        s: &[f64],
        a: &[f64],
    ) -> Feedback {
        let mut out = Feedback::default();
        f.apply_into(k, v, s, a, &mut out);
        out
    }

    #[test]
    fn tracker_counts_offers_and_defaults() {
        let mut t = AdrTracker::new(3);
        assert_eq!(t.user_count(), 3);
        // User 0 offered & repaid, user 1 offered & defaulted, user 2 not offered.
        t.record(&[100.0, 50.0, 0.0], &[1.0, 0.0, 0.0]);
        assert_eq!(t.adr(0), 0.0);
        assert_eq!(t.adr(1), 1.0);
        assert_eq!(t.adr(2), 0.0); // clean history, not a default
        assert_eq!(t.offers(2), 0);

        t.record(&[100.0, 50.0, 10.0], &[0.0, 1.0, 1.0]);
        assert_eq!(t.adr(0), 0.5);
        assert_eq!(t.adr(1), 0.5);
        assert_eq!(t.adr(2), 0.0);
        assert_eq!(t.defaults(0), 1);
    }

    #[test]
    fn filter_emits_adr_per_user() {
        let mut f = AdrFilter::new();
        assert!(f.tracker().is_none());
        let visible = FeatureMatrix::from_nested(&[vec![1.0], vec![0.0]]);
        let fb = apply(&mut f, 0, &visible, &[100.0, 100.0], &[1.0, 0.0]);
        assert_eq!(fb.per_user, vec![0.0, 1.0]);
        assert_eq!(fb.aggregate, 0.5);
        assert_eq!(fb.step, 0);
        assert_eq!(fb.visible, visible);

        // Second step: user 1 denied; their ADR freezes at 1.0.
        let fb2 = apply(&mut f, 1, &visible, &[100.0, 0.0], &[1.0, 0.0]);
        assert_eq!(fb2.per_user, vec![0.0, 1.0]);
        assert_eq!(fb2.aggregate, 0.0);
        assert!(f.tracker().is_some());
    }

    #[test]
    fn filter_aggregate_with_no_offers() {
        let mut f = AdrFilter::new();
        let fb = apply(&mut f, 0, &FeatureMatrix::zeros(1, 0), &[0.0], &[0.0]);
        assert_eq!(fb.aggregate, 0.0);
        assert_eq!(fb.per_user, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "loans length")]
    fn tracker_rejects_mismatch() {
        let mut t = AdrTracker::new(2);
        t.record(&[1.0], &[1.0, 0.0]);
    }
}
