//! The track-record feedback filter: per-applicant running success rates
//! over placements, the hiring analog of the credit study's ADR filter.
//!
//! A *placement* is a round in which the applicant was hired
//! (`π(k, i) > 0`); its outcome is the binary performance `y_i(k)`. The
//! track record of applicant `i` at round `k` is the fraction of
//! successful placements among all their placements up to `k`; applicants
//! never hired carry a **clean record of 1.0** (presumption of
//! competence), the mirror image of the credit study's clean-history
//! ADR 0.
//!
//! The aggregate channel smooths the per-round cohort success rate with
//! an [`EwmaFilter`] from `eqimpact-control` — Fig. 1's "filter" block
//! instantiated with fading memory instead of full history.

use eqimpact_control::filter::{EwmaFilter, Filter};
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{Feedback, FeedbackFilter};
use eqimpact_core::features::FeatureMatrix;

/// Default EWMA weight of the aggregate success channel.
pub const AGGREGATE_EWMA_ALPHA: f64 = 0.3;

/// The loop's feedback filter: maintains per-applicant placement and
/// success counters and emits `per_user = track_record_i(k)`.
#[derive(Debug, Clone)]
pub struct TrackRecordFilter {
    placements: Vec<u64>,
    successes: Vec<u64>,
    aggregate: EwmaFilter,
}

impl TrackRecordFilter {
    /// Creates an empty filter (sized on first use, and reset to zero
    /// counts whenever the user count changes) with the default aggregate
    /// EWMA weight.
    pub fn new() -> Self {
        TrackRecordFilter {
            placements: Vec::new(),
            successes: Vec::new(),
            aggregate: EwmaFilter::new(AGGREGATE_EWMA_ALPHA),
        }
    }

    /// Track record of applicant `i`: successes over placements, `1.0`
    /// for applicants never hired.
    fn track_record(&self, i: usize) -> f64 {
        if self.placements[i] == 0 {
            1.0
        } else {
            self.successes[i] as f64 / self.placements[i] as f64
        }
    }
}

impl Default for TrackRecordFilter {
    fn default() -> Self {
        TrackRecordFilter::new()
    }
}

impl FeedbackFilter for TrackRecordFilter {
    fn apply_into(
        &mut self,
        _k: usize,
        _visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        if self.placements.len() != actions.len() || self.successes.len() != actions.len() {
            self.placements = vec![0; actions.len()];
            self.successes = vec![0; actions.len()];
        }
        let mut hired = 0u64;
        let mut succeeded = 0u64;
        for i in 0..actions.len() {
            if signals[i] > 0.0 {
                hired += 1;
                self.placements[i] += 1;
                if actions[i] == 1.0 {
                    succeeded += 1;
                    self.successes[i] += 1;
                }
            }
        }
        if hired > 0 {
            self.aggregate.push(succeeded as f64 / hired as f64);
        }
        out.per_user.clear();
        out.per_user
            .extend((0..actions.len()).map(|i| self.track_record(i)));
        // Before any cohort has been hired the EWMA holds NaN; report the
        // clean-record prior instead.
        let smoothed = self.aggregate.value();
        out.aggregate = if smoothed.is_nan() { 1.0 } else { smoothed };
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        out.field_mut("filter.placements")
            .extend(self.placements.iter().map(|&c| c as f64));
        out.field_mut("filter.successes")
            .extend(self.successes.iter().map(|&c| c as f64));
        // The EWMA's Option state travels as a [present, value] pair.
        let state = self.aggregate.state();
        out.push_field(
            "filter.aggregate",
            &[
                if state.is_some() { 1.0 } else { 0.0 },
                state.unwrap_or(0.0),
            ],
        );
        true
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let (Some(placements), Some(successes)) = (
            checkpoint.field("filter.placements"),
            checkpoint.field("filter.successes"),
        ) else {
            return false;
        };
        // Counts are exact in f64 (bounded by rounds, far below 2^53).
        self.placements = placements.iter().map(|&c| c as u64).collect();
        self.successes = successes.iter().map(|&c| c as u64).collect();
        if let Some([present, value]) = checkpoint.field("filter.aggregate") {
            self.aggregate
                .restore_state((*present != 0.0).then_some(*value));
        }
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
    fn never_hired_carry_clean_records() {
        let mut f = TrackRecordFilter::new();
        let visible = FeatureMatrix::zeros(2, 0);
        let fb = apply(&mut f, 0, &visible, &[0.0, 0.0], &[0.0, 0.0]);
        assert_eq!(fb.per_user, vec![1.0, 1.0]);
        assert_eq!(fb.aggregate, 1.0, "no cohort yet: clean prior");
    }

    #[test]
    fn records_track_successes_over_placements() {
        let mut f = TrackRecordFilter::new();
        let visible = FeatureMatrix::zeros(2, 0);
        // Round 0: both hired, only user 0 succeeds.
        let fb = apply(&mut f, 0, &visible, &[1.0, 1.0], &[1.0, 0.0]);
        assert_eq!(fb.per_user, vec![1.0, 0.0]);
        assert_eq!(fb.aggregate, 0.5);
        // Round 1: user 1 not hired; their record freezes.
        let fb = apply(&mut f, 1, &visible, &[1.0, 0.0], &[0.0, 0.0]);
        assert_eq!(fb.per_user, vec![0.5, 0.0]);
        assert_eq!(f.placements, vec![2, 1]);
        // EWMA: 0.3 * 0 + 0.7 * 0.5.
        assert!((fb.aggregate - 0.35).abs() < 1e-12);
    }

    #[test]
    fn ragged_checkpoint_restarts_from_zero_counts() {
        // Successes shorter than placements (a crafted trace's checkpoint
        // can carry them) count as a user-count change: the round starts
        // from zero counts instead of indexing past the end.
        let mut checkpoint = ModelCheckpoint::new();
        checkpoint.push_field("filter.placements", &[1.0, 1.0]);
        checkpoint.push_field("filter.successes", &[1.0]);
        let mut f = TrackRecordFilter::new();
        assert!(f.restore_checkpoint(&checkpoint));
        let visible = FeatureMatrix::zeros(2, 0);
        let fb = apply(&mut f, 0, &visible, &[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(fb.per_user, vec![1.0, 1.0]);
        assert_eq!(f.placements, vec![1, 1]);
    }
}
