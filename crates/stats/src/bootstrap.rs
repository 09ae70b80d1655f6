//! Nonparametric bootstrap confidence intervals.
//!
//! The paper reports mean ± one standard deviation across five trials;
//! bootstrap percentile intervals give a distribution-free alternative for
//! the same summaries (and for per-user ADR limits, where normality is a
//! poor assumption near the 0 boundary).

use crate::rng::SimRng;

/// A two-sided percentile confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower percentile bound.
    pub lo: f64,
    /// The point estimate (the statistic on the original sample).
    pub estimate: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Nominal coverage level in `(0, 1)`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains a value.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic.
/// The resampled statistics are ordered by [`f64::total_cmp`], so a NaN
/// in the data gives NaN statistics that sort instead of panicking.
///
/// # Panics
/// Panics for empty samples, `resamples == 0`, or `level` outside (0, 1).
pub fn bootstrap_ci(
    sample: &[f64],
    statistic: impl Fn(&[f64]) -> f64,
    resamples: usize,
    level: f64,
    rng: &mut SimRng,
) -> ConfidenceInterval {
    assert!(!sample.is_empty(), "bootstrap: empty sample");
    assert!(resamples > 0, "bootstrap: zero resamples");
    assert!(
        (0.0..1.0).contains(&level) && level > 0.0,
        "bootstrap: bad level"
    );

    let estimate = statistic(sample);
    let n = sample.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut scratch = vec![0.0; n];
    for _ in 0..resamples {
        for slot in scratch.iter_mut() {
            *slot = sample[rng.index(n)];
        }
        stats.push(statistic(&scratch));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((alpha * resamples as f64) as usize).min(resamples - 1);
    let hi_idx = (((1.0 - alpha) * resamples as f64) as usize).min(resamples - 1);
    ConfidenceInterval {
        lo: stats[lo_idx],
        estimate,
        hi: stats[hi_idx],
        level,
    }
}

/// Percentile-bootstrap confidence interval for a statistic over
/// **stratified** samples: each resample draws with replacement *within*
/// every stratum, preserving the strata sizes, and the statistic sees
/// the full set of resampled strata. This is the right resampling scheme
/// for group-gap statistics (e.g. max-minus-min of per-group means),
/// where pooled resampling would let group sizes drift.
///
/// Empty strata are passed through empty — the statistic must handle
/// them (e.g. by skipping the group).
///
/// # Panics
/// Panics when `strata` is empty or every stratum is empty, for
/// `resamples == 0`, or `level` outside (0, 1).
pub fn bootstrap_stratified_ci(
    strata: &[&[f64]],
    statistic: impl Fn(&[Vec<f64>]) -> f64,
    resamples: usize,
    level: f64,
    rng: &mut SimRng,
) -> ConfidenceInterval {
    assert!(!strata.is_empty(), "bootstrap: empty sample");
    assert!(
        strata.iter().any(|s| !s.is_empty()),
        "bootstrap: empty sample"
    );
    assert!(resamples > 0, "bootstrap: zero resamples");
    assert!(
        (0.0..1.0).contains(&level) && level > 0.0,
        "bootstrap: bad level"
    );

    let original: Vec<Vec<f64>> = strata.iter().map(|s| s.to_vec()).collect();
    let estimate = statistic(&original);
    let mut scratch: Vec<Vec<f64>> = strata.iter().map(|s| vec![0.0; s.len()]).collect();
    let mut stats = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        for (stratum, resampled) in strata.iter().zip(scratch.iter_mut()) {
            for slot in resampled.iter_mut() {
                *slot = stratum[rng.index(stratum.len())];
            }
        }
        stats.push(statistic(&scratch));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((alpha * resamples as f64) as usize).min(resamples - 1);
    let hi_idx = (((1.0 - alpha) * resamples as f64) as usize).min(resamples - 1);
    ConfidenceInterval {
        lo: stats[lo_idx],
        estimate,
        hi: stats[hi_idx],
        level,
    }
}

/// Bootstrap CI for the mean — the workhorse call.
pub fn bootstrap_mean_ci(
    sample: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut SimRng,
) -> ConfidenceInterval {
    bootstrap_ci(
        sample,
        |s| s.iter().sum::<f64>() / s.len() as f64,
        resamples,
        level,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_covers_true_mean() {
        let mut rng = SimRng::new(1);
        // Sample from U[0,1]: true mean 0.5.
        let sample: Vec<f64> = (0..2_000).map(|_| rng.uniform()).collect();
        let ci = bootstrap_mean_ci(&sample, 2_000, 0.95, &mut rng);
        assert!(ci.contains(0.5), "{ci:?}");
        assert!(ci.lo < ci.estimate && ci.estimate < ci.hi);
        assert!(ci.width() < 0.06);
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let mut rng = SimRng::new(2);
        let small: Vec<f64> = (0..50).map(|_| rng.uniform()).collect();
        let large: Vec<f64> = (0..5_000).map(|_| rng.uniform()).collect();
        let ci_small = bootstrap_mean_ci(&small, 1_000, 0.9, &mut rng);
        let ci_large = bootstrap_mean_ci(&large, 1_000, 0.9, &mut rng);
        assert!(ci_large.width() < ci_small.width());
    }

    #[test]
    fn custom_statistic_median() {
        let sample = [1.0, 2.0, 3.0, 4.0, 100.0];
        let mut rng = SimRng::new(3);
        let ci = bootstrap_ci(&sample, crate::describe::median, 1_000, 0.9, &mut rng);
        // The median is robust to the outlier: estimate is 3.
        assert_eq!(ci.estimate, 3.0);
        assert!(ci.hi <= 100.0);
    }

    #[test]
    fn coverage_calibration_rough() {
        // Across many draws, the 90% interval should cover the true mean
        // roughly 90% of the time (loose tolerance for speed).
        let mut rng = SimRng::new(4);
        let mut covered = 0;
        let runs = 60;
        for _ in 0..runs {
            let sample: Vec<f64> = (0..60).map(|_| rng.uniform()).collect();
            let ci = bootstrap_mean_ci(&sample, 300, 0.9, &mut rng);
            if ci.contains(0.5) {
                covered += 1;
            }
        }
        assert!(covered >= 45, "coverage {covered}/{runs}");
    }

    fn group_gap(groups: &[Vec<f64>]) -> f64 {
        let means: Vec<f64> = groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| g.iter().sum::<f64>() / g.len() as f64)
            .collect();
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        max - min
    }

    #[test]
    fn stratified_ci_preserves_strata_and_covers_gap() {
        let mut rng = SimRng::new(5);
        let a: Vec<f64> = (0..400).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = (0..400).map(|_| 0.2 + rng.uniform()).collect();
        let ci = bootstrap_stratified_ci(&[&a, &b], group_gap, 500, 0.95, &mut rng);
        assert!(ci.contains(0.2), "{ci:?}");
        assert!(ci.lo < ci.hi);
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn stratified_ci_tolerates_empty_strata() {
        let mut rng = SimRng::new(6);
        let a = [1.0, 1.5, 0.5];
        let ci = bootstrap_stratified_ci(&[&a, &[]], group_gap, 100, 0.9, &mut rng);
        // One non-empty group: the gap statistic is identically zero.
        assert_eq!(ci.estimate, 0.0);
        assert_eq!(ci.lo, 0.0);
        assert_eq!(ci.hi, 0.0);
    }

    #[test]
    fn stratified_ci_is_deterministic_for_a_seed() {
        let a = [0.1, 0.9, 0.4, 0.6];
        let b = [0.2, 0.8];
        let run = || {
            let mut rng = SimRng::new(7);
            bootstrap_stratified_ci(&[&a, &b], group_gap, 200, 0.9, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_nan_in_the_sample_orders_instead_of_panicking() {
        let sample = [0.1, f64::NAN, 0.4, 0.6];
        let ci = bootstrap_mean_ci(&sample, 100, 0.9, &mut SimRng::new(5));
        assert!(ci.estimate.is_nan());
        let total = |groups: &[Vec<f64>]| groups.iter().flatten().sum::<f64>();
        let ci = bootstrap_stratified_ci(&[&sample, &[0.2]], total, 100, 0.9, &mut SimRng::new(6));
        assert!(ci.estimate.is_nan());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn stratified_rejects_all_empty() {
        let mut rng = SimRng::new(0);
        bootstrap_stratified_ci(&[&[], &[]], group_gap, 10, 0.9, &mut rng);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn rejects_empty() {
        let mut rng = SimRng::new(0);
        bootstrap_mean_ci(&[], 10, 0.9, &mut rng);
    }

    #[test]
    #[should_panic(expected = "bad level")]
    fn rejects_bad_level() {
        let mut rng = SimRng::new(0);
        bootstrap_mean_ci(&[1.0], 10, 1.0, &mut rng);
    }
}
