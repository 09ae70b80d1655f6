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

/// Percentile-bootstrap confidence interval for the mean of `sample`.
///
/// Each resample draws `sample.len()` indices and adds the values they
/// pick as it draws them, so a draw costs one RNG step and one add. The
/// resampled means are ordered by [`f64::total_cmp`], so a NaN in the
/// data gives NaN means that sort instead of panicking.
///
/// # Panics
/// Panics for an empty sample, `resamples == 0`, or `level` outside
/// (0, 1).
pub fn bootstrap_mean_ci(
    sample: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut SimRng,
) -> ConfidenceInterval {
    assert!(!sample.is_empty(), "bootstrap: empty sample");
    check_resampling(resamples, level);
    let n = sample.len() as f64;
    let estimate = sample.iter().sum::<f64>() / n;
    let means = (0..resamples)
        .map(|_| resampled_sum(sample, rng) / n)
        .collect();
    percentile_interval(means, estimate, level)
}

/// Percentile-bootstrap confidence interval for the gap between group
/// means: the maximum minus the minimum of the stratum means, over the
/// non-empty strata.
///
/// The resampling is **stratified**: each resample draws with
/// replacement *within* every stratum, stratum by stratum and slot by
/// slot, so the strata keep their sizes. Pooled resampling would let
/// group sizes drift. Each draw's value is added as it is drawn.
///
/// The maximum and minimum are taken with [`f64::max`] and [`f64::min`],
/// which pass over a NaN mean.
///
/// # Panics
/// Panics when every stratum is empty (or there is none), for
/// `resamples == 0`, or `level` outside (0, 1).
pub fn bootstrap_gap_ci(
    strata: &[&[f64]],
    resamples: usize,
    level: f64,
    rng: &mut SimRng,
) -> ConfidenceInterval {
    assert!(
        strata.iter().any(|s| !s.is_empty()),
        "bootstrap: empty sample"
    );
    check_resampling(resamples, level);
    let live = || strata.iter().filter(|s| !s.is_empty());
    let estimate = gap(live().map(|s| s.iter().sum::<f64>() / s.len() as f64));
    let gaps = (0..resamples)
        .map(|_| gap(live().map(|s| resampled_sum(s, rng) / s.len() as f64)))
        .collect();
    percentile_interval(gaps, estimate, level)
}

fn check_resampling(resamples: usize, level: f64) {
    assert!(resamples > 0, "bootstrap: zero resamples");
    assert!(
        (0.0..1.0).contains(&level) && level > 0.0,
        "bootstrap: bad level"
    );
}

/// The sum of `values.len()` values drawn from `values` with
/// replacement, in draw order. It starts at `-0.0`, as
/// [`Iterator::sum`] does, so a resample of `-0.0`s sums to `-0.0`.
#[inline]
fn resampled_sum(values: &[f64], rng: &mut SimRng) -> f64 {
    let n = values.len();
    let mut sum = -0.0;
    for _ in 0..n {
        sum += values[rng.index(n)];
    }
    sum
}

/// The maximum minus the minimum of `means`.
fn gap(means: impl Iterator<Item = f64>) -> f64 {
    let mut hi = f64::NEG_INFINITY;
    let mut lo = f64::INFINITY;
    for mean in means {
        hi = hi.max(mean);
        lo = lo.min(mean);
    }
    hi - lo
}

/// The percentile interval at `level` of the resampled `stats`.
fn percentile_interval(mut stats: Vec<f64>, estimate: f64, level: f64) -> ConfidenceInterval {
    let resamples = stats.len();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The closure-generic bootstrap the sweep used before
    /// [`bootstrap_mean_ci`] drew and added in one pass: the oracle of
    /// its bits.
    fn bootstrap_ci(
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

    /// The stratified, closure-generic bootstrap the sweep used before
    /// [`bootstrap_gap_ci`]: each resample gathered into scratch strata,
    /// then the statistic. The oracle of its bits.
    fn bootstrap_stratified_ci(
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

    /// The sweep's mean statistic as it was handed to the oracle.
    fn mean_statistic(s: &[f64]) -> f64 {
        s.iter().sum::<f64>() / s.len() as f64
    }

    /// The sweep's gap statistic as it was handed to the oracle.
    fn gap_statistic(resampled: &[Vec<f64>]) -> f64 {
        let mut hi = f64::NEG_INFINITY;
        let mut lo = f64::INFINITY;
        for stratum in resampled.iter().filter(|s| !s.is_empty()) {
            let mean = stratum.iter().sum::<f64>() / stratum.len() as f64;
            hi = hi.max(mean);
            lo = lo.min(mean);
        }
        hi - lo
    }

    fn assert_same_bits(what: &str, new: ConfidenceInterval, old: ConfidenceInterval) {
        for (part, a, b) in [
            ("lo", new.lo, old.lo),
            ("estimate", new.estimate, old.estimate),
            ("hi", new.hi, old.hi),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {part} {a} vs {b}");
        }
        assert_eq!(new.level, old.level, "{what}: level");
    }

    /// Both functions against their oracles, from the same seed, at
    /// `resamples` and `level`; also checks that both leave the stream
    /// at the same place.
    fn assert_matches_oracles(what: &str, strata: &[&[f64]], resamples: usize, level: f64) {
        let mut new = SimRng::new(17);
        let mut old = SimRng::new(17);
        assert_same_bits(
            &format!("{what} (gap)"),
            bootstrap_gap_ci(strata, resamples, level, &mut new),
            bootstrap_stratified_ci(strata, gap_statistic, resamples, level, &mut old),
        );
        assert_eq!(new.next_u64(), old.next_u64(), "{what} (gap): stream");
        for (s, sample) in strata.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            assert_same_bits(
                &format!("{what} (mean of stratum {s})"),
                bootstrap_mean_ci(sample, resamples, level, &mut new),
                bootstrap_ci(sample, mean_statistic, resamples, level, &mut old),
            );
            assert_eq!(new.next_u64(), old.next_u64(), "{what} (mean): stream");
        }
    }

    /// `len` shares `k/19` for `k` cycling through 0..=19: the parity
    /// shares of 19-step traces.
    fn shares(len: usize, offset: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i + offset) % 20) as f64 / 19.0)
            .collect()
    }

    #[test]
    fn one_pass_bootstraps_match_the_closure_oracles_bit_for_bit() {
        let (a, b, c) = (shares(1_000, 0), shares(6_700, 7), shares(300, 13));
        assert_matches_oracles("three strata", &[&a, &b, &c], 200, 0.95);
        assert_matches_oracles("an empty stratum between", &[&a, &[], &c], 200, 0.95);
        assert_matches_oracles("a one-element stratum", &[&c, &[0.3]], 200, 0.95);
        assert_matches_oracles("one element only", &[&[0.3]], 50, 0.9);
        // A mean of -0.0s is -0.0 only if its sum starts at -0.0, as
        // Iterator::sum does.
        let negative_zeros = [-0.0; 7];
        assert_matches_oracles("only -0.0", &[&negative_zeros, &[-0.0]], 50, 0.9);
        let specials = [0.25, f64::NAN, 0.5, f64::INFINITY, -0.0];
        let infinities = [f64::INFINITY, f64::NEG_INFINITY, 1.0];
        assert_matches_oracles("NaN and infinities", &[&specials, &infinities], 200, 0.9);
        assert_matches_oracles("-inf only", &[&[f64::NEG_INFINITY; 3], &c], 20, 0.9);
        assert_matches_oracles("one resample", &[&a, &c], 1, 0.95);
        for level in [1e-12, 0.001, 0.5, 0.999, 1.0 - 1e-12] {
            assert_matches_oracles(&format!("level {level}"), &[&c, &a], 64, level);
        }
    }

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

    #[test]
    fn stratified_ci_preserves_strata_and_covers_gap() {
        let mut rng = SimRng::new(5);
        let a: Vec<f64> = (0..400).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = (0..400).map(|_| 0.2 + rng.uniform()).collect();
        let ci = bootstrap_gap_ci(&[&a, &b], 500, 0.95, &mut rng);
        assert!(ci.contains(0.2), "{ci:?}");
        assert!(ci.lo < ci.hi);
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn stratified_ci_tolerates_empty_strata() {
        let mut rng = SimRng::new(6);
        let a = [1.0, 1.5, 0.5];
        let ci = bootstrap_gap_ci(&[&a, &[]], 100, 0.9, &mut rng);
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
            bootstrap_gap_ci(&[&a, &b], 200, 0.9, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_nan_in_the_sample_orders_instead_of_panicking() {
        let sample = [0.1, f64::NAN, 0.4, 0.6];
        let ci = bootstrap_mean_ci(&sample, 100, 0.9, &mut SimRng::new(5));
        assert!(ci.estimate.is_nan());
        // The gap passes over a NaN mean (f64::max and f64::min do): on
        // the sample the NaN stratum drops out, and one mean is left.
        let ci = bootstrap_gap_ci(&[&sample, &[0.2]], 100, 0.9, &mut SimRng::new(6));
        assert_eq!(ci.estimate, 0.0);
        assert!(ci.lo <= ci.hi, "{ci:?}");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn stratified_rejects_all_empty() {
        let mut rng = SimRng::new(0);
        bootstrap_gap_ci(&[&[], &[]], 10, 0.9, &mut rng);
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
