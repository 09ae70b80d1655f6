//! Convergence diagnostics for distributions.
//!
//! Unique ergodicity says `(P*)^n ν → µ` weakly for every initial law `ν`.
//! We verify this numerically by comparing empirical laws with the
//! two-sample Kolmogorov-Smirnov statistic and the 1-Wasserstein
//! (earth-mover) distance, and fit the geometric rate of a distance
//! sequence.

/// Two-sample Kolmogorov-Smirnov statistic: the sup-distance between the
/// two empirical CDFs. Ranges in `[0, 1]`; 0 means identical laws.
///
/// # Panics
/// Panics when either sample is empty or contains NaN.
// analyze::allow(R8): tests/integration_theory.rs compares trajectory and particle samples with it
pub fn kolmogorov_smirnov(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "KS: empty sample");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    assert!(
        sa.iter().chain(sb.iter()).all(|x| !x.is_nan()),
        "KS: NaN sample"
    );
    sa.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));

    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// 1-Wasserstein (earth mover) distance between two empirical samples,
/// computed from sorted samples.
///
/// For equal sizes this is `mean |a_(i) - b_(i)|`; for unequal sizes we
/// integrate the absolute difference of empirical quantile functions on a
/// shared grid of `n_a + n_b` quantile levels.
///
/// # Panics
/// Panics when either sample is empty or contains NaN.
pub fn wasserstein1(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "W1: empty sample");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    assert!(
        sa.iter().chain(sb.iter()).all(|x| !x.is_nan()),
        "W1: NaN sample"
    );
    sa.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));

    if sa.len() == sb.len() {
        return sa.iter().zip(&sb).map(|(x, y)| (x - y).abs()).sum::<f64>() / sa.len() as f64;
    }

    // Merge all CDF jump points; integrate |F_a^{-1}(u) - F_b^{-1}(u)| du.
    let n = sa.len() + sb.len();
    let mut total = 0.0;
    let mut prev_u = 0.0;
    // Quantile step function evaluation at the midpoint of each u-segment.
    let levels: Vec<f64> = {
        let mut ls: Vec<f64> = (1..=sa.len())
            .map(|i| i as f64 / sa.len() as f64)
            .chain((1..=sb.len()).map(|j| j as f64 / sb.len() as f64))
            .collect();
        ls.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        ls.dedup();
        ls
    };
    let quant = |s: &[f64], u: f64| -> f64 {
        // Left-continuous inverse of the empirical CDF.
        let idx = ((u * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[idx - 1]
    };
    for &u in &levels {
        let mid = 0.5 * (prev_u + u);
        total += (u - prev_u) * (quant(&sa, mid) - quant(&sb, mid)).abs();
        prev_u = u;
    }
    debug_assert!(levels.len() <= n);
    total
}

/// Geometric-decay fit: given a positive sequence `d_n`, estimates the rate
/// `r` in `d_n ≈ C r^n` by least squares on `log d_n`. Entries `<= 0` are
/// skipped. Returns `None` if fewer than two positive entries exist.
///
/// A fitted `r < 1` is the numerical signature of an *attractive* invariant
/// measure (geometric ergodicity of the sampled chain).
// analyze::allow(R8): tests/integration_theory.rs fits the coupling's contraction rate with it
pub fn fit_geometric_rate(distances: &[f64]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = distances
        .iter()
        .enumerate()
        .filter(|(_, &d)| d > 0.0 && d.is_finite())
        .map(|(n, &d)| (n as f64, d.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some(slope.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn ks_identical_samples_is_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(kolmogorov_smirnov(&a, &a), 0.0);
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        assert_eq!(kolmogorov_smirnov(&a, &b), 1.0);
    }

    #[test]
    fn ks_known_value() {
        // F_a jumps at 1,2; F_b jumps at 1.5: D = 0.5.
        let a = [1.0, 2.0];
        let b = [1.5, 1.5];
        assert!((kolmogorov_smirnov(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_same_distribution_small() {
        let mut rng = SimRng::new(1);
        let a: Vec<f64> = (0..2000).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = (0..2000).map(|_| rng.uniform()).collect();
        let d = kolmogorov_smirnov(&a, &b);
        assert!(d < 0.06, "KS = {d}");
    }

    #[test]
    fn ks_different_distributions_detected() {
        let mut rng = SimRng::new(2);
        let a: Vec<f64> = (0..2000).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = (0..2000).map(|_| rng.uniform() + 0.5).collect();
        let d = kolmogorov_smirnov(&a, &b);
        assert!(d > 0.3, "KS = {d}");
    }

    #[test]
    fn wasserstein_equal_sizes() {
        let a = [0.0, 1.0];
        let b = [1.0, 2.0];
        assert!((wasserstein1(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(wasserstein1(&a, &a), 0.0);
    }

    #[test]
    fn wasserstein_translation_equals_shift() {
        let mut rng = SimRng::new(3);
        let a: Vec<f64> = (0..500).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.7).collect();
        assert!((wasserstein1(&a, &b) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn wasserstein_unequal_sizes() {
        // a = δ_0, b = (δ_0 + δ_1)/2: W1 = 0.5.
        let a = [0.0];
        let b = [0.0, 1.0];
        assert!((wasserstein1(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn geometric_rate_recovered() {
        let d: Vec<f64> = (0..20).map(|n| 5.0 * 0.8f64.powi(n)).collect();
        let r = fit_geometric_rate(&d).unwrap();
        assert!((r - 0.8).abs() < 1e-9, "r = {r}");
    }

    #[test]
    fn geometric_rate_skips_nonpositive() {
        let d = [1.0, 0.0, 0.25, -1.0, 0.0625];
        // Positive entries at n = 0, 2, 4 with ratio 0.5 per step.
        let r = fit_geometric_rate(&d).unwrap();
        assert!((r - 0.5).abs() < 1e-9);
    }

    #[test]
    fn geometric_rate_degenerate() {
        assert!(fit_geometric_rate(&[]).is_none());
        assert!(fit_geometric_rate(&[1.0]).is_none());
        assert!(fit_geometric_rate(&[0.0, -1.0]).is_none());
    }
}
