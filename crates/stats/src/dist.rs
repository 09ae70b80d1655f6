//! Probability distributions used by the closed-loop simulations.
//!
//! Everything is implemented from first principles: the normal CDF uses our
//! own `erf` (Abramowitz & Stegun 7.1.26 refined to double precision via
//! the W. J. Cody rational approximations is overkill here; we use the
//! high-accuracy series/continued-fraction split), and the normal quantile
//! uses Acklam's rational approximation polished with one Halley step.

use crate::rng::SimRng;

/// Common sampling interface for scalar distributions.
pub trait Sample {
    /// Draws one sample using the provided stream.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

// ---------------------------------------------------------------------------
// Error function and normal distribution
// ---------------------------------------------------------------------------

/// The error function `erf(x)`, accurate to ~1e-15.
///
/// Series expansion for `|x| <= 2.0`, continued-fraction complement above.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x == 0.0 {
        return 0.0;
    }
    if x > 6.0 {
        return 1.0;
    }
    if x <= 2.0 {
        // Maclaurin series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1)/(n!(2n+1)).
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        let mut n = 0u32;
        loop {
            n += 1;
            term *= -x2 / n as f64;
            let contribution = term / (2 * n + 1) as f64;
            sum += contribution;
            if contribution.abs() < 1e-17 * sum.abs() {
                break;
            }
            if n > 200 {
                break;
            }
        }
        (2.0 / std::f64::consts::PI.sqrt()) * sum
    } else {
        1.0 - erfc_cf(x)
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
pub fn erfc(x: f64) -> f64 {
    if x < 2.0 {
        1.0 - erf(x)
    } else {
        erfc_cf(x)
    }
}

/// Continued-fraction evaluation of erfc for x >= 2 (Lentz's algorithm).
fn erfc_cf(x: f64) -> f64 {
    // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))
    let mut f = x;
    let mut c = x;
    let mut d = 0.0;
    let tiny = 1e-300;
    for k in 1..300 {
        // erfc(x)·√π·exp(x²) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
        // i.e. partial numerators a_k = k/2 with constant denominator x.
        let an = k as f64 / 2.0;
        let bn = x;
        d = bn + an * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = bn + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    // f now approximates x + CF, so erfc = exp(-x^2)/sqrt(pi) / f.
    (-x * x).exp() / (std::f64::consts::PI.sqrt() * f)
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile (inverse CDF) via Acklam's approximation plus
/// one Halley refinement step; accurate to ~1e-13 on (0, 1).
///
/// Returns `-inf` at 0 and `+inf` at 1.
///
/// # Panics
/// Panics for `p` outside `[0, 1]` or NaN.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile: p = {p} outside [0,1]");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step against our own CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// A normal distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates `N(mean, sd²)`.
    ///
    /// # Panics
    /// Panics if `sd <= 0` or either parameter is non-finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd > 0.0 && sd.is_finite() && mean.is_finite(),
            "Normal: invalid parameters mean={mean}, sd={sd}"
        );
        Normal { mean, sd }
    }

    /// Mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation parameter.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Quantile at probability `p`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * std_normal_quantile(p)
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.sd * rng.standard_normal()
    }
}

// ---------------------------------------------------------------------------
// Bernoulli
// ---------------------------------------------------------------------------

/// A Bernoulli distribution over `{0.0, 1.0}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli with success probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or NaN.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Bernoulli: p = {p} outside [0,1]");
        Bernoulli { p }
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean (= p).
    pub fn mean(&self) -> f64 {
        self.p
    }

    /// Variance `p (1 - p)`.
    pub fn variance(&self) -> f64 {
        self.p * (1.0 - self.p)
    }

    /// Draws a boolean.
    pub fn sample_bool(&self, rng: &mut SimRng) -> bool {
        rng.bernoulli(self.p)
    }
}

impl Sample for Bernoulli {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.sample_bool(rng) {
            1.0
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

/// A continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates `U[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or bounds are non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "Uniform: invalid range [{lo}, {hi})"
        );
        Uniform { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Mean `(lo + hi) / 2`.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform_in(self.lo, self.hi)
    }
}

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

/// A categorical distribution over indices `0..k` with given probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    /// Normalized probabilities.
    probs: Vec<f64>,
    /// Cumulative sums for inverse-CDF sampling.
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights
    /// (normalized internally).
    ///
    /// # Panics
    /// Panics on empty, negative, non-finite, or all-zero weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Categorical: empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "Categorical: bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "Categorical: zero total weight");
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let mut cumulative = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Categorical { probs, cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether there are zero categories (never true for a constructed
    /// value; included for API completeness).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of category `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Normalized probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Draws a category index by inverse-CDF binary search.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in cumulative"))
        {
            Ok(i) => (i + 1).min(self.probs.len() - 1),
            Err(i) => i.min(self.probs.len() - 1),
        }
    }
}

impl Sample for Categorical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_index(rng) as f64
    }
}

// ---------------------------------------------------------------------------
// Empirical
// ---------------------------------------------------------------------------

/// An empirical distribution backed by observed samples.
///
/// Supports the exact empirical CDF and bootstrap resampling. Used to
/// compare a trajectory's empirical law against the invariant measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Sorted observations.
    sorted: Vec<f64>,
}

impl Empirical {
    /// Builds an empirical distribution from observations (NaNs rejected).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "Empirical: no samples");
        let mut sorted = samples.to_vec();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "Empirical: NaN in samples"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Empirical { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution holds zero observations (never true for a
    /// constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Empirical quantile (inverted CDF, lower interpolation).
    ///
    /// # Panics
    /// Panics for `p` outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p outside [0,1]");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let idx = (p * (self.sorted.len() - 1) as f64).round() as usize;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Sorted observations.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl Sample for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sorted[rng.index(self.sorted.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, expected) in cases {
            assert!(
                (erf(x) - expected).abs() < 1e-12,
                "erf({x}) = {}, expected {expected}",
                erf(x)
            );
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[0.1, 0.7, 1.5, 2.5, 4.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((std_normal_cdf(1.959963984540054) - 0.975).abs() < 1e-10);
        assert!((std_normal_cdf(-1.959963984540054) - 0.025).abs() < 1e-10);
        assert!((std_normal_cdf(1.0) - 0.8413447460685429).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999] {
            let x = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-10,
                "p = {p}, x = {x}, cdf = {}",
                std_normal_cdf(x)
            );
        }
        assert_eq!(std_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn normal_distribution_api() {
        let n = Normal::new(2.0, 3.0);
        assert_eq!(n.mean(), 2.0);
        assert_eq!(n.sd(), 3.0);
        assert!((n.quantile(0.5) - 2.0).abs() < 1e-10);
        let mut rng = SimRng::new(1);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 2.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid parameters")]
    fn normal_rejects_bad_sd() {
        Normal::new(0.0, 0.0);
    }

    #[test]
    fn bernoulli_api() {
        let b = Bernoulli::new(0.25);
        assert_eq!(b.p(), 0.25);
        assert_eq!(b.mean(), 0.25);
        assert!((b.variance() - 0.1875).abs() < 1e-15);
        let mut rng = SimRng::new(2);
        let mean: f64 = (0..20_000).map(|_| b.sample(&mut rng)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bernoulli_rejects_bad_p() {
        Bernoulli::new(1.5);
    }

    #[test]
    fn uniform_api() {
        let u = Uniform::new(-1.0, 3.0);
        assert_eq!(u.mean(), 1.0);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            assert!((-1.0..3.0).contains(&x));
        }
    }

    #[test]
    fn categorical_sampling_matches_probs() {
        let c = Categorical::new(&[1.0, 2.0, 7.0]);
        assert!((c.prob(0) - 0.1).abs() < 1e-15);
        assert!((c.prob(2) - 0.7).abs() < 1e-15);
        assert_eq!(c.len(), 3);
        let mut rng = SimRng::new(4);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[c.sample_index(&mut rng)] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let f = cnt as f64 / n as f64;
            assert!((f - c.prob(i)).abs() < 0.02, "category {i}: {f}");
        }
    }

    #[test]
    fn categorical_race_distribution_of_the_paper() {
        // The paper's race sampling distribution.
        let c = Categorical::new(&[0.1235, 0.8406, 0.0359]);
        let total: f64 = c.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn categorical_rejects_zero_weights() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn empirical_cdf_and_quantile() {
        let e = Empirical::new(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 3.0);
        assert_eq!(e.mean(), 2.0);
    }

    #[test]
    fn empirical_resampling_stays_in_support() {
        let e = Empirical::new(&[1.0, 5.0, 9.0]);
        let mut rng = SimRng::new(6);
        for _ in 0..100 {
            let x = e.sample(&mut rng);
            assert!(x == 1.0 || x == 5.0 || x == 9.0);
        }
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empirical_rejects_empty() {
        Empirical::new(&[]);
    }
}
