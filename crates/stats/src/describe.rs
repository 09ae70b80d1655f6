//! Descriptive statistics.

/// A one-pass summary of a sample: count, mean, variance, extremes.
///
/// Uses Welford's online algorithm, so it is numerically stable and can be
/// updated incrementally while a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `NaN` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (`/ n`); `NaN` if empty.
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (`/ (n - 1)`); `NaN` for fewer than two points.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation; `NaN` for fewer than two points.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Population standard deviation; `NaN` if empty.
    pub fn std_dev_population(&self) -> f64 {
        self.variance_population().sqrt()
    }

    /// Minimum observation; `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Sample mean of a slice; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (n-1 denominator); `NaN` for < 2 points.
pub fn std_dev(values: &[f64]) -> f64 {
    Summary::from_slice(values).std_dev()
}

/// The `p`-quantile of a sample using linear interpolation (type-7, the
/// R/numpy default).
///
/// # Panics
/// Panics for empty input, NaN values, or `p` outside `[0, 1]`.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile: empty sample");
    assert!((0.0..=1.0).contains(&p), "quantile: p outside [0,1]");
    let mut sorted = values.to_vec();
    assert!(sorted.iter().all(|x| !x.is_nan()), "quantile: NaN sample");
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median shortcut.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-14);
        assert!((s.variance_population() - 4.0).abs() < 1e-14);
        assert!((s.std_dev_population() - 2.0).abs() < 1e-14);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_slice(&[3.0]);
        assert_eq!(s.mean(), 3.0);
        assert!(s.variance().is_nan());
        assert_eq!(s.variance_population(), 0.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole = Summary::from_slice(&data);
        let mut a = Summary::from_slice(&data[..37]);
        let b = Summary::from_slice(&data[37..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Summary::from_slice(&[1.0, 2.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-15);
        assert!((median(&[5.0, 1.0, 3.0]) - 3.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }

    #[test]
    fn mean_and_std_helpers() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-15);
        assert!(mean(&[]).is_nan());
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
