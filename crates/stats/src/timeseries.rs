//! Time-series utilities centred on Cesàro (running time) averages.
//!
//! Equal impact (Def. 3 of the paper) is a statement about the limit of
//! `(1/(k+1)) Σ_{j=0}^k y_i(j)`. [`CesaroAverage`] maintains exactly that
//! quantity online; [`has_settled`] decides whether a tail of the
//! sequence has settled, and [`Ewma`] provides the exponentially weighted
//! alternative used by some filters.

/// Online Cesàro average `(1/(k+1)) Σ_{j=0}^k y(j)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CesaroAverage {
    sum: f64,
    count: u64,
}

impl CesaroAverage {
    /// Creates an empty average.
    pub fn new() -> Self {
        CesaroAverage { sum: 0.0, count: 0 }
    }

    /// Adds the observation for the next time step and returns the updated
    /// average.
    pub fn push(&mut self, y: f64) -> f64 {
        self.sum += y;
        self.count += 1;
        self.value()
    }

    /// Current average; `NaN` before any observation.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The full Cesàro-average trajectory of a sequence.
///
/// `cesaro_trajectory(&y)[k] = (1/(k+1)) Σ_{j<=k} y[j]` — the exact series
/// plotted in the paper's Figs. 3–5.
pub fn cesaro_trajectory(values: &[f64]) -> Vec<f64> {
    let mut avg = CesaroAverage::new();
    values.iter().map(|&y| avg.push(y)).collect()
}

/// Exponentially weighted moving average with smoothing factor `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing `alpha` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics for `alpha` outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "Ewma: alpha = {alpha} outside (0,1]"
        );
        Ewma { alpha, value: None }
    }

    /// Adds an observation and returns the updated value.
    pub fn push(&mut self, y: f64) -> f64 {
        let v = match self.value {
            None => y,
            Some(prev) => prev + self.alpha * (y - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current value, if any observation has been seen.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Overwrites the running value — the checkpoint-restore hook.
    /// `None` resets to the never-observed state.
    pub fn restore(&mut self, value: Option<f64>) {
        self.value = value;
    }
}

/// Decides whether the tail of a sequence has converged: the last `window`
/// values all lie within `tolerance` of their mean.
///
/// Returns `false` when fewer than `window` values are available.
pub fn has_settled(values: &[f64], window: usize, tolerance: f64) -> bool {
    if values.len() < window || window == 0 {
        return false;
    }
    let tail = &values[values.len() - window..];
    let m = tail.iter().sum::<f64>() / window as f64;
    tail.iter().all(|&v| (v - m).abs() <= tolerance)
}

/// Estimates the limit of a Cesàro-average sequence as the mean of its last
/// `tail_fraction` portion (e.g. 0.2 = last fifth).
///
/// # Panics
/// Panics for empty input or `tail_fraction` outside `(0, 1]`.
pub fn tail_mean(values: &[f64], tail_fraction: f64) -> f64 {
    assert!(!values.is_empty(), "tail_mean: empty input");
    assert!(
        tail_fraction > 0.0 && tail_fraction <= 1.0,
        "tail_mean: fraction outside (0,1]"
    );
    let start = ((values.len() as f64) * (1.0 - tail_fraction)).floor() as usize;
    let tail = &values[start.min(values.len() - 1)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cesaro_of_constant_is_constant() {
        let mut c = CesaroAverage::new();
        for _ in 0..10 {
            assert_eq!(c.push(3.0), 3.0);
        }
        // Ten observations summing to 30, then one more.
        assert_eq!(c.push(0.0), 30.0 / 11.0);
    }

    #[test]
    fn cesaro_empty_is_nan() {
        assert!(CesaroAverage::new().value().is_nan());
    }

    #[test]
    fn cesaro_trajectory_matches_definition() {
        let y = [1.0, 0.0, 1.0, 1.0];
        let t = cesaro_trajectory(&y);
        assert_eq!(t, vec![1.0, 0.5, 2.0 / 3.0, 0.75]);
    }

    #[test]
    fn cesaro_of_alternating_converges_to_half() {
        let y: Vec<f64> = (0..10_000).map(|k| (k % 2) as f64).collect();
        let t = cesaro_trajectory(&y);
        assert!((t.last().unwrap() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn ewma_behaviour() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.push(4.0), 4.0);
        assert_eq!(e.push(0.0), 2.0);
        assert_eq!(e.push(2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "outside (0,1]")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn ewma_restore_round_trips() {
        let mut e = Ewma::new(0.5);
        e.push(4.0);
        e.push(0.0);
        let saved = e.value();
        let mut fresh = Ewma::new(0.5);
        fresh.restore(saved);
        assert_eq!(fresh.value(), Some(2.0));
        assert_eq!(fresh.push(2.0), e.push(2.0), "restored EWMA tracks");
        fresh.restore(None);
        assert_eq!(fresh.value(), None, "None resets to unobserved");
    }

    #[test]
    fn has_settled_detects_flat_tail() {
        let mut v: Vec<f64> = (0..50).map(|i| 1.0 / (i + 1) as f64).collect();
        assert!(!has_settled(&v, 10, 1e-6));
        v.extend(std::iter::repeat_n(0.25, 20));
        assert!(has_settled(&v, 10, 1e-9));
        assert!(!has_settled(&v[..5], 10, 1.0));
        assert!(!has_settled(&v, 0, 1.0));
    }

    #[test]
    fn tail_mean_takes_last_fraction() {
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        // Last 20% of 10 values = indices 8, 9.
        assert!((tail_mean(&v, 0.2) - 8.5).abs() < 1e-12);
        assert!((tail_mean(&v, 1.0) - 4.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn tail_mean_rejects_empty() {
        tail_mean(&[], 0.5);
    }
}
