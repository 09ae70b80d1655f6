//! Feedback-path filters (the "Filter, e.g. accumulating the training
//! data" block of the paper's Fig. 1).

use eqimpact_stats::timeseries::{CesaroAverage, Ewma};
use std::collections::VecDeque;

/// A causal scalar filter on the aggregate observation path.
pub trait Filter {
    /// Consumes one observation, returns the filtered value.
    fn push(&mut self, y: f64) -> f64;

    /// Current output without consuming input; `NaN` before any input.
    fn value(&self) -> f64;
}

/// The accumulating (full-history average) filter: exactly the training
/// data accumulation of Fig. 1 and the `ADR` computation of eq. (12).
impl Filter for CesaroAverage {
    fn push(&mut self, y: f64) -> f64 {
        CesaroAverage::push(self, y)
    }

    fn value(&self) -> f64 {
        CesaroAverage::value(self)
    }
}

/// Sliding-window mean over the last `window` samples.
#[derive(Debug, Clone)]
pub struct SlidingWindowFilter {
    window: usize,
    buffer: VecDeque<f64>,
    sum: f64,
}

impl SlidingWindowFilter {
    /// Creates a window filter.
    ///
    /// # Panics
    /// Panics when `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "SlidingWindowFilter: zero window");
        SlidingWindowFilter {
            window,
            buffer: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }
}

impl Filter for SlidingWindowFilter {
    fn push(&mut self, y: f64) -> f64 {
        if self.buffer.len() == self.window {
            let old = self.buffer.pop_front().expect("full buffer");
            self.sum -= old;
        }
        self.buffer.push_back(y);
        self.sum += y;
        self.value()
    }

    fn value(&self) -> f64 {
        if self.buffer.is_empty() {
            f64::NAN
        } else {
            self.sum / self.buffer.len() as f64
        }
    }
}

/// Exponentially weighted moving-average filter.
#[derive(Debug, Clone)]
pub struct EwmaFilter {
    ewma: Ewma,
}

impl EwmaFilter {
    /// Creates an EWMA filter with smoothing `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        EwmaFilter {
            ewma: Ewma::new(alpha),
        }
    }

    /// The raw running value (`None` before any input) — the
    /// checkpoint-capture hook.
    pub fn state(&self) -> Option<f64> {
        self.ewma.value()
    }

    /// Overwrites the running value — the checkpoint-restore hook.
    pub fn restore_state(&mut self, value: Option<f64>) {
        self.ewma.restore(value);
    }
}

impl Filter for EwmaFilter {
    fn push(&mut self, y: f64) -> f64 {
        self.ewma.push(y)
    }

    fn value(&self) -> f64 {
        self.ewma.value().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulating_filter_is_cesaro() {
        let mut f = CesaroAverage::new();
        assert!(Filter::value(&f).is_nan());
        assert_eq!(Filter::push(&mut f, 1.0), 1.0);
        assert_eq!(Filter::push(&mut f, 0.0), 0.5);
        assert_eq!(Filter::push(&mut f, 0.5), 0.5);
        // Three observations so far: a fourth makes the sum 4 over 4.
        assert_eq!(Filter::push(&mut f, 2.5), 1.0);
    }

    #[test]
    fn sliding_window_drops_old_samples() {
        let mut f = SlidingWindowFilter::new(2);
        assert!(f.value().is_nan());
        assert_eq!(f.push(1.0), 1.0);
        assert_eq!(f.push(3.0), 2.0);
        assert_eq!(f.push(5.0), 4.0); // the 1.0 fell out
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn sliding_window_rejects_zero() {
        SlidingWindowFilter::new(0);
    }

    #[test]
    fn ewma_filter_smooths() {
        let mut f = EwmaFilter::new(0.5);
        assert!(f.value().is_nan());
        assert_eq!(f.push(4.0), 4.0);
        assert_eq!(f.push(0.0), 2.0);
    }

    #[test]
    fn ewma_filter_state_round_trips() {
        let mut f = EwmaFilter::new(0.5);
        assert_eq!(f.state(), None);
        f.push(4.0);
        f.push(0.0);
        let mut g = EwmaFilter::new(0.5);
        g.restore_state(f.state());
        assert_eq!(g.push(2.0), f.push(2.0), "restored filter tracks");
    }

    #[test]
    fn filters_share_trait_object_interface() {
        let mut filters: Vec<Box<dyn Filter>> = vec![
            Box::new(CesaroAverage::new()),
            Box::new(SlidingWindowFilter::new(3)),
            Box::new(EwmaFilter::new(0.3)),
        ];
        for f in &mut filters {
            for v in [1.0, 2.0, 3.0] {
                f.push(v);
            }
            assert!(f.value().is_finite());
        }
    }
}
