//! Feedback-path filters (the "Filter, e.g. accumulating the training
//! data" block of the paper's Fig. 1).

use eqimpact_stats::timeseries::Ewma;
use std::collections::VecDeque;

/// A causal scalar filter on the aggregate observation path.
pub trait Filter {
    /// Consumes one observation, returns the filtered value.
    fn push(&mut self, y: f64) -> f64;

    /// Current output without consuming input; `NaN` before any input.
    fn value(&self) -> f64;

    /// Clears all internal state.
    fn reset(&mut self);
}

/// The accumulating (full-history average) filter: exactly the training
/// data accumulation of Fig. 1 and the `ADR` computation of eq. (12).
#[derive(Debug, Clone, Default)]
pub struct AccumulatingFilter {
    sum: f64,
    count: u64,
}

impl AccumulatingFilter {
    /// Creates an empty accumulating filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Filter for AccumulatingFilter {
    fn push(&mut self, y: f64) -> f64 {
        self.sum += y;
        self.count += 1;
        self.value()
    }

    fn value(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    fn reset(&mut self) {
        self.sum = 0.0;
        self.count = 0;
    }
}

/// A filter whose state over a partitioned input stream can be rebuilt by
/// merging per-partition states.
///
/// The sharded loop runner does **not** use this today — it keeps the
/// feedback path bit-exact by applying the one `FeedbackFilter` to the
/// merged buffers at the step barrier. `MergeableFilter` is the building
/// block for future *distributed* feedback paths (e.g. merging per-node
/// thin aggregates across machines), where a pooled merge replaces the
/// shared-memory barrier.
///
/// The contract: feeding a stream's elements into per-shard filters and
/// [`absorb`](Self::absorb)ing them equals feeding the whole stream into
/// one filter, *up to the filter's own order sensitivity* — exact for
/// order-free statistics like [`AccumulatingFilter`] (modulo f64 sum
/// associativity), pooled-moment exact for [`AnomalyRejectingFilter`].
/// Order-dependent filters (sliding window, EWMA) have no meaningful
/// merge and deliberately do not implement this.
pub trait MergeableFilter: Filter {
    /// Absorbs another filter's state, as if its accepted samples had
    /// also flowed through `self`.
    fn absorb(&mut self, other: &Self);
}

impl MergeableFilter for AccumulatingFilter {
    fn absorb(&mut self, other: &Self) {
        self.sum += other.sum;
        self.count += other.count;
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

    fn reset(&mut self) {
        self.buffer.clear();
        self.sum = 0.0;
    }
}

/// Exponentially weighted moving-average filter.
#[derive(Debug, Clone)]
pub struct EwmaFilter {
    ewma: Ewma,
    alpha: f64,
}

impl EwmaFilter {
    /// Creates an EWMA filter with smoothing `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        EwmaFilter {
            ewma: Ewma::new(alpha),
            alpha,
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

    fn reset(&mut self) {
        self.ewma = Ewma::new(self.alpha);
    }
}

/// Anomaly-rejecting filter: observations further than `k_sigma` running
/// standard deviations from the running mean are discarded ("filtering out
/// anomalies" in Sec. III). Until `min_samples` observations have been
/// accepted, everything is accepted to warm up the statistics.
#[derive(Debug, Clone)]
pub struct AnomalyRejectingFilter {
    k_sigma: f64,
    min_samples: u64,
    count: u64,
    mean: f64,
    m2: f64,
    rejected: u64,
}

impl AnomalyRejectingFilter {
    /// Creates a filter rejecting beyond `k_sigma` standard deviations,
    /// after `min_samples` warm-up samples.
    ///
    /// # Panics
    /// Panics when `k_sigma <= 0`.
    pub fn new(k_sigma: f64, min_samples: u64) -> Self {
        assert!(k_sigma > 0.0, "AnomalyRejectingFilter: k_sigma <= 0");
        AnomalyRejectingFilter {
            k_sigma,
            min_samples,
            count: 0,
            mean: 0.0,
            m2: 0.0,
            rejected: 0,
        }
    }

    /// Number of rejected observations so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of accepted observations.
    // analyze::allow(R8): control/tests/properties.rs anomaly_filter_never_rejects_during_warmup uses it as the accept count
    pub fn accepted(&self) -> u64 {
        self.count
    }

    fn std(&self) -> f64 {
        if self.count < 2 {
            f64::INFINITY
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }
}

impl Filter for AnomalyRejectingFilter {
    fn push(&mut self, y: f64) -> f64 {
        let accept =
            self.count < self.min_samples || (y - self.mean).abs() <= self.k_sigma * self.std();
        if accept {
            self.count += 1;
            let delta = y - self.mean;
            self.mean += delta / self.count as f64;
            self.m2 += delta * (y - self.mean);
        } else {
            self.rejected += 1;
        }
        self.value()
    }

    fn value(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.m2 = 0.0;
        self.rejected = 0;
    }
}

impl MergeableFilter for AnomalyRejectingFilter {
    /// Pools the running moments with the parallel Welford update (Chan
    /// et al.): the merged `(count, mean, m2)` are exactly those of the
    /// union of both filters' accepted samples. (Which samples *were*
    /// accepted can differ from a sequential feed — acceptance thresholds
    /// evolve with order — so this merges statistics, not decisions.)
    fn absorb(&mut self, other: &Self) {
        if other.count == 0 {
            self.rejected += other.rejected;
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.rejected += other.rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulating_filter_tree_merge_equals_sequential_feed() {
        // Integer-valued samples keep the sums exact, so the shard merge
        // reproduces the sequential state bit-for-bit.
        let samples: Vec<f64> = (0..64).map(|i| ((i * 7) % 11) as f64).collect();
        let mut sequential = AccumulatingFilter::new();
        for &y in &samples {
            sequential.push(y);
        }
        // Four shards, merged pairwise then at the root.
        let mut shards: Vec<AccumulatingFilter> = samples
            .chunks(16)
            .map(|chunk| {
                let mut f = AccumulatingFilter::new();
                for &y in chunk {
                    f.push(y);
                }
                f
            })
            .collect();
        let right = shards.split_off(2);
        let mut left = shards.remove(0);
        left.absorb(&shards[0]);
        let mut right_acc = right[0].clone();
        right_acc.absorb(&right[1]);
        left.absorb(&right_acc);
        assert_eq!(left.count(), sequential.count());
        assert_eq!(left.value(), sequential.value());
    }

    #[test]
    fn anomaly_filter_merge_pools_exact_moments() {
        // No rejections (huge k_sigma): the merged moments must match a
        // whole-stream Welford pass.
        let samples: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let mut whole = AnomalyRejectingFilter::new(1e12, 0);
        for &y in &samples {
            whole.push(y);
        }
        let mut left = AnomalyRejectingFilter::new(1e12, 0);
        let mut right = AnomalyRejectingFilter::new(1e12, 0);
        for &y in &samples[..13] {
            left.push(y);
        }
        for &y in &samples[13..] {
            right.push(y);
        }
        left.absorb(&right);
        assert_eq!(left.accepted(), whole.accepted());
        assert!((left.value() - whole.value()).abs() < 1e-12);
        assert!((left.std() - whole.std()).abs() < 1e-12);
        // Absorbing an empty filter only carries its rejection count.
        let empty = AnomalyRejectingFilter::new(1.0, 0);
        let before = left.value();
        left.absorb(&empty);
        assert_eq!(left.value(), before);
    }

    #[test]
    fn accumulating_filter_is_cesaro() {
        let mut f = AccumulatingFilter::new();
        assert!(f.value().is_nan());
        assert_eq!(f.push(1.0), 1.0);
        assert_eq!(f.push(0.0), 0.5);
        assert_eq!(f.push(0.5), 0.5);
        assert_eq!(f.count(), 3);
        f.reset();
        assert!(f.value().is_nan());
    }

    #[test]
    fn sliding_window_drops_old_samples() {
        let mut f = SlidingWindowFilter::new(2);
        assert!(f.value().is_nan());
        assert_eq!(f.push(1.0), 1.0);
        assert_eq!(f.push(3.0), 2.0);
        assert_eq!(f.push(5.0), 4.0); // the 1.0 fell out
        f.reset();
        assert!(f.value().is_nan());
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
        f.reset();
        assert!(f.value().is_nan());
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
    fn anomaly_filter_rejects_outliers() {
        let mut f = AnomalyRejectingFilter::new(3.0, 10);
        // Warm-up with a tight cluster.
        for i in 0..20 {
            f.push(1.0 + 0.01 * ((i % 5) as f64 - 2.0));
        }
        let before = f.value();
        f.push(100.0); // gross outlier: must be rejected
        assert_eq!(f.rejected(), 1);
        assert!((f.value() - before).abs() < 1e-12);
        // A nearby value is accepted.
        let accepted_before = f.accepted();
        f.push(1.005);
        assert_eq!(f.accepted(), accepted_before + 1);
    }

    #[test]
    fn anomaly_filter_accepts_everything_during_warmup() {
        let mut f = AnomalyRejectingFilter::new(1.0, 5);
        for v in [0.0, 100.0, -100.0, 50.0, -50.0] {
            f.push(v);
        }
        assert_eq!(f.accepted(), 5);
        assert_eq!(f.rejected(), 0);
        f.reset();
        assert_eq!(f.accepted(), 0);
    }

    #[test]
    fn filters_share_trait_object_interface() {
        let mut filters: Vec<Box<dyn Filter>> = vec![
            Box::new(AccumulatingFilter::new()),
            Box::new(SlidingWindowFilter::new(3)),
            Box::new(EwmaFilter::new(0.3)),
            Box::new(AnomalyRejectingFilter::new(2.0, 3)),
        ];
        for f in &mut filters {
            for v in [1.0, 2.0, 3.0] {
                f.push(v);
            }
            assert!(f.value().is_finite());
        }
    }
}
