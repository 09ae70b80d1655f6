//! Numerical verification of the average contractivity condition.
//!
//! A Markov system is *contractive with factor `a`* when for all `x, y` in
//! the same cell
//!
//! ```text
//! Σ_e p_e(x) d(w_e(x), w_e(y)) ≤ a · d(x, y)
//! ```
//!
//! (paper Appendix, after Werner 2004). Contractivity with `a < 1` plus an
//! irreducible, aperiodic graph yields a unique attractive invariant
//! measure. The condition cannot be verified symbolically for black-box
//! maps, so we estimate the worst-case ratio over sampled pairs of points.

use crate::system::MarkovSystem;
use eqimpact_linalg::norm::MetricKind;
use eqimpact_stats::SimRng;

/// Result of a contractivity estimation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractivityReport {
    /// Estimated contraction factor: the max over sampled same-cell pairs
    /// of `Σ_e p_e(x) d(w_e(x), w_e(y)) / d(x, y)`.
    pub estimated_factor: f64,
    /// Number of pairs actually evaluated (same-cell pairs only).
    pub pairs_evaluated: usize,
    /// Pair achieving the maximum, if any pair was evaluated.
    pub worst_pair: Option<(Vec<f64>, Vec<f64>)>,
}

impl ContractivityReport {
    /// Whether the sweep is consistent with average contractivity
    /// (`estimated factor < 1`, allowing a small numerical margin).
    pub fn is_contractive(&self) -> bool {
        self.pairs_evaluated > 0 && self.estimated_factor < 1.0 - 1e-9
    }
}

/// Estimates the average-contraction factor of `ms` over `n_pairs` random
/// pairs drawn from `sampler` (which should produce points covering the
/// relevant part of the state space). Pairs falling in different cells are
/// skipped, since the condition is per-cell.
pub fn estimate_contraction_factor(
    ms: &MarkovSystem,
    metric: MetricKind,
    n_pairs: usize,
    rng: &mut SimRng,
    mut sampler: impl FnMut(&mut SimRng) -> Vec<f64>,
) -> ContractivityReport {
    let mut worst = 0.0f64;
    let mut worst_pair = None;
    let mut evaluated = 0usize;

    for _ in 0..n_pairs {
        let x = sampler(rng);
        let y = sampler(rng);
        let (vx, vy) = match (ms.classify(&x), ms.classify(&y)) {
            (Ok(a), Ok(b)) => (a, b),
            _ => continue,
        };
        if vx != vy {
            continue;
        }
        let dxy = metric.distance(&x, &y);
        if dxy <= 1e-12 {
            continue;
        }
        let probs = match ms.probabilities_at(&x) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let mut lhs = 0.0;
        for (&ei, &p) in ms.outgoing(vx).iter().zip(&probs) {
            if p > 0.0 {
                let wx = (ms.edges()[ei].map)(&x);
                let wy = (ms.edges()[ei].map)(&y);
                lhs += p * metric.distance(&wx, &wy);
            }
        }
        let ratio = lhs / dxy;
        evaluated += 1;
        if ratio > worst {
            worst = ratio;
            worst_pair = Some((x, y));
        }
    }

    ContractivityReport {
        estimated_factor: worst,
        pairs_evaluated: evaluated,
        worst_pair,
    }
}

/// Convenience sampler: uniform over an axis-aligned box.
///
/// # Panics
/// Panics when `lo` and `hi` have different lengths or any `lo[i] >= hi[i]`.
pub fn box_sampler(lo: Vec<f64>, hi: Vec<f64>) -> impl FnMut(&mut SimRng) -> Vec<f64> {
    assert_eq!(lo.len(), hi.len(), "box_sampler: bounds length mismatch");
    for (l, h) in lo.iter().zip(&hi) {
        assert!(l < h, "box_sampler: empty box side [{l}, {h})");
    }
    move |rng: &mut SimRng| {
        lo.iter()
            .zip(&hi)
            .map(|(&l, &h)| rng.uniform_in(l, h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifs::{affine1d, IfsBuilder};

    fn system_with_slopes(a1: f64, a2: f64) -> MarkovSystem {
        IfsBuilder::new(1)
            .map_const(affine1d(a1, 0.0), 0.5)
            .map_const(affine1d(a2, 0.5), 0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn contractive_ifs_detected() {
        let ms = system_with_slopes(0.5, 0.5);
        let mut rng = SimRng::new(1);
        let report = estimate_contraction_factor(
            &ms,
            MetricKind::Euclidean,
            500,
            &mut rng,
            box_sampler(vec![0.0], vec![1.0]),
        );
        assert!(report.pairs_evaluated > 400);
        assert!((report.estimated_factor - 0.5).abs() < 1e-9);
        assert!(report.is_contractive());
        assert!(report.worst_pair.is_some());
    }

    #[test]
    fn average_contractivity_despite_one_expanding_map() {
        // Slopes 1.4 and 0.2 with equal probability: average 0.8 < 1.
        let ms = system_with_slopes(1.4, 0.2);
        let mut rng = SimRng::new(2);
        let report = estimate_contraction_factor(
            &ms,
            MetricKind::Euclidean,
            500,
            &mut rng,
            box_sampler(vec![0.0], vec![1.0]),
        );
        assert!((report.estimated_factor - 0.8).abs() < 1e-9);
        assert!(report.is_contractive());
    }

    #[test]
    fn expanding_system_detected() {
        let ms = system_with_slopes(1.5, 1.5);
        let mut rng = SimRng::new(3);
        let report = estimate_contraction_factor(
            &ms,
            MetricKind::Euclidean,
            300,
            &mut rng,
            box_sampler(vec![0.0], vec![1.0]),
        );
        assert!(report.estimated_factor > 1.0);
        assert!(!report.is_contractive());
    }

    #[test]
    fn isometry_is_borderline() {
        let ms = system_with_slopes(1.0, 1.0);
        let mut rng = SimRng::new(4);
        let report = estimate_contraction_factor(
            &ms,
            MetricKind::Euclidean,
            300,
            &mut rng,
            box_sampler(vec![0.0], vec![1.0]),
        );
        assert!((report.estimated_factor - 1.0).abs() < 1e-9);
        assert!(!report.is_contractive());
    }

    #[test]
    fn no_pairs_means_not_contractive() {
        let ms = system_with_slopes(0.5, 0.5);
        let mut rng = SimRng::new(5);
        // Sampler producing coincident points only: every pair is skipped.
        let report =
            estimate_contraction_factor(&ms, MetricKind::Euclidean, 100, &mut rng, |_| vec![0.5]);
        assert_eq!(report.pairs_evaluated, 0);
        assert!(!report.is_contractive());
    }

    #[test]
    fn cross_cell_pairs_skipped() {
        // Two-cell system; sample over the whole line so ~half of pairs
        // straddle the cells and are skipped.
        let ms = MarkovSystem::builder(1)
            .cell(|x| x[0] < 0.0)
            .cell(|x| x[0] >= 0.0)
            .edge(0, 1, |x| vec![-0.5 * x[0]], |_| 1.0)
            .edge(1, 0, |x| vec![-0.5 * x[0] - 0.1], |_| 1.0)
            .build()
            .unwrap();
        let mut rng = SimRng::new(6);
        let report = estimate_contraction_factor(
            &ms,
            MetricKind::Euclidean,
            400,
            &mut rng,
            box_sampler(vec![-1.0], vec![1.0]),
        );
        assert!(report.pairs_evaluated < 400);
        assert!(report.pairs_evaluated > 100);
        assert!(report.is_contractive());
    }

    #[test]
    fn identity_map_is_exactly_neutral_with_no_nan() {
        // The pure identity system — the surrogate the certification
        // plane fits when a model's weights never move — must report a
        // factor of exactly one from every evaluated pair: not
        // contractive, not expanding, and with finite evidence numbers.
        let ms = IfsBuilder::new(2)
            .map_const(|x: &[f64]| x.to_vec(), 1.0)
            .build()
            .unwrap();
        let mut rng = SimRng::new(7);
        let report = estimate_contraction_factor(
            &ms,
            MetricKind::Euclidean,
            300,
            &mut rng,
            box_sampler(vec![-1.0, -1.0], vec![1.0, 1.0]),
        );
        assert!(report.pairs_evaluated > 0);
        assert!((report.estimated_factor - 1.0).abs() < 1e-12);
        assert!(!report.estimated_factor.is_nan());
        assert!(!report.is_contractive());
        let (a, b) = report.worst_pair.expect("evaluated pairs record a worst");
        assert!(a.iter().chain(&b).all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "empty box side")]
    fn box_sampler_rejects_empty_box() {
        let _sampler = box_sampler(vec![1.0], vec![1.0]);
    }
}
