//! Common-noise coupling of trajectories.
//!
//! The conclusion of the paper points to Hairer-Mattingly-Scheutzow
//! asymptotic-coupling arguments. Numerically, the fingerprint of an
//! attractive invariant measure is that two copies of the chain driven by
//! the **same** randomness but started at different points approach each
//! other: `d(x_k, y_k) -> 0`. This module runs that experiment.

use crate::system::MarkovSystem;
use eqimpact_linalg::norm::MetricKind;
use eqimpact_stats::SimRng;

/// Trace of a coupling experiment.
#[derive(Debug, Clone)]
pub struct CouplingTrace {
    /// Distance `d(x_k, y_k)` per step, including step 0.
    pub distances: Vec<f64>,
    /// First step at which the distance fell below the meeting threshold,
    /// if it did.
    pub coupled_at: Option<usize>,
}

impl CouplingTrace {
    /// Whether the pair met (within the threshold used by the run).
    #[cfg(test)]
    pub fn coupled(&self) -> bool {
        self.coupled_at.is_some()
    }

    /// Final distance.
    // analyze::allow(R8): markov/tests/properties.rs synchronous_coupling_contracts_affine_ifs reads the coupled distance through it
    pub fn final_distance(&self) -> f64 {
        *self.distances.last().expect("at least initial distance")
    }
}

/// Runs two copies of `ms` from `x0` and `y0` under **shared** edge
/// randomness for `steps` steps.
///
/// The shared-noise construction is the synchronous coupling: at each step
/// both copies draw the same uniform variate; each copy maps it through its
/// own local edge probabilities. When both points lie in the same cell with
/// identical probability functions, they choose the same edge, so
/// contractive maps pull them together.
pub fn synchronous_coupling(
    ms: &MarkovSystem,
    x0: &[f64],
    y0: &[f64],
    steps: usize,
    metric: MetricKind,
    meet_threshold: f64,
    rng: &mut SimRng,
) -> CouplingTrace {
    let mut x = x0.to_vec();
    let mut y = y0.to_vec();
    let mut distances = Vec::with_capacity(steps + 1);
    let mut coupled_at = None;

    let d0 = metric.distance(&x, &y);
    distances.push(d0);
    if d0 <= meet_threshold {
        coupled_at = Some(0);
    }

    for k in 1..=steps {
        let u = rng.uniform();
        x = step_with_uniform(ms, &x, u);
        y = step_with_uniform(ms, &y, u);
        let d = metric.distance(&x, &y);
        distances.push(d);
        if coupled_at.is_none() && d <= meet_threshold {
            coupled_at = Some(k);
        }
    }

    CouplingTrace {
        distances,
        coupled_at,
    }
}

/// One step using a pre-drawn uniform variate `u ∈ [0, 1)` for the edge
/// choice (inverse-CDF over the local outgoing probabilities).
fn step_with_uniform(ms: &MarkovSystem, x: &[f64], u: f64) -> Vec<f64> {
    let v = ms.classify(x).expect("point in no cell");
    let probs = ms.probabilities_at(x).expect("bad probabilities");
    let mut acc = 0.0;
    let mut chosen = ms.outgoing(v)[0];
    for (&ei, &p) in ms.outgoing(v).iter().zip(&probs) {
        acc += p;
        chosen = ei;
        if u < acc {
            break;
        }
    }
    (ms.edges()[chosen].map)(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifs::{affine1d, IfsBuilder};

    fn contractive_system() -> MarkovSystem {
        IfsBuilder::new(1)
            .map_const(affine1d(0.5, 0.0), 0.5)
            .map_const(affine1d(0.5, 0.5), 0.5)
            .build()
            .unwrap()
    }

    fn expanding_system() -> MarkovSystem {
        // Doubling map mod 1 (discontinuous at 1/2 but fine pointwise):
        // chaotic, distances do not contract.
        IfsBuilder::new(1)
            .map_const(|x: &[f64]| vec![(2.0 * x[0]).fract()], 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn contractive_coupling_distance_decays_geometrically() {
        let ms = contractive_system();
        let mut rng = SimRng::new(1);
        let trace = synchronous_coupling(
            &ms,
            &[0.0],
            &[1.0],
            60,
            MetricKind::Euclidean,
            1e-12,
            &mut rng,
        );
        assert_eq!(trace.distances.len(), 61);
        assert_eq!(trace.distances[0], 1.0);
        // Same cell + identical probabilities ⇒ same map each step ⇒
        // distance exactly halves each step.
        assert!((trace.distances[10] - 0.5f64.powi(10)).abs() < 1e-12);
        assert!(trace.coupled(), "never coupled");
        assert!(trace.final_distance() < 1e-12);
    }

    #[test]
    fn expanding_system_does_not_couple() {
        let ms = expanding_system();
        let mut rng = SimRng::new(2);
        let trace = synchronous_coupling(
            &ms,
            &[0.1],
            &[0.10001],
            30,
            MetricKind::Euclidean,
            1e-9,
            &mut rng,
        );
        // The doubling map expands: initially close points separate.
        assert!(!trace.coupled());
        assert!(trace.final_distance() > 1e-4);
    }

    #[test]
    fn identical_starts_couple_immediately() {
        let ms = contractive_system();
        let mut rng = SimRng::new(5);
        let trace = synchronous_coupling(
            &ms,
            &[0.4],
            &[0.4],
            10,
            MetricKind::Euclidean,
            1e-12,
            &mut rng,
        );
        assert_eq!(trace.coupled_at, Some(0));
    }
}
