//! The Markov operator `P` and its adjoint `P*` on particle measures.
//!
//! For a Markov system, `P f(x) = Σ_e p_e(x) f(w_e(x))` acts on bounded
//! Borel functions, and the adjoint `P* ν(f) = ∫ P f dν` acts on Borel
//! probability measures. An invariant measure satisfies `P* µ = µ`; it is
//! *attractive* when `(P*)^n ν → µ` weakly for every ν.
//!
//! We represent measures by weighted particle clouds ([`ParticleMeasure`])
//! and implement `P*` two ways:
//!
//! * **exact splitting** ([`ParticleMeasure::push_forward_split`]) — each
//!   particle splits into one child per positive-probability edge; exact
//!   but grows the support (use with pruning);
//! * **Monte Carlo** ([`ParticleMeasure::push_forward_sampled`]) — each
//!   particle follows one random edge; keeps the cloud size fixed.

use crate::system::MarkovSystem;
use eqimpact_stats::SimRng;

/// A finitely supported (particle) probability measure on `R^n`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleMeasure {
    points: Vec<Vec<f64>>,
    weights: Vec<f64>,
}

impl ParticleMeasure {
    /// A Dirac measure at `x`.
    pub fn dirac(x: &[f64]) -> Self {
        ParticleMeasure {
            points: vec![x.to_vec()],
            weights: vec![1.0],
        }
    }

    /// The uniform empirical measure on a set of points.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn uniform(points: &[Vec<f64>]) -> Self {
        assert!(!points.is_empty(), "ParticleMeasure: no points");
        let w = 1.0 / points.len() as f64;
        ParticleMeasure {
            points: points.to_vec(),
            weights: vec![w; points.len()],
        }
    }

    /// A weighted measure (weights normalized internally).
    ///
    /// # Panics
    /// Panics on empty/mismatched input or non-positive total weight.
    pub fn weighted(points: Vec<Vec<f64>>, weights: Vec<f64>) -> Self {
        assert_eq!(points.len(), weights.len(), "ParticleMeasure: mismatch");
        assert!(!points.is_empty(), "ParticleMeasure: no points");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "ParticleMeasure: bad weights"
        );
        ParticleMeasure {
            points,
            weights: weights.into_iter().map(|w| w / total).collect(),
        }
    }

    /// Number of support particles.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the support is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The support points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Integrates a function: `ν(f) = Σ w_i f(x_i)`.
    pub fn integrate(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        self.points
            .iter()
            .zip(&self.weights)
            .map(|(x, &w)| w * f(x))
            .sum()
    }

    /// Mean of the first coordinate (common scalar observable).
    // analyze::allow(R8): markov/tests/properties.rs resample_is_unbiased_in_expectation checks resample through it
    pub fn mean_coord(&self, coord: usize) -> f64 {
        self.integrate(|x| x[coord])
    }

    /// Exact push-forward under `P*`: every particle splits across all
    /// positive-probability outgoing edges.
    ///
    /// # Panics
    /// Panics if any particle lies in no cell of the system.
    // analyze::allow(R8): markov/tests/properties.rs operator_duality_holds uses it as the exact P* reference
    pub fn push_forward_split(&self, ms: &MarkovSystem) -> ParticleMeasure {
        let mut points = Vec::new();
        let mut weights = Vec::new();
        for (x, &w) in self.points.iter().zip(&self.weights) {
            let v = ms.classify(x).expect("particle in no cell");
            let probs = ms.probabilities_at(x).expect("bad probabilities");
            for (&ei, &p) in ms.outgoing(v).iter().zip(&probs) {
                if p > 0.0 {
                    points.push((ms.edges()[ei].map)(x));
                    weights.push(w * p);
                }
            }
        }
        ParticleMeasure::weighted(points, weights)
    }

    /// Monte Carlo push-forward: each particle takes one random step.
    pub fn push_forward_sampled(&self, ms: &MarkovSystem, rng: &mut SimRng) -> ParticleMeasure {
        let points = self
            .points
            .iter()
            .map(|x| ms.step(x, rng).1)
            .collect::<Vec<_>>();
        ParticleMeasure {
            points,
            weights: self.weights.clone(),
        }
    }

    /// Prunes the support to at most `max_particles` by weight-proportional
    /// multinomial resampling.
    ///
    /// Multinomial (rather than systematic) resampling is deliberate: the
    /// particle order produced by [`Self::push_forward_split`] is strongly
    /// correlated with the state (children are emitted lower-map-first), so
    /// stride-based schemes would subsample a biased sweep of the support.
    pub fn resample(&self, max_particles: usize, rng: &mut SimRng) -> ParticleMeasure {
        assert!(max_particles > 0, "resample: zero target size");
        if self.points.len() <= max_particles {
            return self.clone();
        }
        let out: Vec<Vec<f64>> = (0..max_particles)
            .map(|_| self.points[rng.weighted_index(&self.weights)].clone())
            .collect();
        ParticleMeasure::uniform(&out)
    }
}

/// Applies the Markov operator to a function at a point:
/// `P f(x) = Σ_e p_e(x) f(w_e(x))`.
///
/// # Panics
/// Panics if `x` lies in no cell.
pub fn markov_operator_apply(ms: &MarkovSystem, f: impl Fn(&[f64]) -> f64, x: &[f64]) -> f64 {
    let v = ms.classify(x).expect("point in no cell");
    let probs = ms.probabilities_at(x).expect("bad probabilities");
    ms.outgoing(v)
        .iter()
        .zip(&probs)
        .map(|(&ei, &p)| {
            if p > 0.0 {
                p * f(&(ms.edges()[ei].map)(x))
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifs::{affine1d, IfsBuilder};

    fn binary_ifs_system() -> MarkovSystem {
        IfsBuilder::new(1)
            .map_const(affine1d(0.5, 0.0), 0.5)
            .map_const(affine1d(0.5, 0.5), 0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn dirac_and_uniform_construction() {
        let d = ParticleMeasure::dirac(&[1.0, 2.0]);
        assert_eq!(d.len(), 1);
        assert_eq!(d.weights(), &[1.0]);
        let u = ParticleMeasure::uniform(&[vec![0.0], vec![1.0]]);
        assert_eq!(u.weights(), &[0.5, 0.5]);
        assert!(!u.is_empty());
    }

    #[test]
    fn weighted_normalizes() {
        let m = ParticleMeasure::weighted(vec![vec![0.0], vec![1.0]], vec![2.0, 6.0]);
        assert!((m.weights()[0] - 0.25).abs() < 1e-15);
        assert!((m.weights()[1] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn integrate_and_mean() {
        let m = ParticleMeasure::weighted(vec![vec![0.0], vec![2.0]], vec![1.0, 1.0]);
        assert!((m.integrate(|x| x[0] * x[0]) - 2.0).abs() < 1e-15);
        assert!((m.mean_coord(0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn split_push_forward_of_dirac() {
        let ms = binary_ifs_system();
        let nu = ParticleMeasure::dirac(&[0.0]);
        let next = nu.push_forward_split(&ms);
        // Two children: 0.0 and 0.5, each with weight 0.5.
        assert_eq!(next.len(), 2);
        let mean = next.mean_coord(0);
        assert!((mean - 0.25).abs() < 1e-15);
    }

    #[test]
    fn iterated_split_converges_to_uniform_mean() {
        let ms = binary_ifs_system();
        let mut nu = ParticleMeasure::dirac(&[0.9]);
        for _ in 0..12 {
            nu = nu.push_forward_split(&ms);
        }
        // After n splits the measure is uniform on dyadic points; mean -> 1/2.
        assert!((nu.mean_coord(0) - 0.5).abs() < 1e-3);
        assert_eq!(nu.len(), 1 << 12);
    }

    #[test]
    fn sampled_push_forward_preserves_size() {
        let ms = binary_ifs_system();
        let mut rng = SimRng::new(3);
        let nu = ParticleMeasure::uniform(&vec![vec![0.3]; 100]);
        let next = nu.push_forward_sampled(&ms, &mut rng);
        assert_eq!(next.len(), 100);
        for p in next.points() {
            assert!(p[0] == 0.15 || p[0] == 0.65);
        }
    }

    #[test]
    fn resample_caps_support() {
        let ms = binary_ifs_system();
        let mut rng = SimRng::new(4);
        let mut nu = ParticleMeasure::dirac(&[0.5]);
        for _ in 0..10 {
            nu = nu.push_forward_split(&ms).resample(64, &mut rng);
        }
        assert!(nu.len() <= 64);
        // Mean should still approximate the invariant mean 1/2.
        assert!((nu.mean_coord(0) - 0.5).abs() < 0.15);
    }

    #[test]
    fn operator_apply_matches_hand_computation() {
        let ms = binary_ifs_system();
        // P f(x) with f = identity: 0.5*(x/2) + 0.5*(x/2 + 1/2) = x/2 + 1/4.
        let pf = markov_operator_apply(&ms, |x| x[0], &[0.6]);
        assert!((pf - 0.55).abs() < 1e-15);
    }

    #[test]
    fn operator_duality() {
        // ∫ P f dν must equal (P*ν)(f).
        let ms = binary_ifs_system();
        let nu = ParticleMeasure::uniform(&[vec![0.1], vec![0.7], vec![0.4]]);
        let f = |x: &[f64]| (3.0 * x[0]).sin();
        let lhs = nu.integrate(|x| markov_operator_apply(&ms, f, x));
        let rhs = nu.push_forward_split(&ms).integrate(f);
        assert!((lhs - rhs).abs() < 1e-12);
    }
}
