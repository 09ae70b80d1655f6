//! Invariant-measure computation.
//!
//! Two regimes:
//!
//! * **Finite chains** ([`FiniteChain`]): the stationary distribution is
//!   the solution of `πᵀ P = πᵀ`, computed exactly by a linear solve; the
//!   structural conditions (irreducibility, aperiodicity) are read off the
//!   transition graph.
//! * **General Markov systems**: the invariant measure is *estimated* by
//!   iterating the adjoint operator on a particle cloud
//!   ([`estimate_invariant_measure`]) with resampling, monitoring the decay
//!   of consecutive-iterate distances.

use crate::operator::ParticleMeasure;
use crate::system::MarkovSystem;
use eqimpact_graph::DiGraph;
use eqimpact_linalg::{LinalgError, Matrix, Vector};
use eqimpact_stats::converge::wasserstein1;
use eqimpact_stats::SimRng;

/// A finite-state Markov chain with a row-stochastic transition matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FiniteChain {
    p: Matrix,
}

/// Errors from finite-chain construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum FiniteChainError {
    /// The matrix is not square.
    NotSquare,
    /// A row does not sum to 1 (within tolerance) or has negative entries.
    NotStochastic {
        /// Offending row.
        row: usize,
    },
    /// The stationary linear system could not be solved.
    Solve(LinalgError),
}

impl std::fmt::Display for FiniteChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FiniteChainError::NotSquare => write!(f, "transition matrix not square"),
            FiniteChainError::NotStochastic { row } => {
                write!(f, "row {row} is not a probability vector")
            }
            FiniteChainError::Solve(e) => write!(f, "stationary solve failed: {e}"),
        }
    }
}

impl std::error::Error for FiniteChainError {}

impl FiniteChain {
    /// Creates a chain from a row-stochastic matrix.
    pub fn new(p: Matrix) -> Result<Self, FiniteChainError> {
        if !p.is_square() {
            return Err(FiniteChainError::NotSquare);
        }
        for i in 0..p.rows() {
            let row = p.row_slice(i);
            if row.iter().any(|&x| x < -1e-12 || x.is_nan()) {
                return Err(FiniteChainError::NotStochastic { row: i });
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(FiniteChainError::NotStochastic { row: i });
            }
        }
        Ok(FiniteChain { p })
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.p.rows()
    }

    /// The support graph (edge where `p_ij > 0`).
    pub fn graph(&self) -> DiGraph {
        let n = self.p.rows();
        let mut g = DiGraph::new(n);
        for i in 0..n {
            for j in 0..n {
                if self.p[(i, j)] > 0.0 {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Whether the chain is irreducible (support graph strongly connected).
    pub fn is_irreducible(&self) -> bool {
        self.graph().is_strongly_connected()
    }

    /// Whether the chain is aperiodic (and irreducible).
    pub fn is_aperiodic(&self) -> bool {
        self.graph().is_aperiodic()
    }

    /// Whether the chain is ergodic in the strong sense: irreducible and
    /// aperiodic, so `P^n -> 1 πᵀ`.
    pub fn is_primitive(&self) -> bool {
        self.graph().is_primitive()
    }

    /// The stationary distribution `π` with `πᵀ P = πᵀ`, computed by
    /// replacing one equation of `(Pᵀ - I) π = 0` with the normalization
    /// `Σ π_i = 1`.
    ///
    /// For irreducible chains this is the unique stationary law. For
    /// reducible chains the solve may fail or return one of several
    /// stationary vectors; check [`Self::is_irreducible`] first when
    /// uniqueness matters.
    pub fn stationary_distribution(&self) -> Result<Vector, FiniteChainError> {
        let n = self.p.rows();
        // A = Pᵀ - I with the last row replaced by ones; b = e_n.
        let pt = self.p.transpose();
        let mut a = pt.checked_sub(&Matrix::identity(n)).expect("same shape");
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        let mut b = Vector::zeros(n);
        b[n - 1] = 1.0;
        let pi = a.solve(&b).map_err(FiniteChainError::Solve)?;
        // Clamp tiny negative round-off and renormalize.
        let clamped: Vec<f64> = pi.iter().map(|&x| x.max(0.0)).collect();
        let total: f64 = clamped.iter().sum();
        if total <= 0.0 {
            return Err(FiniteChainError::Solve(LinalgError::Singular { pivot: 0 }));
        }
        Ok(Vector::from_vec(
            clamped.into_iter().map(|x| x / total).collect(),
        ))
    }

    /// Evolves a distribution one step: `νᵀ P`.
    ///
    /// # Panics
    /// Panics when `nu` has the wrong length.
    pub fn evolve(&self, nu: &Vector) -> Vector {
        self.p.transpose_mat_vec(nu)
    }

    /// Evolves `nu` for `steps` steps.
    // analyze::allow(R8): markov/tests/properties.rs evolution_preserves_probability_mass iterates evolve through it
    pub fn evolve_n(&self, nu: &Vector, steps: usize) -> Vector {
        let mut v = nu.clone();
        for _ in 0..steps {
            v = self.evolve(&v);
        }
        v
    }

    /// Simulates a state trajectory of the chain.
    // analyze::allow(R8): tests/integration_theory.rs draws the periodic chain's trajectory with it
    pub fn simulate(&self, start: usize, steps: usize, rng: &mut SimRng) -> Vec<usize> {
        assert!(start < self.state_count(), "start state out of range");
        let mut states = Vec::with_capacity(steps + 1);
        let mut s = start;
        states.push(s);
        for _ in 0..steps {
            s = rng.weighted_index(self.p.row_slice(s));
            states.push(s);
        }
        states
    }

    /// Mixing estimate: total-variation distance `‖νᵀP^n − πᵀ‖_TV` for
    /// `n = 0..steps`, from initial distribution `nu`.
    pub fn tv_decay(&self, nu: &Vector, steps: usize) -> Result<Vec<f64>, FiniteChainError> {
        let pi = self.stationary_distribution()?;
        let mut v = nu.clone();
        let mut out = Vec::with_capacity(steps + 1);
        for _ in 0..=steps {
            let tv = 0.5
                * v.iter()
                    .zip(pi.iter())
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            out.push(tv);
            v = self.evolve(&v);
        }
        Ok(out)
    }
}

/// Result of iterating `P*` on a particle cloud.
#[derive(Debug, Clone)]
pub struct InvariantMeasureEstimate {
    /// First-coordinate samples of the final particle cloud (a proxy for
    /// the invariant measure's marginal).
    pub final_samples: Vec<f64>,
    /// 1-Wasserstein distance between consecutive iterates (first
    /// coordinate), one entry per iteration.
    pub iterate_distances: Vec<f64>,
    /// Whether the distances fell below `tolerance` before the budget ran
    /// out.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
}

/// Estimates the invariant measure of a Markov system by iterating the
/// sampled adjoint operator on a particle cloud of size `particles`,
/// stopping when the 1-Wasserstein distance between consecutive iterates
/// (first coordinate) stays below `tolerance` for three consecutive
/// iterations, or after `max_iter` iterations.
pub fn estimate_invariant_measure(
    ms: &MarkovSystem,
    initial: &ParticleMeasure,
    particles: usize,
    max_iter: usize,
    tolerance: f64,
    rng: &mut SimRng,
) -> InvariantMeasureEstimate {
    let mut cloud = initial.resample(particles, rng);
    // Pad up to the target size by resampling with replacement.
    if cloud.len() < particles {
        let pts: Vec<Vec<f64>> = (0..particles)
            .map(|_| {
                let i = rng.weighted_index(cloud.weights());
                cloud.points()[i].clone()
            })
            .collect();
        cloud = ParticleMeasure::uniform(&pts);
    }

    let mut distances = Vec::with_capacity(max_iter);
    let mut below = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;

    for _ in 0..max_iter {
        let next = cloud.push_forward_sampled(ms, rng);
        let a: Vec<f64> = cloud.points().iter().map(|p| p[0]).collect();
        let b: Vec<f64> = next.points().iter().map(|p| p[0]).collect();
        let d = wasserstein1(&a, &b);
        distances.push(d);
        cloud = next;
        iterations += 1;
        if d < tolerance {
            below += 1;
            if below >= 3 {
                converged = true;
                break;
            }
        } else {
            below = 0;
        }
    }

    InvariantMeasureEstimate {
        final_samples: cloud.points().iter().map(|p| p[0]).collect(),
        iterate_distances: distances,
        converged,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifs::{affine1d, IfsBuilder};

    fn two_state_chain() -> FiniteChain {
        FiniteChain::new(Matrix::from_rows(&[&[0.9, 0.1], &[0.4, 0.6]]).unwrap()).unwrap()
    }

    #[test]
    fn rejects_non_square_and_non_stochastic() {
        assert_eq!(
            FiniteChain::new(Matrix::zeros(2, 3)).unwrap_err(),
            FiniteChainError::NotSquare
        );
        let bad = Matrix::from_rows(&[&[0.5, 0.2], &[0.4, 0.6]]).unwrap();
        assert!(matches!(
            FiniteChain::new(bad).unwrap_err(),
            FiniteChainError::NotStochastic { row: 0 }
        ));
        let neg = Matrix::from_rows(&[&[1.5, -0.5], &[0.4, 0.6]]).unwrap();
        assert!(matches!(
            FiniteChain::new(neg).unwrap_err(),
            FiniteChainError::NotStochastic { row: 0 }
        ));
    }

    #[test]
    fn stationary_of_two_state_chain() {
        // π = (q, p)/(p+q) for the generic 2-state chain with p01=0.1, p10=0.4.
        let c = two_state_chain();
        let pi = c.stationary_distribution().unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
        // Verify fixed point: πᵀ P = πᵀ.
        let evolved = c.evolve(&pi);
        assert!((&evolved - &pi).norm_inf() < 1e-12);
    }

    #[test]
    fn structural_classification() {
        let c = two_state_chain();
        assert!(c.is_irreducible());
        assert!(c.is_aperiodic());
        assert!(c.is_primitive());

        // Periodic 2-cycle: irreducible but not aperiodic.
        let per =
            FiniteChain::new(Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap()).unwrap();
        assert!(per.is_irreducible());
        assert!(!per.is_aperiodic());
        assert!(!per.is_primitive());
        // Its stationary distribution still exists and is uniform.
        let pi = per.stationary_distribution().unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-12);

        // Reducible chain: two absorbing states.
        let red =
            FiniteChain::new(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap()).unwrap();
        assert!(!red.is_irreducible());
    }

    #[test]
    fn evolve_n_converges_for_primitive_chain() {
        let c = two_state_chain();
        let nu = Vector::from_slice(&[0.0, 1.0]);
        let v = c.evolve_n(&nu, 200);
        assert!((v[0] - 0.8).abs() < 1e-10);
    }

    #[test]
    fn tv_decay_is_monotone_for_primitive_chain() {
        let c = two_state_chain();
        let decay = c.tv_decay(&Vector::from_slice(&[0.0, 1.0]), 30).unwrap();
        assert_eq!(decay.len(), 31);
        assert!(decay[0] > 0.5);
        assert!(decay[30] < 1e-6);
        for w in decay.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn tv_decay_fails_to_vanish_for_periodic_chain() {
        let per =
            FiniteChain::new(Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap()).unwrap();
        let decay = per.tv_decay(&Vector::from_slice(&[1.0, 0.0]), 20).unwrap();
        // The distribution oscillates and never approaches uniform.
        assert!(decay.iter().all(|&d| (d - 0.5).abs() < 1e-12));
    }

    #[test]
    fn simulation_visits_states_proportionally() {
        let c = two_state_chain();
        let mut rng = SimRng::new(11);
        let states = c.simulate(1, 50_000, &mut rng);
        let ones = states.iter().filter(|&&s| s == 1).count() as f64;
        let frac = ones / states.len() as f64;
        assert!((frac - 0.2).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn particle_estimation_of_uniform_invariant_measure() {
        let ms = IfsBuilder::new(1)
            .map_const(affine1d(0.5, 0.0), 0.5)
            .map_const(affine1d(0.5, 0.5), 0.5)
            .build()
            .unwrap();
        let mut rng = SimRng::new(12);
        let est = estimate_invariant_measure(
            &ms,
            &ParticleMeasure::dirac(&[0.9]),
            2000,
            200,
            0.01,
            &mut rng,
        );
        assert!(
            est.converged,
            "did not converge: {:?}",
            est.iterate_distances
        );
        // Invariant measure is U[0,1]: check mean and variance.
        let n = est.final_samples.len() as f64;
        let mean: f64 = est.final_samples.iter().sum::<f64>() / n;
        let var: f64 = est
            .final_samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        assert!((mean - 0.5).abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn error_display() {
        let e = FiniteChainError::NotStochastic { row: 3 };
        assert!(e.to_string().contains("row 3"));
        assert!(FiniteChainError::NotSquare.to_string().contains("square"));
    }
}
