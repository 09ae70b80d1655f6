//! Place-dependent iterated function systems: the single-vertex special
//! case of a Markov system (Elton 1987, Barnsley-Elton-Hardin 1989).

use crate::system::{MarkovSystem, MarkovSystemBuilder, MarkovSystemError};

/// Builder of a place-dependent iterated function system on `R^dim`: a
/// single-vertex [`MarkovSystem`] whose maps need no vertex indices.
pub struct IfsBuilder {
    inner: MarkovSystemBuilder,
}

impl IfsBuilder {
    /// Starts building an IFS on `R^dim`.
    pub fn new(dim: usize) -> Self {
        IfsBuilder {
            inner: MarkovSystem::builder(dim).cell(|_| true),
        }
    }

    /// Adds a map with its place-dependent probability.
    pub fn map(
        mut self,
        w: impl Fn(&[f64]) -> Vec<f64> + Send + Sync + 'static,
        p: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.inner = self.inner.edge(0, 0, w, p);
        self
    }

    /// Adds a map with constant probability.
    pub fn map_const(self, w: impl Fn(&[f64]) -> Vec<f64> + Send + Sync + 'static, p: f64) -> Self {
        self.map(w, move |_| p)
    }

    /// Finalizes the IFS as its single-vertex Markov system.
    pub fn build(self) -> Result<MarkovSystem, MarkovSystemError> {
        self.inner.build()
    }
}

/// The classic affine contraction `x -> a x + b` on `R`, packaged for
/// tests and examples.
pub fn affine1d(a: f64, b: f64) -> impl Fn(&[f64]) -> Vec<f64> + Send + Sync + 'static {
    move |x: &[f64]| vec![a * x[0] + b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::validate_at;
    use eqimpact_stats::SimRng;

    fn binary_ifs() -> MarkovSystem {
        // The uniform-measure IFS on [0,1].
        IfsBuilder::new(1)
            .map_const(affine1d(0.5, 0.0), 0.5)
            .map_const(affine1d(0.5, 0.5), 0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_and_accessors() {
        let ifs = binary_ifs();
        assert_eq!(ifs.dim(), 1);
        assert_eq!(ifs.vertex_count(), 1);
        assert_eq!(ifs.probabilities_at(&[0.3]).unwrap(), vec![0.5, 0.5]);
        validate_at(&ifs, &[vec![0.0], vec![0.5], vec![1.0]]).unwrap();
    }

    #[test]
    fn trajectory_stays_in_unit_interval() {
        let ifs = binary_ifs();
        let mut rng = SimRng::new(9);
        for x in ifs.trajectory(&[0.5], 500, &mut rng) {
            assert!((0.0..=1.0).contains(&x[0]));
        }
    }

    #[test]
    fn uniform_invariant_measure_moments() {
        let ifs = binary_ifs();
        let mut rng = SimRng::new(10);
        let traj = ifs.trajectory(&[0.1], 50_000, &mut rng);
        let tail: Vec<f64> = traj.iter().skip(1000).map(|x| x[0]).collect();
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        let var: f64 =
            tail.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / tail.len() as f64;
        // Uniform [0,1]: mean 1/2, variance 1/12.
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var = {var}");
    }

    #[test]
    fn place_dependent_probabilities() {
        // Probability of the "up" map grows with x: p_up(x) = x, p_down = 1 - x.
        let ifs = IfsBuilder::new(1)
            .map(affine1d(0.9, 0.1), |x| x[0].clamp(0.0, 1.0))
            .map(affine1d(0.9, 0.0), |x| 1.0 - x[0].clamp(0.0, 1.0))
            .build()
            .unwrap();
        validate_at(&ifs, &[vec![0.0], vec![0.4], vec![1.0]]).unwrap();
        let p = ifs.probabilities_at(&[0.25]).unwrap();
        assert!((p[0] - 0.25).abs() < 1e-15);
        assert!((p[1] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn degenerate_probability_step_panics() {
        let ifs = IfsBuilder::new(1)
            .map_const(affine1d(1.0, 0.0), 0.0)
            .build()
            .unwrap();
        let mut rng = SimRng::new(1);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ifs.step(&[0.0], &mut rng)));
        assert!(result.is_err());
    }
}
