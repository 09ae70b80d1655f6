//! Property-based tests for Markov systems and finite chains.

use eqimpact_linalg::Matrix;
use eqimpact_markov::ifs::{affine1d, IfsBuilder};
use eqimpact_markov::operator::{markov_operator_apply, ParticleMeasure};
use eqimpact_markov::{FiniteChain, MarkovSystem};
use eqimpact_stats::SimRng;
use proptest::prelude::*;

/// Strategy: a random row-stochastic matrix with strictly positive entries
/// (hence primitive).
fn positive_stochastic(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(0.05f64..1.0, n * n).prop_map(move |raw| {
        let mut m = Matrix::from_vec(n, n, raw).unwrap();
        for i in 0..n {
            let s: f64 = m.row_slice(i).iter().sum();
            for j in 0..n {
                m[(i, j)] /= s;
            }
        }
        m
    })
}

/// Strategy: an IFS of 2-4 affine contractions on R with constant
/// probabilities.
fn contractive_ifs() -> impl Strategy<Value = MarkovSystem> {
    prop::collection::vec((-0.9f64..0.9, -1.0f64..1.0, 0.1f64..1.0), 2..5).prop_map(|maps| {
        let total: f64 = maps.iter().map(|m| m.2).sum();
        let mut b = IfsBuilder::new(1);
        for (a, c, w) in maps {
            b = b.map_const(affine1d(a, c), w / total);
        }
        b.build().unwrap()
    })
}

proptest! {
    #[test]
    fn stationary_distribution_is_fixed_point(p in positive_stochastic(4)) {
        let chain = FiniteChain::new(p).unwrap();
        prop_assert!(chain.is_primitive());
        let pi = chain.stationary_distribution().unwrap();
        // π is a probability vector.
        prop_assert!((pi.sum() - 1.0).abs() < 1e-9);
        prop_assert!(pi.iter().all(|&x| x >= -1e-12));
        // πᵀ P = πᵀ.
        let evolved = chain.evolve(&pi);
        prop_assert!((&evolved - &pi).norm_inf() < 1e-9);
    }

    #[test]
    fn evolution_preserves_probability_mass(p in positive_stochastic(3)) {
        let chain = FiniteChain::new(p).unwrap();
        let nu = eqimpact_linalg::Vector::from_slice(&[0.2, 0.5, 0.3]);
        let out = chain.evolve_n(&nu, 7);
        prop_assert!((out.sum() - 1.0).abs() < 1e-9);
        prop_assert!(out.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn tv_decay_monotone_for_positive_chains(p in positive_stochastic(3)) {
        let chain = FiniteChain::new(p).unwrap();
        let nu = eqimpact_linalg::Vector::from_slice(&[1.0, 0.0, 0.0]);
        let decay = chain.tv_decay(&nu, 25).unwrap();
        for w in decay.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9);
        }
        prop_assert!(decay[25] < decay[0] + 1e-12);
    }

    #[test]
    fn ifs_probabilities_normalized(ifs in contractive_ifs(), x in -5.0f64..5.0) {
        let probs = ifs.probabilities_at(&[x]).unwrap();
        let total: f64 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn operator_duality_holds(ms in contractive_ifs(), pts in prop::collection::vec(-2.0f64..2.0, 1..6)) {
        let points: Vec<Vec<f64>> = pts.iter().map(|&x| vec![x]).collect();
        let nu = ParticleMeasure::uniform(&points);
        let f = |x: &[f64]| x[0] * x[0] + 1.0;
        let lhs = nu.integrate(|x| markov_operator_apply(&ms, f, x));
        let rhs = nu.push_forward_split(&ms).integrate(f);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn push_forward_preserves_mass(ms in contractive_ifs(), x0 in -2.0f64..2.0) {
        let nu = ParticleMeasure::dirac(&[x0]);
        let next = nu.push_forward_split(&ms);
        let total: f64 = next.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn synchronous_coupling_contracts_affine_ifs(
        ms in contractive_ifs(),
        x0 in -1.0f64..1.0,
        y0 in -1.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // For IFS of |slope| <= 0.9 affine maps with state-independent
        // probabilities, synchronous coupling contracts by at least 0.9
        // per step.
        let mut rng = SimRng::new(seed);
        let trace = eqimpact_markov::coupling::synchronous_coupling(
            &ms, &[x0], &[y0], 50,
            eqimpact_linalg::norm::MetricKind::Euclidean,
            1e-9, &mut rng,
        );
        let d0 = (x0 - y0).abs();
        let bound = d0 * 0.9f64.powi(50) + 1e-9;
        prop_assert!(trace.final_distance() <= bound,
            "final {} > bound {}", trace.final_distance(), bound);
    }

    #[test]
    fn trajectory_length_contract(ifs in contractive_ifs(), steps in 0usize..50, seed in 0u64..100) {
        let mut rng = SimRng::new(seed);
        let traj = ifs.trajectory(&[0.0], steps, &mut rng);
        prop_assert_eq!(traj.len(), steps + 1);
    }

    #[test]
    fn resample_is_unbiased_in_expectation(seed in 0u64..200) {
        // Mean of the resampled cloud should stay near the original mean.
        let pts: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64 / 255.0]).collect();
        let nu = ParticleMeasure::uniform(&pts);
        let mut rng = SimRng::new(seed);
        let r = nu.resample(64, &mut rng);
        prop_assert_eq!(r.len(), 64);
        prop_assert!((r.mean_coord(0) - 0.5).abs() < 0.2);
    }
}
