//! Integration: the theory stack — graph conditions, contractivity,
//! invariant measures and ergodic averages agree with each other across
//! the `graph`, `markov` and `stats` crates.

use eqimpact_graph::DiGraph;
use eqimpact_linalg::norm::MetricKind;
use eqimpact_linalg::Matrix;
use eqimpact_markov::contractivity::box_sampler;
use eqimpact_markov::coupling::synchronous_coupling;
use eqimpact_markov::ergodic::{self, ErgodicityVerdict};
use eqimpact_markov::ifs::{affine1d, IfsBuilder};
use eqimpact_markov::invariant::{estimate_invariant_measure, FiniteChain};
use eqimpact_markov::operator::ParticleMeasure;
use eqimpact_markov::MarkovSystem;
use eqimpact_stats::converge::{fit_geometric_rate, kolmogorov_smirnov};
use eqimpact_stats::SimRng;

fn binary_ifs() -> MarkovSystem {
    IfsBuilder::new(1)
        .map_const(affine1d(0.5, 0.0), 0.5)
        .map_const(affine1d(0.5, 0.5), 0.5)
        .build()
        .unwrap()
}

#[test]
fn markov_system_graph_matches_finite_chain_structure() {
    // The support graph of a finite chain and the graph of the equivalent
    // Markov system agree on irreducibility/aperiodicity.
    let p = Matrix::from_rows(&[&[0.5, 0.5], &[1.0, 0.0]]).unwrap();
    let chain = FiniteChain::new(p).unwrap();
    assert!(chain.is_irreducible());
    assert!(chain.is_aperiodic());

    let g = DiGraph::from_edges(2, &[(0, 0), (0, 1), (1, 0)]);
    assert!(g.is_strongly_connected());
    assert_eq!(g.period(), Some(1));
    assert!(g.is_primitive());
    assert_eq!(chain.graph().adjacency_matrix(), g.adjacency_matrix());
}

#[test]
fn unique_ergodicity_predicts_equal_impact_empirically() {
    // Sec. VI's chain of reasoning, executed end to end: structural
    // verdict -> empirical equal impact from several initial conditions.
    let ms = binary_ifs();
    let mut rng = SimRng::new(1);
    let verdict = ergodic::analyze(
        &ms,
        MetricKind::Euclidean,
        400,
        &mut rng,
        box_sampler(vec![0.0], vec![1.0]),
    );
    assert_eq!(verdict.verdict, ErgodicityVerdict::UniquelyErgodic);

    let test = ergodic::empirical_equal_impact(
        &ms,
        &[vec![0.0], vec![0.25], vec![0.5], vec![1.0]],
        30_000,
        0.02,
        &mut rng,
        |x| x[0],
    );
    assert!(test.passed, "spread = {}", test.spread);
}

#[test]
fn invariant_measure_matches_long_run_trajectory_law() {
    // Elton's theorem, numerically: the empirical law of one long
    // trajectory matches the particle-estimated invariant measure.
    let ms = binary_ifs();
    let mut rng = SimRng::new(2);
    let estimate = estimate_invariant_measure(
        &ms,
        &ParticleMeasure::dirac(&[0.7]),
        3_000,
        150,
        0.02,
        &mut rng,
    );
    assert!(estimate.converged);

    let traj = ms.trajectory(&[0.1], 5_000, &mut rng);
    let traj_samples: Vec<f64> = traj.iter().skip(500).map(|x| x[0]).collect();
    let d = kolmogorov_smirnov(&traj_samples, &estimate.final_samples);
    assert!(d < 0.05, "KS distance = {d}");
}

#[test]
fn coupling_rate_matches_contraction_factor() {
    // The synchronous-coupling distance decays at the contraction rate
    // estimated by the contractivity sweep.
    let ms = binary_ifs();
    let mut rng = SimRng::new(3);
    let report = eqimpact_markov::contractivity::estimate_contraction_factor(
        &ms,
        MetricKind::Euclidean,
        300,
        &mut rng,
        box_sampler(vec![0.0], vec![1.0]),
    );
    assert!((report.estimated_factor - 0.5).abs() < 1e-9);

    let trace = synchronous_coupling(
        &ms,
        &[0.0],
        &[1.0],
        40,
        MetricKind::Euclidean,
        0.0,
        &mut rng,
    );
    let rate = fit_geometric_rate(&trace.distances).expect("positive distances");
    assert!(
        (rate - report.estimated_factor).abs() < 0.02,
        "coupling rate {rate} vs contraction {}",
        report.estimated_factor
    );
}

#[test]
fn periodic_system_fails_attractivity_but_keeps_cesaro_limits() {
    // The A3 dichotomy at the API level: the periodic chain's TV distance
    // plateaus, yet the Cesàro average of a trajectory still converges.
    let chain = FiniteChain::new(Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap()).unwrap();
    let nu = eqimpact_linalg::Vector::from_slice(&[1.0, 0.0]);
    let decay = chain.tv_decay(&nu, 40).unwrap();
    assert!((decay.last().unwrap() - 0.5).abs() < 1e-12);

    let mut rng = SimRng::new(4);
    let states = chain.simulate(0, 10_000, &mut rng);
    let cesaro = eqimpact_stats::timeseries::cesaro_trajectory(
        &states.iter().map(|&s| s as f64).collect::<Vec<_>>(),
    );
    assert!((cesaro.last().unwrap() - 0.5).abs() < 1e-3);
}

#[test]
fn reducible_system_breaks_equal_impact() {
    // Two invariant components -> limits depend on the initial condition.
    let ms = MarkovSystem::builder(1)
        .cell(|x| x[0] < 0.0)
        .cell(|x| x[0] >= 0.0)
        .edge(0, 0, |x| vec![0.5 * x[0] - 0.5], |_| 1.0)
        .edge(1, 1, |x| vec![0.5 * x[0] + 0.5], |_| 1.0)
        .build()
        .unwrap();
    let mut rng = SimRng::new(5);
    let verdict = ergodic::analyze(
        &ms,
        MetricKind::Euclidean,
        300,
        &mut rng,
        box_sampler(vec![-1.0], vec![1.0]),
    );
    assert_eq!(verdict.verdict, ErgodicityVerdict::NotIrreducible);

    let test =
        ergodic::empirical_equal_impact(&ms, &[vec![-0.9], vec![0.9]], 3_000, 0.1, &mut rng, |x| {
            x[0]
        });
    assert!(!test.passed);
    assert!(test.spread > 1.5);
}

#[test]
fn wielandt_graph_exercises_primitivity_bound() {
    // The extremal Wielandt graph: primitive with the maximal exponent.
    let n = 6usize;
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.push((n - 2, 0));
    let g = DiGraph::from_edges(n, &edges);
    assert!(g.is_primitive());
    let exp = eqimpact_graph::primitivity::primitivity_exponent(&g).unwrap();
    assert_eq!(exp, (n - 1) * (n - 1) + 1);
}
