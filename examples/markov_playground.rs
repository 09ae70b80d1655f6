//! Tour of the Markov-system machinery behind the paper's guarantees
//! (Sec. VI + Appendix): build systems, check the structural conditions,
//! estimate invariant measures, and watch coupling do its work.
//!
//! ```text
//! cargo run --release --example markov_playground
//! ```

use eqimpact_linalg::norm::MetricKind;
use eqimpact_linalg::Matrix;
use eqimpact_markov::contractivity::box_sampler;
use eqimpact_markov::coupling::synchronous_coupling;
use eqimpact_markov::ergodic;
use eqimpact_markov::ifs::{affine1d, IfsBuilder};
use eqimpact_markov::invariant::{estimate_invariant_measure, FiniteChain};
use eqimpact_markov::operator::ParticleMeasure;
use eqimpact_stats::SimRng;

fn main() {
    // 1. A contractive, primitive IFS: the textbook uniquely ergodic case.
    let ms = IfsBuilder::new(1)
        .map_const(affine1d(0.5, 0.0), 0.5)
        .map_const(affine1d(0.5, 0.5), 0.5)
        .build()
        .unwrap();

    let mut rng = SimRng::new(1);
    let report = ergodic::analyze(
        &ms,
        MetricKind::Euclidean,
        500,
        &mut rng,
        box_sampler(vec![0.0], vec![1.0]),
    );
    println!("Contractive binary IFS on [0,1]");
    println!("  irreducible: {}", report.irreducible);
    println!("  period:      {:?}", report.period);
    println!(
        "  contraction: {:.3} over {} pairs",
        report.contractivity.estimated_factor, report.contractivity.pairs_evaluated
    );
    println!("  verdict:     {:?}", report.verdict);
    assert!(report.supports_equal_impact());

    // 2. Its invariant measure (uniform on [0,1]) by particle iteration.
    let estimate = estimate_invariant_measure(
        &ms,
        &ParticleMeasure::dirac(&[0.99]),
        2_000,
        120,
        0.02,
        &mut rng,
    );
    let n = estimate.final_samples.len() as f64;
    let mean = estimate.final_samples.iter().sum::<f64>() / n;
    let var = estimate
        .final_samples
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / n;
    println!("\nInvariant measure estimate (true: U[0,1], mean 0.5, var 1/12 = 0.0833)");
    println!(
        "  converged in {} iterations: mean {:.3}, var {:.4}",
        estimate.iterations, mean, var
    );

    // 3. Synchronous coupling: the distance halves every step.
    let trace = synchronous_coupling(
        &ms,
        &[0.0],
        &[1.0],
        30,
        MetricKind::Euclidean,
        1e-12,
        &mut rng,
    );
    println!("\nSynchronous coupling from x=0 and y=1:");
    for k in [0usize, 5, 10, 20] {
        println!("  step {k:>2}: distance {:.2e}", trace.distances[k]);
    }
    println!("  coupled at step {:?}", trace.coupled_at);

    // 4. Finite chains: primitive vs periodic.
    let primitive =
        FiniteChain::new(Matrix::from_rows(&[&[0.9, 0.1], &[0.4, 0.6]]).unwrap()).unwrap();
    let pi = primitive.stationary_distribution().unwrap();
    println!(
        "\nPrimitive 2-state chain: stationary = [{:.3}, {:.3}]",
        pi[0], pi[1]
    );
    let decay = primitive
        .tv_decay(&eqimpact_linalg::Vector::from_slice(&[1.0, 0.0]), 20)
        .unwrap();
    println!(
        "  TV to stationarity: start {:.3}, after 20 steps {:.2e}",
        decay[0], decay[20]
    );

    let periodic =
        FiniteChain::new(Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap()).unwrap();
    println!(
        "Periodic 2-cycle: irreducible = {}, aperiodic = {}",
        periodic.is_irreducible(),
        periodic.is_aperiodic()
    );
    let pdecay = periodic
        .tv_decay(&eqimpact_linalg::Vector::from_slice(&[1.0, 0.0]), 20)
        .unwrap();
    println!(
        "  TV plateau: after 20 steps still {:.3} (invariant measure exists but is not attractive)",
        pdecay[20]
    );

    println!("\nmarkov_playground: OK");
}
