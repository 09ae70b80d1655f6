//! Unique-ergodicity analysis: the paper's Sec. VI verdict.
//!
//! The theorem chain implemented here (Werner 2004 via the paper):
//!
//! 1. graph strongly connected (irreducible) ⇒ an invariant measure exists;
//! 2. adjacency matrix additionally primitive (aperiodic) **and** the
//!    system average-contractive ⇒ the invariant measure is attractive and
//!    the system uniquely ergodic;
//! 3. unique ergodicity ⇒ Cesàro averages of observables converge to the
//!    same limit from every initial condition — exactly the paper's **equal
//!    impact** (Def. 3).
//!
//! [`analyze`] produces the structural verdict; [`elton_average`] and
//! [`empirical_equal_impact`] provide the empirical counterparts.

use crate::contractivity::{estimate_contraction_factor, ContractivityReport};
use crate::system::MarkovSystem;
use eqimpact_linalg::norm::MetricKind;
use eqimpact_stats::timeseries::cesaro_trajectory;
use eqimpact_stats::SimRng;

/// Structural verdict on ergodicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErgodicityVerdict {
    /// Irreducible + aperiodic + contractive: unique attractive invariant
    /// measure; equal impact achievable.
    UniquelyErgodic,
    /// Irreducible (an invariant measure exists) but periodic or not
    /// verified contractive: convergence only in the Cesàro sense, if at
    /// all.
    InvariantMeasureExists,
    /// Not irreducible: multiple recurrent classes possible; equal impact
    /// across users is not guaranteed.
    NotIrreducible,
}

impl eqimpact_stats::ToJson for ErgodicityVerdict {
    fn to_json(&self) -> eqimpact_stats::Json {
        eqimpact_stats::Json::Str(
            match self {
                ErgodicityVerdict::UniquelyErgodic => "uniquely_ergodic",
                ErgodicityVerdict::InvariantMeasureExists => "invariant_measure_exists",
                ErgodicityVerdict::NotIrreducible => "not_irreducible",
            }
            .to_string(),
        )
    }
}

/// Full report of the structural + numerical analysis.
#[derive(Debug, Clone)]
pub struct UniqueErgodicityReport {
    /// The verdict.
    pub verdict: ErgodicityVerdict,
    /// Whether the underlying graph is strongly connected.
    pub irreducible: bool,
    /// Graph period, when defined.
    pub period: Option<u64>,
    /// Whether the adjacency matrix is primitive.
    pub primitive: bool,
    /// The contractivity sweep.
    pub contractivity: ContractivityReport,
}

impl UniqueErgodicityReport {
    /// Whether the analysis supports the equal-impact property (unique
    /// attractive invariant measure).
    pub fn supports_equal_impact(&self) -> bool {
        self.verdict == ErgodicityVerdict::UniquelyErgodic
    }
}

/// Runs the combined structural and numerical analysis of a Markov system:
/// graph irreducibility, aperiodicity/primitivity, and a sampled
/// average-contractivity sweep with `n_pairs` pairs from `sampler`.
pub fn analyze(
    ms: &MarkovSystem,
    metric: MetricKind,
    n_pairs: usize,
    rng: &mut SimRng,
    sampler: impl FnMut(&mut SimRng) -> Vec<f64>,
) -> UniqueErgodicityReport {
    let g = ms.graph();
    let irreducible = g.is_strongly_connected();
    let period = g.period();
    let primitive = g.is_primitive();
    let contractivity = estimate_contraction_factor(ms, metric, n_pairs, rng, sampler);

    let verdict = if !irreducible {
        ErgodicityVerdict::NotIrreducible
    } else if primitive && contractivity.is_contractive() {
        ErgodicityVerdict::UniquelyErgodic
    } else {
        ErgodicityVerdict::InvariantMeasureExists
    };

    UniqueErgodicityReport {
        verdict,
        irreducible,
        period,
        primitive,
        contractivity,
    }
}

/// Elton's ergodic average: the Cesàro trajectory of the observable `f`
/// along a single simulated path from `x0`.
///
/// For uniquely ergodic systems, Elton's theorem says this converges a.s.
/// to `µ(f)` regardless of `x0`.
pub fn elton_average(
    ms: &MarkovSystem,
    x0: &[f64],
    steps: usize,
    rng: &mut SimRng,
    f: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let obs = ms.observable_trajectory(x0, steps, rng, f);
    cesaro_trajectory(&obs)
}

/// Result of the empirical equal-impact test.
#[derive(Debug, Clone)]
pub struct EqualImpactTest {
    /// Final Cesàro average per initial condition.
    pub limits: Vec<f64>,
    /// Max pairwise spread between the limits.
    pub spread: f64,
    /// Whether the spread is below the tolerance used.
    pub passed: bool,
}

/// Empirical equal-impact check (Def. 3 of the paper): runs the ergodic
/// average from several initial conditions (with independent randomness)
/// and verifies all limits coincide within `tolerance`.
pub fn empirical_equal_impact(
    ms: &MarkovSystem,
    initials: &[Vec<f64>],
    steps: usize,
    tolerance: f64,
    rng: &mut SimRng,
    f: impl Fn(&[f64]) -> f64 + Copy,
) -> EqualImpactTest {
    let mut limits = Vec::with_capacity(initials.len());
    for (i, x0) in initials.iter().enumerate() {
        let mut stream = rng.split(i as u64);
        let avg = elton_average(ms, x0, steps, &mut stream, f);
        limits.push(*avg.last().expect("steps >= 0 gives at least one value"));
    }
    let spread = limits.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x))
        - limits.iter().fold(f64::INFINITY, |m, &x| m.min(x));
    EqualImpactTest {
        spread,
        passed: spread <= tolerance,
        limits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contractivity::box_sampler;
    use crate::ifs::{affine1d, IfsBuilder};

    fn contractive_system() -> MarkovSystem {
        IfsBuilder::new(1)
            .map_const(affine1d(0.5, 0.0), 0.5)
            .map_const(affine1d(0.5, 0.5), 0.5)
            .build()
            .unwrap()
    }

    /// A two-cell deterministic flip system: irreducible but period 2.
    fn periodic_system() -> MarkovSystem {
        MarkovSystem::builder(1)
            .cell(|x| x[0] < 0.0)
            .cell(|x| x[0] >= 0.0)
            .edge(0, 1, |x| vec![-0.5 * x[0] + 0.1], |_| 1.0)
            .edge(1, 0, |x| vec![-0.5 * x[0] - 0.1], |_| 1.0)
            .build()
            .unwrap()
    }

    /// Two disconnected self-loops: not irreducible.
    fn reducible_system() -> MarkovSystem {
        MarkovSystem::builder(1)
            .cell(|x| x[0] < 0.0)
            .cell(|x| x[0] >= 0.0)
            .edge(0, 0, |x| vec![0.5 * x[0] - 0.5], |_| 1.0)
            .edge(1, 1, |x| vec![0.5 * x[0] + 0.5], |_| 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn contractive_primitive_system_is_uniquely_ergodic() {
        let ms = contractive_system();
        let mut rng = SimRng::new(1);
        let report = analyze(
            &ms,
            MetricKind::Euclidean,
            400,
            &mut rng,
            box_sampler(vec![0.0], vec![1.0]),
        );
        assert!(report.irreducible);
        assert!(report.primitive);
        assert_eq!(report.period, Some(1));
        assert!(report.contractivity.is_contractive());
        assert_eq!(report.verdict, ErgodicityVerdict::UniquelyErgodic);
        assert!(report.supports_equal_impact());
    }

    #[test]
    fn periodic_system_only_has_invariant_measure() {
        let ms = periodic_system();
        let mut rng = SimRng::new(2);
        let report = analyze(
            &ms,
            MetricKind::Euclidean,
            400,
            &mut rng,
            box_sampler(vec![-1.0], vec![1.0]),
        );
        assert!(report.irreducible);
        assert_eq!(report.period, Some(2));
        assert!(!report.primitive);
        assert_eq!(report.verdict, ErgodicityVerdict::InvariantMeasureExists);
        assert!(!report.supports_equal_impact());
    }

    #[test]
    fn single_state_chain_analyzes_without_panicking() {
        // The degenerate one-state chain (a single whole-space cell with
        // one self-loop) is what trace extraction produces when every
        // sample lands in the same bin. It must analyze cleanly: the
        // trivial graph is irreducible and aperiodic, and the verdict
        // hinges entirely on the sampled contraction factor.
        let contracting = MarkovSystem::builder(1)
            .edge(0, 0, |x| vec![0.5 * x[0]], |_| 1.0)
            .build()
            .unwrap();
        let mut rng = SimRng::new(11);
        let report = analyze(
            &contracting,
            MetricKind::Euclidean,
            200,
            &mut rng,
            box_sampler(vec![-1.0], vec![1.0]),
        );
        assert!(report.irreducible);
        assert_eq!(report.period, Some(1));
        assert!(report.primitive);
        assert_eq!(report.verdict, ErgodicityVerdict::UniquelyErgodic);

        // The identity self-loop is the fully-information-free case:
        // nothing contracts, so the verdict must stop at "invariant
        // measure exists" with a clean factor of one — no NaN, no panic.
        let frozen = MarkovSystem::builder(1)
            .edge(0, 0, |x| vec![x[0]], |_| 1.0)
            .build()
            .unwrap();
        let report = analyze(
            &frozen,
            MetricKind::Euclidean,
            200,
            &mut rng,
            box_sampler(vec![-1.0], vec![1.0]),
        );
        assert!(report.irreducible && report.primitive);
        assert!((report.contractivity.estimated_factor - 1.0).abs() < 1e-12);
        assert!(!report.contractivity.estimated_factor.is_nan());
        assert_eq!(report.verdict, ErgodicityVerdict::InvariantMeasureExists);
    }

    #[test]
    fn reducible_system_flagged() {
        let ms = reducible_system();
        let mut rng = SimRng::new(3);
        let report = analyze(
            &ms,
            MetricKind::Euclidean,
            400,
            &mut rng,
            box_sampler(vec![-1.0], vec![1.0]),
        );
        assert!(!report.irreducible);
        assert_eq!(report.verdict, ErgodicityVerdict::NotIrreducible);
    }

    #[test]
    fn elton_average_converges_to_invariant_mean() {
        let ms = contractive_system();
        let mut rng = SimRng::new(4);
        let avg = elton_average(&ms, &[0.99], 20_000, &mut rng, |x| x[0]);
        assert!((avg.last().unwrap() - 0.5).abs() < 0.01);
    }

    #[test]
    fn equal_impact_passes_for_uniquely_ergodic() {
        let ms = contractive_system();
        let mut rng = SimRng::new(5);
        let test = empirical_equal_impact(
            &ms,
            &[vec![0.0], vec![0.5], vec![1.0]],
            20_000,
            0.02,
            &mut rng,
            |x| x[0],
        );
        assert!(test.passed, "spread = {}", test.spread);
        assert_eq!(test.limits.len(), 3);
    }

    #[test]
    fn equal_impact_fails_for_reducible_system() {
        // Trajectories started in different cells converge to different
        // fixed points (-1 and +1), so the Cesàro limits differ.
        let ms = reducible_system();
        let mut rng = SimRng::new(6);
        let test =
            empirical_equal_impact(&ms, &[vec![-0.5], vec![0.5]], 2_000, 0.1, &mut rng, |x| {
                x[0]
            });
        assert!(!test.passed);
        assert!(test.spread > 1.5, "spread = {}", test.spread);
    }

    #[test]
    fn periodic_system_cesaro_still_converges() {
        // Even without attractivity, the Cesàro average settles (to the
        // average over the period-2 structure).
        let ms = periodic_system();
        let mut rng = SimRng::new(7);
        let avg = elton_average(&ms, &[0.3], 5_000, &mut rng, |x| x[0]);
        let tail: Vec<f64> = avg[4_000..].to_vec();
        let spread = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - tail.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.01, "Cesàro tail spread = {spread}");
    }
}
