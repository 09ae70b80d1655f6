//! The experiment implementations.

use eqimpact_census::Race;
use eqimpact_control::controller::{IController, PController};
use eqimpact_control::ensemble::{
    ergodicity_gap, identical_hysteresis_ensemble, logistic_ensemble, EnsembleInit, ErgodicityGap,
};
use eqimpact_credit::sim::{run_trials_protocol, CreditConfig, LenderKind};
use eqimpact_linalg::norm::MetricKind;
use eqimpact_markov::contractivity::box_sampler;
use eqimpact_markov::ifs::{affine1d, IfsBuilder};
use eqimpact_markov::invariant::{estimate_invariant_measure, FiniteChain};
use eqimpact_markov::operator::ParticleMeasure;
use eqimpact_markov::{ergodic, MarkovSystem};
use eqimpact_stats::{CesaroAverage, Json, SimRng, ToJson};

/// Scale of an experiment run, re-exported from the core scenario API:
/// `Paper` uses the paper's parameters (N = 1000, 5 trials), `Quick` a
/// reduced size for benches and CI.
pub use eqimpact_core::scenario::Scale;

/// The credit configuration of a scale (the scenario registry's mapping,
/// shared so ablations sweep the same shapes).
fn credit_config(scale: Scale, lender: LenderKind) -> CreditConfig {
    eqimpact_credit::scenario::scale_config(scale, lender)
}

// ---------------------------------------------------------------------------
// T1 — Table I
// ---------------------------------------------------------------------------

/// Table I result: the learned scorecard and the paper's reference
/// values (the shared extraction from `eqimpact_credit::report`, so the
/// bench surface and the `credit` scenario artifact cannot diverge).
pub use eqimpact_credit::report::Table1Scorecard as Table1Result;

/// T1: runs the closed loop at the given scale and extracts the final
/// scorecard. Fails (with a named error, per the CLI panic contract)
/// when no trial produced a fitted scorecard.
pub fn table1_scorecard(scale: Scale) -> Result<Table1Result, String> {
    let outcomes = run_trials_protocol(&credit_config(scale, LenderKind::Scorecard));
    let card = outcomes
        .iter()
        .find_map(|o| o.scorecard.clone())
        .ok_or_else(|| "table1: no trial produced a scorecard (lender never refit)".to_string())?;
    Ok(Table1Result::from_scorecard(&card))
}

// ---------------------------------------------------------------------------
// A1 — policy ablation (the introduction's example)
// ---------------------------------------------------------------------------

/// A1 result: long-run race-wise credit **access** under two policies.
///
/// The introduction's claim: the flat-$50K "most equal treatment" policy
/// regularly declines the lower-income subgroup after their defaults
/// (unequal impact on access), while the income-scaled policy keeps access
/// equal. Access is the long-run average approval rate — the Cesàro
/// average of the *decision* broadcast to each user.
#[derive(Debug, Clone)]
pub struct PolicyAblation {
    /// Long-run race approval rates `[Black, White, Asian]` under the
    /// uniform-$50K permanent-exclusion policy (tail mean over the last
    /// quarter of the horizon).
    pub uniform_approval: [f64; 3],
    /// The same under the income-multiple policy.
    pub income_multiple_approval: [f64; 3],
    /// Final race ADRs under the uniform policy (context).
    pub uniform_final_adr: [f64; 3],
    /// Final race ADRs under the income-multiple policy (context).
    pub income_multiple_final_adr: [f64; 3],
    /// Largest inter-race approval gap per policy `(uniform, income)` —
    /// the introduction predicts `uniform >> income = 0`.
    pub approval_gaps: (f64, f64),
}

impl ToJson for PolicyAblation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("uniform_approval", self.uniform_approval.to_json()),
            (
                "income_multiple_approval",
                self.income_multiple_approval.to_json(),
            ),
            ("uniform_final_adr", self.uniform_final_adr.to_json()),
            (
                "income_multiple_final_adr",
                self.income_multiple_final_adr.to_json(),
            ),
            ("approval_gaps", self.approval_gaps.to_json()),
        ])
    }
}

/// A1: compares the introduction's two policies on a long horizon.
/// `seed` overrides the protocol's base seed (`None` = the default).
pub fn ablate_policy(scale: Scale, seed: Option<u64>) -> Result<PolicyAblation, String> {
    let steps = match scale {
        Scale::Paper => 60,
        Scale::Quick => 30,
    };
    let run = |lender: LenderKind| -> Result<([f64; 3], [f64; 3]), String> {
        let base = credit_config(scale, lender);
        let config = CreditConfig {
            steps,
            trials: 1,
            seed: seed.unwrap_or(base.seed),
            ..base
        };
        let outcome = &run_trials_protocol(&config)[0];
        let mut approval = [0.0; 3];
        let mut final_adr = [0.0; 3];
        let tail_start = steps - steps / 4;
        for race in Race::ALL {
            let members = outcome.race_indices(race);
            // Tail-mean approval rate of the race.
            let mut approved = 0usize;
            let mut total = 0usize;
            for k in tail_start..steps {
                let signals = outcome.record.signals(k);
                for &i in &members {
                    total += 1;
                    if signals[i] > 0.0 {
                        approved += 1;
                    }
                }
            }
            approval[race.index()] = approved as f64 / total.max(1) as f64;
            final_adr[race.index()] = *outcome
                .race_adr_series(race)
                .last()
                .ok_or_else(|| "ablate-policy: empty ADR series (zero steps)".to_string())?;
        }
        Ok((approval, final_adr))
    };
    let (uniform_approval, uniform_final_adr) = run(LenderKind::UniformExclusion)?;
    let (income_approval, income_final_adr) = run(LenderKind::IncomeMultiple)?;
    let gap = |a: &[f64; 3]| {
        let hi = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = a.iter().cloned().fold(f64::INFINITY, f64::min);
        hi - lo
    };
    Ok(PolicyAblation {
        approval_gaps: (gap(&uniform_approval), gap(&income_approval)),
        uniform_approval,
        income_multiple_approval: income_approval,
        uniform_final_adr,
        income_multiple_final_adr: income_final_adr,
    })
}

// ---------------------------------------------------------------------------
// A2 — integral action destroys ergodicity
// ---------------------------------------------------------------------------

/// A2 result: the ergodicity gaps under integral and proportional control.
#[derive(Debug, Clone)]
pub struct IntegralAblation {
    /// Max per-agent spread of long-run averages across initial conditions
    /// under the integral controller with hysteretic agents.
    pub integral_gap: ErgodicityGap,
    /// The same under proportional control with stochastic agents.
    pub proportional_gap: ErgodicityGap,
}

impl ToJson for IntegralAblation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("integral_gap", self.integral_gap.to_json()),
            ("proportional_gap", self.proportional_gap.to_json()),
        ])
    }
}

/// A2: reproduces the Sec. VI warning at the given scale. `seed`
/// overrides the study's RNG seed (`None` = the default).
pub fn ablate_integral(scale: Scale, seed: Option<u64>) -> IntegralAblation {
    let (n, steps, discard) = match scale {
        Scale::Paper => (100, 10_000, 2_000),
        Scale::Quick => (40, 3_000, 500),
    };
    let mut rng = SimRng::new(seed.unwrap_or(2209));

    let hysteretic = identical_hysteresis_ensemble(n, 0.7, 0.3);
    let integral_gap = ergodicity_gap(
        &hysteretic,
        |_| IController::new(0.01, 0.5),
        0.5,
        &[
            EnsembleInit::first_k_on(0.5, n, n / 2),
            EnsembleInit::last_k_on(0.5, n, n / 2),
            EnsembleInit::all_off(0.0, n),
        ],
        steps,
        discard,
        &mut rng,
    );

    let stochastic = logistic_ensemble(n, 0.0, 1.0, 0.15);
    let proportional_gap = ergodicity_gap(
        &stochastic,
        |_| PController::new(1.0, 0.5),
        0.5,
        &[
            EnsembleInit::all_off(0.0, n),
            EnsembleInit::all_on(1.0, n),
            EnsembleInit::first_k_on(0.5, n, n / 2),
        ],
        steps,
        discard,
        &mut rng,
    );

    IntegralAblation {
        integral_gap,
        proportional_gap,
    }
}

// ---------------------------------------------------------------------------
// A3 — Markov-system attractivity
// ---------------------------------------------------------------------------

/// A3 result: convergence diagnostics for three constructed systems.
#[derive(Debug, Clone)]
pub struct MarkovAblation {
    /// TV decay of a primitive two-state chain (should vanish).
    pub primitive_tv: Vec<f64>,
    /// TV decay of the periodic two-state chain (stays at its plateau).
    pub periodic_tv: Vec<f64>,
    /// Whether the contractive IFS's particle iteration converged.
    pub ifs_converged: bool,
    /// Per-iteration Wasserstein distances of the IFS iteration.
    pub ifs_distances: Vec<f64>,
    /// The ergodicity verdict of the contractive IFS.
    pub ifs_verdict: ergodic::ErgodicityVerdict,
}

impl ToJson for MarkovAblation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("primitive_tv", self.primitive_tv.to_json()),
            ("periodic_tv", self.periodic_tv.to_json()),
            ("ifs_converged", self.ifs_converged.to_json()),
            ("ifs_distances", self.ifs_distances.to_json()),
            ("ifs_verdict", self.ifs_verdict.to_json()),
        ])
    }
}

/// A3: invariant-measure attractivity for primitive vs periodic chains and
/// a contractive IFS. `seed` overrides the study's RNG seeds (`None` =
/// the defaults). The chains and the IFS are built from constants, but
/// construction failures surface as named errors instead of panics (the
/// CLI panic contract).
pub fn ablate_markov(scale: Scale, seed: Option<u64>) -> Result<MarkovAblation, String> {
    let (particles, iters) = match scale {
        Scale::Paper => (4_000, 150),
        Scale::Quick => (500, 60),
    };

    let chain = |rows: &[&[f64]], label: &str| -> Result<FiniteChain, String> {
        let matrix = eqimpact_linalg::Matrix::from_rows(rows)
            .map_err(|e| format!("ablate-markov: {label} chain rows: {e}"))?;
        FiniteChain::new(matrix).map_err(|e| format!("ablate-markov: {label} chain: {e}"))
    };
    let primitive = chain(&[&[0.9, 0.1], &[0.4, 0.6]], "primitive")?;
    let periodic = chain(&[&[0.0, 1.0], &[1.0, 0.0]], "periodic")?;
    let nu = eqimpact_linalg::Vector::from_slice(&[1.0, 0.0]);
    let primitive_tv = primitive
        .tv_decay(&nu, 30)
        .map_err(|e| format!("ablate-markov: primitive TV decay: {e}"))?;
    let periodic_tv = periodic
        .tv_decay(&nu, 30)
        .map_err(|e| format!("ablate-markov: periodic TV decay: {e}"))?;

    let ifs: MarkovSystem = IfsBuilder::new(1)
        .map_const(affine1d(0.5, 0.0), 0.5)
        .map_const(affine1d(0.5, 0.5), 0.5)
        .build()
        .map_err(|e| format!("ablate-markov: IFS build: {e}"))?;
    let mut rng = SimRng::new(seed.unwrap_or(1987));
    let estimate = estimate_invariant_measure(
        &ifs,
        &ParticleMeasure::dirac(&[0.99]),
        particles,
        iters,
        0.02,
        &mut rng,
    );
    let mut verdict_rng = SimRng::new(seed.map(|s| s.wrapping_add(1)).unwrap_or(2004));
    let verdict = ergodic::analyze(
        &ifs,
        MetricKind::Euclidean,
        500,
        &mut verdict_rng,
        box_sampler(vec![0.0], vec![1.0]),
    );

    Ok(MarkovAblation {
        primitive_tv,
        periodic_tv,
        ifs_converged: estimate.converged,
        ifs_distances: estimate.iterate_distances,
        ifs_verdict: verdict.verdict,
    })
}

// ---------------------------------------------------------------------------
// A4 — feedback-delay sensitivity of the credit loop
// ---------------------------------------------------------------------------

/// A4 result: how the paper's Fig. 1 delay affects the credit loop.
#[derive(Debug, Clone)]
pub struct DelayAblation {
    /// The delays swept.
    pub delays: Vec<usize>,
    /// Final-year inter-race ADR spread per delay.
    pub race_spread: Vec<f64>,
    /// Final-year population mean ADR per delay.
    pub mean_adr: Vec<f64>,
}

impl ToJson for DelayAblation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("delays", self.delays.to_json()),
            ("race_spread", self.race_spread.to_json()),
            ("mean_adr", self.mean_adr.to_json()),
        ])
    }
}

/// A4: sweeps the feedback delay of the credit loop. The paper fixes one
/// step of delay; the sweep shows the equal-impact conclusion is not an
/// artifact of that choice (small delays only slow the scorecard's
/// reaction). `seed` overrides the protocol's base seed (`None` = the
/// default).
pub fn ablate_delay(scale: Scale, seed: Option<u64>) -> Result<DelayAblation, String> {
    let delays = vec![0usize, 1, 2, 4];
    let mut race_spread = Vec::with_capacity(delays.len());
    let mut mean_adr = Vec::with_capacity(delays.len());
    for &delay in &delays {
        let base = credit_config(scale, LenderKind::Scorecard);
        let config = CreditConfig {
            delay,
            trials: 1,
            seed: seed.unwrap_or(base.seed),
            ..base
        };
        let outcome = &run_trials_protocol(&config)[0];
        let finals: Vec<f64> = Race::ALL
            .iter()
            .map(|&r| {
                outcome.race_adr_series(r).last().copied().ok_or_else(|| {
                    format!("ablate-delay: empty ADR series at delay {delay} (zero steps)")
                })
            })
            .collect::<Result<_, String>>()?;
        let hi = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = finals.iter().cloned().fold(f64::INFINITY, f64::min);
        race_spread.push(hi - lo);
        let last = outcome.record.steps() - 1;
        let pop_mean: f64 =
            outcome.record.filtered(last).iter().sum::<f64>() / outcome.record.user_count() as f64;
        mean_adr.push(pop_mean);
    }
    Ok(DelayAblation {
        delays,
        race_spread,
        mean_adr,
    })
}

// ---------------------------------------------------------------------------
// A5 — feedback-filter choice in the ensemble loop
// ---------------------------------------------------------------------------

/// A5 result: reference tracking under different feedback filters.
#[derive(Debug, Clone)]
pub struct FilterAblation {
    /// Filter labels, aligned with the vectors below.
    pub filters: Vec<String>,
    /// Absolute tail tracking error |mean ȳ − r| per filter.
    pub tracking_error: Vec<f64>,
    /// Largest late signal movement per filter (responsiveness proxy; ~0
    /// means the loop has frozen).
    pub late_signal_swing: Vec<f64>,
}

impl ToJson for FilterAblation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("filters", self.filters.to_json()),
            ("tracking_error", self.tracking_error.to_json()),
            ("late_signal_swing", self.late_signal_swing.to_json()),
        ])
    }
}

/// A5: compares instantaneous, EWMA, sliding-window and accumulating
/// (full-history) feedback filters under the same stable P-controlled
/// stochastic ensemble — Fig. 1's filter block as a design choice. Fading
/// memory preserves responsiveness; the accumulating filter's effective
/// gain decays like `1/k` and freezes the broadcast signal. `seed`
/// overrides the study's RNG seed (`None` = the default).
pub fn ablate_filter(scale: Scale, seed: Option<u64>) -> FilterAblation {
    use eqimpact_control::filter::{EwmaFilter, Filter, SlidingWindowFilter};
    let (n, steps) = match scale {
        Scale::Paper => (150, 6_000),
        Scale::Quick => (60, 2_000),
    };
    let reference = 0.5;
    let run = |filter: Option<&mut dyn Filter>| -> (f64, f64) {
        let agents = logistic_ensemble(n, 0.0, 1.0, 0.2);
        let mut lp = eqimpact_control::ensemble::EnsembleLoop::new(
            agents,
            PController::new(2.0, 0.5),
            reference,
        );
        let mut rng = SimRng::new(seed.unwrap_or(515));
        let init = vec![false; n];
        let out = lp.run(0.9, &init, steps, 0, filter, &mut rng);
        let tail = &out.aggregates[steps - steps / 4..];
        let tracking = (tail.iter().sum::<f64>() / tail.len() as f64 - reference).abs();
        let late = out.signals[steps - steps / 10..]
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        (tracking, late)
    };

    let mut filters = Vec::new();
    let mut tracking_error = Vec::new();
    let mut late_signal_swing = Vec::new();

    let (t, l) = run(None);
    filters.push("instantaneous".to_string());
    tracking_error.push(t);
    late_signal_swing.push(l);

    let mut ewma = EwmaFilter::new(0.3);
    let (t, l) = run(Some(&mut ewma));
    filters.push("ewma(0.3)".to_string());
    tracking_error.push(t);
    late_signal_swing.push(l);

    let mut window = SlidingWindowFilter::new(25);
    let (t, l) = run(Some(&mut window));
    filters.push("window(25)".to_string());
    tracking_error.push(t);
    late_signal_swing.push(l);

    let mut acc = CesaroAverage::new();
    let (t, l) = run(Some(&mut acc));
    filters.push("accumulating".to_string());
    tracking_error.push(t);
    late_signal_swing.push(l);

    FilterAblation {
        filters,
        tracking_error,
        late_signal_swing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_quick_has_paper_shape() {
        let t1 = table1_scorecard(Scale::Quick).unwrap();
        // The income factor is the strongly identified one (the paper's
        // +5.77); the history factor's final-year magnitude is weakly
        // identified below paper scale (ADR contrast has collapsed by
        // 2020), so its sign check lives in eqimpact-credit's 1000-user
        // `scorecard_emerges_with_paper_shape` test.
        assert!(t1.income_points > 0.0, "income = {}", t1.income_points);
        assert!(t1.history_points.is_finite());
        assert!(t1.history_points < t1.income_points);
        assert_eq!(t1.paper_reference, (-8.17, 5.77));
    }

    #[test]
    fn policy_ablation_shows_uniform_access_gap() {
        let a1 = ablate_policy(Scale::Quick, None).unwrap();
        // The income-scaled policy approves everyone: zero access gap.
        assert!(
            a1.approval_gaps.1 < 1e-12,
            "income gap = {}",
            a1.approval_gaps.1
        );
        // The uniform policy's exclusions hit races unevenly.
        assert!(
            a1.approval_gaps.0 > 0.05,
            "uniform access gap = {}",
            a1.approval_gaps.0
        );
        // And Black access is the lowest of the three under uniform.
        assert!(a1.uniform_approval[0] <= a1.uniform_approval[1]);
        assert!(a1.uniform_approval[0] <= a1.uniform_approval[2]);
    }

    #[test]
    fn integral_ablation_contrast() {
        let a2 = ablate_integral(Scale::Quick, None);
        assert!(a2.integral_gap.max_spread > 0.9);
        assert!(a2.proportional_gap.max_spread < 0.1);
    }

    #[test]
    fn delay_ablation_robustness() {
        let a4 = ablate_delay(Scale::Quick, None).unwrap();
        assert_eq!(a4.delays.len(), 4);
        // The equal-impact conclusion survives every delay: small spread.
        for (d, spread) in a4.delays.iter().zip(&a4.race_spread) {
            assert!(*spread < 0.1, "delay {d}: race spread {spread}");
        }
    }

    #[test]
    fn filter_ablation_contrast() {
        let a5 = ablate_filter(Scale::Quick, None);
        assert_eq!(a5.filters.len(), 4);
        // All fading-memory filters track the reference.
        for i in 0..3 {
            assert!(
                a5.tracking_error[i] < 0.08,
                "{}: tracking error {}",
                a5.filters[i],
                a5.tracking_error[i]
            );
        }
        // The accumulating filter freezes the signal (responsiveness -> 0).
        assert!(
            a5.late_signal_swing[3] < a5.late_signal_swing[0] / 5.0,
            "accumulating swing {} vs instantaneous {}",
            a5.late_signal_swing[3],
            a5.late_signal_swing[0]
        );
    }

    #[test]
    fn markov_ablation_contrast() {
        let a3 = ablate_markov(Scale::Quick, None).unwrap();
        assert!(a3.primitive_tv.last().unwrap() < &1e-6);
        assert!((a3.periodic_tv.last().unwrap() - 0.5).abs() < 1e-9);
        assert!(a3.ifs_converged);
        assert_eq!(a3.ifs_verdict, ergodic::ErgodicityVerdict::UniquelyErgodic);
    }
}
