//! Ensemble control: the testbed for the paper's headline warning that
//! **feedback with integral action can destroy the closed loop's ergodic
//! properties** (Sec. VI, after Fioravanti et al. 2019).
//!
//! A population of agents receives a broadcast signal `π(k)` and responds
//! with binary actions; a controller regulates the aggregate toward a
//! reference `r`. Three agent behaviours are provided:
//!
//! * [`AgentBehaviour::Threshold`] — the memoryless relay
//!   `y_i = 1{π ≥ θ_i}`;
//! * [`AgentBehaviour::Logistic`] — stochastic response
//!   `y_i ~ Bernoulli(σ((π − c_i)/s))`;
//! * [`AgentBehaviour::Hysteresis`] — a *stateful* relay that switches on
//!   at `on_threshold` and off below `off_threshold` (the thermostat /
//!   demand-response agent of the ensemble-control literature).
//!
//! With **identical hysteretic agents** and an **integral** controller,
//! the aggregate is regulated to `r` from every initial condition, but the
//! closed loop has a *continuum of frozen equilibria*: any configuration
//! with the right number of agents on and the signal resting inside the
//! hysteresis band is invariant. Which agents serve the reference is
//! decided entirely by the initial condition, so the per-agent long-run
//! averages — the `r_i` of Def. 3 — are initial-condition-dependent and
//! **equal impact fails** even though the population-level goal is met.
//! This is exactly the finite-action, discontinuous-response regime in
//! which the paper's Sec. VI has to relax the continuity assumptions. A
//! **proportional** controller with stochastic (logistic) agents keeps the
//! loop uniquely ergodic and the per-agent Cesàro averages coincide across
//! initial conditions.

use crate::controller::Controller;
use crate::filter::Filter;
use eqimpact_stats::timeseries::CesaroAverage;
use eqimpact_stats::SimRng;

/// How an agent converts the broadcast signal into a binary action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgentBehaviour {
    /// Memoryless relay: act (`1`) iff `π ≥ threshold`.
    Threshold {
        /// The activation threshold `θ_i`.
        threshold: f64,
    },
    /// Stochastic logistic response: act with probability
    /// `σ((π − center)/scale)`.
    Logistic {
        /// Sigmoid midpoint `c_i`.
        center: f64,
        /// Sigmoid scale `s > 0`.
        scale: f64,
    },
    /// Hysteretic relay: switches on when `π ≥ on_threshold`, off when
    /// `π < off_threshold`, holds its state in between.
    Hysteresis {
        /// Switch-on level (must be `>= off_threshold`).
        on_threshold: f64,
        /// Switch-off level.
        off_threshold: f64,
    },
}

impl AgentBehaviour {
    /// Updates the agent state for signal `pi` and returns the action.
    ///
    /// `state` is the agent's persistent on/off memory; only
    /// [`AgentBehaviour::Hysteresis`] reads it, all behaviours write it so
    /// that the last action is observable.
    pub fn act(&self, state: &mut bool, pi: f64, rng: &mut SimRng) -> f64 {
        let on = match *self {
            AgentBehaviour::Threshold { threshold } => pi >= threshold,
            AgentBehaviour::Logistic { center, scale } => {
                let p = 1.0 / (1.0 + (-(pi - center) / scale).exp());
                rng.bernoulli(p)
            }
            AgentBehaviour::Hysteresis {
                on_threshold,
                off_threshold,
            } => {
                if pi >= on_threshold {
                    true
                } else if pi < off_threshold {
                    false
                } else {
                    *state
                }
            }
        };
        *state = on;
        if on {
            1.0
        } else {
            0.0
        }
    }
}

/// A closed loop over an ensemble of agents with a scalar broadcast signal.
pub struct EnsembleLoop<C: Controller> {
    agents: Vec<AgentBehaviour>,
    controller: C,
    reference: f64,
}

/// Everything recorded from one ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleOutcome {
    /// Broadcast signal trace `π(0..steps)`.
    pub signals: Vec<f64>,
    /// Aggregate action trace `ȳ(0..steps)`.
    pub aggregates: Vec<f64>,
    /// Cesàro average of each agent's action over the post-discard tail —
    /// the empirical `r_i` of Def. 3.
    pub agent_averages: Vec<f64>,
    /// Cesàro trajectory of the aggregate (from step 0).
    pub aggregate_cesaro: Vec<f64>,
}

impl<C: Controller> EnsembleLoop<C> {
    /// Creates a loop.
    ///
    /// # Panics
    /// Panics for an empty ensemble.
    pub fn new(agents: Vec<AgentBehaviour>, controller: C, reference: f64) -> Self {
        assert!(!agents.is_empty(), "EnsembleLoop: no agents");
        EnsembleLoop {
            agents,
            controller,
            reference,
        }
    }

    /// Runs the loop for `steps` steps from signal `pi0` and the given
    /// initial on/off states; per-agent averages are taken over
    /// `k >= discard` to wash out transients.
    ///
    /// With a `filter`, the controller sees the **filtered** aggregate
    /// (Fig. 1's filter block in the feedback path) instead of the
    /// instantaneous one — the design choice whose ergodic consequences
    /// Ghosh et al. (2021) study for non-linear filters.
    ///
    /// # Panics
    /// Panics when `initial_on.len()` differs from the agent count or
    /// `discard >= steps`.
    pub fn run(
        &mut self,
        pi0: f64,
        initial_on: &[bool],
        steps: usize,
        discard: usize,
        mut filter: Option<&mut dyn Filter>,
        rng: &mut SimRng,
    ) -> EnsembleOutcome {
        let n = self.agents.len();
        assert_eq!(initial_on.len(), n, "initial_on length mismatch");
        assert!(discard < steps, "discard >= steps");

        let mut states = initial_on.to_vec();
        let mut pi = pi0;
        let mut signals = Vec::with_capacity(steps);
        let mut aggregates = Vec::with_capacity(steps);
        let mut per_agent: Vec<CesaroAverage> = vec![CesaroAverage::new(); n];
        let mut agg_avg = CesaroAverage::new();
        let mut aggregate_cesaro = Vec::with_capacity(steps);

        for k in 0..steps {
            signals.push(pi);
            let mut total = 0.0;
            for ((agent, state), avg) in self
                .agents
                .iter()
                .zip(states.iter_mut())
                .zip(per_agent.iter_mut())
            {
                let y = agent.act(state, pi, rng);
                if k >= discard {
                    avg.push(y);
                }
                total += y;
            }
            let aggregate = total / n as f64;
            aggregates.push(aggregate);
            aggregate_cesaro.push(agg_avg.push(aggregate));
            let seen = filter
                .as_deref_mut()
                .map_or(aggregate, |f| f.push(aggregate));
            pi = self.controller.update(self.reference - seen);
        }

        EnsembleOutcome {
            signals,
            aggregates,
            agent_averages: per_agent.iter().map(|a| a.value()).collect(),
            aggregate_cesaro,
        }
    }
}

/// One initial condition of the ensemble loop: the broadcast signal and the
/// agents' internal states.
#[derive(Debug, Clone)]
pub struct EnsembleInit {
    /// Initial broadcast signal `π(0)`.
    pub pi0: f64,
    /// Initial on/off state per agent.
    pub initial_on: Vec<bool>,
}

impl EnsembleInit {
    /// All agents off.
    pub fn all_off(pi0: f64, n: usize) -> Self {
        EnsembleInit {
            pi0,
            initial_on: vec![false; n],
        }
    }

    /// All agents on.
    pub fn all_on(pi0: f64, n: usize) -> Self {
        EnsembleInit {
            pi0,
            initial_on: vec![true; n],
        }
    }

    /// The first `k` agents on, the rest off.
    pub fn first_k_on(pi0: f64, n: usize, k: usize) -> Self {
        EnsembleInit {
            pi0,
            initial_on: (0..n).map(|i| i < k).collect(),
        }
    }

    /// The last `k` agents on, the rest off.
    pub fn last_k_on(pi0: f64, n: usize, k: usize) -> Self {
        EnsembleInit {
            pi0,
            initial_on: (0..n).map(|i| i >= n - k.min(n)).collect(),
        }
    }
}

/// Result of the ergodicity-gap experiment: per-agent spread of long-run
/// averages across initial conditions.
#[derive(Debug, Clone)]
pub struct ErgodicityGap {
    /// For each agent, `max_init r_i − min_init r_i`.
    pub per_agent_spread: Vec<f64>,
    /// The largest spread over agents — the headline number: ~0 for an
    /// ergodic loop, strictly positive when equal impact fails.
    pub max_spread: f64,
    /// Long-run aggregate per initial condition (sanity: a working
    /// controller tracks the reference from every start).
    pub aggregate_limits: Vec<f64>,
}

impl eqimpact_stats::ToJson for ErgodicityGap {
    fn to_json(&self) -> eqimpact_stats::Json {
        eqimpact_stats::Json::obj([
            ("per_agent_spread", self.per_agent_spread.to_json()),
            ("max_spread", self.max_spread.to_json()),
            ("aggregate_limits", self.aggregate_limits.to_json()),
        ])
    }
}

/// Runs the loop from each initial condition (with independent randomness
/// per run) and measures how much each agent's long-run average action
/// depends on the initial condition — the direct empirical test of the
/// paper's Def. 3 across initial conditions.
///
/// `make_controller` receives the run index and must produce a fresh
/// controller per run (so integrator state does not leak between initial
/// conditions, and so the controller's initial output can be matched to
/// the run's `pi0`).
pub fn ergodicity_gap<C: Controller>(
    agents: &[AgentBehaviour],
    mut make_controller: impl FnMut(usize) -> C,
    reference: f64,
    inits: &[EnsembleInit],
    steps: usize,
    discard: usize,
    rng: &mut SimRng,
) -> ErgodicityGap {
    let n = agents.len();
    let mut mins = vec![f64::INFINITY; n];
    let mut maxs = vec![f64::NEG_INFINITY; n];
    let mut aggregate_limits = Vec::with_capacity(inits.len());

    for (run, init) in inits.iter().enumerate() {
        let mut stream = rng.split(run as u64);
        let mut lp = EnsembleLoop::new(agents.to_vec(), make_controller(run), reference);
        let outcome = lp.run(
            init.pi0,
            &init.initial_on,
            steps,
            discard,
            None,
            &mut stream,
        );
        let tail = &outcome.aggregates[discard..];
        aggregate_limits.push(tail.iter().sum::<f64>() / tail.len() as f64);
        for (i, &avg) in outcome.agent_averages.iter().enumerate() {
            mins[i] = mins[i].min(avg);
            maxs[i] = maxs[i].max(avg);
        }
    }

    let per_agent_spread: Vec<f64> = mins
        .iter()
        .zip(&maxs)
        .map(|(&lo, &hi)| (hi - lo).max(0.0))
        .collect();
    let max_spread = per_agent_spread.iter().cloned().fold(0.0, f64::max);

    ErgodicityGap {
        per_agent_spread,
        max_spread,
        aggregate_limits,
    }
}

/// A standard ensemble of `n` memoryless threshold agents with thresholds
/// equally spaced in `(lo, hi)`.
#[cfg(test)]
pub fn threshold_ensemble(n: usize, lo: f64, hi: f64) -> Vec<AgentBehaviour> {
    assert!(n > 0 && lo < hi, "threshold_ensemble: bad parameters");
    (0..n)
        .map(|i| AgentBehaviour::Threshold {
            threshold: lo + (hi - lo) * (i as f64 + 0.5) / n as f64,
        })
        .collect()
}

/// A standard ensemble of `n` logistic agents with centers equally spaced
/// in `(lo, hi)` and common scale.
pub fn logistic_ensemble(n: usize, lo: f64, hi: f64, scale: f64) -> Vec<AgentBehaviour> {
    assert!(
        n > 0 && lo < hi && scale > 0.0,
        "logistic_ensemble: bad parameters"
    );
    (0..n)
        .map(|i| AgentBehaviour::Logistic {
            center: lo + (hi - lo) * (i as f64 + 0.5) / n as f64,
            scale,
        })
        .collect()
}

/// An ensemble of `n` **identical** hysteretic agents with the given band.
///
/// This is the canonical ergodicity-loss population: any configuration
/// with `k` agents on and the signal inside the band `[off, on)` is a
/// frozen equilibrium of the integral-controlled loop, so the closed loop
/// has a continuum of invariant measures and per-agent long-run averages
/// are dictated by initial conditions.
pub fn identical_hysteresis_ensemble(
    n: usize,
    on_threshold: f64,
    off_threshold: f64,
) -> Vec<AgentBehaviour> {
    assert!(
        n > 0 && off_threshold <= on_threshold,
        "identical_hysteresis_ensemble: bad parameters"
    );
    vec![
        AgentBehaviour::Hysteresis {
            on_threshold,
            off_threshold,
        };
        n
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{IController, PController};

    #[test]
    fn threshold_agent_is_deterministic() {
        let a = AgentBehaviour::Threshold { threshold: 0.5 };
        let mut rng = SimRng::new(0);
        let mut s = false;
        assert_eq!(a.act(&mut s, 0.6, &mut rng), 1.0);
        assert!(s);
        assert_eq!(a.act(&mut s, 0.4, &mut rng), 0.0);
        assert!(!s);
        assert_eq!(a.act(&mut s, 0.5, &mut rng), 1.0);
    }

    #[test]
    fn logistic_agent_frequencies() {
        let a = AgentBehaviour::Logistic {
            center: 0.0,
            scale: 1.0,
        };
        let mut rng = SimRng::new(1);
        let mut s = false;
        let n = 20_000;
        let acts: f64 = (0..n).map(|_| a.act(&mut s, 0.0, &mut rng)).sum();
        assert!((acts / n as f64 - 0.5).abs() < 0.02);
        let high: f64 = (0..n).map(|_| a.act(&mut s, 5.0, &mut rng)).sum();
        assert!(high / n as f64 > 0.98);
    }

    #[test]
    fn hysteresis_agent_holds_state_in_band() {
        let a = AgentBehaviour::Hysteresis {
            on_threshold: 0.6,
            off_threshold: 0.4,
        };
        let mut rng = SimRng::new(2);
        let mut s = false;
        assert_eq!(a.act(&mut s, 0.5, &mut rng), 0.0); // in band, stays off
        assert_eq!(a.act(&mut s, 0.7, &mut rng), 1.0); // switches on
        assert_eq!(a.act(&mut s, 0.5, &mut rng), 1.0); // in band, stays on
        assert_eq!(a.act(&mut s, 0.3, &mut rng), 0.0); // switches off
    }

    #[test]
    fn proportional_loop_tracks_reference() {
        let agents = logistic_ensemble(200, 0.0, 1.0, 0.2);
        let mut lp = EnsembleLoop::new(agents, PController::new(2.0, 0.5), 0.5);
        let mut rng = SimRng::new(2);
        let out = lp.run(0.5, &[false; 200], 2_000, 0, None, &mut rng);
        let tail_mean: f64 = out.aggregates[1_000..].iter().sum::<f64>() / 1_000.0;
        assert!((tail_mean - 0.5).abs() < 0.05, "tail mean = {tail_mean}");
        assert_eq!(out.signals.len(), 2_000);
        assert_eq!(out.agent_averages.len(), 200);
    }

    #[test]
    fn integral_loop_drives_aggregate_to_reference() {
        let agents = threshold_ensemble(100, 0.0, 1.0);
        let mut lp = EnsembleLoop::new(agents, IController::new(0.05, 0.2), 0.37);
        let mut rng = SimRng::new(3);
        let out = lp.run(0.2, &[false; 100], 5_000, 0, None, &mut rng);
        let tail = out.aggregate_cesaro[4_999];
        assert!((tail - 0.37).abs() < 0.05, "aggregate Cesàro = {tail}");
    }

    #[test]
    fn integral_control_with_hysteretic_agents_breaks_equal_impact() {
        // The paper's warning, reproduced: with identical hysteretic agents
        // (finite, discontinuous action set — the regime of Sec. VI) and an
        // integral controller, any half-on configuration with the signal
        // inside the band is a frozen equilibrium. Which agents serve the
        // reference is decided entirely by the initial condition.
        let n = 50;
        let agents = identical_hysteresis_ensemble(n, 0.7, 0.3);
        let mut rng = SimRng::new(4);
        let gap = ergodicity_gap(
            &agents,
            |_| IController::new(0.01, 0.5),
            0.5,
            &[
                EnsembleInit::first_k_on(0.5, n, n / 2),
                EnsembleInit::last_k_on(0.5, n, n / 2),
                EnsembleInit::all_off(0.0, n),
            ],
            8_000,
            2_000,
            &mut rng,
        );
        assert!(
            gap.max_spread > 0.9,
            "expected ergodicity loss, max spread = {}",
            gap.max_spread
        );
        // Yet every run regulates the aggregate near the reference.
        for agg in &gap.aggregate_limits {
            assert!((agg - 0.5).abs() < 0.1, "aggregate limit = {agg}");
        }
    }

    #[test]
    fn proportional_control_with_stochastic_agents_preserves_equal_impact() {
        let n = 51;
        let agents = logistic_ensemble(n, 0.0, 1.0, 0.15);
        let mut rng = SimRng::new(5);
        let gap = ergodicity_gap(
            &agents,
            |_| PController::new(1.0, 0.5),
            0.5,
            &[
                EnsembleInit::all_off(0.0, n),
                EnsembleInit::all_on(1.0, n),
                EnsembleInit::all_off(0.4, n),
                EnsembleInit::all_on(0.6, n),
            ],
            6_000,
            1_000,
            &mut rng,
        );
        assert!(
            gap.max_spread < 0.08,
            "ergodic loop should have tiny spread, got {}",
            gap.max_spread
        );
    }

    #[test]
    fn ensemble_builders_validate() {
        assert_eq!(threshold_ensemble(3, 0.0, 1.0).len(), 3);
        assert_eq!(logistic_ensemble(4, 0.0, 1.0, 0.1).len(), 4);
    }

    #[test]
    #[should_panic(expected = "no agents")]
    fn empty_ensemble_rejected() {
        let _ = EnsembleLoop::new(vec![], PController::new(1.0, 0.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "bad parameters")]
    fn threshold_ensemble_rejects_empty_range() {
        threshold_ensemble(3, 1.0, 1.0);
    }

    #[test]
    fn filtered_loop_tracks_reference_with_ewma() {
        use crate::filter::EwmaFilter;
        let agents = logistic_ensemble(150, 0.0, 1.0, 0.2);
        let mut lp = EnsembleLoop::new(agents, PController::new(2.0, 0.5), 0.5);
        let mut filter = EwmaFilter::new(0.3);
        let mut rng = SimRng::new(21);
        let init = vec![false; 150];
        let out = lp.run(0.5, &init, 3_000, 0, Some(&mut filter), &mut rng);
        let tail: f64 = out.aggregates[2_000..].iter().sum::<f64>() / 1_000.0;
        assert!((tail - 0.5).abs() < 0.05, "tail = {tail}");
    }

    #[test]
    fn accumulating_filter_freezes_the_signal() {
        // With a full-history (Cesàro) filter the effective loop gain
        // decays like 1/k: the signal settles and stops responding to
        // recent behaviour — the non-fading-memory regime Ghosh et al.
        // analyze.
        let agents = logistic_ensemble(150, 0.0, 1.0, 0.2);
        let mut lp = EnsembleLoop::new(agents, PController::new(2.0, 0.5), 0.5);
        let mut filter = CesaroAverage::new();
        let mut rng = SimRng::new(22);
        let init = vec![false; 150];
        let out = lp.run(0.9, &init, 4_000, 0, Some(&mut filter), &mut rng);
        // The signal's late movement is tiny compared to its early movement.
        let early_swing = out.signals[..200]
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        let late_swing = out.signals[3_800..]
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(
            late_swing < early_swing / 10.0,
            "late {late_swing} vs early {early_swing}"
        );
    }

    #[test]
    #[should_panic(expected = "initial_on length mismatch")]
    fn run_rejects_wrong_state_length() {
        let agents = threshold_ensemble(3, 0.0, 1.0);
        let mut lp = EnsembleLoop::new(agents, PController::new(1.0, 0.0), 0.5);
        let mut rng = SimRng::new(0);
        lp.run(0.0, &[false], 10, 0, None, &mut rng);
    }
}
