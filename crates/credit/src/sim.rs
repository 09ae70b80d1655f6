//! Simulation drivers: one trial and the paper's five-trial protocol.

use crate::adr::AdrFilter;
use crate::lender::{IncomeMultipleLender, ScorecardLender, UniformExclusionLender};
use crate::users::CreditPopulation;
use eqimpact_census::Race;
use eqimpact_core::closed_loop::LoopBuilder;
use eqimpact_core::recorder::{LoopRecord, RecordPolicy, StepSink};
use eqimpact_core::shard::ShardableAi;
use eqimpact_core::trials::run_trials_with;
use eqimpact_ml::scorecard::Scorecard;
use eqimpact_stats::SimRng;

/// Which lender drives the loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LenderKind {
    /// The paper's retrained scorecard (Sec. VII).
    Scorecard,
    /// The introduction's flat-$50K / permanent-exclusion baseline.
    UniformExclusion,
    /// The introduction's always-approve income-multiple baseline.
    IncomeMultiple,
}

/// Configuration of a credit-scoring experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditConfig {
    /// Number of households (the paper's N = 1000).
    pub users: usize,
    /// Number of yearly steps (the paper's 19: 2002..=2020).
    pub steps: usize,
    /// Number of independent trials (the paper's 5).
    pub trials: usize,
    /// Base seed; trial `t` uses stream `seed + t`.
    pub seed: u64,
    /// The lender.
    pub lender: LenderKind,
    /// Feedback delay in steps (the paper's Fig. 1 delay; 1 by default).
    pub delay: usize,
    /// Intra-trial shards of the `ShardedRunner`: `n ≥ 1` row shards
    /// (`1` sweeps on the calling thread and spawns nothing), `0`
    /// auto-shards (one per available thread-budget lane). The record is
    /// bit-identical for every setting, and to the sequential
    /// `LoopRunner`'s.
    pub shards: usize,
    /// How much telemetry to keep ([`RecordPolicy::Full`] for the paper's
    /// figures; [`RecordPolicy::Thin`] for production-scale perf runs).
    pub policy: RecordPolicy,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            users: 1000,
            steps: 19,
            trials: 5,
            seed: 2002,
            lender: LenderKind::Scorecard,
            delay: 1,
            shards: 1,
            policy: RecordPolicy::Full,
        }
    }
}

/// Everything produced by one trial.
#[derive(Debug, Clone)]
pub struct CreditOutcome {
    /// Full loop telemetry; `filtered[k][i]` is `ADR_i(k)`.
    pub record: LoopRecord,
    /// Race per user (fixed at generation).
    pub races: Vec<Race>,
    /// The lender's final scorecard, when the lender is
    /// [`LenderKind::Scorecard`] and at least one refit happened.
    pub scorecard: Option<Scorecard>,
}

impl CreditOutcome {
    /// User indices of a race.
    pub fn race_indices(&self, race: Race) -> Vec<usize> {
        self.races
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == race)
            .map(|(i, _)| i)
            .collect()
    }

    /// The race-wise series `{ADR_s(k)}_k`: mean of the race's individual
    /// ADRs at each step (eq. (12)).
    pub fn race_adr_series(&self, race: Race) -> Vec<f64> {
        let members = self.race_indices(race);
        (0..self.record.steps())
            .map(|k| {
                if members.is_empty() {
                    f64::NAN
                } else {
                    let filtered = self.record.filtered(k);
                    members.iter().map(|&i| filtered[i]).sum::<f64>() / members.len() as f64
                }
            })
            .collect()
    }

    /// The individual series `{ADR_i(k)}_k`.
    #[cfg(test)]
    pub fn user_adr_series(&self, i: usize) -> Vec<f64> {
        self.record.user_filtered(i).collect()
    }

    /// Approval rate at step `k` (fraction of positive loan signals).
    #[cfg(test)]
    pub fn approval_rate(&self, k: usize) -> f64 {
        let signals = self.record.signals(k);
        signals.iter().filter(|&&l| l > 0.0).count() as f64 / signals.len() as f64
    }
}

/// Runs one lender through the sharded loop with static dispatch over
/// `config.shards` shards, returning the record and the lender for
/// post-run inspection (see `eqimpact_core::shard`).
fn run_lender<S: ShardableAi, K: StepSink>(
    lender: S,
    population: CreditPopulation,
    config: &CreditConfig,
    loop_rng: &mut SimRng,
    sink: &mut K,
) -> (LoopRecord, S) {
    let mut runner = LoopBuilder::new(lender, population)
        .filter(AdrFilter::new())
        .delay(config.delay)
        .record(config.policy)
        .shards(config.shards)
        .build_sharded();
    let record = runner.run_with_sink(config.steps, loop_rng, sink);
    let (lender, _population, _filter) = runner.into_parts();
    (record, lender)
}

/// Runs one trial of the configured experiment. Deterministic in
/// `(config, trial_index)`.
///
/// The loop is statically dispatched per lender kind — no boxing on the
/// hot path.
pub fn run_trial(config: &CreditConfig, trial_index: usize) -> CreditOutcome {
    run_trial_sunk(config, trial_index, &mut ())
}

/// [`run_trial`] with a [`StepSink`] observing the loop's raw telemetry
/// — the entry point trace recording goes through. The sink first
/// receives the race metadata (labels in [`Race::ALL`] order, one code
/// per user), then one call per step.
pub fn run_trial_sunk<K: StepSink>(
    config: &CreditConfig,
    trial_index: usize,
    sink: &mut K,
) -> CreditOutcome {
    assert!(config.users > 0, "run_trial: zero users");
    assert!(config.steps > 0, "run_trial: zero steps");
    let rng = SimRng::new(config.seed.wrapping_add(trial_index as u64));
    let mut pop_rng = rng.split(1);
    let mut loop_rng = rng.split(2);

    let population = CreditPopulation::generate(config.users, &mut pop_rng);
    let races = population.races();
    let labels: Vec<&str> = Race::ALL.iter().map(|r| r.label()).collect();
    let codes: Vec<u32> = races.iter().map(|r| r.index() as u32).collect();
    sink.on_groups(&labels, &codes);

    let (record, scorecard) = match config.lender {
        LenderKind::Scorecard => {
            let (record, lender) = run_lender(
                ScorecardLender::paper_default(),
                population,
                config,
                &mut loop_rng,
                sink,
            );
            (record, lender.scorecard())
        }
        LenderKind::UniformExclusion => {
            let (record, _lender) = run_lender(
                UniformExclusionLender::paper_default(),
                population,
                config,
                &mut loop_rng,
                sink,
            );
            (record, None)
        }
        LenderKind::IncomeMultiple => {
            let (record, _lender) = run_lender(
                IncomeMultipleLender::new(crate::model::INCOME_MULTIPLE),
                population,
                config,
                &mut loop_rng,
                sink,
            );
            (record, None)
        }
    };

    CreditOutcome {
        record,
        races,
        scorecard,
    }
}

/// Runs the full multi-trial protocol in parallel (the paper's five trials
/// with a fresh batch of users each), striped by
/// [`eqimpact_core::trials::run_trials_with`] over worker threads leased
/// from the process-wide [`eqimpact_core::pool::ThreadBudget`]. Trial
/// striping and intra-trial sharding ([`CreditConfig::shards`]) lease
/// from the same budget, so `trials × shards` can never oversubscribe
/// the host: when the trial stripes take every lane, each trial's
/// sharded sweep runs sequentially on its own lane.
pub fn run_trials_protocol(config: &CreditConfig) -> Vec<CreditOutcome> {
    assert!(config.trials > 0, "run_trials_protocol: zero trials");
    run_trials_with(config.trials, |t| run_trial(config, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(lender: LenderKind) -> CreditConfig {
        CreditConfig {
            users: 200,
            steps: 19,
            trials: 2,
            seed: 7,
            lender,
            ..Default::default()
        }
    }

    /// The sequential `LoopRunner`'s record and races of
    /// `run_trial(config, 0)`: the same stream split and blocks, built with
    /// `LoopBuilder::build`.
    fn sequential_trial(config: &CreditConfig) -> (LoopRecord, Vec<Race>) {
        fn run<S: ShardableAi>(lender: S, config: &CreditConfig) -> (LoopRecord, Vec<Race>) {
            let rng = SimRng::new(config.seed);
            let population = CreditPopulation::generate(config.users, &mut rng.split(1));
            let races = population.races();
            let record = LoopBuilder::new(lender, population)
                .filter(AdrFilter::new())
                .delay(config.delay)
                .record(config.policy)
                .build()
                .run(config.steps, &mut rng.split(2));
            (record, races)
        }
        match config.lender {
            LenderKind::Scorecard => run(ScorecardLender::paper_default(), config),
            LenderKind::UniformExclusion => run(UniformExclusionLender::paper_default(), config),
            LenderKind::IncomeMultiple => run(
                IncomeMultipleLender::new(crate::model::INCOME_MULTIPLE),
                config,
            ),
        }
    }

    #[test]
    fn trial_is_deterministic() {
        let config = small_config(LenderKind::Scorecard);
        let a = run_trial(&config, 0);
        let b = run_trial(&config, 0);
        assert_eq!(a.record, b.record);
        assert_eq!(a.races, b.races);
    }

    #[test]
    fn trials_differ_across_indices() {
        let config = small_config(LenderKind::Scorecard);
        let a = run_trial(&config, 0);
        let b = run_trial(&config, 1);
        assert_ne!(a.record, b.record);
    }

    #[test]
    fn warmup_years_approve_everyone() {
        let config = small_config(LenderKind::Scorecard);
        let outcome = run_trial(&config, 0);
        assert_eq!(outcome.approval_rate(0), 1.0);
        assert_eq!(outcome.approval_rate(1), 1.0);
    }

    #[test]
    fn scorecard_emerges_with_paper_shape() {
        let config = CreditConfig {
            users: 1000,
            ..small_config(LenderKind::Scorecard)
        };
        let outcome = run_trial(&config, 0);
        let card = outcome.scorecard.expect("scorecard fitted");
        // Table I shape: negative history points, positive income points.
        assert!(
            card.rows[0].points_per_unit < 0.0,
            "history points = {}",
            card.rows[0].points_per_unit
        );
        assert!(
            card.rows[1].points_per_unit > 0.0,
            "income points = {}",
            card.rows[1].points_per_unit
        );
    }

    #[test]
    fn adr_series_dwindle_like_fig3() {
        let config = CreditConfig {
            users: 1000,
            ..small_config(LenderKind::Scorecard)
        };
        let outcome = run_trial(&config, 0);
        for race in Race::ALL {
            let series = outcome.race_adr_series(race);
            assert_eq!(series.len(), 19);
            let final_adr = *series.last().unwrap();
            // All races settle at a low default level by 2020.
            assert!(final_adr < 0.15, "{race}: final ADR = {final_adr}");
        }
    }

    #[test]
    fn uniform_lender_excludes_over_time() {
        let config = small_config(LenderKind::UniformExclusion);
        let outcome = run_trial(&config, 0);
        // Approval rate is 1 at the start and strictly lower at the end.
        assert_eq!(outcome.approval_rate(0), 1.0);
        assert!(outcome.approval_rate(18) < 1.0);
    }

    #[test]
    fn income_multiple_lender_always_approves() {
        let config = small_config(LenderKind::IncomeMultiple);
        let outcome = run_trial(&config, 0);
        for k in 0..19 {
            assert_eq!(outcome.approval_rate(k), 1.0, "step {k}");
        }
    }

    #[test]
    fn sharded_trials_are_bit_identical_for_every_lender() {
        // The tentpole guarantee on the credit scenario: any shard count
        // (including one and auto) reproduces the sequential record
        // exactly.
        for lender in [
            LenderKind::Scorecard,
            LenderKind::UniformExclusion,
            LenderKind::IncomeMultiple,
        ] {
            let config = CreditConfig {
                users: 150,
                steps: 8,
                ..small_config(lender)
            };
            let (record, races) = sequential_trial(&config);
            for shards in [1usize, 2, 8, 0] {
                let outcome = run_trial(&CreditConfig { shards, ..config }, 0);
                assert_eq!(outcome.record, record, "{lender:?} x {shards} shards");
                assert_eq!(outcome.races, races);
            }
        }
    }

    #[test]
    fn thin_policy_flows_through_the_protocol() {
        let config = CreditConfig {
            users: 120,
            steps: 6,
            policy: RecordPolicy::Thin,
            shards: 2,
            ..small_config(LenderKind::IncomeMultiple)
        };
        let outcome = run_trial(&config, 0);
        assert_eq!(outcome.record.policy(), RecordPolicy::Thin);
        assert_eq!(outcome.record.mean_actions().len(), 6);
    }

    /// A hand-built outcome: `steps` recorded steps over `races.len()`
    /// users, signal 1.0 / action alternating, filtered = step index.
    fn synthetic_outcome(races: Vec<Race>, steps: usize) -> CreditOutcome {
        let n = races.len();
        let mut record = eqimpact_core::recorder::LoopRecord::new(n);
        for k in 0..steps {
            let signals = vec![if k % 2 == 0 { 1.0 } else { 0.0 }; n];
            let actions = vec![1.0; n];
            let filtered = vec![k as f64; n];
            record.push_step(&signals, &actions, &filtered);
        }
        CreditOutcome {
            record,
            races,
            scorecard: None,
        }
    }

    #[test]
    fn accessors_on_zero_step_record() {
        // An outcome whose record holds no steps (e.g. a trial that was
        // never run): the per-race series are empty, not panicking.
        let outcome = synthetic_outcome(vec![Race::White, Race::Black], 0);
        for race in Race::ALL {
            assert!(outcome.race_adr_series(race).is_empty(), "{race}");
        }
        assert!(outcome.user_adr_series(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn approval_rate_on_zero_step_record_panics() {
        // With no recorded steps there is no step 0 to read.
        synthetic_outcome(vec![Race::White], 0).approval_rate(0);
    }

    #[test]
    fn accessors_on_single_user_outcome() {
        let outcome = synthetic_outcome(vec![Race::Asian], 3);
        // The lone user's race series equals their individual series.
        assert_eq!(outcome.race_adr_series(Race::Asian), vec![0.0, 1.0, 2.0]);
        assert_eq!(outcome.user_adr_series(0), vec![0.0, 1.0, 2.0]);
        // Races with no members yield NaN at every step, same length.
        let empty_race = outcome.race_adr_series(Race::Black);
        assert_eq!(empty_race.len(), 3);
        assert!(empty_race.iter().all(|v| v.is_nan()));
        assert!(outcome.race_indices(Race::Black).is_empty());
        // Approval follows the alternating signals exactly.
        assert_eq!(outcome.approval_rate(0), 1.0);
        assert_eq!(outcome.approval_rate(1), 0.0);
        assert_eq!(outcome.approval_rate(2), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn approval_rate_out_of_range_step_panics() {
        let outcome = synthetic_outcome(vec![Race::White], 4);
        outcome.approval_rate(4); // steps are 0..=3
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn user_adr_series_out_of_range_user_panics() {
        let outcome = synthetic_outcome(vec![Race::White], 2);
        outcome.user_adr_series(1); // only user 0 exists
    }

    #[test]
    fn protocol_runs_all_trials() {
        let config = small_config(LenderKind::Scorecard);
        let outcomes = run_trials_protocol(&config);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].record.steps(), 19);
        // Deterministic: re-running matches.
        let again = run_trials_protocol(&config);
        assert_eq!(outcomes[0].record, again[0].record);
        assert_eq!(outcomes[1].record, again[1].record);
    }
}
