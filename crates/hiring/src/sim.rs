//! The simulation driver: one hiring trial.

use crate::applicants::ApplicantPool;
use crate::screener::{AdaptiveScreener, CredentialScreener};
use crate::track::TrackRecordFilter;
use eqimpact_census::Race;
use eqimpact_core::closed_loop::LoopBuilder;
use eqimpact_core::recorder::{LoopRecord, RecordPolicy, StepSink};
use eqimpact_core::shard::ShardableAi;
use eqimpact_ml::logistic::LogisticModel;
use eqimpact_stats::SimRng;

/// Which screener drives the loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScreenerKind {
    /// The retrained logistic screener.
    Adaptive,
    /// The credential-gate equal-treatment baseline.
    Credential,
}

/// Configuration of a hiring experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiringConfig {
    /// Number of applicants.
    pub applicants: usize,
    /// Number of yearly hiring rounds.
    pub rounds: usize,
    /// Number of independent trials.
    pub trials: usize,
    /// Base seed; trial `t` uses stream `seed + t`.
    pub seed: u64,
    /// The screener.
    pub screener: ScreenerKind,
    /// Feedback delay in rounds (the paper's Fig. 1 delay; 1 by default).
    pub delay: usize,
    /// Intra-trial shards of the `ShardedRunner`: `n ≥ 1` row shards
    /// (`1` sweeps on the calling thread and spawns nothing), `0`
    /// auto-shards. The record is bit-identical for every setting, and to
    /// the sequential `LoopRunner`'s.
    pub shards: usize,
    /// How much telemetry to keep.
    pub policy: RecordPolicy,
}

impl Default for HiringConfig {
    fn default() -> Self {
        HiringConfig {
            applicants: 800,
            rounds: 19,
            trials: 5,
            seed: 1_990,
            screener: ScreenerKind::Adaptive,
            delay: 1,
            shards: 1,
            policy: RecordPolicy::Full,
        }
    }
}

/// Everything produced by one trial.
#[derive(Debug, Clone)]
pub struct HiringOutcome {
    /// Full loop telemetry; `filtered[k][i]` is applicant `i`'s track
    /// record at round `k`.
    pub record: LoopRecord,
    /// Race per applicant (fixed at generation).
    pub races: Vec<Race>,
    /// The screener's final logistic model, when the screener is
    /// [`ScreenerKind::Adaptive`] and at least one refit happened.
    pub model: Option<LogisticModel>,
}

impl HiringOutcome {
    /// Applicant indices of a race.
    pub fn race_indices(&self, race: Race) -> Vec<usize> {
        self.races
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == race)
            .map(|(i, _)| i)
            .collect()
    }

    /// The race-wise hire-rate series: fraction of the race hired at each
    /// round (the equal-treatment view).
    pub fn race_hire_series(&self, race: Race) -> Vec<f64> {
        let members = self.race_indices(race);
        (0..self.record.steps())
            .map(|k| {
                if members.is_empty() {
                    f64::NAN
                } else {
                    let signals = self.record.signals(k);
                    members.iter().filter(|&&i| signals[i] > 0.0).count() as f64
                        / members.len() as f64
                }
            })
            .collect()
    }

    /// The race-wise mean track-record series (the equal-impact view).
    pub fn race_track_series(&self, race: Race) -> Vec<f64> {
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

    /// Overall hire rate at round `k`.
    #[cfg(test)]
    pub fn hire_rate(&self, k: usize) -> f64 {
        let signals = self.record.signals(k);
        signals.iter().filter(|&&s| s > 0.0).count() as f64 / signals.len() as f64
    }
}

/// Runs one screener through the sharded loop with static dispatch over
/// `config.shards` shards.
fn run_screener<S: ShardableAi, K: StepSink>(
    screener: S,
    pool: ApplicantPool,
    config: &HiringConfig,
    loop_rng: &mut SimRng,
    sink: &mut K,
) -> (LoopRecord, S) {
    let mut runner = LoopBuilder::new(screener, pool)
        .filter(TrackRecordFilter::new())
        .delay(config.delay)
        .record(config.policy)
        .shards(config.shards)
        .build_sharded();
    let record = runner.run_with_sink(config.rounds, loop_rng, sink);
    let (screener, _pool, _filter) = runner.into_parts();
    (record, screener)
}

/// Runs one trial of the configured experiment. Deterministic in
/// `(config, trial_index)`.
pub fn run_trial(config: &HiringConfig, trial_index: usize) -> HiringOutcome {
    run_trial_sunk(config, trial_index, &mut ())
}

/// [`run_trial`] with a [`StepSink`] observing the loop's raw telemetry
/// — the entry point trace recording goes through. The sink first
/// receives the race metadata (labels in [`Race::ALL`] order, one code
/// per applicant), then one call per round.
pub fn run_trial_sunk<K: StepSink>(
    config: &HiringConfig,
    trial_index: usize,
    sink: &mut K,
) -> HiringOutcome {
    assert!(config.applicants > 0, "run_trial: zero applicants");
    assert!(config.rounds > 0, "run_trial: zero rounds");
    let rng = SimRng::new(config.seed.wrapping_add(trial_index as u64));
    let mut pool_rng = rng.split(1);
    let mut loop_rng = rng.split(2);

    let pool = ApplicantPool::generate(config.applicants, &mut pool_rng);
    let races = pool.races();
    let labels: Vec<&str> = Race::ALL.iter().map(|r| r.label()).collect();
    let codes: Vec<u32> = races.iter().map(|r| r.index() as u32).collect();
    sink.on_groups(&labels, &codes);

    let (record, model) = match config.screener {
        ScreenerKind::Adaptive => {
            let (record, screener) = run_screener(
                AdaptiveScreener::default_config(),
                pool,
                config,
                &mut loop_rng,
                sink,
            );
            (record, screener.model().cloned())
        }
        ScreenerKind::Credential => {
            let (record, _screener) =
                run_screener(CredentialScreener::new(), pool, config, &mut loop_rng, sink);
            (record, None)
        }
    };

    HiringOutcome {
        record,
        races,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(screener: ScreenerKind) -> HiringConfig {
        HiringConfig {
            applicants: 200,
            rounds: 12,
            trials: 2,
            seed: 11,
            screener,
            ..Default::default()
        }
    }

    /// The sequential `LoopRunner`'s record and races of
    /// `run_trial(config, 0)`: the same stream split and blocks, built with
    /// `LoopBuilder::build`.
    fn sequential_trial(config: &HiringConfig) -> (LoopRecord, Vec<Race>) {
        fn run<S: ShardableAi>(screener: S, config: &HiringConfig) -> (LoopRecord, Vec<Race>) {
            let rng = SimRng::new(config.seed);
            let pool = ApplicantPool::generate(config.applicants, &mut rng.split(1));
            let races = pool.races();
            let record = LoopBuilder::new(screener, pool)
                .filter(TrackRecordFilter::new())
                .delay(config.delay)
                .record(config.policy)
                .build()
                .run(config.rounds, &mut rng.split(2));
            (record, races)
        }
        match config.screener {
            ScreenerKind::Adaptive => run(AdaptiveScreener::default_config(), config),
            ScreenerKind::Credential => run(CredentialScreener::new(), config),
        }
    }

    #[test]
    fn trial_is_deterministic() {
        let config = small_config(ScreenerKind::Adaptive);
        let a = run_trial(&config, 0);
        let b = run_trial(&config, 0);
        assert_eq!(a.record, b.record);
        assert_eq!(a.races, b.races);
    }

    #[test]
    fn trials_differ_across_indices() {
        let config = small_config(ScreenerKind::Adaptive);
        let a = run_trial(&config, 0);
        let b = run_trial(&config, 1);
        assert_ne!(a.record, b.record);
    }

    #[test]
    fn warmup_rounds_hire_everyone() {
        let config = small_config(ScreenerKind::Adaptive);
        let outcome = run_trial(&config, 0);
        assert_eq!(outcome.hire_rate(0), 1.0);
        assert_eq!(outcome.hire_rate(1), 1.0);
    }

    #[test]
    fn adaptive_screener_fits_a_model() {
        let config = small_config(ScreenerKind::Adaptive);
        let outcome = run_trial(&config, 0);
        let model = outcome.model.expect("model fitted");
        assert!(model.coefficients.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn credential_screener_reproduces_credential_rates() {
        let config = small_config(ScreenerKind::Credential);
        let outcome = run_trial(&config, 0);
        // Hire rate equals the credentialed share: strictly between 0 and 1.
        let rate = outcome.hire_rate(3);
        assert!(rate > 0.0 && rate < 1.0, "rate = {rate}");
        // And the race-wise hire rates differ (unequal impact of the
        // equal-treatment gate).
        let finals: Vec<f64> = Race::ALL
            .iter()
            .map(|&r| *outcome.race_hire_series(r).last().expect("rounds > 0"))
            .collect();
        let hi = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = finals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(hi - lo > 0.05, "race hire-rate spread = {}", hi - lo);
    }

    #[test]
    fn race_series_have_round_length() {
        let config = small_config(ScreenerKind::Adaptive);
        let outcome = run_trial(&config, 0);
        for race in Race::ALL {
            assert_eq!(outcome.race_hire_series(race).len(), 12);
            assert_eq!(outcome.race_track_series(race).len(), 12);
            for v in outcome.race_track_series(race) {
                assert!(v.is_nan() || (0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn sharded_trials_are_bit_identical_for_every_screener() {
        // Any shard count (including one and auto) reproduces the
        // sequential record exactly.
        for screener in [ScreenerKind::Adaptive, ScreenerKind::Credential] {
            let config = HiringConfig {
                applicants: 150,
                rounds: 8,
                ..small_config(screener)
            };
            let (record, races) = sequential_trial(&config);
            for shards in [1usize, 2, 8, 0] {
                let outcome = run_trial(&HiringConfig { shards, ..config }, 0);
                assert_eq!(outcome.record, record, "{screener:?} x {shards} shards");
                assert_eq!(outcome.races, races);
            }
        }
    }

    #[test]
    fn thin_policy_flows_through() {
        let config = HiringConfig {
            policy: RecordPolicy::Thin,
            shards: 2,
            ..small_config(ScreenerKind::Credential)
        };
        let outcome = run_trial(&config, 0);
        assert_eq!(outcome.record.policy(), RecordPolicy::Thin);
        assert_eq!(outcome.record.mean_actions().len(), 12);
    }
}
