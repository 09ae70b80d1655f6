//! The hiring loop as a first-class [`Scenario`].
//!
//! Each trial runs **both** screeners over the same applicant pool — the
//! retrained [`AdaptiveScreener`](crate::screener::AdaptiveScreener) and
//! the credential-gate baseline — so the rendered artifacts contrast the
//! two policies the way the paper's introduction contrasts its lenders:
//! the gate treats every visible credential identically yet produces
//! unequal impact across races, while the adaptive screener's decisions
//! feed back through track records.

use crate::sim::{run_trial, run_trial_sunk, HiringConfig, HiringOutcome, ScreenerKind};
use eqimpact_census::{Race, FIRST_YEAR};
use eqimpact_core::impact::{conditioned_equal_impact_report, group_limits};
use eqimpact_core::scenario::{
    Artifact, ArtifactSpec, Scale, Scenario, ScenarioConfig, ScenarioReport, TraceMeta,
};
use eqimpact_core::treatment::equal_treatment_report;
use eqimpact_stats::{Json, ToJson};

/// The hiring configuration of a scale.
pub fn scale_config(scale: Scale, screener: ScreenerKind) -> HiringConfig {
    HiringConfig {
        applicants: scale.pick(800, 300),
        trials: scale.pick(5, 2),
        screener,
        ..HiringConfig::default()
    }
}

/// One trial of the scenario: both screeners over the same pool.
pub struct HiringTrial {
    /// The retrained logistic screener's outcome.
    pub adaptive: HiringOutcome,
    /// The credential-gate baseline's outcome.
    pub credential: HiringOutcome,
}

/// The hiring loop as a registry scenario: census applicants, a
/// retrained logistic screener vs a credential gate, and the
/// track-record feedback filter.
pub struct HiringScenario;

/// The trace-header variant name of a screener's recorded loop.
pub fn variant_name(screener: ScreenerKind) -> &'static str {
    match screener {
        ScreenerKind::Adaptive => "adaptive",
        ScreenerKind::Credential => "credential",
    }
}

/// The per-trial [`HiringConfig`] a scenario config resolves to (scale
/// shapes, shard count and the seed override).
pub fn trial_config(config: &ScenarioConfig, screener: ScreenerKind) -> HiringConfig {
    let base = scale_config(config.scale, screener);
    HiringConfig {
        shards: config.shards,
        seed: config.seed.unwrap_or(base.seed),
        ..base
    }
}

/// The artifacts [`HiringScenario`] renders.
const ARTIFACTS: &[ArtifactSpec] = &[
    ArtifactSpec {
        name: "hire-rates",
        description: "race-wise hire-rate series, adaptive vs credential-gate",
    },
    ArtifactSpec {
        name: "track-record",
        description: "race-wise mean track-record series, adaptive vs credential-gate",
    },
    ArtifactSpec {
        name: "fairness",
        description: "equal-treatment / equal-impact verdicts per screener",
    },
];

impl Scenario for HiringScenario {
    type Outcome = HiringTrial;

    fn name(&self) -> &'static str {
        "hiring"
    }

    fn description(&self) -> &'static str {
        "hiring loop: census applicants, retrained logistic screener vs credential gate"
    }

    fn artifacts(&self) -> &'static [ArtifactSpec] {
        ARTIFACTS
    }

    fn trials(&self, scale: Scale) -> usize {
        scale_config(scale, ScreenerKind::Adaptive).trials
    }

    fn supports_tracing(&self) -> bool {
        true
    }

    fn run_trial(&self, config: &ScenarioConfig, trial: usize) -> HiringTrial {
        let run = |screener| {
            let hiring = trial_config(config, screener);
            match &config.trace {
                None => run_trial(&hiring, trial),
                Some(factory) => {
                    let meta = TraceMeta {
                        scenario: "hiring".to_string(),
                        variant: variant_name(screener).to_string(),
                        trial,
                        scale: config.scale,
                        seed: hiring.seed,
                        shards: hiring.shards,
                        delay: hiring.delay,
                        policy: hiring.policy,
                    };
                    let mut sink = factory.sink(&meta);
                    run_trial_sunk(&hiring, trial, &mut sink)
                }
            }
        };
        HiringTrial {
            adaptive: run(ScreenerKind::Adaptive),
            credential: run(ScreenerKind::Credential),
        }
    }

    fn render(&self, config: &ScenarioConfig, outcomes: &[HiringTrial]) -> ScenarioReport {
        let mut report = ScenarioReport::default();
        report.summary.push(format!(
            "effective base seed: {} (trial t uses seed + t)",
            trial_config(config, ScreenerKind::Adaptive).seed
        ));
        if config.wants("hire-rates") {
            render_series(
                outcomes,
                HiringOutcome::race_hire_series,
                "hire-rates",
                "hiring_hire_rates.csv",
                "hire_rate",
                &mut report,
            );
        }
        if config.wants("track-record") {
            render_series(
                outcomes,
                HiringOutcome::race_track_series,
                "track-record",
                "hiring_track_record.csv",
                "mean_track_record",
                &mut report,
            );
        }
        if config.wants("fairness") {
            render_fairness(outcomes, &mut report);
        }
        report
    }
}

/// Cross-trial mean of a per-outcome race series.
fn mean_series(
    outcomes: &[HiringTrial],
    pick: impl Fn(&HiringTrial) -> &HiringOutcome,
    series: impl Fn(&HiringOutcome, Race) -> Vec<f64>,
    race: Race,
) -> Vec<f64> {
    let per_trial: Vec<Vec<f64>> = outcomes.iter().map(|t| series(pick(t), race)).collect();
    let steps = per_trial.first().map(|s| s.len()).unwrap_or(0);
    (0..steps)
        .map(|k| {
            let vals: Vec<f64> = per_trial
                .iter()
                .map(|s| s[k])
                .filter(|v| !v.is_nan())
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

/// Renders one race-series artifact:
/// `year,race,adaptive_<what>,credential_<what>`.
fn render_series(
    outcomes: &[HiringTrial],
    series: fn(&HiringOutcome, Race) -> Vec<f64>,
    name: &'static str,
    file: &str,
    what: &str,
    out: &mut ScenarioReport,
) {
    let mut csv = format!("year,race,adaptive_{what},credential_{what}\n");
    let mut final_lines = Vec::new();
    for race in Race::ALL {
        let adaptive = mean_series(outcomes, |t| &t.adaptive, series, race);
        let credential = mean_series(outcomes, |t| &t.credential, series, race);
        for (k, (a, c)) in adaptive.iter().zip(&credential).enumerate() {
            csv.push_str(&format!(
                "{},{},{:.6},{:.6}\n",
                FIRST_YEAR + k as u32,
                race.label(),
                a,
                c
            ));
        }
        final_lines.push(format!(
            "  {:<12} adaptive {:.4}, credential-gate {:.4}",
            race.label(),
            adaptive.last().copied().unwrap_or(f64::NAN),
            credential.last().copied().unwrap_or(f64::NAN)
        ));
    }
    out.summary.push(format!(
        "{name} — final {what} by race (mean across trials):"
    ));
    out.summary.extend(final_lines);
    out.artifacts.push(Artifact {
        name,
        file: file.to_string(),
        contents: csv,
    });
}

/// The equal-treatment / equal-impact verdicts of one screener's trial-0
/// record, race-conditioned — computed once and reused for both the JSON
/// artifact and the console summary.
struct FairnessVerdict {
    race_limits: Vec<f64>,
    impact_max_spread: f64,
    json: Json,
}

fn fairness_verdict(outcome: &HiringOutcome) -> FairnessVerdict {
    let classes: Vec<Vec<usize>> = Race::ALL.iter().map(|&r| outcome.race_indices(r)).collect();
    let treatment = equal_treatment_report(&outcome.record, 1e-9);
    let impact = conditioned_equal_impact_report(&outcome.record, &classes, 0.25, 0.05);
    let race_limits = group_limits(&impact, &classes);
    let labels: Vec<Json> = Race::ALL.iter().map(|r| r.label().to_json()).collect();
    let json = Json::obj([
        ("races", Json::Arr(labels)),
        ("race_impact_limits", race_limits.to_json()),
        ("impact_max_spread", impact.max_spread.to_json()),
        ("impact_all_coincide", impact.all_coincide.to_json()),
        (
            "treatment_max_signal_spread",
            treatment.max_signal_spread.to_json(),
        ),
        ("treatment_same_signal", treatment.same_signal.to_json()),
        ("treatment_satisfied", treatment.satisfied.to_json()),
    ]);
    FairnessVerdict {
        race_limits,
        impact_max_spread: impact.max_spread,
        json,
    }
}

fn render_fairness(outcomes: &[HiringTrial], out: &mut ScenarioReport) {
    let Some(first) = outcomes.first() else {
        out.summary.push("fairness: no trials".to_string());
        return;
    };
    let adaptive = fairness_verdict(&first.adaptive);
    let credential = fairness_verdict(&first.credential);
    for (label, v) in [("adaptive", &adaptive), ("credential-gate", &credential)] {
        out.summary.push(format!(
            "fairness [{label}]: race impact limits [{:.4}, {:.4}, {:.4}], spread {:.4}",
            v.race_limits[0], v.race_limits[1], v.race_limits[2], v.impact_max_spread
        ));
    }
    let doc = Json::obj([
        ("adaptive", adaptive.json),
        ("credential_gate", credential.json),
    ]);
    out.artifacts.push(Artifact {
        name: "fairness",
        file: "hiring_fairness.json".to_string(),
        contents: doc.render_pretty(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_core::scenario::{run_scenario, DynScenario};

    #[test]
    fn scale_config_shapes() {
        let paper = scale_config(Scale::Paper, ScreenerKind::Adaptive);
        assert_eq!((paper.applicants, paper.trials), (800, 5));
        let quick = scale_config(Scale::Quick, ScreenerKind::Credential);
        assert_eq!((quick.applicants, quick.trials), (300, 2));
        assert_eq!(quick.screener, ScreenerKind::Credential);
    }

    #[test]
    fn registry_metadata_is_complete() {
        let s: &dyn DynScenario = &HiringScenario;
        assert_eq!(s.name(), "hiring");
        assert!(s.supports_sharding());
        let names: Vec<&str> = s.artifacts().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["hire-rates", "track-record", "fairness"]);
    }

    #[test]
    fn quick_run_produces_all_artifacts() {
        let report = run_scenario(&HiringScenario, &ScenarioConfig::new(Scale::Quick)).unwrap();
        let names: Vec<&str> = report.artifacts.iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["hire-rates", "track-record", "fairness"]);
        // Series CSVs cover 3 races x 19 rounds + header.
        assert_eq!(report.artifacts[0].contents.lines().count(), 3 * 19 + 1);
        assert_eq!(report.artifacts[1].contents.lines().count(), 3 * 19 + 1);
        assert!(report.artifacts[2].contents.contains("credential_gate"));
        // The credential gate does not treat race groups to equal impact:
        // the summary carries both verdicts.
        assert!(report.summary.iter().any(|l| l.contains("credential-gate")));
    }
}
