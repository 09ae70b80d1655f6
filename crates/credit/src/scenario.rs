//! The Sec. VII credit case study as a first-class [`Scenario`].
//!
//! [`CreditScenario`] plugs the five-trial credit protocol
//! ([`run_trial`]) into the generic scenario driver: trial striping,
//! intra-trial sharding and artifact writing all come from
//! `eqimpact_core::scenario`; this module only declares the paper/quick
//! configurations and renders the paper's artifacts (Table I, Figs. 2-5)
//! from the trial outcomes.

use crate::report;
use crate::sim::{run_trial, run_trial_sunk, CreditConfig, CreditOutcome, LenderKind};
use eqimpact_census::{IncomeTable, FIRST_YEAR};
use eqimpact_core::scenario::{
    Artifact, ArtifactSpec, Scale, Scenario, ScenarioConfig, ScenarioReport, TraceMeta,
};
use eqimpact_stats::plot::{AsciiChart, Series};
use eqimpact_stats::ToJson;

/// The credit configuration of a scale: the paper's N = 1000 households
/// and 5 trials, or the CI-friendly 400 x 2 quick shape.
pub fn scale_config(scale: Scale, lender: LenderKind) -> CreditConfig {
    CreditConfig {
        users: scale.pick(1000, 400),
        trials: scale.pick(5, 2),
        lender,
        ..CreditConfig::default()
    }
}

/// The credit case study as a registry scenario: census households, the
/// retrained scorecard lender and the ADR feedback filter, rendered into
/// the paper's Table I and Figs. 2-5.
pub struct CreditScenario;

/// The trace-header variant name of the scenario's recorded loop.
pub const TRACE_VARIANT: &str = "scorecard";

/// The per-trial [`CreditConfig`] a scenario config resolves to (scale
/// shapes, shard count, the scenario's record policy, and the seed
/// override).
pub fn trial_config(config: &ScenarioConfig) -> CreditConfig {
    let base = scale_config(config.scale, LenderKind::Scorecard);
    CreditConfig {
        shards: config.shards,
        policy: Scenario::record_policy(&CreditScenario, config.scale),
        seed: config.seed.unwrap_or(base.seed),
        ..base
    }
}

/// The artifacts [`CreditScenario`] renders.
const ARTIFACTS: &[ArtifactSpec] = &[
    ArtifactSpec {
        name: "table1",
        description: "Table I: the learned scorecard vs the paper's reference",
    },
    ArtifactSpec {
        name: "fig2",
        description: "Fig. 2: 2020 income distribution by race",
    },
    ArtifactSpec {
        name: "fig3",
        description: "Fig. 3: race-wise ADR series (mean +/- std across trials)",
    },
    ArtifactSpec {
        name: "fig4",
        description: "Fig. 4: every per-user ADR trajectory",
    },
    ArtifactSpec {
        name: "fig5",
        description: "Fig. 5: ADR density by year",
    },
];

impl Scenario for CreditScenario {
    type Outcome = CreditOutcome;

    fn name(&self) -> &'static str {
        "credit"
    }

    fn description(&self) -> &'static str {
        "Sec. VII credit loop: census households, retrained scorecard lender, ADR filter"
    }

    fn artifacts(&self) -> &'static [ArtifactSpec] {
        ARTIFACTS
    }

    fn trials(&self, scale: Scale) -> usize {
        scale_config(scale, LenderKind::Scorecard).trials
    }

    fn trials_needed(&self, config: &ScenarioConfig) -> usize {
        // fig2 is a pure census-table read; a request for it alone must
        // not pay for the closed loop.
        match &config.wanted {
            Some(wanted) if wanted.iter().all(|name| name == "fig2") => 0,
            _ => self.trials(config.scale),
        }
    }

    fn supports_tracing(&self) -> bool {
        true
    }

    fn run_trial(&self, config: &ScenarioConfig, trial: usize) -> CreditOutcome {
        let credit = trial_config(config);
        match &config.trace {
            None => run_trial(&credit, trial),
            Some(factory) => {
                let meta = TraceMeta {
                    scenario: "credit".to_string(),
                    variant: TRACE_VARIANT.to_string(),
                    trial,
                    scale: config.scale,
                    seed: credit.seed,
                    shards: credit.shards,
                    delay: credit.delay,
                    policy: credit.policy,
                };
                let mut sink = factory.sink(&meta);
                run_trial_sunk(&credit, trial, &mut sink)
            }
        }
    }

    fn render(&self, config: &ScenarioConfig, outcomes: &[CreditOutcome]) -> ScenarioReport {
        let mut report = ScenarioReport::default();
        report.summary.push(format!(
            "effective base seed: {} (trial t uses seed + t)",
            trial_config(config).seed
        ));
        if config.wants("table1") {
            render_table1(outcomes, &mut report);
        }
        if config.wants("fig2") {
            render_fig2(&mut report);
        }
        if config.wants("fig3") {
            render_fig3(outcomes, &mut report);
        }
        if config.wants("fig4") {
            render_fig4(outcomes, &mut report);
        }
        if config.wants("fig5") {
            render_fig5(outcomes, &mut report);
        }
        report
    }
}

fn render_table1(outcomes: &[CreditOutcome], out: &mut ScenarioReport) {
    let Some(card) = outcomes.iter().find_map(|o| o.scorecard.clone()) else {
        out.summary
            .push("table1: no scorecard was fitted (all refits failed)".to_string());
        return;
    };
    let t1 = report::Table1Scorecard::from_scorecard(&card);
    out.summary.push(format!(
        "Table I — learned scorecard: History {:+.3} (paper {:+.2}), Income {:+.3} (paper {:+.2}), base {:+.3}",
        t1.history_points, t1.paper_reference.0, t1.income_points, t1.paper_reference.1, t1.base_points
    ));
    out.summary.push(format!(
        "  worked example (ADR 0.1, income>15K): {:.3} (paper: 4.953)",
        t1.example_score
    ));
    out.artifacts.push(Artifact {
        name: "table1",
        file: "table1_scorecard.json".to_string(),
        contents: t1.to_json().render_pretty(),
    });
}

fn render_fig2(out: &mut ScenarioReport) {
    let rows = report::fig2_income_distribution(&IncomeTable::embedded(), 2020);
    out.summary
        .push(format!("Fig. 2 — {} income brackets by race", rows.len()));
    out.artifacts.push(Artifact {
        name: "fig2",
        file: "fig2_income_distribution.csv".to_string(),
        contents: report::fig2_csv(&rows),
    });
}

fn render_fig3(outcomes: &[CreditOutcome], out: &mut ScenarioReport) {
    let series = report::fig3_race_adr(outcomes);
    out.summary
        .push("Fig. 3 — final race-wise ADR (mean ± std across trials):".to_string());
    for s in &series {
        out.summary.push(format!(
            "  {:<12} {:.4} ± {:.4}",
            s.race,
            s.mean.last().copied().unwrap_or(f64::NAN),
            s.std.last().copied().unwrap_or(f64::NAN)
        ));
    }
    let glyphs = ['B', 'W', 'A'];
    let mut chart = AsciiChart::new(57, 12);
    for (s, &g) in series.iter().zip(&glyphs) {
        chart = chart.series(Series::new(s.race.clone(), s.mean.clone(), g));
    }
    out.summary
        .extend(chart.render().lines().map(|l| format!("  {l}")));
    out.artifacts.push(Artifact {
        name: "fig3",
        file: "fig3_race_adr.csv".to_string(),
        contents: report::fig3_csv(&series, FIRST_YEAR),
    });
}

fn render_fig4(outcomes: &[CreditOutcome], out: &mut ScenarioReport) {
    let series = report::fig4_user_adr(outcomes);
    out.summary.push(format!(
        "Fig. 4 — {} user ADR trajectories recorded",
        series.len()
    ));
    out.artifacts.push(Artifact {
        name: "fig4",
        file: "fig4_user_adr.csv".to_string(),
        contents: report::fig4_csv(&series, FIRST_YEAR),
    });
}

fn render_fig5(outcomes: &[CreditOutcome], out: &mut ScenarioReport) {
    let hist = report::fig5_density(outcomes, 25);
    out.summary
        .push("Fig. 5 — ADR density by year (dark = dense):".to_string());
    out.summary
        .extend(hist.to_ascii().lines().map(|l| format!("  |{l}|")));
    out.artifacts.push(Artifact {
        name: "fig5",
        file: "fig5_adr_density.csv".to_string(),
        contents: report::fig5_csv(&hist, FIRST_YEAR),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_core::scenario::{run_scenario, DynScenario};

    #[test]
    fn scale_config_matches_protocol_shapes() {
        let paper = scale_config(Scale::Paper, LenderKind::Scorecard);
        assert_eq!((paper.users, paper.trials), (1000, 5));
        let quick = scale_config(Scale::Quick, LenderKind::IncomeMultiple);
        assert_eq!((quick.users, quick.trials), (400, 2));
        assert_eq!(quick.lender, LenderKind::IncomeMultiple);
    }

    #[test]
    fn registry_metadata_is_complete() {
        let s: &dyn DynScenario = &CreditScenario;
        assert_eq!(s.name(), "credit");
        assert!(s.supports_sharding());
        let names: Vec<&str> = s.artifacts().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["table1", "fig2", "fig3", "fig4", "fig5"]);
    }

    #[test]
    fn fig2_renders_without_running_the_loop() {
        // fig2 is a pure table read: selecting only it skips the trial
        // loop entirely (trials_needed = 0) yet still renders.
        let config = ScenarioConfig::new(Scale::Quick).with_artifacts(["fig2"]);
        assert_eq!(Scenario::trials_needed(&CreditScenario, &config), 0);
        assert_eq!(
            Scenario::trials_needed(&CreditScenario, &ScenarioConfig::new(Scale::Quick)),
            2
        );
        let report = run_scenario(&CreditScenario, &config).unwrap();
        assert_eq!(report.artifacts.len(), 1);
        assert!(report.artifacts[0].contents.starts_with("bracket,"));
    }

    #[test]
    fn quick_run_produces_all_artifacts() {
        let report = run_scenario(&CreditScenario, &ScenarioConfig::new(Scale::Quick)).unwrap();
        let names: Vec<&str> = report.artifacts.iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["table1", "fig2", "fig3", "fig4", "fig5"]);
        assert!(report
            .artifacts
            .iter()
            .all(|a| !a.contents.is_empty() && !a.file.is_empty()));
        // Fig. 3's CSV covers 3 races x 19 years + header.
        let fig3 = &report.artifacts[2];
        assert_eq!(fig3.contents.lines().count(), 3 * 19 + 1);
    }
}
