//! The static scenario registry behind the `experiments` CLI.
//!
//! Every workload the binary can run is one row of [`SCENARIOS`]: a
//! [`DynScenario`] plus, when it records traces, the [`Traced`] faces
//! that replay, sweep and certify them. The closed-loop case studies
//! ([`CreditScenario`], [`HiringScenario`]) plug in through the typed
//! `Scenario` trait, while the ablation suite implements the object-safe
//! face directly (it is not a trials-of-one-outcome workload). Adding a
//! scenario is one `impl` plus one row, which every CLI command, the
//! `list --json` capability flags and the CI smoke matrix read.

use crate::experiments::{
    ablate_delay, ablate_filter, ablate_integral, ablate_markov, ablate_policy,
};
use eqimpact_census::FIRST_YEAR;
use eqimpact_certify::CertifyTarget;
use eqimpact_core::scenario::{
    validate_artifacts, Artifact, ArtifactSpec, DynScenario, ScenarioConfig, ScenarioError,
    ScenarioReport,
};
use eqimpact_credit::report;
use eqimpact_credit::sim::{run_trials_protocol, CreditConfig, LenderKind};
use eqimpact_credit::{CreditCertify, CreditScenario, CreditSweep, CreditTracer};
use eqimpact_hiring::{HiringCertify, HiringScenario, HiringSweep, HiringTracer};
use eqimpact_lab::SweepTarget;
use eqimpact_stats::ToJson;
use eqimpact_trace::TraceReplayer;

/// The ablation suite (A1-A5) as one registry scenario. Each artifact is
/// an independent study with its own internal protocol, so this type
/// implements [`DynScenario`] directly instead of the trials-driven
/// `Scenario` trait.
pub struct AblationScenario;

const ABLATION_ARTIFACTS: &[ArtifactSpec] = &[
    ArtifactSpec {
        name: "ablate-policy",
        description: "A1: uniform-$50K vs income-multiple access (plus access series CSV)",
    },
    ArtifactSpec {
        name: "ablate-integral",
        description: "A2: integral action vs stable control (ergodicity loss)",
    },
    ArtifactSpec {
        name: "ablate-markov",
        description: "A3: invariant-measure attractivity",
    },
    ArtifactSpec {
        name: "ablate-delay",
        description: "A4: feedback-delay sensitivity of the credit loop",
    },
    ArtifactSpec {
        name: "ablate-filter",
        description: "A5: feedback-filter choice in the ensemble loop",
    },
];

impl DynScenario for AblationScenario {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn description(&self) -> &'static str {
        "ablation suite A1-A5: policy, integral action, Markov attractivity, delay, filter"
    }

    fn artifacts(&self) -> &'static [ArtifactSpec] {
        ABLATION_ARTIFACTS
    }

    fn supports_sharding(&self) -> bool {
        false
    }

    fn run(&self, config: &ScenarioConfig) -> Result<ScenarioReport, ScenarioError> {
        validate_artifacts(DynScenario::name(self), self.artifacts(), config)?;
        if config.shards != 1 {
            return Err(ScenarioError::ShardingUnsupported {
                scenario: DynScenario::name(self),
            });
        }
        if config.trace.is_some() {
            return Err(ScenarioError::TracingUnsupported {
                scenario: DynScenario::name(self),
            });
        }
        let scale = config.scale;
        let mut out = ScenarioReport::default();
        if config.wants("ablate-policy") {
            let a1 =
                ablate_policy(scale, config.seed).map_err(|message| ScenarioError::Failed {
                    scenario: DynScenario::name(self),
                    message,
                })?;
            out.summary.push(format!(
                "A1 — access gaps: uniform-exclusion {:.4}, income-multiple {:.4}",
                a1.approval_gaps.0, a1.approval_gaps.1
            ));
            out.artifacts.push(Artifact {
                name: "ablate-policy",
                file: "ablate_policy.json".to_string(),
                contents: a1.to_json().render_pretty(),
            });
            // Year-by-year access series under the uniform policy (the
            // exclusion dynamics of the introduction, as CSV).
            let base = eqimpact_credit::scenario::scale_config(scale, LenderKind::UniformExclusion);
            let config = CreditConfig {
                steps: scale.pick(60, 30),
                trials: 1,
                seed: config.seed.unwrap_or(base.seed),
                ..base
            };
            let outcomes = run_trials_protocol(&config);
            let rates = report::approval_rates_by_race(&outcomes);
            out.artifacts.push(Artifact {
                name: "ablate-policy",
                file: "ablate_policy_access_series.csv".to_string(),
                contents: report::approval_csv(&rates, FIRST_YEAR),
            });
        }
        if config.wants("ablate-integral") {
            let a2 = ablate_integral(scale, config.seed);
            out.summary.push(format!(
                "A2 — max spread: integral {:.4} (ergodicity LOST), proportional {:.4} (ergodic)",
                a2.integral_gap.max_spread, a2.proportional_gap.max_spread
            ));
            out.artifacts.push(Artifact {
                name: "ablate-integral",
                file: "ablate_integral.json".to_string(),
                contents: a2.to_json().render_pretty(),
            });
        }
        if config.wants("ablate-markov") {
            let a3 =
                ablate_markov(scale, config.seed).map_err(|message| ScenarioError::Failed {
                    scenario: DynScenario::name(self),
                    message,
                })?;
            out.summary.push(format!(
                "A3 — primitive TV {:.2e}, periodic TV {:.4}, IFS converged: {}, verdict {:?}",
                a3.primitive_tv.last().copied().unwrap_or(f64::NAN),
                a3.periodic_tv.last().copied().unwrap_or(f64::NAN),
                a3.ifs_converged,
                a3.ifs_verdict
            ));
            out.artifacts.push(Artifact {
                name: "ablate-markov",
                file: "ablate_markov.json".to_string(),
                contents: a3.to_json().render_pretty(),
            });
        }
        if config.wants("ablate-delay") {
            let a4 = ablate_delay(scale, config.seed).map_err(|message| ScenarioError::Failed {
                scenario: DynScenario::name(self),
                message,
            })?;
            out.summary
                .push("A4 — delay | final race ADR spread | final mean ADR".to_string());
            for i in 0..a4.delays.len() {
                out.summary.push(format!(
                    "      {:>4} | {:>21.4} | {:>14.4}",
                    a4.delays[i], a4.race_spread[i], a4.mean_adr[i]
                ));
            }
            out.artifacts.push(Artifact {
                name: "ablate-delay",
                file: "ablate_delay.json".to_string(),
                contents: a4.to_json().render_pretty(),
            });
        }
        if config.wants("ablate-filter") {
            let a5 = ablate_filter(scale, config.seed);
            out.summary
                .push("A5 — filter          | tail tracking err | late signal swing".to_string());
            for i in 0..a5.filters.len() {
                out.summary.push(format!(
                    "      {:<15} | {:>17.4} | {:>17.5}",
                    a5.filters[i], a5.tracking_error[i], a5.late_signal_swing[i]
                ));
            }
            out.artifacts.push(Artifact {
                name: "ablate-filter",
                file: "ablate_filter.json".to_string(),
                contents: a5.to_json().render_pretty(),
            });
        }
        Ok(out)
    }
}

/// One registered scenario: what `list` shows and `run` runs, plus the
/// faces that consume its traces when it records any.
pub struct ScenarioEntry {
    /// The scenario itself.
    pub scenario: &'static dyn DynScenario,
    /// The trace-consuming faces; `None` for a scenario that records no
    /// traces. Matches [`DynScenario::supports_tracing`], which
    /// `run_scenario` guards on.
    pub traced: Option<Traced>,
}

/// The three faces of a scenario that records traces. They come as one
/// value, so a scenario cannot be registered with some but not all.
pub struct Traced {
    /// Verified replay (`experiments replay`).
    pub replay: &'static dyn TraceReplayer,
    /// Off-policy evaluation: the counterfactual lab's candidate grids
    /// (`experiments sweep`) and one candidate's report
    /// (`experiments replay --policy`).
    pub sweep: &'static dyn SweepTarget,
    /// The certification plane's extraction spec (`experiments certify`).
    pub certify: &'static dyn CertifyTarget,
}

/// Every registered scenario, in listing order. Names must be distinct;
/// a unit test checks that over this table.
pub static SCENARIOS: &[ScenarioEntry] = &[
    ScenarioEntry {
        scenario: &CreditScenario,
        traced: Some(Traced {
            replay: &CreditTracer,
            sweep: &CreditSweep,
            certify: &CreditCertify,
        }),
    },
    ScenarioEntry {
        scenario: &HiringScenario,
        traced: Some(Traced {
            replay: &HiringTracer,
            sweep: &HiringSweep,
            certify: &HiringCertify,
        }),
    },
    ScenarioEntry {
        scenario: &AblationScenario,
        traced: None,
    },
];

/// Looks a scenario's row up by its registry name.
pub fn find(name: &str) -> Option<&'static ScenarioEntry> {
    SCENARIOS.iter().find(|entry| entry.scenario.name() == name)
}

/// The registered scenario names, in listing order.
pub fn names() -> Vec<&'static str> {
    SCENARIOS
        .iter()
        .map(|entry| entry.scenario.name())
        .collect()
}

/// The scenarios that record traces, with their faces, in listing order.
pub fn traced() -> impl Iterator<Item = (&'static str, &'static Traced)> {
    SCENARIOS
        .iter()
        .filter_map(|entry| Some((entry.scenario.name(), entry.traced.as_ref()?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_core::scenario::Scale;

    #[test]
    fn registry_holds_distinct_named_scenarios() {
        let names = names();
        assert!(names.len() >= 2, "at least credit + hiring: {names:?}");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate names: {names:?}");
        assert!(names.contains(&"credit") && names.contains(&"hiring"));
        for entry in SCENARIOS {
            assert!(!entry.scenario.description().is_empty());
            assert!(!entry.scenario.artifacts().is_empty());
        }
    }

    #[test]
    fn find_resolves_names_and_rejects_unknowns() {
        assert_eq!(find("credit").unwrap().scenario.name(), "credit");
        assert_eq!(find("hiring").unwrap().scenario.name(), "hiring");
        assert!(find("credits").is_none());
        assert!(find("").is_none());
    }

    #[test]
    fn tracers_cover_the_closed_loop_scenarios() {
        let names: Vec<&str> = traced().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["credit", "hiring"]);
        // Each named face answers to its row's name, and each is usable:
        // the default grid stays within the declared axes, the
        // extraction spec is well-formed.
        for (name, traced) in traced() {
            assert_eq!(traced.sweep.name(), name);
            assert_eq!(traced.certify.name(), name);
            let sweep = traced.sweep;
            assert!(!sweep.known_policies().is_empty(), "{name}");
            assert!(!sweep.known_filters().is_empty(), "{name}");
            let grid = sweep.default_grid();
            assert!(!grid.is_empty(), "{name}");
            for policy in &grid.policies {
                assert!(sweep.known_policies().contains(&policy.as_str()));
            }
            for filter in &grid.filters {
                assert!(sweep.known_filters().contains(&filter.as_str()));
            }
            let spec = traced.certify.spec();
            assert!(spec.bins > 0, "{name}");
            assert!(spec.state_lo < spec.state_hi, "{name}");
            assert!(!spec.model_fields.is_empty(), "{name}");
        }
    }

    #[test]
    fn trace_support_and_replayer_registration_agree() {
        // A scenario records traces iff its row has the faces to consume
        // them: a mismatch would make `experiments record`'s exit-3 skip
        // and run_scenario's gate disagree.
        for entry in SCENARIOS {
            assert_eq!(
                entry.scenario.supports_tracing(),
                entry.traced.is_some(),
                "scenario `{}`: supports_tracing vs its row's trace faces",
                entry.scenario.name()
            );
        }
    }

    #[test]
    fn non_tracing_scenarios_reject_trace_configs() {
        use eqimpact_core::scenario::{TraceMeta, TraceSinkFactory};
        use eqimpact_core::StepSink;
        struct NullFactory;
        impl TraceSinkFactory for NullFactory {
            fn sink(&self, _meta: &TraceMeta) -> Box<dyn StepSink + Send> {
                Box::new(())
            }
            fn take_errors(&self) -> Vec<String> {
                Vec::new()
            }
        }
        let config = ScenarioConfig::new(Scale::Quick).with_trace(std::sync::Arc::new(NullFactory));
        for scenario in SCENARIOS.iter().map(|entry| entry.scenario) {
            if scenario.supports_tracing() {
                continue;
            }
            assert!(
                matches!(
                    scenario.run(&config),
                    Err(ScenarioError::TracingUnsupported { .. })
                ),
                "scenario `{}` silently ignored an attached trace sink",
                scenario.name()
            );
        }
    }

    #[test]
    fn ablations_validate_artifact_names() {
        let bad = ScenarioConfig::new(Scale::Quick).with_artifacts(["ablate-nope"]);
        match AblationScenario.run(&bad) {
            Err(ScenarioError::UnknownArtifact {
                scenario, known, ..
            }) => {
                assert_eq!(scenario, "ablations");
                assert!(known.contains(&"ablate-delay"));
            }
            other => panic!("expected UnknownArtifact, got {other:?}"),
        }
    }

    #[test]
    fn ablations_reject_sharding() {
        let config = ScenarioConfig::new(Scale::Quick).with_shards(4);
        assert!(matches!(
            AblationScenario.run(&config),
            Err(ScenarioError::ShardingUnsupported { .. })
        ));
    }

    #[test]
    fn ablation_subset_runs_only_what_was_asked() {
        let config = ScenarioConfig::new(Scale::Quick).with_artifacts(["ablate-markov"]);
        let report = AblationScenario.run(&config).unwrap();
        assert_eq!(report.artifacts.len(), 1);
        assert_eq!(report.artifacts[0].file, "ablate_markov.json");
        assert!(report.summary[0].contains("A3"));
    }
}
