//! The static scenario registry behind the `experiments` CLI.
//!
//! Every workload the binary can run is a
//! [`DynScenario`](eqimpact_core::scenario::DynScenario) registered here:
//! the closed-loop case studies ([`CreditScenario`], [`HiringScenario`])
//! plug in through the typed `Scenario` trait, while the ablation suite
//! implements the object-safe face directly (it is not a
//! trials-of-one-outcome workload). Adding a
//! scenario is one `impl` plus one line in [`scenarios`]; the CLI, the
//! artifact validation and the CI smoke matrix pick it up automatically.

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

/// Rejects duplicate names in a registry listing — the invariant behind
/// [`find`]'s "one name, one scenario" contract.
fn validate_unique_names(names: &[&str]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !seen.insert(*name) {
            return Err(format!("duplicate scenario name `{name}` in the registry"));
        }
    }
    Ok(())
}

/// Every registered scenario, in listing order.
///
/// # Panics
/// Panics (once, at first use) when two registered scenarios share a
/// name — a duplicate would make [`find`] and the CLI ambiguous, so the
/// registry refuses to construct.
pub fn scenarios() -> &'static [&'static dyn DynScenario] {
    static REGISTRY: [&dyn DynScenario; 3] = [&CreditScenario, &HiringScenario, &AblationScenario];
    static VALIDATED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    VALIDATED.get_or_init(|| {
        let names: Vec<&str> = REGISTRY.iter().map(|s| s.name()).collect();
        validate_unique_names(&names).expect("scenario registry");
    });
    &REGISTRY
}

/// Looks a scenario up by its registry name.
pub fn find(name: &str) -> Option<&'static dyn DynScenario> {
    scenarios().iter().copied().find(|s| s.name() == name)
}

/// The registered scenario names, in listing order.
pub fn names() -> Vec<&'static str> {
    scenarios().iter().map(|s| s.name()).collect()
}

/// The registered scenario names, deterministically sorted — the
/// `experiments list --json` order, so consumers (the CI matrix) see a
/// stable listing regardless of registration order.
pub fn sorted_names() -> Vec<&'static str> {
    let mut names = names();
    names.sort_unstable();
    names
}

/// Every registered trace replayer (the scenarios that can re-drive and
/// off-policy-evaluate their recorded traces), in listing order.
pub fn tracers() -> &'static [&'static dyn TraceReplayer] {
    static TRACERS: [&dyn TraceReplayer; 2] = [&CreditTracer, &HiringTracer];
    &TRACERS
}

/// Looks a trace replayer up by its scenario name.
pub fn find_tracer(name: &str) -> Option<&'static dyn TraceReplayer> {
    tracers().iter().copied().find(|t| t.name() == name)
}

/// Every registered sweep target (the scenarios whose recorded traces
/// the counterfactual lab can sweep candidate grids over), in listing
/// order.
pub fn sweeps() -> &'static [&'static dyn SweepTarget] {
    static SWEEPS: [&dyn SweepTarget; 2] = [&CreditSweep, &HiringSweep];
    &SWEEPS
}

/// Looks a sweep target up by its scenario name.
pub fn find_sweep(name: &str) -> Option<&'static dyn SweepTarget> {
    sweeps().iter().copied().find(|s| s.name() == name)
}

/// Every registered certification target (the scenarios whose recorded
/// traces the certification plane can turn into verdict artifacts), in
/// listing order.
pub fn certifies() -> &'static [&'static dyn CertifyTarget] {
    static CERTIFIES: [&dyn CertifyTarget; 2] = [&CreditCertify, &HiringCertify];
    &CERTIFIES
}

/// Looks a certification target up by its scenario name.
pub fn find_certify(name: &str) -> Option<&'static dyn CertifyTarget> {
    certifies().iter().copied().find(|c| c.name() == name)
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
        for s in scenarios() {
            assert!(!s.description().is_empty());
            assert!(!s.artifacts().is_empty());
        }
    }

    #[test]
    fn find_resolves_names_and_rejects_unknowns() {
        assert_eq!(find("credit").unwrap().name(), "credit");
        assert_eq!(find("hiring").unwrap().name(), "hiring");
        assert!(find("credits").is_none());
        assert!(find("").is_none());
    }

    #[test]
    fn duplicate_names_are_rejected_at_construction() {
        assert!(validate_unique_names(&["credit", "hiring"]).is_ok());
        let err = validate_unique_names(&["credit", "hiring", "credit"]).unwrap_err();
        assert!(err.contains("credit"), "{err}");
        // And the live registry passes the same validation (forcing the
        // construction-time check to have run).
        let names = names();
        let refs: Vec<&str> = names.to_vec();
        assert!(validate_unique_names(&refs).is_ok());
    }

    #[test]
    fn sorted_names_are_deterministically_ordered() {
        let sorted = sorted_names();
        let mut expected = names();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "{sorted:?}");
    }

    #[test]
    fn tracers_cover_the_closed_loop_scenarios() {
        let names: Vec<&str> = tracers().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["credit", "hiring"]);
        // Every tracer names a registered scenario and offers policies.
        for tracer in tracers() {
            assert!(find(tracer.name()).is_some(), "{}", tracer.name());
            assert!(!tracer.policies().is_empty());
        }
        assert!(find_tracer("credit").is_some());
        assert!(find_tracer("ablations").is_none());
    }

    #[test]
    fn sweeps_mirror_the_tracer_registrations() {
        // The counterfactual lab sweeps exactly the scenarios that
        // record replayable traces — a sweep without a tracer could
        // never get input, a tracer without a sweep would be a silent
        // gap in `experiments sweep`.
        let sweep_names: Vec<&str> = sweeps().iter().map(|s| s.name()).collect();
        let tracer_names: Vec<&str> = tracers().iter().map(|t| t.name()).collect();
        assert_eq!(sweep_names, tracer_names);
        for sweep in sweeps() {
            assert!(find(sweep.name()).is_some(), "{}", sweep.name());
            assert!(!sweep.default_grid().is_empty(), "{}", sweep.name());
            assert!(!sweep.known_policies().is_empty(), "{}", sweep.name());
            assert!(!sweep.known_filters().is_empty(), "{}", sweep.name());
            // The default grid stays within the declared axes.
            let grid = sweep.default_grid();
            for policy in &grid.policies {
                assert!(sweep.known_policies().contains(&policy.as_str()));
            }
            for filter in &grid.filters {
                assert!(sweep.known_filters().contains(&filter.as_str()));
            }
        }
        assert!(find_sweep("credit").is_some());
        assert!(find_sweep("ablations").is_none());
    }

    #[test]
    fn certifies_mirror_the_tracer_registrations() {
        // The certification plane certifies exactly the scenarios that
        // record replayable traces — a certify target without a tracer
        // could never get input, a tracer without a certify target would
        // be a silent gap in `experiments certify`.
        let certify_names: Vec<&str> = certifies().iter().map(|c| c.name()).collect();
        let tracer_names: Vec<&str> = tracers().iter().map(|t| t.name()).collect();
        assert_eq!(certify_names, tracer_names);
        for target in certifies() {
            assert!(find(target.name()).is_some(), "{}", target.name());
            let spec = target.spec();
            assert!(spec.bins > 0, "{}", target.name());
            assert!(spec.state_lo < spec.state_hi, "{}", target.name());
            assert!(!spec.model_fields.is_empty(), "{}", target.name());
        }
        assert!(find_certify("credit").is_some());
        assert!(find_certify("hiring").is_some());
        assert!(find_certify("ablations").is_none());
    }

    #[test]
    fn trace_support_and_replayer_registration_agree() {
        // One source of truth: a scenario records traces iff a replayer
        // is registered for it — a mismatch would make `experiments
        // record`'s exit-3 skip and run_scenario's gate disagree.
        for scenario in scenarios() {
            assert_eq!(
                scenario.supports_tracing(),
                find_tracer(scenario.name()).is_some(),
                "scenario `{}`: supports_tracing vs tracers() mismatch",
                scenario.name()
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
        for scenario in scenarios() {
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
