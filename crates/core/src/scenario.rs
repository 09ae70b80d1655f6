//! First-class **scenarios**: pluggable closed-loop workloads.
//!
//! The paper's claims are about *any* closed loop of AI system → users →
//! feedback filter, not just the credit case study. A [`Scenario`] bundles
//! one such workload end to end: its configuration at the two canonical
//! [`Scale`]s, the per-trial construction of its blocks, its record
//! policy and shard support, and the rendering of its outcomes into named
//! JSON/CSV [`Artifact`]s. Everything that is *not* workload-specific —
//! trial striping over worker threads, intra-trial sharding, artifact
//! validation and writing — is implemented once, generically:
//!
//! * [`run_scenario`] drives a typed [`Scenario`] through
//!   [`run_trials_with`] and renders a [`ScenarioReport`];
//! * [`DynScenario`] is the object-safe form (blanket-implemented for
//!   every [`Scenario`]), so heterogeneous scenarios can live side by
//!   side in a static registry and behind a CLI;
//! * [`write_artifacts`] persists a report under an output directory with
//!   error messages that name the scenario and the path.
//!
//! A new workload therefore plugs into trials, sharding, determinism
//! checks and reporting by implementing one trait — no driver changes.
//!
//! # Implementing a scenario
//!
//! ```
//! use eqimpact_core::scenario::{
//!     run_scenario, Artifact, ArtifactSpec, Scale, Scenario, ScenarioConfig, ScenarioReport,
//! };
//!
//! /// A coin-flip "workload": every trial estimates the heads rate.
//! struct CoinScenario;
//!
//! impl Scenario for CoinScenario {
//!     type Outcome = f64;
//!     fn name(&self) -> &'static str { "coin" }
//!     fn description(&self) -> &'static str { "heads-rate toy scenario" }
//!     fn artifacts(&self) -> &'static [ArtifactSpec] {
//!         &[ArtifactSpec { name: "rates", description: "per-trial heads rates" }]
//!     }
//!     fn trials(&self, scale: Scale) -> usize {
//!         if scale.is_quick() { 2 } else { 5 }
//!     }
//!     fn run_trial(&self, _config: &ScenarioConfig, trial: usize) -> f64 {
//!         let mut rng = eqimpact_stats::SimRng::new(7 + trial as u64);
//!         (0..100).filter(|_| rng.bernoulli(0.5)).count() as f64 / 100.0
//!     }
//!     fn render(&self, _config: &ScenarioConfig, outcomes: &[f64]) -> ScenarioReport {
//!         let csv = outcomes.iter().enumerate()
//!             .fold("trial,rate\n".to_string(), |acc, (t, r)| acc + &format!("{t},{r}\n"));
//!         ScenarioReport {
//!             summary: vec![format!("{} trials", outcomes.len())],
//!             artifacts: vec![Artifact { name: "rates", file: "rates.csv".into(), contents: csv }],
//!         }
//!     }
//! }
//!
//! let report = run_scenario(&CoinScenario, &ScenarioConfig::new(Scale::Quick)).unwrap();
//! assert_eq!(report.artifacts.len(), 1);
//! ```

use crate::recorder::{RecordPolicy, StepSink};
use crate::trials::run_trials_with;
use eqimpact_telemetry::metrics as tm;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Scale of a scenario run: [`Scale::Paper`] uses the source paper's full
/// parameters, [`Scale::Quick`] a reduced size for benches and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full parameters.
    Paper,
    /// Reduced size for fast iteration.
    Quick,
}

impl Scale {
    /// Whether this is the reduced scale.
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }

    /// Picks between the paper-scale and quick-scale value of a
    /// parameter: `scale.pick(1000, 400)`.
    pub fn pick<T>(self, paper: T, quick: T) -> T {
        match self {
            Scale::Paper => paper,
            Scale::Quick => quick,
        }
    }
}

/// Per-loop provenance handed to a [`TraceSinkFactory`]: everything a
/// self-describing trace header needs to identify the recorded run.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// The registry name of the scenario being recorded.
    pub scenario: String,
    /// Which of the scenario's loops this is (e.g. `scorecard`, or
    /// `adaptive` vs `credential` for scenarios running several loops per
    /// trial).
    pub variant: String,
    /// Trial index within the run.
    pub trial: usize,
    /// The run scale.
    pub scale: Scale,
    /// The effective base seed (trial `t` conventionally uses `seed + t`).
    pub seed: u64,
    /// Intra-trial shard count of the recorded run (provenance only —
    /// records are shard-invariant).
    pub shards: usize,
    /// Feedback delay of the loop, in steps.
    pub delay: usize,
    /// Record policy of the recorded run.
    pub policy: RecordPolicy,
}

/// Factory for per-loop [`StepSink`]s, carried by
/// [`ScenarioConfig::trace`]: a tracing scenario asks it for one sink per
/// recorded loop (trials run in parallel, so each sink must be
/// self-contained and `Send`).
///
/// Sink creation and writing are deliberately infallible at the call
/// site — a failing factory hands back a no-op sink and remembers why, so
/// trial workers never have to panic over trace I/O. [`run_scenario`]
/// collects the failures through [`Self::take_errors`] after the trials
/// and turns them into a [`ScenarioError::Trace`].
pub trait TraceSinkFactory: Send + Sync {
    /// A sink for one loop's telemetry. Implementations report creation
    /// failures through [`Self::take_errors`] and return a no-op sink.
    fn sink(&self, meta: &TraceMeta) -> Box<dyn StepSink + Send>;

    /// Drains every error recorded so far (creation or write failures).
    fn take_errors(&self) -> Vec<String>;
}

/// Run configuration handed to a scenario: the scale, the intra-trial
/// shard count, an optional seed override, an optional trace sink, and
/// (optionally) a subset of artifacts to produce.
#[derive(Clone)]
pub struct ScenarioConfig {
    /// The run scale.
    pub scale: Scale,
    /// Intra-trial shards of the sharded runner: `n ≥ 1` row shards (`1`
    /// sweeps on the calling thread), `0` = auto (one per available
    /// thread-budget lane). Records are bit-identical for every value,
    /// and to the sequential runner's — a pure perf knob.
    pub shards: usize,
    /// Base-seed override; `None` keeps the scenario's built-in seed.
    /// Honoured by every registered scenario, so any run can be
    /// reproduced (or varied) from the CLI.
    pub seed: Option<u64>,
    /// Optional trace sink: when set, scenarios that
    /// [support tracing](Scenario::supports_tracing) stream every loop's
    /// raw telemetry into per-trial sinks obtained from the factory.
    pub trace: Option<Arc<dyn TraceSinkFactory>>,
    /// Artifact names to produce; `None` means all. Validated by
    /// [`run_scenario`] against the scenario's [`Scenario::artifacts`].
    pub wanted: Option<BTreeSet<String>>,
}

impl fmt::Debug for ScenarioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioConfig")
            .field("scale", &self.scale)
            .field("shards", &self.shards)
            .field("seed", &self.seed)
            .field("trace", &self.trace.as_ref().map(|_| "<sink factory>"))
            .field("wanted", &self.wanted)
            .finish()
    }
}

impl ScenarioConfig {
    /// A config producing every artifact, one shard per trial.
    pub fn new(scale: Scale) -> Self {
        ScenarioConfig {
            scale,
            shards: 1,
            seed: None,
            trace: None,
            wanted: None,
        }
    }

    /// Sets the intra-trial shard count (see [`Self::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the scenario's base seed (see [`Self::seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attaches a trace sink factory (see [`Self::trace`]).
    pub fn with_trace(mut self, factory: Arc<dyn TraceSinkFactory>) -> Self {
        self.trace = Some(factory);
        self
    }

    /// Restricts the run to the named artifacts.
    pub fn with_artifacts<I, T>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        self.wanted = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Whether the named artifact should be produced under this config.
    pub fn wants(&self, name: &str) -> bool {
        self.wanted.as_ref().is_none_or(|w| w.contains(name))
    }
}

/// Registry metadata of one artifact a scenario can produce. The CLI uses
/// these to validate requests and to answer `experiments list`.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactSpec {
    /// Stable registry name (e.g. `fig3`), as selected on the CLI.
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
}

/// One rendered artifact: the spec name it realizes, the file it should
/// be written to (relative to the output directory), and its contents.
/// A single spec may render to several files (e.g. a JSON summary plus a
/// CSV series).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The [`ArtifactSpec::name`] this file belongs to.
    pub name: &'static str,
    /// File name under the output directory.
    pub file: String,
    /// Rendered contents (CSV/JSON/plain text).
    pub contents: String,
}

/// The result of a scenario run: console summary lines plus the rendered
/// artifacts (write them with [`write_artifacts`]).
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Human-readable summary lines, in print order.
    pub summary: Vec<String>,
    /// Rendered artifacts, restricted to the requested subset.
    pub artifacts: Vec<Artifact>,
}

/// Errors from validating, driving or persisting a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// An artifact name not in the scenario's spec list was requested.
    UnknownArtifact {
        /// The scenario asked.
        scenario: &'static str,
        /// The unknown request.
        artifact: String,
        /// Every valid artifact name of the scenario.
        known: Vec<&'static str>,
    },
    /// A shard count other than 1 was requested from a scenario whose
    /// workload has no intra-trial parallelism.
    ShardingUnsupported {
        /// The scenario asked.
        scenario: &'static str,
    },
    /// A trace sink was attached to a scenario that does not record
    /// traces ([`Scenario::supports_tracing`] is `false`).
    TracingUnsupported {
        /// The scenario asked.
        scenario: &'static str,
    },
    /// Recording the run's traces failed (sink creation or writes).
    Trace {
        /// The scenario being recorded.
        scenario: &'static str,
        /// Every failure the sink factory collected.
        message: String,
    },
    /// The scenario's workload itself failed (an experiment returned a
    /// named error instead of an outcome).
    Failed {
        /// The scenario that was running.
        scenario: &'static str,
        /// The experiment's error message.
        message: String,
    },
    /// Writing an artifact (or creating the output directory) failed.
    Io {
        /// The scenario whose artifact was being written.
        scenario: String,
        /// The path that failed.
        path: PathBuf,
        /// The underlying OS error message.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownArtifact {
                scenario,
                artifact,
                known,
            } => write!(
                f,
                "scenario `{scenario}` has no artifact `{artifact}` (known: {})",
                known.join(", ")
            ),
            ScenarioError::ShardingUnsupported { scenario } => write!(
                f,
                "scenario `{scenario}` does not support intra-trial sharding (run it with --shards 1)"
            ),
            ScenarioError::TracingUnsupported { scenario } => write!(
                f,
                "scenario `{scenario}` does not support trace recording"
            ),
            ScenarioError::Trace { scenario, message } => {
                write!(f, "scenario `{scenario}`: trace recording failed: {message}")
            }
            ScenarioError::Failed { scenario, message } => {
                write!(f, "scenario `{scenario}`: {message}")
            }
            ScenarioError::Io {
                scenario,
                path,
                message,
            } => write!(
                f,
                "scenario `{scenario}`: cannot write {}: {message}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A pluggable closed-loop workload (see the module docs). Implementors
/// provide configuration, per-trial execution and rendering; the generic
/// [`run_scenario`] driver supplies trial striping, artifact-subset
/// validation and (through [`ScenarioConfig::shards`]) intra-trial
/// sharding.
pub trait Scenario: Sync {
    /// Everything one trial produces (records, races, fitted models, …).
    type Outcome: Send;

    /// Stable registry name (e.g. `credit`), as selected on the CLI.
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn description(&self) -> &'static str;

    /// The artifacts this scenario can render.
    fn artifacts(&self) -> &'static [ArtifactSpec];

    /// Whether the workload supports intra-trial sharding (a
    /// [`ShardedRunner`](crate::shard::ShardedRunner)-capable loop).
    /// Scenarios returning `false` are rejected for `shards != 1`.
    fn supports_sharding(&self) -> bool {
        true
    }

    /// Whether [`Self::run_trial`] honours [`ScenarioConfig::trace`]
    /// (streams each loop's telemetry into a sink from the factory).
    /// Scenarios returning `false` are rejected when a sink is attached,
    /// so a `record` request can never silently produce nothing.
    fn supports_tracing(&self) -> bool {
        false
    }

    /// Number of independent trials at a scale.
    fn trials(&self, scale: Scale) -> usize;

    /// Number of trials this particular config needs. Defaults to
    /// [`Self::trials`]; override to return `0` when the requested
    /// artifact subset can render without any trial outcomes (e.g. a
    /// pure table read), and the driver will skip the loop entirely.
    fn trials_needed(&self, config: &ScenarioConfig) -> usize {
        self.trials(config.scale)
    }

    /// Builds and runs one complete trial. Must be deterministic in
    /// `(config, trial)` — the conventional seed is `base + trial`.
    fn run_trial(&self, config: &ScenarioConfig, trial: usize) -> Self::Outcome;

    /// Renders the trial outcomes into a report, producing only the
    /// artifacts selected by [`ScenarioConfig::wants`].
    fn render(&self, config: &ScenarioConfig, outcomes: &[Self::Outcome]) -> ScenarioReport;
}

/// Validates a requested artifact subset against a spec list. Direct
/// [`DynScenario`] implementations (workloads that bypass the generic
/// trial driver) call this before running.
pub fn validate_artifacts(
    scenario: &'static str,
    specs: &[ArtifactSpec],
    config: &ScenarioConfig,
) -> Result<(), ScenarioError> {
    if let Some(wanted) = &config.wanted {
        for name in wanted {
            if !specs.iter().any(|s| s.name == name.as_str()) {
                return Err(ScenarioError::UnknownArtifact {
                    scenario,
                    artifact: name.clone(),
                    known: specs.iter().map(|s| s.name).collect(),
                });
            }
        }
    }
    Ok(())
}

/// Drives a typed [`Scenario`]: validates the artifact subset and shard
/// support, stripes the trials over worker threads leased from the
/// global [`ThreadBudget`](crate::pool::ThreadBudget)
/// ([`run_trials_with`]), and renders the report.
pub fn run_scenario<S: Scenario>(
    scenario: &S,
    config: &ScenarioConfig,
) -> Result<ScenarioReport, ScenarioError> {
    validate_artifacts(scenario.name(), scenario.artifacts(), config)?;
    if config.shards != 1 && !scenario.supports_sharding() {
        return Err(ScenarioError::ShardingUnsupported {
            scenario: scenario.name(),
        });
    }
    if config.trace.is_some() && !scenario.supports_tracing() {
        return Err(ScenarioError::TracingUnsupported {
            scenario: scenario.name(),
        });
    }
    let trials = scenario.trials_needed(config);
    let outcomes = if trials == 0 {
        Vec::new()
    } else {
        run_trials_with(trials, |t| scenario.run_trial(config, t))
    };
    if let Some(factory) = &config.trace {
        let errors = factory.take_errors();
        if !errors.is_empty() {
            return Err(ScenarioError::Trace {
                scenario: scenario.name(),
                message: errors.join("; "),
            });
        }
    }
    let _render = tm::SCENARIO_RENDER.enter();
    Ok(scenario.render(config, &outcomes))
}

/// The object-safe face of a scenario, so heterogeneous workloads can
/// share one static registry and one CLI. Blanket-implemented for every
/// [`Scenario`] (via [`run_scenario`]); workloads that do not fit the
/// trials-of-one-outcome shape (e.g. ablation suites) implement it
/// directly.
pub trait DynScenario: Sync {
    /// Stable registry name.
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn description(&self) -> &'static str;

    /// The artifacts this scenario can render.
    fn artifacts(&self) -> &'static [ArtifactSpec];

    /// Whether the workload supports intra-trial sharding.
    fn supports_sharding(&self) -> bool;

    /// Whether the workload honours [`ScenarioConfig::trace`]. Defaults
    /// to `false` — direct implementors that do not record must also
    /// reject trace-bearing configs in [`Self::run`], so an attached
    /// sink can never be silently ignored.
    fn supports_tracing(&self) -> bool {
        false
    }

    /// Runs the scenario end to end under a config.
    fn run(&self, config: &ScenarioConfig) -> Result<ScenarioReport, ScenarioError>;
}

impl<S: Scenario> DynScenario for S {
    fn name(&self) -> &'static str {
        Scenario::name(self)
    }
    fn description(&self) -> &'static str {
        Scenario::description(self)
    }
    fn artifacts(&self) -> &'static [ArtifactSpec] {
        Scenario::artifacts(self)
    }
    fn supports_sharding(&self) -> bool {
        Scenario::supports_sharding(self)
    }
    fn supports_tracing(&self) -> bool {
        Scenario::supports_tracing(self)
    }
    fn run(&self, config: &ScenarioConfig) -> Result<ScenarioReport, ScenarioError> {
        run_scenario(self, config)
    }
}

/// Writes a report's artifacts under `out_dir` (created if missing),
/// returning the written paths in artifact order. Errors name the
/// scenario and the offending path instead of panicking.
pub fn write_artifacts(
    scenario: &str,
    report: &ScenarioReport,
    out_dir: &Path,
) -> Result<Vec<PathBuf>, ScenarioError> {
    let io_err = |path: &Path, e: std::io::Error| ScenarioError::Io {
        scenario: scenario.to_string(),
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    std::fs::create_dir_all(out_dir).map_err(|e| io_err(out_dir, e))?;
    let mut written = Vec::with_capacity(report.artifacts.len());
    for artifact in &report.artifacts {
        let path = out_dir.join(&artifact.file);
        std::fs::write(&path, &artifact.contents).map_err(|e| io_err(&path, e))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy;

    impl Scenario for Toy {
        type Outcome = usize;
        fn name(&self) -> &'static str {
            "toy"
        }
        fn description(&self) -> &'static str {
            "test scenario"
        }
        fn artifacts(&self) -> &'static [ArtifactSpec] {
            &[
                ArtifactSpec {
                    name: "alpha",
                    description: "the alpha artifact",
                },
                ArtifactSpec {
                    name: "beta",
                    description: "the beta artifact",
                },
            ]
        }
        fn supports_sharding(&self) -> bool {
            false
        }
        fn trials(&self, scale: Scale) -> usize {
            scale.pick(4, 2)
        }
        fn run_trial(&self, config: &ScenarioConfig, trial: usize) -> usize {
            trial * config.shards.max(1)
        }
        fn render(&self, config: &ScenarioConfig, outcomes: &[usize]) -> ScenarioReport {
            let mut artifacts = Vec::new();
            if config.wants("alpha") {
                artifacts.push(Artifact {
                    name: "alpha",
                    file: "alpha.csv".to_string(),
                    contents: format!("sum\n{}\n", outcomes.iter().sum::<usize>()),
                });
            }
            if config.wants("beta") {
                artifacts.push(Artifact {
                    name: "beta",
                    file: "beta.json".to_string(),
                    contents: format!("{{\"trials\": {}}}", outcomes.len()),
                });
            }
            ScenarioReport {
                summary: vec![format!("{} outcomes", outcomes.len())],
                artifacts,
            }
        }
    }

    #[test]
    fn scale_helpers() {
        assert!(Scale::Quick.is_quick());
        assert!(!Scale::Paper.is_quick());
        assert_eq!(Scale::Paper.pick(1000, 400), 1000);
        assert_eq!(Scale::Quick.pick(1000, 400), 400);
    }

    #[test]
    fn driver_runs_all_trials_in_order() {
        let report = run_scenario(&Toy, &ScenarioConfig::new(Scale::Quick)).unwrap();
        assert_eq!(report.summary, vec!["2 outcomes"]);
        assert_eq!(report.artifacts.len(), 2);
        // Quick: trials 0 and 1, shards 1 -> sum 0 + 1.
        assert_eq!(report.artifacts[0].contents, "sum\n1\n");
        let paper = run_scenario(&Toy, &ScenarioConfig::new(Scale::Paper)).unwrap();
        assert_eq!(paper.artifacts[1].contents, "{\"trials\": 4}");
    }

    #[test]
    fn artifact_subsets_are_validated_and_honoured() {
        let config = ScenarioConfig::new(Scale::Quick).with_artifacts(["beta"]);
        assert!(!config.wants("alpha"));
        assert!(config.wants("beta"));
        let report = run_scenario(&Toy, &config).unwrap();
        assert_eq!(report.artifacts.len(), 1);
        assert_eq!(report.artifacts[0].name, "beta");

        let bad = ScenarioConfig::new(Scale::Quick).with_artifacts(["gamma"]);
        match run_scenario(&Toy, &bad) {
            Err(ScenarioError::UnknownArtifact {
                scenario,
                artifact,
                known,
            }) => {
                assert_eq!(scenario, "toy");
                assert_eq!(artifact, "gamma");
                assert_eq!(known, vec!["alpha", "beta"]);
            }
            other => panic!("expected UnknownArtifact, got {other:?}"),
        }
    }

    #[test]
    fn sharding_support_is_enforced() {
        let config = ScenarioConfig::new(Scale::Quick).with_shards(4);
        match run_scenario(&Toy, &config) {
            Err(ScenarioError::ShardingUnsupported { scenario }) => assert_eq!(scenario, "toy"),
            other => panic!("expected ShardingUnsupported, got {other:?}"),
        }
        // Shards 0 (auto) is also a sharded request.
        assert!(run_scenario(&Toy, &ScenarioConfig::new(Scale::Quick).with_shards(0)).is_err());
    }

    #[test]
    fn dyn_scenario_matches_typed_driver() {
        let dyn_scenario: &dyn DynScenario = &Toy;
        assert_eq!(dyn_scenario.name(), "toy");
        assert_eq!(dyn_scenario.artifacts().len(), 2);
        assert!(!dyn_scenario.supports_sharding());
        let report = dyn_scenario
            .run(&ScenarioConfig::new(Scale::Quick))
            .unwrap();
        assert_eq!(report.artifacts.len(), 2);
    }

    #[test]
    fn write_artifacts_names_scenario_and_path_on_error() {
        let report = ScenarioReport {
            summary: Vec::new(),
            artifacts: vec![Artifact {
                name: "alpha",
                file: "alpha.csv".to_string(),
                contents: "x\n".to_string(),
            }],
        };
        let dir = std::env::temp_dir().join(format!("eqimpact_scenario_{}", std::process::id()));
        let written = write_artifacts("toy", &report, &dir).unwrap();
        assert_eq!(written.len(), 1);
        assert_eq!(std::fs::read_to_string(&written[0]).unwrap(), "x\n");
        std::fs::remove_dir_all(&dir).ok();

        // A path that cannot be a directory produces a named error.
        let bad = written[0].join("nested"); // parent is a file now gone; use a file as dir
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("blocker"), "").unwrap();
        let err = write_artifacts("toy", &report, &dir.join("blocker")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("toy"), "{text}");
        assert!(text.contains("blocker"), "{text}");
        drop(bad);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let err = ScenarioError::UnknownArtifact {
            scenario: "credit",
            artifact: "quikc".to_string(),
            known: vec!["table1", "fig2"],
        };
        let text = err.to_string();
        assert!(text.contains("credit") && text.contains("quikc") && text.contains("table1"));
        let err = ScenarioError::ShardingUnsupported { scenario: "abl" };
        assert!(err.to_string().contains("--shards 1"));
    }
}
