//! Registry-driven experiments CLI: lists, runs, records and replays the
//! registered closed-loop scenarios (see `eqimpact_bench::registry`).
//!
//! ```text
//! cargo run --release -p eqimpact-bench --bin experiments -- <COMMAND>
//!
//! Commands:
//!   list [--json]
//!       Print every registered scenario with its artifacts; `--json`
//!       emits the scenario names as a deterministically sorted JSON
//!       array (consumed by the CI smoke matrix).
//!   run <scenario> [--quick] [--seed N] [--shards N] [--threads N] [--out DIR] [ARTIFACT...]
//!   run --all      [--quick] [--seed N] [--shards N] [--threads N] [--out DIR]
//!       Run one scenario (optionally restricted to the named artifacts)
//!       or every registered scenario. Requesting shards from a scenario
//!       without intra-trial parallelism exits 3 (a clean "unsupported"
//!       skip for CI), unless --all is downgrading it to sequential.
//!   record <scenario> [--quick] [--seed N] [--shards N] [--threads N] [--out DIR]
//!       Run the scenario while streaming every loop of every trial into
//!       a self-describing `.eqtrace` file under --out (default
//!       `traces/`). Exits 3 for scenarios without trace support.
//!   replay <trace> [--policy NAME] [--out DIR]
//!       Without --policy: re-drive the recorded loop byte-identically
//!       (every recomputed signal and filter output is verified against
//!       the recorded bits). With --policy: off-policy evaluation — score
//!       the named alternative policy against the recorded trajectory
//!       and write the fairness/impact deltas under --out.
//!   sweep <scenario> [--traces DIR] [--grid SPEC] [--quick] [--seed N] [--threads N] [--out DIR]
//!       The counterfactual lab: evaluate a candidate grid (policy x
//!       filter x decision threshold) off-policy over every recorded
//!       trace of the scenario under --traces (default `traces/`), and
//!       write a ranked report with bootstrap confidence intervals on
//!       every fairness gap and outcome delta. `--grid` overrides the
//!       scenario's default axes (`policy=a,b;threshold=0,10`); `--quick`
//!       cuts the bootstrap resamples for CI smoke runs. Exits 3 for
//!       scenarios without sweep support. The ranking is deterministic:
//!       same traces + same seed give the same report at any thread
//!       count.
//!   certify <scenario> [--traces DIR] [--seed N] [--threads N] [--out DIR]
//!       The certification plane: extract the scenario's empirical
//!       transition structure from every recorded trace under --traces
//!       (default `traces/`) and run the theory passes over it —
//!       primitivity, unique ergodicity + equal impact, contractivity,
//!       Lyapunov stability, incremental ISS — writing a per-scenario
//!       verdict artifact (JSON + text). Exits 3 for scenarios without
//!       certify support. The artifact is byte-identical across runs and
//!       thread counts for a fixed seed.
//!
//! Flags:
//!   --quick      reduced CI scale instead of the paper's parameters
//!   --seed N     override the scenario's base seed (trial t uses N + t)
//!   --shards N   intra-trial shard count (0 = auto, the thread budget's
//!                lanes); records are bit-identical for every value
//!   --threads N  cap the process-wide thread budget at N lanes (default:
//!                one per core, or EQIMPACT_THREADS). trials x shards
//!                lease from this one budget, so the host is never
//!                oversubscribed; nested parallelism past the cap runs
//!                sequentially
//!   --out DIR    output directory (default `results/`; `traces/` for
//!                record)
//!   --telemetry  install the in-process telemetry recorder and write a
//!                `telemetry_<scenario>.json` snapshot under --out. The
//!                snapshot's deterministic section (step/frame/byte
//!                counts) is byte-identical across runs and --threads
//!                values; durations and pool scheduling live in the
//!                wall-clock section.
//!   --progress   print a once-a-second progress heartbeat to stderr
//!                (completed units, rate, ETA); implies recording
//! ```
//!
//! Scenario names, artifact names, policies and flags are all validated:
//! a typo like `--quikc` or `fig9` exits with status 2 and the list of
//! known names instead of being silently ignored.

use eqimpact_bench::registry;
use eqimpact_certify::{run_certification, CertifyConfig};
use eqimpact_core::pool::ThreadBudget;
use eqimpact_core::scenario::{write_artifacts, DynScenario, Scale, ScenarioConfig};
use eqimpact_lab::{run_sweep, CandidateGrid, FileTrace, SweepConfig, TraceSource};
use eqimpact_stats::ToJson;
use eqimpact_telemetry::metrics as tm;
use eqimpact_telemetry::progress::{start_heartbeat, Heartbeat};
use eqimpact_telemetry::{ManualTimer, Recorder};
use eqimpact_trace::{TraceDirFactory, TraceReader};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Flags accepted by `run`, for the unknown-flag error message.
const RUN_FLAGS: &str =
    "--all, --quick, --seed N, --shards N, --threads N, --out DIR, --telemetry, --progress";

/// Flags accepted by `record`.
const RECORD_FLAGS: &str =
    "--quick, --seed N, --shards N, --threads N, --out DIR, --telemetry, --progress";

/// Flags accepted by `replay`.
const REPLAY_FLAGS: &str = "--policy NAME, --out DIR, --telemetry, --progress";

/// Flags accepted by `sweep`.
const SWEEP_FLAGS: &str =
    "--traces DIR, --grid SPEC, --quick, --seed N, --threads N, --out DIR, --telemetry, --progress";

/// Flags accepted by `certify`.
const CERTIFY_FLAGS: &str =
    "--traces DIR, --seed N, --threads N, --out DIR, --telemetry, --progress";

/// A CLI failure, carrying its exit status: 2 for usage/validation
/// errors, 3 for "this scenario lacks the requested capability" — no
/// trace support for `record`, no intra-trial sharding for a sharded
/// `run` — so CI matrix legs can skip unsupported scenarios cleanly
/// without masking real failures.
#[derive(Debug)]
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn unsupported(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 3,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            eprintln!("run `experiments help` for usage");
            ExitCode::from(e.code)
        }
    }
}

fn real_main() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print_usage();
            Ok(())
        }
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("certify") => cmd_certify(&args[1..]),
        Some(other) => Err(CliError::usage(format!(
            "unknown command `{other}` (known commands: list, run, record, replay, sweep, certify, help)"
        ))),
    }
}

fn print_usage() {
    println!("experiments — registry-driven paper artifacts and scenarios");
    println!();
    println!("  experiments list [--json]");
    println!(
        "  experiments run <scenario> [--quick] [--seed N] [--shards N] [--threads N] [--out DIR] [ARTIFACT...]"
    );
    println!(
        "  experiments run --all      [--quick] [--seed N] [--shards N] [--threads N] [--out DIR]"
    );
    println!(
        "  experiments record <scenario> [--quick] [--seed N] [--shards N] [--threads N] [--out DIR]"
    );
    println!("  experiments replay <trace> [--policy NAME] [--out DIR]");
    println!(
        "  experiments sweep <scenario> [--traces DIR] [--grid SPEC] [--quick] [--seed N] [--threads N] [--out DIR]"
    );
    println!(
        "  experiments certify <scenario> [--traces DIR] [--seed N] [--threads N] [--out DIR]"
    );
    println!();
    println!("  --threads N caps the process-wide thread budget: trials x shards");
    println!("  lease lanes from it, so the host is never oversubscribed.");
    println!();
    println!("  every command also accepts --telemetry (write a telemetry_<scenario>.json");
    println!("  snapshot under --out; its deterministic section is byte-identical across");
    println!("  runs and --threads values) and --progress (a once-a-second stderr");
    println!("  heartbeat with completed units, rate and ETA).");
    println!();
    print_scenarios();
}

fn print_scenarios() {
    println!("registered scenarios:");
    for scenario in registry::scenarios() {
        println!("  {:<11} {}", scenario.name(), scenario.description());
        for spec in scenario.artifacts() {
            println!("    - {:<16} {}", spec.name, spec.description);
        }
    }
    println!();
    println!("traceable scenarios (experiments record / replay):");
    for tracer in registry::tracers() {
        let policies: Vec<&str> = tracer.policies().iter().map(|p| p.name).collect();
        println!("  {:<11} policies: {}", tracer.name(), policies.join(", "));
    }
    println!();
    println!("sweepable scenarios (experiments sweep):");
    for sweep in registry::sweeps() {
        let grid = sweep.default_grid();
        println!(
            "  {:<11} default grid: {} candidates (policies: {}; filters: {})",
            sweep.name(),
            grid.len(),
            sweep.known_policies().join(", "),
            sweep.known_filters().join(", ")
        );
    }
    println!();
    println!("certifiable scenarios (experiments certify):");
    for target in registry::certifies() {
        let spec = target.spec();
        println!(
            "  {:<11} state range [{}, {}] in {} bins, model fields: {}",
            target.name(),
            spec.state_lo,
            spec.state_hi,
            spec.bins,
            spec.model_fields.join(", ")
        );
    }
}

/// The `list --json` payload: one object per scenario (deterministically
/// sorted by name) with its capability flags, so consumers — the CI
/// smoke matrix — can gate record/sweep/certify legs without hardcoding
/// scenario knowledge.
fn list_json() -> String {
    let entries: Vec<String> = registry::sorted_names()
        .iter()
        .map(|name| {
            // `telemetry` is a CLI-level capability — every scenario can
            // run under the recorder — but it is reported per entry so
            // CI legs gate on the payload alone, like the other flags.
            format!(
                "{{\"name\":\"{name}\",\"trace\":{},\"sweep\":{},\"certify\":{},\"telemetry\":true}}",
                registry::find_tracer(name).is_some(),
                registry::find_sweep(name).is_some(),
                registry::find_certify(name).is_some(),
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    match args {
        [] => {
            print_scenarios();
            Ok(())
        }
        [flag] if flag == "--json" => {
            println!("{}", list_json());
            Ok(())
        }
        _ => Err(CliError::usage(format!(
            "unknown arguments to `list`: {} (known: --json)",
            args.join(" ")
        ))),
    }
}

/// The flags shared by `run` and `record`.
#[derive(Default)]
struct CommonFlags {
    quick: bool,
    all: bool,
    seed: Option<u64>,
    shards: usize,
    threads: Option<usize>,
    out_dir: Option<PathBuf>,
    telemetry: bool,
    progress: bool,
    scenario: Option<String>,
    positionals: Vec<String>,
}

fn parse_common(
    args: &[String],
    known_flags: &str,
    allow_all: bool,
) -> Result<CommonFlags, CliError> {
    let mut flags = CommonFlags {
        shards: 1,
        ..CommonFlags::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => flags.quick = true,
            "--all" if allow_all => flags.all = true,
            "--seed" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::usage("--seed requires a u64 value"))?;
                flags.seed = Some(value.parse().map_err(|_| {
                    CliError::usage(format!("--seed requires a u64, got `{value}`"))
                })?);
            }
            "--shards" => {
                let value = iter.next().ok_or_else(|| {
                    CliError::usage("--shards requires a count (0 = auto, one per budget lane)")
                })?;
                flags.shards = value.parse().map_err(|_| {
                    CliError::usage(format!("--shards requires an integer, got `{value}`"))
                })?;
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::usage("--threads requires a positive lane count"))?;
                flags.threads = Some(parse_threads(value)?);
            }
            "--out" => {
                flags.out_dir = Some(PathBuf::from(
                    iter.next()
                        .ok_or_else(|| CliError::usage("--out requires a directory argument"))?
                        .clone(),
                ));
            }
            "--telemetry" => flags.telemetry = true,
            "--progress" => flags.progress = true,
            flag if flag.starts_with("--") => {
                // The pre-redesign CLI swallowed unknown flags as artifact
                // names, so a typo silently selected nothing. Reject them.
                return Err(CliError::usage(format!(
                    "unknown flag `{flag}` (known flags: {known_flags})"
                )));
            }
            positional if flags.scenario.is_none() && !flags.all => {
                flags.scenario = Some(positional.to_string());
            }
            positional => flags.positionals.push(positional.to_string()),
        }
    }
    Ok(flags)
}

/// Parses a `--threads` value. `0` is clamped to one lane with a
/// warning — the calling thread always exists, so zero cannot mean "no
/// lanes" and aborting would make `--threads $(nproc --ignore=N)`-style
/// invocations fragile (the same clamp `EQIMPACT_THREADS=0` gets).
fn parse_threads(value: &str) -> Result<usize, CliError> {
    let threads: usize = value
        .parse()
        .map_err(|_| CliError::usage(format!("--threads requires an integer, got `{value}`")))?;
    if threads == 0 {
        eprintln!("warning: --threads 0 clamped to 1 (the calling thread is always a lane)");
        return Ok(1);
    }
    Ok(threads)
}

/// Per-command observability: installs the telemetry [`Recorder`] when
/// requested, runs the stderr progress heartbeat, and times the whole
/// command so every subcommand prints the same timing footer.
/// `--progress` implies recording (the heartbeat reads the catalog's
/// step counters), but only `--telemetry` writes the snapshot artifact.
struct CommandObs {
    telemetry: bool,
    heartbeat: Option<Heartbeat>,
    timer: ManualTimer,
}

impl CommandObs {
    fn start(telemetry: bool, progress: bool) -> Self {
        if telemetry || progress {
            Recorder::install();
        }
        CommandObs {
            telemetry,
            heartbeat: progress.then(|| start_heartbeat(Duration::from_secs(1))),
            timer: tm::CLI_COMMAND.start_timer(),
        }
    }

    /// Prints the timing footer; under `--telemetry` also prints the
    /// thread-budget lease summary (granted vs requested lanes) and
    /// writes `telemetry_<label>.json` under `out_dir`.
    fn finish(self, command: &str, label: &str, out_dir: &Path) -> Result<(), CliError> {
        drop(self.heartbeat);
        let ms = self.timer.stop_ms();
        if self.telemetry {
            let leases = tm::POOL_LEASES.total();
            if leases > 0 {
                println!(
                    "telemetry: budget granted {} of {} requested lanes across {} leases \
                     ({} clamped)",
                    tm::POOL_LANES_GRANTED.total(),
                    tm::POOL_LANES_REQUESTED.total(),
                    leases,
                    tm::POOL_LEASES_CLAMPED.total()
                );
            }
            let snapshot = Recorder::snapshot();
            std::fs::create_dir_all(out_dir).map_err(|e| {
                CliError::usage(format!("cannot create {}: {e}", out_dir.display()))
            })?;
            let path = out_dir.join(format!("telemetry_{label}.json"));
            std::fs::write(&path, snapshot.render_json())
                .map_err(|e| CliError::usage(format!("cannot write {}: {e}", path.display())))?;
            println!("wrote {}", path.display());
        }
        println!("{command} completed in {ms:.1} ms");
        Ok(())
    }
}

fn scale_of(quick: bool) -> Scale {
    if quick {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

fn base_config(flags: &CommonFlags) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(scale_of(flags.quick)).with_shards(flags.shards);
    if let Some(seed) = flags.seed {
        config = config.with_seed(seed);
    }
    config
}

/// Applies `--threads N` by fixing the process-wide [`ThreadBudget`]
/// before anything leases from it. The budget's capacity is set on first
/// use, so this must run before the scenarios do.
fn apply_thread_cap(flags: &CommonFlags) -> Result<(), CliError> {
    if let Some(threads) = flags.threads {
        ThreadBudget::init_global(threads).map_err(|existing| {
            CliError::usage(format!(
                "--threads {threads} rejected: the thread budget was already \
                 fixed at {existing} lanes (set it before any parallel work)"
            ))
        })?;
    }
    Ok(())
}

fn thread_label(flags: &CommonFlags) -> String {
    match flags.threads {
        Some(n) => n.to_string(),
        None => format!("{} (auto)", ThreadBudget::global().capacity()),
    }
}

fn seed_label(seed: Option<u64>) -> String {
    seed.map(|s| s.to_string())
        .unwrap_or_else(|| "scenario default".to_string())
}

fn find_scenario(name: &str) -> Result<&'static dyn DynScenario, CliError> {
    registry::find(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown scenario `{name}` (known scenarios: {})",
            registry::names().join(", ")
        ))
    })
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let flags = parse_common(args, RUN_FLAGS, true)?;
    apply_thread_cap(&flags)?;
    let obs = CommandObs::start(flags.telemetry, flags.progress);
    let out_dir = flags
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    let artifacts = &flags.positionals;

    let selected: Vec<&'static dyn DynScenario> = if flags.all {
        if flags.scenario.is_some() || !artifacts.is_empty() {
            return Err(CliError::usage(
                "`run --all` runs every scenario in full; drop the scenario/artifact names",
            ));
        }
        registry::scenarios().to_vec()
    } else {
        let name = flags.scenario.clone().ok_or_else(|| {
            CliError::usage(format!(
                "`run` needs a scenario name or --all (known scenarios: {})",
                registry::names().join(", ")
            ))
        })?;
        vec![find_scenario(&name)?]
    };

    println!(
        "eqimpact experiments — scale: {:?}, seed: {}, shards: {}, threads: {}, output: {}",
        scale_of(flags.quick),
        seed_label(flags.seed),
        if flags.shards == 0 {
            "auto".to_string()
        } else {
            flags.shards.to_string()
        },
        thread_label(&flags),
        out_dir.display()
    );

    for scenario in selected {
        let mut config = base_config(&flags);
        if !artifacts.is_empty() {
            config = config.with_artifacts(artifacts.iter().cloned());
        }
        // Under --all, a global shard count must not abort the sweep on
        // scenarios without intra-trial parallelism — run those
        // sequentially instead. An explicit single-scenario request
        // exits 3 ("unsupported capability", like `record` on an
        // untraceable scenario), so CI matrix legs can skip cleanly and
        // the incompatibility is never silent.
        if config.shards != 1 && !scenario.supports_sharding() {
            if flags.all {
                println!(
                    "\n(note: `{}` has no intra-trial sharding; running it sequentially)",
                    scenario.name()
                );
                config.shards = 1;
            } else {
                return Err(CliError::unsupported(format!(
                    "scenario `{}` does not support intra-trial sharding \
                     (run it with --shards 1)",
                    scenario.name()
                )));
            }
        }
        println!("\n== {}: {} ==", scenario.name(), scenario.description());
        let report = scenario.run(&config).map_err(|e| e.to_string())?;
        for line in &report.summary {
            println!("  {line}");
        }
        let written =
            write_artifacts(scenario.name(), &report, &out_dir).map_err(|e| e.to_string())?;
        for path in written {
            println!("  wrote {}", path.display());
        }
    }
    println!("\ndone.");
    let label = if flags.all {
        "all".to_string()
    } else {
        flags.scenario.clone().unwrap_or_default()
    };
    obs.finish("run", &label, &out_dir)
}

fn cmd_record(args: &[String]) -> Result<(), CliError> {
    let flags = parse_common(args, RECORD_FLAGS, false)?;
    apply_thread_cap(&flags)?;
    if !flags.positionals.is_empty() {
        return Err(CliError::usage(format!(
            "`record` takes one scenario name (unexpected: {})",
            flags.positionals.join(" ")
        )));
    }
    let name = flags.scenario.clone().ok_or_else(|| {
        CliError::usage(format!(
            "`record` needs a scenario name (traceable scenarios: {})",
            registry::tracers()
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })?;
    let scenario = find_scenario(&name)?;
    // Recording is gated on the scenario's own capability flag (the
    // same one run_scenario enforces); a registered replayer is the
    // second half of the workflow, so its absence is also a clean skip.
    if !scenario.supports_tracing() {
        return Err(CliError::unsupported(format!(
            "scenario `{name}` does not support trace recording (traceable scenarios: {})",
            registry::tracers()
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    if registry::find_tracer(&name).is_none() {
        return Err(CliError::unsupported(format!(
            "scenario `{name}` records traces but has no registered replayer \
             (add it to registry::tracers())"
        )));
    }
    // Same exit-3 capability gate as `run`: a sharded record of a
    // scenario without intra-trial parallelism is a clean skip, not a
    // usage error.
    if flags.shards != 1 && !scenario.supports_sharding() {
        return Err(CliError::unsupported(format!(
            "scenario `{name}` does not support intra-trial sharding \
             (record it with --shards 1)"
        )));
    }
    let obs = CommandObs::start(flags.telemetry, flags.progress);
    let out_dir = flags
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("traces"));
    // Record with model checkpoints: the frames let `replay` and `sweep`
    // restore the retrained model at each delay-line pop instead of
    // refitting — the counterfactual lab's fast-path. Checkpoint-free
    // readers skip the frames transparently.
    let factory = TraceDirFactory::create_with(&out_dir, true)
        .map_err(|e| CliError::usage(format!("cannot create {}: {e}", out_dir.display())))?;

    println!(
        "eqimpact experiments — recording {name}: scale {:?}, seed {}, shards {}, threads {}, traces under {}",
        scale_of(flags.quick),
        seed_label(flags.seed),
        flags.shards,
        thread_label(&flags),
        out_dir.display()
    );
    let config = base_config(&flags).with_trace(factory.clone());
    let report = scenario.run(&config).map_err(|e| e.to_string())?;
    for line in &report.summary {
        println!("  {line}");
    }
    let written = factory.written();
    if written.is_empty() {
        return Err(CliError::usage(format!(
            "recording `{name}` produced no trace files"
        )));
    }
    for path in &written {
        println!("  recorded {}", path.display());
    }
    println!("\ndone. replay with: experiments replay <trace>");
    obs.finish("record", &name, &out_dir)
}

fn cmd_replay(args: &[String]) -> Result<(), CliError> {
    let mut trace_path: Option<PathBuf> = None;
    let mut policy: Option<String> = None;
    let mut out_dir = PathBuf::from("results");
    let mut telemetry = false;
    let mut progress = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--policy" => {
                policy = Some(
                    iter.next()
                        .ok_or_else(|| CliError::usage("--policy requires a policy name"))?
                        .clone(),
                );
            }
            "--out" => {
                out_dir = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| CliError::usage("--out requires a directory argument"))?
                        .clone(),
                );
            }
            "--telemetry" => telemetry = true,
            "--progress" => progress = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::usage(format!(
                    "unknown flag `{flag}` (known flags: {REPLAY_FLAGS})"
                )));
            }
            positional if trace_path.is_none() => trace_path = Some(PathBuf::from(positional)),
            positional => {
                return Err(CliError::usage(format!(
                    "`replay` takes one trace file (unexpected: {positional})"
                )));
            }
        }
    }
    let trace_path =
        trace_path.ok_or_else(|| CliError::usage("`replay` needs a trace file path"))?;
    let file = std::fs::File::open(&trace_path)
        .map_err(|e| CliError::usage(format!("cannot open {}: {e}", trace_path.display())))?;
    let mut input = std::io::BufReader::new(file);
    let reader = TraceReader::new(&mut input as &mut dyn std::io::Read)
        .map_err(|e| CliError::usage(format!("{}: {e}", trace_path.display())))?;
    let header = reader.header().clone();
    // Same exit-code contract as every scenario-taking command: a
    // scenario name the registry has never heard of is exit 2 (the trace
    // names something that does not exist here — a typo or a foreign
    // trace), while a known scenario that simply lacks a replayer is
    // exit 3, the clean capability skip for CI legs iterating recorded
    // traces.
    find_scenario(&header.scenario)?;
    let tracer = registry::find_tracer(&header.scenario).ok_or_else(|| {
        CliError::unsupported(format!(
            "trace was recorded by scenario `{}`, which has no registered replayer \
             (replayable scenarios: {})",
            header.scenario,
            registry::tracers()
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })?;
    let obs = CommandObs::start(telemetry, progress);
    println!(
        "trace {}: scenario {}, variant {}, trial {}, scale {:?}, seed {}, shards {}, delay {}",
        trace_path.display(),
        header.scenario,
        header.variant,
        header.trial,
        header.scale,
        header.seed,
        header.shards,
        header.delay,
    );

    match policy {
        None => {
            let summary = tracer
                .replay(reader)
                .map_err(|e| CliError::usage(format!("{}: {e}", trace_path.display())))?;
            println!(
                "replayed {} steps x {} users — byte-identical to the recorded run \
                 (every recomputed signal and filter output matched the recorded bits)",
                summary.record.steps(),
                summary.record.user_count()
            );
        }
        Some(policy) => {
            let report = tracer
                .evaluate(reader, &policy)
                .map_err(|e| CliError::usage(format!("{}: {e}", trace_path.display())))?;
            println!(
                "off-policy `{policy}` vs recorded `{}` over {} steps x {} users:",
                report.variant, report.steps, report.users
            );
            println!(
                "  decision agreement {:.4}; positive rate {:.4} -> {:.4}",
                report.agreement, report.baseline.positive_rate, report.candidate.positive_rate
            );
            println!(
                "  demographic-parity gap {:.4} -> {:.4} (delta {:+.4})",
                report.baseline.parity_gap, report.candidate.parity_gap, report.parity_gap_delta
            );
            println!(
                "  equal-opportunity gap  {:.4} -> {:.4} (delta {:+.4})",
                report.baseline.opportunity_gap,
                report.candidate.opportunity_gap,
                report.opportunity_gap_delta
            );
            std::fs::create_dir_all(&out_dir).map_err(|e| {
                CliError::usage(format!("cannot create {}: {e}", out_dir.display()))
            })?;
            // The variant is part of the identity: the same policy
            // evaluated against different recorded behaviours must not
            // overwrite itself.
            let out_path = out_dir.join(format!(
                "offpolicy_{}_{}_vs_{}_trial{}.json",
                report.scenario, policy, header.variant, header.trial
            ));
            std::fs::write(&out_path, report.to_json().render_pretty()).map_err(|e| {
                CliError::usage(format!("cannot write {}: {e}", out_path.display()))
            })?;
            println!("  wrote {}", out_path.display());
        }
    }
    obs.finish("replay", &header.scenario, &out_dir)
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let mut scenario: Option<String> = None;
    let mut traces_dir = PathBuf::from("traces");
    let mut grid_spec: Option<String> = None;
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut out_dir = PathBuf::from("results");
    let mut telemetry = false;
    let mut progress = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--traces" => {
                traces_dir = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| CliError::usage("--traces requires a directory argument"))?
                        .clone(),
                );
            }
            "--grid" => {
                grid_spec = Some(
                    iter.next()
                        .ok_or_else(|| {
                            CliError::usage(
                                "--grid requires a spec like `policy=a,b;threshold=0,10`",
                            )
                        })?
                        .clone(),
                );
            }
            "--quick" => quick = true,
            "--seed" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::usage("--seed requires a u64 value"))?;
                seed = Some(value.parse().map_err(|_| {
                    CliError::usage(format!("--seed requires a u64, got `{value}`"))
                })?);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::usage("--threads requires a positive lane count"))?;
                threads = Some(parse_threads(value)?);
            }
            "--out" => {
                out_dir = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| CliError::usage("--out requires a directory argument"))?
                        .clone(),
                );
            }
            "--telemetry" => telemetry = true,
            "--progress" => progress = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::usage(format!(
                    "unknown flag `{flag}` (known flags: {SWEEP_FLAGS})"
                )));
            }
            positional if scenario.is_none() => scenario = Some(positional.to_string()),
            positional => {
                return Err(CliError::usage(format!(
                    "`sweep` takes one scenario name (unexpected: {positional})"
                )));
            }
        }
    }
    let sweep_names: Vec<&str> = registry::sweeps().iter().map(|s| s.name()).collect();
    let name = scenario.ok_or_else(|| {
        CliError::usage(format!(
            "`sweep` needs a scenario name (sweepable scenarios: {})",
            sweep_names.join(", ")
        ))
    })?;
    // Unknown scenario is exit 2 (a typo); a known scenario without a
    // sweep target is exit 3 (a clean capability skip for CI legs).
    find_scenario(&name)?;
    let target = registry::find_sweep(&name).ok_or_else(|| {
        CliError::unsupported(format!(
            "scenario `{name}` does not support sweeps (sweepable scenarios: {})",
            sweep_names.join(", ")
        ))
    })?;
    if let Some(threads) = threads {
        ThreadBudget::init_global(threads).map_err(|existing| {
            CliError::usage(format!(
                "--threads {threads} rejected: the thread budget was already \
                 fixed at {existing} lanes (set it before any parallel work)"
            ))
        })?;
    }

    let obs = CommandObs::start(telemetry, progress);
    let grid = match &grid_spec {
        None => target.default_grid(),
        Some(spec) => CandidateGrid::parse(spec, &target.default_grid())
            .map_err(|e| CliError::usage(format!("--grid: {e}")))?,
    };
    if grid.is_empty() {
        return Err(CliError::usage("--grid selects no candidates"));
    }

    // Every trace the scenario recorded under --traces, in deterministic
    // (sorted-filename) order — the order trace labels appear in the
    // report and per-candidate statistics pool over.
    let mut trace_paths: Vec<PathBuf> = std::fs::read_dir(&traces_dir)
        .map_err(|e| CliError::usage(format!("cannot read {}: {e}", traces_dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.extension().is_some_and(|ext| ext == "eqtrace")
                && path
                    .file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.starts_with(&format!("{name}-")))
        })
        .collect();
    trace_paths.sort();
    if trace_paths.is_empty() {
        return Err(CliError::usage(format!(
            "no `{name}-*.eqtrace` files under {} (record some with: experiments record {name})",
            traces_dir.display()
        )));
    }
    let traces: Vec<FileTrace> = trace_paths.iter().map(FileTrace::new).collect();
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();

    let config = SweepConfig {
        seed: seed.unwrap_or(SweepConfig::default().seed),
        // --quick cuts the bootstrap work for CI smoke runs; the
        // rankings stay deterministic either way.
        resamples: if quick {
            50
        } else {
            SweepConfig::default().resamples
        },
        ..SweepConfig::default()
    };
    println!(
        "eqimpact experiments — sweeping {name}: {} candidates x {} traces, seed {}, {} resamples, threads {}",
        grid.len(),
        sources.len(),
        config.seed,
        config.resamples,
        match threads {
            Some(n) => n.to_string(),
            None => format!("{} (auto)", ThreadBudget::global().capacity()),
        }
    );
    let report = run_sweep(target, &sources, &grid, &config, ThreadBudget::global())
        .map_err(|e| CliError::usage(format!("sweep failed: {e}")))?;

    println!();
    print!("{}", report.render_text());
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| CliError::usage(format!("cannot create {}: {e}", out_dir.display())))?;
    let json_path = out_dir.join(format!("sweep_{name}.json"));
    std::fs::write(&json_path, report.to_json().render_pretty())
        .map_err(|e| CliError::usage(format!("cannot write {}: {e}", json_path.display())))?;
    let text_path = out_dir.join(format!("sweep_{name}.txt"));
    std::fs::write(&text_path, report.render_text())
        .map_err(|e| CliError::usage(format!("cannot write {}: {e}", text_path.display())))?;
    println!("wrote {}", json_path.display());
    println!("wrote {}", text_path.display());
    obs.finish("sweep", &name, &out_dir)
}

fn cmd_certify(args: &[String]) -> Result<(), CliError> {
    let mut scenario: Option<String> = None;
    let mut traces_dir = PathBuf::from("traces");
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut out_dir = PathBuf::from("results");
    let mut telemetry = false;
    let mut progress = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--traces" => {
                traces_dir = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| CliError::usage("--traces requires a directory argument"))?
                        .clone(),
                );
            }
            "--seed" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::usage("--seed requires a u64 value"))?;
                seed = Some(value.parse().map_err(|_| {
                    CliError::usage(format!("--seed requires a u64, got `{value}`"))
                })?);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::usage("--threads requires a positive lane count"))?;
                threads = Some(parse_threads(value)?);
            }
            "--out" => {
                out_dir = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| CliError::usage("--out requires a directory argument"))?
                        .clone(),
                );
            }
            "--telemetry" => telemetry = true,
            "--progress" => progress = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::usage(format!(
                    "unknown flag `{flag}` (known flags: {CERTIFY_FLAGS})"
                )));
            }
            positional if scenario.is_none() => scenario = Some(positional.to_string()),
            positional => {
                return Err(CliError::usage(format!(
                    "`certify` takes one scenario name (unexpected: {positional})"
                )));
            }
        }
    }
    let certify_names: Vec<&str> = registry::certifies().iter().map(|c| c.name()).collect();
    let name = scenario.ok_or_else(|| {
        CliError::usage(format!(
            "`certify` needs a scenario name (certifiable scenarios: {})",
            certify_names.join(", ")
        ))
    })?;
    // Unknown scenario is exit 2 (a typo); a known scenario without a
    // certification target is exit 3 (a clean capability skip for CI).
    find_scenario(&name)?;
    let target = registry::find_certify(&name).ok_or_else(|| {
        CliError::unsupported(format!(
            "scenario `{name}` does not support certification (certifiable scenarios: {})",
            certify_names.join(", ")
        ))
    })?;
    if let Some(threads) = threads {
        ThreadBudget::init_global(threads).map_err(|existing| {
            CliError::usage(format!(
                "--threads {threads} rejected: the thread budget was already \
                 fixed at {existing} lanes (set it before any parallel work)"
            ))
        })?;
    }

    let obs = CommandObs::start(telemetry, progress);
    // Every trace the scenario recorded under --traces, in deterministic
    // (sorted-filename) order — the order certificates appear in the
    // report and per-check verdicts fold over.
    let mut trace_paths: Vec<PathBuf> = std::fs::read_dir(&traces_dir)
        .map_err(|e| CliError::usage(format!("cannot read {}: {e}", traces_dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.extension().is_some_and(|ext| ext == "eqtrace")
                && path
                    .file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.starts_with(&format!("{name}-")))
        })
        .collect();
    trace_paths.sort();
    if trace_paths.is_empty() {
        return Err(CliError::usage(format!(
            "no `{name}-*.eqtrace` files under {} (record some with: experiments record {name})",
            traces_dir.display()
        )));
    }
    let traces: Vec<FileTrace> = trace_paths.iter().map(FileTrace::new).collect();
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();

    let config = CertifyConfig {
        seed: seed.unwrap_or(CertifyConfig::default().seed),
        ..CertifyConfig::default()
    };
    println!(
        "eqimpact experiments — certifying {name}: {} traces, seed {}, threads {}",
        sources.len(),
        config.seed,
        match threads {
            Some(n) => n.to_string(),
            None => format!("{} (auto)", ThreadBudget::global().capacity()),
        }
    );
    let report = run_certification(target, &sources, &config, ThreadBudget::global())
        .map_err(|e| CliError::usage(format!("certification failed: {e}")))?;

    println!();
    print!("{}", report.render_text());
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| CliError::usage(format!("cannot create {}: {e}", out_dir.display())))?;
    let json_path = out_dir.join(format!("certify_{name}.json"));
    std::fs::write(&json_path, report.to_json().render_pretty())
        .map_err(|e| CliError::usage(format!("cannot write {}: {e}", json_path.display())))?;
    let text_path = out_dir.join(format!("certify_{name}.txt"));
    std::fs::write(&text_path, report.render_text())
        .map_err(|e| CliError::usage(format!("cannot write {}: {e}", text_path.display())))?;
    println!("wrote {}", json_path.display());
    println!("wrote {}", text_path.display());
    obs.finish("certify", &name, &out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn threads_zero_clamps_to_one_lane_instead_of_erroring() {
        // The calling thread is always a lane, so `--threads 0` means
        // "the minimum budget", not a usage error (mirrors
        // EQIMPACT_THREADS=0 handling in the core pool).
        assert_eq!(parse_threads("0").unwrap(), 1);
        let flags = parse_common(&strings(&["credit", "--threads", "0"]), RUN_FLAGS, true).unwrap();
        assert_eq!(flags.threads, Some(1));
        assert_eq!(flags.scenario.as_deref(), Some("credit"));
    }

    #[test]
    fn threads_parse_accepts_positive_and_rejects_garbage() {
        assert_eq!(parse_threads("4").unwrap(), 4);
        let err = parse_threads("lots").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("lots"));
    }

    /// Writes a minimal empty-but-well-formed trace whose header names
    /// `scenario` and `variant`, so `replay` gets past parsing and hits
    /// the registry gates exactly like a real recorded trace would.
    fn write_stub_trace(scenario: &str, variant: &str) -> PathBuf {
        use eqimpact_core::recorder::RecordPolicy;
        use eqimpact_core::scenario::{Scale, TraceMeta};
        use eqimpact_trace::{TraceHeader, TraceWriter};
        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: scenario.to_string(),
            variant: variant.to_string(),
            trial: 0,
            scale: Scale::Quick,
            seed: 0,
            shards: 1,
            delay: 0,
            policy: RecordPolicy::Full,
        });
        let writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let bytes = writer.finish().unwrap();
        let path = std::env::temp_dir().join(format!(
            "eqimpact-exitcode-{scenario}-{}.eqtrace",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn scenario_commands_agree_on_exit_codes_for_unknown_and_unsupported() {
        // The shared contract across every scenario-taking command:
        // exit 2 = the name is not a registered scenario at all (and the
        // message lists the known names), exit 3 = the scenario exists
        // but lacks this capability (the clean CI matrix skip).
        let unknown_record = cmd_record(&strings(&["nope"])).unwrap_err();
        let unknown_sweep = cmd_sweep(&strings(&["nope"])).unwrap_err();
        let unknown_certify = cmd_certify(&strings(&["nope"])).unwrap_err();
        for err in [&unknown_record, &unknown_sweep, &unknown_certify] {
            assert_eq!(err.code, 2, "unknown scenario must exit 2: {}", err.message);
            assert!(
                err.message.contains("credit") && err.message.contains("hiring"),
                "unknown-scenario error should list known names: {}",
                err.message
            );
        }

        // `ablations` is registered but records no traces, so every
        // trace-consuming capability is a clean unsupported skip.
        let unsup_record = cmd_record(&strings(&["ablations"])).unwrap_err();
        let unsup_sweep = cmd_sweep(&strings(&["ablations"])).unwrap_err();
        let unsup_certify = cmd_certify(&strings(&["ablations"])).unwrap_err();
        for err in [&unsup_record, &unsup_sweep, &unsup_certify] {
            assert_eq!(
                err.code, 3,
                "known-but-unsupported scenario must exit 3: {}",
                err.message
            );
        }

        // `replay` reads the scenario name from the trace header instead
        // of argv, but must apply the same contract.
        let unknown_trace = write_stub_trace("nope", "stub");
        let err = cmd_replay(&strings(&[unknown_trace.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&unknown_trace).ok();
        assert_eq!(err.code, 2, "replay of unknown scenario: {}", err.message);
        assert!(
            err.message.contains("credit") && err.message.contains("hiring"),
            "replay unknown-scenario error should list known names: {}",
            err.message
        );

        let unsup_trace = write_stub_trace("ablations", "stub");
        let err = cmd_replay(&strings(&[unsup_trace.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&unsup_trace).ok();
        assert_eq!(
            err.code, 3,
            "replay of unsupported scenario: {}",
            err.message
        );
    }

    #[test]
    fn replay_rejects_a_variant_that_would_write_outside_out() {
        // The off-policy report is named after the header's variant, so
        // `x/../../../escaped` would land two directories above `--out`
        // once `out/offpolicy_credit_scorecard_vs_x/` exists. Reading the
        // header must reject it before anything is evaluated or written.
        fn files_under(dir: &Path) -> usize {
            std::fs::read_dir(dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .map(|path| if path.is_dir() { files_under(&path) } else { 1 })
                .sum()
        }
        let root =
            std::env::temp_dir().join(format!("eqimpact-replay-escape-{}", std::process::id()));
        let out = root.join("a").join("b").join("out");
        std::fs::create_dir_all(out.join("offpolicy_credit_scorecard_vs_x")).unwrap();
        let trace = write_stub_trace("credit", "x/../../../escaped");
        let err = cmd_replay(&strings(&[
            trace.to_str().unwrap(),
            "--policy",
            "scorecard",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        std::fs::remove_file(&trace).ok();
        let written = files_under(&root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("variant"), "{}", err.message);
        assert_eq!(written, 0, "replay wrote a file");
    }

    #[test]
    fn list_json_reports_per_scenario_capability_flags() {
        let json = list_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(
            r#"{"name":"credit","trace":true,"sweep":true,"certify":true,"telemetry":true}"#
        ));
        assert!(json.contains(
            r#"{"name":"hiring","trace":true,"sweep":true,"certify":true,"telemetry":true}"#
        ));
        assert!(json.contains(
            r#"{"name":"ablations","trace":false,"sweep":false,"certify":false,"telemetry":true}"#
        ));
        // Deterministically sorted by name, so the CI matrix is stable.
        let credit = json.find(r#""name":"credit""#).unwrap();
        let ablations = json.find(r#""name":"ablations""#).unwrap();
        let hiring = json.find(r#""name":"hiring""#).unwrap();
        assert!(ablations < credit && credit < hiring);
    }
}
