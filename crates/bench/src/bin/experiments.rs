//! Registry-driven experiments CLI: lists, runs, records and replays the
//! registered closed-loop scenarios (one row each in
//! `eqimpact_bench::registry::SCENARIOS`).
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
//!
//! The five scenario-taking commands share one skeleton: [`parse_args`]
//! (each accepts exactly the flags its `*_FLAGS` text lists), [`resolve`]
//! or [`find_scenario`] (exit 2 for an unknown scenario, 3 for one without
//! the capability), [`set_up`] (the thread budget and [`CommandObs`]),
//! the command's own work, and `main`'s mapping of [`CliError`] to the
//! exit code. `tests/cli.rs` pins that contract from outside the process.

use eqimpact_bench::registry::{self, ScenarioEntry, Traced};
use eqimpact_certify::{run_certification, CertifyConfig};
use eqimpact_core::pool::ThreadBudget;
use eqimpact_core::scenario::{write_artifacts, DynScenario, Scale, ScenarioConfig};
use eqimpact_lab::{run_sweep, CandidateGrid, FileTrace, SweepConfig, TraceSource};
use eqimpact_stats::ToJson;
use eqimpact_telemetry::metrics as tm;
use eqimpact_telemetry::progress::{start_heartbeat, Heartbeat};
use eqimpact_telemetry::{ManualTimer, Recorder};
use eqimpact_trace::{TraceDirFactory, TraceReader};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Flags accepted by `run`. Each `*_FLAGS` text is both what
/// [`parse_args`] accepts for its command and its unknown-flag message.
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
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print_usage();
            Ok(())
        }
        Some("list") => cmd_list(rest),
        Some("run") => cmd_run(parse_args(rest, RUN_FLAGS)?),
        Some("record") => cmd_record(parse_args(rest, RECORD_FLAGS)?),
        Some("replay") => cmd_replay(parse_args(rest, REPLAY_FLAGS)?),
        Some("sweep") => cmd_sweep(parse_args(rest, SWEEP_FLAGS)?),
        Some("certify") => cmd_certify(parse_args(rest, CERTIFY_FLAGS)?),
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
    for entry in registry::SCENARIOS {
        let scenario = entry.scenario;
        println!("  {:<11} {}", scenario.name(), scenario.description());
        for spec in scenario.artifacts() {
            println!("    - {:<16} {}", spec.name, spec.description);
        }
    }
    println!();
    println!("traceable scenarios (experiments record / replay):");
    for (name, traced) in registry::traced() {
        let policies: Vec<&str> = traced.replay.policies().iter().map(|p| p.name).collect();
        println!("  {name:<11} policies: {}", policies.join(", "));
    }
    println!();
    println!("sweepable scenarios (experiments sweep):");
    for (name, traced) in registry::traced() {
        let grid = traced.sweep.default_grid();
        println!(
            "  {name:<11} default grid: {} candidates (policies: {}; filters: {})",
            grid.len(),
            traced.sweep.known_policies().join(", "),
            traced.sweep.known_filters().join(", ")
        );
    }
    println!();
    println!("certifiable scenarios (experiments certify):");
    for (name, traced) in registry::traced() {
        let spec = traced.certify.spec();
        println!(
            "  {name:<11} state range [{}, {}] in {} bins, model fields: {}",
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
    let mut entries: Vec<(&str, bool)> = registry::SCENARIOS
        .iter()
        .map(|entry| (entry.scenario.name(), entry.traced.is_some()))
        .collect();
    entries.sort_unstable();
    let entries: Vec<String> = entries
        .iter()
        .map(|(name, traced)| {
            // `telemetry` is a CLI-level capability — every scenario can
            // run under the recorder — but it is reported per entry so
            // CI legs gate on the payload alone, like the other flags.
            format!(
                "{{\"name\":\"{name}\",\"trace\":{traced},\"sweep\":{traced},\"certify\":{traced},\"telemetry\":true}}"
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

/// A command's parsed arguments. Each command's `*_FLAGS` text lists the
/// flags it accepts; every other field keeps its default.
#[derive(Default)]
struct Args {
    positionals: Vec<String>,
    all: bool,
    quick: bool,
    seed: Option<u64>,
    shards: usize,
    threads: Option<usize>,
    out_dir: Option<PathBuf>,
    traces_dir: Option<PathBuf>,
    grid: Option<String>,
    policy: Option<String>,
    telemetry: bool,
    progress: bool,
}

/// Parses a command's arguments, accepting exactly the flags that
/// `known_flags` (also the text of the unknown-flag error) names.
fn parse_args(args: &[String], known_flags: &str) -> Result<Args, CliError> {
    // The pre-redesign CLI swallowed unknown flags as artifact names, so
    // a typo silently selected nothing. Reject them.
    let unknown = |flag: &str| {
        CliError::usage(format!(
            "unknown flag `{flag}` (known flags: {known_flags})"
        ))
    };
    let mut parsed = Args {
        shards: 1,
        ..Args::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |missing: &str| iter.next().ok_or_else(|| CliError::usage(missing));
        match arg.as_str() {
            positional if !positional.starts_with("--") => parsed.positionals.push(arg.clone()),
            flag if !known_flags
                .split(", ")
                .any(|known| known.split(' ').next() == Some(flag)) =>
            {
                return Err(unknown(flag));
            }
            "--all" => parsed.all = true,
            "--quick" => parsed.quick = true,
            "--telemetry" => parsed.telemetry = true,
            "--progress" => parsed.progress = true,
            "--seed" => {
                let value = value("--seed requires a u64 value")?;
                parsed.seed = Some(value.parse().map_err(|_| {
                    CliError::usage(format!("--seed requires a u64, got `{value}`"))
                })?);
            }
            "--shards" => {
                let value = value("--shards requires a count (0 = auto, one per budget lane)")?;
                parsed.shards = value.parse().map_err(|_| {
                    CliError::usage(format!("--shards requires an integer, got `{value}`"))
                })?;
            }
            "--threads" => {
                let value = value("--threads requires a positive lane count")?;
                parsed.threads = Some(parse_threads(value)?);
            }
            "--out" => {
                parsed.out_dir = Some(value("--out requires a directory argument")?.into());
            }
            "--traces" => {
                parsed.traces_dir = Some(value("--traces requires a directory argument")?.into());
            }
            "--grid" => {
                let spec = value("--grid requires a spec like `policy=a,b;threshold=0,10`")?;
                parsed.grid = Some(spec.clone());
            }
            "--policy" => parsed.policy = Some(value("--policy requires a policy name")?.clone()),
            flag => return Err(unknown(flag)),
        }
    }
    Ok(parsed)
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

/// The one positional a command takes (`what` names it in the error for
/// any more), if given.
fn single_positional<'a>(
    command: &str,
    what: &str,
    args: &'a Args,
) -> Result<Option<&'a str>, CliError> {
    match args.positionals.as_slice() {
        [] => Ok(None),
        [one] => Ok(Some(one)),
        [_, extra @ ..] => Err(CliError::usage(format!(
            "`{command}` takes one {what} (unexpected: {})",
            extra.join(" ")
        ))),
    }
}

fn find_scenario(name: &str) -> Result<&'static ScenarioEntry, CliError> {
    registry::find(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown scenario `{name}` (known scenarios: {})",
            registry::names().join(", ")
        ))
    })
}

/// Resolves the scenario a trace-consuming command (`record`, `replay`,
/// `sweep`, `certify`) works on: exit 2 when it names none or one the
/// registry does not know, exit 3 when the scenario records no traces —
/// the clean capability skip for CI legs.
fn resolve(
    command: &str,
    name: Option<&str>,
) -> Result<(&'static dyn DynScenario, &'static Traced), CliError> {
    let traced: Vec<&str> = registry::traced().map(|(name, _)| name).collect();
    let traced = traced.join(", ");
    let (kind, capability) = match command {
        "record" => ("traceable", "trace recording"),
        "sweep" => ("sweepable", "sweeps"),
        "certify" => ("certifiable", "certification"),
        _ => ("replayable", "replay"),
    };
    let name = name.ok_or_else(|| {
        CliError::usage(format!(
            "`{command}` needs a scenario name ({kind} scenarios: {traced})"
        ))
    })?;
    let entry = find_scenario(name)?;
    match &entry.traced {
        Some(faces) => Ok((entry.scenario, faces)),
        None if command == "replay" => Err(CliError::unsupported(format!(
            "trace was recorded by scenario `{name}`, which has no registered replayer \
             ({kind} scenarios: {traced})"
        ))),
        None => Err(CliError::unsupported(format!(
            "scenario `{name}` does not support {capability} ({kind} scenarios: {traced})"
        ))),
    }
}

/// Applies `--threads N` by fixing the process-wide [`ThreadBudget`]
/// before anything leases from it (its capacity is set on first use),
/// then starts the command's observability.
fn set_up(args: &Args) -> Result<CommandObs, CliError> {
    if let Some(threads) = args.threads {
        ThreadBudget::init_global(threads).map_err(|existing| {
            CliError::usage(format!(
                "--threads {threads} rejected: the thread budget was already \
                 fixed at {existing} lanes (set it before any parallel work)"
            ))
        })?;
    }
    Ok(CommandObs::start(args.telemetry, args.progress))
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
            let snapshot = Recorder::snapshot().render_json();
            let path = write_out(out_dir, &format!("telemetry_{label}.json"), &snapshot)?;
            println!("wrote {}", path.display());
        }
        println!("{command} completed in {ms:.1} ms");
        Ok(())
    }
}

/// Writes `contents` to `out_dir/file`, creating the directory first.
fn write_out(out_dir: &Path, file: &str, contents: &str) -> Result<PathBuf, CliError> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::usage(format!("cannot create {}: {e}", out_dir.display())))?;
    let path = out_dir.join(file);
    std::fs::write(&path, contents)
        .map_err(|e| CliError::usage(format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

/// Prints a sweep or certify report and writes it as `<stem>.json` and
/// `<stem>.txt` under `out_dir`.
fn write_report(out_dir: &Path, stem: &str, json: &str, text: &str) -> Result<(), CliError> {
    println!();
    print!("{text}");
    let json_path = write_out(out_dir, &format!("{stem}.json"), json)?;
    let text_path = write_out(out_dir, &format!("{stem}.txt"), text)?;
    println!("wrote {}", json_path.display());
    println!("wrote {}", text_path.display());
    Ok(())
}

fn scale_of(quick: bool) -> Scale {
    if quick {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

fn base_config(args: &Args) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(scale_of(args.quick)).with_shards(args.shards);
    if let Some(seed) = args.seed {
        config = config.with_seed(seed);
    }
    config
}

fn thread_label(threads: Option<usize>) -> String {
    match threads {
        Some(n) => n.to_string(),
        None => format!("{} (auto)", ThreadBudget::global().capacity()),
    }
}

fn seed_label(seed: Option<u64>) -> String {
    seed.map(|s| s.to_string())
        .unwrap_or_else(|| "scenario default".to_string())
}

/// Every trace of scenario `name` under `--traces` (default `traces/`),
/// that is every `<name>-*.eqtrace` file, in sorted-filename order — the
/// order trace labels appear in the sweep and certify reports and their
/// statistics fold over. A trace whose header names another scenario is
/// rejected before any work; one whose header does not parse is kept, so
/// the report shows its error.
fn discover_traces(args: &Args, name: &str) -> Result<Vec<FileTrace>, CliError> {
    let dir = args.traces_dir.as_deref().unwrap_or(Path::new("traces"));
    let cannot_read =
        |e: std::io::Error| CliError::usage(format!("cannot read {}: {e}", dir.display()));
    let prefix = format!("{name}-");
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(cannot_read)? {
        let path = entry.map_err(cannot_read)?.path();
        let file_name = path.file_name().and_then(|f| f.to_str());
        if path.extension().is_some_and(|ext| ext == "eqtrace")
            && file_name.is_some_and(|f| f.starts_with(&prefix))
        {
            paths.push(path);
        }
    }
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::usage(format!(
            "no `{name}-*.eqtrace` files under {} (record some with: experiments record {name})",
            dir.display()
        )));
    }
    for path in &paths {
        let Ok(file) = File::open(path) else { continue };
        if let Ok(reader) = TraceReader::new(BufReader::new(file)) {
            let recorded = &reader.header().scenario;
            if recorded != name {
                return Err(CliError::usage(format!(
                    "{}: recorded by scenario `{recorded}`, not `{name}`",
                    path.display()
                )));
            }
        }
    }
    Ok(paths.iter().map(FileTrace::new).collect())
}

fn cmd_run(args: Args) -> Result<(), CliError> {
    let (label, selected): (&str, Vec<&'static dyn DynScenario>) =
        match (args.all, args.positionals.first()) {
            (true, None) => (
                "all",
                registry::SCENARIOS.iter().map(|e| e.scenario).collect(),
            ),
            (true, Some(_)) => {
                return Err(CliError::usage(
                    "`run --all` runs every scenario in full; drop the scenario/artifact names",
                ))
            }
            (false, Some(name)) => (name, vec![find_scenario(name)?.scenario]),
            (false, None) => {
                return Err(CliError::usage(format!(
                    "`run` needs a scenario name or --all (known scenarios: {})",
                    registry::names().join(", ")
                )))
            }
        };
    let artifacts = args.positionals.get(1..).unwrap_or_default();
    let obs = set_up(&args)?;
    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));

    println!(
        "eqimpact experiments — scale: {:?}, seed: {}, shards: {}, threads: {}, output: {}",
        scale_of(args.quick),
        seed_label(args.seed),
        if args.shards == 0 {
            "auto".to_string()
        } else {
            args.shards.to_string()
        },
        thread_label(args.threads),
        out_dir.display()
    );

    for scenario in selected {
        let mut config = base_config(&args);
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
            if args.all {
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
    obs.finish("run", label, &out_dir)
}

fn cmd_record(args: Args) -> Result<(), CliError> {
    let (scenario, _) = resolve(
        "record",
        single_positional("record", "scenario name", &args)?,
    )?;
    let name = scenario.name();
    // Same exit-3 capability gate as `run`: a sharded record of a
    // scenario without intra-trial parallelism is a clean skip, not a
    // usage error.
    if args.shards != 1 && !scenario.supports_sharding() {
        return Err(CliError::unsupported(format!(
            "scenario `{name}` does not support intra-trial sharding \
             (record it with --shards 1)"
        )));
    }
    let obs = set_up(&args)?;
    let out_dir = args
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
        scale_of(args.quick),
        seed_label(args.seed),
        args.shards,
        thread_label(args.threads),
        out_dir.display()
    );
    let config = base_config(&args).with_trace(factory.clone());
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
    obs.finish("record", name, &out_dir)
}

fn cmd_replay(args: Args) -> Result<(), CliError> {
    let trace_path = single_positional("replay", "trace file", &args)?
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage("`replay` needs a trace file path"))?;
    let file = File::open(&trace_path)
        .map_err(|e| CliError::usage(format!("cannot open {}: {e}", trace_path.display())))?;
    let mut input = BufReader::new(file);
    let reader = TraceReader::new(&mut input as &mut dyn std::io::Read)
        .map_err(|e| CliError::usage(format!("{}: {e}", trace_path.display())))?;
    let header = reader.header().clone();
    // The trace names its scenario, so the same exit-code contract as
    // every scenario-taking command applies to the header's name.
    let (_, traced) = resolve("replay", Some(&header.scenario))?;
    let obs = set_up(&args)?;
    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
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

    match &args.policy {
        None => {
            let summary = traced
                .replay
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
            let report = traced
                .replay
                .evaluate(reader, policy)
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
            // The variant is part of the identity: the same policy
            // evaluated against different recorded behaviours must not
            // overwrite itself.
            let file = format!(
                "offpolicy_{}_{}_vs_{}_trial{}.json",
                report.scenario, policy, header.variant, header.trial
            );
            let path = write_out(&out_dir, &file, &report.to_json().render_pretty())?;
            println!("  wrote {}", path.display());
        }
    }
    obs.finish("replay", &header.scenario, &out_dir)
}

fn cmd_sweep(args: Args) -> Result<(), CliError> {
    let (scenario, traced) = resolve("sweep", single_positional("sweep", "scenario name", &args)?)?;
    let name = scenario.name();
    let target = traced.sweep;
    let obs = set_up(&args)?;
    let grid = match &args.grid {
        None => target.default_grid(),
        Some(spec) => CandidateGrid::parse(spec, &target.default_grid())
            .map_err(|e| CliError::usage(format!("--grid: {e}")))?,
    };
    if grid.is_empty() {
        return Err(CliError::usage("--grid selects no candidates"));
    }
    let traces = discover_traces(&args, name)?;
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();

    let config = SweepConfig {
        seed: args.seed.unwrap_or(SweepConfig::default().seed),
        // --quick cuts the bootstrap work for CI smoke runs; the
        // rankings stay deterministic either way.
        resamples: if args.quick {
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
        thread_label(args.threads)
    );
    let report = run_sweep(target, &sources, &grid, &config, ThreadBudget::global())
        .map_err(|e| CliError::usage(format!("sweep failed: {e}")))?;
    let out_dir = args.out_dir.unwrap_or_else(|| PathBuf::from("results"));
    write_report(
        &out_dir,
        &format!("sweep_{name}"),
        &report.to_json().render_pretty(),
        &report.render_text(),
    )?;
    obs.finish("sweep", name, &out_dir)
}

fn cmd_certify(args: Args) -> Result<(), CliError> {
    let (scenario, traced) = resolve(
        "certify",
        single_positional("certify", "scenario name", &args)?,
    )?;
    let name = scenario.name();
    let obs = set_up(&args)?;
    let traces = discover_traces(&args, name)?;
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();

    let config = CertifyConfig {
        seed: args.seed.unwrap_or(CertifyConfig::default().seed),
        ..CertifyConfig::default()
    };
    println!(
        "eqimpact experiments — certifying {name}: {} traces, seed {}, threads {}",
        sources.len(),
        config.seed,
        thread_label(args.threads)
    );
    let report = run_certification(traced.certify, &sources, &config, ThreadBudget::global())
        .map_err(|e| CliError::usage(format!("certification failed: {e}")))?;
    let out_dir = args.out_dir.unwrap_or_else(|| PathBuf::from("results"));
    write_report(
        &out_dir,
        &format!("certify_{name}"),
        &report.to_json().render_pretty(),
        &report.render_text(),
    )?;
    obs.finish("certify", name, &out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parses `args` against `known_flags` and runs `command` on them,
    /// as `real_main` does.
    fn run(
        command: fn(Args) -> Result<(), CliError>,
        known_flags: &str,
        args: &[&str],
    ) -> Result<(), CliError> {
        command(parse_args(&strings(args), known_flags)?)
    }

    #[test]
    fn threads_zero_clamps_to_one_lane_instead_of_erroring() {
        // The calling thread is always a lane, so `--threads 0` means
        // "the minimum budget", not a usage error (mirrors
        // EQIMPACT_THREADS=0 handling in the core pool).
        assert_eq!(parse_threads("0").unwrap(), 1);
        let args = parse_args(&strings(&["credit", "--threads", "0"]), RUN_FLAGS).unwrap();
        assert_eq!(args.threads, Some(1));
        assert_eq!(args.positionals, ["credit"]);
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
        let unknown_record = run(cmd_record, RECORD_FLAGS, &["nope"]).unwrap_err();
        let unknown_sweep = run(cmd_sweep, SWEEP_FLAGS, &["nope"]).unwrap_err();
        let unknown_certify = run(cmd_certify, CERTIFY_FLAGS, &["nope"]).unwrap_err();
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
        let unsup_record = run(cmd_record, RECORD_FLAGS, &["ablations"]).unwrap_err();
        let unsup_sweep = run(cmd_sweep, SWEEP_FLAGS, &["ablations"]).unwrap_err();
        let unsup_certify = run(cmd_certify, CERTIFY_FLAGS, &["ablations"]).unwrap_err();
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
        let err = run(cmd_replay, REPLAY_FLAGS, &[unknown_trace.to_str().unwrap()]).unwrap_err();
        std::fs::remove_file(&unknown_trace).ok();
        assert_eq!(err.code, 2, "replay of unknown scenario: {}", err.message);
        assert!(
            err.message.contains("credit") && err.message.contains("hiring"),
            "replay unknown-scenario error should list known names: {}",
            err.message
        );

        let unsup_trace = write_stub_trace("ablations", "stub");
        let err = run(cmd_replay, REPLAY_FLAGS, &[unsup_trace.to_str().unwrap()]).unwrap_err();
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
        let err = run(
            cmd_replay,
            REPLAY_FLAGS,
            &[
                trace.to_str().unwrap(),
                "--policy",
                "scorecard",
                "--out",
                out.to_str().unwrap(),
            ],
        )
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
