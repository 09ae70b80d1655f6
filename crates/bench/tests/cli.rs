//! The `experiments` binary's contract, driven from outside the process:
//! exit codes (0 success, 2 usage or validation error, 3 "this scenario
//! lacks the capability") and their messages for every command, the
//! `list` / `list --json` listings, the `run --all` shard downgrade, the
//! credit record → replay → sweep → certify pipeline, and the rejection
//! of traces recorded by another scenario.

use eqimpact_core::recorder::RecordPolicy;
use eqimpact_core::scenario::{Scale, TraceMeta};
use eqimpact_trace::{TraceHeader, TraceWriter};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A per-test working directory, removed on drop. Every command runs
/// inside one, so default `results/` and `traces/` outputs never land in
/// the package directory and parallel tests share no file.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("eqimpact-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        WorkDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("experiments binary runs")
    }

    /// Runs a command that must succeed, returning its stdout.
    fn ok(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "`experiments {}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("stdout is UTF-8")
    }

    /// Writes an empty but well-formed trace whose header names
    /// `scenario`, so `replay` gets past parsing and reaches the registry.
    fn stub_trace(&self, scenario: &str) {
        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: scenario.to_string(),
            variant: "stub".to_string(),
            trial: 0,
            scale: Scale::Quick,
            seed: 0,
            shards: 1,
            delay: 0,
            policy: RecordPolicy::Full,
        });
        let bytes = TraceWriter::new(Vec::new(), &header)
            .and_then(TraceWriter::finish)
            .expect("stub trace encodes");
        std::fs::write(self.path(&format!("{scenario}-stub.eqtrace")), bytes)
            .expect("write stub trace");
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_command_maps_usage_errors_to_2_and_missing_capabilities_to_3() {
    let dir = WorkDir::new("exit-codes");
    for scenario in ["credit", "nope", "ablations"] {
        dir.stub_trace(scenario);
    }
    std::fs::write(dir.path("not-a-trace.eqtrace"), b"").expect("write empty file");
    std::fs::create_dir(dir.path("empty")).expect("create empty dir");

    // (argv, exit code, the error line after `error: `). The usage hint
    // follows on every failure.
    let cases: &[(&str, u8, &str)] = &[
        ("nope", 2, "unknown command `nope` (known commands: list, run, record, replay, sweep, certify, help)"),
        ("list --bogus", 2, "unknown arguments to `list`: --bogus (known: --json)"),
        // run
        ("run", 2, "`run` needs a scenario name or --all (known scenarios: credit, hiring, ablations)"),
        ("run nope", 2, "unknown scenario `nope` (known scenarios: credit, hiring, ablations)"),
        ("run credit --quikc", 2, "unknown flag `--quikc` (known flags: --all, --quick, --seed N, --shards N, --threads N, --out DIR, --telemetry, --progress)"),
        ("run credit --seed", 2, "--seed requires a u64 value"),
        ("run credit --seed x", 2, "--seed requires a u64, got `x`"),
        ("run credit --shards", 2, "--shards requires a count (0 = auto, one per budget lane)"),
        ("run credit --threads many", 2, "--threads requires an integer, got `many`"),
        ("run credit nope", 2, "scenario `credit` has no artifact `nope` (known: table1, fig2, fig3, fig4, fig5)"),
        ("run --all credit", 2, "`run --all` runs every scenario in full; drop the scenario/artifact names"),
        ("run ablations --shards 2", 3, "scenario `ablations` does not support intra-trial sharding (run it with --shards 1)"),
        // record
        ("record", 2, "`record` needs a scenario name (traceable scenarios: credit, hiring)"),
        ("record nope", 2, "unknown scenario `nope` (known scenarios: credit, hiring, ablations)"),
        ("record credit --all", 2, "unknown flag `--all` (known flags: --quick, --seed N, --shards N, --threads N, --out DIR, --telemetry, --progress)"),
        ("record credit --out", 2, "--out requires a directory argument"),
        ("record credit --shards x", 2, "--shards requires an integer, got `x`"),
        ("record credit extra", 2, "`record` takes one scenario name (unexpected: extra)"),
        ("record ablations", 3, "scenario `ablations` does not support trace recording (traceable scenarios: credit, hiring)"),
        // replay
        ("replay", 2, "`replay` needs a trace file path"),
        ("replay nope-stub.eqtrace", 2, "unknown scenario `nope` (known scenarios: credit, hiring, ablations)"),
        ("replay credit-stub.eqtrace --quick", 2, "unknown flag `--quick` (known flags: --policy NAME, --out DIR, --telemetry, --progress)"),
        ("replay credit-stub.eqtrace --policy", 2, "--policy requires a policy name"),
        ("replay credit-stub.eqtrace --policy nope", 2, "credit-stub.eqtrace: unknown policy `nope` (known: scorecard, uniform-exclusion, income-multiple)"),
        ("replay not-a-trace.eqtrace", 2, "not-a-trace.eqtrace: truncated trace while reading magic"),
        ("replay credit-stub.eqtrace extra", 2, "`replay` takes one trace file (unexpected: extra)"),
        ("replay ablations-stub.eqtrace", 3, "trace was recorded by scenario `ablations`, which has no registered replayer (replayable scenarios: credit, hiring)"),
        // sweep
        ("sweep", 2, "`sweep` needs a scenario name (sweepable scenarios: credit, hiring)"),
        ("sweep nope", 2, "unknown scenario `nope` (known scenarios: credit, hiring, ablations)"),
        ("sweep credit --shards 2", 2, "unknown flag `--shards` (known flags: --traces DIR, --grid SPEC, --quick, --seed N, --threads N, --out DIR, --telemetry, --progress)"),
        ("sweep credit --grid", 2, "--grid requires a spec like `policy=a,b;threshold=0,10`"),
        ("sweep credit --grid bogus=1", 2, "--grid: unknown grid axis `bogus` (known axes: policy, filter, threshold)"),
        ("sweep credit --threads x", 2, "--threads requires an integer, got `x`"),
        ("sweep credit hiring", 2, "`sweep` takes one scenario name (unexpected: hiring)"),
        ("sweep credit --traces empty", 2, "no `credit-*.eqtrace` files under empty (record some with: experiments record credit)"),
        ("sweep ablations", 3, "scenario `ablations` does not support sweeps (sweepable scenarios: credit, hiring)"),
        // certify
        ("certify", 2, "`certify` needs a scenario name (certifiable scenarios: credit, hiring)"),
        ("certify nope", 2, "unknown scenario `nope` (known scenarios: credit, hiring, ablations)"),
        ("certify credit --quick", 2, "unknown flag `--quick` (known flags: --traces DIR, --seed N, --threads N, --out DIR, --telemetry, --progress)"),
        ("certify credit --seed", 2, "--seed requires a u64 value"),
        ("certify credit --seed x", 2, "--seed requires a u64, got `x`"),
        ("certify credit hiring", 2, "`certify` takes one scenario name (unexpected: hiring)"),
        ("certify hiring --traces missing", 2, "cannot read missing: "),
        ("certify ablations", 3, "scenario `ablations` does not support certification (certifiable scenarios: credit, hiring)"),
    ];
    for &(argv, code, message) in cases {
        let args: Vec<&str> = argv.split(' ').collect();
        let out = dir.run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(i32::from(code)),
            "`experiments {argv}`: {stderr}"
        );
        let expected = format!("error: {message}");
        assert!(
            stderr.starts_with(&expected)
                && stderr.ends_with("\nrun `experiments help` for usage\n"),
            "`experiments {argv}`: expected `{expected}`, got:\n{stderr}"
        );
    }
    // Nothing above ran a scenario, so no default output directory exists.
    assert!(!dir.path("results").exists() && !dir.path("traces").exists());
}

#[test]
fn list_json_is_the_sorted_one_line_capability_payload() {
    let dir = WorkDir::new("list-json");
    assert_eq!(
        dir.ok(&["list", "--json"]),
        "[{\"name\":\"ablations\",\"trace\":false,\"sweep\":false,\"certify\":false,\"telemetry\":true},\
         {\"name\":\"credit\",\"trace\":true,\"sweep\":true,\"certify\":true,\"telemetry\":true},\
         {\"name\":\"hiring\",\"trace\":true,\"sweep\":true,\"certify\":true,\"telemetry\":true}]\n"
    );
}

#[test]
fn list_prints_the_committed_listing() {
    let dir = WorkDir::new("list");
    let expected = include_str!("data/experiments_list.txt");
    assert_eq!(dir.ok(&["list"]), expected);
    // `help` is the usage block followed by the same listing.
    assert!(dir.ok(&["help"]).ends_with(expected));
}

#[test]
fn run_all_with_shards_runs_the_unshardable_ablations_sequentially() {
    let dir = WorkDir::new("run-all");
    let stdout = dir.ok(&["run", "--all", "--quick", "--shards", "2", "--out", "res"]);
    assert!(
        stdout.contains("(note: `ablations` has no intra-trial sharding; running it sequentially)"),
        "{stdout}"
    );
    for file in [
        "table1_scorecard.json",
        "hiring_fairness.json",
        "ablate_delay.json",
    ] {
        assert!(dir.path("res").join(file).is_file(), "missing {file}");
    }
}

#[test]
fn credit_record_replay_sweep_certify_pipeline_succeeds() {
    let dir = WorkDir::new("pipeline");
    dir.ok(&["record", "credit", "--quick", "--out", "tr"]);
    let traces: Vec<PathBuf> = std::fs::read_dir(dir.path("tr"))
        .expect("read trace dir")
        .map(|entry| entry.expect("trace dir entry").path())
        .collect();
    assert!(!traces.is_empty(), "record wrote no trace");
    for trace in &traces {
        let trace = trace.to_str().expect("UTF-8 path");
        let stdout = dir.ok(&["replay", trace]);
        assert!(
            stdout.contains("byte-identical to the recorded run"),
            "{stdout}"
        );
        dir.ok(&[
            "replay",
            trace,
            "--policy",
            "income-multiple",
            "--out",
            "off",
        ]);
    }
    dir.ok(&[
        "sweep", "credit", "--quick", "--traces", "tr", "--out", "res",
    ]);
    dir.ok(&["certify", "credit", "--traces", "tr", "--out", "res"]);
    for file in [
        "sweep_credit.json",
        "sweep_credit.txt",
        "certify_credit.json",
        "certify_credit.txt",
    ] {
        assert!(dir.path("res").join(file).is_file(), "missing {file}");
    }
}

#[test]
fn sweep_and_certify_reject_a_trace_recorded_by_another_scenario() {
    let dir = WorkDir::new("foreign-trace");
    dir.ok(&["record", "hiring", "--quick", "--out", "tr"]);
    dir.ok(&["record", "credit", "--quick", "--out", "mix"]);
    std::fs::copy(
        dir.path("tr").join("hiring-adaptive-trial0.eqtrace"),
        dir.path("mix").join("credit-zz-foreign.eqtrace"),
    )
    .expect("copy the hiring trace under a credit name");
    let foreign = Path::new("mix").join("credit-zz-foreign.eqtrace");
    let expected = format!(
        "error: {}: recorded by scenario `hiring`, not `credit`\n",
        foreign.display()
    );
    for argv in [
        [
            "sweep", "credit", "--quick", "--traces", "mix", "--out", "out",
        ]
        .as_slice(),
        ["certify", "credit", "--traces", "mix", "--out", "out"].as_slice(),
    ] {
        let out = dir.run(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.starts_with(&expected), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed before failing");
        assert!(!dir.path("out").exists(), "{argv:?} wrote output");
    }

    // A file whose header does not parse is not attributable to any
    // scenario, so it stays a per-trace error inside the report.
    std::fs::remove_file(dir.path("mix").join("credit-zz-foreign.eqtrace"))
        .expect("remove the foreign trace");
    std::fs::write(dir.path("mix").join("credit-zz-bad.eqtrace"), b"").expect("write bad trace");
    let stdout = dir.ok(&["certify", "credit", "--traces", "mix", "--out", "out"]);
    assert!(
        stdout.contains("credit-zz-bad.eqtrace: truncated trace while reading magic"),
        "{stdout}"
    );
}
