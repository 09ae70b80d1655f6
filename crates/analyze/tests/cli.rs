//! Exit-code and `--json` contract of the `analyze` binary: 0 on a
//! clean workspace, 1 on findings (demonstrably red on the fixture
//! violations), 2 on bad arguments.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn real_workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run<I, S>(args: I) -> Output
where
    I: IntoIterator<Item = S>,
    S: AsRef<OsStr>,
{
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("analyze binary runs")
}

#[test]
fn clean_workspace_exits_zero() {
    let out = run([real_workspace_root().as_os_str()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the real workspace must analyze clean; report:\n{stdout}"
    );
    assert!(stdout.contains("result: 0 finding(s)"), "report:\n{stdout}");
    assert!(
        !stdout.contains("unsafe inventory"),
        "the workspace is unsafe-free; report:\n{stdout}"
    );
}

#[test]
fn fixture_violations_exit_one() {
    let out = run([fixture_root().as_os_str()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "report:\n{stdout}");
    // The findings are named with rule, file and line.
    assert!(stdout.contains("R5 crates/bench/src/experiments.rs:5"));
    assert!(stdout.contains("R7 Cargo.toml:9"));
}

#[test]
fn bad_arguments_exit_two() {
    let out = run(["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!out.stderr.is_empty(), "usage goes to stderr");

    let out = run(["/definitely/not/a/workspace"]);
    assert_eq!(out.status.code(), Some(2), "unreadable root is exit 2");
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    let dir = std::env::temp_dir();
    let a_path = dir.join(format!("analyze-cli-a-{}.json", std::process::id()));
    let b_path = dir.join(format!("analyze-cli-b-{}.json", std::process::id()));
    let root = fixture_root();

    let a = run([root.as_os_str(), "--json".as_ref(), a_path.as_os_str()]);
    let b = run([
        root.as_os_str(),
        "--json".as_ref(),
        b_path.as_os_str(),
        "--quiet".as_ref(),
    ]);
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(b.status.code(), Some(1));
    // --quiet collapses the report to the one-line summary.
    let quiet_out = String::from_utf8_lossy(&b.stdout);
    assert!(
        quiet_out.starts_with("analyze: 21 finding(s)"),
        "quiet summary:\n{quiet_out}"
    );

    let a_bytes = std::fs::read(&a_path).expect("first JSON report");
    let b_bytes = std::fs::read(&b_path).expect("second JSON report");
    assert_eq!(a_bytes, b_bytes, "JSON report must be deterministic");
    let text = String::from_utf8(a_bytes).expect("JSON report is UTF-8");
    assert!(text.contains("\"findings_active\": 21"), "report:\n{text}");
    let _ = std::fs::remove_file(&a_path);
    let _ = std::fs::remove_file(&b_path);
}
