//! Integration tests over the fixture mini-workspace in
//! `tests/fixtures/ws`: every rule fires on a known line, near-miss
//! text in comments/strings/test code stays silent, and the rendered
//! report is byte-identical across runs.

use std::path::{Path, PathBuf};

use eqimpact_analyze::{analyze, Report};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn run() -> Report {
    analyze(&fixture_root()).expect("fixture workspace analyzes")
}

/// The complete expected set of active findings, as (rule, file, line).
const EXPECTED_ACTIVE: &[(&str, &str, u32)] = &[
    ("R0", "crates/core/src/lib.rs", 51),
    ("R0", "crates/ml/src/logistic.rs", 14),
    ("R0", "crates/ml/src/logistic.rs", 19),
    ("R0", "crates/ml/src/logistic.rs", 24),
    ("R1", "crates/core/src/lib.rs", 5),
    ("R1", "crates/core/src/lib.rs", 10),
    ("R2", "crates/core/src/lib.rs", 15),
    ("R3", "crates/core/src/lib.rs", 19),
    ("R4", "crates/bench/src/lib.rs", 1),
    ("R4", "crates/core/src/lib.rs", 25),
    ("R5", "crates/bench/src/experiments.rs", 5),
    ("R5", "crates/bench/src/experiments.rs", 9),
    ("R5", "crates/bench/src/experiments.rs", 13),
    ("R6", "crates/ml/src/logistic.rs", 5),
    ("R6", "crates/ml/src/logistic.rs", 25),
    ("R7", "Cargo.toml", 9),
    ("R7", "crates/bench/Cargo.toml", 8),
    ("R8", "crates/core/src/lib.rs", 42),
    ("R8", "crates/core/src/surface.rs", 4),
    ("R8", "crates/core/src/surface.rs", 20),
    ("R8", "crates/ml/src/logistic.rs", 28),
];

#[test]
fn every_rule_fires_on_its_fixture_line() {
    let report = run();
    let mut active: Vec<(String, String, u32)> = report
        .active()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line))
        .collect();
    active.sort();
    let expected: Vec<(String, String, u32)> = EXPECTED_ACTIVE
        .iter()
        .map(|&(r, f, l)| (r.to_string(), f.to_string(), l))
        .collect();
    assert_eq!(active, expected);
    // Each of R0..R8 fires at least once.
    for id in ["R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"] {
        assert!(
            active.iter().any(|(r, _, _)| r == id),
            "{id} never fired on the fixtures"
        );
    }
}

#[test]
fn near_misses_stay_silent() {
    let report = run();
    // The sanctioned wall-clock module reads the clock without findings.
    assert!(
        !report.findings.iter().any(|f| f.file.contains("telemetry")),
        "telemetry fixture must be clean"
    );
    // The string literal naming thread::spawn (core lib.rs line 23) and
    // the #[cfg(test)] HashSet/Instant uses (lines 36-37) never fire.
    for silent_line in [23, 36, 37] {
        assert!(
            !report
                .findings
                .iter()
                .any(|f| f.file == "crates/core/src/lib.rs" && f.line == silent_line),
            "line {silent_line} of the core fixture must stay silent"
        );
    }
}

#[test]
fn valid_waiver_suppresses_and_is_listed() {
    let report = run();
    // The waived R8 item and R6 fold are present but inactive.
    let waived: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.waived)
        .map(|f| (f.rule.as_str(), f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        waived,
        [
            ("R8", "crates/bench/src/experiments.rs", 26),
            ("R6", "crates/ml/src/logistic.rs", 10),
        ]
    );
    // Exactly those two valid waivers, reasons preserved.
    let waivers: Vec<_> = report
        .waivers
        .iter()
        .map(|w| (w.rule.as_str(), w.line, w.reason.as_str()))
        .collect();
    assert_eq!(
        waivers,
        [
            ("R8", 25, "tests/harness.rs uses it as a fixture builder"),
            ("R6", 9, "fixture demonstrates a waived fold"),
        ]
    );
}

#[test]
fn dead_surface_counts_callers_outside_tests_and_reexports() {
    let report = run();
    let r8: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "R8" && !f.waived)
        .map(|f| f.message.as_str())
        .collect();
    // The dead item, the struct and the trait that only their own impl
    // blocks name, and the item named only through `pub use` fire; the
    // items only the fixture example names (`Built` through
    // `Built::new()`), the return type of a fn taking `impl Fn` and the
    // `#[cfg(test)]` item stay silent.
    assert_eq!(
        r8,
        [
            "`pub` item `dead_helper` is named by no non-test code",
            "`pub` item `Unused` is named by no non-test code",
            "`pub` item `Unnamed` is named by no non-test code",
            "`pub` item `reexported` is named by no non-test code",
        ]
    );
    // A stale R8 waiver is an R0 finding.
    assert!(report.findings.iter().any(|f| f.rule == "R0"
        && f.file == "crates/core/src/lib.rs"
        && f.message == "stale waiver: no R8 finding on line 51 or 52"));
}

#[test]
fn unsafe_inventory_tracks_documentation() {
    let report = run();
    let inv: Vec<_> = report
        .unsafe_inventory
        .iter()
        .map(|u| (u.file.as_str(), u.line, u.documented))
        .collect();
    assert_eq!(
        inv,
        vec![
            ("crates/core/src/lib.rs", 25, false),
            ("crates/core/src/lib.rs", 30, true),
        ]
    );
    // Crate audits: the unsafe-bearing crate is exempt from the forbid
    // requirement; the forbidding crates are recorded as such.
    let audit = |name: &str| {
        report
            .crates
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("crate {name} audited"))
    };
    assert!(!audit("fixture-core").forbids_unsafe);
    assert_eq!(audit("fixture-core").unsafe_count, 2);
    assert!(audit("fixture-ml").forbids_unsafe);
    assert!(audit("fixture-telemetry").forbids_unsafe);
    assert!(!audit("fixture-bench").forbids_unsafe);
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let a = run();
    let b = run();
    assert_eq!(a.render_json(), b.render_json());
    assert_eq!(a.render_text(), b.render_text());
    // No absolute paths leak into either rendering.
    let root = fixture_root();
    let root_str = root.to_string_lossy();
    assert!(!a.render_json().contains(root_str.as_ref()));
    assert!(!a.render_text().contains(root_str.as_ref()));
}

#[test]
fn scan_counts_cover_the_fixture_tree() {
    let report = run();
    // 8 source files: core lib + surface, bench lib + experiments, ml
    // lib + logistic, telemetry lib + instruments. The example is read
    // only for its R8 uses and is not counted.
    assert_eq!(report.files_scanned, 8);
    // 5 manifests: the root plus four crates.
    assert_eq!(report.manifests_scanned, 5);
}
