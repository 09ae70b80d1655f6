//! Workspace discovery and the analysis engine.
//!
//! Walks a workspace root (`Cargo.toml` + `crates/*/src/**` + the
//! facade package's own `src/**`), runs the token rules over every
//! source file, the manifest rule over every `Cargo.toml` (shims
//! included), applies waivers, and folds everything into a `Report`.
//!
//! `examples/`, `crates/*/benches/` and `loopbench/src/` are read only
//! as R8 callers: their identifiers count as uses of a `pub` item, but
//! no rule fires in them and they do not add to `files_scanned`.
//! Out of scope by construction: `tests/` directories and the vendored
//! `shims/*/src` stand-ins (scanned for R7 manifests only).

use std::fs;
use std::path::{Path, PathBuf};

use crate::report::{CrateAudit, Finding, Report, UnsafeEntry, WaiverEntry};
use crate::rules;
use crate::scan::FileScan;

/// One discovered crate (package) in the workspace.
struct CrateSrc {
    /// Package name from its manifest.
    name: String,
    /// Relative path of the crate root file (`.../src/lib.rs`).
    lib_rel: String,
    /// Relative paths of every `.rs` file under `src/`, sorted.
    files: Vec<String>,
}

/// Reads a file as UTF-8, mapping errors to a message naming the path.
fn read(root: &Path, rel: &str) -> Result<String, String> {
    fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))
}

/// Recursively lists `.rs` files under `dir`, as sorted relative paths.
fn rs_files(root: &Path, dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_string()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(root.join(&d)) else {
            continue;
        };
        let mut names: Vec<(bool, String)> = entries
            .flatten()
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let is_dir = e.file_type().map(|t| t.is_dir()).unwrap_or(false);
                (is_dir, name)
            })
            .collect();
        names.sort();
        for (is_dir, name) in names {
            let rel = format!("{d}/{name}");
            if is_dir {
                stack.push(rel);
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

/// Lists the immediate subdirectories of `dir`, sorted.
fn subdirs(root: &Path, dir: &str) -> Vec<String> {
    let Ok(entries) = fs::read_dir(root.join(dir)) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Pulls `name = "..."` out of a manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// What `discover` finds: the crates, the manifests, and the R8
/// caller-only source files.
struct Discovered {
    crates: Vec<CrateSrc>,
    manifests: Vec<String>,
    callers: Vec<String>,
}

/// Discovers crates: every `crates/<dir>` with a manifest and a
/// `src/lib.rs`, plus the root facade package when present.
fn discover(root: &Path) -> Result<Discovered, String> {
    let mut crates = Vec::new();
    let mut manifests = Vec::new();
    let mut callers = rs_files(root, "examples");
    callers.extend(rs_files(root, "loopbench/src"));

    let root_manifest = read(root, "Cargo.toml")?;
    manifests.push("Cargo.toml".to_string());
    if root_manifest.contains("[package]") {
        if let Some(name) = package_name(&root_manifest) {
            if root.join("src/lib.rs").is_file() {
                crates.push(CrateSrc {
                    name,
                    lib_rel: "src/lib.rs".to_string(),
                    files: rs_files(root, "src"),
                });
            }
        }
    }

    for dir in subdirs(root, "crates") {
        let man_rel = format!("crates/{dir}/Cargo.toml");
        if !root.join(&man_rel).is_file() {
            continue;
        }
        callers.extend(rs_files(root, &format!("crates/{dir}/benches")));
        manifests.push(man_rel.clone());
        let manifest = read(root, &man_rel)?;
        let name = package_name(&manifest).unwrap_or_else(|| dir.clone());
        let src_dir = format!("crates/{dir}/src");
        let lib_rel = format!("{src_dir}/lib.rs");
        if root.join(&lib_rel).is_file() {
            crates.push(CrateSrc {
                name,
                lib_rel,
                files: rs_files(root, &src_dir),
            });
        }
    }

    // Shim manifests participate in R7 (their sources do not).
    for dir in subdirs(root, "shims") {
        let man_rel = format!("shims/{dir}/Cargo.toml");
        if root.join(&man_rel).is_file() {
            manifests.push(man_rel);
        }
    }

    crates.sort_by(|a, b| a.name.cmp(&b.name));
    manifests.sort();
    Ok(Discovered {
        crates,
        manifests,
        callers,
    })
}

/// Runs the full analysis over the workspace at `root`.
///
/// Fails (with a message, not a panic) only on I/O errors such as a
/// missing or unreadable `Cargo.toml`.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let root: PathBuf = root.to_path_buf();
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{}: not a workspace root (no Cargo.toml)",
            root.display()
        ));
    }

    let Discovered {
        crates,
        manifests,
        callers,
    } = discover(&root)?;

    // R8 findings are final only once every caller has been counted,
    // so every file is lexed before any rule runs.
    let mut surface = rules::Surface::default();
    let mut scans: Vec<Vec<FileScan>> = Vec::new();
    for c in &crates {
        let mut crate_scans = Vec::new();
        for rel in &c.files {
            let fs = FileScan::new(&read(&root, rel)?);
            surface.add(rel, &fs);
            crate_scans.push(fs);
        }
        scans.push(crate_scans);
    }
    for rel in &callers {
        surface.add(rel, &FileScan::new(&read(&root, rel)?));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut waiver_entries: Vec<WaiverEntry> = Vec::new();
    let mut unsafe_inventory: Vec<UnsafeEntry> = Vec::new();
    let mut crate_audits: Vec<CrateAudit> = Vec::new();
    let mut files_scanned = 0usize;

    for (c, crate_scans) in crates.iter().zip(&scans) {
        let mut crate_unsafe = 0usize;
        let mut forbids = false;
        for (rel, fs) in c.files.iter().zip(crate_scans) {
            files_scanned += 1;

            let mut out = rules::check_file(rel, fs);
            out.findings.append(&mut surface.findings(rel, fs));

            // Waiver application: a waiver covers findings of its rule
            // on its own line or the line directly below.
            let mut used = vec![false; fs.waivers.len()];
            for f in &mut out.findings {
                for (wi, w) in fs.waivers.iter().enumerate() {
                    if w.rule == f.rule
                        && !w.reason.is_empty()
                        && (f.line == w.line || f.line == w.line + 1)
                    {
                        f.waived = true;
                        used[wi] = true;
                    }
                }
            }

            // Waiver hygiene (R0): malformed, unknown-rule, reason-less
            // or stale waivers are findings in their own right.
            for (wi, w) in fs.waivers.iter().enumerate() {
                let known = rules::rule(&w.rule).is_some() && w.rule != "R0";
                let problem = if !known {
                    Some(format!(
                        "waiver names unknown rule `{}`",
                        if w.rule.is_empty() { "<none>" } else { &w.rule }
                    ))
                } else if w.reason.is_empty() {
                    Some(format!("waiver for {} carries no reason", w.rule))
                } else if !used[wi] {
                    Some(format!(
                        "stale waiver: no {} finding on line {} or {}",
                        w.rule,
                        w.line,
                        w.line + 1
                    ))
                } else {
                    None
                };
                if let Some(message) = problem {
                    let hint = rules::rule("R0").map(|r| r.hint).unwrap_or("");
                    findings.push(Finding {
                        rule: "R0".to_string(),
                        file: rel.clone(),
                        line: w.line,
                        message,
                        hint: hint.to_string(),
                        waived: false,
                    });
                } else {
                    waiver_entries.push(WaiverEntry {
                        rule: w.rule.clone(),
                        file: rel.clone(),
                        line: w.line,
                        reason: w.reason.clone(),
                    });
                }
            }

            for site in &out.unsafe_sites {
                crate_unsafe += 1;
                unsafe_inventory.push(UnsafeEntry {
                    file: rel.clone(),
                    line: site.line,
                    documented: site.documented,
                });
            }
            if *rel == c.lib_rel {
                forbids = out.forbids_unsafe;
            }
            findings.append(&mut out.findings);
        }

        // R4 crate-level: unsafe-free crates must forbid unsafe.
        if crate_unsafe == 0 && !forbids {
            let hint = rules::rule("R4").map(|r| r.hint).unwrap_or("");
            findings.push(Finding {
                rule: "R4".to_string(),
                file: c.lib_rel.clone(),
                line: 1,
                message: format!(
                    "crate `{}` has no unsafe code but does not declare #![forbid(unsafe_code)]",
                    c.name
                ),
                hint: hint.to_string(),
                waived: false,
            });
        }
        crate_audits.push(CrateAudit {
            name: c.name.clone(),
            forbids_unsafe: forbids,
            unsafe_count: crate_unsafe,
        });
    }

    for rel in &manifests {
        let src = read(&root, rel)?;
        findings.append(&mut rules::check_manifest(rel, &src));
    }

    let mut report = Report {
        findings,
        waivers: waiver_entries,
        unsafe_inventory,
        crates: crate_audits,
        files_scanned,
        manifests_scanned: manifests.len(),
    };
    report.canonicalize();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_quoted_value() {
        let toml = "[package]\nname = \"eqimpact-core\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(toml), Some("eqimpact-core".to_string()));
    }

    #[test]
    fn package_name_ignores_other_tables() {
        let toml = "[lib]\nname = \"libname\"\n[package]\nname = \"pkg\"\n";
        assert_eq!(package_name(toml), Some("pkg".to_string()));
    }

    #[test]
    fn analyze_rejects_non_workspace_dir() {
        let err = analyze(Path::new("/definitely/not/a/workspace")).unwrap_err();
        assert!(err.contains("Cargo.toml"));
    }
}
