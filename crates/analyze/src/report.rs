//! Findings aggregation and deterministic rendering.
//!
//! Two renderers over the same `Report`:
//!
//! * `render_text` — aligned, human-first, grouped by rule;
//! * `render_json` — machine-first, byte-identical across runs: the
//!   rule catalog in fixed order, findings sorted by (file, line,
//!   rule), no timestamps, no absolute paths.

use crate::rules::CATALOG;

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`R0` ... `R8`).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What fired, with the offending construct named.
    pub message: String,
    /// Rule-level fix hint.
    pub hint: String,
    /// True when a matching waiver covers this finding.
    pub waived: bool,
}

/// One accepted waiver, echoed into the report.
#[derive(Debug, Clone)]
pub struct WaiverEntry {
    /// Waived rule id.
    pub rule: String,
    /// File containing the waiver comment.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The stated reason.
    pub reason: String,
}

/// One `unsafe` keyword in the workspace (R4 inventory).
#[derive(Debug, Clone)]
pub struct UnsafeEntry {
    /// File containing the `unsafe` keyword.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Whether a `// SAFETY:` comment documents it.
    pub documented: bool,
}

/// Per-crate unsafe audit summary (R4).
#[derive(Debug, Clone)]
pub struct CrateAudit {
    /// Crate (package) name.
    pub name: String,
    /// True when the crate root carries `#![forbid(unsafe_code)]`.
    pub forbids_unsafe: bool,
    /// Number of non-test `unsafe` keywords in the crate.
    pub unsafe_count: usize,
}

/// The full analysis result.
#[derive(Debug)]
pub struct Report {
    /// All findings, waived ones included, sorted (file, line, rule).
    pub findings: Vec<Finding>,
    /// Accepted waivers, sorted (file, line).
    pub waivers: Vec<WaiverEntry>,
    /// Unsafe inventory, sorted (file, line).
    pub unsafe_inventory: Vec<UnsafeEntry>,
    /// Per-crate audit, sorted by crate name.
    pub crates: Vec<CrateAudit>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests scanned.
    pub manifests_scanned: usize,
}

impl Report {
    /// Sorts every section into its canonical order. Called once by
    /// the engine; rendering assumes it has run.
    pub fn canonicalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.waivers
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.unsafe_inventory
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.crates.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Findings that actually gate (not waived).
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Count of gating findings — exit code 1 when nonzero.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    fn rule_counts(&self, id: &str) -> (usize, usize) {
        let total = self.findings.iter().filter(|f| f.rule == id).count();
        let waived = self
            .findings
            .iter()
            .filter(|f| f.rule == id && f.waived)
            .count();
        (total - waived, waived)
    }

    /// Aligned human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("conformance analysis\n");
        out.push_str("====================\n");
        out.push_str(&format!(
            "scanned {} source files, {} manifests\n\n",
            self.files_scanned, self.manifests_scanned
        ));

        out.push_str("rule      name                 active  waived  summary\n");
        for r in &CATALOG {
            let (active, waived) = self.rule_counts(r.id);
            out.push_str(&format!(
                "{:<8}  {:<19}  {:>6}  {:>6}  {}\n",
                r.id, r.name, active, waived, r.summary
            ));
        }

        if self.active_count() > 0 {
            out.push_str("\nfindings\n--------\n");
            for f in self.active() {
                out.push_str(&format!("{} {}:{}\n", f.rule, f.file, f.line));
                out.push_str(&format!("    {}\n", f.message));
                out.push_str(&format!("    hint: {}\n", f.hint));
            }
        }

        if !self.waivers.is_empty() {
            out.push_str("\nwaivers\n-------\n");
            for w in &self.waivers {
                out.push_str(&format!("{} {}:{}  {}\n", w.rule, w.file, w.line, w.reason));
            }
        }

        if !self.unsafe_inventory.is_empty() {
            out.push_str("\nunsafe inventory\n----------------\n");
            for u in &self.unsafe_inventory {
                out.push_str(&format!(
                    "{}:{}  {}\n",
                    u.file,
                    u.line,
                    if u.documented {
                        "documented"
                    } else {
                        "UNDOCUMENTED"
                    }
                ));
            }
        }

        out.push_str(&format!(
            "\nresult: {} finding(s), {} waived, {} waiver(s)\n",
            self.active_count(),
            self.findings.len() - self.active_count(),
            self.waivers.len()
        ));
        out
    }

    /// Deterministic JSON: fixed key order, canonical sorting, no
    /// clocks or absolute paths — byte-identical across runs.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"manifests_scanned\": {},\n",
            self.manifests_scanned
        ));
        out.push_str(&format!(
            "  \"findings_active\": {},\n",
            self.active_count()
        ));

        out.push_str("  \"rules\": [\n");
        for (i, r) in CATALOG.iter().enumerate() {
            let (active, waived) = self.rule_counts(r.id);
            out.push_str(&format!(
                "    {{\"id\": {}, \"name\": {}, \"active\": {}, \"waived\": {}}}{}\n",
                esc(r.id),
                esc(r.name),
                active,
                waived,
                comma(i, CATALOG.len())
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"hint\": {}, \"waived\": {}}}{}\n",
                esc(&f.rule),
                esc(&f.file),
                f.line,
                esc(&f.message),
                esc(&f.hint),
                f.waived,
                comma(i, self.findings.len())
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"waivers\": [\n");
        for (i, w) in self.waivers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}{}\n",
                esc(&w.rule),
                esc(&w.file),
                w.line,
                esc(&w.reason),
                comma(i, self.waivers.len())
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"unsafe_inventory\": [\n");
        for (i, u) in self.unsafe_inventory.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"documented\": {}}}{}\n",
                esc(&u.file),
                u.line,
                u.documented,
                comma(i, self.unsafe_inventory.len())
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"crates\": [\n");
        for (i, c) in self.crates.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"forbids_unsafe\": {}, \"unsafe_count\": {}}}{}\n",
                esc(&c.name),
                c.forbids_unsafe,
                c.unsafe_count,
                comma(i, self.crates.len())
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![
                Finding {
                    rule: "R2".to_string(),
                    file: "crates/trace/src/b.rs".to_string(),
                    line: 9,
                    message: "m2".to_string(),
                    hint: "h2".to_string(),
                    waived: false,
                },
                Finding {
                    rule: "R1".to_string(),
                    file: "crates/core/src/a.rs".to_string(),
                    line: 3,
                    message: "m1".to_string(),
                    hint: "h1".to_string(),
                    waived: true,
                },
            ],
            waivers: vec![WaiverEntry {
                rule: "R1".to_string(),
                file: "crates/core/src/a.rs".to_string(),
                line: 2,
                reason: "because".to_string(),
            }],
            unsafe_inventory: vec![],
            crates: vec![],
            files_scanned: 2,
            manifests_scanned: 1,
        };
        r.canonicalize();
        r
    }

    #[test]
    fn active_count_excludes_waived() {
        let r = sample();
        assert_eq!(r.active_count(), 1);
        assert_eq!(r.findings.len(), 2);
    }

    #[test]
    fn canonical_order_is_file_line_rule() {
        let r = sample();
        assert_eq!(r.findings[0].file, "crates/core/src/a.rs");
        assert_eq!(r.findings[1].file, "crates/trace/src/b.rs");
    }

    #[test]
    fn json_renders_identically_twice() {
        let r = sample();
        assert_eq!(r.render_json(), r.render_json());
        assert!(r.render_json().contains("\"findings_active\": 1"));
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(esc("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
