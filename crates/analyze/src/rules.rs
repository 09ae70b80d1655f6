//! The rule catalog (R1–R8) and per-file token matchers.
//!
//! Each rule has a stable id, a human name, and a fix hint; the
//! catalog order is fixed so reports are byte-identical across runs.
//! File scoping is by workspace-relative path (forward slashes): the
//! deterministic planes, the wall-clock modules, and the sanctioned
//! kernel/pool homes are named here, in one place, as constants.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::scan::FileScan;

/// One catalog entry.
pub struct Rule {
    /// Stable id (`R1` ... `R8`, plus `R0` for waiver hygiene).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description of the contract.
    pub summary: &'static str,
    /// Generic fix hint rendered alongside findings.
    pub hint: &'static str,
}

/// Fixed-order rule catalog. `R0` covers the waiver mechanism itself:
/// malformed, reason-less, unknown-rule, or stale waivers are findings
/// and cannot themselves be waived.
pub const CATALOG: [Rule; 9] = [
    Rule {
        id: "R0",
        name: "waiver-hygiene",
        summary: "waivers must name a known rule, carry a reason, and match a finding",
        hint: "use `// analyze::allow(R<n>): <reason>` on or directly above the waived line",
    },
    Rule {
        id: "R1",
        name: "clock-hygiene",
        summary: "Instant::now()/SystemTime only inside telemetry's wall-clock modules",
        hint: "route wall-clock reads through eqimpact-telemetry (progress/instruments)",
    },
    Rule {
        id: "R2",
        name: "order-hygiene",
        summary: "no HashMap/HashSet in the deterministic planes (records, trace, certify, stats::json)",
        hint: "use BTreeMap/BTreeSet or index vectors so iteration order is reproducible",
    },
    Rule {
        id: "R3",
        name: "thread-hygiene",
        summary: "thread spawns and parallelism probes only in core::pool",
        hint: "go through core::pool (run_indexed or run_striped) instead of spawning directly",
    },
    Rule {
        id: "R4",
        name: "unsafe-audit",
        summary: "every unsafe block carries a // SAFETY: comment; unsafe-free crates forbid unsafe",
        hint: "document the invariant in a // SAFETY: comment, or add #![forbid(unsafe_code)]",
    },
    Rule {
        id: "R5",
        name: "panic-contract",
        summary: "no unwrap/expect/panic! in CLI and artifact-I/O modules outside #[cfg(test)]",
        hint: "thread the failure through the Result-based CLI error path",
    },
    Rule {
        id: "R6",
        name: "float-fold",
        summary: "no reassociating float folds in linalg/ml hot paths outside the documented kernels",
        hint: "route the reduction through linalg::kernels (dot_seq/sum_seq) or a documented sequential loop",
    },
    Rule {
        id: "R7",
        name: "dependency-hygiene",
        summary: "Cargo.toml dependencies are path/workspace entries only — no registry or git deps",
        hint: "vendor an offline shim under shims/ and depend on it by path",
    },
    Rule {
        id: "R8",
        name: "dead-surface",
        summary: "every pub item of a library crate is named by non-test code outside its declaration",
        hint: "delete it, move it under #[cfg(test)], or waive it naming the test that needs it",
    },
];

/// Looks up a catalog entry by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    CATALOG.iter().find(|r| r.id == id)
}

// ---------------------------------------------------------------------------
// Scoping: which files each rule applies to.
// ---------------------------------------------------------------------------

/// Telemetry's wall-clock modules — the only files allowed to read the
/// host clock (R1). `core::pool` holds a single waived read for its
/// queue-latency histogram.
pub const WALL_CLOCK_MODULES: [&str; 2] = [
    "crates/telemetry/src/instruments.rs",
    "crates/telemetry/src/progress.rs",
];

/// The deterministic planes (R2): whole crates whose iteration order
/// feeds records, EQTRACE1 bytes, certificates, or telemetry counters,
/// plus the JSON emitter.
pub const DETERMINISTIC_PLANES: [&str; 7] = [
    "crates/core/src/",
    "crates/trace/src/",
    "crates/certify/src/",
    "crates/lab/src/",
    "crates/credit/src/",
    "crates/hiring/src/",
    "crates/telemetry/src/",
];

/// The JSON emitter file — deterministic plane membership for a single
/// file of `eqimpact-stats`.
pub const DETERMINISTIC_FILES: [&str; 1] = ["crates/stats/src/json.rs"];

/// The sanctioned thread homes (R3): the fan-outs of `core::pool` and the
/// progress heartbeat daemon (telemetry cannot depend on core, so its
/// one background thread lives there by design).
pub const THREAD_HOMES: [&str; 2] = [
    "crates/core/src/pool.rs",
    "crates/telemetry/src/progress.rs",
];

/// CLI / artifact-I/O modules under the panic contract (R5). The
/// analyzer's own sources are held to the same standard.
pub const PANIC_CONTRACT_FILES: [&str; 3] = [
    "crates/bench/src/bin/experiments.rs",
    "crates/bench/src/experiments.rs",
    "crates/core/src/scenario.rs",
];

/// Prefixes under the panic contract in full.
pub const PANIC_CONTRACT_PREFIXES: [&str; 1] = ["crates/analyze/src/"];

/// The linalg/ml hot-path files (R6). `crates/linalg/src/kernels.rs`
/// is the documented home for sequential reductions and is therefore
/// *not* scanned: `dot_seq`/`sum_seq` live there.
pub const FLOAT_FOLD_FILES: [&str; 4] = [
    "crates/ml/src/dataset.rs",
    "crates/ml/src/grouped.rs",
    "crates/ml/src/logistic.rs",
    "crates/ml/src/scorecard.rs",
];

fn r1_applies(path: &str) -> bool {
    !WALL_CLOCK_MODULES.contains(&path)
}

fn r2_applies(path: &str) -> bool {
    DETERMINISTIC_PLANES.iter().any(|p| path.starts_with(p)) || DETERMINISTIC_FILES.contains(&path)
}

fn r3_applies(path: &str) -> bool {
    !THREAD_HOMES.contains(&path)
}

fn r5_applies(path: &str) -> bool {
    PANIC_CONTRACT_FILES.contains(&path)
        || PANIC_CONTRACT_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn r6_applies(path: &str) -> bool {
    FLOAT_FOLD_FILES.contains(&path)
}

// ---------------------------------------------------------------------------
// Per-file matchers.
// ---------------------------------------------------------------------------

/// One `unsafe` keyword occurrence, for the R4 inventory.
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// True when a `// SAFETY:` comment appears in the preceding lines.
    pub documented: bool,
}

/// Everything the token-level pass extracts from one file.
pub struct FileFindings {
    /// R1/R2/R3/R5/R6 findings plus undocumented-unsafe R4 findings.
    pub findings: Vec<Finding>,
    /// Every non-test `unsafe` keyword, documented or not.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// True when the file carries `#![forbid(unsafe_code)]`.
    pub forbids_unsafe: bool,
}

/// Runs the token-level rules R1–R6 over one lexed file.
pub fn check_file(path: &str, fs: &FileScan) -> FileFindings {
    let mut findings = Vec::new();
    let mut unsafe_sites = Vec::new();

    let push = |findings: &mut Vec<Finding>, id: &'static str, line: u32, message: String| {
        let hint = rule(id).map(|r| r.hint).unwrap_or("");
        findings.push(Finding {
            rule: id.to_string(),
            file: path.to_string(),
            line,
            message,
            hint: hint.to_string(),
            waived: false,
        });
    };

    for p in 0..fs.code.len() {
        if fs.code_in_test(p) {
            continue;
        }
        let Some(t) = fs.code_tok(p) else { continue };

        // R1 clock-hygiene: Instant::now / SystemTime.
        if r1_applies(path) {
            if t.is_ident("Instant") && seq(fs, p + 1, &["::", "now"]) {
                push(
                    &mut findings,
                    "R1",
                    t.line,
                    "wall-clock read `Instant::now()` outside telemetry's wall-clock modules"
                        .to_string(),
                );
            }
            if t.is_ident("SystemTime") {
                push(
                    &mut findings,
                    "R1",
                    t.line,
                    "`SystemTime` used outside telemetry's wall-clock modules".to_string(),
                );
            }
        }

        // R2 order-hygiene: HashMap / HashSet in deterministic planes.
        if r2_applies(path) && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            push(
                &mut findings,
                "R2",
                t.line,
                format!(
                    "hash-ordered collection `{}` in a deterministic plane",
                    t.text
                ),
            );
        }

        // R3 thread-hygiene: thread::{spawn,scope,Builder}, parallelism probe.
        if r3_applies(path) {
            if t.is_ident("thread") {
                for m in ["spawn", "scope", "Builder"] {
                    if seq(fs, p + 1, &["::", m]) {
                        push(
                            &mut findings,
                            "R3",
                            t.line,
                            format!("`thread::{m}` outside core::pool"),
                        );
                    }
                }
            }
            if t.is_ident("available_parallelism") {
                push(
                    &mut findings,
                    "R3",
                    t.line,
                    "`available_parallelism()` probed outside core::pool".to_string(),
                );
            }
        }

        // R4 unsafe-audit: every unsafe keyword, with SAFETY lookback.
        if t.is_ident("unsafe") {
            let documented = has_safety_comment(fs, fs.code[p], t.line);
            if !documented {
                push(
                    &mut findings,
                    "R4",
                    t.line,
                    "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                );
            }
            unsafe_sites.push(UnsafeSite {
                line: t.line,
                documented,
            });
        }

        // R5 panic-contract: .unwrap()/.expect(), panic!-family macros.
        if r5_applies(path) {
            if t.is_punct(".") {
                if let Some(m) = fs.code_tok(p + 1) {
                    if m.is_ident("unwrap") || m.is_ident("expect") {
                        push(
                            &mut findings,
                            "R5",
                            m.line,
                            format!("`.{}()` in a CLI/artifact-I/O module", m.text),
                        );
                    }
                }
            }
            for mac in ["panic", "unreachable", "todo", "unimplemented"] {
                if t.is_ident(mac) {
                    if let Some(bang) = fs.code_tok(p + 1) {
                        if bang.is_punct("!") {
                            push(
                                &mut findings,
                                "R5",
                                t.line,
                                format!("`{mac}!` in a CLI/artifact-I/O module"),
                            );
                        }
                    }
                }
            }
        }

        // R6 float-fold: .sum()/.product()/.fold() in hot paths.
        if r6_applies(path) && t.is_punct(".") {
            if let Some(m) = fs.code_tok(p + 1) {
                if (m.is_ident("sum") || m.is_ident("product") || m.is_ident("fold"))
                    && fs
                        .code_tok(p + 2)
                        .map(|nx| nx.is_punct("(") || nx.is_punct("::"))
                        .unwrap_or(false)
                {
                    push(
                        &mut findings,
                        "R6",
                        m.line,
                        format!(
                            "iterator `.{}()` reduction in a hot path outside linalg::kernels",
                            m.text
                        ),
                    );
                }
            }
        }
    }

    FileFindings {
        findings,
        unsafe_sites,
        forbids_unsafe: has_forbid_unsafe(fs),
    }
}

/// Matches a sequence of expected tokens (`"::"` puncts or idents)
/// starting at code-position `p`.
fn seq(fs: &FileScan, p: usize, expect: &[&str]) -> bool {
    for (k, &e) in expect.iter().enumerate() {
        let Some(t) = fs.code_tok(p + k) else {
            return false;
        };
        let ok = if e == "::" || e.chars().all(|c| !c.is_alphanumeric() && c != '_') {
            t.is_punct(e)
        } else {
            t.is_ident(e)
        };
        if !ok {
            return false;
        }
    }
    true
}

/// True when a comment containing `SAFETY:` appears shortly before the
/// token at absolute index `k` (within the 8 preceding lines). The
/// window tolerates the comment sitting above the enclosing `let`
/// rather than flush against the `unsafe` keyword itself.
fn has_safety_comment(fs: &FileScan, k: usize, unsafe_line: u32) -> bool {
    let low = unsafe_line.saturating_sub(8);
    fs.toks[..k]
        .iter()
        .rev()
        .take_while(|t| t.line >= low)
        .any(|t| t.is_comment() && t.text.contains("SAFETY:"))
}

/// Detects the inner attribute `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(fs: &FileScan) -> bool {
    (0..fs.code.len()).any(|p| {
        fs.code_tok(p).map(|t| t.is_punct("#")).unwrap_or(false)
            && seq(
                fs,
                p + 1,
                &["!", "[", "forbid", "(", "unsafe_code", ")", "]"],
            )
    })
}

// ---------------------------------------------------------------------------
// R7: manifest scan.
// ---------------------------------------------------------------------------

/// Line-scans one `Cargo.toml` for non-path dependencies (R7).
///
/// The workspace's manifests keep one dependency per line, either
/// `name.workspace = true` or `name = { path = "..." }`; anything in a
/// dependency table that names neither `path` nor `workspace = true`
/// (registry versions, `git = ...`) is a finding.
pub fn check_manifest(path: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_table = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = (idx + 1) as u32;
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            in_dep_table = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || section == "workspace.dependencies"
                || section.ends_with(".dependencies");
            continue;
        }
        if !in_dep_table || !line.contains('=') {
            continue;
        }
        let ok = line.contains("path") || line.replace(' ', "").contains("workspace=true");
        if !ok {
            let hint = rule("R7").map(|r| r.hint).unwrap_or("");
            let dep = line.split('=').next().unwrap_or("").trim();
            findings.push(Finding {
                rule: "R7".to_string(),
                file: path.to_string(),
                line: lineno,
                message: format!("dependency `{dep}` is not a path/workspace entry"),
                hint: hint.to_string(),
                waived: false,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// R8: dead surface.
// ---------------------------------------------------------------------------

/// Keywords that introduce a `pub` item R8 tracks.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Qualifiers that may stand between `pub` and the item keyword.
const ITEM_QUALIFIERS: [&str; 3] = ["const", "unsafe", "async"];

/// True for library source that declares R8 surface: the crates'
/// `src/` trees and the facade's `src/`, binaries excluded.
fn r8_declares(path: &str) -> bool {
    ((path.starts_with("crates/") && path.contains("/src/")) || path.starts_with("src/"))
        && !path.contains("src/bin/")
}

/// Workspace-wide name counts for R8 (dead-surface).
///
/// A *declaration* is a non-test `pub fn|struct|enum|trait|type|const|static`
/// (optionally qualified `const`, `unsafe` or `async`) in a library
/// source file; `pub(crate)`, `pub mod`, `pub use`, fields and variants
/// are not. A *use* is any identifier outside `#[test]`/`#[cfg(test)]`
/// items and outside `pub use` items, in any file added — the crates'
/// sources (binaries included), the facade, `examples/`,
/// `crates/*/benches/` and `loopbench/src/`. Integration tests and
/// shims are never added, so they name nothing.
///
/// A type's own item-level `impl` blocks do not name it either: inside
/// `impl Foo { .. }` or `impl Trait for Foo { .. }`, header and body,
/// `Foo` is no use, and an `impl … Trait for Type` header is no use of
/// `Trait`. `impl Trait` in argument or return position is no impl
/// block, so bounds, imports and `Foo::new()` outside `Foo`'s own
/// impls still count.
///
/// A name whose use count is no larger than its declaration count is
/// named by nothing but its own declarations. Matching is by name
/// alone, so the rule is conservative. Two kinds of dead item escape
/// it: a method or function that shares its name with another item
/// (every `new`, `create`, `header`), and trait methods, which are not
/// `pub` declarations.
#[derive(Default)]
pub struct Surface {
    uses: BTreeMap<String, usize>,
    decls: BTreeMap<String, usize>,
}

impl Surface {
    /// Counts one file's uses and, for library source, its declarations.
    pub fn add(&mut self, path: &str, fs: &FileScan) {
        for (name, _) in pub_decls(path, fs) {
            *self.decls.entry(name).or_default() += 1;
        }
        // Names the enclosing impl blocks repeat, each with the code
        // position where it counts again.
        let mut own: Vec<(String, usize)> = Vec::new();
        let mut p = 0;
        while let Some(t) = fs.code_tok(p) {
            own.retain(|&(_, end)| p < end);
            if fs.code_in_test(p) {
                // Test code names nothing.
            } else if t.is_ident("pub") && next_is(fs, p, "use") {
                // Neither does a re-export: skip it through its `;`.
                while fs.code_tok(p).is_some_and(|t| !t.is_punct(";")) {
                    p += 1;
                }
            } else if t.is_ident("impl") && opens_impl_block(fs, p) {
                own.extend(impl_names(fs, p));
            } else if t.kind == TokKind::Ident && !own.iter().any(|(name, _)| *name == t.text) {
                *self.uses.entry(t.text.clone()).or_default() += 1;
            }
            p += 1;
        }
    }

    /// The R8 findings of one file. Final only once every file of the
    /// workspace has been added.
    pub fn findings(&self, path: &str, fs: &FileScan) -> Vec<Finding> {
        let hint = rule("R8").map(|r| r.hint).unwrap_or("");
        pub_decls(path, fs)
            .into_iter()
            .filter(|(name, _)| self.uses.get(name) <= self.decls.get(name))
            .map(|(name, line)| Finding {
                rule: "R8".to_string(),
                file: path.to_string(),
                line,
                message: format!("`pub` item `{name}` is named by no non-test code"),
                hint: hint.to_string(),
                waived: false,
            })
            .collect()
    }
}

/// True when the code token after position `p` is the identifier `s`.
fn next_is(fs: &FileScan, p: usize, s: &str) -> bool {
    fs.code_tok(p + 1).is_some_and(|t| t.is_ident(s))
}

/// True when the `impl` at code position `p` starts an item, an impl
/// block, rather than an `impl Trait` type in argument or return
/// position: it opens the file or follows the end of an item, a block's
/// `{`, an attribute's `]`, or `unsafe`.
fn opens_impl_block(fs: &FileScan, p: usize) -> bool {
    p == 0
        || [";", "}", "{", "]", "unsafe"]
            .iter()
            .any(|s| seq(fs, p - 1, &[s]))
}

/// The names the impl block whose `impl` is at code position `p`
/// repeats, each with the code position it stops applying at: the
/// trait of an `impl … Trait for Type` header up to the body's `{`, and
/// the self type through the block's closing `}`. A self type that is
/// no path (`[T; N]`, a tuple) has no name.
fn impl_names(fs: &FileScan, p: usize) -> Vec<(String, usize)> {
    let mut q = p + 1;
    if seq(fs, q, &["<"]) {
        q = skip(fs, q);
    }
    let start = q;
    // The header runs to the body's `{`; the trait ends at a top-level
    // `for` that comes before any `where`.
    let (mut split, mut where_at) = (None, None);
    while let Some(t) = fs.code_tok(q).filter(|t| !t.is_punct("{")) {
        if t.is_ident("for") && where_at.is_none() {
            split.get_or_insert(q);
        } else if t.is_ident("where") {
            where_at.get_or_insert(q);
        }
        q = skip(fs, q);
    }
    let end = skip(fs, q);
    let mut out = Vec::new();
    if let Some(split) = split {
        out.extend(path_name(fs, start, split).map(|n| (n, q)));
    }
    let self_from = split.map_or(start, |s| s + 1);
    out.extend(path_name(fs, self_from, where_at.unwrap_or(q)).map(|n| (n, end)));
    out
}

/// The code position past the token at `p` and, when it opens a
/// bracket (`(`, `[`, `{` or a generic `<`), past the bracket's
/// balanced contents, counting only its own kind; the end of the file
/// when it never closes. The `>` of an `->` closes nothing.
fn skip(fs: &FileScan, p: usize) -> usize {
    let Some(open) = fs.code_tok(p).filter(|t| t.kind == TokKind::Punct) else {
        return p + 1;
    };
    let close = match open.text.as_str() {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        "<" => ">",
        _ => return p + 1,
    };
    let mut depth = 0usize;
    let mut q = p;
    while let Some(t) = fs.code_tok(q) {
        if t.is_punct(&open.text) {
            depth += 1;
        } else if t.is_punct(close) && !(close == ">" && seq(fs, q - 1, &["-"])) {
            depth -= 1;
            if depth == 0 {
                return q + 1;
            }
        }
        q += 1;
    }
    q
}

/// The last segment of the first path in code positions `from..to`,
/// outside brackets: `Foo` of `&'a mut crate::m::Foo<T>`.
fn path_name(fs: &FileScan, from: usize, to: usize) -> Option<String> {
    let mut q = from;
    while q < to {
        let t = fs.code_tok(q)?;
        if t.kind == TokKind::Ident && !["mut", "dyn", "crate", "self", "super"].contains(&&*t.text)
        {
            let mut name = t;
            while let Some(next) = fs
                .code_tok(q + 2)
                .filter(|n| q + 2 < to && n.kind == TokKind::Ident && seq(fs, q + 1, &["::"]))
            {
                name = next;
                q += 2;
            }
            return Some(name.text.clone());
        }
        q = skip(fs, q);
    }
    None
}

/// The non-test `pub` item declarations of one file, as (name, line of
/// `pub`); empty outside R8's declaration scope.
fn pub_decls(path: &str, fs: &FileScan) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    if !r8_declares(path) {
        return out;
    }
    let is_any = |p: usize, set: &[&str]| {
        fs.code_tok(p)
            .is_some_and(|t| set.iter().any(|k| t.is_ident(k)))
    };
    for p in 0..fs.code.len() {
        let Some(t) = fs.code_tok(p) else { continue };
        if fs.code_in_test(p) || !t.is_ident("pub") {
            continue;
        }
        let mut q = p + 1;
        while is_any(q, &ITEM_QUALIFIERS)
            && (is_any(q + 1, &ITEM_KEYWORDS) || is_any(q + 1, &ITEM_QUALIFIERS))
        {
            q += 1;
        }
        if !is_any(q, &ITEM_KEYWORDS) {
            continue;
        }
        if next_is(fs, q, "mut") {
            q += 1;
        }
        if let Some(name) = fs.code_tok(q + 1).filter(|n| n.kind == TokKind::Ident) {
            out.push((name.text.clone(), t.line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> FileFindings {
        check_file(path, &FileScan::new(src))
    }

    #[test]
    fn seq_matcher_requires_exact_run() {
        let fs = FileScan::new("Instant :: now ()");
        assert!(seq(&fs, 1, &["::", "now"]));
        assert!(!seq(&fs, 1, &["::", "then"]));
    }

    #[test]
    fn r1_ignores_comments_and_strings() {
        let src = "// Instant::now() is forbidden\nlet s = \"SystemTime\";\n";
        let out = scan("crates/core/src/runner.rs", src);
        assert!(out.findings.is_empty());
    }

    #[test]
    fn forbid_unsafe_attr_detected() {
        let fs = FileScan::new("#![forbid(unsafe_code)]\nfn main() {}\n");
        assert!(has_forbid_unsafe(&fs));
        let fs = FileScan::new("#![warn(missing_docs)]\n");
        assert!(!has_forbid_unsafe(&fs));
    }

    #[test]
    fn manifest_scan_flags_registry_dep() {
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\nserde = \"1\"\nlocal = { path = \"../local\" }\ncore.workspace = true\n";
        let f = check_manifest("Cargo.toml", toml);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R7");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("serde"));
    }

    #[test]
    fn pub_decls_take_items_and_skip_fields_modules_and_reexports() {
        let src = "pub const fn a() {}\npub unsafe fn b() {}\npub static mut C: u8 = 0;\n\
                   pub const D: u8 = 0;\npub struct E { pub field: u8 }\npub(crate) fn f() {}\n\
                   pub mod g;\npub use g::h;\n#[cfg(test)]\npub fn i() {}\n";
        let names: Vec<String> = pub_decls("crates/x/src/lib.rs", &FileScan::new(src))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["a", "b", "C", "D", "E"]);
        assert!(pub_decls("crates/x/src/bin/main.rs", &FileScan::new(src)).is_empty());
        assert!(pub_decls("examples/demo.rs", &FileScan::new(src)).is_empty());
    }

    #[test]
    fn reexports_and_tests_are_not_uses() {
        let lib = "pub fn used() {}\npub fn reexported() {}\npub fn tested() {}\n";
        let caller =
            "pub use lib::reexported;\nfn main() { used() }\n#[test]\nfn t() { tested() }\n";
        let mut surface = Surface::default();
        surface.add("crates/x/src/lib.rs", &FileScan::new(lib));
        surface.add("examples/demo.rs", &FileScan::new(caller));
        let dead: Vec<u32> = surface
            .findings("crates/x/src/lib.rs", &FileScan::new(lib))
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(dead, [2, 3]);
    }

    #[test]
    fn own_impl_blocks_are_not_uses() {
        let lib = "pub struct Own;\n\
                   impl<T: Fn() -> u8> Own { pub fn make() -> Own { Own } }\n\
                   unsafe impl Send for crate::m::Own {}\n\
                   pub trait Shown {}\n\
                   impl<T> Shown for [T; 2] where T: Copy {}\n\
                   pub struct Later;\n\
                   impl Later { fn f(a: u8) -> bool { a < 3 } }\n\
                   pub fn later() -> Later { Later }\n\
                   pub struct Ret;\n\
                   pub fn ret(f: impl Fn() -> u8) -> Ret { f().into() }\n\
                   pub trait Drawn {}\n\
                   pub fn draw(d: impl Drawn) -> impl Drawn { d }\n";
        let caller = "fn main() { make(); later(); ret(|| 1); draw(()); }\n";
        let mut surface = Surface::default();
        surface.add("crates/x/src/lib.rs", &FileScan::new(lib));
        surface.add("examples/demo.rs", &FileScan::new(caller));
        let dead: Vec<u32> = surface
            .findings("crates/x/src/lib.rs", &FileScan::new(lib))
            .iter()
            .map(|f| f.line)
            .collect();
        // `Own` and `Shown`; `Later` counts again after its impl block, and
        // `impl Fn` and `impl Drawn` in argument or return position open
        // no impl block.
        assert_eq!(dead, [1, 4]);
    }
}
