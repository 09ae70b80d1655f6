//! `eqimpact-analyze` — the workspace's conformance analyzer.
//!
//! A dependency-free, source-level static-analysis pass that enforces
//! the contracts the determinism guarantee rests on: records, EQTRACE1
//! bytes, certificates, and telemetry counters are bit-identical
//! across runs and thread counts *only if* nothing in the deterministic
//! planes reads a wall clock, iterates a hash table, or spawns its own
//! threads — and the CLI never panics where a named error belongs.
//!
//! The analyzer lexes every workspace source file with its own minimal
//! Rust lexer ([`lexer`]) — comment-, string-, and attribute-aware, so
//! `Instant::now()` in a doc comment or a string literal never fires —
//! and runs the fixed rule catalog ([`rules::CATALOG`]):
//!
//! | id | name | contract |
//! |----|------|----------|
//! | R1 | clock-hygiene | `Instant::now`/`SystemTime` only in telemetry's wall-clock modules |
//! | R2 | order-hygiene | no `HashMap`/`HashSet` in the deterministic planes |
//! | R3 | thread-hygiene | thread spawns / parallelism probes only in `core::pool` |
//! | R4 | unsafe-audit | `// SAFETY:` on every `unsafe`; unsafe-free crates forbid unsafe |
//! | R5 | panic-contract | no `unwrap`/`expect`/`panic!` in CLI/artifact-I/O modules |
//! | R6 | float-fold | no reassociating float folds outside `linalg::kernels` |
//! | R7 | dependency-hygiene | Cargo manifests carry path/workspace deps only |
//! | R8 | dead-surface | every library `pub` item is named by non-test code |
//!
//! R8 is the one cross-file rule: it counts every identifier outside test
//! items and `pub use` re-exports in the crates, `examples/`,
//! `crates/*/benches/` and `loopbench/src/` (see [`rules::Surface`]), so
//! all of them are read before any finding is reported.
//!
//! Known-good exceptions are waived in-source with
//! `// analyze::allow(R<n>): reason`; waivers are counted, listed in
//! the report, and themselves audited (rule R0): a waiver without a
//! reason, naming an unknown rule, or matching no finding is a finding.
//!
//! Reports render as aligned text and as deterministic JSON —
//! fixed catalog order, findings sorted by (file, line, rule), no
//! timestamps — byte-identical across runs. The `analyze` binary
//! gates CI with the workspace exit-code contract: 0 clean, 1
//! findings, 2 bad arguments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use report::{Finding, Report};
pub use workspace::analyze;
