//! Integration: the certification plane end to end — recorded credit and
//! hiring traces turned into verdict artifacts, with the determinism
//! contract checked the strong way: the full report (JSON and rendered
//! text) is byte-identical across repeated runs and across thread-budget
//! capacities, and every scenario renders the four headline theory
//! checks with a verdict.

use eqimpact::certify::{run_certification, CertifyConfig, CertifyTarget};
use eqimpact::lab::{MemTrace, TraceSource};
use eqimpact::prelude::*;
use eqimpact_credit::sim::{CreditConfig, LenderKind};
use eqimpact_credit::CreditCertify;
use eqimpact_hiring::sim::{HiringConfig, ScreenerKind};
use eqimpact_hiring::HiringCertify;
use eqimpact_trace::{TraceHeader, TraceStepSink};
use std::io::Read;

/// Records `trials` checkpointed credit traces in memory.
fn credit_traces(trials: usize) -> Vec<MemTrace> {
    (0..trials)
        .map(|trial| {
            let config = CreditConfig {
                users: 90,
                steps: 6,
                trials: 1,
                seed: 21 + trial as u64,
                lender: LenderKind::Scorecard,
                ..CreditConfig::default()
            };
            let header = TraceHeader::from_meta(&eqimpact_core::scenario::TraceMeta {
                scenario: "credit".to_string(),
                variant: eqimpact_credit::scenario::TRACE_VARIANT.to_string(),
                trial,
                scale: Scale::Quick,
                seed: config.seed,
                shards: config.shards,
                delay: config.delay,
                policy: config.policy,
            })
            .with_checkpoints();
            let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header writes");
            eqimpact_credit::sim::run_trial_sunk(&config, 0, &mut sink);
            MemTrace::new(
                format!("credit-trial{trial}.eqtrace"),
                sink.finish().expect("trace finishes"),
            )
        })
        .collect()
}

/// Records `trials` checkpointed hiring traces in memory.
fn hiring_traces(trials: usize) -> Vec<MemTrace> {
    (0..trials)
        .map(|trial| {
            let config = HiringConfig {
                applicants: 90,
                rounds: 6,
                trials: 1,
                seed: 31 + trial as u64,
                screener: ScreenerKind::Adaptive,
                ..HiringConfig::default()
            };
            let header = TraceHeader::from_meta(&eqimpact_core::scenario::TraceMeta {
                scenario: "hiring".to_string(),
                variant: eqimpact_hiring::scenario::variant_name(config.screener).to_string(),
                trial,
                scale: Scale::Quick,
                seed: config.seed,
                shards: config.shards,
                delay: config.delay,
                policy: config.policy,
            })
            .with_checkpoints();
            let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header writes");
            eqimpact_hiring::sim::run_trial_sunk(&config, 0, &mut sink);
            MemTrace::new(
                format!("hiring-trial{trial}.eqtrace"),
                sink.finish().expect("trace finishes"),
            )
        })
        .collect()
}

/// The names the acceptance criteria pin: every scenario's certificate
/// must render at least these checks, each with a verdict.
const HEADLINE_CHECKS: [&str; 4] = ["primitivity", "unique-ergodicity", "contraction", "iss"];

fn certify_all(target: &dyn CertifyTarget, traces: &[MemTrace], lanes: usize) -> (String, String) {
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();
    let config = CertifyConfig { seed: 7 };
    let report = run_certification(target, &sources, &config, ThreadBudget::leaked(lanes))
        .expect("certification runs");
    assert_eq!(report.certificates.len(), traces.len());
    (report.to_json().render_pretty(), report.render_text())
}

#[test]
fn credit_certification_is_deterministic_across_runs_and_thread_counts() {
    let traces = credit_traces(3);
    let runs: Vec<(String, String)> = [1, 1, 4]
        .iter()
        .map(|&lanes| certify_all(&CreditCertify, &traces, lanes))
        .collect();
    assert_eq!(runs[0], runs[1], "same budget, different report");
    assert_eq!(runs[0], runs[2], "1-lane vs 4-lane reports differ");
}

#[test]
fn hiring_certification_is_deterministic_across_runs_and_thread_counts() {
    let traces = hiring_traces(3);
    let runs: Vec<(String, String)> = [1, 1, 4]
        .iter()
        .map(|&lanes| certify_all(&HiringCertify, &traces, lanes))
        .collect();
    assert_eq!(runs[0], runs[1], "same budget, different report");
    assert_eq!(runs[0], runs[2], "1-lane vs 4-lane reports differ");
}

#[test]
fn both_scenarios_render_the_headline_checks_with_verdicts() {
    for (target, traces) in [
        (&CreditCertify as &dyn CertifyTarget, credit_traces(2)),
        (&HiringCertify as &dyn CertifyTarget, hiring_traces(2)),
    ] {
        let (json, text) = certify_all(target, &traces, 2);
        for check in HEADLINE_CHECKS {
            assert!(
                text.contains(check),
                "{}: `{check}` missing from rendered text",
                target.name()
            );
            assert!(
                json.contains(&format!("\"{check}\"")),
                "{}: `{check}` missing from JSON",
                target.name()
            );
        }
        assert!(
            ["certified", "refuted", "inconclusive"]
                .iter()
                .any(|v| json.contains(v)),
            "{}: no verdicts in JSON",
            target.name()
        );
    }
}

/// A trace source whose `open` panics.
struct PanickingTrace;

impl TraceSource for PanickingTrace {
    fn label(&self) -> &str {
        "panicking.eqtrace"
    }

    fn open(&self) -> std::io::Result<Box<dyn Read + '_>> {
        panic!("open exploded")
    }
}

/// A panic inside a cell is that trace's error, named by its label; the
/// other trace still certifies.
#[test]
fn a_panicking_trace_source_is_a_per_trace_error() {
    let traces = hiring_traces(1);
    let sources: Vec<&dyn TraceSource> = vec![&traces[0], &PanickingTrace];
    let config = CertifyConfig { seed: 7 };
    let report = run_certification(&HiringCertify, &sources, &config, ThreadBudget::leaked(2))
        .expect("certification runs");
    assert_eq!(report.certificates.len(), 1);
    assert_eq!(report.certificates[0].trace, "hiring-trial0.eqtrace");
    assert_eq!(
        report.errors,
        vec!["panicking.eqtrace: certification panicked: open exploded".to_string()]
    );
}
