//! Traced-run fidelity: the timing wrappers run the same program.
//!
//! * Wrapped blocks reproduce the library's `run_trial` records byte for
//!   byte, for credit and hiring, on one shard and on every lane, and a
//!   timed trace sink writes the same trace bytes.
//! * The exact per-layer counts repeat across two traced runs.
//! * The per-layer list the binary reports is the one `BENCHMARK.json`
//!   declares.

use eqimpact_core::recorder::RecordPolicy;
use eqimpact_core::scenario::{Scale, TraceMeta};
use eqimpact_credit::{CreditConfig, LenderKind};
use eqimpact_hiring::{HiringConfig, ScreenerKind};
use eqimpact_loopbench::probe::{read, trace_header, Probe, TimedSink};
use eqimpact_loopbench::workloads::{credit_trial, hiring_trial, Workload, EXACT, PER_LAYER};
use eqimpact_trace::TraceStepSink;
use std::sync::Arc;

/// Shard settings under test: the sequential runner, and auto (every
/// lane of the thread budget).
const SHARDS: [usize; 2] = [1, 0];

#[test]
fn wrapped_credit_blocks_reproduce_run_trial() {
    for lender in [LenderKind::Scorecard, LenderKind::IncomeMultiple] {
        for shards in SHARDS {
            let config = CreditConfig {
                users: 400,
                steps: 12,
                trials: 2,
                seed: 2002,
                lender,
                delay: 1,
                shards,
                policy: RecordPolicy::Full,
            };
            for trial in 0..config.trials {
                let probe = Arc::new(Probe::default());
                let wrapped = credit_trial(&config, trial, &probe, &mut ());
                let plain = eqimpact_credit::run_trial(&config, trial);
                assert_eq!(wrapped.record, plain.record, "{lender:?} x {shards} shards");
                assert_eq!(wrapped.races, plain.races);
                assert_eq!(
                    wrapped.scorecard.map(|c| c.base_points),
                    plain.scorecard.map(|c| c.base_points)
                );
                assert_eq!(read(&probe.steps), config.steps as u64);
                assert_eq!(read(&probe.rows), (config.users * config.steps) as u64);
            }
        }
    }
}

#[test]
fn wrapped_hiring_blocks_reproduce_run_trial_and_its_trace() {
    for screener in [ScreenerKind::Adaptive, ScreenerKind::Credential] {
        for shards in SHARDS {
            let config = HiringConfig {
                applicants: 300,
                rounds: 12,
                trials: 1,
                seed: 1990,
                screener,
                delay: 1,
                shards,
                policy: RecordPolicy::Full,
            };
            let meta = TraceMeta {
                scenario: "hiring".to_string(),
                variant: format!("{screener:?}"),
                trial: 0,
                scale: Scale::Quick,
                seed: config.seed,
                shards,
                delay: config.delay,
                policy: config.policy,
            };
            let header = trace_header(&meta);

            let probe = Arc::new(Probe::default());
            let sink = TraceStepSink::new(Vec::new(), &header).expect("header encodes");
            let mut timed = TimedSink::new(sink, Arc::clone(&probe));
            let wrapped = hiring_trial(&config, 0, &probe, &mut timed);
            let wrapped_bytes = timed.into_inner().finish().expect("trace finishes");

            let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header encodes");
            let plain = eqimpact_hiring::sim::run_trial_sunk(&config, 0, &mut sink);
            let plain_bytes = sink.finish().expect("trace finishes");

            assert_eq!(
                wrapped.record, plain.record,
                "{screener:?} x {shards} shards"
            );
            assert_eq!(wrapped.model, plain.model);
            assert_eq!(wrapped_bytes, plain_bytes, "{screener:?} x {shards} shards");
        }
    }
}

#[test]
fn exact_counts_repeat_across_traced_runs() {
    for workload in Workload::ALL {
        let seed = workload.default_seed();
        let first = workload.iteration(seed, true);
        let second = workload.iteration(seed, true);
        assert!(
            first.checks.failures.is_empty(),
            "{:?}",
            first.checks.failures
        );
        assert_eq!(first.digest, second.digest, "{}", workload.name());
        let (a, b) = (
            first.layers.expect("traced"),
            second.layers.expect("traced"),
        );
        for key in EXACT {
            assert_eq!(a.get(key), b.get(key), "{} {key}", workload.name());
        }
        // Every workload runs loops, so its core counts are never zero.
        assert!(a["core.rows"] > 0.0 && a["core.steps"] > 0.0);
        // The traced run's outputs equal the untraced run's.
        let untraced = workload.iteration(seed, false);
        assert_eq!(untraced.digest, first.digest, "{}", workload.name());
    }
}

#[test]
fn per_layer_list_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = eqimpact_stats::json::parse(&text).expect("BENCHMARK.json parses");
    let declared: Vec<(String, String, String)> = doc
        .get("per_layer")
        .and_then(|v| v.as_arr())
        .expect("per_layer array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect();
    let reported: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(declared, reported);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workloads array")
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
