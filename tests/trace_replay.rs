//! The tentpole determinism property of the trace subsystem: a trace
//! recorded from a live run — **under any shard count** — replays
//! byte-identically, for both closed-loop workloads.
//!
//! Two independent reproductions are checked against each recorded
//! run:
//!
//! 1. the record the runner returned while recording (the sink must not
//!    perturb the loop);
//! 2. the verified `ReplayRunner` reconstruction (fresh AI + filter
//!    re-driven from the trace).
//!
//! Equality is bit-level: the serialized JSON forms are compared too, so
//! NaN-safe byte identity is what is asserted, not mere `PartialEq`.

use eqimpact::core::recorder::{LoopRecord, RecordPolicy};
use eqimpact::core::scenario::Scale;
use eqimpact::credit::sim as credit_sim;
use eqimpact::credit::CreditTracer;
use eqimpact::hiring::sim as hiring_sim;
use eqimpact::hiring::HiringTracer;
use eqimpact::trace::scenario::TraceReplayer;
use eqimpact::trace::{TraceHeader, TraceReader, TraceStepSink, FORMAT_VERSION};
use proptest::prelude::*;

/// The shard counts the acceptance criterion names.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn credit_header(config: &credit_sim::CreditConfig, trial: usize) -> TraceHeader {
    TraceHeader {
        version: FORMAT_VERSION,
        scenario: "credit".to_string(),
        variant: "scorecard".to_string(),
        trial,
        scale: Scale::Quick,
        seed: config.seed,
        shards: config.shards,
        delay: config.delay,
        policy: config.policy,
        checkpoints: false,
    }
}

fn hiring_header(config: &hiring_sim::HiringConfig, trial: usize) -> TraceHeader {
    TraceHeader {
        version: FORMAT_VERSION,
        scenario: "hiring".to_string(),
        variant: "adaptive".to_string(),
        trial,
        scale: Scale::Quick,
        seed: config.seed,
        shards: config.shards,
        delay: config.delay,
        policy: config.policy,
        checkpoints: false,
    }
}

/// Asserts `replayed` is byte-identical to `original`, including the
/// serialized JSON form (bit-exact floats through the JSON layer).
fn assert_byte_identical(original: &LoopRecord, replayed: &LoopRecord, what: &str) {
    assert_eq!(original, replayed, "{what}: records differ");
    assert_eq!(
        original.to_json().render(),
        replayed.to_json().render(),
        "{what}: serialized forms differ"
    );
}

fn check_credit(users: usize, steps: usize, seed: u64, shards: usize) {
    let config = credit_sim::CreditConfig {
        users,
        steps,
        trials: 1,
        seed,
        lender: credit_sim::LenderKind::Scorecard,
        delay: 1,
        shards,
        policy: RecordPolicy::Full,
    };
    // Record under `shards`; the unsunk run must match the sunk one.
    let mut sink = TraceStepSink::new(Vec::new(), &credit_header(&config, 0)).unwrap();
    let recorded = credit_sim::run_trial_sunk(&config, 0, &mut sink);
    let bytes = sink.finish().unwrap();
    let plain = credit_sim::run_trial(&config, 0);
    assert_byte_identical(
        &plain.record,
        &recorded.record,
        "credit: sink perturbed the run",
    );

    // Verified replay (fresh lender + filter).
    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
    let summary = CreditTracer.replay(reader).unwrap();
    assert_byte_identical(
        &recorded.record,
        &summary.record,
        &format!("credit replay (shards {shards})"),
    );
}

fn check_hiring(applicants: usize, rounds: usize, seed: u64, shards: usize) {
    let config = hiring_sim::HiringConfig {
        applicants,
        rounds,
        trials: 1,
        seed,
        screener: hiring_sim::ScreenerKind::Adaptive,
        delay: 1,
        shards,
        policy: RecordPolicy::Full,
    };
    let mut sink = TraceStepSink::new(Vec::new(), &hiring_header(&config, 0)).unwrap();
    let recorded = hiring_sim::run_trial_sunk(&config, 0, &mut sink);
    let bytes = sink.finish().unwrap();
    let plain = hiring_sim::run_trial(&config, 0);
    assert_byte_identical(
        &plain.record,
        &recorded.record,
        "hiring: sink perturbed the run",
    );

    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
    let summary = HiringTracer.replay(reader).unwrap();
    assert_byte_identical(
        &recorded.record,
        &summary.record,
        &format!("hiring replay (shards {shards})"),
    );
}

#[test]
fn credit_replay_is_byte_identical_across_shard_counts() {
    for shards in SHARD_COUNTS {
        check_credit(90, 8, 41, shards);
    }
}

#[test]
fn hiring_replay_is_byte_identical_across_shard_counts() {
    for shards in SHARD_COUNTS {
        check_hiring(90, 8, 23, shards);
    }
}

proptest! {
    // Each case runs 3 full loops (sunk + plain + replay), so
    // the population stays small; the deterministic tests above cover
    // every shard count at a larger shape.
    #[test]
    fn credit_traces_replay_byte_identically(
        users in 20usize..50,
        steps in 2usize..6,
        seed in 0u64..=u64::MAX,
        shard_pick in 0usize..SHARD_COUNTS.len(),
    ) {
        check_credit(users, steps, seed, SHARD_COUNTS[shard_pick]);
    }

    #[test]
    fn hiring_traces_replay_byte_identically(
        applicants in 20usize..50,
        rounds in 2usize..6,
        seed in 0u64..=u64::MAX,
        shard_pick in 0usize..SHARD_COUNTS.len(),
    ) {
        check_hiring(applicants, rounds, seed, SHARD_COUNTS[shard_pick]);
    }
}
