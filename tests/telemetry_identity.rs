//! The telemetry plane's observe-only contract: enabling the recorder
//! must never perturb the engine. Enabled runs produce bit-identical
//! `LoopRecord`s AND EQTRACE1 bytes to disabled runs across shard counts
//! (1, 4, 16) — checked as a property over seeds — and the snapshot's
//! deterministic section is byte-identical across runs and thread-budget
//! sizes for the same workload, and across commits for the Quick-scale
//! `credit` and `hiring` scenarios.

use eqimpact_core::closed_loop::LoopBuilder;
use eqimpact_core::pool::ThreadBudget;
use eqimpact_core::recorder::{LoopRecord, RecordPolicy};
use eqimpact_core::scenario::{run_scenario, Scale, Scenario, ScenarioConfig};
use eqimpact_core::shard::ShardedRunner;
use eqimpact_credit::adr::AdrFilter;
use eqimpact_credit::lender::ScorecardLender;
use eqimpact_credit::users::CreditPopulation;
use eqimpact_stats::SimRng;
use eqimpact_telemetry::{test_guard, Recorder};
use eqimpact_trace::{TraceHeader, TraceStepSink, FORMAT_VERSION};
use proptest::prelude::*;

fn header(seed: u64) -> TraceHeader {
    TraceHeader {
        version: FORMAT_VERSION,
        scenario: "credit".to_string(),
        variant: "telemetry-identity".to_string(),
        trial: 0,
        scale: Scale::Quick,
        seed,
        shards: 1,
        delay: 1,
        policy: RecordPolicy::Full,
        checkpoints: false,
    }
}

/// Runs one traced credit loop (`shards: None` = sequential
/// `LoopRunner`), returning the record and the EQTRACE1 bytes. The same
/// derivation as `run_trial`, so the legs share populations.
fn credit_leg(seed: u64, shards: Option<usize>) -> (LoopRecord, Vec<u8>) {
    let root = SimRng::new(seed);
    let mut pop_rng = root.split(1);
    let mut loop_rng = root.split(2);
    let population = CreditPopulation::generate(120, &mut pop_rng);
    let builder = LoopBuilder::new(ScorecardLender::paper_default(), population)
        .filter(AdrFilter::new())
        .delay(1)
        .record(RecordPolicy::Full);
    let mut sink = TraceStepSink::new(Vec::new(), &header(seed)).expect("in-memory trace");
    let record = match shards {
        None => builder.build().run_with_sink(8, &mut loop_rng, &mut sink),
        Some(s) => builder
            .shards(s)
            .build_sharded()
            .run_with_sink(8, &mut loop_rng, &mut sink),
    };
    (record, sink.finish().expect("trace finishes"))
}

proptest! {
    /// Recording on vs off cannot change a single bit of the engine's
    /// output: the instruments only observe the computation, never feed
    /// back into it.
    #[test]
    fn enabled_runs_are_bit_identical_to_disabled(seed in 0u64..10) {
        let _t = test_guard();
        Recorder::uninstall();
        let (ref_record, ref_bytes) = credit_leg(seed, None);
        for shards in [1usize, 4, 16] {
            Recorder::uninstall();
            let (off_record, off_bytes) = credit_leg(seed, Some(shards));
            Recorder::install();
            let (on_record, on_bytes) = credit_leg(seed, Some(shards));
            Recorder::uninstall();
            prop_assert_eq!(&off_record, &ref_record, "disabled, {} shards", shards);
            prop_assert_eq!(&off_bytes, &ref_bytes, "disabled bytes, {} shards", shards);
            prop_assert_eq!(&on_record, &ref_record, "enabled, {} shards", shards);
            prop_assert_eq!(&on_bytes, &ref_bytes, "enabled bytes, {} shards", shards);
        }
    }
}

/// Runs a fixed 4-shard credit workload under a private thread budget of
/// `lanes` lanes with the recorder installed, returning the snapshot's
/// deterministic section.
fn deterministic_section_at(lanes: usize) -> String {
    let budget: &'static ThreadBudget = ThreadBudget::leaked(lanes);
    let root = SimRng::new(77);
    let mut pop_rng = root.split(1);
    let mut loop_rng = root.split(2);
    let population = CreditPopulation::generate(120, &mut pop_rng);
    let mut runner = ShardedRunner::with_budget(
        ScorecardLender::paper_default(),
        population,
        AdrFilter::new(),
        1,
        4,
        budget,
    );
    Recorder::install();
    let record = runner.run(9, &mut loop_rng);
    let section = Recorder::snapshot().deterministic_json();
    Recorder::uninstall();
    assert_eq!(record.steps(), 9);
    section
}

/// The acceptance contract behind `--telemetry`: the snapshot's
/// deterministic section (counters, span call counts, size histograms)
/// is byte-identical however many lanes the pool actually got — all
/// scheduling-dependent numbers are quarantined in the wall-clock
/// section.
#[test]
fn deterministic_section_is_byte_identical_across_lane_counts() {
    let _t = test_guard();
    let one = deterministic_section_at(1);
    let four = deterministic_section_at(4);
    let again = deterministic_section_at(4);
    assert_eq!(one, four, "1-lane vs 4-lane deterministic sections differ");
    assert_eq!(four, again, "re-run deterministic section differs");
    assert!(
        one.contains("loop.steps"),
        "deterministic section should report loop.steps: {one}"
    );
    // The scorecard lender refits through the IRLS core, whose work
    // counters must land in the compared section, and be non-zero.
    assert!(
        one.contains("\"irls.fits\": ") && !one.contains("\"irls.fits\": 0,"),
        "deterministic section should count irls.fits: {one}"
    );
}

/// Runs `scenario` at Quick scale with the recorder installed, returning
/// the snapshot's deterministic section.
fn quick_scenario_section<S: Scenario>(scenario: &S) -> String {
    Recorder::install();
    let report = run_scenario(scenario, &ScenarioConfig::new(Scale::Quick));
    let section = Recorder::snapshot().deterministic_json();
    Recorder::uninstall();
    report.expect("scenario runs");
    section
}

/// The deterministic work counters are pinned across commits: the
/// committed sections are the `deterministic` object that `experiments
/// run <scenario> --quick --telemetry` reports, so an algorithmic change
/// that moves a counter (loop steps, IRLS fits, iterations or rows)
/// fails here and must re-pin the file on purpose.
#[test]
fn quick_scenario_counters_match_the_committed_sections() {
    let _t = test_guard();
    let runs = [
        (
            "credit",
            quick_scenario_section(&eqimpact_credit::CreditScenario),
            include_str!("data/telemetry_credit_quick.json"),
        ),
        (
            "hiring",
            quick_scenario_section(&eqimpact_hiring::HiringScenario),
            include_str!("data/telemetry_hiring_quick.json"),
        ),
    ];
    for (name, section, pinned) in runs {
        assert!(
            section == pinned,
            "{name} --quick deterministic telemetry moved; if on purpose, re-pin \
             tests/data/telemetry_{name}_quick.json to:\n{section}"
        );
    }
}
