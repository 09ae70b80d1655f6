//! Integration: the counterfactual lab end to end — a 51-candidate grid
//! swept off-policy over recorded credit traces (and a smaller grid over
//! hiring traces), with the determinism contract checked the strong way:
//! the full ranked report, bootstrap confidence intervals included, is
//! byte-identical across repeated runs and across thread-budget
//! capacities, and across commits by the digests in
//! `tests/data/sweep_grids.txt`.

use eqimpact::lab::{run_sweep, CandidateGrid, MemTrace, SweepConfig, TraceSource, CI_LEVEL};
use eqimpact::prelude::*;
use eqimpact_core::recorder::StepSink;
use eqimpact_core::ModelCheckpoint;
use eqimpact_credit::sim::{CreditConfig, LenderKind};
use eqimpact_credit::CreditSweep;
use eqimpact_hiring::sim::{HiringConfig, ScreenerKind};
use eqimpact_hiring::HiringSweep;
use eqimpact_stats::ToJson;
use eqimpact_trace::{TraceHeader, TraceStepSink};
use std::io::Read;

/// Records `trials` checkpointed credit traces in memory.
fn credit_traces(trials: usize) -> Vec<MemTrace> {
    (0..trials)
        .map(|trial| {
            let config = CreditConfig {
                users: 80,
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
        .map(|trial| hiring_trace(trial, false))
        .collect()
}

/// Forwards every step to a trace sink, recording `filtered[0]` of step
/// `nan_step` as NaN.
struct NanFilterOutput<S> {
    sink: S,
    nan_step: Option<usize>,
}

impl<S: StepSink> StepSink for NanFilterOutput<S> {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        self.sink.on_groups(labels, codes);
    }

    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        let mut filtered = filtered.to_vec();
        if self.nan_step == Some(k) {
            filtered[0] = f64::NAN;
        }
        self.sink.on_step(k, visible, signals, actions, &filtered);
    }

    fn wants_checkpoints(&self) -> bool {
        self.sink.wants_checkpoints()
    }

    fn on_checkpoint(&mut self, k: usize, checkpoint: &ModelCheckpoint) {
        self.sink.on_checkpoint(k, checkpoint);
    }
}

/// Records one checkpointed hiring trace in memory; with `nan_last_step`
/// its last step records `filtered[0] = NaN`.
fn hiring_trace(trial: usize, nan_last_step: bool) -> MemTrace {
    let config = HiringConfig {
        applicants: 80,
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
    let mut sink = NanFilterOutput {
        sink: TraceStepSink::new(Vec::new(), &header).expect("header writes"),
        nan_step: nan_last_step.then_some(config.rounds - 1),
    };
    eqimpact_hiring::sim::run_trial_sunk(&config, 0, &mut sink);
    MemTrace::new(
        format!("hiring-trial{trial}.eqtrace"),
        sink.sink.finish().expect("trace finishes"),
    )
}

/// A 3 policies x 1 filter x 17 thresholds = 51-candidate credit grid.
fn wide_credit_grid() -> CandidateGrid {
    CandidateGrid::new(
        ["scorecard", "uniform-exclusion", "income-multiple"],
        ["adr"],
        (0..17).map(|i| i as f64 * 5.0),
    )
}

/// A 2 policies x 1 filter x 5 thresholds = 10-candidate hiring grid.
fn hiring_grid() -> CandidateGrid {
    CandidateGrid::new(
        ["adaptive", "credential"],
        ["track-record"],
        (0..5).map(|i| i as f64 * 0.25),
    )
}

#[test]
fn fifty_plus_candidate_sweep_is_deterministic_across_runs_and_thread_counts() {
    let traces = credit_traces(2);
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();
    let grid = wide_credit_grid();
    assert!(grid.len() >= 50, "grid has {} candidates", grid.len());
    let config = SweepConfig {
        seed: 7,
        resamples: 50,
    };

    // Distinct budgets (not the process-global one) so the test pins the
    // capacities: 1 lane = fully sequential, 4 lanes = pooled workers.
    let runs: Vec<String> = [1, 1, 4]
        .iter()
        .map(|&lanes| {
            let budget = ThreadBudget::leaked(lanes);
            let report =
                run_sweep(&CreditSweep, &sources, &grid, &config, budget).expect("sweep runs");
            assert_eq!(report.ranked.len(), grid.len());
            report.to_json().render_pretty()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "same budget, different report");
    assert_eq!(runs[0], runs[2], "1-lane vs 4-lane reports differ");
}

#[test]
fn every_ranked_candidate_carries_bootstrap_intervals() {
    let traces = credit_traces(2);
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();
    let grid = wide_credit_grid();
    let config = SweepConfig {
        seed: 7,
        resamples: 50,
    };
    let report = run_sweep(
        &CreditSweep,
        &sources,
        &grid,
        &config,
        ThreadBudget::leaked(2),
    )
    .expect("sweep runs");
    assert_eq!(report.traces.len(), 2);
    for ranked in &report.ranked {
        assert!(
            ranked.errors.is_empty(),
            "{}: {:?}",
            ranked.candidate.key(),
            ranked.errors
        );
        assert_eq!(ranked.traces, 2);
        for ci in [
            &ranked.parity_gap,
            &ranked.opportunity_gap,
            &ranked.outcome_delta,
        ] {
            assert_eq!(ci.level, CI_LEVEL);
            if ci.estimate.is_finite() {
                assert!(
                    ci.lo <= ci.estimate && ci.estimate <= ci.hi,
                    "{}: [{}, {}] around {}",
                    ranked.candidate.key(),
                    ci.lo,
                    ci.hi,
                    ci.estimate
                );
            }
        }
        // The parity gap always has data (every trace carries groups).
        assert!(ranked.parity_gap.estimate.is_finite());
        assert!(ranked.agreement.is_finite());
    }
    // The ranking is parity-gap ascending (ties broken deterministically).
    for pair in report.ranked.windows(2) {
        assert!(
            pair[0].parity_gap.estimate <= pair[1].parity_gap.estimate
                || !pair[1].parity_gap.estimate.is_finite()
        );
    }
}

#[test]
fn hiring_traces_sweep_deterministically_too() {
    let traces = hiring_traces(2);
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();
    let grid = hiring_grid();
    let config = SweepConfig {
        seed: 9,
        resamples: 50,
    };
    let one = run_sweep(
        &HiringSweep,
        &sources,
        &grid,
        &config,
        ThreadBudget::leaked(1),
    )
    .expect("sequential sweep runs");
    let four = run_sweep(
        &HiringSweep,
        &sources,
        &grid,
        &config,
        ThreadBudget::leaked(4),
    )
    .expect("pooled sweep runs");
    assert_eq!(
        one.to_json().render_pretty(),
        four.to_json().render_pretty(),
        "hiring sweep is thread-count sensitive"
    );
    assert_eq!(one.ranked.len(), grid.len());
    for ranked in &one.ranked {
        assert!(ranked.errors.is_empty(), "{:?}", ranked.errors);
    }
}

/// A NaN in a recorded filter output fails that trace's cells with a
/// named error, at every threshold read off the evaluation; the sweep
/// still exits cleanly and every other cell still reports.
#[test]
fn a_nan_recorded_filter_output_is_a_per_cell_error() {
    let clean = hiring_trace(0, false);
    let poisoned = hiring_trace(1, true);
    let sources: Vec<&dyn TraceSource> = vec![&clean, &poisoned];
    let grid = CandidateGrid::new(
        ["adaptive", "credential"],
        ["track-record"],
        [0.5, 0.25, 0.75],
    );
    let config = SweepConfig {
        seed: 9,
        resamples: 50,
    };
    let report = run_sweep(
        &HiringSweep,
        &sources,
        &grid,
        &config,
        ThreadBudget::leaked(2),
    )
    .expect("the sweep runs");
    assert_eq!(report.ranked.len(), 6);
    for ranked in &report.ranked {
        assert_eq!(ranked.traces, 1, "the clean trace still reports");
        assert_eq!(ranked.errors.len(), 1, "{:?}", ranked.errors);
        assert!(
            ranked.errors[0].starts_with(
                "hiring-trial1.eqtrace: corrupt trace: non-finite filter output at step 5, user 0"
            ),
            "{}",
            ranked.errors[0]
        );
        assert!(ranked.outcome_delta.estimate.is_finite());
        assert!(ranked.parity_gap.estimate.is_finite());
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

/// A panic inside an evaluation fails only the cells read off it, each
/// named by its trace; the other trace's cells still report.
#[test]
fn a_panicking_trace_source_fails_only_its_own_cells() {
    let clean = hiring_trace(0, false);
    let sources: Vec<&dyn TraceSource> = vec![&clean, &PanickingTrace];
    let grid = CandidateGrid::new(
        ["adaptive", "credential"],
        ["track-record"],
        [0.5, 0.25, 0.75],
    );
    let config = SweepConfig {
        seed: 9,
        resamples: 50,
    };
    let report = run_sweep(
        &HiringSweep,
        &sources,
        &grid,
        &config,
        ThreadBudget::leaked(2),
    )
    .expect("the sweep runs");
    assert_eq!(report.ranked.len(), 6);
    for ranked in &report.ranked {
        assert_eq!(ranked.traces, 1, "the clean trace still reports");
        assert_eq!(
            ranked.errors,
            vec!["panicking.eqtrace: candidate panicked: open exploded".to_string()]
        );
        assert!(ranked.parity_gap.estimate.is_finite());
    }
}

/// A config that cannot give a bootstrap interval is refused before any
/// cell runs, instead of panicking in the bootstrap after every cell has.
#[test]
fn a_config_without_a_bootstrap_interval_is_an_error() {
    let clean = hiring_trace(0, false);
    let sources: Vec<&dyn TraceSource> = vec![&clean];
    let grid = CandidateGrid::new(["adaptive"], ["track-record"], [0.5]);
    let config = SweepConfig {
        seed: 9,
        resamples: 0,
    };
    let error = run_sweep(
        &HiringSweep,
        &sources,
        &grid,
        &config,
        ThreadBudget::leaked(2),
    )
    .expect_err("the config is refused");
    assert_eq!(error.to_string(), "bootstrap needs at least 1 resample");
}

/// `<name> <byte length> <64-bit FNV-1a digest>` of `bytes`,
/// newline-terminated: a line of the committed report pins.
fn pin_line(name: &str, bytes: &[u8]) -> String {
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{name} {} {digest:016x}\n", bytes.len())
}

fn sources(traces: &[MemTrace]) -> Vec<&dyn TraceSource> {
    traces.iter().map(|t| t as &dyn TraceSource).collect()
}

/// The reports of the 51-candidate credit grid and the 10-candidate
/// hiring grid, as JSON and as text, are pinned across commits by byte
/// length and FNV-1a in `tests/data/sweep_grids.txt`: every interval
/// bound, agreement and ranking of a many-threshold sweep. A change that
/// moves one byte fails here; re-pin the file only for a deliberate,
/// documented re-baseline.
#[test]
fn grid_reports_match_the_committed_digests() {
    let credit = credit_traces(2);
    let hiring = hiring_traces(2);
    let config = |seed| SweepConfig {
        seed,
        resamples: 50,
    };
    let budget = ThreadBudget::leaked(2);
    let mut table = String::new();
    for (name, report) in [
        (
            "credit-51",
            run_sweep(
                &CreditSweep,
                &sources(&credit),
                &wide_credit_grid(),
                &config(7),
                budget,
            ),
        ),
        (
            "hiring-10",
            run_sweep(
                &HiringSweep,
                &sources(&hiring),
                &hiring_grid(),
                &config(9),
                budget,
            ),
        ),
    ] {
        let report = report.expect("sweep runs");
        table += &pin_line(
            &format!("{name}.json"),
            report.to_json().render_pretty().as_bytes(),
        );
        table += &pin_line(&format!("{name}.txt"), report.render_text().as_bytes());
    }
    let pinned = include_str!("data/sweep_grids.txt");
    assert!(
        table == pinned,
        "sweep reports moved; if on purpose, re-pin tests/data/sweep_grids.txt to:\n{table}"
    );
}
