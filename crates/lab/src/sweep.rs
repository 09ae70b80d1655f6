//! The sweep engine: fan a [`CandidateGrid`] across recorded traces on
//! the process-wide thread budget and aggregate per-candidate fairness
//! statistics with bootstrap confidence intervals.
//!
//! A **cell** is one candidate against one trace, but a sweep's unit of
//! work is one **evaluation**: one (policy, filter) pair evaluated
//! off-policy against one trace. A threshold decides only how the
//! evaluation's signals are read (which decisions are positive), not the
//! refit, the counterfactual signals or the filter outputs, so every
//! threshold of the grid is read off the same evaluation. Evaluations are
//! independent, so all of them go into a single [`run_indexed`] batch
//! under one [`ThreadBudget`] lease; each streams its trace from its own
//! reader (traces are never materialized in memory by the engine) and
//! reduces the two [`LoopRecord`](eqimpact_core::LoopRecord)s to compact
//! per-user statistics, one set per threshold, before the records are
//! dropped. A failed or panicking evaluation is the error of every cell
//! it would have read out — one corrupt trace or misbehaving candidate
//! never takes down the sweep.
//!
//! Aggregation has two steps. Each candidate's cells are pooled on the
//! calling thread, in trace order. Then the bootstrap intervals, three
//! per candidate, go into a second [`run_indexed`] batch: job `3i + k`
//! is interval `k` of candidate `i`, and it draws only from an RNG
//! derived from `(config.seed, candidate.index, k + 1)`. Results come
//! back in index order, so the ranked report is bit-identical across
//! runs and across thread counts.

use crate::grid::{CandidateGrid, CandidateSpec};
use crate::report::{RankedCandidate, SweepReport};
use eqimpact_core::pool::{run_indexed, ThreadBudget};
use eqimpact_stats::{bootstrap_gap_ci, bootstrap_mean_ci, ConfidenceInterval, SimRng};
use eqimpact_telemetry::metrics as tm;
use eqimpact_trace::{OffPolicyOutcome, TraceError, TraceHeader};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Read;
use std::path::PathBuf;

/// What a workload hands back for one evaluation: one (policy, filter)
/// pair against one trace, read out at every threshold of the grid.
pub struct SweepEval {
    /// The trace's provenance header.
    pub header: TraceHeader,
    /// The off-policy evaluation of the candidate against the trace.
    pub outcome: OffPolicyOutcome,
}

/// The off-policy face a workload exposes: how to build and evaluate the
/// candidates its grid names. Implemented by the traceable scenarios
/// (credit, hiring) and registered next to their
/// [`TraceReplayer`](eqimpact_trace::TraceReplayer)s. It is the
/// workload's one off-policy path: [`run_sweep`] evaluates a grid through
/// it, and `experiments replay --policy P` evaluates the one candidate
/// `P` with the first of [`Self::known_filters`].
pub trait SweepTarget: Sync {
    /// The scenario name (matches the scenario registry and trace
    /// headers).
    fn name(&self) -> &'static str;

    /// The grid swept when the CLI gets no `--grid` spec.
    fn default_grid(&self) -> CandidateGrid;

    /// Every policy name the workload can instantiate.
    fn known_policies(&self) -> &'static [&'static str];

    /// Every filter name the workload can instantiate.
    fn known_filters(&self) -> &'static [&'static str];

    /// Evaluates one candidate's policy and filter against one trace
    /// stream. Evaluation does not read the candidate's threshold:
    /// [`run_sweep`] reads every threshold of a (policy, filter) pair off
    /// one evaluation, which it asks for with the pair's first candidate.
    /// Implementations should enable the checkpointed fast-path only
    /// when it is sound: the trace carries checkpoints **and** the
    /// candidate's policy is the recorded variant (same learner, so
    /// restored weights are the weights retraining would have produced).
    fn evaluate(
        &self,
        input: &mut dyn Read,
        candidate: &CandidateSpec,
    ) -> Result<SweepEval, TraceError>;
}

/// A source of trace bytes a sweep can re-open once per evaluation. File-backed
/// in the CLI ([`FileTrace`]); in-memory in tests and benches
/// ([`MemTrace`]).
pub trait TraceSource: Sync {
    /// Display name (the ranked report's provenance listing).
    fn label(&self) -> &str;

    /// Opens a fresh reader over the trace bytes.
    fn open(&self) -> std::io::Result<Box<dyn Read + '_>>;
}

/// A trace on disk.
pub struct FileTrace {
    path: PathBuf,
    label: String,
}

impl FileTrace {
    /// Wraps a trace file path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let label = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        FileTrace { path, label }
    }
}

impl TraceSource for FileTrace {
    fn label(&self) -> &str {
        &self.label
    }

    fn open(&self) -> std::io::Result<Box<dyn Read + '_>> {
        Ok(Box::new(std::io::BufReader::new(std::fs::File::open(
            &self.path,
        )?)))
    }
}

/// A trace held in memory.
pub struct MemTrace {
    name: String,
    bytes: Vec<u8>,
}

impl MemTrace {
    /// Wraps recorded trace bytes under a display name.
    pub fn new(name: impl Into<String>, bytes: Vec<u8>) -> Self {
        MemTrace {
            name: name.into(),
            bytes,
        }
    }
}

impl TraceSource for MemTrace {
    fn label(&self) -> &str {
        &self.name
    }

    fn open(&self) -> std::io::Result<Box<dyn Read + '_>> {
        Ok(Box::new(self.bytes.as_slice()))
    }
}

/// Nominal coverage of every bootstrap interval a sweep reports.
pub const CI_LEVEL: f64 = 0.95;

/// Knobs of [`run_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Base seed of the per-candidate bootstrap RNGs.
    pub seed: u64,
    /// Bootstrap resamples per confidence interval; at least 1.
    pub resamples: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 42,
            resamples: 200,
        }
    }
}

/// A sweep that cannot start (per-cell failures are reported in the
/// ranked candidates instead, so one bad trace never aborts the rest).
#[derive(Debug)]
pub enum SweepError {
    /// The grid has an empty axis.
    EmptyGrid,
    /// No traces were supplied.
    NoTraces,
    /// A grid axis names a value the target cannot instantiate.
    UnknownAxisValue {
        /// The offending axis (`policy` or `filter`).
        axis: &'static str,
        /// The unrecognized value.
        value: String,
        /// Every value the target knows.
        known: Vec<&'static str>,
    },
    /// The [`SweepConfig`] cannot give a bootstrap interval: it asks
    /// for zero resamples.
    BadBootstrap,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyGrid => write!(f, "the candidate grid has an empty axis"),
            SweepError::NoTraces => write!(f, "no traces to sweep over"),
            SweepError::UnknownAxisValue { axis, value, known } => write!(
                f,
                "unknown {axis} `{value}` (known values: {})",
                known.join(", ")
            ),
            SweepError::BadBootstrap => write!(f, "bootstrap needs at least 1 resample"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The per-cell reduction: everything aggregation needs, with the two
/// full [`LoopRecord`](eqimpact_core::LoopRecord)s already dropped.
struct CellStats {
    /// Decision-agreement rate with the logged policy.
    agreement: f64,
    /// Per group label: per-user positive-decision shares of the
    /// candidate (the demographic-parity strata).
    parity: BTreeMap<String, Vec<f64>>,
    /// Per group label: per-user positive shares among favourable-action
    /// steps (the equal-opportunity strata; users with no favourable
    /// step contribute nothing).
    opportunity: BTreeMap<String, Vec<f64>>,
    /// Per-user final-filter-output delta, candidate − baseline (the
    /// impact channel, e.g. ADR shift).
    outcome_delta: Vec<f64>,
}

/// Favourable-action cutoff of the equal-opportunity strata — the same
/// convention as `eqimpact_core::fairness::equal_opportunity` is called
/// with throughout the workspace (binary outcomes encoded as 0/1).
const FAVOURABLE_ACTION: f64 = 0.5;

/// One cell's statistics: the evaluation read out at `threshold`. A
/// non-finite final filter output, recorded or recomputed, is the cell's
/// error: no interval over it means anything.
fn cell_stats(eval: &SweepEval, threshold: f64) -> Result<CellStats, TraceError> {
    let outcome = &eval.outcome;
    let steps = outcome.counterfactual.steps();
    let (labels, groups) = match &outcome.groups {
        Some(g) => (g.labels.clone(), g.index_sets()),
        None => (Vec::new(), Vec::new()),
    };
    let mut parity = BTreeMap::new();
    let mut opportunity = BTreeMap::new();
    for (label, members) in labels.iter().zip(&groups) {
        let mut parity_shares = Vec::with_capacity(members.len());
        let mut opportunity_shares = Vec::new();
        for &i in members {
            let mut positive = 0usize;
            let mut favourable = 0usize;
            let mut favourable_positive = 0usize;
            for k in 0..steps {
                let decided = outcome.counterfactual.signals(k)[i] > threshold;
                if decided {
                    positive += 1;
                }
                if outcome.counterfactual.actions(k)[i] > FAVOURABLE_ACTION {
                    favourable += 1;
                    if decided {
                        favourable_positive += 1;
                    }
                }
            }
            if steps > 0 {
                parity_shares.push(positive as f64 / steps as f64);
            }
            if favourable > 0 {
                opportunity_shares.push(favourable_positive as f64 / favourable as f64);
            }
        }
        parity
            .entry(label.clone())
            .or_insert_with(Vec::new)
            .extend(parity_shares);
        opportunity
            .entry(label.clone())
            .or_insert_with(Vec::new)
            .extend(opportunity_shares);
    }
    let mut outcome_delta = Vec::new();
    if let Some(last) = steps.checked_sub(1) {
        let candidate = outcome.counterfactual.filtered(last);
        let baseline = outcome.baseline.filtered(last);
        outcome_delta.reserve_exact(candidate.len());
        for (user, (c, b)) in candidate.iter().zip(baseline).enumerate() {
            let delta = c - b;
            if !delta.is_finite() {
                return Err(TraceError::Corrupt {
                    what: format!(
                        "non-finite filter output at step {last}, user {user} \
                         (candidate {c}, recorded {b})"
                    ),
                });
            }
            outcome_delta.push(delta);
        }
    }
    Ok(CellStats {
        agreement: outcome.agreement_at(threshold),
        parity,
        opportunity,
        outcome_delta,
    })
}

/// Evaluates the (policy, filter) pair of `group` — candidates that
/// differ only in their threshold — against `trace` once, and reads out
/// one cell per candidate, in order.
fn evaluate_group(
    target: &dyn SweepTarget,
    trace: &dyn TraceSource,
    group: &[CandidateSpec],
) -> Result<Vec<Result<CellStats, TraceError>>, TraceError> {
    let mut input = trace.open().map_err(TraceError::Io)?;
    let eval = target.evaluate(&mut input, &group[0])?;
    Ok(group
        .iter()
        .map(|candidate| cell_stats(&eval, candidate.threshold))
        .collect())
}

/// A NaN interval: the statistic had no samples (e.g. a trace without
/// group metadata), which the report renders as "undefined" rather than
/// inventing a number.
fn nan_ci() -> ConfidenceInterval {
    ConfidenceInterval {
        lo: f64::NAN,
        estimate: f64::NAN,
        hi: f64::NAN,
        level: CI_LEVEL,
    }
}

/// Counts one interval's resample draws into `bootstrap.draws`.
fn note_draws(config: &SweepConfig, sample: usize) {
    tm::BOOTSTRAP_DRAWS.add((config.resamples as u64).saturating_mul(sample as u64));
}

/// Bootstrap CI of the max-minus-min group-mean gap over pooled strata.
fn gap_ci(
    strata: &BTreeMap<String, Vec<f64>>,
    config: &SweepConfig,
    rng: &mut SimRng,
) -> ConfidenceInterval {
    let views: Vec<&[f64]> = strata.values().map(Vec::as_slice).collect();
    let draws = views.iter().map(|v| v.len()).sum();
    if draws == 0 {
        return nan_ci();
    }
    note_draws(config, draws);
    bootstrap_gap_ci(&views, config.resamples, CI_LEVEL, rng)
}

/// Bootstrap CI of the mean of `sample`.
fn mean_ci(sample: &[f64], config: &SweepConfig, rng: &mut SimRng) -> ConfidenceInterval {
    if sample.is_empty() {
        return nan_ci();
    }
    note_draws(config, sample.len());
    bootstrap_mean_ci(sample, config.resamples, CI_LEVEL, rng)
}

/// One candidate's cells, pooled across traces in trace order.
struct PooledCells {
    /// Cells that evaluated.
    evaluated: usize,
    /// Mean decision agreement over the cells that report a finite one.
    agreement: f64,
    /// The cells' [`CellStats`] strata and deltas, concatenated.
    parity: BTreeMap<String, Vec<f64>>,
    opportunity: BTreeMap<String, Vec<f64>>,
    outcome_delta: Vec<f64>,
    /// One message per failed cell, naming its trace.
    errors: Vec<String>,
}

/// Runs the sweep: every grid candidate against every trace, from one
/// evaluation per (policy, filter, trace), one [`ThreadBudget`] lease for
/// the evaluation batch and one for the interval batch, bootstrap CIs on
/// every reported gap, ranked most-parity-even first. A bad grid or
/// [`SweepConfig`] is an error before any evaluation runs. See the
/// module docs for the determinism contract.
pub fn run_sweep(
    target: &dyn SweepTarget,
    traces: &[&dyn TraceSource],
    grid: &CandidateGrid,
    config: &SweepConfig,
    budget: &ThreadBudget,
) -> Result<SweepReport, SweepError> {
    if grid.is_empty() {
        return Err(SweepError::EmptyGrid);
    }
    if traces.is_empty() {
        return Err(SweepError::NoTraces);
    }
    if config.resamples == 0 {
        return Err(SweepError::BadBootstrap);
    }
    for policy in &grid.policies {
        if !target.known_policies().contains(&policy.as_str()) {
            return Err(SweepError::UnknownAxisValue {
                axis: "policy",
                value: policy.clone(),
                known: target.known_policies().to_vec(),
            });
        }
    }
    for filter in &grid.filters {
        if !target.known_filters().contains(&filter.as_str()) {
            return Err(SweepError::UnknownAxisValue {
                axis: "filter",
                value: filter.clone(),
                known: target.known_filters().to_vec(),
            });
        }
    }

    // `candidates()` is policy-major, so each (policy, filter) group is a
    // contiguous run of one candidate per threshold.
    let candidates = grid.candidates();
    let thresholds = grid.thresholds.len();
    let groups: Vec<&[CandidateSpec]> = candidates.chunks_exact(thresholds).collect();
    let evaluations = groups.len() * traces.len();

    // One batch under one lease: at most one lane per evaluation, and
    // whatever the budget can spare.
    eqimpact_telemetry::progress::add_goal(evaluations as u64);
    let evaluated = run_indexed(budget, evaluations, |job| {
        let _evaluation = tm::SWEEP_CELLS.enter();
        evaluate_group(
            target,
            traces[job % traces.len()],
            groups[job / traces.len()],
        )
    });

    // Every evaluation as one read-out per threshold: its cells, or, when
    // it failed, its message once for each of them.
    let mut read_outs: Vec<_> = evaluated
        .into_iter()
        .zip(traces.iter().cycle())
        .map(|(evaluation, trace)| {
            let failed = |message: String| {
                std::iter::repeat_with(|| Err(message.clone()))
                    .take(thresholds)
                    .collect()
            };
            let cells: Vec<Result<CellStats, String>> = match evaluation {
                Ok(Ok(cells)) => cells
                    .into_iter()
                    .map(|cell| cell.map_err(|e| format!("{}: {e}", trace.label())))
                    .collect(),
                Ok(Err(e)) => failed(format!("{}: {e}", trace.label())),
                Err(panic) => failed(format!("{}: candidate panicked: {panic}", trace.label())),
            };
            cells.into_iter()
        })
        .collect();

    // Pool each candidate's cells in trace order: a group's candidates
    // take its evaluations' read-outs in threshold order.
    let mut pooled = Vec::with_capacity(candidates.len());
    for group in read_outs.chunks_exact_mut(traces.len()) {
        for _ in 0..thresholds {
            let mut cells = PooledCells {
                evaluated: 0,
                agreement: f64::NAN,
                parity: BTreeMap::new(),
                opportunity: BTreeMap::new(),
                outcome_delta: Vec::new(),
                errors: Vec::new(),
            };
            let mut agreement_sum = 0.0;
            let mut agreement_count = 0usize;
            for trace_cells in group.iter_mut() {
                match trace_cells.next().expect("one read-out per threshold") {
                    Ok(stats) => {
                        cells.evaluated += 1;
                        if stats.agreement.is_finite() {
                            agreement_sum += stats.agreement;
                            agreement_count += 1;
                        }
                        for (label, shares) in stats.parity {
                            cells.parity.entry(label).or_default().extend(shares);
                        }
                        for (label, shares) in stats.opportunity {
                            cells.opportunity.entry(label).or_default().extend(shares);
                        }
                        cells.outcome_delta.extend(stats.outcome_delta);
                    }
                    Err(message) => cells.errors.push(message),
                }
            }
            if agreement_count > 0 {
                cells.agreement = agreement_sum / agreement_count as f64;
            }
            tm::SWEEP_CELL_ERRORS.add(cells.errors.len() as u64);
            pooled.push(cells);
        }
    }

    // Every interval is one job of one batch: job 3i + k is interval k of
    // candidate i, drawn from its own stream, so no result depends on
    // which lane ran it or when.
    let intervals: Vec<ConfidenceInterval> = run_indexed(budget, 3 * candidates.len(), |job| {
        let _interval = tm::SWEEP_INTERVALS.enter();
        let (i, k) = (job / 3, job % 3);
        let cells = &pooled[i];
        let mut rng = SimRng::new(config.seed)
            .split(candidates[i].index as u64)
            .split(k as u64 + 1);
        match k {
            0 => gap_ci(&cells.parity, config, &mut rng),
            1 => gap_ci(&cells.opportunity, config, &mut rng),
            _ => mean_ci(&cells.outcome_delta, config, &mut rng),
        }
    })
    .into_iter()
    .map(|interval| {
        interval.expect(
            "an interval job cannot panic: run_sweep checked resamples, \
             and an empty sample gives a NaN interval without resampling",
        )
    })
    .collect();

    let mut ranked: Vec<RankedCandidate> = candidates
        .iter()
        .zip(pooled)
        .zip(intervals.chunks_exact(3))
        .map(|((candidate, cells), ci)| RankedCandidate {
            candidate: candidate.clone(),
            traces: cells.evaluated,
            agreement: cells.agreement,
            parity_gap: ci[0],
            opportunity_gap: ci[1],
            outcome_delta: ci[2],
            errors: cells.errors,
        })
        .collect();

    // Most demographically even first; ties broken by opportunity gap,
    // then by the candidate key — total_cmp orders NaN after every
    // number, so all-failed candidates sink to the bottom.
    ranked.sort_by(|a, b| {
        a.parity_gap
            .estimate
            .total_cmp(&b.parity_gap.estimate)
            .then_with(|| {
                a.opportunity_gap
                    .estimate
                    .total_cmp(&b.opportunity_gap.estimate)
            })
            .then_with(|| a.candidate.key().cmp(&b.candidate.key()))
    });

    Ok(SweepReport {
        scenario: target.name().to_string(),
        seed: config.seed,
        resamples: config.resamples,
        level: CI_LEVEL,
        traces: traces.iter().map(|t| t.label().to_string()).collect(),
        candidates: candidates.len(),
        ranked,
    })
}
