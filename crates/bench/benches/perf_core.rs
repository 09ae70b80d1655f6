//! Performance microbenchmarks of the building blocks (not paper
//! artifacts): the sharded runner's one-lane path, the columnar feature
//! plane, the credit loop, the credit render, the census income draw,
//! the retrained learner, the trace codec, the counterfactual sweep and
//! its bootstrap, IRLS fitting, Markov operator application, and
//! invariant-measure estimation. They print their timings and write no
//! file; the end-to-end and per-layer numbers of the closed loop come
//! from the `loopbench` benchmark (`loopbench/README.md`, declared in
//! `BENCHMARK.json`).
//!
//! Five arms assert an invariant that must hold on any hardware. The
//! sharding bench (P5) checks that a one-lane sharded run, which spawns
//! nothing, stays within noise of the sequential `LoopRunner`. The
//! columnar bench (P8) checks
//! that batched column-kernel scoring does not lose to a row-gathering
//! baseline replicating the pre-redesign row-major hot path, on the same
//! loop at the same scale, after proving the two bit-identical. The
//! census-income bench checks that every draw of `sample_income` equals
//! `weighted_index` then `uniform_in` on the same stream. The retrain
//! bench checks that replaying the paper-scale credit loop's feedback
//! fits, bit for bit, the models its lender fitted. The trace-codec
//! bench checks that re-encoding the decoded audit corpus
//! gives back the recorded bytes, and decoding them every value.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eqimpact_census::{Household, IncomeTable, Population, BRACKETS, FIRST_YEAR, LAST_YEAR};
use eqimpact_core::closed_loop::{AiSystem, Feedback, LoopBuilder, MeanFilter, UserPopulation};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::pool::ThreadBudget;
use eqimpact_core::recorder::{RecordPolicy, StepSink};
use eqimpact_core::scenario::{Scale, Scenario, ScenarioConfig, TraceMeta};
use eqimpact_core::shard::{
    shard_bounds, ColsMut, ColsView, PopulationShard, RowStreams, ShardableAi, ShardablePopulation,
};
use eqimpact_core::ModelCheckpoint;
use eqimpact_credit::lender::VISIBLE_INCOME_CODE;
use eqimpact_credit::sim::{run_trial, CreditConfig, LenderKind};
use eqimpact_credit::CreditScenario;
use eqimpact_hiring::scenario::{trial_config, variant_name};
use eqimpact_hiring::sim::{run_trial_sunk, ScreenerKind};
use eqimpact_hiring::{HiringScenario, HiringSweep};
use eqimpact_lab::{
    run_sweep, CandidateSpec, MemTrace, SweepConfig, SweepTarget, TraceSource, CI_LEVEL,
};
use eqimpact_markov::ifs::{affine1d, IfsBuilder};
use eqimpact_markov::invariant::estimate_invariant_measure;
use eqimpact_markov::operator::{markov_operator_apply, ParticleMeasure};
use eqimpact_ml::logistic::{sigmoid, LogisticModel, LogisticRegression};
use eqimpact_ml::retrained::RetrainedLogistic;
use eqimpact_ml::{Dataset, GroupedTable};
use eqimpact_stats::{bootstrap_gap_ci, SimRng};
use eqimpact_trace::{
    StepFrame, TraceGroups, TraceHeader, TraceReader, TraceStepSink, TraceWriter,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Shard-invariant synthetic population for the sharding bench: the
/// per-user work (an index-keyed stream, a resample-like draw, a
/// Bernoulli response) mirrors the credit population's per-household
/// cost, so the measured scaling is representative.
struct ShardSynthUsers {
    n: usize,
}

struct ShardSynthShard {
    rows: Range<usize>,
}

fn synth_observe(k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
    // Row-major draw order (all of row i's draws from row i's stream)
    // with columnar writes.
    let rows = out.rows();
    let (gate, income_col) = out.cols_pair_mut(0, 1);
    for (j, i) in rows.enumerate() {
        let mut rng = streams.for_row(i);
        let income = 10.0 + 40.0 * rng.uniform() + rng.standard_normal().abs();
        gate[j] = if income >= 15.0 { 1.0 } else { 0.0 };
        income_col[j] = income + 0.001 * k as f64;
    }
}

fn synth_respond(rows: Range<usize>, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
    for (j, i) in rows.enumerate() {
        let mut rng = streams.for_row(i);
        let p = (0.1 + 0.015 * signals[j]).clamp(0.0, 1.0);
        out[j] = if rng.bernoulli(p) { 1.0 } else { 0.0 };
    }
}

impl UserPopulation for ShardSynthUsers {
    fn user_count(&self) -> usize {
        self.n
    }
    fn observe_into(
        &mut self,
        k: usize,
        rng: &mut eqimpact_stats::SimRng,
        out: &mut FeatureMatrix,
    ) {
        out.reshape(self.n, 2);
        let streams = RowStreams::observe(rng, k);
        synth_observe(k, &streams, &mut ColsMut::full(out));
    }
    fn respond_into(
        &mut self,
        k: usize,
        signals: &[f64],
        rng: &mut eqimpact_stats::SimRng,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(self.n, 0.0);
        let streams = RowStreams::respond(rng, k);
        synth_respond(0..self.n, signals, &streams, out);
    }
}

impl ShardablePopulation for ShardSynthUsers {
    type Shard = ShardSynthShard;
    fn feature_width(&self) -> usize {
        2
    }
    fn into_row_shards(self, parts: usize) -> Vec<ShardSynthShard> {
        shard_bounds(self.n, parts)
            .into_iter()
            .map(|rows| ShardSynthShard { rows })
            .collect()
    }
    fn from_row_shards(shards: Vec<ShardSynthShard>) -> Self {
        ShardSynthUsers {
            n: shards.last().map(|s| s.rows.end).unwrap_or(0),
        }
    }
}

impl PopulationShard for ShardSynthShard {
    fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }
    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        synth_observe(k, streams, out);
    }
    fn respond_rows(&mut self, _k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        synth_respond(self.rows.clone(), signals, streams, out);
    }
}

/// Income-multiple-style lender with per-row signals (cheap retrain, so
/// the parallel sweep dominates, as in a production serving loop).
struct ShardThresholdAi;

impl AiSystem for ShardThresholdAi {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        self.signals_full(k, visible, out);
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

impl ShardableAi for ShardThresholdAi {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        let gate = visible.col(0);
        let income = visible.col(1);
        for (j, o) in out.iter_mut().enumerate() {
            *o = if gate[j] > 0.5 { 3.5 * income[j] } else { 0.0 };
        }
    }
}

/// Milliseconds taken by `run` (one full loop run returning the steps
/// it recorded), checking that it recorded `steps`.
fn timed_ms(steps: usize, run: impl FnOnce() -> usize) -> f64 {
    let start = Instant::now();
    let recorded = run();
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recorded, steps);
    elapsed
}

/// One timed sharded run (`shards == 0` times the sequential
/// [`LoopRunner`] instead — the pre-sharding hot path).
fn time_one_run(users: usize, steps: usize, shards: usize) -> f64 {
    let builder = LoopBuilder::new(ShardThresholdAi, ShardSynthUsers { n: users })
        .filter(MeanFilter::default())
        .delay(1)
        .record(RecordPolicy::Thin);
    if shards == 0 {
        let mut runner = builder.build();
        timed_ms(steps, || runner.run(steps, &mut SimRng::new(7)).steps())
    } else {
        let mut runner = builder.shards(shards).build_sharded();
        timed_ms(steps, || runner.run(steps, &mut SimRng::new(7)).steps())
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// P5: the one-lane sharded runner at the 100k-user scale. Self-timed
/// (one full run per sample). Samples are taken **round-robin** over the two legs,
/// with the starting leg **rotated** every round, so neither slow phases
/// of a shared host nor a fixed within-round position can bias a leg —
/// the legs do identical work (one shard is one stripe on the calling
/// thread), so any ordered-measurement difference is pure drift.
fn bench_sharded_loop(_c: &mut Criterion) {
    let quick = criterion::is_quick();
    let (users, steps) = (100_000usize, 50usize);
    let reps = if quick { 2 } else { 10 };

    println!("\n-- group: perf/sharded_loop ({users} users x {steps} steps) --");

    // configs[0] is the sequential LoopRunner baseline (shards == 0
    // sentinel); configs[1] drives one shard through the sharded runner.
    let configs = [0usize, 1];
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); configs.len()];
    // One warm-up pass, then the recorded rotated round-robin passes.
    time_one_run(users, steps, 0);
    for rep in 0..reps {
        for j in 0..configs.len() {
            let c = (j + rep) % configs.len();
            samples[c].push(time_one_run(users, steps, configs[c]));
        }
    }

    let baseline_ms = median(&mut samples[0]);
    let single_shard_ms = median(&mut samples[1]);
    println!("perf/sharded_loop/loop_runner_sequential           median {baseline_ms:>10.2} ms");
    println!(
        "perf/sharded_loop/shards=1                         median {single_shard_ms:>10.2} ms"
    );

    // The one-lane invariant (hardware-independent): one shard is one
    // stripe on the calling thread, so the sharded runner spawns nothing
    // and must stay within measurement noise of the plain sequential
    // LoopRunner. Spawning per shard instead of per leased lane once made
    // small shard counts a *slowdown* (8 shards ran at 0.94x on 1 core),
    // so any systematic gap is a regression.
    assert!(
        single_shard_ms <= baseline_ms * 1.25 + 5.0,
        "1-shard ShardedRunner ({single_shard_ms:.2} ms) regressed \
         vs the sequential LoopRunner ({baseline_ms:.2} ms)"
    );
}

/// Feature width of the columnar bench population: wide enough that the
/// per-column kernel passes dominate the fixed loop overhead.
const COLUMNAR_WIDTH: usize = 8;

/// Deterministic wide population for the columnar bench (no RNG in the
/// observe sweep, so the measured difference is pure scoring cost).
struct WideUsers {
    n: usize,
}

impl UserPopulation for WideUsers {
    fn user_count(&self) -> usize {
        self.n
    }
    fn observe_into(&mut self, k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
        out.reshape(self.n, COLUMNAR_WIDTH);
        for j in 0..COLUMNAR_WIDTH {
            for (i, cell) in out.col_mut(j).iter_mut().enumerate() {
                *cell = ((i * 31 + k * 17 + j * 7) % 100) as f64 / 100.0;
            }
        }
    }
    fn respond_into(&mut self, _k: usize, signals: &[f64], _rng: &mut SimRng, out: &mut Vec<f64>) {
        out.clear();
        out.extend(signals.iter().map(|&s| if s > 0.0 { 1.0 } else { 0.0 }));
    }
}

fn columnar_model() -> LogisticModel {
    LogisticModel {
        intercept: -0.25,
        coefficients: (0..COLUMNAR_WIDTH)
            .map(|j| 0.05 * (j + 1) as f64 * if j % 2 == 0 { 1.0 } else { -1.0 })
            .collect(),
        iterations: 0,
        converged: true,
    }
}

/// The pre-redesign row-major hot path: gather each row into a scratch
/// buffer, fold the dot product per row.
struct RowScoredAi {
    model: LogisticModel,
    buf: Vec<f64>,
}

impl AiSystem for RowScoredAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(visible.row_count());
        for i in 0..visible.row_count() {
            visible.copy_row_into(i, &mut self.buf);
            out.push(self.model.linear_score(&self.buf));
        }
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

/// The columnar hot path: one batched kernel sweep over the column
/// slices ([`LogisticModel::linear_scores_into`]).
struct BatchScoredAi {
    model: LogisticModel,
}

impl AiSystem for BatchScoredAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(visible.row_count(), 0.0);
        self.model.linear_scores_into(&visible.col_slices(), out);
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

/// One timed run of the columnar-vs-row loop (`columnar` picks the arm).
fn time_columnar_run(users: usize, steps: usize, columnar: bool) -> f64 {
    if columnar {
        let mut runner = LoopBuilder::new(
            BatchScoredAi {
                model: columnar_model(),
            },
            WideUsers { n: users },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .record(RecordPolicy::Thin)
        .build();
        timed_ms(steps, || runner.run(steps, &mut SimRng::new(11)).steps())
    } else {
        let mut runner = LoopBuilder::new(
            RowScoredAi {
                model: columnar_model(),
                buf: Vec::with_capacity(COLUMNAR_WIDTH),
            },
            WideUsers { n: users },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .record(RecordPolicy::Thin)
        .build();
        timed_ms(steps, || runner.run(steps, &mut SimRng::new(11)).steps())
    }
}

/// P8: the columnar feature plane. The same loop scored twice — once
/// through a row-gathering AI replicating the pre-redesign row-major hot
/// path, once through the batched column kernels — with the two paths
/// proven bit-identical on a small run before anything is timed.
/// Samples rotate round-robin as in P5.
fn bench_columnar(_c: &mut Criterion) {
    let quick = criterion::is_quick();
    let (users, steps) = (100_000usize, 50usize);
    let reps = if quick { 2 } else { 10 };

    println!(
        "\n-- group: perf/columnar ({users} users x {steps} steps, width {COLUMNAR_WIDTH}) --"
    );

    // The two arms are the same computation by the kernel bit-identity
    // contract — proven here, so the timing compares equal work.
    {
        let mut batched = LoopBuilder::new(
            BatchScoredAi {
                model: columnar_model(),
            },
            WideUsers { n: 1_000 },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .build();
        let mut gathered = LoopBuilder::new(
            RowScoredAi {
                model: columnar_model(),
                buf: Vec::new(),
            },
            WideUsers { n: 1_000 },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .build();
        assert_eq!(
            batched.run(5, &mut SimRng::new(11)),
            gathered.run(5, &mut SimRng::new(11)),
            "columnar and row-gathered scoring diverged"
        );
    }

    let mut samples: Vec<Vec<f64>> = (0..2).map(|_| Vec::with_capacity(reps)).collect();
    time_columnar_run(users, steps, true); // warm-up
    for rep in 0..reps {
        for j in 0..2 {
            let c = (j + rep) % 2;
            samples[c].push(time_columnar_run(users, steps, c == 1));
        }
    }

    let row_ms = median(&mut samples[0]);
    let col_ms = median(&mut samples[1]);
    let speedup = row_ms / col_ms;
    println!("perf/columnar/row_gather                           median {row_ms:>10.2} ms");
    println!(
        "perf/columnar/batch_kernels                        median {col_ms:>10.2} ms  speedup x{speedup:.2}"
    );

    // Hardware-independent invariant: the batched kernels must not lose
    // to the row gather they replaced — same math, strictly less work
    // per row (no gather, no per-row call) — modulo measurement noise.
    assert!(
        col_ms <= row_ms * 1.10 + 5.0,
        "columnar batch scoring ({col_ms:.2} ms) regressed vs the \
         row-gather baseline ({row_ms:.2} ms)"
    );
}

fn bench_loop_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/credit_loop");
    group.sample_size(10);
    for &users in &[100usize, 500, 1000] {
        group.bench_with_input(
            BenchmarkId::new("full_run_19_steps", users),
            &users,
            |b, &n| {
                let config = CreditConfig {
                    users: n,
                    steps: 19,
                    trials: 1,
                    seed: 1,
                    lender: LenderKind::Scorecard,
                    ..Default::default()
                };
                b.iter(|| run_trial(&config, 0));
            },
        );
    }
    group.finish();
}

/// The paper-scale credit render alone: the trial outcomes are built
/// once, then each iteration renders Table I and Figs. 2-5 into memory
/// (`fig4_user_adr.csv` is 2.9 MB) and writes no file.
fn bench_credit_render(c: &mut Criterion) {
    let config = ScenarioConfig::new(Scale::Paper);
    let outcomes: Vec<_> = (0..CreditScenario.trials(Scale::Paper))
        .map(|t| CreditScenario.run_trial(&config, t))
        .collect();
    let mut group = c.benchmark_group("perf/credit_render");
    group.sample_size(10);
    group.bench_function("paper_scale", |b| {
        b.iter(|| CreditScenario.render(&config, &outcomes))
    });
    group.finish();
}

/// The census income draw for 100k households in row order, as the
/// credit observe sweep makes it: household `i` draws its income for the
/// year of step `k` from `RowStreams::observe(root, k).for_row(i)`.
/// Prints ns per draw, the row's stream included, for
/// `IncomeTable::sample_income` and for the checked
/// `weighted_index` then `uniform_in` it stands for. The first pass
/// asserts, for every resampled year (steps 1 to 18, 2003 to 2020), that
/// the two draw the same bits and leave the stream in the same state.
/// Writes no file.
fn bench_census_income(_c: &mut Criterion) {
    const HOUSEHOLDS: usize = 100_000;
    let table = IncomeTable::embedded();
    let households = Population::generate(HOUSEHOLDS, FIRST_YEAR, &mut SimRng::new(2002))
        .expect("FIRST_YEAR is in range")
        .into_households();
    let root = SimRng::new(7);
    let years = (LAST_YEAR - FIRST_YEAR) as usize;
    let year_of = |k: usize| FIRST_YEAR + k as u32;
    let cut_draw = |year: u32, h: &Household, rng: &mut SimRng| {
        table
            .sample_income(year, h.race, rng)
            .expect("year in range")
    };
    let checked_draw = |year: u32, h: &Household, rng: &mut SimRng| {
        let shares = table.shares(year, h.race).expect("year in range");
        let bracket = &BRACKETS[rng.weighted_index(shares)];
        rng.uniform_in(bracket.lo, bracket.hi)
    };
    println!("\n-- group: perf/census_income ({HOUSEHOLDS} households in row order) --");
    for k in 1..=years {
        let streams = RowStreams::observe(&root, k);
        for (i, h) in households.iter().enumerate() {
            let mut fast = streams.for_row(i);
            let mut checked = fast.clone();
            let got = cut_draw(year_of(k), h, &mut fast);
            let want = checked_draw(year_of(k), h, &mut checked);
            assert!(
                got.to_bits() == want.to_bits() && fast.next_u64() == checked.next_u64(),
                "step {k} row {i}: sample_income differs from weighted_index then uniform_in"
            );
        }
    }
    let reps = if criterion::is_quick() { 6 } else { 36 };
    let mut ns_per_draw = [Vec::new(), Vec::new()];
    // Rotated round-robin over the two draws, one step's sweep per call;
    // the first round warms up and is not counted.
    for rep in 0..=reps {
        let k = 1 + rep % years;
        let streams = RowStreams::observe(&root, k);
        for j in 0..2 {
            let arm = (j + rep) % 2;
            let ns = if arm == 0 {
                sweep_ns(&households, &streams, year_of(k), cut_draw)
            } else {
                sweep_ns(&households, &streams, year_of(k), checked_draw)
            };
            if rep > 0 {
                ns_per_draw[arm].push(ns);
            }
        }
    }
    for (name, samples) in ["sample_income", "weighted_index_then_uniform_in"]
        .iter()
        .zip(&mut ns_per_draw)
    {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let per_draw = median(samples);
        println!(
            "perf/census_income/{name:<32} median {per_draw:>8.2} ns/draw, \
             min {min:>8.2} ({reps} sweeps)"
        );
    }
}

/// Nanoseconds per household of one sweep of `draw` over `households`
/// for `year`, each on its own row's stream.
fn sweep_ns(
    households: &[Household],
    streams: &RowStreams,
    year: u32,
    draw: impl Fn(u32, &Household, &mut SimRng) -> f64,
) -> f64 {
    let start = Instant::now();
    let sum: f64 = households
        .iter()
        .enumerate()
        .map(|(i, h)| draw(year, h, &mut streams.for_row(i)))
        .sum();
    criterion::black_box(sum);
    start.elapsed().as_nanos() as f64 / households.len() as f64
}

/// The paper-scale credit loop as its lender retrained it, one trial: each
/// step's feedback package in step order (a `StepSink` sees the buffers
/// the delay line later hands `retrain`), and the model each retrain
/// left, as the lender's checkpoint records `ScorecardLender::model()`.
#[derive(Default)]
struct RetrainCapture {
    packages: Vec<Feedback>,
    models: Vec<Option<LogisticModel>>,
}

impl StepSink for RetrainCapture {
    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        self.packages.push(Feedback {
            step: k,
            per_user: filtered.to_vec(),
            // The learner does not read the aggregate.
            aggregate: 0.0,
            visible: visible.clone(),
            signals: signals.to_vec(),
            actions: actions.to_vec(),
        });
    }

    fn wants_checkpoints(&self) -> bool {
        true
    }

    fn on_checkpoint(&mut self, _k: usize, checkpoint: &ModelCheckpoint) {
        let model = checkpoint
            .scalar("model.intercept")
            .map(|intercept| LogisticModel {
                intercept,
                coefficients: checkpoint
                    .field("model.coefficients")
                    .expect("a checkpointed model has coefficients")
                    .to_vec(),
                iterations: checkpoint
                    .scalar("model.iterations")
                    .expect("a checkpointed model has iterations")
                    as usize,
                converged: checkpoint.scalar("model.converged") == Some(1.0),
            });
        self.models.push(model);
    }
}

/// A model's intercept, coefficients, iterations and convergence as bits.
fn fitted_bits(model: Option<&LogisticModel>) -> Option<Vec<u64>> {
    model.map(|m| {
        let mut bits = vec![m.intercept.to_bits()];
        bits.extend(m.coefficients.iter().map(|c| c.to_bits()));
        bits.extend([m.iterations as u64, u64::from(m.converged)]);
        bits
    })
}

/// The rows `RetrainedLogistic::retrain` pushes for each retrained
/// package of a trial, in push order: `(h_i, c_i) → y_i` for every user
/// the signal reached, `h_i` being the previous package's filter output
/// (the prior, 0, before the first) and `c_i` the income code.
fn retrain_rows(packages: &[Feedback], retrains: usize) -> Vec<Vec<([f64; 2], f64)>> {
    let mut history = vec![0.0; packages.first().map_or(0, |p| p.actions.len())];
    packages[..retrains]
        .iter()
        .map(|p| {
            let code = p.visible.col(VISIBLE_INCOME_CODE);
            let rows = (0..p.actions.len())
                .filter(|&i| p.signals[i] > 0.0)
                .map(|i| ([history[i], code[i]], p.actions[i]))
                .collect();
            history.clone_from(&p.per_user);
            rows
        })
        .collect()
}

/// The learner's retrain on the paper-scale credit loop's own feedback.
/// Every trial's packages are captured once with a `StepSink`, so each
/// retrain pushes its rows in row order, as in the loop. The first pass
/// replays them through `RetrainedLogistic::retrain`, and through a
/// `GroupedTable` fed the learner's rows, and asserts that every fit
/// equals, bit for bit, the model the lender held after that retrain.
/// Prints ns per pushed row and µs per fit (the table's `push` and `fit`
/// timed apart), and µs per `retrain` call. Writes no file.
fn bench_retrain(_c: &mut Criterion) {
    let config = eqimpact_credit::scenario::trial_config(&ScenarioConfig::new(Scale::Paper));
    let captures: Vec<RetrainCapture> = (0..config.trials)
        .map(|trial| {
            let mut capture = RetrainCapture::default();
            eqimpact_credit::sim::run_trial_sunk(&config, trial, &mut capture);
            assert_eq!(
                capture.models.len() + config.delay,
                capture.packages.len(),
                "one checkpoint per retrain"
            );
            capture
        })
        .collect();
    let rows: Vec<_> = captures
        .iter()
        .map(|c| retrain_rows(&c.packages, c.models.len()))
        .collect();
    let fitter = LogisticRegression::default();
    for (capture, rows) in captures.iter().zip(&rows) {
        let mut learner = RetrainedLogistic::new("prev_adr", 0.0);
        let mut table = GroupedTable::new();
        for ((package, want), round) in capture.packages.iter().zip(&capture.models).zip(rows) {
            learner.retrain(package);
            for (x, y) in round {
                table.push(x, *y).expect("the loop's rows are well formed");
            }
            let want = fitted_bits(want.as_ref());
            assert!(
                fitted_bits(learner.model()) == want,
                "step {}: the replayed retrain differs from the loop's model",
                package.step
            );
            assert!(
                fitted_bits(table.fit(&fitter).ok().as_ref()) == want,
                "step {}: the table fit differs from the loop's model",
                package.step
            );
        }
    }
    let pushes: usize = rows.iter().flatten().map(Vec::len).sum();
    let fits: usize = captures.iter().map(|c| c.models.len()).sum();
    println!(
        "\n-- group: perf/retrain (paper-scale credit: {} trials, {fits} fits, \
         {pushes} pushed rows) --",
        captures.len()
    );
    let reps = if criterion::is_quick() { 5 } else { 30 };
    let (mut push_ns, mut fit_us, mut retrain_us) = (Vec::new(), Vec::new(), Vec::new());
    // The first pass warms up and is not counted.
    for rep in 0..=reps {
        let (mut push_s, mut fit_s) = (0.0, 0.0);
        for trial in &rows {
            let mut table = GroupedTable::new();
            for round in trial {
                let start = Instant::now();
                for (x, y) in round {
                    criterion::black_box(table.push(x, *y)).expect("well formed");
                }
                push_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                criterion::black_box(table.fit(&fitter)).expect("fits");
                fit_s += start.elapsed().as_secs_f64();
            }
        }
        let start = Instant::now();
        for capture in &captures {
            let mut learner = RetrainedLogistic::new("prev_adr", 0.0);
            for package in &capture.packages[..capture.models.len()] {
                learner.retrain(package);
            }
            criterion::black_box(learner.model());
        }
        let retrain_s = start.elapsed().as_secs_f64();
        if rep > 0 {
            push_ns.push(push_s * 1e9 / pushes as f64);
            fit_us.push(fit_s * 1e6 / fits as f64);
            retrain_us.push(retrain_s * 1e6 / fits as f64);
        }
    }
    for (name, unit, samples) in [
        ("push", "ns/row", &mut push_ns),
        ("fit", "us/fit", &mut fit_us),
        ("retrain", "us/retrain", &mut retrain_us),
    ] {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let per = median(samples);
        println!(
            "perf/retrain/{name:<38} median {per:>8.2} {unit}, min {min:>8.2} ({reps} passes)"
        );
    }
}

/// Every hiring loop at `scale` (each trial, both screeners) recorded
/// into an in-memory checkpointed trace, as `experiments record hiring`
/// writes them to disk, with its name; at paper scale, the audit
/// pipeline's corpus.
fn hiring_traces(scale: Scale) -> Vec<(String, Vec<u8>)> {
    let config = ScenarioConfig::new(scale);
    let mut traces = Vec::new();
    for trial in 0..HiringScenario.trials(scale) {
        for screener in [ScreenerKind::Adaptive, ScreenerKind::Credential] {
            let hiring = trial_config(&config, screener);
            let meta = TraceMeta {
                scenario: "hiring".to_string(),
                variant: variant_name(screener).to_string(),
                trial,
                scale,
                seed: hiring.seed,
                shards: hiring.shards,
                delay: hiring.delay,
                policy: hiring.policy,
            };
            let header = TraceHeader::from_meta(&meta).with_checkpoints();
            let mut sink = TraceStepSink::new(Vec::new(), &header).expect("header writes");
            run_trial_sunk(&hiring, trial, &mut sink);
            let name = format!("hiring-{}-trial{trial}", meta.variant);
            traces.push((name, sink.finish().expect("trace finishes")));
        }
    }
    traces
}

/// One frame of a decoded trace, in stream order.
enum Frame {
    Step(StepFrame),
    Checkpoint(ModelCheckpoint),
}

/// A trace decoded whole: what [`TraceWriter`] needs to write it again.
struct DecodedTrace {
    header: TraceHeader,
    groups: Option<TraceGroups>,
    frames: Vec<Frame>,
}

/// Reads every frame of `bytes`, checkpoints where they fall.
fn decode_trace(bytes: &[u8]) -> DecodedTrace {
    let mut reader = TraceReader::new(bytes).expect("trace opens");
    let mut frames = Vec::new();
    loop {
        let mut checkpoint = ModelCheckpoint::new();
        if reader
            .next_checkpoint(&mut checkpoint)
            .expect("checkpoint decodes")
        {
            frames.push(Frame::Checkpoint(checkpoint));
            continue;
        }
        let mut step = StepFrame::default();
        if !reader.next_step(&mut step).expect("step decodes") {
            break;
        }
        frames.push(Frame::Step(step));
    }
    DecodedTrace {
        header: reader.header().clone(),
        groups: reader.groups().cloned(),
        frames,
    }
}

/// Reads every frame of `bytes` into one reused step and checkpoint (the
/// reader's cost alone) and returns the frame count.
fn read_trace(bytes: &[u8]) -> usize {
    let mut reader = TraceReader::new(bytes).expect("trace opens");
    let (mut step, mut checkpoint) = (StepFrame::default(), ModelCheckpoint::new());
    let mut frames = 0;
    loop {
        if !reader
            .next_checkpoint(&mut checkpoint)
            .expect("checkpoint decodes")
            && !reader.next_step(&mut step).expect("step decodes")
        {
            return frames;
        }
        frames += 1;
    }
}

/// Writes a decoded trace again, frame by frame, into a buffer of
/// `capacity` bytes.
fn encode_trace(trace: &DecodedTrace, capacity: usize) -> Vec<u8> {
    let out = Vec::with_capacity(capacity);
    let mut writer = TraceWriter::new(out, &trace.header).expect("header writes");
    if let Some(groups) = &trace.groups {
        let labels: Vec<&str> = groups.labels.iter().map(String::as_str).collect();
        writer
            .write_groups(&labels, &groups.codes)
            .expect("groups write");
    }
    for frame in &trace.frames {
        match frame {
            Frame::Step(s) => writer.write_step(&s.visible, &s.signals, &s.actions, &s.filtered),
            Frame::Checkpoint(c) => writer.write_checkpoint(c),
        }
        .expect("frame writes");
    }
    writer.finish().expect("footer writes")
}

/// The f64 bit patterns of every column value of a decoded trace, in
/// stream order.
fn value_bits(trace: &DecodedTrace) -> Vec<u64> {
    let mut bits = Vec::new();
    for frame in &trace.frames {
        match frame {
            Frame::Step(s) => {
                for j in 0..s.visible.width() {
                    bits.extend(s.visible.col(j).iter().map(|v| v.to_bits()));
                }
                for channel in [&s.signals, &s.actions, &s.filtered] {
                    bits.extend(channel.iter().map(|v| v.to_bits()));
                }
            }
            Frame::Checkpoint(c) => {
                for (_, values) in c.fields() {
                    bits.extend(values.iter().map(|v| v.to_bits()));
                }
            }
        }
    }
    bits
}

/// The trace codec on the paper-scale hiring audit corpus (10
/// checkpointed traces), recorded in memory once and decoded once. Each
/// call re-encodes every trace from its decoded frames with
/// [`TraceWriter`], or reads every trace through with [`TraceReader`];
/// both run on the production columns in row order and print ns per
/// value. The re-encoded bytes must equal the recorded bytes, and
/// decoding them must give back every value bit for bit. Writes no file.
fn bench_trace_codec(_c: &mut Criterion) {
    let recorded: Vec<Vec<u8>> = hiring_traces(Scale::Paper)
        .into_iter()
        .map(|(_, bytes)| bytes)
        .collect();
    let decoded: Vec<DecodedTrace> = recorded.iter().map(|b| decode_trace(b)).collect();
    let codes: usize = decoded
        .iter()
        .filter_map(|t| t.groups.as_ref())
        .map(|g| g.codes.len())
        .sum();
    let values = codes + decoded.iter().map(|t| value_bits(t).len()).sum::<usize>();
    let bytes: usize = recorded.iter().map(Vec::len).sum();
    println!(
        "\n-- group: perf/trace_codec (paper-scale hiring audit corpus: {} traces, \
         {values} values, {bytes} B) --",
        recorded.len()
    );
    for (trace, bytes) in decoded.iter().zip(&recorded) {
        let encoded = encode_trace(trace, bytes.len());
        assert!(
            encoded == *bytes,
            "re-encoding {} differs from the recorded bytes",
            trace.header.variant
        );
        let again = decode_trace(&encoded);
        assert!(
            value_bits(&again) == value_bits(trace)
                && again.groups == trace.groups
                && again.header == trace.header,
            "{} does not round-trip bit for bit",
            trace.header.variant
        );
    }
    let reps = if criterion::is_quick() { 5 } else { 30 };
    let time = |name: &str, pass: &dyn Fn()| {
        // The first call warms up and is not counted.
        pass();
        let mut ns_per_value: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                pass();
                start.elapsed().as_nanos() as f64 / values as f64
            })
            .collect();
        let min = ns_per_value.iter().copied().fold(f64::INFINITY, f64::min);
        let per_value = median(&mut ns_per_value);
        println!(
            "perf/trace_codec/{name:<30} median {per_value:>8.2} ns/value, \
             min {min:>8.2} ({reps} passes)"
        );
    };
    time("encode_paper_hiring", &|| {
        for (trace, bytes) in decoded.iter().zip(&recorded) {
            criterion::black_box(encode_trace(trace, bytes.len()));
        }
    });
    time("decode_paper_hiring", &|| {
        for bytes in &recorded {
            criterion::black_box(read_trace(bytes));
        }
    });
}

/// The demographic-parity strata a sweep pools for `candidate`: per
/// group label, every user's share of positive decisions, in trace order
/// and then user order, the order `run_sweep` hands them to the
/// bootstrap.
fn parity_strata(
    sources: &[&dyn TraceSource],
    candidate: &CandidateSpec,
) -> BTreeMap<String, Vec<f64>> {
    let mut strata: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for source in sources {
        let mut input = source.open().expect("trace opens");
        let eval = HiringSweep
            .evaluate(&mut input, candidate)
            .expect("trace evaluates");
        let record = &eval.outcome.counterfactual;
        let steps = record.steps();
        let groups = eval.outcome.groups.as_ref().expect("traces carry groups");
        for (label, members) in groups.labels.iter().zip(groups.index_sets()) {
            let shares = members.iter().map(|&i| {
                let positive = (0..steps)
                    .filter(|&k| record.signals(k)[i] > candidate.threshold)
                    .count();
                positive as f64 / steps as f64
            });
            strata.entry(label.clone()).or_default().extend(shares);
        }
    }
    strata
}

/// The counterfactual sweep at Quick scale: the hiring traces are
/// recorded in memory once, then each iteration sweeps the default grid
/// on a one-lane budget. Then `bootstrap_gap_ci` alone, at the sweep's
/// resamples and level, on the parity strata the sweep pools for its
/// first candidate, in the sweep's order rather than a synthetic sample,
/// printed per draw. Writes no file.
fn bench_sweep(c: &mut Criterion) {
    let traces: Vec<MemTrace> = hiring_traces(Scale::Quick)
        .into_iter()
        .map(|(name, bytes)| MemTrace::new(name, bytes))
        .collect();
    let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();
    let grid = HiringSweep.default_grid();
    let config = SweepConfig::default();
    let budget = ThreadBudget::new(1);
    let mut group = c.benchmark_group("perf/sweep");
    group.sample_size(10);
    group.bench_function("hiring_quick_default_grid", |b| {
        b.iter(|| run_sweep(&HiringSweep, &sources, &grid, &config, &budget).expect("sweep runs"))
    });
    group.finish();

    let strata = parity_strata(&sources, &grid.candidates()[0]);
    let views: Vec<&[f64]> = strata.values().map(Vec::as_slice).collect();
    let draws = config.resamples * views.iter().map(|v| v.len()).sum::<usize>();
    let reps = if criterion::is_quick() { 5 } else { 40 };
    let mut ns_per_draw: Vec<f64> = (0..=reps)
        .map(|rep| {
            let mut rng = SimRng::new(config.seed).split(rep as u64);
            let start = Instant::now();
            criterion::black_box(bootstrap_gap_ci(
                &views,
                config.resamples,
                CI_LEVEL,
                &mut rng,
            ));
            start.elapsed().as_nanos() as f64 / draws as f64
        })
        .collect();
    // The first call warms up and is not counted.
    let per_draw = median(&mut ns_per_draw[1..]);
    println!(
        "perf/sweep/bootstrap_gap_ci/parity_strata          median {per_draw:>10.2} ns/draw \
         ({draws} draws over {} strata, {reps} calls)",
        views.len()
    );
}

fn bench_irls(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/irls");
    for &n in &[1_000usize, 10_000] {
        let mut rng = SimRng::new(3);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.uniform(), rng.uniform_in(-1.0, 1.0)])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| {
                if rng.bernoulli(sigmoid(-4.0 * r[0] + 3.0 * r[1])) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let data = Dataset::new(&rows, &labels).unwrap();
        group.bench_with_input(BenchmarkId::new("fit", n), &data, |b, data| {
            let fitter = LogisticRegression::default();
            b.iter(|| fitter.fit(data).unwrap());
        });
    }
    group.finish();
}

fn bench_markov_operator(c: &mut Criterion) {
    let ms = IfsBuilder::new(1)
        .map_const(affine1d(0.5, 0.0), 0.5)
        .map_const(affine1d(0.5, 0.5), 0.5)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("perf/markov");
    group.bench_function("operator_apply", |b| {
        b.iter(|| markov_operator_apply(&ms, |x| x[0] * x[0], &[0.37]))
    });
    group.bench_function("trajectory_10k_steps", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(5);
            ms.trajectory(&[0.5], 10_000, &mut rng)
        })
    });
    group.finish();
}

fn bench_invariant_measure(c: &mut Criterion) {
    let ms = IfsBuilder::new(1)
        .map_const(affine1d(0.5, 0.0), 0.5)
        .map_const(affine1d(0.5, 0.5), 0.5)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("perf/invariant");
    group.sample_size(10);
    group.bench_function("particle_estimation_1k", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(6);
            estimate_invariant_measure(
                &ms,
                &ParticleMeasure::dirac(&[0.9]),
                1_000,
                100,
                0.02,
                &mut rng,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_loop,
    bench_columnar,
    bench_loop_step,
    bench_credit_render,
    bench_census_income,
    bench_retrain,
    bench_trace_codec,
    bench_sweep,
    bench_irls,
    bench_markov_operator,
    bench_invariant_measure
);
criterion_main!(benches);
