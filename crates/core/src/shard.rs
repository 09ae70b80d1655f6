//! Deterministic intra-trial sharding: one closed-loop step, split over
//! cores.
//!
//! The paper's protocol is embarrassingly parallel over users *within* a
//! step — decisions and responses are per-user, only the feedback filter
//! aggregates. [`ShardedRunner`] exploits exactly that shape: it
//! partitions the population's rows into contiguous shards, runs the
//! observe → signal → respond sweep of each shard through one
//! [`run_striped`] call per step (over lanes leased once per run from
//! the process-wide [`ThreadBudget`]), and re-joins at a per-step
//! barrier where the [`FeedbackFilter`], the [`LoopRecord`] and
//! retraining run sequentially on the merged buffers — the same
//! [`StepTail`] as [`LoopRunner`](crate::closed_loop::LoopRunner).
//!
//! # The determinism contract
//!
//! The headline guarantee is that the produced [`LoopRecord`] is
//! **bit-identical for any shard count, including the sequential
//! [`LoopRunner`](crate::closed_loop::LoopRunner)**. Randomness therefore
//! cannot flow through one sequential stream (its consumption order would
//! depend on the partition). Instead, both runners derive *index-keyed*
//! streams through [`RowStreams`]: the stream feeding row `i` at step `k`
//! is a pure function of `(root seed, phase, k, i)` — never of the shard
//! layout or of how much any other row consumed. A shard-capable block
//! draws **all** of row `i`'s randomness from `RowStreams::for_row(i)`;
//! its sequential `*_into` methods must route through the same derivation
//! (the blanket pattern is to implement the sequential method as the
//! full-range shard call), which is what makes the cross-shard property
//! tests exact rather than approximate.
//!
//! Blocks opt in through three traits:
//!
//! * [`ShardableAi`] — batched signal computation over a shard's columns
//!   from `&self` (the model is read-only during the sweep; it mutates
//!   only in `retrain`, at the barrier);
//! * [`ShardablePopulation`] — partitions the population into owned,
//!   [`Send`] row shards;
//! * [`PopulationShard`] — the per-shard observe/respond sweep over the
//!   shard's own rows.
//!
//! Third-party blocks that only implement the base traits keep working
//! everywhere the sequential runner is used; sharding simply requires the
//! extra impls.

use crate::closed_loop::{
    retrain_always, AiSystem, FeedbackFilter, StepTail, StepView, UserPopulation,
};
use crate::features::FeatureMatrix;
use crate::pool::{run_striped, ThreadBudget};
use crate::recorder::{LoopRecord, RecordPolicy, StepSink};
use eqimpact_stats::SimRng;
use eqimpact_telemetry::metrics as tm;
use std::ops::Range;

/// Phase label of the observation sweep (arbitrary fixed constant).
const OBSERVE_PHASE: u64 = 0x9a1c_55d1_0b93_7d01;

/// Phase label of the response sweep.
const RESPOND_PHASE: u64 = 0x3c6e_f372_fe94_f82a;

/// Index-keyed per-row RNG streams for one phase of one step.
///
/// Built from the loop's root stream plus `(phase, step)`;
/// [`Self::for_row`] then derives the stream of a single global row. The
/// derivation is label-based ([`SimRng::split`]), so it depends only on
/// the root *seed* — every shard can hold its own copy and rows can be
/// visited in any order or from any thread without changing a single
/// sample.
///
/// Seed-keyed also means **state-insensitive**: blocks driven through
/// `RowStreams` never consume the `&mut SimRng` a runner passes them, so
/// two `run()` calls sharing one rng replay the same draws (step labels
/// restart at 0) rather than continuing the stream. Give each run its
/// own stream — e.g. `&mut rng.split(run_index)` — when independent
/// randomness is wanted.
#[derive(Debug, Clone)]
pub struct RowStreams {
    base: SimRng,
}

impl RowStreams {
    /// Streams of the observation sweep of step `k`.
    pub fn observe(rng: &SimRng, k: usize) -> Self {
        RowStreams {
            base: rng.split(OBSERVE_PHASE).split(k as u64),
        }
    }

    /// Streams of the response sweep of step `k`.
    pub fn respond(rng: &SimRng, k: usize) -> Self {
        RowStreams {
            base: rng.split(RESPOND_PHASE).split(k as u64),
        }
    }

    /// The stream feeding global row `row` in this phase.
    #[inline]
    pub fn for_row(&self, row: usize) -> SimRng {
        self.base.split(row as u64)
    }
}

/// Immutable columnar view of a contiguous block of global rows
/// `[start, start + len)`: one slice per feature column, each covering
/// exactly those rows.
///
/// The covered rows are reported by their **global** range so shard code
/// never has to translate offsets (and cannot accidentally key RNG
/// streams by a local index); the column slices themselves are local —
/// `col(j)[local]` is global row `rows().start + local`. This is the
/// batched-kernel shape: every column streams linearly.
#[derive(Debug, Clone)]
pub struct ColsView<'a> {
    cols: Vec<&'a [f64]>,
    rows: Range<usize>,
}

impl<'a> ColsView<'a> {
    /// Wraps per-column slices as the global rows `rows`.
    ///
    /// # Panics
    /// Panics when any column's length differs from `rows.len()`.
    pub fn new(cols: Vec<&'a [f64]>, rows: Range<usize>) -> Self {
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(
                col.len(),
                rows.len(),
                "ColsView: column {j} length mismatch"
            );
        }
        ColsView { cols, rows }
    }

    /// The global row range covered by this view.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Cells per row (number of columns).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Column `j` over this view's rows (`col(j)[local]` is global row
    /// `rows().start + local`).
    ///
    /// # Panics
    /// Panics when `j >= width()`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        self.cols[j]
    }

    /// All columns, in order — the shape the batched scoring kernels
    /// take.
    pub fn cols(&self) -> &[&'a [f64]] {
        &self.cols
    }
}

/// The full-range [`ColsView`] over a feature matrix — the sequential
/// path of a sharded signal computation (see
/// [`ShardableAi::signals_full`]).
pub fn full_cols(visible: &FeatureMatrix) -> ColsView<'_> {
    ColsView::new(visible.col_slices(), 0..visible.row_count())
}

/// Mutable counterpart of [`ColsView`] — the observe sweep's output.
#[derive(Debug)]
pub struct ColsMut<'a> {
    cols: Vec<&'a mut [f64]>,
    rows: Range<usize>,
}

impl<'a> ColsMut<'a> {
    /// Wraps per-column slices as the global rows `rows`.
    ///
    /// # Panics
    /// Panics when any column's length differs from `rows.len()`.
    pub fn new(cols: Vec<&'a mut [f64]>, rows: Range<usize>) -> Self {
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), rows.len(), "ColsMut: column {j} length mismatch");
        }
        ColsMut { cols, rows }
    }

    /// The full-range mutable view over a feature matrix — the
    /// sequential path of a sharded observe sweep.
    pub fn full(visible: &'a mut FeatureMatrix) -> Self {
        let rows = 0..visible.row_count();
        ColsMut::new(visible.col_slices_mut(), rows)
    }

    /// The global row range covered by this view.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Cells per row (number of columns).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Column `j`, mutable (`col_mut(j)[local]` is global row
    /// `rows().start + local`).
    ///
    /// # Panics
    /// Panics when `j >= width()`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        self.cols[j]
    }

    /// Two distinct columns, both mutable — the shape of observe sweeps
    /// that write a code column and a raw-value column per row.
    ///
    /// # Panics
    /// Panics when `a == b` or either index is out of range.
    pub fn cols_pair_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(a != b, "cols_pair_mut: columns must be distinct");
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.cols.split_at_mut(hi);
        let (x, y) = (&mut *head[lo], &mut *tail[0]);
        if a < b {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// Reborrows as a shared [`ColsView`] (observe's output becomes the
    /// signal sweep's input).
    pub fn as_view(&self) -> ColsView<'_> {
        ColsView {
            cols: self.cols.iter().map(|c| &**c).collect(),
            rows: self.rows.clone(),
        }
    }
}

/// An AI system whose signal computation can run batched and
/// concurrently.
///
/// [`Self::signals_batch`] is the **single scoring entry point**: the
/// sharded runner calls it per shard with that shard's columns, and the
/// sequential path reaches it through the provided
/// [`Self::signals_full`] bridge, so every implementation writes the
/// scoring routine exactly once.
///
/// The model is read-only (`&self`) during the sweep — it only mutates in
/// [`AiSystem::retrain`], which the sharded runner calls at the step
/// barrier, after every worker has joined. To keep the sequential and
/// sharded paths bit-identical, implement [`AiSystem::signals_into`] as
/// the one-line delegation to [`Self::signals_full`].
///
/// Per-user state (score histories, exclusion flags, …) must be sized
/// and maintained in `retrain` — the `&self` sweep cannot resize it. A
/// stateful AI block is a **per-population** block: build a fresh one
/// instead of reusing it against a differently sized population.
pub trait ShardableAi: AiSystem + Sync {
    /// Computes signals for the rows of `visible`, writing `out[j]` for
    /// global row `visible.rows().start + j`. Must read only the given
    /// rows (other shards' rows may still be in flight).
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]);

    /// The sequential bridge: sizes `out` and scores the whole matrix
    /// through [`Self::signals_batch`]. The canonical
    /// [`AiSystem::signals_into`] of a [`ShardableAi`] is
    /// `self.signals_full(k, visible, out)`.
    fn signals_full(&self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(visible.row_count(), 0.0);
        self.signals_batch(k, &full_cols(visible), out);
    }
}

/// One contiguous, owned row-partition of a [`ShardablePopulation`].
///
/// Shards are moved onto scoped worker threads, so they own their slice
/// of the per-user state. All randomness of global row `i` must come from
/// `streams.for_row(i)` — that is the whole determinism contract.
pub trait PopulationShard: Send {
    /// The global rows this shard owns.
    fn rows(&self) -> Range<usize>;

    /// Advances this shard's users to step `k` and writes their visible
    /// feature columns. `out` covers exactly [`Self::rows`] and may hold
    /// an older step's values, so an implementation writes every cell.
    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>);

    /// Responds to this shard's signals (`signals[j]` is global row
    /// `rows().start + j`), writing the actions in the same layout.
    fn respond_rows(&mut self, k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]);
}

/// A population that can be partitioned into independently steppable,
/// contiguous row shards.
///
/// To keep the sequential and sharded paths bit-identical, implement
/// [`UserPopulation::observe_into`] / [`UserPopulation::respond_into`] as
/// the full-range calls of the shard sweep (see the module docs).
pub trait ShardablePopulation: UserPopulation + Sized {
    /// The owned shard type.
    type Shard: PopulationShard;

    /// Width of the visible feature rows (must match what
    /// [`PopulationShard::observe_cols`] writes).
    fn feature_width(&self) -> usize;

    /// Partitions the population into at most `parts` contiguous shards
    /// covering `0..user_count()` in order (use [`shard_bounds`]).
    fn into_row_shards(self, parts: usize) -> Vec<Self::Shard>;

    /// Reassembles a population from its shards (inverse of
    /// [`Self::into_row_shards`]).
    fn from_row_shards(shards: Vec<Self::Shard>) -> Self;
}

/// Contiguous, near-equal partition of `rows` into at most `parts`
/// non-empty ranges (fewer when `rows < parts`; empty when `rows == 0`).
///
/// # Panics
/// Panics when `parts == 0`.
pub fn shard_bounds(rows: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "shard_bounds: zero parts");
    let parts = parts.min(rows.max(1));
    if rows == 0 {
        return Vec::new();
    }
    let base = rows / parts;
    let extra = rows % parts;
    let mut bounds = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        bounds.push(start..start + len);
        start += len;
    }
    bounds
}

/// The sharded loop runner: same wiring as
/// [`LoopRunner`](crate::closed_loop::LoopRunner) — AI system, population,
/// filter, delay line — but each step's user sweep is partitioned over
/// row shards and striped over the lanes the run leased.
///
/// Per step: every shard runs observe → signal → respond over its own
/// rows, writing into disjoint sub-slices of the step buffers; at the
/// step barrier the main thread applies the [`FeedbackFilter`] to the
/// merged buffers, records the step, and retrains through the delay line
/// — the sequential runner's [`StepTail`]. See the module docs for the
/// determinism contract.
///
/// Cost model: one run takes one lease from the [`ThreadBudget`]. Each
/// step is one [`run_striped`] call: shard `s` runs on stripe
/// `s % lanes`, stripe 0 on the calling thread, so a step costs
/// `lanes − 1` scoped spawns (about 40 µs each with its join on a
/// 2-vCPU KVM guest) and none at all on a one-lane lease, whatever the
/// shard count. An over-sharded run therefore degrades to fewer lanes —
/// and to a plain sequential sweep on a fully leased budget. The
/// filter/record/retrain barrier is sequential, so Amdahl's law still
/// bounds the speedup by its share of a step; for tiny populations the
/// sequential [`LoopRunner`](crate::closed_loop::LoopRunner) remains the
/// better choice.
///
/// Build one with
/// [`LoopBuilder::shards`](crate::closed_loop::LoopBuilder::shards) +
/// [`build_sharded`](crate::closed_loop::LoopBuilder::build_sharded).
pub struct ShardedRunner<S, P: ShardablePopulation, F> {
    ai: S,
    shards: Vec<P::Shard>,
    filter: F,
    policy: RecordPolicy,
    budget: &'static ThreadBudget,
    user_count: usize,
    width: usize,
    tail: StepTail,
    visible: FeatureMatrix,
    signals: Vec<f64>,
    actions: Vec<f64>,
}

impl<S: ShardableAi, P: ShardablePopulation, F: FeedbackFilter> ShardedRunner<S, P, F> {
    /// Creates a runner over at most `shards` shards, leasing its lanes
    /// from `budget`. `shards == 0` means auto: the lanes `budget` could
    /// lease right now (the caller's own lane plus whatever is free — not
    /// the raw core count, so a run nested under trial striping resolves
    /// to what it can actually use). Any request is clamped to the
    /// population size (a shard needs at least one row).
    /// See [`LoopRunner::new`](crate::closed_loop::LoopRunner::new) for
    /// the delay semantics.
    ///
    /// # Panics
    /// Panics when the population's
    /// [`into_row_shards`](ShardablePopulation::into_row_shards) does not
    /// return an in-order, gapless partition of `0..user_count()` — a
    /// broken partition would otherwise mis-route buffer slices and
    /// corrupt records silently.
    pub fn with_budget(
        ai: S,
        population: P,
        filter: F,
        delay: usize,
        shards: usize,
        budget: &'static ThreadBudget,
    ) -> Self {
        let shards = if shards == 0 {
            budget.available_lanes()
        } else {
            shards
        };
        let user_count = population.user_count();
        let shards = shards.min(user_count.max(1));
        let width = population.feature_width();
        let shards = population.into_row_shards(shards);
        let mut next = 0;
        for (s, shard) in shards.iter().enumerate() {
            let rows = shard.rows();
            assert_eq!(
                rows.start, next,
                "shard {s} starts at row {} but the partition is at row {next}",
                rows.start
            );
            next = rows.end;
        }
        assert_eq!(next, user_count, "shards must cover every row exactly once");
        ShardedRunner {
            ai,
            shards,
            filter,
            policy: RecordPolicy::Full,
            budget,
            user_count,
            width,
            tail: StepTail::new(delay),
            visible: FeatureMatrix::default(),
            signals: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// The actual number of shards (≤ the requested count; capped by the
    /// user count).
    #[cfg(test)]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sets the record policy (see [`RecordPolicy`]).
    pub fn set_record_policy(&mut self, policy: RecordPolicy) {
        self.policy = policy;
    }

    /// Decomposes the runner back into its blocks, reassembling the
    /// population from its shards.
    pub fn into_parts(self) -> (S, P, F) {
        (self.ai, P::from_row_shards(self.shards), self.filter)
    }

    /// Runs `steps` passes of the loop, returning the telemetry selected
    /// by the record policy. Bit-identical to
    /// [`LoopRunner::run`](crate::closed_loop::LoopRunner::run) for
    /// blocks honouring the [`RowStreams`] contract, for any shard count.
    pub fn run(&mut self, steps: usize, rng: &mut SimRng) -> LoopRecord {
        self.run_with_sink(steps, rng, &mut ())
    }

    /// [`Self::run`] with a [`StepSink`] observing every step's raw
    /// telemetry. The sink runs at the sequential step barrier (after the
    /// filter, before retraining), so it sees the merged buffers in step
    /// order — identical to what the sequential runner's sink sees.
    ///
    /// Leases lanes from the runner's [`ThreadBudget`] once for the whole
    /// run; they return to the budget when the run returns or unwinds.
    ///
    /// # Panics
    /// Re-raises a shard's panic with its own payload once every other
    /// shard of that step has finished.
    pub fn run_with_sink<K: StepSink + ?Sized>(
        &mut self,
        steps: usize,
        rng: &mut SimRng,
        sink: &mut K,
    ) -> LoopRecord {
        // One lease per run (not per step): the budget grants what is
        // free, down to the caller's own lane — in which case every
        // sweep runs on the calling thread.
        let lease = self.budget.lease(self.shards.len());
        let n = self.user_count;
        let mut record = LoopRecord::with_policy(n, self.policy);
        record.reserve(steps);
        eqimpact_telemetry::progress::add_goal(steps as u64);

        for k in 0..steps {
            // The tail left a recycled package's buffers here (empty in
            // the first steps); the shards overwrite every cell.
            self.visible.reshape(n, self.width);
            self.signals.resize(n, 0.0);
            self.actions.resize(n, 0.0);
            let observe = RowStreams::observe(rng, k);
            let respond = RowStreams::respond(rng, k);
            // Peel each shard's disjoint sub-slice off every column (and
            // off the flat signal/action buffers): `take` +
            // `split_at_mut` hands each shard `rows.len()` elements per
            // column without unsafe aliasing.
            let mut vis_rest: Vec<&mut [f64]> = self.visible.col_slices_mut();
            let mut sig_rest = &mut self.signals[..];
            let mut act_rest = &mut self.actions[..];
            let mut sweeps = Vec::with_capacity(self.shards.len());
            for shard in self.shards.iter_mut() {
                let rows = shard.rows();
                let mut cols = Vec::with_capacity(self.width);
                for slot in vis_rest.iter_mut() {
                    let (head, tail) = std::mem::take(slot).split_at_mut(rows.len());
                    cols.push(head);
                    *slot = tail;
                }
                let (sig, rest) = sig_rest.split_at_mut(rows.len());
                sig_rest = rest;
                let (act, rest) = act_rest.split_at_mut(rows.len());
                act_rest = rest;
                sweeps.push(ShardSweep {
                    shard,
                    cols: ColsMut::new(cols, rows),
                    sig,
                    act,
                });
            }
            // Every shard has finished (each wrote only its disjoint
            // slice) before the sequential tail below reads the merged
            // buffers.
            let ai = &self.ai;
            run_striped(&lease, sweeps, |sweep| sweep.run(ai, k, &observe, &respond));

            // The step barrier: the sequential runner's tail, on the
            // merged buffers.
            let step = StepView {
                k,
                visible: &mut self.visible,
                signals: &mut self.signals,
                actions: &mut self.actions,
            };
            let Ok(_) = self.tail.step(
                &mut self.ai,
                &mut self.filter,
                step,
                &mut record,
                sink,
                retrain_always,
            );
            tm::LOOP_STEPS.incr();
        }
        record
    }
}

/// One shard's slice of one step: the shard and its own sub-slices of the
/// step buffers, moved onto the stripe that sweeps it.
struct ShardSweep<'a, Sh> {
    shard: &'a mut Sh,
    cols: ColsMut<'a>,
    sig: &'a mut [f64],
    act: &'a mut [f64],
}

impl<Sh: PopulationShard> ShardSweep<'_, Sh> {
    /// Observe → signal → respond over the shard's rows. Each phase runs
    /// under its telemetry span, so in a sharded run the
    /// `loop.observe/signal/respond` counts are `steps × shards` — still
    /// deterministic for a fixed shard count.
    fn run<S: ShardableAi>(mut self, ai: &S, k: usize, observe: &RowStreams, respond: &RowStreams) {
        {
            let _phase = tm::LOOP_OBSERVE.enter();
            self.shard.observe_cols(k, observe, &mut self.cols);
        }
        {
            let _phase = tm::LOOP_SIGNAL.enter();
            ai.signals_batch(k, &self.cols.as_view(), self.sig);
        }
        {
            let _phase = tm::LOOP_RESPOND.enter();
            self.shard.respond_rows(k, self.sig, respond, self.act);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::{Feedback, LoopBuilder};

    /// Shard-invariant synthetic population: every cell and action of row
    /// `i` comes from `streams.for_row(i)`.
    struct NoisyUsers {
        n: usize,
        width: usize,
    }

    struct NoisyShard {
        rows: Range<usize>,
        width: usize,
    }

    fn observe_noisy(k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        for (j, i) in out.rows().enumerate() {
            let mut r = streams.for_row(i);
            for c in 0..out.width() {
                out.col_mut(c)[j] = r.uniform() + k as f64;
            }
        }
    }

    fn respond_noisy(rows: Range<usize>, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        for (j, i) in rows.enumerate() {
            let mut r = streams.for_row(i);
            out[j] = if r.bernoulli(0.3 + 0.1 * signals[j].clamp(0.0, 5.0)) {
                1.0
            } else {
                0.0
            };
        }
    }

    impl UserPopulation for NoisyUsers {
        fn user_count(&self) -> usize {
            self.n
        }
        fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix) {
            out.reshape(self.n, self.width);
            let streams = RowStreams::observe(rng, k);
            observe_noisy(k, &streams, &mut ColsMut::full(out));
        }
        fn respond_into(
            &mut self,
            k: usize,
            signals: &[f64],
            rng: &mut SimRng,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.resize(self.n, 0.0);
            let streams = RowStreams::respond(rng, k);
            respond_noisy(0..self.n, signals, &streams, out);
        }
    }

    impl ShardablePopulation for NoisyUsers {
        type Shard = NoisyShard;
        fn feature_width(&self) -> usize {
            self.width
        }
        fn into_row_shards(self, parts: usize) -> Vec<NoisyShard> {
            shard_bounds(self.n, parts)
                .into_iter()
                .map(|rows| NoisyShard {
                    rows,
                    width: self.width,
                })
                .collect()
        }
        fn from_row_shards(shards: Vec<NoisyShard>) -> Self {
            let width = shards.first().map(|s| s.width).unwrap_or(0);
            let n = shards.last().map(|s| s.rows.end).unwrap_or(0);
            NoisyUsers { n, width }
        }
    }

    impl PopulationShard for NoisyShard {
        fn rows(&self) -> Range<usize> {
            self.rows.clone()
        }
        fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
            observe_noisy(k, streams, out);
        }
        fn respond_rows(
            &mut self,
            _k: usize,
            signals: &[f64],
            streams: &RowStreams,
            out: &mut [f64],
        ) {
            respond_noisy(self.rows.clone(), signals, streams, out);
        }
    }

    /// Level-tracking AI: signals are a pure per-row function of the
    /// features and the (barrier-updated) level.
    struct LevelAi {
        level: f64,
    }

    impl AiSystem for LevelAi {
        fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
            self.signals_full(k, visible, out);
        }
        fn retrain(&mut self, _k: usize, feedback: &Feedback) {
            self.level = feedback.aggregate;
        }
    }

    impl ShardableAi for LevelAi {
        fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
            for (j, o) in out.iter_mut().enumerate() {
                let features: f64 = (0..visible.width()).map(|c| visible.col(c)[j]).sum();
                *o = self.level + 0.1 * features;
            }
        }
    }

    fn sequential_record(n: usize, width: usize, steps: usize, seed: u64) -> LoopRecord {
        let mut runner = LoopBuilder::new(LevelAi { level: 0.5 }, NoisyUsers { n, width })
            .delay(1)
            .build();
        runner.run(steps, &mut SimRng::new(seed))
    }

    fn sharded_record(
        n: usize,
        width: usize,
        steps: usize,
        seed: u64,
        shards: usize,
    ) -> LoopRecord {
        let mut runner = LoopBuilder::new(LevelAi { level: 0.5 }, NoisyUsers { n, width })
            .delay(1)
            .shards(shards)
            .build_sharded();
        runner.run(steps, &mut SimRng::new(seed))
    }

    #[test]
    fn shard_bounds_partition_contiguously() {
        assert_eq!(shard_bounds(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(shard_bounds(4, 8).len(), 4);
        assert_eq!(shard_bounds(0, 3), Vec::<Range<usize>>::new());
        assert_eq!(shard_bounds(6, 1), vec![0..6]);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn shard_bounds_reject_zero_parts() {
        shard_bounds(5, 0);
    }

    #[test]
    fn sharded_matches_sequential_for_any_shard_count() {
        let reference = sequential_record(23, 2, 12, 77);
        for shards in [1usize, 2, 3, 8, 23, 64] {
            let record = sharded_record(23, 2, 12, 77, shards);
            assert_eq!(record, reference, "shards = {shards}");
        }
    }

    #[test]
    fn zero_width_populations_shard_too() {
        let reference = sequential_record(9, 0, 6, 5);
        for shards in [1usize, 4] {
            assert_eq!(sharded_record(9, 0, 6, 5, shards), reference);
        }
    }

    #[test]
    fn auto_and_capped_shard_counts() {
        let runner = ShardedRunner::with_budget(
            LevelAi { level: 0.0 },
            NoisyUsers { n: 5, width: 1 },
            crate::closed_loop::MeanFilter::default(),
            1,
            0,
            ThreadBudget::global(),
        );
        assert!(runner.shard_count() >= 1);
        assert!(runner.shard_count() <= 5, "capped by the user count");
    }

    #[test]
    fn into_parts_reassembles_the_population() {
        let mut runner = LoopBuilder::new(LevelAi { level: 0.1 }, NoisyUsers { n: 12, width: 1 })
            .shards(4)
            .build_sharded();
        runner.run(3, &mut SimRng::new(2));
        let (_ai, population, _filter) = runner.into_parts();
        assert_eq!(population.user_count(), 12);
        assert_eq!(population.feature_width(), 1);
    }

    #[test]
    fn col_views_address_globally() {
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        let mut cols = ColsMut::new(vec![&mut a, &mut b], 3..5);
        assert_eq!(cols.rows(), 3..5);
        assert_eq!(cols.width(), 2);
        // Local index 1 of the second column is global row 4.
        cols.col_mut(1)[1] = 7.0;
        let (x, y) = cols.cols_pair_mut(1, 0);
        x[0] = 5.0;
        y[0] = 3.0;
        let view = cols.as_view();
        assert_eq!(view.rows(), 3..5);
        assert_eq!(view.col(0), &[3.0, 0.0]);
        assert_eq!(view.col(1), &[5.0, 7.0]);
        assert_eq!(view.cols().len(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn col_view_checks_lengths() {
        let data = vec![0.0; 2];
        ColsView::new(vec![&data], 3..4);
    }

    #[test]
    fn auto_shards_resolve_against_the_budget() {
        let budget = ThreadBudget::leaked(3);
        let runner = ShardedRunner::with_budget(
            LevelAi { level: 0.0 },
            NoisyUsers { n: 50, width: 1 },
            crate::closed_loop::MeanFilter::default(),
            1,
            0,
            budget,
        );
        assert_eq!(runner.shard_count(), 3, "auto = the budget's lanes");

        // With two of the three lanes leased away, auto resolves to what
        // is actually attainable.
        let lease = budget.lease(3);
        assert_eq!(lease.lanes(), 3);
        let nested = ShardedRunner::with_budget(
            LevelAi { level: 0.0 },
            NoisyUsers { n: 50, width: 1 },
            crate::closed_loop::MeanFilter::default(),
            1,
            0,
            budget,
        );
        assert_eq!(nested.shard_count(), 1, "budget exhausted: sequential");
    }

    #[test]
    fn shard_requests_clamp_to_the_population() {
        // More shards than users: one shard per user, no empty shards,
        // and the record still matches the sequential reference.
        let runner = ShardedRunner::with_budget(
            LevelAi { level: 0.0 },
            NoisyUsers { n: 3, width: 2 },
            crate::closed_loop::MeanFilter::default(),
            1,
            64,
            ThreadBudget::global(),
        );
        assert_eq!(runner.shard_count(), 3);
        assert!(runner.shards.iter().all(|s| !s.rows().is_empty()));
        let reference = sequential_record(3, 2, 7, 19);
        assert_eq!(sharded_record(3, 2, 7, 19, 64), reference);
    }

    #[test]
    fn exhausted_budget_runs_match_the_sequential_reference() {
        // Every lane leased away: the run sweeps every shard on the
        // calling thread and must not change a single recorded bit.
        let budget = ThreadBudget::leaked(1);
        let reference = sequential_record(17, 2, 9, 123);
        let mut runner = ShardedRunner::with_budget(
            LevelAi { level: 0.5 },
            NoisyUsers { n: 17, width: 2 },
            crate::closed_loop::MeanFilter::default(),
            1,
            4,
            budget,
        );
        assert_eq!(runner.shard_count(), 4, "shards are a layout, not lanes");
        let record = runner.run(9, &mut SimRng::new(123));
        assert_eq!(record, reference);
    }

    /// Population whose observe sweep panics on one row.
    struct PanickyUsers {
        n: usize,
        bad_row: usize,
    }

    struct PanickyShard {
        rows: Range<usize>,
        bad_row: usize,
    }

    impl UserPopulation for PanickyUsers {
        fn user_count(&self) -> usize {
            self.n
        }
        fn observe_into(&mut self, _k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
            out.reshape(self.n, 1);
        }
        fn respond_into(
            &mut self,
            _k: usize,
            signals: &[f64],
            _rng: &mut SimRng,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.extend_from_slice(signals);
        }
    }

    impl ShardablePopulation for PanickyUsers {
        type Shard = PanickyShard;
        fn feature_width(&self) -> usize {
            1
        }
        fn into_row_shards(self, parts: usize) -> Vec<PanickyShard> {
            shard_bounds(self.n, parts)
                .into_iter()
                .map(|rows| PanickyShard {
                    rows,
                    bad_row: self.bad_row,
                })
                .collect()
        }
        fn from_row_shards(shards: Vec<PanickyShard>) -> Self {
            let n = shards.last().map(|s| s.rows.end).unwrap_or(0);
            let bad_row = shards.first().map(|s| s.bad_row).unwrap_or(0);
            PanickyUsers { n, bad_row }
        }
    }

    impl PopulationShard for PanickyShard {
        fn rows(&self) -> Range<usize> {
            self.rows.clone()
        }
        fn observe_cols(&mut self, k: usize, _streams: &RowStreams, out: &mut ColsMut<'_>) {
            for (j, i) in out.rows().enumerate() {
                assert!(i != self.bad_row, "row {i} refused step {k}");
                out.col_mut(0)[j] = i as f64;
            }
        }
        fn respond_rows(
            &mut self,
            _k: usize,
            signals: &[f64],
            _streams: &RowStreams,
            out: &mut [f64],
        ) {
            out.copy_from_slice(signals);
        }
    }

    #[test]
    fn a_shard_panic_re_raises_its_message_and_returns_the_lanes() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // 12 rows in 4 shards: row 4 is in shard 1, which runs on the
        // caller at one lane and on the spawned stripe 1 at two lanes.
        for lanes in [1usize, 2] {
            let budget = ThreadBudget::leaked(lanes);
            let mut runner = ShardedRunner::with_budget(
                LevelAi { level: 0.0 },
                PanickyUsers { n: 12, bad_row: 4 },
                crate::closed_loop::MeanFilter::default(),
                1,
                4,
                budget,
            );
            let result = catch_unwind(AssertUnwindSafe(|| runner.run(3, &mut SimRng::new(1))));
            let payload = result.expect_err("the shard's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("row 4 refused step 0"),
                "{lanes} lane(s)"
            );
            assert_eq!(
                budget.available_lanes(),
                budget.capacity(),
                "{lanes} lane(s): the lease returned its lanes"
            );
        }
    }

    /// Concurrency probe: counts how many sweeps are live at once.
    #[derive(Default)]
    struct Probe {
        active: std::sync::atomic::AtomicUsize,
        peak: std::sync::atomic::AtomicUsize,
    }

    impl Probe {
        fn enter(&self) {
            use std::sync::atomic::Ordering::SeqCst;
            let now = self.active.fetch_add(1, SeqCst) + 1;
            self.peak.fetch_max(now, SeqCst);
        }
        fn exit(&self) {
            self.active
                .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    struct ProbedUsers {
        n: usize,
        probe: std::sync::Arc<Probe>,
    }

    struct ProbedShard {
        rows: Range<usize>,
        probe: std::sync::Arc<Probe>,
    }

    impl UserPopulation for ProbedUsers {
        fn user_count(&self) -> usize {
            self.n
        }
        fn observe_into(&mut self, _k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
            out.reshape(self.n, 1);
        }
        fn respond_into(
            &mut self,
            _k: usize,
            signals: &[f64],
            _rng: &mut SimRng,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.extend_from_slice(signals);
        }
    }

    impl ShardablePopulation for ProbedUsers {
        type Shard = ProbedShard;
        fn feature_width(&self) -> usize {
            1
        }
        fn into_row_shards(self, parts: usize) -> Vec<ProbedShard> {
            shard_bounds(self.n, parts)
                .into_iter()
                .map(|rows| ProbedShard {
                    rows,
                    probe: self.probe.clone(),
                })
                .collect()
        }
        fn from_row_shards(shards: Vec<ProbedShard>) -> Self {
            let n = shards.last().map(|s| s.rows.end).unwrap_or(0);
            let probe = shards.first().map(|s| s.probe.clone()).unwrap_or_default();
            ProbedUsers { n, probe }
        }
    }

    impl PopulationShard for ProbedShard {
        fn rows(&self) -> Range<usize> {
            self.rows.clone()
        }
        fn observe_cols(&mut self, k: usize, _streams: &RowStreams, out: &mut ColsMut<'_>) {
            self.probe.enter();
            // Hold the sweep open long enough for overlapping trials
            // and shards to be observable.
            std::thread::sleep(std::time::Duration::from_micros(300));
            for (j, i) in out.rows().enumerate() {
                out.col_mut(0)[j] = (i + k) as f64;
            }
            self.probe.exit();
        }
        fn respond_rows(
            &mut self,
            _k: usize,
            signals: &[f64],
            _streams: &RowStreams,
            out: &mut [f64],
        ) {
            out.copy_from_slice(signals);
        }
    }

    #[test]
    fn trials_times_shards_never_exceed_the_budget() {
        // The oversubscription regression: 4 trials x 4 shards on a
        // simulated 2-core budget must never run more than 2 sweeps
        // concurrently — the trial stripes take the whole budget and the
        // nested sharded runs degrade to their own lane. The trials are
        // one `run_indexed` batch, as in `run_trials_with`.
        let budget = ThreadBudget::leaked(2);
        let probe = std::sync::Arc::new(Probe::default());
        let records = crate::pool::run_indexed(budget, 4, |t| {
            let mut runner = ShardedRunner::with_budget(
                LevelAi { level: 0.0 },
                ProbedUsers {
                    n: 8,
                    probe: probe.clone(),
                },
                crate::closed_loop::MeanFilter::default(),
                1,
                4,
                budget,
            );
            runner.run(6, &mut SimRng::new(t as u64))
        });
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(Result::is_ok), "no trial panicked");
        let peak = probe.peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(peak >= 1, "the probe must have seen the sweeps");
        assert!(
            peak <= 2,
            "peak of {peak} concurrent sweeps exceeds the 2-lane budget"
        );
        assert_eq!(budget.available_lanes(), 2, "all leases returned");
    }
}
