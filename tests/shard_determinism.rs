//! Cross-shard determinism: the tentpole guarantee that a
//! [`ShardedRunner`] produces **byte-identical** `LoopRecord`s to the
//! sequential [`LoopRunner`] for any shard count — proven here on random
//! blocks and seeds (property test) and on the credit scenario, plus an
//! environment-driven leg (`SHARDS=n`) for the CI shard matrix.

use eqimpact_core::closed_loop::{AiSystem, Feedback, LoopBuilder, UserPopulation};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::{LoopRecord, RecordPolicy};
use eqimpact_core::shard::{
    shard_bounds, ColsMut, ColsView, PopulationShard, RowStreams, ShardableAi, ShardablePopulation,
};
use eqimpact_credit::sim::{run_trial, CreditConfig, LenderKind};
use eqimpact_credit::{AdrFilter, CreditPopulation, ScorecardLender};
use eqimpact_stats::SimRng;
use proptest::prelude::*;
use std::ops::Range;

/// Shard-invariant random population: every cell and action of row `i`
/// draws from `streams.for_row(i)` — the [`RowStreams`] contract.
#[derive(Clone)]
struct PropUsers {
    n: usize,
    width: usize,
    /// Per-user response bias, exercised to make rows genuinely distinct.
    bias: f64,
}

struct PropShard {
    rows: Range<usize>,
    width: usize,
    bias: f64,
}

fn observe_prop(k: usize, bias: f64, streams: &RowStreams, out: &mut ColsMut<'_>) {
    // Row-major draw order from row-keyed streams, columnar writes.
    for (j, i) in out.rows().enumerate() {
        let mut rng = streams.for_row(i);
        for c in 0..out.width() {
            out.col_mut(c)[j] = rng.uniform() + bias * (c + 1) as f64 + k as f64 * 0.01;
        }
    }
}

fn respond_prop(
    rows: Range<usize>,
    bias: f64,
    signals: &[f64],
    streams: &RowStreams,
    out: &mut [f64],
) {
    for (j, i) in rows.enumerate() {
        let mut rng = streams.for_row(i);
        let p = (0.2 + bias + 0.1 * signals[j]).clamp(0.0, 1.0);
        out[j] = if rng.bernoulli(p) { 1.0 } else { rng.uniform() };
    }
}

impl UserPopulation for PropUsers {
    fn user_count(&self) -> usize {
        self.n
    }
    fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix) {
        out.reshape(self.n, self.width);
        let streams = RowStreams::observe(rng, k);
        observe_prop(k, self.bias, &streams, &mut ColsMut::full(out));
    }
    fn respond_into(&mut self, k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n, 0.0);
        let streams = RowStreams::respond(rng, k);
        respond_prop(0..self.n, self.bias, signals, &streams, out);
    }
}

impl ShardablePopulation for PropUsers {
    type Shard = PropShard;
    fn feature_width(&self) -> usize {
        self.width
    }
    fn into_row_shards(self, parts: usize) -> Vec<PropShard> {
        shard_bounds(self.n, parts)
            .into_iter()
            .map(|rows| PropShard {
                rows,
                width: self.width,
                bias: self.bias,
            })
            .collect()
    }
    fn from_row_shards(shards: Vec<PropShard>) -> Self {
        let width = shards.first().map(|s| s.width).unwrap_or(0);
        let bias = shards.first().map(|s| s.bias).unwrap_or(0.0);
        let n = shards.last().map(|s| s.rows.end).unwrap_or(0);
        PropUsers { n, width, bias }
    }
}

impl PopulationShard for PropShard {
    fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }
    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        observe_prop(k, self.bias, streams, out);
    }
    fn respond_rows(&mut self, _k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        respond_prop(self.rows.clone(), self.bias, signals, streams, out);
    }
}

/// Feedback-coupled AI: the broadcast level retrains from the delayed
/// aggregate, so any shard-order divergence compounds across steps and
/// cannot cancel out.
#[derive(Clone)]
struct GainAi {
    gain: f64,
    level: f64,
}

impl AiSystem for GainAi {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        self.signals_full(k, visible, out);
    }
    fn retrain(&mut self, _k: usize, feedback: &Feedback) {
        self.level = 0.5 * self.level + 0.5 * feedback.aggregate;
    }
}

impl ShardableAi for GainAi {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            let features: f64 = (0..visible.width()).map(|c| visible.col(c)[j]).sum();
            *o = self.level + self.gain * features;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn synthetic_records(
    n: usize,
    width: usize,
    bias: f64,
    gain: f64,
    steps: usize,
    delay: usize,
    seed: u64,
    policy: RecordPolicy,
    shards: Option<usize>,
) -> LoopRecord {
    let builder = LoopBuilder::new(GainAi { gain, level: 0.4 }, PropUsers { n, width, bias })
        .delay(delay)
        .record(policy);
    match shards {
        None => builder.build().run(steps, &mut SimRng::new(seed)),
        Some(s) => builder
            .shards(s)
            .build_sharded()
            .run(steps, &mut SimRng::new(seed)),
    }
}

proptest! {
    #[test]
    fn sharded_records_are_byte_identical_to_sequential(
        n in 1usize..60,
        width in 0usize..3,
        steps in 1usize..12,
        delay in 0usize..3,
        seed in 0u64..1000,
        bias in 0.0f64..0.4,
        gain in -0.3f64..0.3,
    ) {
        for policy in [RecordPolicy::Full, RecordPolicy::Thin] {
            let reference =
                synthetic_records(n, width, bias, gain, steps, delay, seed, policy, None);
            let reference_bytes = reference.to_json().render();
            for shards in [1usize, 2, 8] {
                let sharded = synthetic_records(
                    n, width, bias, gain, steps, delay, seed, policy, Some(shards),
                );
                prop_assert_eq!(&sharded, &reference, "{} shards, {:?}", shards, policy);
                prop_assert_eq!(
                    sharded.to_json().render(),
                    reference_bytes.clone(),
                    "{} shards, {:?}: serialized bytes differ",
                    shards,
                    policy
                );
            }
        }
    }
}

fn credit_record(shards: usize, policy: RecordPolicy) -> LoopRecord {
    let config = CreditConfig {
        users: 180,
        steps: 10,
        trials: 1,
        seed: 404,
        lender: LenderKind::Scorecard,
        delay: 1,
        shards,
        policy,
    };
    run_trial(&config, 0).record
}

/// The sequential `LoopRunner`'s record of [`credit_record`]'s loop:
/// `run_trial`'s stream derivation for users 180 / steps 10 / seed 404 /
/// trial 0, built with `LoopBuilder::build`.
fn sequential_credit_record(policy: RecordPolicy) -> LoopRecord {
    let root = SimRng::new(404);
    let mut pop_rng = root.split(1);
    let mut loop_rng = root.split(2);
    let population = CreditPopulation::generate(180, &mut pop_rng);
    LoopBuilder::new(ScorecardLender::paper_default(), population)
        .filter(AdrFilter::new())
        .delay(1)
        .record(policy)
        .build()
        .run(10, &mut loop_rng)
}

#[test]
fn credit_scenario_is_bit_identical_across_shard_counts() {
    for policy in [RecordPolicy::Full, RecordPolicy::Thin] {
        let reference = sequential_credit_record(policy);
        let reference_bytes = reference.to_json().render();
        for shards in [1usize, 2, 8] {
            let sharded = credit_record(shards, policy);
            assert_eq!(sharded, reference, "{shards} shards, {policy:?}");
            assert_eq!(
                sharded.to_json().render(),
                reference_bytes,
                "{shards} shards, {policy:?}: serialized bytes differ"
            );
        }
    }
}

/// CI matrix leg: `SHARDS=n cargo test --test shard_determinism` pins the
/// shard count from the environment (defaults to 4 locally) and compares
/// `run_trial`'s sharded record with the sequential reference.
#[test]
fn shard_count_from_env_matches_sequential() {
    let shards: usize = std::env::var("SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let sharded = credit_record(shards, RecordPolicy::Full);
    let reference = sequential_credit_record(RecordPolicy::Full);
    assert_eq!(
        sharded.to_json().render(),
        reference.to_json().render(),
        "SHARDS={shards}: record mismatch"
    );
}
