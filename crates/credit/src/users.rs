//! The user-population block: census households with eq. (10)-(11)
//! repayment behaviour.
//!
//! [`CreditPopulation`] is **shardable**: household state is purely
//! per-user, so the population partitions into contiguous
//! [`CreditShard`]s that observe/respond concurrently. All randomness of
//! household `i` at step `k` — the yearly income resample and the
//! repayment draw — comes from the index-keyed [`RowStreams`], which is
//! what makes the loop's record bit-identical for any shard count (the
//! sequential `*_into` methods route through the same per-row sweep).

use crate::lender::{VISIBLE_INCOME_CODE, VISIBLE_INCOME_K};
use crate::model;
use eqimpact_census::{Household, IncomeTable, Population, Race, FIRST_YEAR, LAST_YEAR};
use eqimpact_core::closed_loop::UserPopulation;
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::shard::{
    shard_bounds, ColsMut, PopulationShard, RowStreams, ShardablePopulation,
};
use eqimpact_stats::SimRng;
use eqimpact_telemetry::metrics as tm;
use std::ops::Range;

/// Width of the visible feature rows: `[income_code, income]`.
pub const VISIBLE_WIDTH: usize = 2;

/// The Sec. VII population: `N` households whose incomes are resampled
/// every year from the census tables (clamped at the table's last year for
/// longer ablation runs), responding per the Gaussian conditional
/// independence model.
pub struct CreditPopulation {
    population: Population,
    start_year: u32,
}

impl CreditPopulation {
    /// Generates a population of `n` users with a deterministic stream.
    pub fn generate(n: usize, rng: &mut SimRng) -> Self {
        let population =
            Population::generate(n, FIRST_YEAR, rng).expect("FIRST_YEAR is always in range");
        CreditPopulation {
            population,
            start_year: FIRST_YEAR,
        }
    }

    /// All races in user order.
    pub fn races(&self) -> Vec<Race> {
        self.population
            .households()
            .iter()
            .map(|h| h.race)
            .collect()
    }

    /// The calendar year simulated at step `k` (clamped to the table).
    pub fn year_of_step(&self, k: usize) -> u32 {
        year_of_step(self.start_year, k)
    }
}

/// The calendar year of step `k` from a start year, clamped to the table.
fn year_of_step(start_year: u32, k: usize) -> u32 {
    start_year
        .saturating_add(k.min(u32::MAX as usize) as u32)
        .min(LAST_YEAR)
}

/// The shared observe sweep: resamples incomes (steps > 0) and writes the
/// visible columns, drawing household `start_row + j`'s randomness from
/// `streams.for_row(start_row + j)`.
fn observe_household_cols(
    households: &mut [Household],
    start_row: usize,
    k: usize,
    year: u32,
    streams: &RowStreams,
    out: &mut ColsMut<'_>,
) {
    let table = IncomeTable::embedded();
    let (code_col, income_col) = out.cols_pair_mut(VISIBLE_INCOME_CODE, VISIBLE_INCOME_K);
    for (j, h) in households.iter_mut().enumerate() {
        let i = start_row + j;
        // Step 0 keeps the generation-time incomes; later steps resample
        // from that year's distribution (the paper's yearly `z_i(k)`).
        if k > 0 {
            let mut rng = streams.for_row(i);
            h.income = table
                .sample_income(year, h.race, &mut rng)
                .expect("year clamped into range");
        }
        code_col[j] = model::income_code(h.income);
        income_col[j] = h.income;
    }
}

/// The shared respond sweep: eq. (11) repayment per household, randomness
/// keyed by the global row. Adds the rows that drew from Φ to
/// `dist.normal_cdf`, and those of them that evaluated Φ to
/// `dist.normal_cdf_exact`, once per sweep.
fn respond_household_rows(
    households: &[Household],
    start_row: usize,
    signals: &[f64],
    streams: &RowStreams,
    out: &mut [f64],
) {
    assert_eq!(signals.len(), households.len(), "signals length");
    let (mut cdf_rows, mut exact_rows) = (0, 0);
    for (j, (h, &loan)) in households.iter().zip(signals).enumerate() {
        let mut rng = streams.for_row(start_row + j);
        let draw = model::sample_repayment(h.income, loan, &mut rng);
        let repaid = draw.is_some_and(|d| d.success);
        out[j] = if repaid { 1.0 } else { 0.0 };
        cdf_rows += u64::from(draw.is_some());
        exact_rows += u64::from(draw.is_some_and(|d| d.exact));
    }
    tm::DIST_NORMAL_CDF.add(cdf_rows);
    tm::DIST_NORMAL_CDF_EXACT.add(exact_rows);
}

impl UserPopulation for CreditPopulation {
    fn user_count(&self) -> usize {
        self.population.len()
    }

    fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix) {
        let n = self.population.len();
        let year = self.year_of_step(k);
        let streams = RowStreams::observe(rng, k);
        out.reshape(n, VISIBLE_WIDTH);
        let mut cols = ColsMut::full(out);
        observe_household_cols(
            self.population.households_mut(),
            0,
            k,
            year,
            &streams,
            &mut cols,
        );
    }

    fn respond_into(&mut self, k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        let n = self.population.len();
        let streams = RowStreams::respond(rng, k);
        out.clear();
        out.resize(n, 0.0);
        respond_household_rows(self.population.households(), 0, signals, &streams, out);
    }
}

/// One contiguous row-partition of a [`CreditPopulation`]: owns its
/// households.
pub struct CreditShard {
    households: Vec<Household>,
    start_row: usize,
    start_year: u32,
}

impl PopulationShard for CreditShard {
    fn rows(&self) -> Range<usize> {
        self.start_row..self.start_row + self.households.len()
    }

    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        let year = year_of_step(self.start_year, k);
        observe_household_cols(&mut self.households, self.start_row, k, year, streams, out);
    }

    fn respond_rows(&mut self, _k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        respond_household_rows(&self.households, self.start_row, signals, streams, out);
    }
}

impl ShardablePopulation for CreditPopulation {
    type Shard = CreditShard;

    fn feature_width(&self) -> usize {
        VISIBLE_WIDTH
    }

    fn into_row_shards(self, parts: usize) -> Vec<CreditShard> {
        let CreditPopulation {
            population,
            start_year,
        } = self;
        let mut households = population.into_households();
        let bounds = shard_bounds(households.len(), parts);
        let mut shards = Vec::with_capacity(bounds.len());
        // Split back-to-front so each chunk is a cheap tail split.
        for range in bounds.into_iter().rev() {
            let chunk = households.split_off(range.start);
            shards.push(CreditShard {
                households: chunk,
                start_row: range.start,
                start_year,
            });
        }
        shards.reverse();
        shards
    }

    fn from_row_shards(shards: Vec<CreditShard>) -> Self {
        let mut shards = shards;
        shards.sort_by_key(|s| s.start_row);
        let start_year = shards.first().map(|s| s.start_year).unwrap_or(FIRST_YEAR);
        let mut households = Vec::with_capacity(shards.iter().map(|s| s.households.len()).sum());
        for shard in shards {
            households.extend(shard.households);
        }
        CreditPopulation {
            population: Population::from_households(households),
            start_year,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(pop: &mut impl UserPopulation, k: usize, rng: &mut SimRng) -> FeatureMatrix {
        let mut out = FeatureMatrix::default();
        pop.observe_into(k, rng, &mut out);
        out
    }
    fn respond(pop: &mut impl UserPopulation, k: usize, s: &[f64], rng: &mut SimRng) -> Vec<f64> {
        let mut out = Vec::new();
        pop.respond_into(k, s, rng, &mut out);
        out
    }

    #[test]
    fn generation_and_race_access() {
        let mut rng = SimRng::new(1);
        let pop = CreditPopulation::generate(300, &mut rng);
        assert_eq!(pop.user_count(), 300);
        let races = pop.races();
        assert_eq!(races.len(), 300);
        let households = pop.population.households();
        assert!(households.iter().zip(&races).all(|(h, &r)| h.race == r));
    }

    #[test]
    fn year_clamping() {
        let mut rng = SimRng::new(2);
        let pop = CreditPopulation::generate(10, &mut rng);
        assert_eq!(pop.year_of_step(0), 2002);
        assert_eq!(pop.year_of_step(18), 2020);
        assert_eq!(pop.year_of_step(50), 2020);
    }

    #[test]
    fn observe_exposes_code_and_income() {
        let mut rng = SimRng::new(3);
        let mut pop = CreditPopulation::generate(50, &mut rng);
        let visible = observe(&mut pop, 0, &mut rng);
        assert_eq!(visible.row_count(), 50);
        assert_eq!(visible.width(), VISIBLE_WIDTH);
        for (&code, &income) in visible
            .col(VISIBLE_INCOME_CODE)
            .iter()
            .zip(visible.col(VISIBLE_INCOME_K))
        {
            assert_eq!(code, model::income_code(income));
            assert!(income > 0.0);
        }
    }

    #[test]
    fn observe_resamples_after_step_zero() {
        let mut rng = SimRng::new(4);
        let mut pop = CreditPopulation::generate(100, &mut rng);
        let v0 = observe(&mut pop, 0, &mut rng);
        let v1 = observe(&mut pop, 1, &mut rng);
        let changed = v0
            .col(VISIBLE_INCOME_K)
            .iter()
            .zip(v1.col(VISIBLE_INCOME_K))
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 95, "only {changed} incomes changed");
    }

    #[test]
    fn respond_follows_the_model() {
        let mut rng = SimRng::new(5);
        let mut pop = CreditPopulation::generate(200, &mut rng);
        let visible = observe(&mut pop, 0, &mut rng);
        // Denied users never repay.
        let denied = vec![0.0; 200];
        let actions = respond(&mut pop, 0, &denied, &mut rng);
        assert!(actions.iter().all(|&y| y == 0.0));
        // Generous incomes with the paper's sizing mostly repay.
        let loans: Vec<f64> = visible
            .col(VISIBLE_INCOME_K)
            .iter()
            .map(|&v| model::income_multiple_loan(v))
            .collect();
        let actions = respond(&mut pop, 0, &loans, &mut rng);
        let repay_rate = actions.iter().sum::<f64>() / 200.0;
        assert!(repay_rate > 0.7, "repay rate = {repay_rate}");
    }

    #[test]
    fn shard_roundtrip_preserves_households() {
        let mut rng = SimRng::new(6);
        let pop = CreditPopulation::generate(97, &mut rng);
        let races = pop.races();
        let shards = pop.into_row_shards(5);
        assert_eq!(shards.len(), 5);
        assert_eq!(shards[0].rows().start, 0);
        assert_eq!(shards.last().unwrap().rows().end, 97);
        let back = CreditPopulation::from_row_shards(shards);
        assert_eq!(back.user_count(), 97);
        assert_eq!(back.races(), races);
    }

    #[test]
    fn sharded_sweeps_match_sequential() {
        // The per-row stream contract in action: a 3-shard observe/respond
        // pass writes exactly what the sequential population writes.
        let mut rng = SimRng::new(7);
        let n = 60;
        let mut pop = CreditPopulation::generate(n, &mut rng);
        let mut shards = CreditPopulation::generate(n, &mut SimRng::new(7)).into_row_shards(3);

        let root = SimRng::new(40);
        for k in 0..4 {
            let mut seq_rng = root.clone();
            let visible = observe(&mut pop, k, &mut seq_rng);
            let signals: Vec<f64> = visible
                .col(VISIBLE_INCOME_K)
                .iter()
                .map(|&v| model::income_multiple_loan(v))
                .collect();
            let actions = respond(&mut pop, k, &signals, &mut seq_rng);

            let observe = RowStreams::observe(&root, k);
            let respond = RowStreams::respond(&root, k);
            let mut vis = FeatureMatrix::zeros(n, VISIBLE_WIDTH);
            let mut act = vec![0.0; n];
            for shard in shards.iter_mut() {
                let rows = shard.rows();
                let cols: Vec<&mut [f64]> = vis
                    .col_slices_mut()
                    .into_iter()
                    .map(|c| &mut c[rows.start..rows.end])
                    .collect();
                let mut out = ColsMut::new(cols, rows.clone());
                shard.observe_cols(k, &observe, &mut out);
                shard.respond_rows(k, &signals[rows.clone()], &respond, &mut act[rows]);
            }
            assert_eq!(vis, visible, "step {k} features");
            assert_eq!(act, actions, "step {k} actions");
        }
    }
}
