//! The applicant-pool population block: census-sampled households whose
//! resources refresh yearly, with on-the-job experience accumulating
//! inside the loop.
//!
//! [`ApplicantPool`] is **shardable** with the same contract as the
//! credit population: all randomness of applicant `i` at round `k` (the
//! yearly resource resample and the placement outcome) comes from the
//! index-keyed [`RowStreams`], so the loop's record is bit-identical for
//! any shard count.

use crate::model;
use eqimpact_census::{HouseholdSampler, IncomeTable, Race, FIRST_YEAR, LAST_YEAR};
use eqimpact_core::closed_loop::UserPopulation;
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::shard::{
    shard_bounds, ColsMut, PopulationShard, RowStreams, ShardablePopulation,
};
use eqimpact_stats::SimRng;
use eqimpact_telemetry::metrics as tm;
use std::ops::Range;
use std::sync::Arc;

/// Width of the visible feature rows: `[credential_code, experience]`.
pub const VISIBLE_WIDTH: usize = 2;

/// Index of the credential code in the visible rows.
pub const VISIBLE_CREDENTIAL: usize = 0;

/// Index of the accumulated experience (successful years) in the visible
/// rows. Visible but unscored by the adaptive screener — the analog of
/// the raw income the credit lender sees but only uses for sizing.
pub const VISIBLE_EXPERIENCE: usize = 1;

/// One applicant: fixed race, yearly-resampled resources, accumulated
/// experience.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Applicant {
    /// Stable index in the pool.
    pub id: usize,
    /// Race, sampled once at generation (the protected attribute the
    /// screener must not score on).
    pub race: Race,
    /// Current household resources in $K (`z_i(k)`), refreshed yearly
    /// from the census income tables.
    pub resources: f64,
    /// Successful placement years so far.
    pub experience: f64,
}

/// The applicant pool: `N` applicants whose resources are resampled every
/// round from the census tables (clamped at the table's last year), with
/// experience growing on successful placements.
pub struct ApplicantPool {
    table: Arc<IncomeTable>,
    applicants: Vec<Applicant>,
    start_year: u32,
}

impl ApplicantPool {
    /// Generates a pool of `n` applicants with a deterministic stream.
    pub fn generate(n: usize, rng: &mut SimRng) -> Self {
        let table = Arc::new(IncomeTable::embedded());
        let sampler = HouseholdSampler::new(&table);
        let mut applicants = Vec::with_capacity(n);
        for id in 0..n {
            let race = sampler.sample_race(rng);
            let resources = sampler
                .sample_income(FIRST_YEAR, race, rng)
                .expect("FIRST_YEAR is always in range");
            applicants.push(Applicant {
                id,
                race,
                resources,
                experience: 0.0,
            });
        }
        ApplicantPool {
            table,
            applicants,
            start_year: FIRST_YEAR,
        }
    }

    /// Race of applicant `i`.
    pub fn race(&self, i: usize) -> Race {
        self.applicants[i].race
    }

    /// All races in applicant order.
    pub fn races(&self) -> Vec<Race> {
        self.applicants.iter().map(|a| a.race).collect()
    }

    /// The applicants.
    pub fn applicants(&self) -> &[Applicant] {
        &self.applicants
    }

    /// The calendar year simulated at round `k` (clamped to the table).
    pub fn year_of_round(&self, k: usize) -> u32 {
        year_of_round(self.start_year, k)
    }
}

/// The calendar year of round `k` from a start year, clamped to the table.
fn year_of_round(start_year: u32, k: usize) -> u32 {
    start_year
        .saturating_add(k.min(u32::MAX as usize) as u32)
        .min(LAST_YEAR)
}

/// The shared observe sweep: resamples resources (rounds > 0) and writes
/// the visible columns, drawing applicant `start_row + j`'s randomness
/// from `streams.for_row(start_row + j)`.
fn observe_applicant_cols(
    table: &IncomeTable,
    applicants: &mut [Applicant],
    start_row: usize,
    k: usize,
    year: u32,
    streams: &RowStreams,
    out: &mut ColsMut<'_>,
) {
    let sampler = HouseholdSampler::new(table);
    let (cred_col, exp_col) = out.cols_pair_mut(VISIBLE_CREDENTIAL, VISIBLE_EXPERIENCE);
    for (j, a) in applicants.iter_mut().enumerate() {
        let i = start_row + j;
        // Round 0 keeps the generation-time resources; later rounds
        // resample from that year's distribution.
        if k > 0 {
            let mut rng = streams.for_row(i);
            a.resources = sampler
                .sample_income(year, a.race, &mut rng)
                .expect("year clamped into range");
        }
        cred_col[j] = model::credential_code(a.resources);
        exp_col[j] = a.experience;
    }
}

/// The shared respond sweep: placement outcome per applicant, randomness
/// keyed by the global row; a success accrues one year of experience.
/// Adds the rows that drew from Φ to `dist.normal_cdf`, and those of them
/// that evaluated Φ to `dist.normal_cdf_exact`, once per sweep.
fn respond_applicant_rows(
    applicants: &mut [Applicant],
    start_row: usize,
    signals: &[f64],
    streams: &RowStreams,
    out: &mut [f64],
) {
    assert_eq!(signals.len(), applicants.len(), "signals length");
    let (mut cdf_rows, mut exact_rows) = (0, 0);
    for (j, (a, &signal)) in applicants.iter_mut().zip(signals).enumerate() {
        let mut rng = streams.for_row(start_row + j);
        let draw = model::sample_performance(a.resources, a.experience, signal, &mut rng);
        cdf_rows += u64::from(draw.is_some());
        exact_rows += u64::from(draw.is_some_and(|d| d.exact));
        out[j] = if draw.is_some_and(|d| d.success) {
            a.experience += 1.0;
            1.0
        } else {
            0.0
        };
    }
    tm::DIST_NORMAL_CDF.add(cdf_rows);
    tm::DIST_NORMAL_CDF_EXACT.add(exact_rows);
}

impl UserPopulation for ApplicantPool {
    fn user_count(&self) -> usize {
        self.applicants.len()
    }

    fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix) {
        let n = self.applicants.len();
        let year = self.year_of_round(k);
        let streams = RowStreams::observe(rng, k);
        out.reshape(n, VISIBLE_WIDTH);
        let mut cols = ColsMut::full(out);
        observe_applicant_cols(
            &self.table,
            &mut self.applicants,
            0,
            k,
            year,
            &streams,
            &mut cols,
        );
    }

    fn respond_into(&mut self, k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        let n = self.applicants.len();
        let streams = RowStreams::respond(rng, k);
        out.clear();
        out.resize(n, 0.0);
        respond_applicant_rows(&mut self.applicants, 0, signals, &streams, out);
    }
}

/// One contiguous row-partition of an [`ApplicantPool`]: owns its
/// applicants, shares the (read-only) income table.
pub struct ApplicantShard {
    table: Arc<IncomeTable>,
    applicants: Vec<Applicant>,
    start_row: usize,
    start_year: u32,
}

impl PopulationShard for ApplicantShard {
    fn rows(&self) -> Range<usize> {
        self.start_row..self.start_row + self.applicants.len()
    }

    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        let year = year_of_round(self.start_year, k);
        observe_applicant_cols(
            &self.table,
            &mut self.applicants,
            self.start_row,
            k,
            year,
            streams,
            out,
        );
    }

    fn respond_rows(&mut self, _k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        respond_applicant_rows(&mut self.applicants, self.start_row, signals, streams, out);
    }
}

impl ShardablePopulation for ApplicantPool {
    type Shard = ApplicantShard;

    fn feature_width(&self) -> usize {
        VISIBLE_WIDTH
    }

    fn into_row_shards(self, parts: usize) -> Vec<ApplicantShard> {
        let ApplicantPool {
            table,
            mut applicants,
            start_year,
        } = self;
        let bounds = shard_bounds(applicants.len(), parts);
        let mut shards = Vec::with_capacity(bounds.len());
        // Split back-to-front so each chunk is a cheap tail split.
        for range in bounds.into_iter().rev() {
            let chunk = applicants.split_off(range.start);
            shards.push(ApplicantShard {
                table: Arc::clone(&table),
                applicants: chunk,
                start_row: range.start,
                start_year,
            });
        }
        shards.reverse();
        shards
    }

    fn from_row_shards(shards: Vec<ApplicantShard>) -> Self {
        let mut shards = shards;
        shards.sort_by_key(|s| s.start_row);
        let table = shards
            .first()
            .map(|s| Arc::clone(&s.table))
            .unwrap_or_else(|| Arc::new(IncomeTable::embedded()));
        let start_year = shards.first().map(|s| s.start_year).unwrap_or(FIRST_YEAR);
        let mut applicants = Vec::with_capacity(shards.iter().map(|s| s.applicants.len()).sum());
        for shard in shards {
            applicants.extend(shard.applicants);
        }
        ApplicantPool {
            table,
            applicants,
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
        let pool = ApplicantPool::generate(300, &mut rng);
        assert_eq!(pool.user_count(), 300);
        assert_eq!(pool.races().len(), 300);
        assert_eq!(pool.race(0), pool.races()[0]);
        assert!(pool.applicants().iter().all(|a| a.resources > 0.0));
        assert!(pool.applicants().iter().all(|a| a.experience == 0.0));
    }

    #[test]
    fn year_clamping() {
        let mut rng = SimRng::new(2);
        let pool = ApplicantPool::generate(10, &mut rng);
        assert_eq!(pool.year_of_round(0), 2002);
        assert_eq!(pool.year_of_round(18), 2020);
        assert_eq!(pool.year_of_round(50), 2020);
    }

    #[test]
    fn observe_exposes_credential_and_experience() {
        let mut rng = SimRng::new(3);
        let mut pool = ApplicantPool::generate(50, &mut rng);
        let visible = observe(&mut pool, 0, &mut rng);
        assert_eq!(visible.row_count(), 50);
        assert_eq!(visible.width(), VISIBLE_WIDTH);
        for (j, a) in pool.applicants().iter().enumerate() {
            assert_eq!(
                visible.col(VISIBLE_CREDENTIAL)[j],
                model::credential_code(a.resources)
            );
            assert_eq!(visible.col(VISIBLE_EXPERIENCE)[j], 0.0);
        }
    }

    #[test]
    fn successful_placements_accrue_experience() {
        let mut rng = SimRng::new(4);
        let mut pool = ApplicantPool::generate(200, &mut rng);
        observe(&mut pool, 0, &mut rng);
        // Hire everyone: the well-resourced mostly succeed.
        let hired = vec![1.0; 200];
        let actions = respond(&mut pool, 0, &hired, &mut rng);
        let successes: f64 = actions.iter().sum();
        assert!(successes > 50.0, "successes = {successes}");
        let accrued: f64 = pool.applicants().iter().map(|a| a.experience).sum();
        assert_eq!(accrued, successes);
        // Reject everyone: nothing accrues and every outcome is 0.
        let rejected = vec![0.0; 200];
        let actions = respond(&mut pool, 1, &rejected, &mut rng);
        assert!(actions.iter().all(|&y| y == 0.0));
        let still: f64 = pool.applicants().iter().map(|a| a.experience).sum();
        assert_eq!(still, accrued);
    }

    #[test]
    fn shard_roundtrip_preserves_applicants() {
        let mut rng = SimRng::new(5);
        let pool = ApplicantPool::generate(97, &mut rng);
        let races = pool.races();
        let shards = pool.into_row_shards(5);
        assert_eq!(shards.len(), 5);
        assert_eq!(shards[0].rows().start, 0);
        assert_eq!(shards.last().unwrap().rows().end, 97);
        let back = ApplicantPool::from_row_shards(shards);
        assert_eq!(back.user_count(), 97);
        assert_eq!(back.races(), races);
    }

    #[test]
    fn sharded_sweeps_match_sequential() {
        let mut rng = SimRng::new(6);
        let n = 60;
        let mut pool = ApplicantPool::generate(n, &mut rng);
        let mut shards = ApplicantPool::generate(n, &mut SimRng::new(6)).into_row_shards(3);

        let root = SimRng::new(40);
        for k in 0..4 {
            let mut seq_rng = root.clone();
            let visible = observe(&mut pool, k, &mut seq_rng);
            let signals: Vec<f64> = visible.col(VISIBLE_CREDENTIAL).to_vec();
            let actions = respond(&mut pool, k, &signals, &mut seq_rng);

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
            assert_eq!(vis, visible, "round {k} features");
            assert_eq!(act, actions, "round {k} actions");
        }
    }
}
