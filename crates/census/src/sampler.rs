//! Sampling households from the embedded tables.

use crate::brackets::BRACKETS;
use crate::tables::{IncomeTable, Race, TableError, RACE_SHARE_2002};
use eqimpact_stats::{Categorical, SimRng};

/// Samples races and incomes following the paper's protocol: races from
/// the 2002 share vector once at time 0, incomes resampled per year from
/// the (year, race) bracket distribution, uniform within the bracket.
#[derive(Debug, Clone)]
pub struct HouseholdSampler<'a> {
    table: &'a IncomeTable,
    race_dist: Categorical,
}

impl<'a> HouseholdSampler<'a> {
    /// Creates a sampler over a table.
    pub fn new(table: &'a IncomeTable) -> Self {
        HouseholdSampler {
            table,
            race_dist: Categorical::new(&RACE_SHARE_2002),
        }
    }

    /// Samples a race from the 2002 distribution `[0.1235, 0.8406, 0.0359]`.
    pub fn sample_race(&self, rng: &mut SimRng) -> Race {
        Race::ALL[self.race_dist.sample_index(rng)]
    }

    /// Samples an income ($K) for a `(year, race)` pair: bracket by table
    /// share, then uniform within the bracket.
    ///
    /// The draw is `rng.weighted_index(shares)` followed by
    /// `rng.uniform_in(lo, hi)`, bit for bit, without their per-draw
    /// checks: the table checks and sums each row once when it is built,
    /// and `brackets.rs` checks every bracket at compile time.
    #[inline]
    pub fn sample_income(
        &self,
        year: u32,
        race: Race,
        rng: &mut SimRng,
    ) -> Result<f64, TableError> {
        let (shares, total) = self.table.summed_shares(year, race)?;
        let bracket = &BRACKETS[rng.weighted_index_with_total(shares, total)];
        Ok(bracket.lo + (bracket.hi - bracket.lo) * rng.uniform())
    }

    /// The table backing this sampler.
    pub fn table(&self) -> &IncomeTable {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brackets::bracket_of;
    use crate::tables::{FIRST_YEAR, LAST_YEAR};

    #[test]
    fn race_frequencies_match_2002_shares() {
        let table = IncomeTable::embedded();
        let s = HouseholdSampler::new(&table);
        let mut rng = SimRng::new(1);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[s.sample_race(&mut rng).index()] += 1;
        }
        for (i, &expected) in RACE_SHARE_2002.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - expected).abs() < 0.005,
                "race {i}: freq {freq} vs {expected}"
            );
        }
    }

    #[test]
    fn income_samples_respect_bracket_shares() {
        let table = IncomeTable::embedded();
        let s = HouseholdSampler::new(&table);
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let mut counts = [0usize; crate::brackets::BRACKET_COUNT];
        for _ in 0..n {
            let income = s.sample_income(2020, Race::Asian, &mut rng).unwrap();
            counts[bracket_of(income)] += 1;
        }
        let shares = table.shares(2020, Race::Asian).unwrap();
        for (b, &expected) in shares.iter().enumerate() {
            let freq = counts[b] as f64 / n as f64;
            assert!(
                (freq - expected).abs() < 0.01,
                "bracket {b}: freq {freq} vs share {expected}"
            );
        }
    }

    #[test]
    fn incomes_positive_and_below_cap() {
        let table = IncomeTable::embedded();
        let s = HouseholdSampler::new(&table);
        let mut rng = SimRng::new(3);
        for year in [2002, 2010, 2020] {
            for race in Race::ALL {
                for _ in 0..100 {
                    let income = s.sample_income(year, race, &mut rng).unwrap();
                    assert!((1.0..500.0).contains(&income));
                }
            }
        }
    }

    #[test]
    fn income_draws_match_weighted_index_then_uniform_in() {
        let table = IncomeTable::embedded();
        let s = HouseholdSampler::new(&table);
        for seed in 0..64 {
            let mut fast = SimRng::new(seed);
            let mut checked = fast.clone();
            for year in FIRST_YEAR..=LAST_YEAR {
                for race in Race::ALL {
                    let shares = table.shares(year, race).unwrap();
                    for _ in 0..8 {
                        let bracket = &BRACKETS[checked.weighted_index(shares)];
                        let want = checked.uniform_in(bracket.lo, bracket.hi);
                        let got = s.sample_income(year, race, &mut fast).unwrap();
                        assert_eq!(got.to_bits(), want.to_bits(), "{race} {year} seed {seed}");
                    }
                }
            }
            assert_eq!(
                fast.next_u64(),
                checked.next_u64(),
                "seed {seed}: streams diverged"
            );
        }
    }

    #[test]
    fn invalid_year_propagates() {
        let table = IncomeTable::embedded();
        let s = HouseholdSampler::new(&table);
        let mut rng = SimRng::new(4);
        assert!(s.sample_income(1990, Race::White, &mut rng).is_err());
    }

    #[test]
    fn race_income_gap_visible_in_samples() {
        let table = IncomeTable::embedded();
        let s = HouseholdSampler::new(&table);
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean = |race: Race, rng: &mut SimRng| -> f64 {
            (0..n)
                .map(|_| s.sample_income(2020, race, rng).unwrap())
                .sum::<f64>()
                / n as f64
        };
        let black = mean(Race::Black, &mut rng);
        let white = mean(Race::White, &mut rng);
        let asian = mean(Race::Asian, &mut rng);
        assert!(black < white && white < asian, "{black} {white} {asian}");
    }
}
