//! Generated household populations.

use crate::sampler::HouseholdSampler;
use crate::tables::{IncomeTable, Race, TableError};
use eqimpact_stats::SimRng;

/// One simulated household: a fixed race and a per-year resampled income.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Household {
    /// Race, sampled once at generation (the protected attribute the
    /// lender must not score on).
    pub race: Race,
    /// Current annual income in $K (`z_i(k)` of the paper).
    pub income: f64,
}

/// A generated population of households.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    households: Vec<Household>,
}

impl Population {
    /// Generates `n` households: races from the 2002 shares, incomes drawn
    /// from the embedded table for `start_year`.
    pub fn generate(n: usize, start_year: u32, rng: &mut SimRng) -> Result<Self, TableError> {
        let sampler = HouseholdSampler::new();
        let table = IncomeTable::embedded();
        let mut households = Vec::with_capacity(n);
        for _ in 0..n {
            let race = sampler.sample_race(rng);
            let income = table.sample_income(start_year, race, rng)?;
            households.push(Household { race, income });
        }
        Ok(Population { households })
    }

    /// Wraps an existing household list in row order (e.g. reassembled
    /// from row shards).
    pub fn from_households(households: Vec<Household>) -> Self {
        Population { households }
    }

    /// Decomposes the population into its household list (e.g. to
    /// partition it into row shards).
    pub fn into_households(self) -> Vec<Household> {
        self.households
    }

    /// Number of households.
    pub fn len(&self) -> usize {
        self.households.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.households.is_empty()
    }

    /// The households.
    pub fn households(&self) -> &[Household] {
        &self.households
    }

    /// Mutable access for the simulation driver.
    pub fn households_mut(&mut self) -> &mut [Household] {
        &mut self.households
    }

    /// Count per race in `Race::ALL` order.
    // analyze::allow(R8): census/tests/properties.rs race_partition_is_exact uses it as the race tally
    pub fn race_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for h in &self.households {
            counts[h.race.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_respects_size_and_incomes() {
        let mut rng = SimRng::new(1);
        let pop = Population::generate(500, 2002, &mut rng).unwrap();
        assert_eq!(pop.len(), 500);
        assert!(!pop.is_empty());
        assert!(pop.households().iter().all(|h| h.income > 0.0));
    }

    #[test]
    fn race_counts_roughly_match_shares() {
        let mut rng = SimRng::new(2);
        let pop = Population::generate(10_000, 2002, &mut rng).unwrap();
        let counts = pop.race_counts();
        assert!((counts[1] as f64 / 10_000.0 - 0.8406).abs() < 0.02);
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
        // Each count is the number of households of that race.
        for race in Race::ALL {
            let members = pop.households().iter().filter(|h| h.race == race);
            assert_eq!(counts[race.index()], members.count());
        }
    }

    #[test]
    fn bad_year_propagates() {
        let mut rng = SimRng::new(4);
        assert!(Population::generate(10, 2050, &mut rng).is_err());
    }
}
