//! Property-based tests for the census substrate.

use eqimpact_census::{IncomeTable, Population, Race, FIRST_YEAR, LAST_YEAR};
use eqimpact_stats::SimRng;
use proptest::prelude::*;

proptest! {
    #[test]
    fn shares_normalized_for_every_year(year in FIRST_YEAR..=LAST_YEAR) {
        let t = IncomeTable::embedded();
        for race in Race::ALL {
            let shares = t.shares(year, race).unwrap();
            let total: f64 = shares.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(shares.iter().all(|&s| (0.0..=1.0).contains(&s)));
        }
    }

    #[test]
    fn sampled_incomes_in_valid_range(seed in 0u64..200, year in FIRST_YEAR..=LAST_YEAR) {
        let t = IncomeTable::embedded();
        let mut rng = SimRng::new(seed);
        for race in Race::ALL {
            let income = t.sample_income(year, race, &mut rng).unwrap();
            prop_assert!((1.0..500.0).contains(&income));
        }
    }

    #[test]
    fn population_generation_is_deterministic(seed in 0u64..100, n in 1usize..100) {
        let a = Population::generate(n, 2002, &mut SimRng::new(seed)).unwrap();
        let b = Population::generate(n, 2002, &mut SimRng::new(seed)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn race_partition_is_exact(seed in 0u64..50, n in 1usize..200) {
        let pop = Population::generate(n, 2002, &mut SimRng::new(seed)).unwrap();
        let counts = pop.race_counts();
        prop_assert_eq!(counts.iter().sum::<usize>(), n);
        for race in Race::ALL {
            let members = pop.households().iter().filter(|h| h.race == race);
            prop_assert_eq!(counts[race.index()], members.count());
        }
    }
}
