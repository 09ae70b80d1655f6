//! The embedded income-distribution tables.

use crate::brackets::{BRACKETS, BRACKET_COUNT};
use eqimpact_stats::rng::weighted_cuts;
use eqimpact_stats::SimRng;
use std::fmt;
use std::sync::OnceLock;

/// First simulated year (the paper starts in 2002, when ASEC first allowed
/// the detailed race options).
pub const FIRST_YEAR: u32 = 2002;

/// Last simulated year.
pub const LAST_YEAR: u32 = 2020;

/// The paper's 2002 household race shares for
/// `[Black alone, White alone, Asian alone]`.
pub const RACE_SHARE_2002: [f64; 3] = [0.1235, 0.8406, 0.0359];

/// The three races of the paper's Sec. VII (Fig. 2's colours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Race {
    /// "BLACK ALONE" (blue in the paper's figures).
    Black,
    /// "WHITE ALONE" (pink).
    White,
    /// "ASIAN ALONE" (green).
    Asian,
}

impl Race {
    /// All races in the paper's `[Black, White, Asian]` order.
    pub const ALL: [Race; 3] = [Race::Black, Race::White, Race::Asian];

    /// Dense index in `Race::ALL` order.
    pub fn index(self) -> usize {
        match self {
            Race::Black => 0,
            Race::White => 1,
            Race::Asian => 2,
        }
    }

    /// The CPS label.
    pub fn label(self) -> &'static str {
        match self {
            Race::Black => "BLACK ALONE",
            Race::White => "WHITE ALONE",
            Race::Asian => "ASIAN ALONE",
        }
    }
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from table queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The requested year is outside `[FIRST_YEAR, LAST_YEAR]`.
    YearOutOfRange {
        /// The offending year.
        year: u32,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::YearOutOfRange { year } => {
                write!(f, "year {year} outside [{FIRST_YEAR}, {LAST_YEAR}]")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Anchor distribution for 2002 (bracket shares in percent, rows =
/// `[Black, White, Asian]`). Hand-authored to reflect the nominal-income
/// CPS profile of 2002: lower overall incomes, thin top tail, with the
/// Black distribution concentrated below $75K.
const SHARES_2002: [[f64; BRACKET_COUNT]; 3] = [
    // under15 15-25 25-35 35-50 50-75 75-100 100-150 150-200 over200
    [21.0, 14.0, 13.0, 15.0, 17.0, 9.0, 8.0, 2.0, 1.0], // Black
    [10.0, 11.0, 11.0, 15.0, 19.0, 12.0, 13.0, 5.0, 4.0], // White
    [10.0, 8.0, 8.0, 11.0, 17.0, 13.0, 17.0, 8.0, 8.0], // Asian
];

/// Anchor distribution for 2020, matching the shape of the paper's Fig. 2:
/// most Black households below $75K; the Asian bar on "over 200" near 20 %.
const SHARES_2020: [[f64; BRACKET_COUNT]; 3] = [
    [14.0, 11.0, 11.0, 14.0, 17.0, 11.0, 12.0, 5.0, 5.0], // Black
    [7.0, 8.0, 9.0, 12.0, 17.0, 13.0, 16.0, 8.0, 10.0],   // White
    [6.0, 5.0, 6.0, 9.0, 13.0, 11.0, 18.0, 12.0, 20.0],   // Asian
];

/// The per-year, per-race income distribution table.
///
/// Shares for intermediate years are linear interpolations of the 2002 and
/// 2020 anchors, renormalized to sum to exactly 1, emulating the gradual
/// nominal-income drift the real Table A-2 records.
#[derive(Debug, Clone, PartialEq)]
pub struct IncomeTable {
    /// `rows[year - FIRST_YEAR][race]`, held in place: the process's one
    /// table is never on the heap.
    rows: [[ShareRow; 3]; YEARS],
}

/// Number of simulated years, `FIRST_YEAR..=LAST_YEAR`.
const YEARS: usize = (LAST_YEAR - FIRST_YEAR + 1) as usize;

/// One `(year, race)` row of an [`IncomeTable`], checked when it is built.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShareRow {
    /// Bracket shares, finite and non-negative, normalized to sum to 1.
    shares: [f64; BRACKET_COUNT],
    /// `weighted_cuts(&shares)`: the draw of `SimRng::weighted_index` on
    /// the shares is the number of these at or below its 53 bits.
    cuts: [u64; BRACKET_COUNT - 1],
}

impl IncomeTable {
    /// The embedded table, built once per process on first use.
    pub fn embedded() -> &'static IncomeTable {
        static TABLE: OnceLock<IncomeTable> = OnceLock::new();
        TABLE.get_or_init(IncomeTable::build)
    }

    /// Interpolates, normalizes and cuts every `(year, race)` row.
    ///
    /// # Panics
    /// Panics on a row `SimRng::weighted_index` would reject: a negative
    /// or non-finite share, or a zero total.
    fn build() -> Self {
        let rows = std::array::from_fn(|k| {
            let t = k as f64 / (YEARS - 1) as f64;
            std::array::from_fn(|r| {
                let mut shares = [0.0; BRACKET_COUNT];
                let mut total = 0.0;
                for (b, slot) in shares.iter_mut().enumerate() {
                    let v = (1.0 - t) * SHARES_2002[r][b] + t * SHARES_2020[r][b];
                    *slot = v;
                    total += v;
                }
                for slot in shares.iter_mut() {
                    *slot /= total;
                }
                ShareRow {
                    shares,
                    cuts: weighted_cuts(&shares),
                }
            })
        });
        IncomeTable { rows }
    }

    /// The row of a `(year, race)` pair.
    fn row(&self, year: u32, race: Race) -> Result<&ShareRow, TableError> {
        if !(FIRST_YEAR..=LAST_YEAR).contains(&year) {
            return Err(TableError::YearOutOfRange { year });
        }
        Ok(&self.rows[(year - FIRST_YEAR) as usize][race.index()])
    }

    /// Normalized bracket shares for a `(year, race)` pair.
    pub fn shares(&self, year: u32, race: Race) -> Result<&[f64; BRACKET_COUNT], TableError> {
        self.row(year, race).map(|row| &row.shares)
    }

    /// Samples an income ($K) for a `(year, race)` pair: bracket by table
    /// share, then uniform within the bracket.
    ///
    /// The draw is `rng.weighted_index(shares)` followed by
    /// `rng.uniform_in(lo, hi)`, bit for bit, without their per-draw
    /// checks or the bracket walk: the table checks each row once and
    /// stores its cut points (`stats::rng::weighted_cuts`), the bracket is
    /// the number of cuts at or below the draw's 53 bits, counted without
    /// a branch, and `brackets.rs` checks every bracket at compile time.
    #[inline]
    pub fn sample_income(
        &self,
        year: u32,
        race: Race,
        rng: &mut SimRng,
    ) -> Result<f64, TableError> {
        let row = self.row(year, race)?;
        let bracket = &BRACKETS[rng.weighted_index_by_cuts(&row.cuts)];
        Ok(bracket.lo + (bracket.hi - bracket.lo) * rng.uniform())
    }

    /// Mean income ($K) for a `(year, race)` pair, using bracket midpoints.
    #[cfg(test)]
    pub fn mean_income(&self, year: u32, race: Race) -> Result<f64, TableError> {
        let shares = self.shares(year, race)?;
        Ok(shares
            .iter()
            .zip(crate::brackets::BRACKETS.iter())
            .map(|(s, b)| s * b.midpoint())
            .sum())
    }

    /// Share of households with income at least `threshold` ($K), counting
    /// a partially covered bracket proportionally (incomes are
    /// bracket-uniform under our sampling).
    #[cfg(test)]
    pub fn share_at_least(&self, year: u32, race: Race, threshold: f64) -> Result<f64, TableError> {
        let shares = self.shares(year, race)?;
        let mut total = 0.0;
        for (s, b) in shares.iter().zip(crate::brackets::BRACKETS.iter()) {
            if threshold <= b.lo {
                total += s;
            } else if threshold < b.hi {
                total += s * (b.hi - threshold) / (b.hi - b.lo);
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_stats::SimRng;
    use proptest::prelude::*;

    #[test]
    fn race_indexing_and_labels() {
        assert_eq!(Race::Black.index(), 0);
        assert_eq!(Race::White.index(), 1);
        assert_eq!(Race::Asian.index(), 2);
        assert_eq!(Race::Asian.label(), "ASIAN ALONE");
        assert_eq!(format!("{}", Race::Black), "BLACK ALONE");
        assert_eq!(Race::ALL.len(), 3);
    }

    #[test]
    fn race_shares_sum_to_one() {
        let total: f64 = RACE_SHARE_2002.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_year_race_rows_normalized() {
        let t = IncomeTable::embedded();
        for year in FIRST_YEAR..=LAST_YEAR {
            for race in Race::ALL {
                let shares = t.shares(year, race).unwrap();
                let total: f64 = shares.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "{race} {year} sums to {total}");
                assert!(shares.iter().all(|&s| s >= 0.0));
            }
        }
    }

    #[test]
    fn year_bounds_enforced() {
        let t = IncomeTable::embedded();
        assert!(matches!(
            t.shares(2001, Race::Black),
            Err(TableError::YearOutOfRange { year: 2001 })
        ));
        assert!(t.shares(2002, Race::Black).is_ok());
        assert!(t.shares(2020, Race::Asian).is_ok());
        assert!(t.shares(2021, Race::White).is_err());
    }

    #[test]
    fn income_ordering_black_white_asian() {
        // The qualitative fact the equal-impact argument relies on.
        let t = IncomeTable::embedded();
        for year in FIRST_YEAR..=LAST_YEAR {
            let b = t.mean_income(year, Race::Black).unwrap();
            let w = t.mean_income(year, Race::White).unwrap();
            let a = t.mean_income(year, Race::Asian).unwrap();
            assert!(b < w, "year {year}: Black {b} !< White {w}");
            assert!(w < a, "year {year}: White {w} !< Asian {a}");
        }
    }

    #[test]
    fn fig2_signature_facts() {
        let t = IncomeTable::embedded();
        // Almost 20% of Asian households above $200K in 2020.
        let asian_top = t.shares(2020, Race::Asian).unwrap()[8];
        assert!((asian_top - 0.20).abs() < 0.02, "asian top = {asian_top}");
        // Most Black households below $75K in 2020.
        let black_below_75 = t.share_at_least(2020, Race::Black, 75.0).unwrap();
        assert!(
            1.0 - black_below_75 > 0.5,
            "below75 = {}",
            1.0 - black_below_75
        );
    }

    #[test]
    fn incomes_drift_upward_over_time() {
        let t = IncomeTable::embedded();
        for race in Race::ALL {
            let early = t.mean_income(2002, race).unwrap();
            let late = t.mean_income(2020, race).unwrap();
            assert!(late > early, "{race}: {early} -> {late}");
        }
    }

    #[test]
    fn share_at_least_boundaries() {
        let t = IncomeTable::embedded();
        let all = t.share_at_least(2020, Race::White, 0.0).unwrap();
        assert!((all - 1.0).abs() < 1e-12);
        let none = t.share_at_least(2020, Race::White, 500.0).unwrap();
        assert!(none.abs() < 1e-12);
        // Partial bracket: threshold inside 15-25 bracket.
        let partial = t.share_at_least(2020, Race::White, 20.0).unwrap();
        let at_15 = t.share_at_least(2020, Race::White, 15.0).unwrap();
        let at_25 = t.share_at_least(2020, Race::White, 25.0).unwrap();
        assert!(partial < at_15 && partial > at_25);
    }

    /// The walk of `SimRng::weighted_index` for the 53 bits `m`, written
    /// out here as the oracle of the stored cuts.
    fn walk_at(shares: &[f64], m: u64) -> usize {
        let total: f64 = shares.iter().sum();
        let mut target = m as f64 / (1u64 << 53) as f64 * total;
        for (b, &w) in shares.iter().enumerate() {
            if target < w {
                return b;
            }
            target -= w;
        }
        shares.iter().rposition(|&w| w > 0.0).unwrap()
    }

    #[test]
    fn the_oracle_walk_is_weighted_index_on_random_streams() {
        let t = IncomeTable::embedded();
        let mut rng = SimRng::new(30);
        for year in FIRST_YEAR..=LAST_YEAR {
            for race in Race::ALL {
                let shares = t.shares(year, race).unwrap();
                for _ in 0..200 {
                    let m = rng.clone().next_u64() >> 11;
                    assert_eq!(
                        walk_at(shares, m),
                        rng.weighted_index(shares),
                        "{race} {year}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_stored_cut_is_exact() {
        let t = IncomeTable::embedded();
        for year in FIRST_YEAR..=LAST_YEAR {
            for race in Race::ALL {
                let row = t.row(year, race).unwrap();
                for (b, &c) in row.cuts.iter().enumerate() {
                    // Every embedded share is positive: every cut is hit.
                    assert!(0 < c && c < 1 << 53, "{race} {year}: cut {b} is {c}");
                    assert!(
                        walk_at(&row.shares, c - 1) <= b,
                        "{race} {year}: below cut {b}"
                    );
                    assert!(walk_at(&row.shares, c) > b, "{race} {year}: at cut {b}");
                    for m in c - 256..=c + 256 {
                        let count = row.cuts.iter().filter(|&&cut| cut <= m).count();
                        assert_eq!(count, walk_at(&row.shares, m), "{race} {year} at {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn error_display() {
        let e = TableError::YearOutOfRange { year: 1999 };
        assert!(e.to_string().contains("1999"));
    }

    proptest! {
        #[test]
        fn share_at_least_is_monotone(year in FIRST_YEAR..=LAST_YEAR, a in 0.0f64..400.0, b in 0.0f64..400.0) {
            let t = IncomeTable::embedded();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            for race in Race::ALL {
                let s_lo = t.share_at_least(year, race, lo).unwrap();
                let s_hi = t.share_at_least(year, race, hi).unwrap();
                prop_assert!(s_lo >= s_hi - 1e-12);
            }
        }
    }
}
