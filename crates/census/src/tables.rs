//! The embedded income-distribution tables.

use crate::brackets::BRACKET_COUNT;
use std::fmt;

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
    /// `rows[year - FIRST_YEAR][race]`.
    rows: Vec<[ShareRow; 3]>,
}

/// One `(year, race)` row of an [`IncomeTable`], checked when it is built.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShareRow {
    /// Bracket shares, finite and non-negative, normalized to sum to 1.
    shares: [f64; BRACKET_COUNT],
    /// `shares.iter().sum()`: positive, and the total that
    /// `SimRng::weighted_index` would compute on every draw.
    total: f64,
}

impl ShareRow {
    /// Checks a row and sums it.
    ///
    /// # Panics
    /// Panics on a negative or non-finite share, or a non-positive total.
    fn new(shares: [f64; BRACKET_COUNT]) -> Self {
        assert!(
            shares.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "income table: bad share in {shares:?}"
        );
        let total: f64 = shares.iter().sum();
        assert!(total > 0.0, "income table: zero total in {shares:?}");
        ShareRow { shares, total }
    }
}

impl IncomeTable {
    /// Builds the embedded table.
    pub fn embedded() -> Self {
        let years = (LAST_YEAR - FIRST_YEAR + 1) as usize;
        let mut rows = Vec::with_capacity(years);
        for k in 0..years {
            let t = k as f64 / (years - 1) as f64;
            rows.push(std::array::from_fn(|r| {
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
                ShareRow::new(shares)
            }));
        }
        IncomeTable { rows }
    }

    /// Normalized bracket shares for a `(year, race)` pair.
    pub fn shares(&self, year: u32, race: Race) -> Result<&[f64; BRACKET_COUNT], TableError> {
        self.summed_shares(year, race).map(|(shares, _)| shares)
    }

    /// The normalized bracket shares of a `(year, race)` pair and their
    /// sum, as `SimRng::weighted_index_with_total` takes them.
    pub(crate) fn summed_shares(
        &self,
        year: u32,
        race: Race,
    ) -> Result<(&[f64; BRACKET_COUNT], f64), TableError> {
        if !(FIRST_YEAR..=LAST_YEAR).contains(&year) {
            return Err(TableError::YearOutOfRange { year });
        }
        let row = &self.rows[(year - FIRST_YEAR) as usize][race.index()];
        Ok((&row.shares, row.total))
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

impl Default for IncomeTable {
    fn default() -> Self {
        IncomeTable::embedded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
