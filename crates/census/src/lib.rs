//! Embedded substitute for CPS **Table A-2** (*Households by Total Money
//! Income, Race, and Hispanic Origin of Householder*), US Census Bureau.
//!
//! The paper's Sec. VII samples household incomes per year (2002-2020) and
//! race ("BLACK ALONE", "WHITE ALONE", "ASIAN ALONE") from Table A-2. The
//! real table is not redistributable inside this crate, so we embed a
//! **synthetic approximation**: per-race 9-bracket income histograms for
//! the anchor years 2002 and 2020, hand-authored to match the shape of the
//! paper's Fig. 2 (the 2020 panel) and the qualitative 2002 facts —
//! Black < White < Asian median income, with roughly 20 % of Asian
//! households above $200K by 2020 — linearly interpolated for the years in
//! between and renormalized. The closed loop only consumes bracket samples,
//! so preserving the ordering and tails preserves the behaviour the paper's
//! equal-impact argument relies on (see DESIGN.md, substitution table).
//!
//! The table is built once per process: [`IncomeTable::embedded`] returns
//! a `&'static` reference. Each `(year, race)` row is checked once and
//! keeps the cut points of its shares, so an income draw counts the cuts
//! at or below 53 random bits instead of walking the nine brackets, with
//! the bits of `SimRng::weighted_index` (see
//! [`IncomeTable::sample_income`]).
//!
//! # Example
//!
//! ```
//! use eqimpact_census::{Race, IncomeTable, HouseholdSampler};
//! use eqimpact_stats::SimRng;
//!
//! let table: &'static IncomeTable = IncomeTable::embedded();
//! let mut rng = SimRng::new(1);
//! let race = HouseholdSampler::new().sample_race(&mut rng);
//! let income = table.sample_income(2020, race, &mut rng).unwrap();
//! assert!(income > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brackets;
pub mod population;
pub mod sampler;
pub mod tables;

pub use brackets::{IncomeBracket, BRACKETS, BRACKET_COUNT};
pub use population::{Household, Population};
pub use sampler::HouseholdSampler;
pub use tables::{IncomeTable, Race, TableError, FIRST_YEAR, LAST_YEAR, RACE_SHARE_2002};
