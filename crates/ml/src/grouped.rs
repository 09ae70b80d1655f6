//! The grouped-binomial training table: Fig. 1's accumulating filter,
//! kept as sufficient statistics.
//!
//! A logistic fit over every observation ever seen needs, per distinct
//! feature vector, only how many observations share it and how many of
//! those were positive: the grouped-binomial likelihood over those cells
//! is the row likelihood (McCullagh & Nelder, *Generalized Linear
//! Models*, 2nd ed., 1989, §4.4). A refit therefore sweeps one row per
//! cell, and the table grows with the number of distinct feature vectors
//! rather than with the rows pushed.
//!
//! Cells are keyed by the exact bit pattern of the feature vector and
//! kept in key order (lexicographic over the features' `f64::to_bits`),
//! and counts are integers, so the fitted model is a function of the
//! table's contents alone: arrival order never changes a bit. The cells
//! are stored flat, as the columns a fit reads: one `f64` column per
//! feature, then the observation and positive counts (exact in `f64`
//! below 2^53), so [`GroupedTable::fit`] hands them to IRLS as they are.
//! A push finds its cell through a small direct-mapped index of cell
//! positions, checked by one key compare, and falls back to a binary
//! search over the ordered keys; a new cell is inserted at its key's
//! position.

use crate::dataset::DatasetError;
use crate::logistic::{LogisticModel, LogisticRegression, TrainError};
use std::cmp::Ordering;

#[cfg(test)]
mod oracle;

/// Slots of the direct-mapped cell index (a power of two).
const SLOTS: usize = 64;

/// Binary-labeled observations pooled by feature vector.
#[derive(Debug, Clone)]
pub struct GroupedTable {
    /// `cols[j][c]`: feature `j` of cell `c`, cells in key order. Empty
    /// until the first cell, then as wide as the first accepted row.
    cols: Vec<Vec<f64>>,
    /// Observations per cell.
    counts: Vec<f64>,
    /// Positive observations per cell.
    positives: Vec<f64>,
    observations: usize,
    /// The position of a cell whose key hashes to each slot. A slot may
    /// name a cell of another key (or none yet), so a probe is only a
    /// hit when the key compares equal.
    slots: [usize; SLOTS],
}

impl Default for GroupedTable {
    fn default() -> Self {
        GroupedTable {
            cols: Vec::new(),
            counts: Vec::new(),
            positives: Vec::new(),
            observations: 0,
            slots: [0; SLOTS],
        }
    }
}

/// The index slot of a key: a multiplicative hash of its bits.
fn slot_of(x: &[f64]) -> usize {
    let mut h = 0u64;
    for v in x {
        h = (h ^ v.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    (h >> (64 - SLOTS.trailing_zeros())) as usize
}

impl GroupedTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation: feature row `x` with label `y ∈ {0, 1}`.
    ///
    /// Rejects, leaving the table unchanged, a row whose width differs
    /// from the rows already pushed, a non-finite feature, and a label
    /// other than 0 or 1. Error positions count accepted observations: a
    /// rejected row is reported at index [`Self::len`].
    pub fn push(&mut self, x: &[f64], y: f64) -> Result<(), DatasetError> {
        if !self.counts.is_empty() && self.cols.len() != x.len() {
            return Err(DatasetError::RaggedRows);
        }
        if let Some(col) = x.iter().position(|v| !v.is_finite()) {
            return Err(DatasetError::NonFiniteFeature {
                row: self.observations,
                col,
            });
        }
        if y != 0.0 && y != 1.0 {
            return Err(DatasetError::NonBinaryLabel {
                index: self.observations,
            });
        }
        let positive = if y == 1.0 { 1.0 } else { 0.0 };
        let slot = slot_of(x);
        let probe = self.slots[slot];
        let cell = if probe < self.counts.len() && self.compare(probe, x) == Ordering::Equal {
            probe
        } else {
            let cell = self.search(x).unwrap_or_else(|at| {
                self.insert(at, x);
                at
            });
            self.slots[slot] = cell;
            cell
        };
        self.counts[cell] += 1.0;
        self.positives[cell] += positive;
        self.observations += 1;
        Ok(())
    }

    /// The order of cell `c`'s key against `x`, feature by feature on
    /// the bits.
    fn compare(&self, c: usize, x: &[f64]) -> Ordering {
        for (col, v) in self.cols.iter().zip(x) {
            match col[c].to_bits().cmp(&v.to_bits()) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }

    /// The cell of key `x`, or the position its cell would take.
    fn search(&self, x: &[f64]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.counts.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.compare(mid, x) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Inserts an empty cell of key `x` at position `at`, moving the
    /// index past the cells it shifts.
    fn insert(&mut self, at: usize, x: &[f64]) {
        if self.counts.is_empty() {
            self.cols = vec![Vec::new(); x.len()];
        }
        for (col, &v) in self.cols.iter_mut().zip(x) {
            col.insert(at, v);
        }
        self.counts.insert(at, 0.0);
        self.positives.insert(at, 0.0);
        for cell in &mut self.slots {
            if *cell >= at {
                *cell += 1;
            }
        }
    }

    /// Observations accepted so far.
    pub fn len(&self) -> usize {
        self.observations
    }

    /// Whether no observation has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.observations == 0
    }

    /// Distinct feature vectors seen so far: the rows a fit sweeps.
    #[cfg(test)]
    pub fn cell_count(&self) -> usize {
        self.counts.len()
    }

    /// Every cell in key order: its key's bits, observations and
    /// positives.
    #[cfg(test)]
    fn cells(&self) -> Vec<(Vec<u64>, u64, u64)> {
        (0..self.counts.len())
            .map(|c| {
                let key = self.cols.iter().map(|col| col[c].to_bits()).collect();
                (key, self.counts[c] as u64, self.positives[c] as u64)
            })
            .collect()
    }

    /// Fits `fitter`'s logistic model to every accepted observation, one
    /// IRLS row per cell weighted by its count.
    ///
    /// Returns [`TrainError::Empty`] for an empty table, and otherwise
    /// the errors of [`LogisticRegression::fit`].
    pub fn fit(&self, fitter: &LogisticRegression) -> Result<LogisticModel, TrainError> {
        let cols: Vec<&[f64]> = self.cols.iter().map(Vec::as_slice).collect();
        fitter.fit_grouped(&cols, &self.positives, &self.counts)
    }
}

// The agreement with the row fit is a property test in
// `tests/properties.rs`.
#[cfg(test)]
mod tests {
    use super::oracle::TreeTable;
    use super::*;
    use crate::logistic::sigmoid;
    use eqimpact_stats::SimRng;
    use proptest::prelude::*;

    #[test]
    fn push_pools_repeated_rows_into_cells() {
        let mut t = GroupedTable::new();
        assert!(t.is_empty());
        for (x, y) in [(0.0, 1.0), (0.5, 0.0), (0.0, 0.0), (0.0, 1.0), (0.5, 1.0)] {
            t.push(&[x, 1.0], y).unwrap();
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.cell_count(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn refit_covers_every_round_pushed() {
        // A slope-2 response on a 17-point grid, pushed in two rounds:
        // each fit sees every observation so far, pooled into 17 cells.
        let fitter = LogisticRegression::default();
        let mut rng = SimRng::new(1);
        let mut round = |t: &mut GroupedTable| {
            for _ in 0..2000 {
                let x = rng.index(17) as f64 / 4.0 - 2.0;
                let y = if rng.bernoulli(sigmoid(2.0 * x)) {
                    1.0
                } else {
                    0.0
                };
                t.push(&[x], y).unwrap();
            }
        };
        let mut t = GroupedTable::new();
        round(&mut t);
        let first = t.fit(&fitter).unwrap();
        assert!(first.coefficients[0] > 1.0);
        assert_eq!((t.len(), t.cell_count()), (2000, 17));

        round(&mut t);
        let second = t.fit(&fitter).unwrap();
        assert!(second.coefficients[0] > 1.0);
        assert_eq!((t.len(), t.cell_count()), (4000, 17));
        assert_ne!(first, second);
    }

    #[test]
    fn push_rejects_ragged_rows() {
        let mut t = GroupedTable::new();
        t.push(&[0.0, 1.0], 1.0).unwrap();
        assert_eq!(t.push(&[0.0], 1.0), Err(DatasetError::RaggedRows));
        assert_eq!(t.push(&[0.0, 1.0, 2.0], 0.0), Err(DatasetError::RaggedRows));
        assert_eq!((t.len(), t.cell_count()), (1, 1));
    }

    #[test]
    fn push_rejects_non_finite_features() {
        let mut t = GroupedTable::new();
        t.push(&[0.0, 1.0], 1.0).unwrap();
        assert_eq!(
            t.push(&[0.0, f64::NAN], 1.0),
            Err(DatasetError::NonFiniteFeature { row: 1, col: 1 })
        );
        assert_eq!(
            t.push(&[f64::INFINITY, 0.0], 0.0),
            Err(DatasetError::NonFiniteFeature { row: 1, col: 0 })
        );
        assert_eq!((t.len(), t.cell_count()), (1, 1));
    }

    #[test]
    fn push_rejects_non_binary_labels() {
        let mut t = GroupedTable::new();
        t.push(&[0.0, 1.0], 1.0).unwrap();
        let err = t.push(&[0.0, 1.0], 0.5).unwrap_err();
        assert_eq!(err, DatasetError::NonBinaryLabel { index: 1 });
        assert!(err.to_string().contains("not 0/1"));
        assert_eq!((t.len(), t.cell_count()), (1, 1));
    }

    #[test]
    fn empty_and_degenerate_tables_are_train_errors() {
        let fitter = LogisticRegression::default();
        assert_eq!(GroupedTable::new().fit(&fitter), Err(TrainError::Empty));
        let mut t = GroupedTable::new();
        t.push(&[1.0], 1.0).unwrap();
        t.push(&[2.0], 1.0).unwrap();
        let unpenalized = LogisticRegression {
            ridge: 0.0,
            ..fitter
        };
        assert_eq!(t.fit(&unpenalized), Err(TrainError::DegenerateLabels));
        // With the default ridge the penalized MLE exists.
        assert!(t.fit(&fitter).unwrap().predict_proba(&[1.5]) > 0.9);
    }

    /// Keys from a small set, so rows repeat and collide in the index:
    /// both zeros, negatives, subnormals and the extremes of the finite
    /// range.
    const KEYS: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.25,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
    ];

    /// One push of a random sequence: mostly rows of width 2 from
    /// [`KEYS`] with a 0/1 label, sometimes another width, a NaN or
    /// infinite feature, or a label other than 0 and 1.
    fn random_push(rng: &mut SimRng) -> (Vec<f64>, f64) {
        let width = match rng.index(20) {
            0 => 0,
            1 => 1,
            2 => 3,
            _ => 2,
        };
        let mut x: Vec<f64> = (0..width).map(|_| KEYS[rng.index(KEYS.len())]).collect();
        if width > 0 && rng.index(20) == 0 {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            x[rng.index(width)] = bad[rng.index(bad.len())];
        }
        let y = match rng.index(25) {
            0 => 0.5,
            1 => f64::NAN,
            2 => -0.0,
            n => f64::from(u8::from(n % 2 == 0)),
        };
        (x, y)
    }

    fn model_bits(fit: &Result<LogisticModel, TrainError>) -> Result<Vec<u64>, TrainError> {
        fit.clone().map(|m| {
            let mut bits = vec![m.intercept.to_bits()];
            bits.extend(m.coefficients.iter().map(|c| c.to_bits()));
            bits.extend([m.iterations as u64, u64::from(m.converged)]);
            bits
        })
    }

    proptest! {
        /// The flat table is the `BTreeMap` table it replaced: the same
        /// result for every push, the same length, the same cells in the
        /// same order, and bit-equal fits.
        #[test]
        fn flat_table_matches_the_tree_table(seed in 0u64..1_000_000, n in 0usize..300) {
            let mut rng = SimRng::new(seed);
            let (mut flat, mut tree) = (GroupedTable::new(), TreeTable::default());
            let fitter = LogisticRegression::default();
            for i in 0..n {
                let (x, y) = random_push(&mut rng);
                prop_assert_eq!(flat.push(&x, y), tree.push(&x, y), "push {} of {:?}, {}", i, x, y);
                prop_assert_eq!(flat.len(), tree.len());
                if i % 50 == 49 {
                    prop_assert_eq!(model_bits(&flat.fit(&fitter)), model_bits(&tree.fit(&fitter)));
                }
            }
            prop_assert_eq!(flat.cells(), tree.cells());
            prop_assert_eq!(model_bits(&flat.fit(&fitter)), model_bits(&tree.fit(&fitter)));
        }
    }
}
