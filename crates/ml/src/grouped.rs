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
//! Cells are keyed by the exact bit pattern of the feature vector in a
//! `BTreeMap`, and counts are integers, so the fitted model is a function
//! of the table's contents alone: arrival order never changes a bit.

use crate::dataset::DatasetError;
use crate::logistic::{LogisticModel, LogisticRegression, TrainError};
use std::collections::BTreeMap;

/// Observations sharing one feature vector, and how many were positive.
#[derive(Debug, Clone)]
struct Cell {
    observations: u64,
    positives: u64,
}

/// Binary-labeled observations pooled by feature vector.
#[derive(Debug, Clone, Default)]
pub struct GroupedTable {
    cells: BTreeMap<Vec<u64>, Cell>,
    observations: usize,
    /// Key scratch, reused so that a push to an existing cell does not
    /// allocate.
    key: Vec<u64>,
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
        if let Some((first, _)) = self.cells.first_key_value() {
            if first.len() != x.len() {
                return Err(DatasetError::RaggedRows);
            }
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
        let positive = u64::from(y == 1.0);
        self.key.clear();
        self.key.extend(x.iter().map(|v| v.to_bits()));
        if let Some(cell) = self.cells.get_mut(self.key.as_slice()) {
            cell.observations += 1;
            cell.positives += positive;
        } else {
            let cell = Cell {
                observations: 1,
                positives: positive,
            };
            self.cells.insert(self.key.clone(), cell);
        }
        self.observations += 1;
        Ok(())
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
        self.cells.len()
    }

    /// Fits `fitter`'s logistic model to every accepted observation, one
    /// IRLS row per cell weighted by its count.
    ///
    /// Returns [`TrainError::Empty`] for an empty table, and otherwise
    /// the errors of [`LogisticRegression::fit`].
    pub fn fit(&self, fitter: &LogisticRegression) -> Result<LogisticModel, TrainError> {
        let width = self.cells.first_key_value().map_or(0, |(k, _)| k.len());
        let n = self.cells.len();
        let mut cols = vec![Vec::with_capacity(n); width];
        let mut positives = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        for (key, cell) in &self.cells {
            for (col, &bits) in cols.iter_mut().zip(key) {
                col.push(f64::from_bits(bits));
            }
            positives.push(cell.positives as f64);
            counts.push(cell.observations as f64);
        }
        let cols: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        fitter.fit_grouped(&cols, &positives, &counts)
    }
}

// The agreement with the row fit is a property test in
// `tests/properties.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::sigmoid;
    use eqimpact_stats::SimRng;

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
}
