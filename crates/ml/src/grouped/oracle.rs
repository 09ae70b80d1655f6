//! The oracle of the grouped table: the `BTreeMap` table it replaced,
//! keyed by the feature vector's bits. Each push walks the tree, and each
//! fit rebuilds the columns from the cells, so it is slow but obviously
//! in key order. `grouped.rs`'s property test feeds it and
//! [`super::GroupedTable`] the same pushes and compares every result.

use crate::dataset::DatasetError;
use crate::logistic::{LogisticModel, LogisticRegression, TrainError};
use std::collections::BTreeMap;

/// Observations sharing one feature vector, and how many were positive.
#[derive(Debug, Clone)]
struct Cell {
    observations: u64,
    positives: u64,
}

/// Binary-labeled observations pooled by feature vector, in a tree.
#[derive(Debug, Clone, Default)]
pub(super) struct TreeTable {
    cells: BTreeMap<Vec<u64>, Cell>,
    observations: usize,
}

impl TreeTable {
    /// Adds one observation, with `GroupedTable::push`'s checks.
    pub(super) fn push(&mut self, x: &[f64], y: f64) -> Result<(), DatasetError> {
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
        let key: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        let cell = self.cells.entry(key).or_insert(Cell {
            observations: 0,
            positives: 0,
        });
        cell.observations += 1;
        cell.positives += u64::from(y == 1.0);
        self.observations += 1;
        Ok(())
    }

    /// Observations accepted so far.
    pub(super) fn len(&self) -> usize {
        self.observations
    }

    /// Every cell in key order: its key's bits, observations and
    /// positives.
    pub(super) fn cells(&self) -> Vec<(Vec<u64>, u64, u64)> {
        self.cells
            .iter()
            .map(|(key, cell)| (key.clone(), cell.observations, cell.positives))
            .collect()
    }

    /// Fits one IRLS row per cell, weighted by its count.
    pub(super) fn fit(&self, fitter: &LogisticRegression) -> Result<LogisticModel, TrainError> {
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
