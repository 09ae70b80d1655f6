//! Labeled design matrices, stored column-major.
//!
//! Since the columnar feature-plane redesign the dataset keeps one flat
//! buffer per feature column (struct-of-arrays) instead of a row-major
//! [`eqimpact_linalg::Matrix`]. Training and scoring walk whole columns
//! through the `eqimpact_linalg::kernels` batch primitives. Learners that
//! accumulate observations across retrains keep them in a
//! [`crate::grouped::GroupedTable`] instead.

use eqimpact_linalg::{kernels, Vector};
use std::fmt;

/// Errors from dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The number of rows and labels differ.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Rows have inconsistent widths.
    RaggedRows,
    /// The dataset has no rows.
    Empty,
    /// A label is not 0 or 1.
    NonBinaryLabel {
        /// Index of the offending label.
        index: usize,
    },
    /// A feature is NaN or infinite.
    NonFiniteFeature {
        /// Row of the offending feature.
        row: usize,
        /// Column of the offending feature.
        col: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { rows, labels } => {
                write!(f, "{rows} rows but {labels} labels")
            }
            DatasetError::RaggedRows => write!(f, "rows have inconsistent widths"),
            DatasetError::Empty => write!(f, "dataset has no rows"),
            DatasetError::NonBinaryLabel { index } => {
                write!(f, "label at index {index} is not 0/1")
            }
            DatasetError::NonFiniteFeature { row, col } => {
                write!(f, "non-finite feature at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A binary-labeled dataset: feature columns `X` (no intercept column — the
/// model adds it) plus labels `y ∈ {0, 1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    cols: Vec<Vec<f64>>,
    y: Vector,
}

impl Dataset {
    /// Builds a dataset from feature rows and binary labels.
    pub fn new(rows: &[Vec<f64>], labels: &[f64]) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DatasetError::LengthMismatch {
                rows: rows.len(),
                labels: labels.len(),
            });
        }
        let width = rows[0].len();
        if rows.iter().any(|r| r.len() != width) {
            return Err(DatasetError::RaggedRows);
        }
        let mut flat = Vec::with_capacity(rows.len() * width);
        for r in rows {
            flat.extend_from_slice(r);
        }
        Self::from_flat_buffer(width, flat, labels)
    }

    /// Builds a dataset from an already-flat row-major feature buffer of
    /// `labels.len()` rows by `width` columns, for callers that keep their
    /// features flat.
    pub fn from_flat(width: usize, flat: &[f64], labels: &[f64]) -> Result<Self, DatasetError> {
        Self::from_flat_buffer(width, flat.to_vec(), labels)
    }

    /// All cell and label validation for the row-major constructors lives
    /// here; the validated buffer is then transposed once into the
    /// column-major storage.
    fn from_flat_buffer(
        width: usize,
        flat: Vec<f64>,
        labels: &[f64],
    ) -> Result<Self, DatasetError> {
        if labels.is_empty() {
            return Err(DatasetError::Empty);
        }
        if flat.len() != labels.len() * width {
            return Err(DatasetError::LengthMismatch {
                rows: flat.len() / width.max(1),
                labels: labels.len(),
            });
        }
        // When width == 0 the length check above forces `flat` empty, so
        // the divisions below never see a zero width.
        for (cell, &v) in flat.iter().enumerate() {
            if !v.is_finite() {
                return Err(DatasetError::NonFiniteFeature {
                    row: cell / width,
                    col: cell % width,
                });
            }
        }
        validate_labels(labels)?;
        let n = labels.len();
        let mut cols = vec![Vec::with_capacity(n); width];
        for row in flat.chunks_exact(width.max(1)) {
            for (col, &v) in cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Ok(Dataset {
            cols,
            y: Vector::from_slice(labels),
        })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset has no rows (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.y.len() == 0
    }

    /// Number of features (without intercept).
    pub fn feature_count(&self) -> usize {
        self.cols.len()
    }

    /// Feature column `j` as a contiguous slice.
    pub fn feature_col(&self, j: usize) -> &[f64] {
        &self.cols[j]
    }

    /// All feature columns, in order — the shape the batch kernels and
    /// `LogisticModel::linear_scores_into` consume.
    pub fn feature_columns(&self) -> Vec<&[f64]> {
        self.cols.iter().map(|c| c.as_slice()).collect()
    }

    /// The labels.
    pub fn labels(&self) -> &Vector {
        &self.y
    }

    /// Feature row `i`, gathered across columns (inspection/test
    /// convenience; the hot paths stay columnar).
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Per-column mean and standard deviation (population), used for
    /// standardization. Degenerate columns (zero spread) report sd = 1 so
    /// that standardization is a no-op on them. Accumulation runs over each
    /// column in row order, so results are bit-identical to the old
    /// row-major sweep.
    pub fn column_stats(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.len() as f64;
        let mut means = Vec::with_capacity(self.cols.len());
        for col in &self.cols {
            means.push(kernels::sum_seq(col) / n);
        }
        let mut sds = Vec::with_capacity(self.cols.len());
        for (col, &m) in self.cols.iter().zip(&means) {
            let mut s = 0.0;
            for &v in col {
                s += (v - m) * (v - m);
            }
            s = (s / n).sqrt();
            if s < 1e-12 {
                s = 1.0;
            }
            sds.push(s);
        }
        (means, sds)
    }

    /// Returns a standardized copy (per-column z-scores) together with the
    /// `(means, sds)` used, so predictions can apply the same transform.
    pub fn standardized(&self) -> (Dataset, Vec<f64>, Vec<f64>) {
        let (means, sds) = self.column_stats();
        let cols: Vec<Vec<f64>> = self
            .cols
            .iter()
            .enumerate()
            .map(|(j, col)| col.iter().map(|&v| (v - means[j]) / sds[j]).collect())
            .collect();
        let ds = Dataset {
            cols,
            y: self.y.clone(),
        };
        (ds, means, sds)
    }
}

fn validate_labels(labels: &[f64]) -> Result<(), DatasetError> {
    for (i, &l) in labels.iter().enumerate() {
        if l != 0.0 && l != 1.0 {
            return Err(DatasetError::NonBinaryLabel { index: i });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            &[0.0, 1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let ds = toy();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.feature_count(), 2);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn storage_is_columnar() {
        let ds = toy();
        assert_eq!(ds.feature_col(0), &[1.0, 3.0, 5.0]);
        assert_eq!(ds.feature_col(1), &[2.0, 4.0, 6.0]);
        let cols = ds.feature_columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1], &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert_eq!(Dataset::new(&[], &[]).unwrap_err(), DatasetError::Empty);
        assert!(matches!(
            Dataset::new(&[vec![1.0]], &[1.0, 0.0]).unwrap_err(),
            DatasetError::LengthMismatch { .. }
        ));
        assert_eq!(
            Dataset::new(&[vec![1.0], vec![1.0, 2.0]], &[0.0, 1.0]).unwrap_err(),
            DatasetError::RaggedRows
        );
        assert!(matches!(
            Dataset::new(&[vec![1.0]], &[0.5]).unwrap_err(),
            DatasetError::NonBinaryLabel { index: 0 }
        ));
        assert!(matches!(
            Dataset::new(&[vec![f64::NAN]], &[0.0]).unwrap_err(),
            DatasetError::NonFiniteFeature { row: 0, col: 0 }
        ));
    }

    #[test]
    fn column_stats_and_standardization() {
        let ds = toy();
        let (means, sds) = ds.column_stats();
        assert!((means[0] - 3.0).abs() < 1e-12);
        assert!((means[1] - 4.0).abs() < 1e-12);
        let expected_sd = (8.0f64 / 3.0).sqrt();
        assert!((sds[0] - expected_sd).abs() < 1e-12);

        let (z, zm, zs) = ds.standardized();
        assert_eq!(zm.len(), 2);
        assert_eq!(zs.len(), 2);
        let (zmeans, zsds) = z.column_stats();
        assert!(zmeans.iter().all(|m| m.abs() < 1e-12));
        assert!(zsds.iter().all(|s| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn degenerate_column_sd_is_one() {
        let ds = Dataset::new(&[vec![5.0], vec![5.0]], &[0.0, 1.0]).unwrap();
        let (_, sds) = ds.column_stats();
        assert_eq!(sds[0], 1.0);
        // Standardizing a constant column must not produce NaN.
        let (z, _, _) = ds.standardized();
        assert!(z.row(0)[0].is_finite());
    }

    #[test]
    fn error_display() {
        let e = DatasetError::NonFiniteFeature { row: 1, col: 2 };
        assert!(e.to_string().contains("(1, 2)"));
    }
}
