//! Labeled design matrices, stored column-major.
//!
//! Since the columnar feature-plane redesign the dataset keeps one flat
//! buffer per feature column (struct-of-arrays) instead of a row-major
//! [`eqimpact_linalg::Matrix`]. Training and scoring walk whole columns
//! through the `eqimpact_linalg::kernels` batch primitives. Learners that
//! accumulate observations across retrains keep them in a
//! [`crate::grouped::GroupedTable`] instead.

use eqimpact_linalg::Vector;
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
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn storage_is_columnar() {
        let ds = toy();
        let cols = ds.feature_columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], &[1.0, 3.0, 5.0]);
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
    fn error_display() {
        let e = DatasetError::NonFiniteFeature { row: 1, col: 2 };
        assert!(e.to_string().contains("(1, 2)"));
    }
}
