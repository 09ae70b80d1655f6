//! Error type for linear-algebra operations.

use std::fmt;

/// Errors produced by the `eqimpact-linalg` crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Dimensions of the left operand (rows, cols).
        left: (usize, usize),
        /// Dimensions of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// The matrix is singular (or numerically singular) to working precision.
    Singular {
        /// Pivot index at which singularity was detected.
        pivot: usize,
    },
    /// The matrix is not positive definite (Cholesky failure).
    NotPositiveDefinite {
        /// Leading-minor index at which the failure was detected.
        minor: usize,
    },
    /// Construction from raw parts received inconsistent data.
    InvalidShape {
        /// Explanation of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { minor } => {
                write!(
                    f,
                    "matrix is not positive definite at leading minor {minor}"
                )
            }
            LinalgError::InvalidShape { reason } => write!(f, "invalid shape: {reason}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            op: "mat_mul",
            left: (2, 3),
            right: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("mat_mul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare { rows: 3, cols: 4 };
        assert!(e.to_string().contains("3x4"));
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular { pivot: 2 };
        assert!(e.to_string().contains("pivot 2"));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = LinalgError::NotPositiveDefinite { minor: 1 };
        assert!(e.to_string().contains("minor 1"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&LinalgError::Singular { pivot: 0 });
    }
}
