//! Dense linear algebra substrate for the `eqimpact` workspace.
//!
//! The workspace deliberately avoids heavyweight numeric dependencies: the
//! linear algebra actually required by the paper — small dense systems for
//! iteratively-reweighted least squares (logistic regression), Markov
//! transition matrices and the metrics of contractivity analysis — fits in
//! a few hundred audited lines.
//!
//! The central types are [`Vector`] and [`Matrix`] (row-major, `f64`).
//! Factorizations live in [`lu`] and [`cholesky`]. Chunked batch kernels
//! for the columnar feature plane (slice-level `axpy`/`offset`/`fill`) live
//! in [`kernels`].
//!
//! # Example
//!
//! ```
//! use eqimpact_linalg::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b).unwrap();
//! let r = &a.mat_vec(&x) - &b;
//! assert!(r.norm2() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod error;
pub mod kernels;
pub mod lu;
pub mod matrix;
pub mod norm;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use vector::Vector;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
