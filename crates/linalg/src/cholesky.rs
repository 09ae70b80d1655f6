//! Cholesky decomposition for symmetric positive-definite systems.
//!
//! Used by the IRLS solver in `eqimpact-ml`, where the normal-equation
//! matrix `Xᵀ W X` is symmetric positive (semi-)definite; Cholesky is both
//! faster and more numerically honest than LU for this case.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// A Cholesky factorization `A = L Lᵀ` with `L` lower triangular.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (upper triangle is zero).
    l: Matrix,
}

impl Cholesky {
    /// Computes the factorization. Errors for non-square input or when a
    /// leading minor is not positive (matrix not positive definite).
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle is stale.
    pub fn decompose(a: &Matrix) -> Result<Cholesky> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { minor: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the precomputed factor.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }
}

/// Solves `A x = b` for symmetric positive-definite `A`, adding a small
/// ridge `lambda * I` and retrying when the factorization fails.
///
/// This is the fallback used by IRLS when separation makes `Xᵀ W X`
/// numerically semi-definite. Returns the solution together with the ridge
/// that was finally applied (0.0 when no ridge was needed).
pub fn solve_spd_with_ridge(a: &Matrix, b: &Vector, max_ridge: f64) -> Result<(Vector, f64)> {
    match Cholesky::decompose(a) {
        Ok(ch) => return ch.solve(b).map(|x| (x, 0.0)),
        Err(LinalgError::NotPositiveDefinite { .. }) => {}
        Err(e) => return Err(e),
    }
    let mut ridge = 1e-10 * a.max_abs().max(1.0);
    while ridge <= max_ridge {
        let mut regularized = a.clone();
        for i in 0..a.rows() {
            regularized[(i, i)] += ridge;
        }
        if let Ok(ch) = Cholesky::decompose(&regularized) {
            return ch.solve(b).map(|x| (x, ridge));
        }
        ridge *= 10.0;
    }
    Err(LinalgError::NotPositiveDefinite { minor: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_spd_matrix() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let ch = Cholesky::decompose(&a).unwrap();
        // Known factor: L = [[2,0,0],[6,1,0],[-8,5,3]].
        assert!((ch.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((ch.l()[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((ch.l()[(2, 2)] - 3.0).abs() < 1e-12);
        // Reconstruction.
        let rec = ch.l().checked_mul(&ch.l().transpose()).unwrap();
        assert!((&rec - &a).max_abs() < 1e-10);
    }

    #[test]
    fn solve_matches_direct() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = Vector::from_slice(&[3.0, 3.0]);
        let x = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_bad_rhs() {
        assert!(Cholesky::decompose(&Matrix::zeros(2, 3)).is_err());
        let ch = Cholesky::decompose(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn ridge_fallback_recovers_semidefinite() {
        // Rank-1 PSD matrix: plain Cholesky fails, ridge succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = Vector::from_slice(&[2.0, 2.0]);
        let (x, ridge) = solve_spd_with_ridge(&a, &b, 1.0).unwrap();
        assert!(ridge > 0.0);
        // Residual should be tiny relative to the ridge scale.
        let r = &a.mat_vec(&x) - &b;
        assert!(r.norm2() < 1e-3);
    }

    #[test]
    fn ridge_not_applied_when_unneeded() {
        let a = Matrix::identity(2);
        let b = Vector::from_slice(&[1.0, 2.0]);
        let (x, ridge) = solve_spd_with_ridge(&a, &b, 1.0).unwrap();
        assert_eq!(ridge, 0.0);
        assert_eq!(x.as_slice(), &[1.0, 2.0]);
    }
}
