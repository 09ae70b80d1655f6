//! Dense row-major `f64` matrices.

use crate::error::LinalgError;
use crate::vector::Vector;
use crate::Result;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// Indexing is `m[(row, col)]`. Like [`Vector`], operator impls panic on
/// dimension mismatch while `checked_*` methods return errors.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices; errors if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidShape {
                    reason: format!("row {i} has length {}, expected {cols}", r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer; errors if the length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidShape {
                reason: format!("buffer length {} does not match {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A copy of row `i` as a [`Vector`].
    pub fn row(&self, i: usize) -> Vector {
        Vector::from_slice(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// A copy of column `j` as a [`Vector`].
    pub fn col(&self, j: usize) -> Vector {
        Vector::from_fn(self.rows, |i| self.data[i * self.cols + j])
    }

    /// Slice view of row `i`.
    pub fn row_slice(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.data[j * self.cols + i])
    }

    /// Matrix-vector product; errors on dimension mismatch.
    pub fn mat_vec(&self, v: &Vector) -> Vector {
        assert_eq!(
            self.cols,
            v.len(),
            "mat_vec: matrix is {}x{}, vector has length {}",
            self.rows,
            self.cols,
            v.len()
        );
        let mut out = Vector::zeros(self.rows);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.as_slice()) {
                acc += a * b;
            }
            out[i] = acc;
        }
        out
    }

    /// Checked matrix-matrix product.
    pub fn checked_mul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mat_mul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order for cache-friendly access of the row-major layout.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Checked matrix addition.
    pub fn checked_add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "mat_add",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Checked matrix subtraction.
    pub fn checked_sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "mat_sub",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Entry-wise scaled copy.
    pub fn scaled(&self, factor: f64) -> Matrix {
        let mut out = self.clone();
        for x in &mut out.data {
            *x *= factor;
        }
        out
    }

    /// Solves `A x = b` via LU decomposition with partial pivoting.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        crate::lu::Lu::decompose(self)?.solve(b)
    }

    /// Matrix inverse via LU decomposition; errors if singular.
    pub fn inverse(&self) -> Result<Matrix> {
        crate::lu::Lu::decompose(self)?.inverse()
    }

    /// Determinant via LU decomposition (0 for singular matrices).
    pub fn determinant(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        match crate::lu::Lu::decompose(self) {
            Ok(lu) => Ok(lu.determinant()),
            Err(LinalgError::Singular { .. }) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Trace (sum of diagonal entries); errors for non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self.data[i * self.cols + i]).sum())
    }

    /// `Aᵀ A` as used in normal equations.
    pub fn gram(&self) -> Matrix {
        let t = self.transpose();
        t.checked_mul(self).expect("gram: internal shape invariant")
    }

    /// `Aᵀ v`; panics on dimension mismatch.
    pub fn transpose_mat_vec(&self, v: &Vector) -> Vector {
        assert_eq!(
            self.rows,
            v.len(),
            "transpose_mat_vec: matrix is {}x{}, vector has length {}",
            self.rows,
            self.cols,
            v.len()
        );
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (o, a) in out.as_mut_slice().iter_mut().zip(row) {
                *o += vi * a;
            }
        }
        out
    }

    /// Returns `true` if any entry is `NaN` or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Maximum absolute entry (entry-wise ∞-norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.checked_add(rhs).expect("matrix add: shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.checked_sub(rhs).expect("matrix sub: shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.checked_mul(rhs).expect("matrix mul: shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        let id = Matrix::identity(3);
        assert_eq!(id.trace().unwrap(), 3.0);
        let empty = Matrix::from_rows(&[]).unwrap();
        assert_eq!(empty.shape(), (0, 0));
    }

    #[test]
    fn row_col_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.row(1).as_slice(), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2).as_slice(), &[3.0, 6.0]);
        assert_eq!(m.row_slice(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn mat_vec_product() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.mat_vec(&v).as_slice(), &[3.0, 7.0]);
        let tv = m.transpose_mat_vec(&v);
        assert_eq!(tv.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn mat_mul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = &a * &b;
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 1.0);
        assert_eq!(c[(1, 0)], 4.0);
        assert_eq!(c[(1, 1)], 3.0);
        assert!(a.checked_mul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let s = &a + &b;
        assert_eq!(s[(0, 0)], 2.0);
        let d = &b - &a;
        assert_eq!(d[(1, 1)], 3.0);
        let sc = &b * 2.0;
        assert_eq!(sc[(1, 0)], 6.0);
        assert!(a.checked_add(&Matrix::zeros(3, 3)).is_err());
        assert!(a.checked_sub(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn solve_and_inverse() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[3.0, 5.0]);
        let x = a.solve(&b).unwrap();
        let r = &a.mat_vec(&x) - &b;
        assert!(r.norm2() < 1e-12);
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        assert!((&prod - &Matrix::identity(2)).max_abs() < 1e-12);
    }

    #[test]
    fn determinant_values() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!(approx(a.determinant().unwrap(), 6.0));
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(approx(s.determinant().unwrap(), 0.0));
        assert!(Matrix::zeros(2, 3).determinant().is_err());
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        assert_eq!(g.shape(), (2, 2));
        assert!(approx(g[(0, 1)], g[(1, 0)]));
        assert!(approx(g[(0, 0)], 35.0));
    }

    #[test]
    fn non_finite_and_max_abs() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = -7.0;
        assert_eq!(m.max_abs(), 7.0);
        m[(1, 1)] = f64::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
