//! Dense `f64` vectors.

use crate::error::LinalgError;
use crate::Result;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, heap-allocated vector of `f64` values.
///
/// All arithmetic between two vectors requires identical lengths; the
/// operator impls panic on mismatch (consistent with indexing), while the
/// checked methods (`checked_add`, `dot`, ...) return [`LinalgError`].
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of `n` ones.
    pub fn ones(n: usize) -> Self {
        Vector { data: vec![1.0; n] }
    }

    /// Builds a vector by copying a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Builds a vector from an owned `Vec<f64>` without copying.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Vector { data: values }
    }

    /// Builds a vector from a function of the index.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Euclidean (ℓ²) norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// ℓ∞ norm (maximum absolute value); 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean; `NaN` for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Entry-wise scaling in place.
    pub fn scale_mut(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Returns an entry-wise scaled copy.
    pub fn scaled(&self, factor: f64) -> Vector {
        let mut out = self.clone();
        out.scale_mut(factor);
        out
    }

    /// `self += alpha * other` (BLAS `axpy`); errors on length mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Applies `f` to every entry, returning a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector::from_vec(self.data.iter().map(|&x| f(x)).collect())
    }

    /// Maximum entry; `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum entry; `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Checked addition returning a new vector.
    pub fn checked_add(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        ))
    }

    /// Checked subtraction returning a new vector.
    pub fn checked_sub(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        ))
    }

    /// Returns `true` if any entry is `NaN` or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        self.checked_add(rhs).expect("vector add: length mismatch")
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        self.checked_sub(rhs).expect("vector sub: length mismatch")
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs).expect("vector +=: length mismatch");
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs).expect("vector -=: length mismatch");
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v[1], 2.0);
        let z = Vector::zeros(4);
        assert_eq!(z.sum(), 0.0);
        let o = Vector::ones(4);
        assert_eq!(o.sum(), 4.0);
        let f = Vector::from_fn(3, |i| (i * i) as f64);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 4.0]);
    }

    #[test]
    fn norms() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(a.norm2(), 5.0);
        assert_eq!(a.norm_inf(), 4.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn axpy_checks_lengths() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[5.0, 7.0]);
        assert!(a.axpy(1.0, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn map_min_max_mean() {
        let v = Vector::from_slice(&[-2.0, 0.0, 4.0]);
        assert_eq!(v.map(f64::abs).as_slice(), &[2.0, 0.0, 4.0]);
        assert_eq!(v.max(), 4.0);
        assert_eq!(v.min(), -2.0);
        assert!((v.mean() - 2.0 / 3.0).abs() < 1e-15);
        assert!(Vector::zeros(0).mean().is_nan());
    }

    #[test]
    fn non_finite_detection() {
        let mut v = Vector::zeros(2);
        assert!(!v.has_non_finite());
        v[0] = f64::NAN;
        assert!(v.has_non_finite());
        v[0] = f64::INFINITY;
        assert!(v.has_non_finite());
    }

    #[test]
    fn from_iterator_roundtrip() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let total: f64 = (&v).into_iter().sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn operator_add_panics_on_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        let _ = &a + &b;
    }
}
