//! Property-based tests for the linear-algebra substrate.

use eqimpact_linalg::{Matrix, Vector};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len..=len)
}

fn well_conditioned_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    // Diagonally dominant matrices are guaranteed invertible.
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).unwrap();
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

proptest! {
    #[test]
    fn triangle_inequality_l2(a in small_vec(4), b in small_vec(4)) {
        let va = Vector::from_slice(&a);
        let vb = Vector::from_slice(&b);
        let sum = &va + &vb;
        prop_assert!(sum.norm2() <= va.norm2() + vb.norm2() + 1e-9);
    }

    #[test]
    fn norm_ordering(a in small_vec(6)) {
        // ‖x‖_∞ ≤ ‖x‖_2 for any vector.
        let v = Vector::from_slice(&a);
        prop_assert!(v.norm_inf() <= v.norm2() + 1e-9);
    }

    #[test]
    fn solve_then_multiply_roundtrip(m in well_conditioned_matrix(4), b in small_vec(4)) {
        let rhs = Vector::from_slice(&b);
        let x = m.solve(&rhs).unwrap();
        let r = &m.mat_vec(&x) - &rhs;
        prop_assert!(r.norm2() < 1e-6 * (1.0 + rhs.norm2()));
    }

    #[test]
    fn inverse_roundtrip(m in well_conditioned_matrix(3)) {
        let inv = m.inverse().unwrap();
        let prod = &m * &inv;
        prop_assert!((&prod - &Matrix::identity(3)).max_abs() < 1e-8);
    }

    #[test]
    fn transpose_involution(data in prop::collection::vec(-10.0f64..10.0, 12)) {
        let m = Matrix::from_vec(3, 4, data).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associative(
        a in well_conditioned_matrix(3),
        b in well_conditioned_matrix(3),
        c in well_conditioned_matrix(3),
    ) {
        let left = &(&a * &b) * &c;
        let right = &a * &(&b * &c);
        prop_assert!((&left - &right).max_abs() < 1e-6 * left.max_abs().max(1.0));
    }

    #[test]
    fn determinant_multiplicative(
        a in well_conditioned_matrix(3),
        b in well_conditioned_matrix(3),
    ) {
        let da = a.determinant().unwrap();
        let db = b.determinant().unwrap();
        let dab = (&a * &b).determinant().unwrap();
        prop_assert!((dab - da * db).abs() < 1e-6 * dab.abs().max(1.0));
    }
}
