//! Property-based tests for the graph substrate.

use eqimpact_graph::DiGraph;
use proptest::prelude::*;

/// Random graph strategy: up to `n` nodes, arbitrary edge set.
fn arb_graph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (1..=max_n).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 0..(n * n).min(40))
            .prop_map(move |edges| DiGraph::from_edges(n, &edges))
    })
}

/// Brute-force reachability oracle: a breadth-first search from `u`.
fn reaches(g: &DiGraph, u: usize, v: usize) -> bool {
    g.reachable_from(u)[v]
}

proptest! {
    #[test]
    fn strong_connectivity_consistent_with_scc(g in arb_graph(8)) {
        // Strongly connected: one component, so every ordered pair of
        // nodes reaches each other.
        let n = g.node_count();
        let all_pairs = (0..n).all(|u| (0..n).all(|v| reaches(&g, u, v)));
        prop_assert_eq!(g.is_strongly_connected(), all_pairs);
    }

    #[test]
    fn primitivity_checks_agree(g in arb_graph(5)) {
        prop_assert_eq!(
            eqimpact_graph::primitivity::is_primitive(&g),
            eqimpact_graph::primitivity::is_primitive_by_powers(&g)
        );
    }

    #[test]
    fn primitive_implies_strongly_connected_and_aperiodic(g in arb_graph(6)) {
        if g.is_primitive() {
            prop_assert!(g.is_strongly_connected());
            prop_assert_eq!(g.period(), Some(1));
        }
    }

    #[test]
    fn period_divides_every_cycle_through_node_zero(g in arb_graph(6)) {
        if let Some(p) = g.period() {
            // Find shortest cycle through node 0 by BFS back to 0.
            let n = g.node_count();
            let mut dist = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            for &(_, v) in g.out_edges(0) {
                if v == 0 {
                    prop_assert_eq!(1 % p, 0);
                } else if dist[v] == usize::MAX {
                    dist[v] = 1;
                    queue.push_back(v);
                }
            }
            while let Some(u) = queue.pop_front() {
                for &(_, v) in g.out_edges(u) {
                    if v == 0 {
                        prop_assert_eq!((dist[u] as u64 + 1) % p, 0,
                            "cycle of length {} not divisible by period {}", dist[u] + 1, p);
                    } else if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
    }

    #[test]
    fn reversal_preserves_scc(g in arb_graph(8)) {
        // Reversal flips every path, so it keeps mutual reachability, the
        // relation the strongly connected components partition.
        let r = g.reversed();
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                prop_assert_eq!(reaches(&r, u, v), reaches(&g, v, u), "nodes {} and {}", u, v);
            }
        }
        prop_assert_eq!(r.is_strongly_connected(), g.is_strongly_connected());
    }
}
