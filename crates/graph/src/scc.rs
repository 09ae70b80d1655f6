//! Tarjan's strongly connected components.

use crate::digraph::{DiGraph, NodeId};

/// The strongly connected components of a directed graph.
///
/// Components are emitted in **reverse topological order** of the
/// condensation (a property of Tarjan's algorithm): if component `A` has an
/// edge into component `B`, then `B` appears before `A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StronglyConnectedComponents {
    /// `components[c]` lists the nodes of component `c`.
    components: Vec<Vec<NodeId>>,
    /// `assignment[v]` is the component index of node `v`.
    assignment: Vec<usize>,
}

impl StronglyConnectedComponents {
    /// Computes the SCCs of `g` with an iterative Tarjan algorithm (no
    /// recursion, so deep graphs cannot overflow the stack).
    pub fn compute(g: &DiGraph) -> Self {
        let n = g.node_count();
        const UNVISITED: usize = usize::MAX;

        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next_index = 0usize;

        let mut components: Vec<Vec<NodeId>> = Vec::new();
        let mut assignment = vec![0usize; n];

        // Explicit DFS stack: (node, next out-edge offset to try).
        let mut call_stack: Vec<(NodeId, usize)> = Vec::new();

        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            call_stack.push((root, 0));
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut edge_i)) = call_stack.last_mut() {
                if *edge_i < g.out_degree(v) {
                    let (_, w) = g.out_edges(v)[*edge_i];
                    *edge_i += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&(parent, _)) = call_stack.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        // v is the root of an SCC: pop it off the Tarjan stack.
                        let comp_id = components.len();
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            assignment[w] = comp_id;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        components.push(comp);
                    }
                }
            }
        }

        StronglyConnectedComponents {
            components,
            assignment,
        }
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.components.len()
    }

    /// Nodes of component `c`, sorted ascending.
    #[cfg(test)]
    pub fn component(&self, c: usize) -> &[NodeId] {
        &self.components[c]
    }

    /// All components (reverse topological order of the condensation).
    pub fn components(&self) -> &[Vec<NodeId>] {
        &self.components
    }

    /// The component index of node `v`.
    pub fn component_of(&self, v: NodeId) -> usize {
        self.assignment[v]
    }

    /// Whether nodes `u` and `v` lie in the same component.
    // analyze::allow(R8): graph/tests/properties.rs checks the components against mutual reachability through it
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.assignment[u] == self.assignment[v]
    }

    /// Whether the whole graph is a single strongly connected component.
    #[cfg(test)]
    pub fn is_single(&self) -> bool {
        self.components.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_is_one_component() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let scc = StronglyConnectedComponents::compute(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.component(0), &[0, 1, 2]);
        assert!(scc.is_single());
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let scc = StronglyConnectedComponents::compute(&g);
        assert_eq!(scc.count(), 3);
        for c in 0..3 {
            assert_eq!(scc.component(c).len(), 1);
        }
    }

    #[test]
    fn two_cycles_connected_by_bridge() {
        // 0 <-> 1 and 2 <-> 3, bridge 1 -> 2.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = StronglyConnectedComponents::compute(&g);
        assert_eq!(scc.count(), 2);
        assert!(scc.same_component(0, 1));
        assert!(scc.same_component(2, 3));
        assert!(!scc.same_component(0, 2));
        // Reverse topological order: {2,3} (the sink) must come first.
        assert_eq!(scc.component(0), &[2, 3]);
        assert_eq!(scc.component(1), &[0, 1]);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let g = DiGraph::from_edges(2, &[(0, 0)]);
        let scc = StronglyConnectedComponents::compute(&g);
        assert_eq!(scc.count(), 2);
        assert!(!scc.same_component(0, 1));
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        let scc = StronglyConnectedComponents::compute(&g);
        assert_eq!(scc.count(), 0);
        assert!(scc.is_single()); // vacuously
    }

    #[test]
    fn deep_path_does_not_overflow() {
        // 100_000-node path: a recursive Tarjan would blow the stack.
        let n = 100_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n, &edges);
        let scc = StronglyConnectedComponents::compute(&g);
        assert_eq!(scc.count(), n);
    }

    #[test]
    fn component_assignment_consistent_with_lists() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2)]);
        let scc = StronglyConnectedComponents::compute(&g);
        for (c, comp) in scc.components().iter().enumerate() {
            for &v in comp {
                assert_eq!(scc.component_of(v), c);
            }
        }
    }
}
