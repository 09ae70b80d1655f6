//! Directed multigraph with adjacency-list storage.

use eqimpact_linalg::Matrix;

/// Identifier of a node (vertex) — a dense index in `0..node_count`.
pub type NodeId = usize;

/// Identifier of an edge — a dense index in `0..edge_count`.
pub type EdgeId = usize;

/// A directed multigraph.
///
/// Vertices are dense indices; parallel edges and self-loops are allowed,
/// matching the *multi*graph of a Markov system where several maps `w_e`
/// can share the same initial and terminal vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    /// `out[u]` lists `(edge_id, v)` for every edge `u -> v`.
    out: Vec<Vec<(EdgeId, NodeId)>>,
    /// `edges[e] = (u, v)`.
    edges: Vec<(NodeId, NodeId)>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Builds a graph from an edge list over `n` nodes.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges (counting multiplicities).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an edge `u -> v`, returning its id.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        let n = self.node_count();
        assert!(u < n && v < n, "edge endpoint out of range");
        let id = self.edges.len();
        self.edges.push((u, v));
        self.out[u].push((id, v));
        id
    }

    /// Outgoing `(edge, target)` pairs of `u`.
    pub fn out_edges(&self, u: NodeId) -> &[(EdgeId, NodeId)] {
        &self.out[u]
    }

    /// Returns `true` if there is at least one edge `u -> v`.
    #[cfg(test)]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out[u].iter().any(|&(_, w)| w == v)
    }

    /// 0/1 adjacency matrix (parallel edges collapse to 1).
    pub fn adjacency_matrix(&self) -> Matrix {
        let n = self.node_count();
        let mut m = Matrix::zeros(n, n);
        for &(u, v) in &self.edges {
            m[(u, v)] = 1.0;
        }
        m
    }

    /// Graph with all edges reversed.
    pub fn reversed(&self) -> DiGraph {
        let mut g = DiGraph::new(self.node_count());
        for &(u, v) in &self.edges {
            g.add_edge(v, u);
        }
        g
    }

    /// Nodes reachable from `start` (including `start`), via BFS.
    pub fn reachable_from(&self, start: NodeId) -> Vec<bool> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        if start >= n {
            return seen;
        }
        let mut queue = std::collections::VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &(_, v) in &self.out[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Whether every node is reachable from every other (irreducibility).
    ///
    /// The empty graph is vacuously strongly connected; a single node with
    /// no edges is strongly connected.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        self.reachable_from(0).iter().all(|&r| r)
            && self.reversed().reachable_from(0).iter().all(|&r| r)
    }

    /// The period of the graph (gcd of all cycle lengths), or `None` when
    /// the graph has no cycle or is not strongly connected.
    ///
    /// Delegates to [`crate::period::period`].
    pub fn period(&self) -> Option<u64> {
        crate::period::period(self)
    }

    /// Whether the graph is aperiodic (strongly connected with period 1).
    pub fn is_aperiodic(&self) -> bool {
        self.period() == Some(1)
    }

    /// Whether the adjacency matrix is primitive (some power is entrywise
    /// positive) — equivalently, strongly connected and aperiodic.
    ///
    /// Delegates to [`crate::primitivity::is_primitive`].
    pub fn is_primitive(&self) -> bool {
        crate::primitivity::is_primitive(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_degrees() {
        let mut g = DiGraph::new(3);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(1, 2);
        let e2 = g.add_edge(0, 1); // parallel edge
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_edges(0), [(e0, 1), (e2, 1)]);
        assert_eq!(g.out_edges(1), [(e1, 2)]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn adjacency_matrices() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        let a = g.adjacency_matrix();
        assert_eq!(a[(0, 1)], 1.0);
        assert_eq!(a[(1, 0)], 1.0);
        assert_eq!(a[(0, 0)], 0.0);
    }

    #[test]
    fn reversal() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = g.reversed();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 1));
        assert!(!r.has_edge(0, 1));
    }

    #[test]
    fn reachability() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let r = g.reachable_from(0);
        assert_eq!(r, vec![true, true, true, false]);
        let r2 = g.reachable_from(3);
        assert_eq!(r2, vec![false, false, false, true]);
    }

    #[test]
    fn strong_connectivity() {
        assert!(DiGraph::new(0).is_strongly_connected());
        assert!(DiGraph::new(1).is_strongly_connected());
        let cycle = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(cycle.is_strongly_connected());
        let path = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!path.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = DiGraph::new(1);
        g.add_edge(0, 1);
    }
}
