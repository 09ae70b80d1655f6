//! Condensation of a directed graph onto its strongly connected components.
//!
//! The condensation is always a DAG. For Markov-system analysis it exposes
//! *which* parts of the state space are recurrent (sink components) versus
//! transient — only sink components can carry invariant measures.

use crate::digraph::DiGraph;
use crate::scc::StronglyConnectedComponents;

/// The condensation DAG of a directed graph.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// The underlying SCC decomposition.
    scc: StronglyConnectedComponents,
    /// The condensed graph: one node per SCC, deduplicated edges.
    dag: DiGraph,
}

impl Condensation {
    /// Computes the condensation of `g`.
    pub fn compute(g: &DiGraph) -> Self {
        let scc = StronglyConnectedComponents::compute(g);
        let k = scc.count();
        let mut dag = DiGraph::new(k);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in g.edges() {
            let cu = scc.component_of(u);
            let cv = scc.component_of(v);
            if cu != cv && seen.insert((cu, cv)) {
                dag.add_edge(cu, cv);
            }
        }
        Condensation { scc, dag }
    }

    /// The SCC decomposition underlying this condensation.
    pub fn scc(&self) -> &StronglyConnectedComponents {
        &self.scc
    }

    /// The condensed DAG (one node per component).
    pub fn dag(&self) -> &DiGraph {
        &self.dag
    }

    /// Indices of sink components (no outgoing edges in the condensation).
    ///
    /// These are the recurrent classes of a Markov system: trajectories
    /// eventually enter a sink component and stay.
    #[cfg(test)]
    pub fn sink_components(&self) -> Vec<usize> {
        (0..self.dag.node_count())
            .filter(|&c| self.dag.out_degree(c) == 0)
            .collect()
    }

    /// Whether the original graph had a unique recurrent class — a
    /// necessary condition for a *unique* invariant measure.
    #[cfg(test)]
    pub fn has_unique_sink(&self) -> bool {
        self.sink_components().len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condensation_of_two_cycles() {
        // {0,1} -> {2,3}
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let c = Condensation::compute(&g);
        assert_eq!(c.dag().node_count(), 2);
        assert_eq!(c.dag().edge_count(), 1);
        assert!(c.has_unique_sink());
        let sink = c.sink_components()[0];
        // The sink component must contain nodes 2 and 3.
        assert_eq!(c.scc().component(sink), &[2, 3]);
    }

    #[test]
    fn condensation_is_acyclic() {
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 0),
                (2, 3),
                (3, 2),
                (4, 5),
                (5, 4),
                (0, 2),
                (2, 4),
            ],
        );
        let c = Condensation::compute(&g);
        // A DAG has no strongly connected component of size > 1.
        let inner = StronglyConnectedComponents::compute(c.dag());
        for i in 0..inner.count() {
            assert_eq!(inner.component(i).len(), 1);
        }
    }

    #[test]
    fn parallel_edges_deduplicated() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (0, 2), (1, 2)]);
        let c = Condensation::compute(&g);
        assert_eq!(c.dag().node_count(), 2);
        assert_eq!(c.dag().edge_count(), 1);
    }

    #[test]
    fn multiple_sinks_detected() {
        // 0 -> 1, 0 -> 2, both 1 and 2 terminal.
        let g = DiGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let c = Condensation::compute(&g);
        assert_eq!(c.sink_components().len(), 2);
        assert!(!c.has_unique_sink());
    }

    #[test]
    fn strongly_connected_graph_condenses_to_point() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let c = Condensation::compute(&g);
        assert_eq!(c.dag().node_count(), 1);
        assert_eq!(c.dag().edge_count(), 0);
        assert!(c.has_unique_sink());
    }
}
