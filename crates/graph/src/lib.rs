//! Directed-graph analysis for Markov systems.
//!
//! The ergodicity guarantees of the paper (Sec. VI and Appendix) are phrased
//! in terms of the directed (multi)graph underlying a Markov system:
//!
//! * an **invariant measure exists** when the graph is strongly connected
//!   (irreducible), and
//! * the invariant measure is **attractive** — the loop uniquely ergodic —
//!   when the adjacency matrix is additionally **primitive** (irreducible
//!   and aperiodic).
//!
//! This crate implements the graph machinery needed to check those
//! conditions: [`DiGraph`] with multi-edge support and a reachability test
//! of strong connectivity, graph period / aperiodicity ([`period`]), and
//! primitivity of the adjacency matrix ([`primitivity`]).
//!
//! # Example
//!
//! ```
//! use eqimpact_graph::DiGraph;
//!
//! // A 2-cycle is irreducible but periodic (period 2): an invariant
//! // measure exists but is not attractive.
//! let mut g = DiGraph::new(2);
//! g.add_edge(0, 1);
//! g.add_edge(1, 0);
//! assert!(g.is_strongly_connected());
//! assert_eq!(g.period(), Some(2));
//! assert!(!g.is_primitive());
//!
//! // Adding a self-loop makes it aperiodic, hence primitive.
//! g.add_edge(0, 0);
//! assert!(g.is_primitive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digraph;
pub mod period;
pub mod primitivity;

pub use digraph::{DiGraph, EdgeId, NodeId};
