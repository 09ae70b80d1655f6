//! Markov systems after Werner (2004), as defined in the paper's Appendix.
//!
//! A Markov system is a family `(X_{i(e)}, w_e, p_e)_{e ∈ E}` where `E` is
//! the edge set of a finite directed multigraph over vertices
//! `V = {0, ..., N-1}`, the cells `X_0, ..., X_{N-1}` partition the state
//! space, each edge `e: i(e) -> t(e)` carries a Borel map `w_e` with
//! `w_e(X_{i(e)}) ⊆ X_{t(e)}`, and place-dependent probabilities `p_e(x)`
//! with `Σ_{e out of i} p_e(x) = 1` for `x ∈ X_i`.

use eqimpact_graph::DiGraph;
use eqimpact_stats::SimRng;
use std::fmt;
use std::sync::Arc;

/// A state-transition map `w_e : R^n -> R^n`.
pub type TransitionMap = Arc<dyn Fn(&[f64]) -> Vec<f64> + Send + Sync>;

/// A place-dependent probability function `p_e : R^n -> [0, 1]`.
pub type ProbabilityFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// A vertex-membership test `x ∈ X_i`.
pub type CellFn = Arc<dyn Fn(&[f64]) -> bool + Send + Sync>;

/// Errors from Markov-system construction and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovSystemError {
    /// The system has no edges.
    Empty,
    /// An edge references a vertex outside `0..vertex_count`.
    BadVertex {
        /// The offending vertex index.
        vertex: usize,
        /// Number of declared vertices.
        vertices: usize,
    },
    /// A probability function returned a value outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Edge whose probability misbehaved.
        edge: usize,
        /// The offending value.
        value: f64,
    },
    /// A sampled point belonged to no declared cell.
    PointInNoCell,
}

impl fmt::Display for MarkovSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovSystemError::Empty => write!(f, "Markov system has no edges"),
            MarkovSystemError::BadVertex { vertex, vertices } => {
                write!(f, "edge references vertex {vertex} of {vertices}")
            }
            MarkovSystemError::ProbabilityOutOfRange { edge, value } => {
                write!(f, "edge {edge} probability {value} outside [0,1]")
            }
            MarkovSystemError::PointInNoCell => write!(f, "sampled point belongs to no cell"),
        }
    }
}

impl std::error::Error for MarkovSystemError {}

/// One edge of a Markov system.
#[derive(Clone)]
pub struct Edge {
    /// Initial vertex `i(e)`.
    pub from: usize,
    /// Terminal vertex `t(e)`.
    pub to: usize,
    /// The transition map `w_e`.
    pub map: TransitionMap,
    /// The place-dependent probability `p_e`.
    pub prob: ProbabilityFn,
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Edge")
            .field("from", &self.from)
            .field("to", &self.to)
            .finish_non_exhaustive()
    }
}

/// A Markov system `(X_{i(e)}, w_e, p_e)_{e ∈ E}`.
#[derive(Clone)]
pub struct MarkovSystem {
    dim: usize,
    vertex_count: usize,
    cells: Vec<CellFn>,
    edges: Vec<Edge>,
    /// `outgoing[v]` lists indices into `edges` with `from == v`.
    outgoing: Vec<Vec<usize>>,
}

impl fmt::Debug for MarkovSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MarkovSystem")
            .field("dim", &self.dim)
            .field("vertex_count", &self.vertex_count)
            .field("edge_count", &self.edges.len())
            .finish_non_exhaustive()
    }
}

/// Builder for [`MarkovSystem`].
pub struct MarkovSystemBuilder {
    dim: usize,
    cells: Vec<CellFn>,
    edges: Vec<Edge>,
}

impl MarkovSystemBuilder {
    /// Declares a vertex by its cell-membership predicate; returns its
    /// index. Cells are checked in declaration order when classifying a
    /// point, so overlapping predicates resolve to the first match.
    pub fn cell(mut self, member: impl Fn(&[f64]) -> bool + Send + Sync + 'static) -> Self {
        self.cells.push(Arc::new(member));
        self
    }

    /// Adds an edge `from -> to` with map `w` and probability `p`.
    pub fn edge(
        mut self,
        from: usize,
        to: usize,
        w: impl Fn(&[f64]) -> Vec<f64> + Send + Sync + 'static,
        p: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.edges.push(Edge {
            from,
            to,
            map: Arc::new(w),
            prob: Arc::new(p),
        });
        self
    }

    /// Finalizes the system, checking structural consistency.
    pub fn build(self) -> Result<MarkovSystem, MarkovSystemError> {
        if self.edges.is_empty() {
            return Err(MarkovSystemError::Empty);
        }
        let vertex_count = self.cells.len().max(1);
        let mut outgoing = vec![Vec::new(); vertex_count];
        for (i, e) in self.edges.iter().enumerate() {
            if e.from >= vertex_count {
                return Err(MarkovSystemError::BadVertex {
                    vertex: e.from,
                    vertices: vertex_count,
                });
            }
            if e.to >= vertex_count {
                return Err(MarkovSystemError::BadVertex {
                    vertex: e.to,
                    vertices: vertex_count,
                });
            }
            outgoing[e.from].push(i);
        }
        let cells = if self.cells.is_empty() {
            // Single-vertex system: the whole space is one cell.
            vec![Arc::new(|_: &[f64]| true) as CellFn]
        } else {
            self.cells
        };
        Ok(MarkovSystem {
            dim: self.dim,
            vertex_count,
            cells,
            edges: self.edges,
            outgoing,
        })
    }
}

impl MarkovSystem {
    /// Starts building a system over `R^dim`.
    pub fn builder(dim: usize) -> MarkovSystemBuilder {
        MarkovSystemBuilder {
            dim,
            cells: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// State-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vertices (partition cells).
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of edges (maps).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges of the system.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The vertex whose cell contains `x`, or an error if none does.
    pub fn classify(&self, x: &[f64]) -> Result<usize, MarkovSystemError> {
        self.cells
            .iter()
            .position(|c| c(x))
            .ok_or(MarkovSystemError::PointInNoCell)
    }

    /// The directed multigraph underlying the system.
    pub fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.vertex_count);
        for e in &self.edges {
            g.add_edge(e.from, e.to);
        }
        g
    }

    /// Outgoing edge indices from vertex `v`.
    pub fn outgoing(&self, v: usize) -> &[usize] {
        &self.outgoing[v]
    }

    /// Evaluates the outgoing probability vector at `x` (edges in
    /// [`Self::outgoing`] order for the cell of `x`).
    pub fn probabilities_at(&self, x: &[f64]) -> Result<Vec<f64>, MarkovSystemError> {
        let v = self.classify(x)?;
        let mut probs = Vec::with_capacity(self.outgoing[v].len());
        for &ei in &self.outgoing[v] {
            let p = (self.edges[ei].prob)(x);
            if !(0.0..=1.0 + 1e-9).contains(&p) || p.is_nan() {
                return Err(MarkovSystemError::ProbabilityOutOfRange { edge: ei, value: p });
            }
            probs.push(p.clamp(0.0, 1.0));
        }
        Ok(probs)
    }

    /// Performs one random step from `x`, returning `(edge_index, next)`.
    ///
    /// # Panics
    /// Panics if `x` lies in no cell or its outgoing probabilities are
    /// degenerate.
    pub fn step(&self, x: &[f64], rng: &mut SimRng) -> (usize, Vec<f64>) {
        let v = self.classify(x).expect("point in no cell");
        let probs = self.probabilities_at(x).expect("bad probabilities");
        assert!(
            !self.outgoing[v].is_empty(),
            "vertex {v} has no outgoing edges"
        );
        let choice = rng.weighted_index(&probs);
        let ei = self.outgoing[v][choice];
        (ei, (self.edges[ei].map)(x))
    }

    /// Simulates `steps` steps from `x0`, returning the state sequence
    /// including the initial state (`steps + 1` entries).
    pub fn trajectory(&self, x0: &[f64], steps: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(steps + 1);
        out.push(x0.to_vec());
        let mut x = x0.to_vec();
        for _ in 0..steps {
            let (_, next) = self.step(&x, rng);
            out.push(next.clone());
            x = next;
        }
        out
    }

    /// Simulates a trajectory and reports, for each step, the observable
    /// `f(x_k)` — the generic form of the paper's output maps `w'_{iℓ}`.
    pub fn observable_trajectory(
        &self,
        x0: &[f64],
        steps: usize,
        rng: &mut SimRng,
        f: impl Fn(&[f64]) -> f64,
    ) -> Vec<f64> {
        self.trajectory(x0, steps, rng)
            .iter()
            .map(|x| f(x))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Why [`validate_at`] rejected a system.
    #[derive(Debug, PartialEq)]
    pub(crate) enum Invalid {
        /// A point lay in no cell, or a probability left `[0, 1]`.
        System(MarkovSystemError),
        /// At a point of cell `vertex`, the outgoing probabilities sum to
        /// `sum`, not 1.
        NotNormalized { vertex: usize, sum: f64 },
        /// Edge `edge` maps a point of its source cell outside its target
        /// cell.
        CellViolation { edge: usize },
    }

    impl From<MarkovSystemError> for Invalid {
        fn from(e: MarkovSystemError) -> Self {
            Invalid::System(e)
        }
    }

    /// Checks normalization and cell compatibility of `ms` at each of
    /// `points`.
    pub(crate) fn validate_at(ms: &MarkovSystem, points: &[Vec<f64>]) -> Result<(), Invalid> {
        for x in points {
            let v = ms.classify(x)?;
            let probs = ms.probabilities_at(x)?;
            let sum: f64 = probs.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(Invalid::NotNormalized { vertex: v, sum });
            }
            for (&ei, &p) in ms.outgoing(v).iter().zip(&probs) {
                let edge = &ms.edges()[ei];
                if p > 0.0 && ms.classify(&(edge.map)(x))? != edge.to {
                    return Err(Invalid::CellViolation { edge: ei });
                }
            }
        }
        Ok(())
    }

    /// Two-cell system on R: cell 0 = x < 0.5, cell 1 = x >= 0.5, with maps
    /// hopping between the cells.
    fn two_cell_system() -> MarkovSystem {
        MarkovSystem::builder(1)
            .cell(|x| x[0] < 0.5)
            .cell(|x| x[0] >= 0.5)
            .edge(0, 1, |x| vec![0.5 + 0.5 * x[0]], |_| 1.0)
            .edge(1, 0, |x| vec![0.5 * (x[0] - 0.5)], |_| 0.7)
            .edge(1, 1, |x| vec![0.5 + 0.25 * (x[0] - 0.5)], |_| 0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_constructs_valid_system() {
        let ms = two_cell_system();
        assert_eq!(ms.vertex_count(), 2);
        assert_eq!(ms.edge_count(), 3);
        assert_eq!(ms.dim(), 1);
        assert_eq!(ms.classify(&[0.2]).unwrap(), 0);
        assert_eq!(ms.classify(&[0.9]).unwrap(), 1);
        assert_eq!(ms.outgoing(0), &[0]);
        assert_eq!(ms.outgoing(1), &[1, 2]);
    }

    #[test]
    fn empty_system_rejected() {
        assert_eq!(
            MarkovSystem::builder(1).build().unwrap_err(),
            MarkovSystemError::Empty
        );
    }

    #[test]
    fn bad_vertex_rejected() {
        let err = MarkovSystem::builder(1)
            .cell(|_| true)
            .edge(0, 5, |x| x.to_vec(), |_| 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            MarkovSystemError::BadVertex { vertex: 5, .. }
        ));
    }

    #[test]
    fn validation_passes_for_consistent_system() {
        let ms = two_cell_system();
        let pts = vec![vec![0.0], vec![0.3], vec![0.5], vec![0.8], vec![1.0]];
        validate_at(&ms, &pts).unwrap();
    }

    #[test]
    fn validation_detects_unnormalized_probabilities() {
        let ms = MarkovSystem::builder(1)
            .cell(|_| true)
            .edge(0, 0, |x| x.to_vec(), |_| 0.4)
            .edge(0, 0, |x| x.to_vec(), |_| 0.4)
            .build()
            .unwrap();
        let err = validate_at(&ms, &[vec![0.0]]).unwrap_err();
        assert!(matches!(err, Invalid::NotNormalized { vertex: 0, .. }));
    }

    #[test]
    fn validation_detects_cell_violation() {
        // Map from cell 0 claims to land in cell 1 but stays in cell 0.
        let ms = MarkovSystem::builder(1)
            .cell(|x| x[0] < 0.5)
            .cell(|x| x[0] >= 0.5)
            .edge(0, 1, |x| vec![x[0] * 0.5], |_| 1.0)
            .edge(1, 0, |_| vec![0.0], |_| 1.0)
            .build()
            .unwrap();
        let err = validate_at(&ms, &[vec![0.1]]).unwrap_err();
        assert_eq!(err, Invalid::CellViolation { edge: 0 });
    }

    #[test]
    fn validation_detects_out_of_range_probability() {
        let ms = MarkovSystem::builder(1)
            .cell(|_| true)
            .edge(0, 0, |x| x.to_vec(), |_| 1.5)
            .build()
            .unwrap();
        let err = validate_at(&ms, &[vec![0.0]]).unwrap_err();
        assert!(matches!(
            err,
            Invalid::System(MarkovSystemError::ProbabilityOutOfRange { .. })
        ));
    }

    #[test]
    fn classify_fails_outside_all_cells() {
        let ms = MarkovSystem::builder(1)
            .cell(|x| x[0] >= 0.0)
            .edge(0, 0, |x| x.to_vec(), |_| 1.0)
            .build()
            .unwrap();
        assert_eq!(
            ms.classify(&[-1.0]).unwrap_err(),
            MarkovSystemError::PointInNoCell
        );
    }

    #[test]
    fn trajectory_respects_cell_structure() {
        let ms = two_cell_system();
        let mut rng = SimRng::new(5);
        let traj = ms.trajectory(&[0.2], 200, &mut rng);
        assert_eq!(traj.len(), 201);
        // Every consecutive pair must follow an existing edge direction.
        for w in traj.windows(2) {
            let a = ms.classify(&w[0]).unwrap();
            let b = ms.classify(&w[1]).unwrap();
            assert!(
                ms.edges().iter().any(|e| e.from == a && e.to == b),
                "transition {a} -> {b} has no edge"
            );
        }
    }

    #[test]
    fn observable_trajectory_applies_function() {
        let ms = two_cell_system();
        let mut rng = SimRng::new(6);
        let obs = ms.observable_trajectory(&[0.2], 50, &mut rng, |x| x[0] * 2.0);
        assert_eq!(obs.len(), 51);
        assert!((obs[0] - 0.4).abs() < 1e-15);
    }

    #[test]
    fn graph_reflects_edges() {
        let ms = two_cell_system();
        let g = ms.graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_strongly_connected());
        // Self-loop on vertex 1 makes it aperiodic → primitive.
        assert!(g.is_primitive());
    }

    #[test]
    fn display_of_errors() {
        let e = MarkovSystemError::ProbabilityOutOfRange {
            edge: 1,
            value: 1.5,
        };
        assert!(e.to_string().contains("1.5"));
        assert!(MarkovSystemError::Empty.to_string().contains("no edges"));
    }
}
