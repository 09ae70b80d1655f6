//! Layer 1 of the certification plane: streaming extraction of a
//! scenario's empirical transition structure from one recorded trace.
//!
//! The extractor reads an EQTRACE1 stream frame by frame and folds each
//! step into compact accumulators — a binned per-user state transition
//! matrix (pooled and per group), a handful of sampled state
//! trajectories, the checkpoint-to-checkpoint model-state sequence, and
//! streaming normal equations for the filter channel. Peak memory is
//! `O(users + bins² · groups + checkpoints · model_dim)`; the full
//! record is never materialized.

use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_stats::hist::clamped_bin;
use eqimpact_trace::{StepFrame, TraceError, TraceHeader, TraceReader};
use std::io::Read;

/// How a workload's traces map onto the certification state space: which
/// range the per-user filter channel lives in, how finely to bin it, and
/// which checkpoint fields carry the model state.
#[derive(Debug, Clone)]
pub struct ExtractionSpec {
    /// Inclusive lower bound of the per-user filter-state channel.
    pub state_lo: f64,
    /// Inclusive upper bound of the per-user filter-state channel.
    pub state_hi: f64,
    /// Number of equal-width discretization bins over the state range.
    pub bins: usize,
    /// Positive-decision cutoff on the signal channel.
    pub threshold: f64,
    /// Checkpoint fields (concatenated in order) that form the model
    /// state vector of the checkpoint-dynamics checks.
    pub model_fields: &'static [&'static str],
    /// Number of per-user state trajectories to retain (evenly spaced
    /// user indices).
    pub sampled_trajectories: usize,
}

/// Streaming least-squares accumulator for the scalar filter surrogate
/// `x' ≈ a·x + b·u + c` — normal equations over `(1, x, u)`, so memory
/// is constant no matter how many `(x, u, x')` samples stream through.
#[derive(Debug, Clone, Default)]
pub struct FilterFit {
    /// Number of accumulated samples.
    pub samples: u64,
    // Upper triangle of Σ z zᵀ for z = (1, x, u), plus Σ z x' and the
    // target sums needed for R².
    s_x: f64,
    s_u: f64,
    s_xx: f64,
    s_uu: f64,
    s_xu: f64,
    s_y: f64,
    s_yy: f64,
    s_yx: f64,
    s_yu: f64,
}

/// A fitted filter surrogate `x' = a·x + b·u + c` with its goodness of
/// fit.
#[derive(Debug, Clone, Copy)]
pub struct FilterSurrogate {
    /// State coefficient `a`.
    pub a: f64,
    /// Input coefficient `b`.
    pub b: f64,
    /// Offset `c`.
    pub c: f64,
    /// Coefficient of determination of the fit in `[0, 1]` (1 when the
    /// targets are constant and perfectly reproduced).
    pub r2: f64,
    /// Samples the fit pooled.
    pub samples: u64,
}

impl FilterFit {
    fn push(&mut self, x: f64, u: f64, y: f64) {
        self.samples += 1;
        self.s_x += x;
        self.s_u += u;
        self.s_xx += x * x;
        self.s_uu += u * u;
        self.s_xu += x * u;
        self.s_y += y;
        self.s_yy += y * y;
        self.s_yx += y * x;
        self.s_yu += y * u;
    }

    /// Solves the accumulated normal equations. `None` when fewer than 3
    /// samples were seen or the system is too degenerate to solve even
    /// with a ridge.
    pub fn solve(&self) -> Option<FilterSurrogate> {
        use eqimpact_linalg::cholesky::solve_spd_with_ridge;
        use eqimpact_linalg::{Matrix, Vector};
        if self.samples < 3 {
            return None;
        }
        let n = self.samples as f64;
        let gram = Matrix::from_rows(&[
            &[n, self.s_x, self.s_u],
            &[self.s_x, self.s_xx, self.s_xu],
            &[self.s_u, self.s_xu, self.s_uu],
        ])
        .expect("3x3 gram");
        let rhs = Vector::from_slice(&[self.s_y, self.s_yx, self.s_yu]);
        let (coef, _ridge) = solve_spd_with_ridge(&gram, &rhs, 1e-3).ok()?;
        let (c, a, b) = (coef.as_slice()[0], coef.as_slice()[1], coef.as_slice()[2]);
        // R² from the same sums: SSE = Σy² − 2·coefᵀ(Σzy) + coefᵀG coef.
        let sse = (self.s_yy - 2.0 * (c * self.s_y + a * self.s_yx + b * self.s_yu)
            + c * (c * n + a * self.s_x + b * self.s_u)
            + a * (c * self.s_x + a * self.s_xx + b * self.s_xu)
            + b * (c * self.s_u + a * self.s_xu + b * self.s_uu))
            .max(0.0);
        let sst = (self.s_yy - self.s_y * self.s_y / n).max(0.0);
        let r2 = if sst < 1e-18 {
            1.0
        } else {
            (1.0 - sse / sst).clamp(0.0, 1.0)
        };
        Some(FilterSurrogate {
            a,
            b,
            c,
            r2,
            samples: self.samples,
        })
    }
}

/// The empirical structure of one trace, ready for the analysis passes.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The trace's provenance header.
    pub header: TraceHeader,
    /// The extraction spec the structure was built under.
    pub spec: ExtractionSpec,
    /// Steps streamed.
    pub steps: usize,
    /// Users per step.
    pub users: usize,
    /// Pooled bin→bin transition counts, row-major `bins × bins`.
    pub transitions: Vec<u64>,
    /// Group labels (empty when the trace has no group frame).
    pub group_labels: Vec<String>,
    /// Per-group bin→bin transition counts, one `bins × bins` matrix per
    /// label.
    pub group_transitions: Vec<Vec<u64>>,
    /// Per-group positive-decision counts (signal above threshold).
    pub group_positive: Vec<u64>,
    /// Per-group decision counts (users × steps per group).
    pub group_decisions: Vec<u64>,
    /// State-bin occupancy counts.
    pub occupancy: Vec<u64>,
    /// Sampled per-user state trajectories (one value per step).
    pub trajectories: Vec<Vec<f64>>,
    /// Model-state vectors, one per checkpoint frame whose fields cover
    /// the spec's `model_fields`, in stream order.
    pub checkpoints: Vec<Vec<f64>>,
    /// Streaming filter-channel regression accumulator.
    pub filter_fit: FilterFit,
    /// Observed action (filter input) range.
    pub action_lo: f64,
    /// Observed action (filter input) range.
    pub action_hi: f64,
    /// States that fell outside `[state_lo, state_hi]` and were clamped
    /// to the edge bins.
    pub clamped: u64,
}

impl Extraction {
    /// Total observed state transitions (sum of the pooled matrix).
    pub fn transition_count(&self) -> u64 {
        self.transitions.iter().sum()
    }

    /// Number of state bins that were ever occupied.
    pub fn occupied_states(&self) -> usize {
        self.occupancy.iter().filter(|&&c| c > 0).count()
    }

    /// The bin index of a state value (clamped into range).
    pub fn bin_of(&self, x: f64) -> usize {
        bin_of(x, &self.spec)
    }

    /// The center of bin `b`.
    pub fn bin_center(&self, b: usize) -> f64 {
        let w = (self.spec.state_hi - self.spec.state_lo) / self.spec.bins as f64;
        self.spec.state_lo + (b as f64 + 0.5) * w
    }
}

fn bin_of(x: f64, spec: &ExtractionSpec) -> usize {
    let w = (spec.state_hi - spec.state_lo) / spec.bins as f64;
    clamped_bin(x, spec.state_lo, w, spec.bins)
}

/// Evenly spaced sample indices: `n` users picked across `0..users`.
fn sample_indices(users: usize, n: usize) -> Vec<usize> {
    if users == 0 || n == 0 {
        return Vec::new();
    }
    let n = n.min(users);
    let mut out: Vec<usize> = (0..n).map(|j| j * (users - 1) / (n - 1).max(1)).collect();
    out.dedup();
    out
}

/// Streams one trace and folds it into an [`Extraction`].
///
/// # Errors
/// Propagates any [`TraceError`] from the underlying stream (corrupt
/// frames, truncation, checksum mismatches).
///
/// # Panics
/// Panics when the spec is degenerate (`bins == 0` or an empty state
/// range) — specs are compiled into `CertifyTarget` implementations, so
/// this is a programming error, not a data error.
pub fn extract(spec: &ExtractionSpec, input: &mut dyn Read) -> Result<Extraction, TraceError> {
    assert!(spec.bins > 0, "extract: zero bins");
    assert!(
        spec.state_lo < spec.state_hi,
        "extract: empty state range [{}, {}]",
        spec.state_lo,
        spec.state_hi
    );
    let mut reader = TraceReader::new(input)?;
    let header = reader.header().clone();
    let groups = reader.groups().cloned();
    let (group_labels, codes): (Vec<String>, Vec<u32>) = match groups {
        Some(g) => (g.labels, g.codes),
        None => (Vec::new(), Vec::new()),
    };
    let bins = spec.bins;
    let mut out = Extraction {
        header,
        spec: spec.clone(),
        steps: 0,
        users: 0,
        transitions: vec![0; bins * bins],
        group_transitions: vec![vec![0; bins * bins]; group_labels.len()],
        group_positive: vec![0; group_labels.len()],
        group_decisions: vec![0; group_labels.len()],
        group_labels,
        occupancy: vec![0; bins],
        trajectories: Vec::new(),
        checkpoints: Vec::new(),
        filter_fit: FilterFit::default(),
        action_lo: f64::INFINITY,
        action_hi: f64::NEG_INFINITY,
        clamped: 0,
    };

    let mut frame = StepFrame::default();
    let mut checkpoint = ModelCheckpoint::new();
    let mut prev_bins: Vec<usize> = Vec::new();
    let mut prev_state: Vec<f64> = Vec::new();
    let mut sampled: Vec<usize> = Vec::new();
    while reader.next_step(&mut frame)? {
        let users = frame.filtered.len();
        if out.steps == 0 {
            out.users = users;
            sampled = sample_indices(users, spec.sampled_trajectories);
            out.trajectories = vec![Vec::new(); sampled.len()];
        }
        for (slot, &i) in sampled.iter().enumerate() {
            if let Some(&x) = frame.filtered.get(i) {
                out.trajectories[slot].push(x);
            }
        }
        for (i, &x) in frame.filtered.iter().enumerate() {
            if x < spec.state_lo || x > spec.state_hi {
                out.clamped += 1;
            }
            let b = bin_of(x, spec);
            out.occupancy[b] += 1;
            if let Some(&pb) = prev_bins.get(i) {
                out.transitions[pb * bins + b] += 1;
                if let Some(&code) = codes.get(i) {
                    if let Some(m) = out.group_transitions.get_mut(code as usize) {
                        m[pb * bins + b] += 1;
                    }
                }
            }
            if let Some(&px) = prev_state.get(i) {
                let u = frame.actions.get(i).copied().unwrap_or(0.0);
                out.filter_fit.push(px, u, x);
            }
        }
        for &u in &frame.actions {
            out.action_lo = out.action_lo.min(u);
            out.action_hi = out.action_hi.max(u);
        }
        for (i, &s) in frame.signals.iter().enumerate() {
            if let Some(&code) = codes.get(i) {
                if let Some(d) = out.group_decisions.get_mut(code as usize) {
                    *d += 1;
                }
                if s > spec.threshold {
                    if let Some(p) = out.group_positive.get_mut(code as usize) {
                        *p += 1;
                    }
                }
            }
        }
        prev_bins.clear();
        prev_bins.extend(frame.filtered.iter().map(|&x| bin_of(x, spec)));
        prev_state.clear();
        prev_state.extend_from_slice(&frame.filtered);
        out.steps += 1;

        while reader.next_checkpoint(&mut checkpoint)? {
            let mut state = Vec::new();
            let mut complete = true;
            for name in spec.model_fields {
                match checkpoint.field(name) {
                    Some(values) => state.extend_from_slice(values),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete && !state.is_empty() {
                out.checkpoints.push(state);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExtractionSpec {
        ExtractionSpec {
            state_lo: 0.0,
            state_hi: 1.0,
            bins: 4,
            threshold: 0.0,
            model_fields: &["model.w"],
            sampled_trajectories: 3,
        }
    }

    #[test]
    fn bins_clamp_out_of_range_states() {
        let s = spec();
        assert_eq!(bin_of(-0.5, &s), 0);
        assert_eq!(bin_of(0.0, &s), 0);
        assert_eq!(bin_of(0.24, &s), 0);
        assert_eq!(bin_of(0.26, &s), 1);
        assert_eq!(bin_of(0.99, &s), 3);
        assert_eq!(bin_of(1.0, &s), 3);
        assert_eq!(bin_of(7.0, &s), 3);
    }

    #[test]
    fn sample_indices_are_evenly_spread_and_deduped() {
        assert_eq!(sample_indices(10, 3), vec![0, 4, 9]);
        assert_eq!(sample_indices(2, 5), vec![0, 1]);
        assert_eq!(sample_indices(1, 4), vec![0]);
        assert!(sample_indices(0, 4).is_empty());
        assert!(sample_indices(10, 0).is_empty());
    }

    #[test]
    fn filter_fit_recovers_a_linear_filter() {
        let mut fit = FilterFit::default();
        // x' = 0.7 x + 0.3 u + 0.05, sampled on a small grid.
        for xi in 0..10 {
            for ui in 0..10 {
                let x = xi as f64 / 10.0;
                let u = ui as f64 / 10.0;
                fit.push(x, u, 0.7 * x + 0.3 * u + 0.05);
            }
        }
        let s = fit.solve().expect("fit solves");
        assert!((s.a - 0.7).abs() < 1e-6, "a = {}", s.a);
        assert!((s.b - 0.3).abs() < 1e-6, "b = {}", s.b);
        assert!((s.c - 0.05).abs() < 1e-6, "c = {}", s.c);
        assert!(s.r2 > 0.999, "r2 = {}", s.r2);
    }

    #[test]
    fn filter_fit_needs_three_samples_and_reports_constant_targets() {
        let mut fit = FilterFit::default();
        fit.push(0.1, 0.2, 0.5);
        fit.push(0.2, 0.1, 0.5);
        assert!(fit.solve().is_none());
        fit.push(0.3, 0.4, 0.5);
        fit.push(0.5, 0.6, 0.5);
        let s = fit.solve().expect("constant targets still solve");
        assert!(s.r2 > 0.99, "constant fit r2 = {}", s.r2);
        assert!(s.a.is_finite() && s.b.is_finite() && s.c.is_finite());
    }
}
