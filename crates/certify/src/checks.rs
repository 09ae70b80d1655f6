//! Layer 2 of the certification plane: the analysis passes.
//!
//! Each pass takes the extracted empirical structure and runs one of the
//! repo's theory crates over it, producing a named [`Check`] that states
//! the theorem precondition it tests, a [`Verdict`], and the evidence
//! numbers behind it. The passes never panic on degenerate extractions —
//! thin traces yield [`Verdict::Inconclusive`], not crashes.

use crate::extract::Extraction;
use eqimpact_control::iss::estimate_iss;
use eqimpact_graph::{primitivity, DiGraph};
use eqimpact_linalg::cholesky::solve_spd_with_ridge;
use eqimpact_linalg::norm::MetricKind;
use eqimpact_linalg::{Matrix, Vector};
use eqimpact_markov::contractivity::{box_sampler, estimate_contraction_factor};
use eqimpact_markov::ergodic::{self, ErgodicityVerdict};
use eqimpact_markov::lyapunov::lyapunov_exponent;
use eqimpact_markov::MarkovSystem;
use eqimpact_stats::hist::clamped_bin;
use eqimpact_stats::{Json, SimRng, ToJson};

/// Minimum observed transitions before the structural checks commit to a
/// verdict.
pub const MIN_TRANSITIONS: u64 = 10;
/// Initial conditions for the empirical equal-impact test.
const EI_INITIALS: usize = 4;
/// Steps of each empirical equal-impact Cesàro trajectory.
const EQUAL_IMPACT_STEPS: usize = 2000;
/// Pair budget of each contractivity estimation sweep.
const CONTRACTION_PAIRS: usize = 400;
/// Steps per replica of the Lyapunov sweep.
const LYAP_STEPS: usize = 200;
/// Replicas of the Lyapunov sweep.
const LYAP_REPLICAS: usize = 4;
/// Horizon of the incremental-ISS sweep.
const ISS_HORIZON: usize = 24;
/// Pair budget of the incremental-ISS sweep.
const ISS_PAIRS: usize = 40;
/// Minimum filter-regression samples before the ISS pass runs.
const MIN_FIT_SAMPLES: u64 = 8;
/// Minimum R² before a fitted surrogate is trusted with a verdict.
const MIN_FIT_R2: f64 = 0.25;

/// Outcome of one certification check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The theorem precondition holds on the extracted structure.
    Certified,
    /// The precondition demonstrably fails.
    Refuted,
    /// The trace does not carry enough structure to decide.
    Inconclusive,
}

impl Verdict {
    /// Stable lowercase label used in both JSON and text reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Certified => "certified",
            Verdict::Refuted => "refuted",
            Verdict::Inconclusive => "inconclusive",
        }
    }

    /// Combines verdicts across traces: any refutation refutes, any gap
    /// leaves the overall verdict inconclusive.
    pub fn combine(self, other: Verdict) -> Verdict {
        use Verdict::*;
        match (self, other) {
            (Refuted, _) | (_, Refuted) => Refuted,
            (Inconclusive, _) | (_, Inconclusive) => Inconclusive,
            (Certified, Certified) => Certified,
        }
    }
}

impl ToJson for Verdict {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

/// One named certification check: the theorem precondition it tests, the
/// verdict, and the evidence numbers behind it.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable check name (e.g. `"primitivity"`).
    pub name: &'static str,
    /// The theorem precondition the check tests.
    pub precondition: &'static str,
    /// The verdict.
    pub verdict: Verdict,
    /// Evidence numbers in a fixed order; non-finite values render as
    /// `"undefined"` / `null`.
    pub evidence: Vec<(&'static str, f64)>,
    /// One-line human explanation of how the evidence led to the verdict.
    pub detail: String,
}

impl ToJson for Check {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.to_string())),
            (
                "precondition".to_string(),
                Json::Str(self.precondition.to_string()),
            ),
            ("verdict".to_string(), self.verdict.to_json()),
            (
                "evidence".to_string(),
                Json::Obj(
                    self.evidence
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                        .collect(),
                ),
            ),
            ("detail".to_string(), Json::Str(self.detail.clone())),
        ])
    }
}

fn flag(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// The empirical chain embedded as a Markov system (Werner 2004): each
/// occupied state bin becomes a cell, each observed bin→bin transition an
/// edge with the maximum-likelihood probability and an affine map that
/// shrinks the source bin into the target bin (factor ½, so the embedding
/// is cell-compatible by construction).
pub struct ChainEmbedding {
    /// The embedded system, cells indexed by position in `occupied`.
    pub system: MarkovSystem,
    /// The occupied bin indices backing each cell.
    pub occupied: Vec<usize>,
    /// Occupied bins that had no observed outgoing transition and were
    /// completed with a self-loop (conservative: keeps the system total
    /// without inventing cross-bin dynamics).
    pub dangling: usize,
}

/// Builds the chain embedding, or `None` when no bin was ever occupied.
pub fn build_chain(ex: &Extraction) -> Option<ChainEmbedding> {
    let bins = ex.spec.bins;
    let occupied: Vec<usize> = (0..bins).filter(|&b| ex.occupancy[b] > 0).collect();
    if occupied.is_empty() {
        return None;
    }
    // cell_of[bin] = cell index, or bins for unoccupied bins.
    let mut cell_of = vec![bins; bins];
    for (cell, &b) in occupied.iter().enumerate() {
        cell_of[b] = cell;
    }
    let spec = ex.spec.clone();
    let mut builder = MarkovSystem::builder(1);
    for &b in &occupied {
        let lo = spec.state_lo;
        let w = (spec.state_hi - spec.state_lo) / bins as f64;
        builder = builder.cell(move |x: &[f64]| clamped_bin(x[0], lo, w, bins) == b);
    }
    let mut dangling = 0usize;
    for (ci, &bi) in occupied.iter().enumerate() {
        let row = &ex.transitions[bi * bins..(bi + 1) * bins];
        let row_sum: u64 = row.iter().sum();
        if row_sum == 0 {
            // Never observed leaving this bin: complete with a self-loop.
            dangling += 1;
            let c = ex.bin_center(bi);
            builder = builder.edge(
                ci,
                ci,
                move |x: &[f64]| vec![c + 0.5 * (x[0] - c)],
                |_x: &[f64]| 1.0,
            );
            continue;
        }
        for (bj, &count) in row.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let cj = cell_of[bj];
            let from_center = ex.bin_center(bi);
            let to_center = ex.bin_center(bj);
            let p = count as f64 / row_sum as f64;
            builder = builder.edge(
                ci,
                cj,
                move |x: &[f64]| vec![to_center + 0.5 * (x[0] - from_center)],
                move |_x: &[f64]| p,
            );
        }
    }
    let system = builder.build().ok()?;
    Some(ChainEmbedding {
        system,
        occupied,
        dangling,
    })
}

/// An affine surrogate `w' ≈ A·w + b` of the checkpoint-to-checkpoint
/// model dynamics, fitted by ridge-stabilized least squares.
pub struct ModelSurrogate {
    /// The linear part.
    pub a: Matrix,
    /// The offset.
    pub offset: Vec<f64>,
    /// Pooled coefficient of determination across output dimensions.
    pub r2: f64,
    /// Consecutive checkpoint pairs the fit pooled.
    pub pairs: usize,
}

impl ModelSurrogate {
    /// Applies the surrogate.
    pub fn step(&self, w: &[f64]) -> Vec<f64> {
        let y = self.a.mat_vec(&Vector::from_slice(w));
        y.as_slice()
            .iter()
            .zip(&self.offset)
            .map(|(yi, bi)| yi + bi)
            .collect()
    }
}

/// Fits the affine surrogate from the checkpoint sequence. `None` when
/// fewer than `dim + 1` consecutive same-dimension pairs exist or the
/// normal equations fail even with a ridge.
pub fn fit_model_surrogate(checkpoints: &[Vec<f64>]) -> Option<ModelSurrogate> {
    let dim = checkpoints.first()?.len();
    if dim == 0 {
        return None;
    }
    let pairs: Vec<(&[f64], &[f64])> = checkpoints
        .windows(2)
        .filter(|w| w[0].len() == dim && w[1].len() == dim)
        .map(|w| (w[0].as_slice(), w[1].as_slice()))
        .collect();
    if pairs.len() < dim + 1 {
        return None;
    }
    // Normal equations over z = (w, 1): one (dim+1)² Gram shared by all
    // output rows.
    let zd = dim + 1;
    let mut gram = vec![0.0f64; zd * zd];
    let mut rhs = vec![0.0f64; zd * dim];
    let z_of = |w: &[f64]| -> Vec<f64> {
        let mut z = w.to_vec();
        z.push(1.0);
        z
    };
    for &(w, wn) in &pairs {
        let z = z_of(w);
        for i in 0..zd {
            for j in 0..zd {
                gram[i * zd + j] += z[i] * z[j];
            }
            for (r, &y) in wn.iter().enumerate() {
                rhs[r * zd + i] += z[i] * y;
            }
        }
    }
    let gram = Matrix::from_vec(zd, zd, gram).ok()?;
    let mut a_rows = vec![0.0f64; dim * dim];
    let mut offset = vec![0.0f64; dim];
    for r in 0..dim {
        let b = Vector::from_slice(&rhs[r * zd..(r + 1) * zd]);
        let (theta, _ridge) = solve_spd_with_ridge(&gram, &b, 1e-3).ok()?;
        let t = theta.as_slice();
        a_rows[r * dim..(r + 1) * dim].copy_from_slice(&t[..dim]);
        offset[r] = t[dim];
    }
    let a = Matrix::from_vec(dim, dim, a_rows).ok()?;
    let surrogate = ModelSurrogate {
        a,
        offset,
        r2: 0.0,
        pairs: pairs.len(),
    };
    // Pooled R² over all output dimensions.
    let mut mean = vec![0.0f64; dim];
    for &(_, wn) in &pairs {
        for (m, &y) in mean.iter_mut().zip(wn) {
            *m += y;
        }
    }
    for m in &mut mean {
        *m /= pairs.len() as f64;
    }
    let mut sse = 0.0f64;
    let mut sst = 0.0f64;
    for &(w, wn) in &pairs {
        let pred = surrogate.step(w);
        for ((&y, &p), &m) in wn.iter().zip(&pred).zip(&mean) {
            sse += (y - p) * (y - p);
            sst += (y - m) * (y - m);
        }
    }
    let r2 = if sst < 1e-18 {
        1.0
    } else {
        (1.0 - sse / sst).clamp(0.0, 1.0)
    };
    Some(ModelSurrogate { r2, ..surrogate })
}

/// Check 1 — primitivity of the empirical transition support digraph.
pub fn primitivity_check(ex: &Extraction) -> Check {
    let bins = ex.spec.bins;
    let occupied: Vec<usize> = (0..bins).filter(|&b| ex.occupancy[b] > 0).collect();
    let mut cell_of = vec![usize::MAX; bins];
    for (cell, &b) in occupied.iter().enumerate() {
        cell_of[b] = cell;
    }
    let mut edges = Vec::new();
    for &bi in &occupied {
        for (bj, &count) in ex.transitions[bi * bins..(bi + 1) * bins]
            .iter()
            .enumerate()
        {
            if count > 0 {
                edges.push((cell_of[bi], cell_of[bj]));
            }
        }
    }
    let g = DiGraph::from_edges(occupied.len(), &edges);
    let transitions = ex.transition_count();
    let irreducible = !occupied.is_empty() && g.is_strongly_connected();
    let period = g.period();
    let primitive = !occupied.is_empty() && primitivity::is_primitive(&g);
    let exponent = primitivity::primitivity_exponent(&g);
    // Per-group support graphs over the same occupied-bin vertex set.
    let mut groups_primitive = 0usize;
    for gt in &ex.group_transitions {
        let mut ge = Vec::new();
        for &bi in &occupied {
            for (bj, &count) in gt[bi * bins..(bi + 1) * bins].iter().enumerate() {
                if count > 0 && cell_of[bj] != usize::MAX {
                    ge.push((cell_of[bi], cell_of[bj]));
                }
            }
        }
        if !occupied.is_empty()
            && primitivity::is_primitive(&DiGraph::from_edges(occupied.len(), &ge))
        {
            groups_primitive += 1;
        }
    }
    let evidence = vec![
        ("states", occupied.len() as f64),
        ("edges", edges.len() as f64),
        ("transitions", transitions as f64),
        ("irreducible", flag(irreducible)),
        ("period", period.map_or(f64::NAN, |p| p as f64)),
        ("primitive", flag(primitive)),
        (
            "primitivity_exponent",
            exponent.map_or(f64::NAN, |e| e as f64),
        ),
        (
            "wielandt_bound",
            primitivity::wielandt_bound(occupied.len().max(1)) as f64,
        ),
        ("groups_primitive", groups_primitive as f64),
        ("groups", ex.group_labels.len() as f64),
    ];
    let (verdict, detail) = if transitions < MIN_TRANSITIONS {
        (
            Verdict::Inconclusive,
            format!("only {transitions} observed transitions (need {MIN_TRANSITIONS})"),
        )
    } else if primitive {
        (
            Verdict::Certified,
            format!(
                "support digraph on {} occupied states is irreducible and aperiodic",
                occupied.len()
            ),
        )
    } else if !irreducible {
        (
            Verdict::Refuted,
            "support digraph is reducible: multiple recurrent classes possible".to_string(),
        )
    } else {
        (
            Verdict::Refuted,
            format!(
                "support digraph is irreducible but periodic (period {})",
                period.map_or_else(|| "?".to_string(), |p| p.to_string())
            ),
        )
    };
    Check {
        name: "primitivity",
        precondition: "transition support digraph irreducible and aperiodic (Perron-Frobenius)",
        verdict,
        evidence,
        detail,
    }
}

/// Check 2 — unique ergodicity of the embedded chain plus the empirical
/// equal-impact test (paper Def. 3).
pub fn ergodicity_check(
    ex: &Extraction,
    chain: Option<&ChainEmbedding>,
    rng: &mut SimRng,
) -> Check {
    let transitions = ex.transition_count();
    let Some(chain) = chain else {
        return Check {
            name: "unique-ergodicity",
            precondition:
                "irreducible + primitive + average-contractive chain => unique attractive invariant measure (Werner 2004)",
            verdict: Verdict::Inconclusive,
            evidence: vec![("states", 0.0), ("transitions", transitions as f64)],
            detail: "no occupied states extracted".to_string(),
        };
    };
    let bin_width = (ex.spec.state_hi - ex.spec.state_lo) / ex.spec.bins as f64;
    let report = ergodic::analyze(
        &chain.system,
        MetricKind::Euclidean,
        CONTRACTION_PAIRS,
        &mut rng.split(0),
        box_sampler(vec![ex.spec.state_lo], vec![ex.spec.state_hi]),
    );
    let initials: Vec<Vec<f64>> = chain
        .occupied
        .iter()
        .take(EI_INITIALS)
        .map(|&b| vec![ex.bin_center(b)])
        .collect();
    let ei = ergodic::empirical_equal_impact(
        &chain.system,
        &initials,
        EQUAL_IMPACT_STEPS,
        bin_width,
        &mut rng.split(1),
        |x| x[0],
    );
    let evidence = vec![
        ("states", chain.occupied.len() as f64),
        ("transitions", transitions as f64),
        ("dangling_states", chain.dangling as f64),
        ("irreducible", flag(report.irreducible)),
        ("primitive", flag(report.primitive)),
        ("contraction_factor", report.contractivity.estimated_factor),
        (
            "contraction_pairs",
            report.contractivity.pairs_evaluated as f64,
        ),
        ("equal_impact_spread", ei.spread),
        ("equal_impact_tolerance", bin_width),
        ("equal_impact_initials", initials.len() as f64),
        ("equal_impact_passed", flag(ei.passed)),
    ];
    let (verdict, detail) = if transitions < MIN_TRANSITIONS {
        (
            Verdict::Inconclusive,
            format!("only {transitions} observed transitions (need {MIN_TRANSITIONS})"),
        )
    } else if report.verdict == ErgodicityVerdict::NotIrreducible {
        (
            Verdict::Refuted,
            "embedded chain is not irreducible: limits may depend on the initial condition"
                .to_string(),
        )
    } else if report.verdict == ErgodicityVerdict::UniquelyErgodic && ei.passed {
        (
            Verdict::Certified,
            format!(
                "uniquely ergodic; Cesaro limits agree within {:.4} from {} starts",
                ei.spread,
                initials.len()
            ),
        )
    } else if !ei.passed && ei.spread > 2.0 * bin_width {
        (
            Verdict::Refuted,
            format!(
                "equal-impact limits spread {:.4} exceeds twice the {:.4} tolerance",
                ei.spread, bin_width
            ),
        )
    } else {
        (
            Verdict::Inconclusive,
            "invariant measure exists but unique attractivity not established".to_string(),
        )
    };
    Check {
        name: "unique-ergodicity",
        precondition:
            "irreducible + primitive + average-contractive chain => unique attractive invariant measure (Werner 2004)",
        verdict,
        evidence,
        detail,
    }
}

/// Check 3 — average contractivity of the fitted checkpoint dynamics.
pub fn contraction_check(
    surrogate: Option<&ModelSurrogate>,
    checkpoints: &[Vec<f64>],
    rng: &mut SimRng,
) -> Check {
    const NAME: &str = "contraction";
    const PRE: &str = "checkpoint-to-checkpoint model update is average-contractive (factor < 1)";
    let Some(s) = surrogate else {
        return Check {
            name: NAME,
            precondition: PRE,
            verdict: Verdict::Inconclusive,
            evidence: vec![("checkpoints", checkpoints.len() as f64)],
            detail: "too few checkpoints to fit the model dynamics".to_string(),
        };
    };
    let dim = s.offset.len();
    // Sample around the visited region, padded so the box is never empty.
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for w in checkpoints.iter().filter(|w| w.len() == dim) {
        for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
            *l = l.min(x);
            *h = h.max(x);
        }
    }
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let pad = (0.1 * (*h - *l)).max(0.1);
        *l -= pad;
        *h += pad;
    }
    let a = s.a.clone();
    let offset = s.offset.clone();
    let system = MarkovSystem::builder(dim)
        .edge(
            0,
            0,
            move |x: &[f64]| {
                let y = a.mat_vec(&Vector::from_slice(x));
                y.as_slice()
                    .iter()
                    .zip(&offset)
                    .map(|(yi, bi)| yi + bi)
                    .collect()
            },
            |_x: &[f64]| 1.0,
        )
        .build()
        .expect("single affine edge builds");
    let report = estimate_contraction_factor(
        &system,
        MetricKind::Euclidean,
        CONTRACTION_PAIRS,
        rng,
        box_sampler(lo, hi),
    );
    let evidence = vec![
        ("checkpoints", checkpoints.len() as f64),
        ("fit_pairs", s.pairs as f64),
        ("fit_r2", s.r2),
        ("model_dim", dim as f64),
        ("contraction_factor", report.estimated_factor),
        ("pairs_evaluated", report.pairs_evaluated as f64),
    ];
    let (verdict, detail) = if s.r2 < MIN_FIT_R2 {
        (
            Verdict::Inconclusive,
            format!("surrogate fit R2 {:.3} too weak to trust", s.r2),
        )
    } else if report.is_contractive() {
        (
            Verdict::Certified,
            format!(
                "fitted update contracts with factor {:.4} over {} pairs",
                report.estimated_factor, report.pairs_evaluated
            ),
        )
    } else if report.pairs_evaluated > 0 && report.estimated_factor >= 1.05 {
        (
            Verdict::Refuted,
            format!(
                "fitted update expands with factor {:.4}",
                report.estimated_factor
            ),
        )
    } else {
        (
            Verdict::Inconclusive,
            format!(
                "contraction factor {:.4} too close to 1 to certify",
                report.estimated_factor
            ),
        )
    };
    Check {
        name: NAME,
        precondition: PRE,
        verdict,
        evidence,
        detail,
    }
}

/// Check 4 — top Lyapunov exponent of the fitted model update.
pub fn lyapunov_check(
    surrogate: Option<&ModelSurrogate>,
    checkpoints: &[Vec<f64>],
    rng: &mut SimRng,
) -> Check {
    const NAME: &str = "lyapunov";
    const PRE: &str = "top Lyapunov exponent of the model update is negative (a.s. stability)";
    let Some(s) = surrogate else {
        return Check {
            name: NAME,
            precondition: PRE,
            verdict: Verdict::Inconclusive,
            evidence: vec![("checkpoints", checkpoints.len() as f64)],
            detail: "too few checkpoints to fit the model dynamics".to_string(),
        };
    };
    let est = lyapunov_exponent(
        std::slice::from_ref(&s.a),
        &[1.0],
        LYAP_STEPS,
        LYAP_REPLICAS,
        rng,
    );
    let evidence = vec![
        ("checkpoints", checkpoints.len() as f64),
        ("fit_r2", s.r2),
        ("exponent", est.exponent),
        ("std_error", est.std_error),
        ("steps", est.steps as f64),
        ("replicas", est.replicas as f64),
    ];
    let (verdict, detail) = if s.r2 < MIN_FIT_R2 {
        (
            Verdict::Inconclusive,
            format!("surrogate fit R2 {:.3} too weak to trust", s.r2),
        )
    } else if est.is_stable() {
        (
            Verdict::Certified,
            format!(
                "exponent {:.4} +/- {:.4} is negative with margin",
                est.exponent, est.std_error
            ),
        )
    } else if est.exponent - 2.0 * est.std_error > 0.0 {
        (
            Verdict::Refuted,
            format!("exponent {:.4} is positive with margin", est.exponent),
        )
    } else {
        (
            Verdict::Inconclusive,
            format!(
                "exponent {:.4} +/- {:.4} straddles zero",
                est.exponent, est.std_error
            ),
        )
    };
    Check {
        name: NAME,
        precondition: PRE,
        verdict,
        evidence,
        detail,
    }
}

/// Check 5 — incremental input-to-state stability of the filter channel.
pub fn iss_check(ex: &Extraction, rng: &mut SimRng) -> Check {
    const NAME: &str = "iss";
    const PRE: &str =
        "filter channel is incrementally ISS (class-KL beta, finite gain; Angeli 2002)";
    let surrogate = if ex.filter_fit.samples >= MIN_FIT_SAMPLES {
        ex.filter_fit.solve()
    } else {
        None
    };
    let Some(s) = surrogate else {
        return Check {
            name: NAME,
            precondition: PRE,
            verdict: Verdict::Inconclusive,
            evidence: vec![("fit_samples", ex.filter_fit.samples as f64)],
            detail: format!(
                "only {} filter samples (need {MIN_FIT_SAMPLES})",
                ex.filter_fit.samples
            ),
        };
    };
    let (mut u_lo, mut u_hi) = (ex.action_lo, ex.action_hi);
    if !(u_hi - u_lo).is_finite() || u_hi - u_lo < 1e-9 {
        let base = if u_lo.is_finite() { u_lo } else { 0.0 };
        u_lo = base - 0.5;
        u_hi = base + 0.5;
    }
    let (a, b, c) = (s.a, s.b, s.c);
    let report = estimate_iss(
        |x: &[f64], u: f64| vec![a * x[0] + b * u + c],
        1,
        ISS_HORIZON,
        ISS_PAIRS,
        rng,
        box_sampler(vec![ex.spec.state_lo], vec![ex.spec.state_hi]),
        move |r: &mut SimRng| r.uniform_in(u_lo, u_hi),
    );
    let evidence = vec![
        ("fit_samples", s.samples as f64),
        ("fit_r2", s.r2),
        ("filter_a", a),
        ("filter_b", b),
        ("beta_c", report.beta.c),
        ("beta_lambda", report.beta.lambda),
        ("gamma_gain", report.gamma.g),
        ("validation_pass_rate", report.validation_pass_rate),
    ];
    let (verdict, detail) = if s.r2 < MIN_FIT_R2 {
        (
            Verdict::Inconclusive,
            format!("filter surrogate fit R2 {:.3} too weak to trust", s.r2),
        )
    } else if report.consistent {
        (
            Verdict::Certified,
            format!(
                "KL decay {:.4}, gain {:.4}, pass rate {:.3}",
                report.beta.lambda, report.gamma.g, report.validation_pass_rate
            ),
        )
    } else if !report.beta.is_kl() {
        (
            Verdict::Refuted,
            format!(
                "fitted decay factor {:.4} >= 1: state differences do not contract",
                report.beta.lambda
            ),
        )
    } else {
        (
            Verdict::Inconclusive,
            format!(
                "envelopes fit but validation pass rate {:.3} below threshold",
                report.validation_pass_rate
            ),
        )
    };
    Check {
        name: NAME,
        precondition: PRE,
        verdict,
        evidence,
        detail,
    }
}

/// Runs all five analysis passes over one extraction. Deterministic for a
/// fixed `rng` seed; each pass draws from its own split stream.
pub fn analyze_extraction(ex: &Extraction, rng: &SimRng) -> Vec<Check> {
    let chain = build_chain(ex);
    let surrogate = fit_model_surrogate(&ex.checkpoints);
    vec![
        primitivity_check(ex),
        ergodicity_check(ex, chain.as_ref(), &mut rng.split(10)),
        contraction_check(surrogate.as_ref(), &ex.checkpoints, &mut rng.split(11)),
        lyapunov_check(surrogate.as_ref(), &ex.checkpoints, &mut rng.split(12)),
        iss_check(ex, &mut rng.split(13)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractionSpec};

    fn spec() -> ExtractionSpec {
        ExtractionSpec {
            state_lo: 0.0,
            state_hi: 1.0,
            bins: 4,
            threshold: 0.0,
            model_fields: &["model.w"],
            sampled_trajectories: 2,
        }
    }

    fn test_header() -> eqimpact_trace::TraceHeader {
        use eqimpact_core::recorder::RecordPolicy;
        use eqimpact_core::scenario::{Scale, TraceMeta};
        eqimpact_trace::TraceHeader::from_meta(&TraceMeta {
            scenario: "synthetic".to_string(),
            variant: "mixing".to_string(),
            trial: 0,
            scale: Scale::Quick,
            seed: 7,
            shards: 1,
            delay: 0,
            policy: RecordPolicy::Full,
        })
        .with_checkpoints()
    }

    fn synthetic_extraction() -> Extraction {
        use eqimpact_core::checkpoint::ModelCheckpoint;
        use eqimpact_core::FeatureMatrix;
        use eqimpact_stats::SimRng;
        use eqimpact_trace::TraceWriter;

        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf, &test_header()).unwrap();
        let mut rng = SimRng::new(7);
        let users = 40usize;
        let mut state: Vec<f64> = (0..users).map(|_| rng.uniform()).collect();
        let mut w = vec![0.4f64, -0.2];
        for step in 0..60usize {
            // Contractive toward 0.5 with mixing noise: visits every bin.
            for x in &mut state {
                *x = (0.5 + 0.6 * (*x - 0.5) + 0.35 * (rng.uniform() - 0.5)).clamp(0.0, 1.0);
            }
            let signals: Vec<f64> = state.iter().map(|&x| x - 0.5).collect();
            let actions: Vec<f64> = state.iter().map(|&x| 0.5 - x).collect();
            let visible = FeatureMatrix::from_nested(&vec![vec![0.0]; users]);
            writer
                .write_step(&visible, &signals, &actions, &state)
                .unwrap();
            for wi in &mut w {
                *wi = 0.8 * *wi + 0.01;
            }
            let mut cp = ModelCheckpoint::new();
            cp.reset(step);
            cp.push_field("model.w", &w);
            writer.write_checkpoint(&cp).unwrap();
        }
        writer.finish().unwrap();
        extract(&spec(), &mut buf.as_slice()).unwrap()
    }

    #[test]
    fn mixing_trace_certifies_the_core_checks() {
        let ex = synthetic_extraction();
        assert!(ex.transition_count() > 1000);
        assert_eq!(ex.checkpoints.len(), 60);
        let rng = SimRng::new(42);
        let checks = analyze_extraction(&ex, &rng);
        let by_name = |n: &str| checks.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("primitivity").verdict, Verdict::Certified);
        assert_eq!(by_name("unique-ergodicity").verdict, Verdict::Certified);
        assert_eq!(by_name("contraction").verdict, Verdict::Certified);
        assert_eq!(by_name("lyapunov").verdict, Verdict::Certified);
        assert_eq!(by_name("iss").verdict, Verdict::Certified);
    }

    #[test]
    fn analysis_is_deterministic_for_a_fixed_seed() {
        let ex = synthetic_extraction();
        let a = analyze_extraction(&ex, &SimRng::new(42));
        let b = analyze_extraction(&ex, &SimRng::new(42));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.verdict, y.verdict);
            assert_eq!(x.evidence, y.evidence);
            assert_eq!(x.detail, y.detail);
        }
    }

    #[test]
    fn empty_extraction_is_inconclusive_everywhere() {
        let ex = Extraction {
            header: test_header(),
            spec: spec(),
            steps: 0,
            users: 0,
            transitions: vec![0; 16],
            group_labels: Vec::new(),
            group_transitions: Vec::new(),
            group_positive: Vec::new(),
            group_decisions: Vec::new(),
            occupancy: vec![0; 4],
            trajectories: Vec::new(),
            checkpoints: Vec::new(),
            filter_fit: Default::default(),
            action_lo: f64::INFINITY,
            action_hi: f64::NEG_INFINITY,
            clamped: 0,
        };
        let checks = analyze_extraction(&ex, &SimRng::new(1));
        assert_eq!(checks.len(), 5);
        for c in &checks {
            assert_eq!(c.verdict, Verdict::Inconclusive, "check {}", c.name);
            for &(k, v) in &c.evidence {
                assert!(!v.is_infinite(), "evidence {k} infinite");
            }
        }
    }

    #[test]
    fn verdict_combine_is_refute_dominant() {
        use Verdict::*;
        assert_eq!(Certified.combine(Certified), Certified);
        assert_eq!(Certified.combine(Inconclusive), Inconclusive);
        assert_eq!(Inconclusive.combine(Refuted), Refuted);
        assert_eq!(Refuted.combine(Certified), Refuted);
    }

    #[test]
    fn two_state_periodic_chain_refutes_primitivity() {
        let mut ex = Extraction {
            header: test_header(),
            spec: spec(),
            steps: 100,
            users: 1,
            transitions: vec![0; 16],
            group_labels: Vec::new(),
            group_transitions: Vec::new(),
            group_positive: Vec::new(),
            group_decisions: Vec::new(),
            occupancy: vec![50, 0, 0, 50],
            trajectories: Vec::new(),
            checkpoints: Vec::new(),
            filter_fit: Default::default(),
            action_lo: 0.0,
            action_hi: 1.0,
            clamped: 0,
        };
        // Pure alternation 0 <-> 3: irreducible, period 2.
        ex.transitions[3] = 50; // 0 -> 3
        ex.transitions[3 * 4] = 50; // 3 -> 0
        let check = primitivity_check(&ex);
        assert_eq!(check.verdict, Verdict::Refuted);
        let period = check
            .evidence
            .iter()
            .find(|(k, _)| *k == "period")
            .unwrap()
            .1;
        assert_eq!(period, 2.0);
    }
}
