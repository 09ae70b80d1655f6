//! Top Lyapunov exponents of random matrix products.
//!
//! For a switched linear system `x(k+1) = A_{σ(k)} x(k)` with i.i.d. mode
//! draws, the top Lyapunov exponent
//! `λ = lim (1/k) log ‖A_{σ(k-1)} ⋯ A_{σ(0)}‖` decides almost-sure
//! stability: `λ < 0` means trajectories contract exponentially even when
//! some individual modes are expanding — a strictly sharper criterion than
//! a bound on the mode norms, and the log-scale analogue of the paper's
//! average-contractivity condition that [`crate::contractivity`] estimates.

use eqimpact_linalg::{Matrix, Vector};
use eqimpact_stats::SimRng;

/// Result of a Lyapunov-exponent estimation run.
#[derive(Debug, Clone)]
pub struct LyapunovEstimate {
    /// The estimated top exponent (natural log per step).
    pub exponent: f64,
    /// Standard error across the independent replicas.
    pub std_error: f64,
    /// Steps per replica.
    pub steps: usize,
    /// Number of replicas averaged.
    pub replicas: usize,
}

impl LyapunovEstimate {
    /// Whether the estimate certifies almost-sure exponential stability
    /// with a margin of two standard errors.
    pub fn is_stable(&self) -> bool {
        self.exponent + 2.0 * self.std_error < 0.0
    }
}

/// Estimates the top Lyapunov exponent of the i.i.d. switched system given
/// by `(matrices, weights)` using the norm-growth method with periodic
/// renormalization, averaged over `replicas` independent runs.
///
/// A zero-length trajectory budget (`steps == 0` or `replicas == 0`)
/// carries no information, so it yields an explicitly inconclusive
/// estimate — exponent `0.0` with infinite standard error, which
/// [`LyapunovEstimate::is_stable`] never certifies — rather than a panic
/// or a NaN.
///
/// # Panics
/// Panics for empty/mismatched input, non-square or differently sized
/// matrices, or invalid weights.
pub fn lyapunov_exponent(
    matrices: &[Matrix],
    weights: &[f64],
    steps: usize,
    replicas: usize,
    rng: &mut SimRng,
) -> LyapunovEstimate {
    assert!(!matrices.is_empty(), "lyapunov: no matrices");
    assert_eq!(matrices.len(), weights.len(), "lyapunov: weights mismatch");
    if steps == 0 || replicas == 0 {
        return LyapunovEstimate {
            exponent: 0.0,
            std_error: f64::INFINITY,
            steps,
            replicas,
        };
    }
    let n = matrices[0].rows();
    for m in matrices {
        assert!(
            m.is_square() && m.rows() == n,
            "lyapunov: inconsistent matrix sizes"
        );
    }

    let mut per_replica = Vec::with_capacity(replicas);
    for r in 0..replicas {
        let mut stream = rng.split(r as u64);
        // Random unit start to avoid alignment with invariant subspaces.
        let mut v = Vector::from_fn(n, |_| stream.standard_normal());
        let norm = v.norm2().max(1e-300);
        v.scale_mut(1.0 / norm);

        let mut log_growth = 0.0;
        for _ in 0..steps {
            let j = stream.weighted_index(weights);
            v = matrices[j].mat_vec(&v);
            let norm = v.norm2();
            if norm < 1e-300 {
                // The product annihilated the vector: exponent is -inf;
                // report a very negative value.
                log_growth = f64::NEG_INFINITY;
                break;
            }
            log_growth += norm.ln();
            v.scale_mut(1.0 / norm);
        }
        per_replica.push(if log_growth.is_finite() {
            log_growth / steps as f64
        } else {
            -1e3
        });
    }

    let mean: f64 = per_replica.iter().sum::<f64>() / replicas as f64;
    let var: f64 = per_replica
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / replicas as f64;
    LyapunovEstimate {
        exponent: mean,
        std_error: (var / replicas as f64).sqrt(),
        steps,
        replicas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag2(a: f64, b: f64) -> Matrix {
        Matrix::from_rows(&[&[a, 0.0], &[0.0, b]]).unwrap()
    }

    #[test]
    fn single_scaling_matrix_exponent_is_log_scale() {
        let mut rng = SimRng::new(1);
        let est = lyapunov_exponent(&[diag2(0.5, 0.5)], &[1.0], 2_000, 4, &mut rng);
        assert!(
            (est.exponent - 0.5f64.ln()).abs() < 1e-9,
            "{}",
            est.exponent
        );
        assert!(est.is_stable());
    }

    #[test]
    fn dominant_direction_wins_for_diagonal_matrix() {
        // diag(0.9, 0.3): the top exponent is ln 0.9 (slowest contraction).
        let mut rng = SimRng::new(2);
        let est = lyapunov_exponent(&[diag2(0.9, 0.3)], &[1.0], 3_000, 4, &mut rng);
        assert!(
            (est.exponent - 0.9f64.ln()).abs() < 0.01,
            "{}",
            est.exponent
        );
    }

    #[test]
    fn mixed_modes_average_in_log_scale() {
        // Scalars 2 and 1/8 with equal probability: λ = (ln2 + ln(1/8))/2 =
        // -ln 2 < 0 although mode 0 is expanding — a.s. stable, while the
        // norm certificate Σ p‖A‖ = (2 + 0.125)/2 > 1 fails.
        let m1 = Matrix::from_vec(1, 1, vec![2.0]).unwrap();
        let m2 = Matrix::from_vec(1, 1, vec![0.125]).unwrap();
        let mut rng = SimRng::new(3);
        let est = lyapunov_exponent(&[m1, m2], &[1.0, 1.0], 5_000, 8, &mut rng);
        assert!(
            (est.exponent + std::f64::consts::LN_2).abs() < 0.05,
            "{}",
            est.exponent
        );
        assert!(est.is_stable());
    }

    #[test]
    fn unstable_system_detected() {
        let mut rng = SimRng::new(4);
        let est = lyapunov_exponent(&[diag2(1.2, 1.1)], &[1.0], 2_000, 4, &mut rng);
        assert!(est.exponent > 0.0);
        assert!(!est.is_stable());
    }

    #[test]
    fn rotation_is_neutral() {
        let theta: f64 = 0.77;
        let (s, c) = theta.sin_cos();
        let rot = Matrix::from_rows(&[&[c, -s], &[s, c]]).unwrap();
        let mut rng = SimRng::new(5);
        let est = lyapunov_exponent(&[rot], &[1.0], 2_000, 4, &mut rng);
        assert!(est.exponent.abs() < 1e-6, "{}", est.exponent);
    }

    #[test]
    fn nilpotent_product_reports_very_negative() {
        let nil = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let mut rng = SimRng::new(6);
        let est = lyapunov_exponent(&[nil], &[1.0], 100, 2, &mut rng);
        assert!(est.exponent < -100.0);
    }

    #[test]
    fn zero_length_trajectory_is_inconclusive_not_a_panic() {
        // An empty simulation budget carries no stability information:
        // the estimate must come back finite-field, never certify, and
        // never NaN — the certification plane feeds degenerate budgets
        // through here when a trace is too short to fit a surrogate.
        let mut rng = SimRng::new(7);
        for (steps, replicas) in [(0, 4), (200, 0), (0, 0)] {
            let est = lyapunov_exponent(&[diag2(0.5, 0.5)], &[1.0], steps, replicas, &mut rng);
            assert_eq!(est.exponent, 0.0);
            assert_eq!(est.std_error, f64::INFINITY);
            assert_eq!((est.steps, est.replicas), (steps, replicas));
            assert!(!est.is_stable(), "no-data estimate must not certify");
            assert!(!est.exponent.is_nan() && !est.std_error.is_nan());
        }
    }

    #[test]
    #[should_panic(expected = "no matrices")]
    fn rejects_empty() {
        let mut rng = SimRng::new(0);
        lyapunov_exponent(&[], &[], 10, 1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "inconsistent matrix sizes")]
    fn rejects_mixed_sizes() {
        let mut rng = SimRng::new(0);
        lyapunov_exponent(
            &[Matrix::identity(2), Matrix::identity(3)],
            &[1.0, 1.0],
            10,
            1,
            &mut rng,
        );
    }
}
