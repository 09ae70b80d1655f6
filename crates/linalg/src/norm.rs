//! Metric and norm helpers shared across the workspace.
//!
//! The ergodicity theory in the paper is phrased on a metric space `(X, d)`;
//! these helpers provide the concrete metrics used by the Markov-system
//! contractivity estimators.

/// Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Manhattan (ℓ¹) distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "manhattan: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Chebyshev (ℓ∞) distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "chebyshev: length mismatch");
    a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

/// The discrete metric: 0 if equal, 1 otherwise (bitwise comparison).
///
/// Used for finite action sets like `{credit denied, credit approved}`,
/// where the classification problem of Sec. VI lives.
pub fn discrete(a: &[f64], b: &[f64]) -> f64 {
    if a == b {
        0.0
    } else {
        1.0
    }
}

/// A metric on `R^n` represented as a function object.
///
/// Cloneable and object-safe so Markov systems can carry their metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Euclidean (ℓ²) metric.
    Euclidean,
    /// Manhattan (ℓ¹) metric.
    Manhattan,
    /// Chebyshev (ℓ∞) metric.
    Chebyshev,
    /// Discrete metric (0/1).
    Discrete,
}

impl MetricKind {
    /// Evaluates the metric on two points.
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            MetricKind::Euclidean => euclidean(a, b),
            MetricKind::Manhattan => manhattan(a, b),
            MetricKind::Chebyshev => chebyshev(a, b),
            MetricKind::Discrete => discrete(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distance() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(manhattan(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn chebyshev_distance() {
        assert_eq!(chebyshev(&[0.0, 0.0], &[3.0, -4.0]), 4.0);
    }

    #[test]
    fn discrete_distance() {
        assert_eq!(discrete(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(discrete(&[1.0, 2.0], &[1.0, 2.5]), 1.0);
    }

    #[test]
    fn metric_kind_dispatch() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(MetricKind::Euclidean.distance(&a, &b), 5.0);
        assert_eq!(MetricKind::Manhattan.distance(&a, &b), 7.0);
        assert_eq!(MetricKind::Chebyshev.distance(&a, &b), 4.0);
        assert_eq!(MetricKind::Discrete.distance(&a, &b), 1.0);
    }

    #[test]
    fn metric_axioms_spot_check() {
        // Symmetry and identity for all kinds on a few points.
        let pts: [&[f64]; 3] = [&[0.0, 1.0], &[2.0, -1.0], &[0.5, 0.5]];
        for kind in [
            MetricKind::Euclidean,
            MetricKind::Manhattan,
            MetricKind::Chebyshev,
            MetricKind::Discrete,
        ] {
            for p in pts {
                assert_eq!(kind.distance(p, p), 0.0);
                for q in pts {
                    assert_eq!(kind.distance(p, q), kind.distance(q, p));
                    // Triangle inequality through the third point.
                    for r in pts {
                        assert!(
                            kind.distance(p, q)
                                <= kind.distance(p, r) + kind.distance(r, q) + 1e-12
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }
}
