//! The candidate grid: which (policy, filter, threshold) combinations a
//! sweep evaluates, with a deterministic enumeration order and a compact
//! textual spec (`experiments sweep --grid`).
//!
//! A grid is three independent axes; its candidates are the cartesian
//! product enumerated **policy-major** (policy, then filter, then
//! threshold), so the same grid always yields the same candidate indices
//! — the anchor of the sweep's determinism contract and of the
//! per-candidate bootstrap RNG derivation.

use std::fmt;

/// The three sweep axes. Every combination of one policy, one filter and
/// one decision threshold is a candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateGrid {
    /// AI-policy names (workload-specific, e.g. `scorecard`).
    pub policies: Vec<String>,
    /// Feedback-filter names (workload-specific, e.g. `adr`).
    pub filters: Vec<String>,
    /// Positive-decision thresholds on the signal channel.
    pub thresholds: Vec<f64>,
}

impl CandidateGrid {
    /// A grid from explicit axes.
    pub fn new<P, F>(policies: P, filters: F, thresholds: impl IntoIterator<Item = f64>) -> Self
    where
        P: IntoIterator,
        P::Item: Into<String>,
        F: IntoIterator,
        F::Item: Into<String>,
    {
        CandidateGrid {
            policies: policies.into_iter().map(Into::into).collect(),
            filters: filters.into_iter().map(Into::into).collect(),
            thresholds: thresholds.into_iter().collect(),
        }
    }

    /// Parses a `--grid` spec, starting from `defaults` and replacing
    /// every axis the spec names. The syntax is semicolon-separated
    /// axes, each `axis=value,value,...`:
    ///
    /// ```text
    /// policy=scorecard,income-multiple;threshold=0,5,10
    /// ```
    ///
    /// Axis names are `policy`, `filter` and `threshold`. Unknown axes,
    /// empty value lists, repeated axes, repeated values and unparsable or
    /// NaN thresholds are all errors — a typo must never silently shrink
    /// a sweep, a repeated value would evaluate and rank one candidate
    /// twice, and a NaN threshold would decide every case negative.
    /// Thresholds repeat when they compare equal, so `-0` and `0` are one
    /// value. `inf` and `-inf` are valid: the approve-none and approve-all
    /// thresholds.
    pub fn parse(spec: &str, defaults: &CandidateGrid) -> Result<CandidateGrid, GridError> {
        let mut grid = defaults.clone();
        let mut seen = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (axis, values) = part.split_once('=').ok_or_else(|| GridError::BadSyntax {
                part: part.to_string(),
            })?;
            let axis = axis.trim();
            if seen.contains(&axis.to_string()) {
                return Err(GridError::DuplicateAxis {
                    axis: axis.to_string(),
                });
            }
            seen.push(axis.to_string());
            let values: Vec<&str> = values
                .split(',')
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .collect();
            if values.is_empty() {
                return Err(GridError::EmptyAxis {
                    axis: axis.to_string(),
                });
            }
            let name = |v: &str| Ok(v.to_string());
            match axis {
                "policy" => grid.policies = distinct(axis, &values, name)?,
                "filter" => grid.filters = distinct(axis, &values, name)?,
                "threshold" => {
                    grid.thresholds = distinct(axis, &values, |v| match v.parse::<f64>() {
                        Ok(t) if !t.is_nan() => Ok(t),
                        _ => Err(GridError::BadThreshold {
                            value: v.to_string(),
                        }),
                    })?;
                }
                other => {
                    return Err(GridError::UnknownAxis {
                        axis: other.to_string(),
                    });
                }
            }
        }
        Ok(grid)
    }

    /// Number of candidates (the product of the axis lengths).
    pub fn len(&self) -> usize {
        self.policies.len() * self.filters.len() * self.thresholds.len()
    }

    /// Whether any axis is empty (no candidates).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every candidate in the fixed policy-major order.
    pub fn candidates(&self) -> Vec<CandidateSpec> {
        let mut out = Vec::with_capacity(self.len());
        for policy in &self.policies {
            for filter in &self.filters {
                for &threshold in &self.thresholds {
                    out.push(CandidateSpec {
                        index: out.len(),
                        policy: policy.clone(),
                        filter: filter.clone(),
                        threshold,
                    });
                }
            }
        }
        out
    }
}

/// Parses one axis's values with `parse`, rejecting a value equal to an
/// earlier one (the error names the later spelling).
fn distinct<T: PartialEq>(
    axis: &str,
    values: &[&str],
    parse: impl Fn(&str) -> Result<T, GridError>,
) -> Result<Vec<T>, GridError> {
    let mut out: Vec<T> = Vec::with_capacity(values.len());
    for v in values {
        let value = parse(v)?;
        if out.contains(&value) {
            return Err(GridError::DuplicateValue {
                axis: axis.to_string(),
                value: v.to_string(),
            });
        }
        out.push(value);
    }
    Ok(out)
}

/// One point of a [`CandidateGrid`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSpec {
    /// Position in the grid's policy-major enumeration (stable across
    /// runs; seeds the candidate's bootstrap RNG).
    pub index: usize,
    /// AI-policy name.
    pub policy: String,
    /// Feedback-filter name.
    pub filter: String,
    /// Positive-decision threshold on the signal channel.
    pub threshold: f64,
}

impl CandidateSpec {
    /// A stable human-readable identity, also the final ranking
    /// tie-break (so equal-scoring candidates order deterministically).
    pub fn key(&self) -> String {
        format!("{}/{}/thr={}", self.policy, self.filter, self.threshold)
    }
}

/// A malformed `--grid` spec.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// An axis clause without `=`.
    BadSyntax {
        /// The offending clause.
        part: String,
    },
    /// An axis name other than `policy`, `filter`, `threshold`.
    UnknownAxis {
        /// The unrecognized name.
        axis: String,
    },
    /// An axis with no values.
    EmptyAxis {
        /// The empty axis.
        axis: String,
    },
    /// The same axis named twice.
    DuplicateAxis {
        /// The repeated axis.
        axis: String,
    },
    /// The same value listed twice on one axis.
    DuplicateValue {
        /// The axis.
        axis: String,
        /// The second spelling of the repeated value.
        value: String,
    },
    /// A threshold that does not parse as `f64`, or parses as NaN.
    BadThreshold {
        /// The rejected value.
        value: String,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::BadSyntax { part } => {
                write!(f, "grid clause `{part}` is not `axis=value,...`")
            }
            GridError::UnknownAxis { axis } => write!(
                f,
                "unknown grid axis `{axis}` (known axes: policy, filter, threshold)"
            ),
            GridError::EmptyAxis { axis } => write!(f, "grid axis `{axis}` has no values"),
            GridError::DuplicateAxis { axis } => write!(f, "grid axis `{axis}` appears twice"),
            GridError::DuplicateValue { axis, value } => {
                write!(f, "grid axis `{axis}` lists `{value}` twice")
            }
            GridError::BadThreshold { value } => {
                write!(f, "grid threshold `{value}` is not a number")
            }
        }
    }
}

impl std::error::Error for GridError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> CandidateGrid {
        CandidateGrid::new(["scorecard"], ["adr"], [0.0])
    }

    #[test]
    fn enumeration_is_policy_major_and_indexed() {
        let grid = CandidateGrid::new(["a", "b"], ["f"], [0.0, 1.0]);
        let candidates = grid.candidates();
        assert_eq!(candidates.len(), 4);
        assert_eq!(grid.len(), 4);
        let keys: Vec<String> = candidates.iter().map(|c| c.key()).collect();
        assert_eq!(
            keys,
            vec!["a/f/thr=0", "a/f/thr=1", "b/f/thr=0", "b/f/thr=1"]
        );
        for (i, c) in candidates.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn parse_overrides_only_named_axes() {
        let grid = CandidateGrid::parse("threshold=0,5,10", &defaults()).unwrap();
        assert_eq!(grid.policies, vec!["scorecard"]);
        assert_eq!(grid.filters, vec!["adr"]);
        assert_eq!(grid.thresholds, vec![0.0, 5.0, 10.0]);
        let grid = CandidateGrid::parse("policy=a,b;filter=g", &defaults()).unwrap();
        assert_eq!(grid.policies, vec!["a", "b"]);
        assert_eq!(grid.filters, vec!["g"]);
        assert_eq!(grid.thresholds, vec![0.0]);
        // Whitespace and empty clauses are tolerated.
        let grid = CandidateGrid::parse(" policy = a , b ; ", &defaults()).unwrap();
        assert_eq!(grid.policies, vec!["a", "b"]);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(matches!(
            CandidateGrid::parse("policies=a", &defaults()),
            Err(GridError::UnknownAxis { .. })
        ));
        assert!(matches!(
            CandidateGrid::parse("policy", &defaults()),
            Err(GridError::BadSyntax { .. })
        ));
        assert!(matches!(
            CandidateGrid::parse("policy=", &defaults()),
            Err(GridError::EmptyAxis { .. })
        ));
        assert!(matches!(
            CandidateGrid::parse("policy=a;policy=b", &defaults()),
            Err(GridError::DuplicateAxis { .. })
        ));
        for (spec, axis, value) in [
            ("policy=a,a", "policy", "a"),
            ("filter=f,f", "filter", "f"),
            ("threshold=0,0", "threshold", "0"),
            ("threshold=-0,0", "threshold", "0"),
        ] {
            assert_eq!(
                CandidateGrid::parse(spec, &defaults()),
                Err(GridError::DuplicateValue {
                    axis: axis.to_string(),
                    value: value.to_string()
                }),
                "{spec}"
            );
        }
        for bad in ["zero", "nan", "NaN"] {
            assert_eq!(
                CandidateGrid::parse(&format!("threshold={bad}"), &defaults()),
                Err(GridError::BadThreshold {
                    value: bad.to_string()
                })
            );
        }
    }

    #[test]
    fn empty_axis_means_empty_grid() {
        let grid = CandidateGrid::new(Vec::<String>::new(), ["f"], [0.0]);
        assert!(grid.is_empty());
        assert!(grid.candidates().is_empty());
    }
}
