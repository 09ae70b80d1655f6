//! Equal treatment (Defs. 1-2): a single-pass property of the loop.
//!
//! Def. 1 requires (i) the system to provide the *same information* to all
//! users at each step, and (ii) the responses to sit at a constant level
//! `r` independent of initial conditions. Def. 2 relaxes (i)-(ii) to hold
//! within classes defined by **non-protected** attributes.

use crate::recorder::LoopRecord;

/// Result of an equal-treatment check.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualTreatmentReport {
    /// Whether every step broadcast the same signal to every (in-class)
    /// user.
    pub same_signal: bool,
    /// Largest within-step signal spread observed (0 when `same_signal`).
    pub max_signal_spread: f64,
    /// Per-user mean response levels.
    pub response_levels: Vec<f64>,
    /// Largest spread between (in-class) response levels.
    pub max_response_spread: f64,
    /// Whether the response levels coincide within the tolerance used.
    pub responses_coincide: bool,
    /// The conjunction: the loop satisfies equal treatment.
    pub satisfied: bool,
}

/// Checks unconditional equal treatment (Def. 1) on a recorded run.
///
/// `tolerance` bounds both the within-step signal spread and the
/// between-user response-level spread.
pub fn equal_treatment_report(record: &LoopRecord, tolerance: f64) -> EqualTreatmentReport {
    let classes = vec![(0..record.user_count()).collect::<Vec<usize>>()];
    conditioned_equal_treatment_report(record, &classes, tolerance)
}

/// Checks equal treatment conditioned on classes of users (Def. 2). Each
/// class is a set of user indices sharing non-protected attributes; the
/// check is applied within every class.
pub fn conditioned_equal_treatment_report(
    record: &LoopRecord,
    classes: &[Vec<usize>],
    tolerance: f64,
) -> EqualTreatmentReport {
    let steps = record.steps();
    let mut max_signal_spread = 0.0f64;
    for k in 0..steps {
        let signals = record.signals(k);
        for class in classes {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in class {
                lo = lo.min(signals[i]);
                hi = hi.max(signals[i]);
            }
            if class.len() > 1 {
                max_signal_spread = max_signal_spread.max(hi - lo);
            }
        }
    }
    let same_signal = max_signal_spread <= tolerance;

    // Response level per user = mean action over the run.
    let response_levels: Vec<f64> = (0..record.user_count())
        .map(|i| {
            let series = record.user_actions(i);
            if series.is_empty() {
                f64::NAN
            } else {
                series.iter().sum::<f64>() / series.len() as f64
            }
        })
        .collect();

    let mut max_response_spread = 0.0f64;
    for class in classes {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in class {
            lo = lo.min(response_levels[i]);
            hi = hi.max(response_levels[i]);
        }
        if class.len() > 1 {
            max_response_spread = max_response_spread.max(hi - lo);
        }
    }
    let responses_coincide = max_response_spread <= tolerance;

    EqualTreatmentReport {
        same_signal,
        max_signal_spread,
        response_levels,
        max_response_spread,
        responses_coincide,
        satisfied: same_signal && responses_coincide,
    }
}

/// Partitions users into classes by a discrete non-protected attribute.
///
/// # Panics
/// Panics when `attribute.len()` differs from the user count implied by
/// the maximum index usage (callers pass one attribute per user).
// analyze::allow(R8): core/tests/properties.rs and tests/integration_closed_loop.rs use it to build the class partition
pub fn classes_by_attribute(attribute: &[u32]) -> Vec<Vec<usize>> {
    let mut classes: std::collections::BTreeMap<u32, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, &a) in attribute.iter().enumerate() {
        classes.entry(a).or_default().push(i);
    }
    classes.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_uniform_signals() -> LoopRecord {
        let mut r = LoopRecord::new(3);
        r.push_step(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], &[0.0; 3]);
        r.push_step(&[0.5, 0.5, 0.5], &[1.0, 1.0, 1.0], &[0.0; 3]);
        r
    }

    #[test]
    fn uniform_loop_satisfies_equal_treatment() {
        let r = record_uniform_signals();
        let report = equal_treatment_report(&r, 1e-9);
        assert!(report.same_signal);
        assert!(report.responses_coincide);
        assert!(report.satisfied);
        assert_eq!(report.max_signal_spread, 0.0);
        assert_eq!(report.response_levels, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn differentiated_signals_fail_def1() {
        let mut r = LoopRecord::new(2);
        r.push_step(&[1.0, 0.0], &[1.0, 1.0], &[0.0; 2]);
        let report = equal_treatment_report(&r, 1e-9);
        assert!(!report.same_signal);
        assert_eq!(report.max_signal_spread, 1.0);
        assert!(!report.satisfied);
    }

    #[test]
    fn unequal_responses_fail_def1() {
        let mut r = LoopRecord::new(2);
        r.push_step(&[1.0, 1.0], &[1.0, 0.0], &[0.0; 2]);
        r.push_step(&[1.0, 1.0], &[1.0, 0.0], &[0.0; 2]);
        let report = equal_treatment_report(&r, 0.1);
        assert!(report.same_signal);
        assert!(!report.responses_coincide);
        assert_eq!(report.max_response_spread, 1.0);
    }

    #[test]
    fn conditioning_rescues_class_uniform_treatment() {
        // Users 0, 1 get signal 1.0; user 2 gets 0.0 — fails Def. 1 but
        // satisfies Def. 2 with classes {0,1} and {2}.
        let mut r = LoopRecord::new(3);
        r.push_step(&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0; 3]);
        r.push_step(&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0; 3]);
        let unconditional = equal_treatment_report(&r, 1e-9);
        assert!(!unconditional.satisfied);
        let classes = vec![vec![0, 1], vec![2]];
        let conditional = conditioned_equal_treatment_report(&r, &classes, 1e-9);
        assert!(conditional.satisfied);
    }

    #[test]
    fn classes_by_attribute_partitions() {
        let classes = classes_by_attribute(&[1, 0, 1, 2, 0]);
        assert_eq!(classes, vec![vec![1, 4], vec![0, 2], vec![3]]);
        // Full overlap of classes reduces Def. 2 to Def. 1 (noted in the
        // paper): one class containing everyone.
        let single = classes_by_attribute(&[7, 7, 7]);
        assert_eq!(single, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn singleton_classes_trivially_satisfied() {
        let mut r = LoopRecord::new(2);
        r.push_step(&[1.0, 0.0], &[1.0, 0.0], &[0.0; 2]);
        let classes = vec![vec![0], vec![1]];
        let report = conditioned_equal_treatment_report(&r, &classes, 1e-9);
        assert!(report.satisfied);
        assert_eq!(report.max_signal_spread, 0.0);
    }
}
