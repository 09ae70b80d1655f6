//! Property-based tests for controllers, filters and ensembles.

use eqimpact_control::controller::{Controller, IController, PController};
use eqimpact_control::ensemble::AgentBehaviour;
use eqimpact_control::filter::{EwmaFilter, Filter, SlidingWindowFilter};
use eqimpact_stats::timeseries::CesaroAverage;
use eqimpact_stats::SimRng;
use proptest::prelude::*;

proptest! {
    #[test]
    fn p_controller_is_linear(kp in -5.0f64..5.0, e1 in -10.0f64..10.0, e2 in -10.0f64..10.0) {
        let mut c = PController::new(kp, 0.0);
        let u1 = c.update(e1);
        let u2 = c.update(e2);
        let u_sum = c.update(e1 + e2);
        prop_assert!((u_sum - (u1 + u2)).abs() < 1e-9 * (1.0 + u_sum.abs()));
    }

    #[test]
    fn i_controller_sums_errors(ki in 0.01f64..2.0, errors in prop::collection::vec(-1.0f64..1.0, 1..30)) {
        let mut c = IController::new(ki, 0.0);
        let mut last = 0.0;
        for &e in &errors {
            last = c.update(e);
        }
        let expected: f64 = ki * errors.iter().sum::<f64>();
        prop_assert!((last - expected).abs() < 1e-9 * (1.0 + expected.abs()));
    }

    #[test]
    fn accumulating_filter_matches_mean(values in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let mut f = CesaroAverage::new();
        let mut out = 0.0;
        for &v in &values {
            out = Filter::push(&mut f, v);
        }
        let sum: f64 = values.iter().sum();
        let mean = sum / values.len() as f64;
        prop_assert!((out - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        // One more observation: the same sum over one more count.
        let next = sum / (values.len() + 1) as f64;
        prop_assert!((Filter::push(&mut f, 0.0) - next).abs() < 1e-9 * (1.0 + next.abs()));
    }

    #[test]
    fn sliding_window_stays_within_range(
        window in 1usize..10,
        values in prop::collection::vec(-50.0f64..50.0, 1..40),
    ) {
        let mut f = SlidingWindowFilter::new(window);
        for &v in &values {
            let out = f.push(v);
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9);
        }
    }

    #[test]
    fn ewma_stays_within_observed_range(
        alpha in 0.01f64..1.0,
        values in prop::collection::vec(-10.0f64..10.0, 1..40),
    ) {
        let mut f = EwmaFilter::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &values {
            lo = lo.min(v);
            hi = hi.max(v);
            let out = f.push(v);
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9);
        }
    }

    #[test]
    fn threshold_agent_monotone_in_signal(threshold in 0.0f64..1.0, a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let agent = AgentBehaviour::Threshold { threshold };
        let mut rng = SimRng::new(0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut s1 = false;
        let mut s2 = false;
        let y_lo = agent.act(&mut s1, lo, &mut rng);
        let y_hi = agent.act(&mut s2, hi, &mut rng);
        prop_assert!(y_lo <= y_hi);
    }

    #[test]
    fn hysteresis_band_preserves_state(
        center in 0.2f64..0.8,
        half in 0.01f64..0.15,
        initial in prop::bool::ANY,
    ) {
        let agent = AgentBehaviour::Hysteresis {
            on_threshold: center + half,
            off_threshold: center - half,
        };
        let mut rng = SimRng::new(0);
        let mut state = initial;
        // Signal inside the band never flips the state.
        let y = agent.act(&mut state, center, &mut rng);
        prop_assert_eq!(state, initial);
        prop_assert_eq!(y, if initial { 1.0 } else { 0.0 });
    }
}
