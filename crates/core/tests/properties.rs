//! Property-based tests for the closed-loop core.

use eqimpact_core::closed_loop::{
    AiSystem, Feedback, FeedbackFilter, LoopBuilder, MeanFilter, UserPopulation,
};
use eqimpact_core::fairness::demographic_parity;
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::impact::equal_impact_report;
use eqimpact_core::recorder::LoopRecord;
use eqimpact_core::treatment::{classes_by_attribute, equal_treatment_report};
use eqimpact_stats::SimRng;
use proptest::prelude::*;

struct ConstAi(f64);
impl AiSystem for ConstAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(visible.row_count(), self.0);
    }
    fn retrain(&mut self, _k: usize, _f: &Feedback) {}
}

struct CoinUsers {
    n: usize,
    p: f64,
}
impl UserPopulation for CoinUsers {
    fn user_count(&self) -> usize {
        self.n
    }
    fn observe_into(&mut self, _k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
        out.reshape(self.n, 0);
    }
    fn respond_into(&mut self, _k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            signals
                .iter()
                .map(|_| if rng.bernoulli(self.p) { 1.0 } else { 0.0 }),
        );
    }
}

proptest! {
    #[test]
    fn loop_record_dimensions_always_consistent(
        n in 1usize..20,
        steps in 1usize..30,
        seed in 0u64..100,
        signal in -2.0f64..2.0,
    ) {
        let mut runner = LoopBuilder::new(ConstAi(signal), CoinUsers { n, p: 0.4 })
            .filter(MeanFilter::default())
            .delay(1)
            .build();
        let record = runner.run(steps, &mut SimRng::new(seed));
        prop_assert_eq!(record.steps(), steps);
        prop_assert_eq!(record.user_count(), n);
        for k in 0..steps {
            prop_assert_eq!(record.signals(k).len(), n);
            prop_assert_eq!(record.actions(k).len(), n);
            prop_assert_eq!(record.filtered(k).len(), n);
        }
    }

    #[test]
    fn feature_matrix_roundtrips_nested(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 0..12),
    ) {
        let m = FeatureMatrix::from_nested(&rows);
        prop_assert_eq!(m.row_count(), rows.len());
        let mut gathered = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            m.copy_row_into(i, &mut gathered);
            prop_assert_eq!(&gathered[..], &row[..]);
            for (j, &v) in row.iter().enumerate() {
                prop_assert_eq!(m.get(i, j), v);
            }
        }
    }

    #[test]
    fn constant_signals_always_pass_treatment_signal_check(
        n in 2usize..15,
        steps in 1usize..20,
        seed in 0u64..50,
    ) {
        let mut runner = LoopBuilder::new(ConstAi(0.7), CoinUsers { n, p: 0.5 })
            .filter(MeanFilter::default())
            .delay(0)
            .build();
        let record = runner.run(steps, &mut SimRng::new(seed));
        let report = equal_treatment_report(&record, 1e-9);
        prop_assert!(report.same_signal);
        prop_assert_eq!(report.max_signal_spread, 0.0);
    }

    #[test]
    fn impact_limits_are_within_action_range(
        n in 1usize..10,
        steps in 5usize..40,
        seed in 0u64..50,
    ) {
        let mut runner = LoopBuilder::new(ConstAi(1.0), CoinUsers { n, p: 0.3 })
            .filter(MeanFilter::default())
            .delay(0)
            .build();
        let record = runner.run(steps, &mut SimRng::new(seed));
        let report = equal_impact_report(&record, 0.5, 1.0);
        for &l in &report.limits {
            prop_assert!((0.0..=1.0).contains(&l));
        }
        prop_assert!(report.max_spread <= 1.0 + 1e-12);
    }

    #[test]
    fn classes_by_attribute_covers_all_users(attrs in prop::collection::vec(0u32..5, 1..40)) {
        let classes = classes_by_attribute(&attrs);
        let total: usize = classes.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, attrs.len());
        // Within a class, all attributes equal.
        for class in &classes {
            let a0 = attrs[class[0]];
            prop_assert!(class.iter().all(|&i| attrs[i] == a0));
        }
    }

    #[test]
    fn demographic_parity_rates_are_probabilities(
        steps in 1usize..20,
        seed in 0u64..50,
    ) {
        let n = 8;
        let mut runner = LoopBuilder::new(ConstAi(1.0), CoinUsers { n, p: 0.5 })
            .filter(MeanFilter::default())
            .delay(0)
            .build();
        let record = runner.run(steps, &mut SimRng::new(seed));
        let groups = vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7]];
        let report = demographic_parity(&record, &groups, 0.5);
        for r in &report.group_rates {
            prop_assert!((0.0..=1.0).contains(&r.rate));
            prop_assert_eq!(r.count, r.count); // counted
        }
        prop_assert!(report.max_gap >= 0.0);
    }

    #[test]
    fn mean_filter_per_user_matches_cesaro(values in prop::collection::vec(0.0f64..1.0, 1..25)) {
        let mut f = MeanFilter::default();
        let visible = FeatureMatrix::zeros(1, 0);
        let mut fb = Feedback::default();
        for (k, &v) in values.iter().enumerate() {
            f.apply_into(k, &visible, &[1.0], &[v], &mut fb);
        }
        let last = fb.per_user[0];
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((last - mean).abs() < 1e-12);
    }

    #[test]
    fn record_json_roundtrip(
        n in 1usize..6,
        steps in 0usize..10,
        seed in 0u64..20,
    ) {
        let mut record = LoopRecord::new(n);
        let mut rng = SimRng::new(seed);
        for _ in 0..steps {
            let s: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
            let a: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
            let f: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
            record.push_step(&s, &a, &f);
        }
        let text = record.to_json().render();
        let back = LoopRecord::from_json(&eqimpact_stats::json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, record);
    }
}
