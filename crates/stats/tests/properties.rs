//! Property-based tests for the statistics substrate.

use eqimpact_stats::codec;
use eqimpact_stats::converge::wasserstein1;
use eqimpact_stats::describe::{quantile, Summary};
use eqimpact_stats::dist::std_normal_cdf;
use eqimpact_stats::hist::Histogram2D;
use eqimpact_stats::timeseries::cesaro_trajectory;
use eqimpact_stats::SimRng;
use proptest::prelude::*;

fn finite_sample(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000.0f64..1000.0, 1..=max_len)
}

proptest! {
    #[test]
    fn normal_cdf_monotone(a in -5.0f64..5.0, b in -5.0f64..5.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(std_normal_cdf(lo) <= std_normal_cdf(hi) + 1e-15);
    }

    #[test]
    fn normal_cdf_symmetry(x in -6.0f64..6.0) {
        prop_assert!((std_normal_cdf(x) + std_normal_cdf(-x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_mean_within_bounds(sample in finite_sample(50)) {
        let s = Summary::from_slice(&sample);
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance_population() >= -1e-9);
    }

    #[test]
    fn summary_merge_associative(a in finite_sample(20), b in finite_sample(20), c in finite_sample(20)) {
        let mut left = Summary::from_slice(&a);
        left.merge(&Summary::from_slice(&b));
        left.merge(&Summary::from_slice(&c));
        let all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = Summary::from_slice(&all);
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-8);
        prop_assert!((left.variance_population() - whole.variance_population()).abs()
            < 1e-6 * whole.variance_population().max(1.0));
    }

    #[test]
    fn quantile_monotone(sample in finite_sample(30), p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(quantile(&sample, lo) <= quantile(&sample, hi) + 1e-9);
    }

    #[test]
    fn cesaro_stays_within_range(sample in finite_sample(60)) {
        let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in cesaro_trajectory(&sample) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn histogram_conserves_mass(sample in finite_sample(80)) {
        // Every sample lands in exactly one bin of its column; those
        // outside [-500, 500) are clamped into the boundary bins.
        let mut h = Histogram2D::new(2, -500.0, 500.0, 16);
        for (i, &y) in sample.iter().enumerate() {
            h.add(i % 2, y);
        }
        for x in 0..2 {
            let binned: u64 = (0..16).map(|b| h.count(x, b)).sum();
            prop_assert_eq!(binned, h.col_total(x));
        }
        prop_assert_eq!((h.col_total(0) + h.col_total(1)) as usize, sample.len());
    }

    #[test]
    fn wasserstein_shift_invariance(sample in finite_sample(40), shift in -10.0f64..10.0) {
        let shifted: Vec<f64> = sample.iter().map(|x| x + shift).collect();
        let w = wasserstein1(&sample, &shifted);
        prop_assert!((w - shift.abs()).abs() < 1e-6);
    }

    #[test]
    fn rng_split_reproducible(seed in 0u64..u64::MAX, label in 0u64..u64::MAX) {
        let a = SimRng::new(seed);
        let b = SimRng::new(seed);
        let mut ca = a.split(label);
        let mut cb = b.split(label);
        for _ in 0..5 {
            prop_assert_eq!(ca.uniform(), cb.uniform());
        }
    }

    #[test]
    fn categorical_probs_normalized(raw in prop::collection::vec(0.0f64..10.0, 1..8)) {
        prop_assume!(raw.iter().sum::<f64>() > 0.0);
        let c = eqimpact_stats::Categorical::new(&raw);
        let total: f64 = c.probs().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zigzag_roundtrips_any_i64(v in i64::MIN..i64::MAX) {
        prop_assert_eq!(codec::zigzag_decode(codec::zigzag_encode(v)), v);
    }

    #[test]
    fn zigzag_encodes_small_magnitudes_small(v in -1_000_000i64..1_000_000) {
        // |v| <= 2^20 must fit the low 21 bits after zigzag.
        prop_assert!(codec::zigzag_encode(v) <= (1 << 21));
    }

    #[test]
    fn varint_stream_roundtrips(values in prop::collection::vec(0u64..=u64::MAX, 0..40)) {
        let mut buf = Vec::new();
        for &v in &values {
            codec::write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(codec::read_varint(&buf, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, buf.len());
        // And any strict prefix that cuts the final varint fails cleanly.
        if let Some(&last) = values.last() {
            if last >= 0x80 {
                let mut pos = 0;
                let mut truncated: Option<u64> = None;
                let cut = &buf[..buf.len() - 1];
                for _ in 0..values.len() {
                    truncated = codec::read_varint(cut, &mut pos);
                    if truncated.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(truncated, None);
            }
        }
    }

    #[test]
    fn crc32_detects_any_single_bit_flip(
        payload in prop::collection::vec(0u8..=255, 1..64),
        flip in 0usize..64 * 8,
    ) {
        let bit = flip % (payload.len() * 8);
        let mut corrupted = payload.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(codec::crc32(&payload), codec::crc32(&corrupted));
    }
}
