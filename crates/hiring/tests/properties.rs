//! Property-based tests for the hiring scenario, headlined by the
//! determinism guarantee: the serialized loop record is **byte-identical
//! for shard counts {1, 2, 8} versus the sequential runner**.

use eqimpact_hiring::model::{credential_code, readiness, sample_performance, success_probability};
use eqimpact_hiring::sim::{run_trial, HiringConfig, ScreenerKind};
use eqimpact_stats::SimRng;
use proptest::prelude::*;

/// Serializes a record to its canonical JSON byte representation.
fn record_bytes(config: &HiringConfig, trial: usize) -> String {
    run_trial(config, trial).record.to_json().render()
}

proptest! {
    /// The tentpole acceptance property: for random pool sizes, seeds and
    /// both screeners, every shard count in {2, 8} (and auto) produces a
    /// serialized record byte-identical to the sequential (1-shard)
    /// runner's.
    #[test]
    fn sharded_records_serialize_byte_identically(
        applicants in 20usize..90,
        seed in 0u64..1_000,
        adaptive in prop::bool::ANY,
    ) {
        let screener = if adaptive { ScreenerKind::Adaptive } else { ScreenerKind::Credential };
        let config = HiringConfig {
            applicants,
            rounds: 6,
            trials: 1,
            seed,
            screener,
            shards: 1,
            ..HiringConfig::default()
        };
        let sequential = record_bytes(&config, 0);
        for shards in [2usize, 8] {
            let sharded = record_bytes(&HiringConfig { shards, ..config }, 0);
            prop_assert_eq!(&sequential, &sharded, "shards = {}", shards);
        }
    }

    #[test]
    fn readiness_bounded_and_monotone_in_experience(
        resources in 1.0f64..400.0,
        e1 in 0.0f64..30.0,
        e2 in 0.0f64..30.0,
    ) {
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(readiness(resources, lo) <= readiness(resources, hi) + 1e-12);
        // x = (z + bonus - 20)/z <= 1 + 20/z - 20/z... bounded above by
        // 1 + cap·bonus/z; just check finiteness and the probability range.
        prop_assert!(readiness(resources, e1).is_finite());
        let p = success_probability(readiness(resources, e1));
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn not_hired_never_produces_an_outcome(
        resources in 1.0f64..400.0,
        experience in 0.0f64..30.0,
        seed in 0u64..100,
    ) {
        let mut rng = SimRng::new(seed);
        prop_assert_eq!(sample_performance(resources, experience, 0.0, &mut rng), None);
    }

    #[test]
    fn credential_code_is_binary(resources in 0.5f64..500.0) {
        let c = credential_code(resources);
        prop_assert!(c == 0.0 || c == 1.0);
        prop_assert_eq!(c == 1.0, resources >= 35.0);
    }

    #[test]
    fn trials_are_deterministic_and_distinct(seed in 0u64..200) {
        let config = HiringConfig {
            applicants: 40,
            rounds: 5,
            trials: 1,
            seed,
            ..HiringConfig::default()
        };
        prop_assert_eq!(record_bytes(&config, 0), record_bytes(&config, 0));
        prop_assert_ne!(record_bytes(&config, 0), record_bytes(&config, 1));
    }
}

/// The fixed-shape acceptance check, independent of proptest shrinking:
/// shard counts {1, 2, 8} all serialize identically on both screeners.
#[test]
fn acceptance_shard_counts_one_two_eight() {
    for screener in [ScreenerKind::Adaptive, ScreenerKind::Credential] {
        let base = HiringConfig {
            applicants: 120,
            rounds: 8,
            trials: 1,
            seed: 77,
            screener,
            ..HiringConfig::default()
        };
        let reference = record_bytes(&HiringConfig { shards: 1, ..base }, 0);
        for shards in [2usize, 8] {
            let sharded = record_bytes(&HiringConfig { shards, ..base }, 0);
            assert_eq!(reference, sharded, "{screener:?} x {shards} shards");
        }
    }
}
