//! Deterministic, splittable random-number streams.
//!
//! Every stochastic component in the workspace takes a [`SimRng`]; trials
//! derive their streams by [`SimRng::split`] so that (seed, trial, user)
//! fully determines every sample, independent of scheduling order.

/// A seeded random stream for simulations.
///
/// Self-contained xoshiro256++ generator (seeded through a SplitMix64
/// expansion, so any `u64` seed gives a well-mixed state) with
/// deterministic *splitting*: a child stream derived from a parent seed
/// and a label is statistically independent of its siblings but fully
/// reproducible.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state, per the
        // xoshiro authors' recommendation; the output can never be all
        // zeros because SplitMix64 is a bijection evaluated at four
        // distinct points.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            seed,
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit sample (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream for `label`.
    ///
    /// Uses SplitMix64-style mixing of (seed, label) so that different
    /// labels give uncorrelated child seeds and `split` is insensitive to
    /// how much the parent has already been consumed.
    #[inline]
    pub fn split(&self, label: u64) -> SimRng {
        let child_seed = mix(self.seed, label);
        SimRng::new(child_seed)
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        unit(self.next_u64() >> 11)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "uniform_in: invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Bernoulli sample with success probability `p` (clamped to [0, 1]).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        // Multiply-shift range reduction (Lemire); the bias for any n that
        // fits in a usize is far below the resolution of the tests.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample (Box-Muller).
    pub fn standard_normal(&mut self) -> f64 {
        // Box-Muller transform; u1 is drawn from (0, 1] so the log
        // argument is bounded away from 0.
        let u1 = ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Samples an index from a finite distribution of non-negative weights.
    ///
    /// Weights need not be normalized. The draw takes one `next_u64`
    /// and walks the weights down from `uniform() · total`.
    ///
    /// # Panics
    /// Panics if weights are empty, contain negatives/non-finite values, or
    /// sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total = checked_total(weights);
        walk(weights, total, self.next_u64() >> 11)
    }

    /// The draw of [`weighted_index`](Self::weighted_index) from the cut
    /// points [`weighted_cuts`] finds for its weights, with the same bits:
    /// it takes the same one `next_u64` and counts, without a branch, the
    /// cuts at or below its top 53 bits.
    #[inline]
    pub fn weighted_index_by_cuts<const N: usize>(&mut self, cuts: &[u64; N]) -> usize {
        let m = self.next_u64() >> 11;
        cuts.iter().map(|&c| usize::from(c <= m)).sum()
    }

    /// Fisher-Yates shuffle of a slice.
    // analyze::allow(R8): ml/tests/properties.rs grouped_fit_ignores_arrival_order permutes its rows with it
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// The cut points of [`SimRng::weighted_index`] over `weights`: for each
/// index `b < N`, the least draw `m = next_u64() >> 11` (53 bits) whose
/// walk lands past `b`, or `2^53` when none does. Each is one bisection
/// of `[0, 2^53]`, 54 walks.
///
/// The count of [`SimRng::weighted_index_by_cuts`] equals the walk for
/// every `m`, not just in distribution, because the walk never decreases
/// as `m` grows: `fl(unit(m) · total)` and each `fl(target − w)` are
/// monotone in `m`, and the target never goes negative, so the walk
/// stops only at a positive weight and never past the last one, where
/// its fallback lands.
///
/// # Panics
/// Panics unless `weights` holds `N + 1` values, or where
/// `weighted_index` would.
pub fn weighted_cuts<const N: usize>(weights: &[f64]) -> [u64; N] {
    assert_eq!(
        weights.len(),
        N + 1,
        "weighted_cuts: {N} cuts need {} weights",
        N + 1
    );
    let total = checked_total(weights);
    std::array::from_fn(|b| {
        let (mut lo, mut hi) = (0, 1u64 << 53);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if walk(weights, total, mid) > b {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    })
}

/// `m · 2^-53`: the value in `[0, 1)` of 53 random bits, exactly.
#[inline]
fn unit(m: u64) -> f64 {
    m as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The sum of `weights`, checked as [`SimRng::weighted_index`] documents.
fn checked_total(weights: &[f64]) -> f64 {
    assert!(!weights.is_empty(), "weighted_index: empty weights");
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(w >= 0.0 && w.is_finite(), "weighted_index: bad weight {w}");
            w
        })
        .sum();
    assert!(total > 0.0, "weighted_index: zero total weight");
    total
}

/// The index `weighted_index` draws for the 53 bits `m < 2^53`: walks
/// the checked weights down from `unit(m) · total`.
fn walk(weights: &[f64], total: f64, m: u64) -> usize {
    let mut target = unit(m) * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    // Floating-point slack: return the last positively weighted index.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("total > 0 implies a positive weight")
}

/// SplitMix64 finalizer combining a seed with a stream label.
#[inline]
fn mix(seed: u64, label: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(label)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_is_independent_of_consumption() {
        let mut a = SimRng::new(7);
        let b = SimRng::new(7);
        // Consume the parent before splitting; the children must agree.
        for _ in 0..10 {
            a.uniform();
        }
        let mut ca = a.split(3);
        let mut cb = b.split(3);
        for _ in 0..20 {
            assert_eq!(ca.uniform(), cb.uniform());
        }
    }

    #[test]
    fn split_labels_give_distinct_streams() {
        let root = SimRng::new(9);
        let mut c1 = root.split(1);
        let mut c2 = root.split(2);
        let equal = (0..32).filter(|_| c1.uniform() == c2.uniform()).count();
        assert!(equal < 4);
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = SimRng::new(0);
        for _ in 0..1000 {
            let x = r.uniform_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn uniform_in_rejects_bad_range() {
        SimRng::new(0).uniform_in(1.0, 1.0);
    }

    #[test]
    fn bernoulli_frequencies() {
        let mut r = SimRng::new(5);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq = {freq}");
        // Degenerate cases.
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-3.0));
        assert!(r.bernoulli(7.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn weighted_index_frequencies() {
        let mut r = SimRng::new(13);
        let weights = [1.0, 3.0, 0.0, 6.0];
        let n = 30_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[2], 0);
        let f1 = counts[1] as f64 / n as f64;
        let f3 = counts[3] as f64 / n as f64;
        assert!((f1 - 0.3).abs() < 0.02);
        assert!((f3 - 0.6).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn weighted_index_rejects_zero_total() {
        SimRng::new(0).weighted_index(&[0.0, 0.0]);
    }

    /// The walk of `weighted_index` for the 53 bits `m`, written out here
    /// as the oracle of the cuts.
    fn walk_at(weights: &[f64], m: u64) -> usize {
        let total: f64 = weights.iter().sum();
        let mut target = m as f64 / (1u64 << 53) as f64 * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.iter().rposition(|&w| w > 0.0).unwrap()
    }

    /// The number of cuts at or below `m`.
    fn count_at<const N: usize>(cuts: &[u64; N], m: u64) -> usize {
        cuts.iter().filter(|&&c| c <= m).count()
    }

    /// Every 53-bit draw within 256 of a cut.
    fn near(cut: u64) -> std::ops::Range<u64> {
        cut.saturating_sub(256)..(cut + 257).min(1 << 53)
    }

    /// Checks the cuts of `weights` against the walk: each separates the
    /// walk's last draw at or below `b` from its first past `b`, the
    /// count equals the walk within 256 of every cut, and on random
    /// streams the walk is `weighted_index` and the count
    /// `weighted_index_by_cuts`, each taking one `next_u64`.
    fn check_cuts<const N: usize>(weights: &[f64]) -> [u64; N] {
        let cuts = weighted_cuts::<N>(weights);
        for (b, &c) in cuts.iter().enumerate() {
            assert!(c <= 1 << 53, "{weights:?}: cut {b} is {c}");
            if c > 0 {
                assert!(walk_at(weights, c - 1) <= b, "{weights:?}: below cut {b}");
            }
            if c < 1 << 53 {
                assert!(walk_at(weights, c) > b, "{weights:?}: at cut {b}");
            }
            for m in near(c) {
                assert_eq!(
                    count_at(&cuts, m),
                    walk_at(weights, m),
                    "{weights:?} at {m}"
                );
            }
        }
        let mut rng = SimRng::new(19);
        for _ in 0..2_000 {
            let m = rng.clone().next_u64() >> 11;
            let mut counted = rng.clone();
            let by_cuts = counted.weighted_index_by_cuts(&cuts);
            let walked = rng.weighted_index(weights);
            assert_eq!(walked, walk_at(weights, m), "{weights:?}: the oracle walk");
            assert_eq!(by_cuts, walked, "{weights:?}: the count");
            assert_eq!(counted.state, rng.state, "{weights:?}: one next_u64 each");
        }
        cuts
    }

    #[test]
    fn cuts_count_the_walk_on_hand_built_weights() {
        check_cuts::<3>(&[1.0, 3.0, 0.0, 6.0]);
        check_cuts::<8>(&[0.1; 9]);
        // Trailing zeros: the last cuts are never reached.
        let cuts = check_cuts::<4>(&[0.25, 0.5, 0.25, 0.0, 0.0]);
        assert_eq!(cuts[2..], [1 << 53, 1 << 53]);
        // A leading zero weight is never drawn: its cut is 0.
        assert_eq!(check_cuts::<2>(&[0.0, 2.0, 2.0])[0], 0);
    }

    #[test]
    fn a_single_positive_weight_is_every_draw() {
        let cuts = check_cuts::<3>(&[0.0, 0.0, 5.0, 0.0]);
        assert_eq!(cuts, [0, 0, 1 << 53]);
    }

    #[test]
    fn the_walk_fallback_is_counted() {
        // 0.15 + 0.35 rounds up to 0.5, so at the last draw the target
        // left after 0.15 is not below 0.35: the walk falls through to
        // its fallback, the last positive weight, and the count agrees.
        let weights = [0.15, 0.35, 0.0];
        let cuts = check_cuts::<2>(&weights);
        let last = (1u64 << 53) - 1;
        let target = last as f64 / (1u64 << 53) as f64 * 0.5;
        assert!(target - 0.15 >= 0.35);
        assert_eq!((walk_at(&weights, last), count_at(&cuts, last)), (1, 1));
    }

    #[test]
    #[should_panic(expected = "3 cuts need 4 weights")]
    fn weighted_cuts_rejects_a_mismatched_length() {
        weighted_cuts::<3>(&[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn weighted_cuts_rejects_what_weighted_index_rejects() {
        weighted_cuts::<1>(&[1.0, -1.0]);
    }

    proptest! {
        #[test]
        fn cut_count_is_the_walk(
            raw in prop::collection::vec(0.0f64..4.0, 9),
            zeros in 0u64..512,
            b in 0usize..8,
            offset in 0u64..513,
            m in 0u64..(1 << 53),
        ) {
            // Zero the weights `zeros` selects, keeping one positive.
            let mut weights = raw;
            for (i, w) in weights.iter_mut().enumerate() {
                if zeros >> i & 1 == 1 {
                    *w = 0.0;
                }
            }
            if weights.iter().all(|&w| w == 0.0) {
                weights[b] = 1.0;
            }
            let cuts = weighted_cuts::<8>(&weights);
            prop_assert_eq!(count_at(&cuts, m), walk_at(&weights, m));
            let near = near(cuts[b]);
            let m = (near.start + offset).min(near.end - 1);
            prop_assert_eq!(count_at(&cuts, m), walk_at(&weights, m));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SimRng::new(17);
        let mut v: Vec<u32> = (0..20).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
        assert_ne!(v, (0..20).collect::<Vec<u32>>()); // overwhelming odds
    }

    #[test]
    fn index_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..100 {
            assert!(r.index(7) < 7);
        }
    }
}
