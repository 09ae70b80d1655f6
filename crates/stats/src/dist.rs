//! Probability distributions used by the closed-loop simulations.
//!
//! [`std_normal_cdf`] is the probability of every credit repayment and
//! hiring placement draw, so it runs once per user-step on the loop's
//! respond path. It evaluates `Φ(x) = erfc(−x/√2) / 2` with a port of
//! fdlibm's `erfc` (`s_erf.c`, the routine musl and FreeBSD libm ship):
//! W. J. Cody-style rational fits on four intervals of the argument,
//! with an error under 1 ulp at a fixed cost per call.
//!
//! [`Categorical`] samples an index from a finite distribution by
//! inverse-CDF binary search (the paper's race shares).

use crate::rng::SimRng;

// ---------------------------------------------------------------------------
// Normal CDF
// ---------------------------------------------------------------------------

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// `Φ(NaN)` is NaN, `Φ(−∞) = 0` and `Φ(+∞) = 1`. Below `x ≈ −38.5` the
/// result underflows to 0.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

// The coefficients below and the body of `erfc` are ported from fdlibm's
// `s_erf.c`, which carries this notice:
//
//   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//   Developed at SunSoft, a Sun Microsystems, Inc. business.
//   Permission to use, copy, modify, and distribute this
//   software is freely granted, provided that this notice
//   is preserved.
//
// Each coefficient is the exact double the source gives as a hex word;
// its name and decimal form in the source follow in the comment.

/// `erx`: erf(1) rounded to single precision, the offset on [0.84375, 1.25).
const ERX: f64 = f64::from_bits(0x3feb_0ac1_6000_0000); // erx = 8.45062911510467529297e-01

/// Numerator on |x| < 0.84375, in `x²`.
const PP: [f64; 5] = [
    f64::from_bits(0x3fc0_6eba_8214_db68), // pp0 = 1.28379167095512558561e-01
    f64::from_bits(0xbfd4_cd7d_691c_b913), // pp1 = -3.25042107247001499370e-01
    f64::from_bits(0xbf9d_2a51_dbd7_194f), // pp2 = -2.84817495755985104766e-02
    f64::from_bits(0xbf77_a291_2366_68e4), // pp3 = -5.77027029648944159157e-03
    f64::from_bits(0xbef8_ead6_1200_16ac), // pp4 = -2.37630166566501626084e-05
];

/// Denominator on |x| < 0.84375, in `x²`, without its leading 1.
const QQ: [f64; 5] = [
    f64::from_bits(0x3fd9_7779_cdda_dc09), // qq1 = 3.97917223959155352819e-01
    f64::from_bits(0x3fb0_a54c_5536_ceba), // qq2 = 6.50222499887672944485e-02
    f64::from_bits(0x3f74_d022_c4d3_6b0f), // qq3 = 5.08130628187576562776e-03
    f64::from_bits(0x3f21_5dc9_221c_1a10), // qq4 = 1.32494738004321644526e-04
    f64::from_bits(0xbed0_9c43_42a2_6120), // qq5 = -3.96022827877536812320e-06
];

/// Numerator on 0.84375 ≤ |x| < 1.25, in `|x| − 1`.
const PA: [f64; 7] = [
    f64::from_bits(0xbf63_59b8_bef7_7538), // pa0 = -2.36211856075265944077e-03
    f64::from_bits(0x3fda_8d00_ad92_b34d), // pa1 = 4.14856118683748331666e-01
    f64::from_bits(0xbfd7_d240_fbb8_c3f1), // pa2 = -3.72207876035701323847e-01
    f64::from_bits(0x3fd4_5fca_8051_20e4), // pa3 = 3.18346619901161753674e-01
    f64::from_bits(0xbfbc_6398_3d3e_28ec), // pa4 = -1.10894694282396677476e-01
    f64::from_bits(0x3fa2_2a36_5997_95eb), // pa5 = 3.54783043256182359371e-02
    f64::from_bits(0xbf61_bf38_0a96_073f), // pa6 = -2.16637559486879084300e-03
];

/// Denominator on 0.84375 ≤ |x| < 1.25, in `|x| − 1`, without its leading 1.
const QA: [f64; 6] = [
    f64::from_bits(0x3fbb_3e66_18ee_e323), // qa1 = 1.06420880400844228286e-01
    f64::from_bits(0x3fe1_4af0_92eb_6f33), // qa2 = 5.40397917702171048937e-01
    f64::from_bits(0x3fb2_635c_d99f_e9a7), // qa3 = 7.18286544141962662868e-02
    f64::from_bits(0x3fc0_2660_e763_351f), // qa4 = 1.26171219808761642112e-01
    f64::from_bits(0x3f8b_edc2_6b51_dd1c), // qa5 = 1.36370839120290507362e-02
    f64::from_bits(0x3f88_8b54_5735_151d), // qa6 = 1.19844998467991074170e-02
];

/// Numerator on 1.25 ≤ |x| < 1/0.35, in `1/x²`.
const RA: [f64; 8] = [
    f64::from_bits(0xbf84_3412_600d_6435), // ra0 = -9.86494403484714822705e-03
    f64::from_bits(0xbfe6_3416_e4ba_7360), // ra1 = -6.93858572707181764372e-01
    f64::from_bits(0xc025_1e04_41b0_e726), // ra2 = -1.05586262253232909814e+01
    f64::from_bits(0xc04f_300a_e4cb_a38d), // ra3 = -6.23753324503260060396e+01
    f64::from_bits(0xc064_4cb1_8428_2266), // ra4 = -1.62396669462573470355e+02
    f64::from_bits(0xc067_135c_ebcc_abb2), // ra5 = -1.84605092906711035994e+02
    f64::from_bits(0xc054_5265_57e4_d2f2), // ra6 = -8.12874355063065934246e+01
    f64::from_bits(0xc023_a0ef_c69a_c25c), // ra7 = -9.81432934416914548592e+00
];

/// Denominator on 1.25 ≤ |x| < 1/0.35, in `1/x²`, without its leading 1.
const SA: [f64; 8] = [
    f64::from_bits(0x4033_a6b9_bd70_7687), // sa1 = 1.96512716674392571292e+01
    f64::from_bits(0x4061_350c_526a_e721), // sa2 = 1.37657754143519042600e+02
    f64::from_bits(0x407b_290d_d58a_1a71), // sa3 = 4.34565877475229228821e+02
    f64::from_bits(0x4084_2b19_21ec_2868), // sa4 = 6.45387271733267880336e+02
    f64::from_bits(0x407a_d021_5770_0314), // sa5 = 4.29008140027567833386e+02
    f64::from_bits(0x405b_28a3_ee48_ae2c), // sa6 = 1.08635005541779435134e+02
    f64::from_bits(0x401a_47ef_8e48_4a93), // sa7 = 6.57024977031928170135e+00
    f64::from_bits(0xbfae_eff2_ee74_9a62), // sa8 = -6.04244152148580987438e-02
];

/// Numerator on 1/0.35 ≤ |x| < 28, in `1/x²`.
const RB: [f64; 7] = [
    f64::from_bits(0xbf84_3412_39e8_6f4a), // rb0 = -9.86494292470009928597e-03
    f64::from_bits(0xbfe9_93ba_70c2_85de), // rb1 = -7.99283237680523006574e-01
    f64::from_bits(0xc031_c209_555f_995a), // rb2 = -1.77579549177547519889e+01
    f64::from_bits(0xc064_145d_43c5_ed98), // rb3 = -1.60636384855821916062e+02
    f64::from_bits(0xc083_ec88_1375_f228), // rb4 = -6.37566443368389627722e+02
    f64::from_bits(0xc090_0461_6a2e_5992), // rb5 = -1.02509513161107724954e+03
    f64::from_bits(0xc07e_384e_9bdc_383f), // rb6 = -4.83519191608651397019e+02
];

/// Denominator on 1/0.35 ≤ |x| < 28, in `1/x²`, without its leading 1.
const SB: [f64; 7] = [
    f64::from_bits(0x403e_568b_261d_5190), // sb1 = 3.03380607434824582924e+01
    f64::from_bits(0x4074_5cae_221b_9f0a), // sb2 = 3.25792512996573918826e+02
    f64::from_bits(0x4098_02eb_189d_5118), // sb3 = 1.53672958608443695994e+03
    f64::from_bits(0x40a8_ffb7_688c_246a), // sb4 = 3.19985821950859553908e+03
    f64::from_bits(0x40a3_f219_cedf_3be6), // sb5 = 2.55305040643316442583e+03
    f64::from_bits(0x407d_a874_e79f_e763), // sb6 = 4.74528541206955367215e+02
    f64::from_bits(0xc036_70e2_4271_2d62), // sb7 = -2.24409524465858183362e+01
];

/// `c[0] + z·(c[1] + z·(c[2] + …))`, the nesting order of `s_erf.c`.
/// The fold's first step, `c[n−1] + z·0`, is exact.
fn poly(z: f64, c: &[f64]) -> f64 {
    c.iter().rev().fold(0.0, |acc, &k| k + z * acc)
}

/// The complementary error function `erfc(x) = 1 − erf(x)` (fdlibm).
///
/// Branches on the high word of `|x|`, as the source does, so every
/// interval edge is the source's. With `t = |x|`:
/// - t < 0.84375: `erf(x) ≈ x + x·P(x²)/Q(x²)`;
/// - t < 1.25: `erf(t) ≈ erx + P(t−1)/Q(t−1)`;
/// - t < 28: `erfc(t) ≈ exp(−t² − 0.5625 + R(1/t²)/S(1/t²)) / t`, with one
///   fit below 1/0.35 and one above;
/// - otherwise erfc is 0 for x > 0 and 2 for x < 0, and it is 2 already
///   for x ≤ −6.
///
/// `erfc(NaN)` is NaN, `erfc(+∞) = 0` and `erfc(−∞) = 2`.
fn erfc(x: f64) -> f64 {
    let negative = x.is_sign_negative();
    let ix = (x.abs().to_bits() >> 32) as u32;
    if ix >= 0x7ff0_0000 {
        // NaN or ±∞.
        return if x.is_nan() {
            x
        } else if negative {
            2.0
        } else {
            0.0
        };
    }
    if ix < 0x3feb_0000 {
        // |x| < 0.84375
        if ix < 0x3c70_0000 {
            // |x| < 2^-56
            return 1.0 - x;
        }
        let z = x * x;
        let y = poly(z, &PP) / (1.0 + z * poly(z, &QQ));
        return if x < 0.25 {
            1.0 - (x + x * y)
        } else {
            0.5 - (x * y + (x - 0.5))
        };
    }
    if ix < 0x3ff4_0000 {
        // 0.84375 <= |x| < 1.25
        let s = x.abs() - 1.0;
        let p = poly(s, &PA);
        let q = 1.0 + s * poly(s, &QA);
        return if negative {
            1.0 + (ERX + p / q)
        } else {
            (1.0 - ERX) - p / q
        };
    }
    if ix >= 0x403c_0000 || (negative && ix >= 0x4018_0000) {
        // |x| >= 28, or x <= -6
        return if negative { 2.0 } else { 0.0 };
    }
    let t = x.abs();
    let s = 1.0 / (t * t);
    let (r, q) = if ix < 0x4006_db6d {
        // |x| < 1/0.35
        (poly(s, &RA), 1.0 + s * poly(s, &SA))
    } else {
        (poly(s, &RB), 1.0 + s * poly(s, &SB))
    };
    // t with its low word cleared, so that z·z is exact.
    let z = f64::from_bits(t.to_bits() & 0xffff_ffff_0000_0000);
    let e = (-z * z - 0.5625).exp() * ((z - t) * (z + t) + r / q).exp();
    if negative {
        2.0 - e / t
    } else {
        e / t
    }
}

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

/// A categorical distribution over indices `0..k` with given probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    /// Normalized probabilities.
    probs: Vec<f64>,
    /// Cumulative sums for inverse-CDF sampling.
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights
    /// (normalized internally).
    ///
    /// # Panics
    /// Panics on empty, negative, non-finite, or all-zero weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Categorical: empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "Categorical: bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "Categorical: zero total weight");
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let mut cumulative = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Categorical { probs, cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether there are zero categories (never true for a constructed
    /// value; included for API completeness).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of category `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Normalized probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Draws a category index by inverse-CDF binary search.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in cumulative"))
        {
            Ok(i) => (i + 1).min(self.probs.len() - 1),
            Err(i) => i.min(self.probs.len() - 1),
        }
    }
}

/// The series and continued-fraction `erf` that `std_normal_cdf` used
/// before the rational `erfc`, kept as the accuracy oracle of its tests.
#[cfg(test)]
mod oracle {
    /// The error function `erf(x)`, accurate to ~1e-15.
    ///
    /// Series expansion for `|x| <= 2.0`, continued-fraction complement above.
    pub fn erf(x: f64) -> f64 {
        if x < 0.0 {
            return -erf(-x);
        }
        if x == 0.0 {
            return 0.0;
        }
        if x > 6.0 {
            return 1.0;
        }
        if x <= 2.0 {
            // Maclaurin series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1)/(n!(2n+1)).
            let mut term = x;
            let mut sum = x;
            let x2 = x * x;
            let mut n = 0u32;
            loop {
                n += 1;
                term *= -x2 / n as f64;
                let contribution = term / (2 * n + 1) as f64;
                sum += contribution;
                if contribution.abs() < 1e-17 * sum.abs() {
                    break;
                }
                if n > 200 {
                    break;
                }
            }
            (2.0 / std::f64::consts::PI.sqrt()) * sum
        } else {
            1.0 - erfc_cf(x)
        }
    }

    /// Complementary error function `erfc(x) = 1 - erf(x)`.
    pub fn erfc(x: f64) -> f64 {
        if x < 2.0 {
            1.0 - erf(x)
        } else {
            erfc_cf(x)
        }
    }

    /// Continued-fraction evaluation of erfc for x >= 2 (Lentz's algorithm).
    fn erfc_cf(x: f64) -> f64 {
        // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))
        let mut f = x;
        let mut c = x;
        let mut d = 0.0;
        let tiny = 1e-300;
        for k in 1..300 {
            // erfc(x)·√π·exp(x²) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
            // i.e. partial numerators a_k = k/2 with constant denominator x.
            let an = k as f64 / 2.0;
            let bn = x;
            d = bn + an * d;
            if d.abs() < tiny {
                d = tiny;
            }
            c = bn + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = c * d;
            f *= delta;
            if (delta - 1.0).abs() < 1e-16 {
                break;
            }
        }
        // f now approximates x + CF, so erfc = exp(-x^2)/sqrt(pi) / f.
        (-x * x).exp() / (std::f64::consts::PI.sqrt() * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::SQRT_2;

    /// Φ by the oracle, in the same `0.5 · erfc(−x/√2)` form.
    fn oracle_cdf(x: f64) -> f64 {
        0.5 * oracle::erfc(-x / SQRT_2)
    }

    /// Checks Φ against the oracle at `x`: within `2e-15` absolute
    /// everywhere, and within `1e-12` relative on [−37, 8.5], where Φ is
    /// far from underflow.
    fn assert_close_to_oracle(x: f64) {
        let (got, want) = (std_normal_cdf(x), oracle_cdf(x));
        let abs = (got - want).abs();
        assert!(
            abs <= 2e-15,
            "Φ({x:e}) = {got:e}, oracle {want:e}: abs {abs:e}"
        );
        if x >= -37.0 {
            let rel = abs / want;
            assert!(
                rel <= 1e-12,
                "Φ({x:e}) = {got:e}, oracle {want:e}: rel {rel:e}"
            );
        }
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, expected) in cases {
            assert!(
                (oracle::erf(x) - expected).abs() < 1e-12,
                "erf({x}) = {}, expected {expected}",
                oracle::erf(x)
            );
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[0.1, 0.7, 1.5, 2.5, 4.0] {
            assert!(
                (oracle::erf(x) + oracle::erfc(x) - 1.0).abs() < 1e-12,
                "x = {x}"
            );
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((std_normal_cdf(1.959963984540054) - 0.975).abs() < 1e-10);
        assert!((std_normal_cdf(-1.959963984540054) - 0.025).abs() < 1e-10);
        assert!((std_normal_cdf(1.0) - 0.8413447460685429).abs() < 1e-12);
        // P(x) of Abramowitz & Stegun Table 26.1, to its 15 decimals.
        let table = [
            (0.0, 0.500000000000000),
            (0.1, 0.539827837277029),
            (0.5, 0.691462461274013),
            (1.0, 0.841344746068543),
            (1.5, 0.933192798731142),
            (2.0, 0.977249868051821),
            (2.5, 0.993790334674224),
            (3.0, 0.998650101968370),
        ];
        for (x, p) in table {
            for (got, want) in [(std_normal_cdf(x), p), (std_normal_cdf(-x), 1.0 - p)] {
                assert!((got - want).abs() <= 1e-15, "±{x}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn normal_cdf_matches_the_series_oracle_on_a_dense_grid() {
        // Step 1/1024 plus an offset, so the grid is not all dyadic.
        let mut x = -38.5 + 1e-4;
        while x <= 8.5 {
            assert_close_to_oracle(x);
            x += 1.0 / 1024.0;
        }
    }

    #[test]
    fn normal_cdf_matches_the_oracle_across_every_interval_edge() {
        // erfc's interval edges in t = |x|/√2 (at 6 and 28 it cuts off to
        // 2 and 0), and the oracle's series/fraction seam at t = 2.
        for t_edge in [0.84375, 1.25, 1.0 / 0.35, 6.0, 28.0, 2.0] {
            for sign in [-1.0, 1.0] {
                let centre = sign * t_edge * SQRT_2;
                // 64 ulps either side, then wider steps out to 1e-6.
                for ulps in -64i64..=64 {
                    assert_close_to_oracle(f64::from_bits(
                        centre.to_bits().wrapping_add_signed(ulps),
                    ));
                }
                for k in 1..=100 {
                    let d = k as f64 * 1e-8;
                    assert_close_to_oracle(centre - d);
                    assert_close_to_oracle(centre + d);
                }
            }
        }
    }

    #[test]
    fn normal_cdf_underflows_to_zero_below_minus_38_5() {
        for x in [-38.5, -38.6, -39.0, -40.0, -50.0, -1e3, -1e300, f64::MIN] {
            assert_eq!(std_normal_cdf(x), 0.0, "Φ({x})");
        }
    }

    #[test]
    fn normal_cdf_special_values() {
        assert!(std_normal_cdf(f64::NAN).is_nan());
        assert_eq!(std_normal_cdf(f64::NEG_INFINITY), 0.0);
        assert_eq!(std_normal_cdf(f64::INFINITY), 1.0);
    }

    #[test]
    fn categorical_sampling_matches_probs() {
        let c = Categorical::new(&[1.0, 2.0, 7.0]);
        assert!((c.prob(0) - 0.1).abs() < 1e-15);
        assert!((c.prob(2) - 0.7).abs() < 1e-15);
        assert_eq!(c.len(), 3);
        let mut rng = SimRng::new(4);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[c.sample_index(&mut rng)] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let f = cnt as f64 / n as f64;
            assert!((f - c.prob(i)).abs() < 0.02, "category {i}: {f}");
        }
    }

    #[test]
    fn categorical_race_distribution_of_the_paper() {
        // The paper's race sampling distribution.
        let c = Categorical::new(&[0.1235, 0.8406, 0.0359]);
        let total: f64 = c.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn categorical_rejects_zero_weights() {
        Categorical::new(&[0.0, 0.0]);
    }
}
