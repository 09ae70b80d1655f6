//! The (time x value) density histogram of the paper's Fig. 5 and the
//! clamped binning it shares with the certification plane.

/// The bin of `x` among `bins` bins of width `width` starting at `lo`,
/// clamped into `0..bins`: the index `⌊(x − lo) / width⌋`, with a
/// negative index, NaN and −∞ sending `x` to bin 0, and +∞ or an index
/// past the end to bin `bins − 1`.
///
/// Truncating the quotient toward zero picks the same bin as `floor`:
/// the two agree on every quotient `≥ 0` (−0.0 included), and every
/// quotient below 0 lands in bin 0 either way. Baseline x86-64 has no
/// SSE4.1 `roundsd`, so `floor` is a library call there.
///
/// `bins` must be at least 1.
#[inline]
pub fn clamped_bin(x: f64, lo: f64, width: f64, bins: usize) -> usize {
    let q = (x - lo) / width;
    if q >= 0.0 {
        (q as usize).min(bins - 1)
    } else {
        0
    }
}

/// A 2-D histogram: `x` is a discrete index (e.g. the year / time step) and
/// `y` is continuous, binned by [`clamped_bin`] over `[y_lo, y_hi)`.
///
/// This is the density structure behind the paper's Fig. 5, where darker
/// shades denote a higher density of `ADR_i(k)` at each time step.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2D {
    x_len: usize,
    y_lo: f64,
    /// Bin width `(y_hi − y_lo) / y_bins`.
    y_width: f64,
    y_bins: usize,
    /// Row-major: `counts[x * y_bins + y_bin]`.
    counts: Vec<u64>,
    /// Per-column totals.
    col_totals: Vec<u64>,
}

impl Histogram2D {
    /// Creates a 2-D histogram with `x_len` columns and `y_bins` bins over
    /// `[y_lo, y_hi)`.
    ///
    /// # Panics
    /// Panics for zero dimensions or an invalid `y` range.
    pub fn new(x_len: usize, y_lo: f64, y_hi: f64, y_bins: usize) -> Self {
        assert!(x_len > 0 && y_bins > 0, "Histogram2D: zero dimension");
        assert!(
            y_lo < y_hi && y_lo.is_finite() && y_hi.is_finite(),
            "Histogram2D: invalid y range"
        );
        Histogram2D {
            x_len,
            y_lo,
            y_width: (y_hi - y_lo) / y_bins as f64,
            y_bins,
            counts: vec![0; x_len * y_bins],
            col_totals: vec![0; x_len],
        }
    }

    /// Number of columns (x values).
    pub fn x_len(&self) -> usize {
        self.x_len
    }

    /// Number of y bins.
    pub fn y_bins(&self) -> usize {
        self.y_bins
    }

    /// Adds an observation at column `x`.
    ///
    /// # Panics
    /// Panics when `x` is out of range.
    pub fn add(&mut self, x: usize, y: f64) {
        assert!(x < self.x_len, "Histogram2D::add: x = {x} out of range");
        let b = clamped_bin(y, self.y_lo, self.y_width, self.y_bins);
        self.counts[x * self.y_bins + b] += 1;
        self.col_totals[x] += 1;
    }

    /// Raw count in cell `(x, y_bin)`.
    pub fn count(&self, x: usize, y_bin: usize) -> u64 {
        self.counts[x * self.y_bins + y_bin]
    }

    /// Total observations in column `x`.
    // analyze::allow(R8): tests/integration_credit_pipeline.rs checks the Fig. 5 column totals through it
    pub fn col_total(&self, x: usize) -> u64 {
        self.col_totals[x]
    }

    /// Density of cell `(x, y_bin)` normalized **within its column** — the
    /// shading used in Fig. 5 (each time step is a distribution over ADR).
    pub fn col_density(&self, x: usize, y_bin: usize) -> f64 {
        let t = self.col_totals[x];
        if t == 0 {
            0.0
        } else {
            self.count(x, y_bin) as f64 / t as f64
        }
    }

    /// Column `x` as a vector of densities (length `y_bins`).
    pub fn column(&self, x: usize) -> Vec<f64> {
        (0..self.y_bins).map(|b| self.col_density(x, b)).collect()
    }

    /// Midpoint of y bin `b`.
    pub fn y_bin_center(&self, b: usize) -> f64 {
        self.y_lo + (b as f64 + 0.5) * self.y_width
    }

    /// Renders the histogram as an ASCII shade map (rows = y bins from high
    /// to low, columns = x), using ` .:-=+*#%@` as the density ramp.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut out = String::new();
        for b in (0..self.y_bins).rev() {
            for x in 0..self.x_len {
                let d = self.col_density(x, b);
                let idx = ((d * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference binning: the floored quotient, clamped.
    fn floor_bin(x: f64, lo: f64, w: f64, bins: usize) -> usize {
        let idx = ((x - lo) / w).floor();
        if x.is_nan() || idx < 0.0 {
            0
        } else {
            (idx as usize).min(bins - 1)
        }
    }

    #[test]
    fn clamped_bin_matches_the_floored_quotient() {
        let geometries = [
            (0.0, 1.0 + 1e-9, 25),
            (0.0, 1.0, 4),
            (-1000.0, 1000.0, 16),
            (-3.5, 2.25, 7),
            (0.1, 0.3, 3),
        ];
        for (lo, hi, bins) in geometries {
            let w = (hi - lo) / bins as f64;
            let check = |x: f64| {
                let want = floor_bin(x, lo, w, bins);
                assert_eq!(
                    clamped_bin(x, lo, w, bins),
                    want,
                    "x = {x:e} ({:#018x}) over [{lo}, {hi}) in {bins} bins",
                    x.to_bits()
                );
                // The certify form: the floored quotient raised to 0 first.
                let raised = (((x - lo) / w).floor().max(0.0) as usize).min(bins - 1);
                assert_eq!(raised, want, "certify form at x = {x:e}");
            };
            // A dense grid over the range and a quarter of it either side.
            let span = hi - lo;
            for i in 0..=100_000 {
                check(lo - 0.25 * span + 1.5 * span * f64::from(i) / 100_000.0);
            }
            // Every bin edge and the four floats either side of it.
            for b in 0..=bins {
                let edge = lo + b as f64 * w;
                check(edge);
                let (mut up, mut down) = (edge, edge);
                for _ in 0..4 {
                    up = up.next_up();
                    down = down.next_down();
                    check(up);
                    check(down);
                }
            }
            for x in [
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                f64::from_bits(1),
                -f64::from_bits(1),
                f64::MAX,
                f64::MIN,
                1e300,
                -1e300,
            ] {
                check(x);
            }
        }
    }

    #[test]
    fn hist2d_columns() {
        let mut h = Histogram2D::new(3, 0.0, 1.0, 2);
        h.add(0, 0.2);
        h.add(0, 0.3);
        h.add(0, 0.8);
        h.add(2, 0.9);
        assert_eq!(h.col_total(0), 3);
        assert_eq!(h.col_total(1), 0);
        assert_eq!(h.count(0, 0), 2);
        assert!((h.col_density(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.col_density(1, 0), 0.0);
        assert_eq!(h.column(2), vec![0.0, 1.0]);
        assert!((h.y_bin_center(1) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn hist2d_ascii_has_right_shape() {
        let mut h = Histogram2D::new(4, 0.0, 1.0, 3);
        h.add(0, 0.1);
        h.add(3, 0.95);
        let art = h.to_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == 4));
        // Dense cells render as the darkest ramp character '@'.
        assert_eq!(lines[2].chars().next().unwrap(), '@'); // (x=0, lowest bin)
        assert_eq!(lines[0].chars().nth(3).unwrap(), '@'); // (x=3, highest bin)
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hist2d_rejects_bad_column() {
        let mut h = Histogram2D::new(2, 0.0, 1.0, 2);
        h.add(2, 0.5);
    }
}
