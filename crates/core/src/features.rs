//! Columnar (struct-of-arrays) feature storage for the loop's hot path.
//!
//! The paper's protocol (N = 1000, 5 trials) tolerates a `Vec<Vec<f64>>`
//! per step; a production-scale loop serving millions of simulated users
//! does not. [`FeatureMatrix`] stores each feature as one contiguous
//! column buffer so a step's observation can be rewritten in place with
//! zero allocation, batched scoring kernels stream each column linearly
//! (the autovectorizer's favourite shape), and the layout matches the
//! EQTRACE1 trace codec exactly — recording a step is a per-column
//! near-memcpy instead of a strided gather.
//!
//! Row-oriented access survives as a migration shim: [`FeatureMatrix::get`]
//! reads one cell, [`FeatureMatrix::copy_row_into`] gathers a row, and
//! [`FeatureMatrix::push_row`] appends one. Hot paths should write columns
//! in place via [`FeatureMatrix::col_mut`] / [`FeatureMatrix::cols_pair_mut`]
//! and score through the batched kernels instead.

/// A dense column-major matrix of per-user features: `width` columns of
/// `row_count` values each, one flat buffer per column.
///
/// `width == 0` is a valid shape (populations with no visible features);
/// the row count is tracked independently of the column buffers so empty
/// rows still count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    cols: Vec<Vec<f64>>,
    rows: usize,
}

impl FeatureMatrix {
    /// Creates an empty matrix of the given row width.
    pub fn new(width: usize) -> Self {
        FeatureMatrix {
            cols: (0..width).map(|_| Vec::new()).collect(),
            rows: 0,
        }
    }

    /// Creates an empty matrix with capacity for `rows` rows of `width`.
    pub fn with_capacity(rows: usize, width: usize) -> Self {
        FeatureMatrix {
            cols: (0..width).map(|_| Vec::with_capacity(rows)).collect(),
            rows: 0,
        }
    }

    /// Creates a `rows x width` matrix of zeros.
    pub fn zeros(rows: usize, width: usize) -> Self {
        FeatureMatrix {
            cols: (0..width).map(|_| vec![0.0; rows]).collect(),
            rows,
        }
    }

    /// Builds a matrix from nested rows — a **test-only convenience**:
    /// it transposes row by row, so hot paths must write columns in
    /// place ([`Self::col_mut`]) instead.
    ///
    /// # Panics
    /// Panics when rows have unequal lengths.
    // analyze::allow(R8): credit, hiring and certify unit tests and core/tests/properties.rs use it as a fixture builder
    pub fn from_nested(rows: &[Vec<f64>]) -> Self {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut m = FeatureMatrix::with_capacity(rows.len(), width);
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Row width (features per user).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows (users).
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `j` as a contiguous slice of `row_count()` values.
    ///
    /// # Panics
    /// Panics when `j >= width()`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(
            j < self.cols.len(),
            "col {j} out of {} cols",
            self.cols.len()
        );
        &self.cols[j]
    }

    /// Mutable column `j`.
    ///
    /// # Panics
    /// Panics when `j >= width()`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(
            j < self.cols.len(),
            "col {j} out of {} cols",
            self.cols.len()
        );
        &mut self.cols[j]
    }

    /// Two distinct columns, both mutable — the shape of the credit and
    /// hiring observe sweeps, which write a code column and a raw-value
    /// column per row.
    ///
    /// # Panics
    /// Panics when `a == b` or either index is out of range.
    pub fn cols_pair_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(a != b, "cols_pair_mut: columns must be distinct");
        assert!(
            a < self.cols.len() && b < self.cols.len(),
            "cols_pair_mut: ({a}, {b}) out of {} cols",
            self.cols.len()
        );
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.cols.split_at_mut(hi);
        let (x, y) = (&mut head[lo][..], &mut tail[0][..]);
        if a < b {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// All columns as shared slices, in order (the batched-kernel view).
    pub fn col_slices(&self) -> Vec<&[f64]> {
        self.cols.iter().map(|c| c.as_slice()).collect()
    }

    /// All columns as mutable slices, in order.
    pub fn col_slices_mut(&mut self) -> Vec<&mut [f64]> {
        self.cols.iter_mut().map(|c| c.as_mut_slice()).collect()
    }

    /// Cell `(i, j)` — the row-view migration shim for scalar reads.
    ///
    /// # Panics
    /// Panics when `i >= row_count()` or `j >= width()`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows, "row {i} out of {} rows", self.rows);
        self.col(j)[i]
    }

    /// Writes cell `(i, j)`.
    ///
    /// # Panics
    /// Panics when `i >= row_count()` or `j >= width()`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows, "row {i} out of {} rows", self.rows);
        self.col_mut(j)[i] = v;
    }

    /// Gathers row `i` into `out` (cleared first) — the row-view
    /// migration shim for callers that still need a whole row.
    ///
    /// # Panics
    /// Panics when `i >= row_count()`.
    pub fn copy_row_into(&self, i: usize, out: &mut Vec<f64>) {
        assert!(i < self.rows, "row {i} out of {} rows", self.rows);
        out.clear();
        out.extend(self.cols.iter().map(|c| c[i]));
    }

    /// Appends one row (an O(width) scatter; fine off the hot path).
    ///
    /// # Panics
    /// Panics when `row.len() != width()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols.len(), "push_row: width mismatch");
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Drops all rows, keeping the width and the allocations.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.rows = 0;
    }

    /// Reshapes in place to `rows x width`, zero-filling and reusing the
    /// existing allocations where possible.
    pub fn reset(&mut self, rows: usize, width: usize) {
        self.cols.resize_with(width, Vec::new);
        self.rows = rows;
        for col in &mut self.cols {
            col.clear();
            col.resize(rows, 0.0);
        }
    }

    /// Reshapes in place to `rows x width` **without** zeroing retained
    /// cells — contents are unspecified (stale values or zeros) until
    /// written. The hot-path variant of [`Self::reset`] for callers that
    /// overwrite every cell anyway: in steady state (same shape each
    /// step) it touches no memory at all.
    pub fn reshape(&mut self, rows: usize, width: usize) {
        self.cols.resize_with(width, Vec::new);
        self.rows = rows;
        for col in &mut self.cols {
            col.resize(rows, 0.0);
        }
    }

    /// The cells flattened row-major (interop / JSON dumps; allocates).
    // analyze::allow(R8): trace/tests/properties.rs compares decoded frames' visible features through it
    pub fn to_row_major(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows * self.cols.len());
        for i in 0..self.rows {
            out.extend(self.cols.iter().map(|c| c[i]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut m = FeatureMatrix::new(2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.row_count(), 2);
        assert_eq!(m.width(), 2);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.to_row_major(), vec![1.0, 2.0, 3.0, 4.0]);
        let mut row = Vec::new();
        m.copy_row_into(1, &mut row);
        assert_eq!(row, vec![3.0, 4.0]);
    }

    #[test]
    fn empty_width_counts_rows() {
        let mut m = FeatureMatrix::new(0);
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.row_count(), 2);
        assert_eq!(m.width(), 0);
        let mut row = vec![9.0];
        m.copy_row_into(1, &mut row);
        assert_eq!(row, Vec::<f64>::new());
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = FeatureMatrix::from_nested(&[vec![1.0, 2.0]]);
        m.reset(3, 1);
        assert_eq!(m.row_count(), 3);
        assert_eq!(m.width(), 1);
        assert_eq!(m.col(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn reshape_keeps_contents_unspecified_but_sized() {
        let mut m = FeatureMatrix::from_nested(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.reshape(2, 2);
        assert_eq!(m.row_count(), 2);
        // Growing zero-fills only the new tail cells.
        m.reshape(3, 2);
        assert_eq!(m.get(2, 0), 0.0);
        assert_eq!(m.get(2, 1), 0.0);
        assert_eq!(m.col(0).len(), 3);
    }

    #[test]
    fn col_mut_writes_through() {
        let mut m = FeatureMatrix::zeros(2, 2);
        m.col_mut(0)[1] = 7.0;
        m.set(1, 1, 9.0);
        assert_eq!(m.get(1, 0), 7.0);
        assert_eq!(m.get(1, 1), 9.0);
    }

    #[test]
    fn cols_pair_mut_is_order_aware() {
        let mut m = FeatureMatrix::zeros(2, 3);
        let (a, b) = m.cols_pair_mut(2, 0);
        a[0] = 5.0;
        b[1] = 6.0;
        assert_eq!(m.col(2), &[5.0, 0.0]);
        assert_eq!(m.col(0), &[0.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_row_checks_width() {
        FeatureMatrix::new(2).push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn cell_bounds_checked() {
        let m = FeatureMatrix::zeros(1, 1);
        m.get(1, 0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn cols_pair_mut_rejects_same_column() {
        let mut m = FeatureMatrix::zeros(1, 2);
        m.cols_pair_mut(1, 1);
    }
}
