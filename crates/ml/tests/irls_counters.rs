//! The IRLS core's deterministic work counters. This file is its own
//! test binary, so no other fit runs while the recorder is installed.

use eqimpact_ml::{Dataset, GroupedTable, LogisticRegression};
use eqimpact_telemetry::{metrics, Recorder};

/// One count per fit: its iterations, and the rows it swept — a cell
/// per distinct feature vector for a table, an observation per row for a
/// dataset.
#[test]
fn irls_counts_fits_iterations_and_swept_rows() {
    let rows = [[0.0, 1.0], [0.5, 0.0], [0.0, 1.0], [0.5, 0.0], [1.0, 1.0]];
    let labels = [1.0, 0.0, 0.0, 1.0, 0.0];
    let mut table = GroupedTable::new();
    for (x, &y) in rows.iter().zip(&labels) {
        table.push(x, y).unwrap();
    }
    let nested: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
    let data = Dataset::new(&nested, &labels).unwrap();
    let fitter = LogisticRegression::default();

    Recorder::install();
    let by_cells = table.fit(&fitter).unwrap();
    let by_rows = fitter.fit(&data).unwrap();
    let counted = (
        metrics::IRLS_FITS.total(),
        metrics::IRLS_ITERATIONS.total(),
        metrics::IRLS_ROWS.total(),
    );
    Recorder::uninstall();

    let iterations = (by_cells.iterations + by_rows.iterations) as u64;
    assert_eq!(counted, (2, iterations, 3 + 5));
}
