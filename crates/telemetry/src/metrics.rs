//! The central instrument catalog. Rust has no life-before-main, so
//! rather than a registration protocol every instrument in the
//! workspace lives here as a `static`, and the snapshot iterates these
//! fixed arrays — which also pins the render order, keeping snapshots
//! deterministic by construction.
//!
//! Naming: `<plane>.<event>`, with the plane matching the crate that
//! drives the instrument (`loop.*` from core's runners, `pool.*` from
//! `core::pool`, `trace.*` from the trace store, …).

use crate::instruments::{Counter, Gauge, Histogram, LaneSet, PhaseSpan, Section, Unit};

// --- loop plane (core::closed_loop / core::shard) -----------------------

/// Loop steps completed (sequential and sharded runners alike).
pub static LOOP_STEPS: Counter = Counter::new("loop.steps", Section::Deterministic);
/// The observe phase: population → visible features. In sharded runs
/// each shard's slice is one scope, so the count is steps × shards.
pub static LOOP_OBSERVE: PhaseSpan = PhaseSpan::new("loop.observe");
/// The signal phase: AI scoring over the visible features.
pub static LOOP_SIGNAL: PhaseSpan = PhaseSpan::new("loop.signal");
/// The respond phase: population reactions to the broadcast signals.
pub static LOOP_RESPOND: PhaseSpan = PhaseSpan::new("loop.respond");
/// The filter phase: the feedback filter at the step barrier.
pub static LOOP_FILTER: PhaseSpan = PhaseSpan::new("loop.filter");
/// The record phase: `LoopRecord::push_step` plus the step sink.
pub static LOOP_RECORD: PhaseSpan = PhaseSpan::new("loop.record");
/// The retrain phase: delay-line pop, retrain and checkpointing.
pub static LOOP_RETRAIN: PhaseSpan = PhaseSpan::new("loop.retrain");

// --- irls plane (ml::logistic) -------------------------------------------

/// Logistic fits completed by the IRLS core.
pub static IRLS_FITS: Counter = Counter::new("irls.fits", Section::Deterministic);
/// IRLS iterations summed over fits.
pub static IRLS_ITERATIONS: Counter = Counter::new("irls.iterations", Section::Deterministic);
/// Rows the IRLS core swept, summed over fits: one per distinct feature
/// vector for a grouped table, one per observation for a plain dataset.
pub static IRLS_ROWS: Counter = Counter::new("irls.rows", Section::Deterministic);

// --- dist plane (the credit and hiring respond sweeps) -------------------

/// Response draws: one per row whose action was a Bernoulli(Φ) draw
/// rather than forced to 0. Each sweep adds its rows once.
pub static DIST_NORMAL_CDF: Counter = Counter::new("dist.normal_cdf", Section::Deterministic);
/// Response draws that evaluated the exact Φ because the squeeze table
/// could not decide them (`stats::dist::bernoulli_std_normal_cdf`). Each
/// sweep adds its rows once.
pub static DIST_NORMAL_CDF_EXACT: Counter =
    Counter::new("dist.normal_cdf_exact", Section::Deterministic);

// --- pool plane (core::pool) — scheduling-dependent, all wall-clock -----

/// Budget leases taken.
pub static POOL_LEASES: Counter = Counter::new("pool.leases", Section::WallClock);
/// Lanes requested across all leases (the caller's lane included).
pub static POOL_LANES_REQUESTED: Counter = Counter::new("pool.lanes_requested", Section::WallClock);
/// Lanes actually granted across all leases.
pub static POOL_LANES_GRANTED: Counter = Counter::new("pool.lanes_granted", Section::WallClock);
/// Leases granted fewer lanes than requested (budget exhaustion).
pub static POOL_LEASES_CLAMPED: Counter = Counter::new("pool.leases_clamped", Section::WallClock);
/// Extra budget lanes currently held by live leases (peak = high-water).
pub static POOL_LANES_BUSY: Gauge = Gauge::new("pool.lanes_busy", Section::WallClock);
/// Jobs run by the fan-outs: `run_indexed` jobs and `run_striped` items,
/// on whichever thread ran them.
pub static POOL_JOBS_RUN: Counter = Counter::new("pool.jobs_run", Section::WallClock);
/// Jobs per lane. The lane is the stripe: in a `run_striped` batch lane
/// 0 is the calling thread, in a `run_indexed` batch every lane is a
/// spawned thread.
pub static POOL_LANE_JOBS: LaneSet = LaneSet::new("pool.lane_jobs");

// --- trace plane (crates/trace) -----------------------------------------

/// EQTRACE1 frames written (header, groups, steps, checkpoints, footer).
pub static TRACE_FRAMES_WRITTEN: Counter =
    Counter::new("trace.frames_written", Section::Deterministic);
/// EQTRACE1 frames read back.
pub static TRACE_FRAMES_READ: Counter = Counter::new("trace.frames_read", Section::Deterministic);
/// CRC mismatches hit while reading.
pub static TRACE_CHECKSUM_FAILURES: Counter =
    Counter::new("trace.checksum_failures", Section::Deterministic);
/// Payload sizes of written frames.
pub static TRACE_FRAME_BYTES: Histogram =
    Histogram::new("trace.frame_bytes", Section::Deterministic, Unit::Bytes);
/// Raw (pre-encoding) bytes of columns the codec kept plain.
pub static TRACE_RAW_BYTES_PLAIN: Counter =
    Counter::new("trace.codec.plain.raw_bytes", Section::Deterministic);
/// Encoded bytes of columns the codec kept plain.
pub static TRACE_ENC_BYTES_PLAIN: Counter =
    Counter::new("trace.codec.plain.encoded_bytes", Section::Deterministic);
/// Raw bytes of columns the codec run-length encoded.
pub static TRACE_RAW_BYTES_RLE: Counter =
    Counter::new("trace.codec.rle.raw_bytes", Section::Deterministic);
/// Encoded bytes of columns the codec run-length encoded.
pub static TRACE_ENC_BYTES_RLE: Counter =
    Counter::new("trace.codec.rle.encoded_bytes", Section::Deterministic);
/// Raw bytes of columns encoded in the byte-swapped word domain.
pub static TRACE_RAW_BYTES_SWAP: Counter =
    Counter::new("trace.codec.swap.raw_bytes", Section::Deterministic);
/// Encoded bytes of columns encoded in the byte-swapped word domain.
pub static TRACE_ENC_BYTES_SWAP: Counter =
    Counter::new("trace.codec.swap.encoded_bytes", Section::Deterministic);
/// Raw bytes of columns both byte-swapped and run-length encoded.
pub static TRACE_RAW_BYTES_SWAP_RLE: Counter =
    Counter::new("trace.codec.swap_rle.raw_bytes", Section::Deterministic);
/// Encoded bytes of columns both byte-swapped and run-length encoded.
pub static TRACE_ENC_BYTES_SWAP_RLE: Counter =
    Counter::new("trace.codec.swap_rle.encoded_bytes", Section::Deterministic);

// --- lab / certify planes ------------------------------------------------

/// Sweep cells evaluated (one per candidate × trace).
pub static SWEEP_CELLS: PhaseSpan = PhaseSpan::new("sweep.cells");
/// Sweep cells that errored or panicked.
pub static SWEEP_CELL_ERRORS: Counter = Counter::new("sweep.cell_errors", Section::Deterministic);
/// Sweep bootstrap intervals, three per candidate: each is one
/// `run_indexed` job after the cell batch.
pub static SWEEP_INTERVALS: PhaseSpan = PhaseSpan::new("sweep.intervals");
/// Bootstrap resample draws: resamples × sample size, summed over the
/// sweep's intervals (an interval without samples draws nothing).
pub static BOOTSTRAP_DRAWS: Counter = Counter::new("bootstrap.draws", Section::Deterministic);
/// Certification cells evaluated (one per trace).
pub static CERTIFY_CELLS: PhaseSpan = PhaseSpan::new("certify.cells");
/// Certification cells that errored or panicked.
pub static CERTIFY_CELL_ERRORS: Counter =
    Counter::new("certify.cell_errors", Section::Deterministic);

// --- CLI -----------------------------------------------------------------

/// One CLI subcommand end to end (the timing footer's clock).
pub static CLI_COMMAND: PhaseSpan = PhaseSpan::wall_clock("cli.command");

/// Every counter, in render order.
pub static COUNTERS: [&Counter; 25] = [
    &LOOP_STEPS,
    &IRLS_FITS,
    &IRLS_ITERATIONS,
    &IRLS_ROWS,
    &DIST_NORMAL_CDF,
    &DIST_NORMAL_CDF_EXACT,
    &POOL_LEASES,
    &POOL_LANES_REQUESTED,
    &POOL_LANES_GRANTED,
    &POOL_LEASES_CLAMPED,
    &POOL_JOBS_RUN,
    &TRACE_FRAMES_WRITTEN,
    &TRACE_FRAMES_READ,
    &TRACE_CHECKSUM_FAILURES,
    &TRACE_RAW_BYTES_PLAIN,
    &TRACE_ENC_BYTES_PLAIN,
    &TRACE_RAW_BYTES_RLE,
    &TRACE_ENC_BYTES_RLE,
    &TRACE_RAW_BYTES_SWAP,
    &TRACE_ENC_BYTES_SWAP,
    &TRACE_RAW_BYTES_SWAP_RLE,
    &TRACE_ENC_BYTES_SWAP_RLE,
    &SWEEP_CELL_ERRORS,
    &BOOTSTRAP_DRAWS,
    &CERTIFY_CELL_ERRORS,
];

/// Every gauge, in render order.
pub static GAUGES: [&Gauge; 1] = [&POOL_LANES_BUSY];

/// Every standalone histogram, in render order.
pub static HISTOGRAMS: [&Histogram; 1] = [&TRACE_FRAME_BYTES];

/// Every phase span, in render order.
pub static SPANS: [&PhaseSpan; 10] = [
    &LOOP_OBSERVE,
    &LOOP_SIGNAL,
    &LOOP_RESPOND,
    &LOOP_FILTER,
    &LOOP_RECORD,
    &LOOP_RETRAIN,
    &SWEEP_CELLS,
    &SWEEP_INTERVALS,
    &CERTIFY_CELLS,
    &CLI_COMMAND,
];

/// Every lane set, in render order.
pub static LANE_SETS: [&LaneSet; 1] = [&POOL_LANE_JOBS];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_names_are_unique() {
        let mut names = BTreeSet::new();
        let mut count = 0usize;
        for c in COUNTERS {
            names.insert(c.name());
            count += 1;
        }
        for g in GAUGES {
            names.insert(g.name());
            count += 1;
        }
        for h in HISTOGRAMS {
            names.insert(h.name());
            count += 1;
        }
        for s in SPANS {
            names.insert(s.name());
            count += 1;
        }
        for l in LANE_SETS {
            names.insert(l.name());
            count += 1;
        }
        assert_eq!(
            names.len(),
            count,
            "duplicate instrument name in the catalog"
        );
    }
}
