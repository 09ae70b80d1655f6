//! Dependency-free observability for the eqimpact workspace.
//!
//! The crate is a fixed **catalog** of statically allocated instruments
//! ([`metrics`]) behind one process-wide switch, the [`Recorder`]. Every
//! instrument operation starts with a single relaxed atomic load: while
//! no recorder is installed the whole plane is a guaranteed no-op — one
//! predictable branch, zero allocation, zero `Instant::now()` calls — so
//! instrumented hot paths cost nothing measurable and the engine's
//! bit-identity contract is untouched (the instruments only *observe*
//! the computation, never feed back into it).
//!
//! Instrument kinds:
//!
//! - [`Counter`] — a monotone event tally, sharded over cache-padded
//!   atomics so concurrent lanes don't bounce one cache line.
//! - [`Gauge`] — a current-value/peak pair (e.g. busy budget lanes).
//! - [`Histogram`] — fixed log2 buckets (no allocation, values 0 to
//!   `u64::MAX`) for sizes or durations, with count and sum.
//! - [`PhaseSpan`] — a scoped timer over a duration histogram; entering
//!   while disabled returns an inert guard without reading the clock.
//! - [`LaneSet`] — per-lane occupancy tallies for the thread fan-outs.
//!
//! Export is the [`TelemetrySnapshot`]: a point-in-time capture split
//! into a **deterministic** section (counts, byte/frame tallies, size
//! histograms — identical across runs and `--threads` values for a
//! deterministic workload) and a **wall-clock** section (durations, pool
//! scheduling, lane occupancy — honest numbers that vary run to run),
//! rendered as JSON. The split is the
//! determinism contract: anything scheduling-dependent is quarantined in
//! the wall-clock section, so the deterministic section can be byte-
//! compared in tests and CI.

#![forbid(unsafe_code)]

pub mod instruments;
pub mod metrics;
pub mod progress;
pub mod snapshot;

pub use instruments::{
    Counter, Gauge, Histogram, LaneSet, ManualTimer, PhaseSpan, Section, SpanGuard,
};
pub use snapshot::TelemetrySnapshot;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The process-wide switch every instrument branches on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a recorder is installed. One relaxed load — this is the
/// entire disabled-path cost of any instrument operation.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide recorder: install it to start recording into the
/// [`metrics`] catalog, capture a [`TelemetrySnapshot`] at any point,
/// uninstall to return the whole plane to its no-op state.
pub struct Recorder;

impl Recorder {
    /// Resets every instrument and enables recording. Idempotent, but
    /// note the reset: installing mid-run discards whatever was counted
    /// so far.
    pub fn install() {
        Self::reset();
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Disables recording; the catalog keeps its tallies for inspection
    /// until the next [`Recorder::install`] or [`Recorder::reset`].
    // analyze::allow(R8): tests/telemetry_identity.rs and ml/tests/irls_counters.rs switch recording off with it
    pub fn uninstall() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Zeroes every instrument in the catalog and the progress goal.
    pub fn reset() {
        for c in metrics::COUNTERS {
            c.reset();
        }
        for g in metrics::GAUGES {
            g.reset();
        }
        for h in metrics::HISTOGRAMS {
            h.reset();
        }
        for s in metrics::SPANS {
            s.reset();
        }
        for l in metrics::LANE_SETS {
            l.reset();
        }
        progress::reset_goal();
    }

    /// Captures a [`TelemetrySnapshot`] of the whole catalog.
    pub fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot::capture()
    }
}

/// Serializes tests that install/reset the recorder: the catalog is
/// process-global, so concurrent tests in one binary would otherwise
/// tally into each other's snapshots. Hold the returned guard for the
/// whole test; a panicking holder does not wedge later tests.
// analyze::allow(R8): tests/telemetry_identity.rs serializes its recorder tests with it
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_gates_the_whole_catalog() {
        let _t = test_guard();
        Recorder::reset();
        metrics::LOOP_STEPS.add(5);
        assert_eq!(metrics::LOOP_STEPS.total(), 0, "disabled counter counted");

        Recorder::install();
        metrics::LOOP_STEPS.add(5);
        assert_eq!(metrics::LOOP_STEPS.total(), 5);

        Recorder::uninstall();
        metrics::LOOP_STEPS.add(5);
        assert_eq!(
            metrics::LOOP_STEPS.total(),
            5,
            "uninstalled counter counted"
        );

        Recorder::reset();
        assert_eq!(metrics::LOOP_STEPS.total(), 0);
    }

    #[test]
    fn install_resets_previous_tallies() {
        let _t = test_guard();
        Recorder::install();
        metrics::LOOP_STEPS.add(3);
        Recorder::install();
        assert_eq!(metrics::LOOP_STEPS.total(), 0);
        Recorder::uninstall();
        Recorder::reset();
    }
}
