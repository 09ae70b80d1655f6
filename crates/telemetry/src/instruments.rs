//! The instrument kinds: sharded counters, gauges, log2 histograms,
//! scoped phase spans and per-lane tallies. Every mutating operation
//! branches on [`crate::enabled`] first; the disabled path is one
//! relaxed atomic load.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Which snapshot section an instrument's tallies belong to (see the
/// crate docs for the determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Scheduling-invariant: byte-identical across runs and thread
    /// counts for a deterministic workload.
    Deterministic,
    /// Wall-clock/scheduling-dependent: varies run to run.
    WallClock,
}

impl Section {
    /// The snapshot key of this section.
    pub fn label(self) -> &'static str {
        match self {
            Section::Deterministic => "deterministic",
            Section::WallClock => "wall_clock",
        }
    }
}

/// One cache line of counter state: the alignment keeps concurrent
/// lanes' increments off each other's lines.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    // A repeat-initializer for the shard array in `Counter::new` (a
    // `static` cannot seed `[_; N]` in a const fn); each shard is a
    // distinct atomic, so the shared-const pitfall does not apply.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: PaddedU64 = PaddedU64(AtomicU64::new(0));
}

/// Shards per [`Counter`] (a power of two; lanes hash into them).
pub const COUNTER_SHARDS: usize = 8;

/// Hands every thread a small stable slot for counter sharding.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn shard_index() -> usize {
    THREAD_SLOT.with(|s| *s) & (COUNTER_SHARDS - 1)
}

/// A monotone event tally, sharded over cache-padded atomics. `total()`
/// sums the shards, so a quiescent total is exact; a mid-run read is a
/// consistent lower bound.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    section: Section,
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter (usable as a `static` initializer).
    pub const fn new(name: &'static str, section: Section) -> Self {
        Counter {
            name,
            section,
            shards: [PaddedU64::ZERO; COUNTER_SHARDS],
        }
    }

    /// The instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The snapshot section this counter reports into.
    pub fn section(&self) -> Section {
        self.section
    }

    /// Adds `n` events. No-op while disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event. No-op while disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The summed tally.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A current-value/peak pair. `add`/`sub` track a level (e.g. busy
/// lanes); `peak()` is the high-water mark since the last reset.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    section: Section,
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge (usable as a `static` initializer).
    pub const fn new(name: &'static str, section: Section) -> Self {
        Gauge {
            name,
            section,
            value: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// The instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The snapshot section this gauge reports into.
    pub fn section(&self) -> Section {
        self.section
    }

    /// Raises the level by `n`, updating the peak. No-op while disabled.
    /// Callers pairing `add`/`sub` across an enable/disable edge must
    /// gate both on the same decision (see `BudgetLease` in core).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Lowers the level by `n` (saturating at zero). Unlike [`Self::add`]
    /// this is **not** gated on [`crate::enabled`]: the matching `add`
    /// already was, and a level raised while enabled must come back down
    /// even if recording stopped in between.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// The current level.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The high-water mark since the last reset.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Zeroes level and peak.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// Buckets of a [`Histogram`]: one for zero plus one per bit length, so
/// any `u64` lands without allocation or clamping.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index of `v`: `0` for zero, otherwise `v`'s bit length
/// (bucket `i` holds `[2^(i-1), 2^i)`; `u64::MAX` lands in bucket 64).
pub const fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive value range of bucket `i`.
#[cfg(test)]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A fixed-bucket log2 histogram with count and (wrapping) sum. Bucket
/// counts of a size histogram are scheduling-invariant and belong in
/// the deterministic section; duration histograms are wall-clock.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    section: Section,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// A zeroed histogram (usable as a `static` initializer).
    pub const fn new(name: &'static str, section: Section) -> Self {
        // Repeat-initializer for the bucket array; every bucket is its
        // own atomic, so the shared-const pitfall does not apply.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            section,
            count: ZERO,
            sum: ZERO,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// The instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The snapshot section this histogram reports into.
    pub fn section(&self) -> Section {
        self.section
    }

    /// Records one value. No-op while disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if crate::enabled() {
            self.record(v);
        }
    }

    /// Records unconditionally (callers that already checked the gate).
    #[inline]
    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Values recorded since the last reset.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A scoped timer over a duration histogram. [`Self::enter`] while
/// disabled returns an inert guard without touching the clock; while
/// enabled the guard records the elapsed nanoseconds on drop. The call
/// *count* of a span wired at a deterministic site (one enter per loop
/// step, per cell, …) is scheduling-invariant, so spans carry a flag
/// routing their count into the deterministic section while their
/// timings always stay wall-clock.
#[derive(Debug)]
pub struct PhaseSpan {
    hist: Histogram,
    deterministic_count: bool,
}

impl PhaseSpan {
    /// A span whose call count is scheduling-invariant.
    pub const fn new(name: &'static str) -> Self {
        PhaseSpan {
            hist: Histogram::new(name, Section::WallClock),
            deterministic_count: true,
        }
    }

    /// A span whose call count depends on scheduling (such as the CLI
    /// command wrapper): everything about it is wall-clock.
    pub const fn wall_clock(name: &'static str) -> Self {
        PhaseSpan {
            hist: Histogram::new(name, Section::WallClock),
            deterministic_count: false,
        }
    }

    /// The instrument name.
    pub fn name(&self) -> &'static str {
        self.hist.name()
    }

    /// Whether the call count reports into the deterministic section.
    pub fn deterministic_count(&self) -> bool {
        self.deterministic_count
    }

    /// Starts a scope; the returned guard records its elapsed time when
    /// dropped. Inert (no clock read) while disabled.
    #[inline]
    pub fn enter(&self) -> SpanGuard<'_> {
        SpanGuard {
            active: crate::enabled().then(|| (self, Instant::now())),
        }
    }

    /// Records an externally measured duration. No-op while disabled.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.hist.observe(ns);
    }

    /// Starts a manual timer that **always** measures wall time (the
    /// timing-footer API: callers need the number even with telemetry
    /// off) and records into the span only if enabled at stop.
    pub fn start_timer(&'static self) -> ManualTimer {
        ManualTimer {
            span: self,
            start: Instant::now(),
        }
    }

    /// Scopes entered since the last reset.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Total recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.hist.sum()
    }

    /// The count in duration bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.hist.bucket(i)
    }

    /// Zeroes the span.
    pub fn reset(&self) {
        self.hist.reset();
    }
}

/// The scope of one [`PhaseSpan::enter`]; records on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    active: Option<(&'a PhaseSpan, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((span, start)) = self.active.take() {
            // Cap at u64::MAX ns (~585 years); record() is fine with it.
            span.hist
                .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// An explicitly stopped timer (see [`PhaseSpan::start_timer`]).
#[derive(Debug)]
pub struct ManualTimer {
    span: &'static PhaseSpan,
    start: Instant,
}

impl ManualTimer {
    /// Stops the timer, records the duration if enabled, and returns the
    /// elapsed milliseconds.
    pub fn stop_ms(self) -> f64 {
        let elapsed = self.start.elapsed();
        self.span
            .record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
        elapsed.as_secs_f64() * 1e3
    }
}

/// Lanes tracked per [`LaneSet`]; higher lanes fold into the last slot.
pub const MAX_LANES: usize = 64;

/// Per-lane event tallies (pool occupancy: lane 0 is the calling
/// thread's stripe, lane `w + 1` is worker `w`). Wall-clock by nature.
#[derive(Debug)]
pub struct LaneSet {
    name: &'static str,
    lanes: [PaddedU64; MAX_LANES],
}

impl LaneSet {
    /// A zeroed lane set (usable as a `static` initializer).
    pub const fn new(name: &'static str) -> Self {
        LaneSet {
            name,
            lanes: [PaddedU64::ZERO; MAX_LANES],
        }
    }

    /// The instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events to `lane`. No-op while disabled.
    #[inline]
    pub fn record(&self, lane: usize, n: u64) {
        if crate::enabled() {
            self.lanes[lane.min(MAX_LANES - 1)]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The per-lane tallies, trailing zero lanes trimmed.
    pub fn counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self
            .lanes
            .iter()
            .map(|l| l.0.load(Ordering::Relaxed))
            .collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        counts
    }

    /// Zeroes every lane.
    pub fn reset(&self) {
        for l in &self.lanes {
            l.0.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_guard, Recorder};

    #[test]
    fn bucket_of_edge_cases() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 0));
        let mut expected_lo = 1u64;
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lower bound");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "bucket 64 must end at u64::MAX");
    }

    #[test]
    fn histogram_tallies_zero_and_max() {
        let _t = test_guard();
        Recorder::install();
        static H: Histogram = Histogram::new("test.h", Section::Deterministic);
        H.reset();
        H.observe(0);
        H.observe(0);
        H.observe(u64::MAX);
        H.observe(7);
        assert_eq!(H.count(), 4);
        assert_eq!(H.bucket(0), 2);
        assert_eq!(H.bucket(64), 1);
        assert_eq!(H.bucket(bucket_of(7)), 1);
        assert_eq!(H.sum(), u64::MAX.wrapping_add(7));
        Recorder::uninstall();
        Recorder::reset();
    }

    #[test]
    fn counter_sums_across_threads() {
        let _t = test_guard();
        Recorder::install();
        static C: Counter = Counter::new("test.c", Section::Deterministic);
        C.reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        C.incr();
                    }
                });
            }
        });
        assert_eq!(C.total(), 4000);
        Recorder::uninstall();
        Recorder::reset();
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let _t = test_guard();
        Recorder::install();
        static G: Gauge = Gauge::new("test.g", Section::WallClock);
        G.reset();
        G.add(3);
        G.add(2);
        G.sub(4);
        assert_eq!(G.value(), 1);
        assert_eq!(G.peak(), 5);
        G.sub(10);
        assert_eq!(G.value(), 0, "sub saturates at zero");
        Recorder::uninstall();
        Recorder::reset();
    }

    #[test]
    fn span_guard_records_only_when_enabled() {
        let _t = test_guard();
        static S: PhaseSpan = PhaseSpan::new("test.s");
        Recorder::reset();
        {
            let _g = S.enter();
        }
        assert_eq!(S.count(), 0, "disabled span recorded");
        Recorder::install();
        {
            let _g = S.enter();
        }
        assert_eq!(S.count(), 1);
        Recorder::uninstall();
        // Manual timers still measure with telemetry off, without
        // recording.
        let timer = S.start_timer();
        assert!(timer.stop_ms() >= 0.0);
        assert_eq!(S.count(), 1);
        Recorder::reset();
    }

    #[test]
    fn lane_set_trims_trailing_zero_lanes() {
        let _t = test_guard();
        Recorder::install();
        static L: LaneSet = LaneSet::new("test.l");
        L.reset();
        L.record(0, 2);
        L.record(3, 1);
        assert_eq!(L.counts(), vec![2, 0, 0, 1]);
        L.record(MAX_LANES + 5, 1);
        assert_eq!(
            L.counts().len(),
            MAX_LANES,
            "overflow lane folds into the last slot"
        );
        Recorder::uninstall();
        Recorder::reset();
    }
}
