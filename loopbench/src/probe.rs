//! Timing wrappers around the library's extension points. Each wrapper
//! forwards to the wrapped block unchanged and adds the call's duration
//! (or a count) to a shared [`Probe`], so a traced run executes the same
//! program as an untraced one — the fidelity tests compare their records
//! byte for byte.
//!
//! Wrappers that run on worker lanes (shards, batched scoring, sweep
//! cells) add into atomics, so busy times are summed over lanes.

use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{AiSystem, Feedback, FeedbackFilter, UserPopulation};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::StepSink;
use eqimpact_core::scenario::{TraceMeta, TraceSinkFactory};
use eqimpact_core::shard::{
    ColsMut, ColsView, PopulationShard, RowStreams, ShardableAi, ShardablePopulation,
};
use eqimpact_credit::{IncomeMultipleLender, ScorecardLender};
use eqimpact_hiring::{AdaptiveScreener, CredentialScreener};
use eqimpact_lab::{CandidateGrid, CandidateSpec, SweepEval, SweepTarget, TraceSource};
use eqimpact_stats::SimRng;
use eqimpact_trace::{TraceError, TraceHeader, TraceStepSink};
use std::io::Read;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Adds `v` to a statistic (no other data is published through it).
pub fn bump(counter: &AtomicU64, v: u64) {
    counter.fetch_add(v, Ordering::Relaxed);
}

/// Reads a statistic.
pub fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Runs `f`, adding its wall time in nanoseconds to `counter`.
pub fn timed<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    bump(counter, start.elapsed().as_nanos() as u64);
    out
}

/// Locks a collector; a poisoned lock only means another wrapper
/// panicked mid-push, and every push leaves the vector valid.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The counters one traced iteration fills. Times are nanoseconds.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    /// Busy time in `observe_into` / `observe_cols`, summed over lanes.
    pub observe_ns: AtomicU64,
    /// Busy time in `signals_into` / `signals_batch`, summed over lanes.
    pub signal_ns: AtomicU64,
    /// Busy time in `respond_into` / `respond_rows`, summed over lanes.
    pub respond_ns: AtomicU64,
    /// Busy time in the feedback filter.
    pub filter_ns: AtomicU64,
    /// Busy time in `retrain`.
    pub retrain_ns: AtomicU64,
    /// Wall time of whole loop runs (`run_with_sink`), summed over loops.
    pub loop_ns: AtomicU64,
    /// User rows observed.
    pub rows: AtomicU64,
    /// Loop steps run.
    pub steps: AtomicU64,
    /// `retrain` calls.
    pub retrains: AtomicU64,
    /// Model refits the learners report.
    pub fits: AtomicU64,
    /// Σ training-set rows over refits.
    pub rows_fit: AtomicU64,
    /// Σ IRLS iterations over refits.
    pub irls_iterations: AtomicU64,
    /// Σ rows × iterations over refits.
    pub row_iterations: AtomicU64,
    /// Time generating census populations.
    pub census_ns: AtomicU64,
    /// Time in the trace sink (encode + write + finish).
    pub encode_ns: AtomicU64,
    /// Encoded trace bytes.
    pub trace_bytes: AtomicU64,
    /// Trace bytes read back (replay, sweep, certify).
    pub bytes_read: AtomicU64,
    /// Per shard and step of a sharded loop: (step, start, end) of the
    /// shard's observe → respond sweep, nanoseconds since the epoch.
    spans: Mutex<Vec<(usize, u64, u64)>>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            epoch: Instant::now(),
            observe_ns: AtomicU64::new(0),
            signal_ns: AtomicU64::new(0),
            respond_ns: AtomicU64::new(0),
            filter_ns: AtomicU64::new(0),
            retrain_ns: AtomicU64::new(0),
            loop_ns: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
            fits: AtomicU64::new(0),
            rows_fit: AtomicU64::new(0),
            irls_iterations: AtomicU64::new(0),
            row_iterations: AtomicU64::new(0),
            census_ns: AtomicU64::new(0),
            encode_ns: AtomicU64::new(0),
            trace_bytes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Probe {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Σ over steps of the sharded sweep's span (first shard start to
    /// last shard end): the wall time the pool's lanes were leased for
    /// user sweeps. Zero when no sharded loop ran. Assumes at most one
    /// sharded loop per probe.
    pub fn sweep_span_ns(&self) -> u64 {
        let mut spans = lock(&self.spans).clone();
        spans.sort_unstable();
        let mut total = 0;
        let mut i = 0;
        while i < spans.len() {
            let step = spans[i].0;
            let (mut lo, mut hi) = (u64::MAX, 0);
            while i < spans.len() && spans[i].0 == step {
                lo = lo.min(spans[i].1);
                hi = hi.max(spans[i].2);
                i += 1;
            }
            total += hi - lo;
        }
        total
    }
}

/// What a learner reports after a retrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitState {
    /// Refits performed so far.
    pub refits: usize,
    /// Rows in the accumulated training set.
    pub training_size: usize,
    /// IRLS iterations of the current model.
    pub iterations: usize,
}

/// Read access to a learner's fit counters; AI blocks that never fit a
/// model keep the default.
pub trait Learner {
    /// The learner's counters, if it fits a model.
    fn fit_state(&self) -> Option<FitState> {
        None
    }
}

impl Learner for ScorecardLender {
    fn fit_state(&self) -> Option<FitState> {
        Some(FitState {
            refits: self.refits(),
            training_size: self.training_size(),
            iterations: self.model().map_or(0, |m| m.iterations),
        })
    }
}

impl Learner for AdaptiveScreener {
    fn fit_state(&self) -> Option<FitState> {
        Some(FitState {
            refits: self.refits(),
            training_size: self.training_size(),
            iterations: self.model().map_or(0, |m| m.iterations),
        })
    }
}

impl Learner for IncomeMultipleLender {}
impl Learner for CredentialScreener {}

/// A timed AI-system block.
pub struct TimedAi<A> {
    inner: A,
    probe: Arc<Probe>,
    seen_refits: usize,
}

impl<A> TimedAi<A> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: A, probe: Arc<Probe>) -> Self {
        TimedAi {
            inner,
            probe,
            seen_refits: 0,
        }
    }

    /// The wrapped block.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: AiSystem + Learner> AiSystem for TimedAi<A> {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        timed(&self.probe.signal_ns, || {
            self.inner.signals_into(k, visible, out)
        })
    }

    fn retrain(&mut self, k: usize, feedback: &Feedback) {
        timed(&self.probe.retrain_ns, || self.inner.retrain(k, feedback));
        bump(&self.probe.retrains, 1);
        if let Some(fit) = self.inner.fit_state() {
            if fit.refits > self.seen_refits {
                let (rows, iterations) = (fit.training_size as u64, fit.iterations as u64);
                bump(&self.probe.fits, (fit.refits - self.seen_refits) as u64);
                bump(&self.probe.rows_fit, rows);
                bump(&self.probe.irls_iterations, iterations);
                bump(&self.probe.row_iterations, rows * iterations);
                self.seen_refits = fit.refits;
            }
        }
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        self.inner.checkpoint_into(out)
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        self.inner.restore_checkpoint(checkpoint)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

impl<A: ShardableAi + Learner> ShardableAi for TimedAi<A> {
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        timed(&self.probe.signal_ns, || {
            self.inner.signals_batch(k, visible, out)
        })
    }
}

/// A timed user population (and, when shardable, timed shards).
pub struct TimedPop<P> {
    inner: P,
    probe: Arc<Probe>,
}

impl<P> TimedPop<P> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: P, probe: Arc<Probe>) -> Self {
        TimedPop { inner, probe }
    }
}

impl<P: UserPopulation> UserPopulation for TimedPop<P> {
    fn user_count(&self) -> usize {
        self.inner.user_count()
    }

    fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix) {
        timed(&self.probe.observe_ns, || {
            self.inner.observe_into(k, rng, out)
        });
        bump(&self.probe.rows, self.inner.user_count() as u64);
    }

    fn respond_into(&mut self, k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        timed(&self.probe.respond_ns, || {
            self.inner.respond_into(k, signals, rng, out)
        })
    }
}

impl<P: ShardablePopulation> ShardablePopulation for TimedPop<P> {
    type Shard = TimedShard<P::Shard>;

    fn feature_width(&self) -> usize {
        self.inner.feature_width()
    }

    fn into_row_shards(self, parts: usize) -> Vec<Self::Shard> {
        let probe = self.probe;
        self.inner
            .into_row_shards(parts)
            .into_iter()
            .map(|inner| TimedShard {
                inner,
                probe: Arc::clone(&probe),
                started: 0,
            })
            .collect()
    }

    fn from_row_shards(shards: Vec<Self::Shard>) -> Self {
        let probe = shards
            .first()
            .map_or_else(|| Arc::new(Probe::default()), |s| Arc::clone(&s.probe));
        let inner = P::from_row_shards(shards.into_iter().map(|s| s.inner).collect());
        TimedPop { inner, probe }
    }
}

/// One timed row shard: times its observe and respond calls and records
/// the span of its per-step sweep.
pub struct TimedShard<S> {
    inner: S,
    probe: Arc<Probe>,
    started: u64,
}

impl<S: PopulationShard> PopulationShard for TimedShard<S> {
    fn rows(&self) -> Range<usize> {
        self.inner.rows()
    }

    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        self.started = self.probe.now_ns();
        timed(&self.probe.observe_ns, || {
            self.inner.observe_cols(k, streams, out)
        });
        bump(&self.probe.rows, self.inner.rows().len() as u64);
    }

    fn respond_rows(&mut self, k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        timed(&self.probe.respond_ns, || {
            self.inner.respond_rows(k, signals, streams, out)
        });
        let end = self.probe.now_ns();
        lock(&self.probe.spans).push((k, self.started, end));
    }
}

/// A timed feedback filter.
pub struct TimedFilter<F> {
    inner: F,
    probe: Arc<Probe>,
}

impl<F> TimedFilter<F> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: F, probe: Arc<Probe>) -> Self {
        TimedFilter { inner, probe }
    }
}

impl<F: FeedbackFilter> FeedbackFilter for TimedFilter<F> {
    fn apply_into(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        timed(&self.probe.filter_ns, || {
            self.inner.apply_into(k, visible, signals, actions, out)
        })
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        self.inner.checkpoint_into(out)
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        self.inner.restore_checkpoint(checkpoint)
    }
}

/// Decision-round latency: the time between consecutive `on_step` calls
/// (the first round is timed from `on_groups`, which the trial functions
/// call just before the loop starts).
#[derive(Debug, Default)]
pub struct StepClock {
    last: Option<Instant>,
    /// One latency per timed round, milliseconds.
    pub samples_ms: Vec<f64>,
}

impl StepSink for StepClock {
    fn on_groups(&mut self, _labels: &[&str], _codes: &[u32]) {
        self.last = Some(Instant::now());
    }

    fn on_step(&mut self, _k: usize, _v: &FeatureMatrix, _s: &[f64], _a: &[f64], _f: &[f64]) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.samples_ms
                .push(now.duration_since(last).as_secs_f64() * 1e3);
        }
        self.last = Some(now);
    }
}

/// A sink timing every call of the sink it wraps (trace encoding).
pub struct TimedSink<K> {
    inner: K,
    probe: Arc<Probe>,
}

impl<K> TimedSink<K> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: K, probe: Arc<Probe>) -> Self {
        TimedSink { inner, probe }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> K {
        self.inner
    }
}

impl<K: StepSink> StepSink for TimedSink<K> {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        timed(&self.probe.encode_ns, || {
            self.inner.on_groups(labels, codes)
        })
    }

    fn on_step(&mut self, k: usize, v: &FeatureMatrix, s: &[f64], a: &[f64], f: &[f64]) {
        timed(&self.probe.encode_ns, || self.inner.on_step(k, v, s, a, f))
    }

    fn wants_checkpoints(&self) -> bool {
        self.inner.wants_checkpoints()
    }

    fn on_checkpoint(&mut self, k: usize, checkpoint: &ModelCheckpoint) {
        timed(&self.probe.encode_ns, || {
            self.inner.on_checkpoint(k, checkpoint)
        })
    }
}

/// What a [`MemFactory`]'s sinks hand back when they are dropped.
#[derive(Default)]
struct Collected {
    samples_ms: Mutex<Vec<f64>>,
    traces: Mutex<Vec<(String, Vec<u8>)>>,
    errors: Mutex<Vec<String>>,
}

/// A [`TraceSinkFactory`] for `run_scenario` that times every loop's
/// decision rounds and, when `record` is set, records each loop into an
/// in-memory checkpointed trace.
pub struct MemFactory {
    record: bool,
    collected: Arc<Collected>,
}

impl MemFactory {
    /// A factory; `record` selects trace recording on top of timing.
    pub fn new(record: bool) -> Arc<Self> {
        Arc::new(MemFactory {
            record,
            collected: Arc::new(Collected::default()),
        })
    }

    /// Every round latency timed so far, milliseconds.
    pub fn take_samples(&self) -> Vec<f64> {
        std::mem::take(&mut lock(&self.collected.samples_ms))
    }

    /// Every finished trace, sorted by name (loops finish on worker
    /// threads in any order).
    pub fn take_traces(&self) -> Vec<(String, Vec<u8>)> {
        let mut traces = std::mem::take(&mut *lock(&self.collected.traces));
        traces.sort_by(|a, b| a.0.cmp(&b.0));
        traces
    }
}

/// The trace name of a recorded loop.
pub fn trace_name(meta: &TraceMeta) -> String {
    format!("{}-{}-trial{}", meta.scenario, meta.variant, meta.trial)
}

/// The checkpointed header a recorded loop's trace starts with.
pub fn trace_header(meta: &TraceMeta) -> TraceHeader {
    TraceHeader::from_meta(meta).with_checkpoints()
}

struct MemSink {
    name: String,
    trace: Option<TraceStepSink<Vec<u8>>>,
    clock: StepClock,
    collected: Arc<Collected>,
}

impl StepSink for MemSink {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        if let Some(trace) = self.trace.as_mut() {
            trace.on_groups(labels, codes);
        }
        self.clock.on_groups(labels, codes);
    }

    fn on_step(&mut self, k: usize, v: &FeatureMatrix, s: &[f64], a: &[f64], f: &[f64]) {
        if let Some(trace) = self.trace.as_mut() {
            trace.on_step(k, v, s, a, f);
        }
        self.clock.on_step(k, v, s, a, f);
    }

    fn wants_checkpoints(&self) -> bool {
        self.trace.as_ref().is_some_and(|t| t.wants_checkpoints())
    }

    fn on_checkpoint(&mut self, k: usize, checkpoint: &ModelCheckpoint) {
        if let Some(trace) = self.trace.as_mut() {
            trace.on_checkpoint(k, checkpoint);
        }
    }
}

impl Drop for MemSink {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        lock(&self.collected.samples_ms).append(&mut self.clock.samples_ms);
        if let Some(trace) = self.trace.take() {
            match trace.finish() {
                Ok(bytes) => {
                    lock(&self.collected.traces).push((std::mem::take(&mut self.name), bytes))
                }
                Err(e) => lock(&self.collected.errors).push(format!("{}: {e}", self.name)),
            }
        }
    }
}

impl TraceSinkFactory for MemFactory {
    fn sink(&self, meta: &TraceMeta) -> Box<dyn StepSink + Send> {
        let name = trace_name(meta);
        let trace = if self.record {
            match TraceStepSink::new(Vec::new(), &trace_header(meta)) {
                Ok(sink) => Some(sink),
                Err(e) => {
                    lock(&self.collected.errors).push(format!("{name}: {e}"));
                    None
                }
            }
        } else {
            None
        };
        Box::new(MemSink {
            name,
            trace,
            clock: StepClock::default(),
            collected: Arc::clone(&self.collected),
        })
    }

    fn take_errors(&self) -> Vec<String> {
        std::mem::take(&mut lock(&self.collected.errors))
    }
}

/// A reader counting the bytes it hands out.
pub struct CountingRead<'a, R> {
    inner: R,
    count: &'a AtomicU64,
}

impl<'a, R> CountingRead<'a, R> {
    /// Counts `inner`'s bytes into `count`.
    pub fn new(inner: R, count: &'a AtomicU64) -> Self {
        CountingRead { inner, count }
    }
}

impl<R: Read> Read for CountingRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        bump(self.count, n as u64);
        Ok(n)
    }
}

/// A trace source whose readers count the bytes they deliver.
pub struct CountingSource<'a, T> {
    inner: &'a T,
    count: &'a AtomicU64,
}

impl<'a, T> CountingSource<'a, T> {
    /// Counts every reader `inner` opens into `count`.
    pub fn new(inner: &'a T, count: &'a AtomicU64) -> Self {
        CountingSource { inner, count }
    }
}

impl<T: TraceSource> TraceSource for CountingSource<'_, T> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn open(&self) -> std::io::Result<Box<dyn Read + '_>> {
        Ok(Box::new(CountingRead::new(self.inner.open()?, self.count)))
    }
}

/// A sweep target timing each cell's `evaluate`.
pub struct TimedSweep<'a> {
    inner: &'a dyn SweepTarget,
    cells_ns: Mutex<Vec<u64>>,
}

impl<'a> TimedSweep<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn SweepTarget) -> Self {
        TimedSweep {
            inner,
            cells_ns: Mutex::new(Vec::new()),
        }
    }

    /// Every cell's busy time, nanoseconds, in completion order.
    pub fn take_cells(&self) -> Vec<u64> {
        std::mem::take(&mut lock(&self.cells_ns))
    }
}

impl SweepTarget for TimedSweep<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn default_grid(&self) -> CandidateGrid {
        self.inner.default_grid()
    }

    fn known_policies(&self) -> &'static [&'static str] {
        self.inner.known_policies()
    }

    fn known_filters(&self) -> &'static [&'static str] {
        self.inner.known_filters()
    }

    fn evaluate(
        &self,
        input: &mut dyn Read,
        candidate: &CandidateSpec,
    ) -> Result<SweepEval, TraceError> {
        let start = Instant::now();
        let out = self.inner.evaluate(input, candidate);
        lock(&self.cells_ns).push(start.elapsed().as_nanos() as u64);
        out
    }
}
