//! The bridge from the core scenario machinery to trace files on disk.
//!
//! [`TraceDirFactory`] implements [`TraceSinkFactory`]: attach one to a
//! [`ScenarioConfig`](eqimpact_core::ScenarioConfig) and every loop of
//! every trial streams into `<dir>/<scenario>-<variant>-trial<t>.eqtrace`.
//! Trials run on worker threads, so sinks are self-contained; I/O
//! failures never panic a trial — they are collected in the factory and
//! surfaced by `run_scenario` as a single `ScenarioError::Trace`.

use crate::store::{TraceHeader, TraceWriter};
use crate::TraceError;
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::StepSink;
use eqimpact_core::scenario::{TraceMeta, TraceSinkFactory};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A [`StepSink`] writing one trace stream through a [`TraceWriter`].
/// The first error latches: subsequent steps are dropped and the error
/// is reported by [`Self::finish`] (or forwarded to a shared collector
/// by the owning factory's sink on drop).
pub struct TraceStepSink<W: Write> {
    writer: Option<TraceWriter<W>>,
    error: Option<TraceError>,
    checkpoints: bool,
}

impl<W: Write> TraceStepSink<W> {
    /// Starts a trace stream on `out` (writes the header immediately).
    /// When the header was built [`TraceHeader::with_checkpoints`], the
    /// sink asks the runners for per-retrain model checkpoints and
    /// writes them as checkpoint frames.
    pub fn new(out: W, header: &TraceHeader) -> Result<Self, TraceError> {
        Ok(TraceStepSink {
            writer: Some(TraceWriter::new(out, header)?),
            error: None,
            checkpoints: header.checkpoints,
        })
    }

    /// Writes the footer and returns the underlying writer, or the first
    /// error hit anywhere in the stream.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        match self.writer.take() {
            Some(writer) => writer.finish(),
            None => unreachable!("writer present whenever no error latched"),
        }
    }

    fn latch<T>(&mut self, result: Result<T, TraceError>) {
        if let Err(e) = result {
            self.error = Some(e);
            self.writer = None;
        }
    }
}

impl<W: Write> StepSink for TraceStepSink<W> {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        if let Some(writer) = self.writer.as_mut() {
            let result = writer.write_groups(labels, codes);
            self.latch(result);
        }
    }

    fn on_step(
        &mut self,
        _k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        if let Some(writer) = self.writer.as_mut() {
            let result = writer.write_step(visible, signals, actions, filtered);
            self.latch(result);
        }
    }

    fn wants_checkpoints(&self) -> bool {
        self.checkpoints
    }

    fn on_checkpoint(&mut self, _k: usize, checkpoint: &eqimpact_core::ModelCheckpoint) {
        if let Some(writer) = self.writer.as_mut() {
            let result = writer.write_checkpoint(checkpoint);
            self.latch(result);
        }
    }
}

/// The directory-backed sink factory behind `experiments record`: one
/// `.eqtrace` file per recorded loop, named
/// `<scenario>-<variant>-trial<t>.eqtrace`, each carrying per-retrain
/// model checkpoints (format version 2) for fast replay.
pub struct TraceDirFactory {
    dir: PathBuf,
    errors: Arc<Mutex<Vec<String>>>,
    written: Arc<Mutex<Vec<PathBuf>>>,
}

impl TraceDirFactory {
    /// Creates the output directory (so unwritable destinations fail
    /// up front, before any trial runs) and returns the factory.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Arc<Self>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(TraceDirFactory {
            dir,
            errors: Arc::new(Mutex::new(Vec::new())),
            written: Arc::new(Mutex::new(Vec::new())),
        }))
    }

    /// The file name a loop's trace is stored under.
    pub fn file_name(meta: &TraceMeta) -> String {
        format!(
            "{}-{}-trial{}.eqtrace",
            meta.scenario, meta.variant, meta.trial
        )
    }

    /// Every trace file successfully finished so far, sorted by path
    /// (trials complete on worker threads in nondeterministic order, so
    /// the sort is what keeps `experiments record` output stable).
    pub fn written(&self) -> Vec<PathBuf> {
        let mut paths = self
            .written
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        paths.sort();
        paths
    }
}

/// The per-loop sink handed out by [`TraceDirFactory`]: a
/// [`TraceStepSink`] over a buffered file, finishing (footer + flush) on
/// drop and reporting any failure into the factory's collector.
struct DirSink {
    sink: Option<TraceStepSink<BufWriter<std::fs::File>>>,
    path: PathBuf,
    errors: Arc<Mutex<Vec<String>>>,
    written: Arc<Mutex<Vec<PathBuf>>>,
}

impl StepSink for DirSink {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        if let Some(sink) = self.sink.as_mut() {
            sink.on_groups(labels, codes);
        }
    }

    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        if let Some(sink) = self.sink.as_mut() {
            sink.on_step(k, visible, signals, actions, filtered);
        }
    }

    fn wants_checkpoints(&self) -> bool {
        self.sink
            .as_ref()
            .is_some_and(|sink| sink.wants_checkpoints())
    }

    fn on_checkpoint(&mut self, k: usize, checkpoint: &eqimpact_core::ModelCheckpoint) {
        if let Some(sink) = self.sink.as_mut() {
            sink.on_checkpoint(k, checkpoint);
        }
    }
}

impl Drop for DirSink {
    fn drop(&mut self) {
        // A drop during panic unwinding (a trial crashed mid-loop) must
        // NOT write the footer: that would turn a partial recording
        // into a complete-looking short trace. Left footerless, the
        // file replays as the named `Truncated` error instead.
        if std::thread::panicking() {
            return;
        }
        if let Some(sink) = self.sink.take() {
            match sink.finish() {
                Ok(_) => self
                    .written
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(self.path.clone()),
                Err(e) => self
                    .errors
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(format!("{}: {e}", self.path.display())),
            }
        }
    }
}

impl TraceSinkFactory for TraceDirFactory {
    fn sink(&self, meta: &TraceMeta) -> Box<dyn StepSink + Send> {
        let path = self.dir.join(Self::file_name(meta));
        let header = TraceHeader::from_meta(meta).with_checkpoints();
        let open = std::fs::File::create(&path)
            .map_err(TraceError::Io)
            .and_then(|file| TraceStepSink::new(BufWriter::new(file), &header));
        match open {
            Ok(sink) => Box::new(DirSink {
                sink: Some(sink),
                path,
                errors: Arc::clone(&self.errors),
                written: Arc::clone(&self.written),
            }),
            Err(e) => {
                self.errors
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(format!("{}: {e}", path.display()));
                Box::new(())
            }
        }
    }

    fn take_errors(&self) -> Vec<String> {
        std::mem::take(&mut self.errors.lock().unwrap_or_else(|e| e.into_inner()))
    }
}
