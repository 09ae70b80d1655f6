//! The certification engine: fans per-trace extraction + analysis cells
//! out as one [`run_indexed`] batch on the [`ThreadBudget`], with the
//! same determinism contract as the sweep engine — one budget lease for
//! the whole batch, per-cell RNG derived only from `(seed, cell index)`,
//! panics caught per cell, and sequential index-ordered aggregation. The
//! report is byte-identical at any thread count.

use crate::checks::analyze_extraction;
use crate::extract::{extract, Extraction};
use crate::report::{CertificateReport, TraceCertificate};
use crate::CertifyTarget;
use eqimpact_core::pool::{run_indexed, ThreadBudget};
use eqimpact_lab::sweep::TraceSource;
use eqimpact_stats::SimRng;
use eqimpact_telemetry::metrics as tm;
use std::fmt;

/// Tunables of a certification run.
#[derive(Debug, Clone)]
pub struct CertifyConfig {
    /// Base seed; every random sweep in the analysis derives from it.
    pub seed: u64,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig { seed: 42 }
    }
}

/// Errors from a certification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// No traces were provided.
    NoTraces,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::NoTraces => write!(f, "no traces to certify"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Extracts and analyzes one trace, producing its certificate. The `rng`
/// must derive only from `(seed, trace index)` for report determinism.
pub fn certify_trace(
    target: &dyn CertifyTarget,
    trace: &dyn TraceSource,
    config: &CertifyConfig,
    rng: &SimRng,
) -> Result<TraceCertificate, String> {
    let spec = target.spec();
    let mut reader = trace
        .open()
        .map_err(|e| format!("{}: {e}", trace.label()))?;
    let ex = extract(&spec, reader.as_mut()).map_err(|e| format!("{}: {e}", trace.label()))?;
    Ok(certificate_of(trace.label(), &ex, config, rng))
}

/// Analyzes an already-extracted structure into a certificate (the split
/// entry point the perf harness times separately from extraction). Every
/// knob of the analysis is a constant and `rng` derives from the run's
/// seed, so nothing of `_config` is read.
pub fn certificate_of(
    label: &str,
    ex: &Extraction,
    _config: &CertifyConfig,
    rng: &SimRng,
) -> TraceCertificate {
    let checks = analyze_extraction(ex, rng);
    TraceCertificate {
        trace: label.to_string(),
        variant: ex.header.variant.clone(),
        trial: ex.header.trial,
        steps: ex.steps,
        users: ex.users,
        states: ex.occupied_states(),
        transitions: ex.transition_count(),
        checkpoints: ex.checkpoints.len(),
        checks,
    }
}

/// Runs the certification: every trace becomes one cell of a
/// [`run_indexed`] batch, the cells share one [`ThreadBudget`] lease, and
/// the certificates aggregate in trace order. See the module docs for
/// the determinism contract.
pub fn run_certification(
    target: &dyn CertifyTarget,
    traces: &[&dyn TraceSource],
    config: &CertifyConfig,
    budget: &ThreadBudget,
) -> Result<CertificateReport, CertifyError> {
    if traces.is_empty() {
        return Err(CertifyError::NoTraces);
    }
    // One batch under one lease: at most one lane per trace.
    eqimpact_telemetry::progress::add_goal(traces.len() as u64);
    let outcomes = run_indexed(budget, traces.len(), |index| {
        let rng = SimRng::new(config.seed).split(index as u64);
        let _cell = tm::CERTIFY_CELLS.enter();
        certify_trace(target, traces[index], config, &rng)
    });

    let mut report = CertificateReport {
        scenario: target.name().to_string(),
        seed: config.seed,
        certificates: Vec::new(),
        errors: Vec::new(),
        overall: Vec::new(),
    };
    for (trace, outcome) in traces.iter().zip(outcomes) {
        match outcome {
            Ok(Ok(cert)) => report.certificates.push(cert),
            Ok(Err(e)) => report.errors.push(e),
            Err(panic) => report.errors.push(format!(
                "{}: certification panicked: {panic}",
                trace.label()
            )),
        }
    }
    tm::CERTIFY_CELL_ERRORS.add(report.errors.len() as u64);
    report.combine_overall();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractionSpec;
    use eqimpact_lab::sweep::MemTrace;

    struct Synthetic;

    impl CertifyTarget for Synthetic {
        fn name(&self) -> &'static str {
            "synthetic"
        }
        fn spec(&self) -> ExtractionSpec {
            ExtractionSpec {
                state_lo: 0.0,
                state_hi: 1.0,
                bins: 4,
                threshold: 0.0,
                model_fields: &["model.w"],
                sampled_trajectories: 2,
            }
        }
    }

    fn trace_bytes(seed: u64) -> Vec<u8> {
        use eqimpact_core::checkpoint::ModelCheckpoint;
        use eqimpact_core::recorder::RecordPolicy;
        use eqimpact_core::scenario::{Scale, TraceMeta};
        use eqimpact_core::FeatureMatrix;
        use eqimpact_trace::{TraceHeader, TraceWriter};

        let header = TraceHeader::from_meta(&TraceMeta {
            scenario: "synthetic".to_string(),
            variant: "mixing".to_string(),
            trial: seed as usize,
            scale: Scale::Quick,
            seed,
            shards: 1,
            delay: 0,
            policy: RecordPolicy::Full,
        })
        .with_checkpoints();
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf, &header).unwrap();
        let mut rng = SimRng::new(seed);
        let users = 30usize;
        let mut state: Vec<f64> = (0..users).map(|_| rng.uniform()).collect();
        let mut w = vec![0.3f64, 0.1];
        for step in 0..40usize {
            for x in &mut state {
                *x = (0.5 + 0.6 * (*x - 0.5) + 0.35 * (rng.uniform() - 0.5)).clamp(0.0, 1.0);
            }
            let signals: Vec<f64> = state.iter().map(|&x| x - 0.5).collect();
            let actions: Vec<f64> = state.iter().map(|&x| 0.5 - x).collect();
            let visible = FeatureMatrix::from_nested(&vec![vec![0.0]; users]);
            writer
                .write_step(&visible, &signals, &actions, &state)
                .unwrap();
            for wi in &mut w {
                *wi = 0.8 * *wi + 0.01;
            }
            let mut cp = ModelCheckpoint::new();
            cp.reset(step);
            cp.push_field("model.w", &w);
            writer.write_checkpoint(&cp).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    #[test]
    fn no_traces_is_an_error() {
        let budget = ThreadBudget::new(1);
        let err = run_certification(&Synthetic, &[], &CertifyConfig::default(), &budget);
        assert_eq!(err.unwrap_err(), CertifyError::NoTraces);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let t0 = MemTrace::new("synthetic-000", trace_bytes(3));
        let t1 = MemTrace::new("synthetic-001", trace_bytes(4));
        let t2 = MemTrace::new("synthetic-002", trace_bytes(5));
        let traces: Vec<&dyn TraceSource> = vec![&t0, &t1, &t2];
        let config = CertifyConfig::default();
        let serial_budget = ThreadBudget::new(1);
        let parallel_budget = ThreadBudget::new(4);
        let serial = run_certification(&Synthetic, &traces, &config, &serial_budget).unwrap();
        let parallel = run_certification(&Synthetic, &traces, &config, &parallel_budget).unwrap();
        assert_eq!(
            serial.to_json().render_pretty(),
            parallel.to_json().render_pretty()
        );
        assert_eq!(serial.render_text(), parallel.render_text());
        assert_eq!(serial.certificates.len(), 3);
        assert!(serial.errors.is_empty());
        assert_eq!(serial.overall.len(), 5);
    }

    #[test]
    fn corrupt_traces_become_errors_not_panics() {
        let good = MemTrace::new("synthetic-000", trace_bytes(3));
        let bad = MemTrace::new("synthetic-001", vec![0u8; 16]);
        let traces: Vec<&dyn TraceSource> = vec![&good, &bad];
        let budget = ThreadBudget::new(2);
        let report =
            run_certification(&Synthetic, &traces, &CertifyConfig::default(), &budget).unwrap();
        assert_eq!(report.certificates.len(), 1);
        assert_eq!(report.errors.len(), 1);
        assert!(
            report.errors[0].contains("synthetic-001"),
            "{:?}",
            report.errors
        );
    }
}
