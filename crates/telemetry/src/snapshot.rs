//! Point-in-time capture and rendering of the [`crate::metrics`]
//! catalog. The JSON render is split into a `"deterministic"` object —
//! integers only, emitted in fixed catalog order, so its bytes are
//! identical across runs and thread counts for a deterministic workload
//! — and a `"wall_clock"` object carrying everything timing- or
//! scheduling-dependent.

use crate::instruments::{Section, HISTOGRAM_BUCKETS};
use crate::metrics;

/// One counter's captured state.
#[derive(Debug, Clone)]
pub struct CounterSnap {
    /// Instrument name.
    pub name: &'static str,
    /// Snapshot section.
    pub section: Section,
    /// Summed tally.
    pub total: u64,
}

/// One gauge's captured state.
#[derive(Debug, Clone)]
pub struct GaugeSnap {
    /// Instrument name.
    pub name: &'static str,
    /// Snapshot section.
    pub section: Section,
    /// Current level.
    pub value: u64,
    /// High-water mark.
    pub peak: u64,
}

/// One histogram's captured state.
#[derive(Debug, Clone)]
pub struct HistogramSnap {
    /// Instrument name.
    pub name: &'static str,
    /// Snapshot section.
    pub section: Section,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Non-empty buckets as `(bucket index, count)` in index order.
    pub buckets: Vec<(usize, u64)>,
}

/// One phase span's captured state.
#[derive(Debug, Clone)]
pub struct SpanSnap {
    /// Instrument name.
    pub name: &'static str,
    /// Whether the call count reports into the deterministic section.
    pub deterministic_count: bool,
    /// Scopes recorded.
    pub count: u64,
    /// Total recorded nanoseconds.
    pub total_ns: u64,
    /// Non-empty duration buckets as `(bucket index, count)`.
    pub buckets: Vec<(usize, u64)>,
}

/// One lane set's captured state.
#[derive(Debug, Clone)]
pub struct LaneSnap {
    /// Instrument name.
    pub name: &'static str,
    /// Per-lane tallies, trailing zeros trimmed.
    pub lanes: Vec<u64>,
}

/// A captured catalog, ready to render (see the module docs).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Counters in catalog order.
    pub counters: Vec<CounterSnap>,
    /// Gauges in catalog order.
    pub gauges: Vec<GaugeSnap>,
    /// Histograms in catalog order.
    pub histograms: Vec<HistogramSnap>,
    /// Spans in catalog order.
    pub spans: Vec<SpanSnap>,
    /// Lane sets in catalog order.
    pub lanes: Vec<LaneSnap>,
}

fn nonzero_buckets(bucket: impl Fn(usize) -> u64) -> Vec<(usize, u64)> {
    (0..HISTOGRAM_BUCKETS)
        .filter_map(|i| {
            let c = bucket(i);
            (c > 0).then_some((i, c))
        })
        .collect()
}

impl TelemetrySnapshot {
    /// Captures the current state of every instrument in the catalog.
    /// Works whether or not a recorder is installed (an idle catalog
    /// snapshots as all zeros).
    pub fn capture() -> Self {
        TelemetrySnapshot {
            counters: metrics::COUNTERS
                .iter()
                .map(|c| CounterSnap {
                    name: c.name(),
                    section: c.section(),
                    total: c.total(),
                })
                .collect(),
            gauges: metrics::GAUGES
                .iter()
                .map(|g| GaugeSnap {
                    name: g.name(),
                    section: g.section(),
                    value: g.value(),
                    peak: g.peak(),
                })
                .collect(),
            histograms: metrics::HISTOGRAMS
                .iter()
                .map(|h| HistogramSnap {
                    name: h.name(),
                    section: h.section(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets: nonzero_buckets(|i| h.bucket(i)),
                })
                .collect(),
            spans: metrics::SPANS
                .iter()
                .map(|s| SpanSnap {
                    name: s.name(),
                    deterministic_count: s.deterministic_count(),
                    count: s.count(),
                    total_ns: s.total_ns(),
                    buckets: nonzero_buckets(|i| s.bucket(i)),
                })
                .collect(),
            lanes: metrics::LANE_SETS
                .iter()
                .map(|l| LaneSnap {
                    name: l.name(),
                    lanes: l.counts(),
                })
                .collect(),
        }
    }

    /// The deterministic section alone, as JSON. These bytes are the
    /// comparison key of the determinism contract: identical across runs
    /// and `--threads` values for a deterministic workload (integers
    /// only, fixed catalog order).
    // analyze::allow(R8): tests/telemetry_identity.rs compares and pins deterministic sections through it
    pub fn deterministic_json(&self) -> String {
        let mut out = String::new();
        self.render_deterministic(&mut out, "");
        out
    }

    /// The full snapshot as JSON: `{"deterministic": …, "wall_clock": …}`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"deterministic\": ");
        self.render_deterministic(&mut out, "  ");
        out.push_str(",\n  \"wall_clock\": ");
        self.render_wall_clock(&mut out, "  ");
        out.push_str("\n}\n");
        out
    }

    fn render_deterministic(&self, out: &mut String, base: &str) {
        out.push_str("{\n");
        out.push_str(&format!("{base}  \"counters\": {{\n"));
        let det_counters: Vec<_> = self
            .counters
            .iter()
            .filter(|c| c.section == Section::Deterministic)
            .collect();
        for (i, c) in det_counters.iter().enumerate() {
            let comma = if i + 1 < det_counters.len() { "," } else { "" };
            out.push_str(&format!("{base}    \"{}\": {}{comma}\n", c.name, c.total));
        }
        out.push_str(&format!("{base}  }},\n"));
        out.push_str(&format!("{base}  \"spans\": {{\n"));
        let det_spans: Vec<_> = self
            .spans
            .iter()
            .filter(|s| s.deterministic_count)
            .collect();
        for (i, s) in det_spans.iter().enumerate() {
            let comma = if i + 1 < det_spans.len() { "," } else { "" };
            out.push_str(&format!("{base}    \"{}\": {}{comma}\n", s.name, s.count));
        }
        out.push_str(&format!("{base}  }},\n"));
        out.push_str(&format!("{base}  \"histograms\": {{\n"));
        let det_hists: Vec<_> = self
            .histograms
            .iter()
            .filter(|h| h.section == Section::Deterministic)
            .collect();
        for (i, h) in det_hists.iter().enumerate() {
            let comma = if i + 1 < det_hists.len() { "," } else { "" };
            out.push_str(&format!(
                "{base}    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": {}}}{comma}\n",
                h.name,
                h.count,
                h.sum,
                render_buckets(&h.buckets)
            ));
        }
        out.push_str(&format!("{base}  }}\n"));
        out.push_str(&format!("{base}}}"));
    }

    fn render_wall_clock(&self, out: &mut String, base: &str) {
        out.push_str("{\n");
        out.push_str(&format!("{base}  \"counters\": {{\n"));
        let wall_counters: Vec<_> = self
            .counters
            .iter()
            .filter(|c| c.section == Section::WallClock)
            .collect();
        for (i, c) in wall_counters.iter().enumerate() {
            let comma = if i + 1 < wall_counters.len() { "," } else { "" };
            out.push_str(&format!("{base}    \"{}\": {}{comma}\n", c.name, c.total));
        }
        out.push_str(&format!("{base}  }},\n"));
        out.push_str(&format!("{base}  \"gauges\": {{\n"));
        for (i, g) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            out.push_str(&format!(
                "{base}    \"{}\": {{\"value\": {}, \"peak\": {}}}{comma}\n",
                g.name, g.value, g.peak
            ));
        }
        out.push_str(&format!("{base}  }},\n"));
        out.push_str(&format!("{base}  \"spans\": {{\n"));
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let mean_ns = s.total_ns.checked_div(s.count).unwrap_or(0);
            out.push_str(&format!(
                "{base}    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \
                 \"buckets\": {}}}{comma}\n",
                s.name,
                s.count,
                s.total_ns,
                mean_ns,
                render_buckets(&s.buckets)
            ));
        }
        out.push_str(&format!("{base}  }},\n"));
        out.push_str(&format!("{base}  \"lanes\": {{\n"));
        for (i, l) in self.lanes.iter().enumerate() {
            let comma = if i + 1 < self.lanes.len() { "," } else { "" };
            let lanes: Vec<String> = l.lanes.iter().map(|v| v.to_string()).collect();
            out.push_str(&format!(
                "{base}    \"{}\": [{}]{comma}\n",
                l.name,
                lanes.join(", ")
            ));
        }
        out.push_str(&format!("{base}  }}\n"));
        out.push_str(&format!("{base}}}"));
    }
}

fn render_buckets(buckets: &[(usize, u64)]) -> String {
    let pairs: Vec<String> = buckets.iter().map(|(i, c)| format!("[{i}, {c}]")).collect();
    format!("[{}]", pairs.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, test_guard, Recorder};

    #[test]
    fn deterministic_json_is_stable_and_integer_only() {
        let _t = test_guard();
        Recorder::install();
        metrics::LOOP_STEPS.add(10);
        metrics::TRACE_FRAMES_WRITTEN.add(3);
        metrics::TRACE_FRAME_BYTES.observe(100);
        metrics::LOOP_OBSERVE.record_ns(1234);
        let a = TelemetrySnapshot::capture();
        let b = TelemetrySnapshot::capture();
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert!(a.deterministic_json().contains("\"loop.steps\": 10"));
        assert!(a.deterministic_json().contains("\"loop.observe\": 1"));
        assert!(
            !a.deterministic_json().contains('.') || !a.deterministic_json().contains("_ns"),
            "no timing fields may leak into the deterministic section"
        );
        // The wall-clock side carries the span's timing, not the
        // deterministic side.
        assert!(!a.deterministic_json().contains("total_ns"));
        assert!(a.render_json().contains("total_ns"));
        Recorder::uninstall();
        Recorder::reset();
    }
}
