//! Layer 3 of the certification plane: the verdict artifact.
//!
//! A [`CertificateReport`] is a first-class artifact: the JSON and text
//! renderings are byte-identical across runs and thread counts for a
//! fixed seed (the engine guarantees per-trace RNG streams depend only on
//! the seed and the trace's sorted index, and aggregation is sequential).

use crate::checks::{Check, Verdict};
use eqimpact_stats::{Json, ToJson};
use std::fmt::Write as _;

/// The certification of one trace: provenance plus the five checks.
#[derive(Debug, Clone)]
pub struct TraceCertificate {
    /// Display label of the trace (file stem or memory name).
    pub trace: String,
    /// Recorded loop variant.
    pub variant: String,
    /// Recorded trial index.
    pub trial: usize,
    /// Steps streamed from the trace.
    pub steps: usize,
    /// Users per step.
    pub users: usize,
    /// Occupied state bins.
    pub states: usize,
    /// Observed state transitions.
    pub transitions: u64,
    /// Model checkpoints consumed.
    pub checkpoints: usize,
    /// The analysis passes, in fixed order.
    pub checks: Vec<Check>,
}

impl ToJson for TraceCertificate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace", Json::Str(self.trace.clone())),
            ("variant", Json::Str(self.variant.clone())),
            ("trial", Json::Num(self.trial as f64)),
            ("steps", Json::Num(self.steps as f64)),
            ("users", Json::Num(self.users as f64)),
            ("states", Json::Num(self.states as f64)),
            ("transitions", Json::Num(self.transitions as f64)),
            ("checkpoints", Json::Num(self.checkpoints as f64)),
            (
                "checks",
                Json::Arr(self.checks.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }
}

/// The per-scenario certification verdict artifact.
#[derive(Debug, Clone)]
pub struct CertificateReport {
    /// Scenario name.
    pub scenario: String,
    /// Analysis seed the verdicts are reproducible under.
    pub seed: u64,
    /// Per-trace certificates, in sorted trace order.
    pub certificates: Vec<TraceCertificate>,
    /// Traces that failed to certify (I/O or decode errors), in sorted
    /// trace order.
    pub errors: Vec<String>,
    /// Per-check verdicts combined across all certified traces: any
    /// refutation refutes, any gap stays inconclusive.
    pub overall: Vec<(&'static str, Verdict)>,
}

impl CertificateReport {
    /// Combines the per-trace checks into the overall per-check verdicts
    /// (call after `certificates` is final).
    pub fn combine_overall(&mut self) {
        let mut overall: Vec<(&'static str, Verdict)> = Vec::new();
        for cert in &self.certificates {
            for check in &cert.checks {
                match overall.iter_mut().find(|(n, _)| *n == check.name) {
                    Some((_, v)) => *v = v.combine(check.verdict),
                    None => overall.push((check.name, check.verdict)),
                }
            }
        }
        self.overall = overall;
    }

    /// The JSON rendering of the artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("seed", self.seed.to_string().as_str().to_json()),
            ("traces", Json::Num(self.certificates.len() as f64)),
            (
                "overall",
                Json::Obj(
                    self.overall
                        .iter()
                        .map(|&(n, v)| (n.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "certificates",
                Json::Arr(self.certificates.iter().map(|c| c.to_json()).collect()),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
        ])
    }

    /// The aligned-text rendering of the artifact.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "certification: {} ({} trace{}, seed {})",
            self.scenario,
            self.certificates.len(),
            if self.certificates.len() == 1 {
                ""
            } else {
                "s"
            },
            self.seed
        );
        let _ = writeln!(out, "{:<22} {:>14}", "check", "overall");
        for &(name, verdict) in &self.overall {
            let _ = writeln!(out, "{:<22} {:>14}", name, verdict.label());
        }
        for cert in &self.certificates {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "trace {} (variant {}, trial {}): {} steps x {} users, {} states, {} transitions, {} checkpoints",
                cert.trace,
                cert.variant,
                cert.trial,
                cert.steps,
                cert.users,
                cert.states,
                cert.transitions,
                cert.checkpoints
            );
            for check in &cert.checks {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>14}  {}",
                    check.name,
                    check.verdict.label(),
                    check.detail
                );
                let mut line = String::from("    ");
                for (i, &(k, v)) in check.evidence.iter().enumerate() {
                    if i > 0 {
                        line.push_str("  ");
                    }
                    if v.is_nan() {
                        let _ = write!(line, "{k}=undefined");
                    } else {
                        let _ = write!(line, "{k}={v:.6}");
                    }
                }
                let _ = writeln!(out, "{line}");
            }
        }
        if !self.errors.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "errors:");
            for e in &self.errors {
                let _ = writeln!(out, "  {e}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CertificateReport {
        let check = |name: &'static str, verdict| Check {
            name,
            precondition: "p",
            verdict,
            evidence: vec![("alpha", 0.5), ("beta", f64::NAN)],
            detail: "d".to_string(),
        };
        let mut r = CertificateReport {
            scenario: "credit".to_string(),
            seed: 42,
            certificates: vec![
                TraceCertificate {
                    trace: "credit-000".to_string(),
                    variant: "scorecard".to_string(),
                    trial: 0,
                    steps: 6,
                    users: 90,
                    states: 4,
                    transitions: 450,
                    checkpoints: 6,
                    checks: vec![
                        check("primitivity", Verdict::Certified),
                        check("iss", Verdict::Certified),
                    ],
                },
                TraceCertificate {
                    trace: "credit-001".to_string(),
                    variant: "scorecard".to_string(),
                    trial: 1,
                    steps: 6,
                    users: 90,
                    states: 4,
                    transitions: 450,
                    checkpoints: 6,
                    checks: vec![
                        check("primitivity", Verdict::Inconclusive),
                        check("iss", Verdict::Certified),
                    ],
                },
            ],
            errors: Vec::new(),
            overall: Vec::new(),
        };
        r.combine_overall();
        r
    }

    #[test]
    fn overall_combines_across_traces_in_check_order() {
        let r = report();
        assert_eq!(
            r.overall,
            vec![
                ("primitivity", Verdict::Inconclusive),
                ("iss", Verdict::Certified),
            ]
        );
    }

    #[test]
    fn renderings_are_deterministic_and_show_undefined_evidence() {
        let mut r = report();
        // Above 2^53, where an f64 can no longer hold every u64.
        r.seed = (1 << 53) + 1;
        let j1 = r.to_json().render_pretty();
        let j2 = r.to_json().render_pretty();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"seed\": \"9007199254740993\""), "{j1}");
        assert!(j1.contains("\"beta\": null"), "{j1}");
        let t = r.render_text();
        assert_eq!(t, r.render_text());
        assert!(t.contains("beta=undefined"));
        assert!(t.contains("primitivity"));
        assert!(t.contains("inconclusive"));
    }
}
