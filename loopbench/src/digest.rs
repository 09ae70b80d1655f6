//! Output digests: 64-bit FNV-1a over the exact bits of loop records and
//! the bytes of rendered reports. A digest is compared within a run (every
//! iteration against the first, traced against untraced, sharded against
//! one lane) and printed, never pinned across commits.

use eqimpact_core::recorder::{LoopRecord, RecordPolicy};
use eqimpact_core::scenario::ScenarioReport;

/// An incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a string in, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds the exact bits of a slice of floats in.
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.u64(values.len() as u64);
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// Folds a loop record in: shape, every per-user channel of a full
    /// record, and the per-step action sums every policy keeps.
    pub fn record(&mut self, record: &LoopRecord) -> &mut Self {
        self.u64(record.user_count() as u64)
            .u64(record.steps() as u64);
        if record.policy() == RecordPolicy::Full {
            for k in 0..record.steps() {
                self.f64s(record.signals(k))
                    .f64s(record.actions(k))
                    .f64s(record.filtered(k));
            }
        }
        self.f64s(&record.aggregate_actions())
    }

    /// Folds a scenario report in: summary lines and every artifact.
    pub fn report(&mut self, report: &ScenarioReport) -> &mut Self {
        for line in &report.summary {
            self.str(line);
        }
        for artifact in &report.artifacts {
            self.str(&artifact.file).str(&artifact.contents);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
    }

    #[test]
    fn strings_are_length_prefixed() {
        let ab = Digest::default().str("ab").str("c").finish();
        let a_bc = Digest::default().str("a").str("bc").finish();
        assert_ne!(ab, a_bc);
    }
}
