//! Fixture: reassociating float folds (R6) plus the waiver spectrum (R0).
//! A `.sum::<f64>()` named in this doc comment must not fire.

pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()
}

pub fn total(v: &[f64]) -> f64 {
    // analyze::allow(R6): fixture demonstrates a waived fold
    v.iter().sum::<f64>()
}

pub fn stale() -> f64 {
    // analyze::allow(R6): nothing to waive on this line
    0.0
}

pub fn unknown() -> f64 {
    // analyze::allow(R9): no such rule
    0.0
}

pub fn reasonless(v: &[f64]) -> f64 {
    // analyze::allow(R6)
    v.iter().fold(0.0, |a, x| a + x)
}

pub fn reexported() -> f64 {
    0.0
}
