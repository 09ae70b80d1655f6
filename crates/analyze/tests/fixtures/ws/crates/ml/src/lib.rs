//! Fixture: float-fold hot path (R6) and waiver hygiene (R0).
#![forbid(unsafe_code)]

pub mod logistic;
pub use logistic::reexported;
