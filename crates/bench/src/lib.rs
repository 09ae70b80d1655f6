//! Experiment harness: one function per ablation (A1 policy comparison,
//! A2 integral-action ergodicity loss, A3 Markov-system attractivity, A4
//! feedback delay, A5 filter choice) and the Table I extraction that the
//! `table1_scorecard` bench checks — plus the static scenario
//! [`registry`] the `experiments` binary is driven by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod registry;

pub use experiments::*;
