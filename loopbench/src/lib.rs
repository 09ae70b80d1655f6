//! The closed-loop benchmark: three workloads driven through the
//! `eqimpact` library's public API, with per-layer timings taken by
//! wrappers that live here, outside the program.
//!
//! * [`digest`] — output digests (FNV-1a over record bits and report text);
//! * [`probe`] — the timing wrappers around the loop's blocks, sinks,
//!   trace readers and sweep targets, and the counters they fill;
//! * [`workloads`] — the three workloads, each with an untraced iteration
//!   (end-to-end metrics) and a traced one (per-layer metrics);
//! * [`stats`] — quantiles and medians.

#![forbid(unsafe_code)]

pub mod digest;
pub mod probe;
pub mod stats;
pub mod workloads;
