//! Probability and statistics substrate for the `eqimpact` workspace.
//!
//! Provides everything stochastic the closed-loop framework needs:
//!
//! * [`rng`] — deterministic, splittable random-number streams so every
//!   simulation is reproducible from a single seed;
//! * [`dist`] — the normal CDF behind every Bernoulli response draw (a
//!   fixed-cost rational `erfc`, ported from fdlibm) and the categorical
//!   sampler behind the paper's race shares;
//! * [`describe`] — means, variances, quantiles;
//! * [`timeseries`] — Cesàro (running time-average) sequences, the object
//!   equal impact (Def. 3) is about;
//! * [`hist`] — the 2-D histogram of Fig. 5's density panel;
//! * [`converge`] — Kolmogorov-Smirnov and Wasserstein diagnostics used
//!   to verify weak convergence to the invariant measure;
//! * [`json`] — a self-contained JSON value/writer/parser, the workspace's
//!   serialization layer (the build is offline; no serde);
//! * [`codec`] — zigzag / varint / CRC-32 bit utilities shared with the
//!   binary trace store (`eqimpact-trace`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod codec;
pub mod converge;
pub mod describe;
pub mod dist;
pub mod hist;
pub mod json;
pub mod plot;
pub mod rng;
pub mod timeseries;

pub use bootstrap::{bootstrap_gap_ci, bootstrap_mean_ci, ConfidenceInterval};
pub use converge::{kolmogorov_smirnov, wasserstein1};
pub use describe::Summary;
pub use dist::Categorical;
pub use hist::Histogram2D;
pub use json::{Json, ToJson};
pub use rng::SimRng;
pub use timeseries::CesaroAverage;
