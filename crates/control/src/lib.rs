//! Controllers, filters and stability analysis for closed-loop AI
//! regulation.
//!
//! Sec. II-B/VI of the paper root the framework in ergodic control of
//! ensembles (Fioravanti et al. 2019): a broadcast signal regulates a large
//! population, and the *choice of controller* decides whether the closed
//! loop keeps a unique attractive invariant measure.
//!
//! * [`controller`] — the proportional and integral laws the ensemble
//!   testbed contrasts, behind a common [`controller::Controller`] trait;
//! * [`filter`] — the feedback-path filters of Fig. 1 (accumulating mean,
//!   sliding window, EWMA), behind [`filter::Filter`];
//! * [`iss`] — numerical incremental input-to-state stability checks
//!   (Def. 7 of the paper, after Angeli 2002), with `K`/`KL` function
//!   fitting;
//! * [`ensemble`] — the ensemble-control testbed reproducing the paper's
//!   headline warning: **integral action can destroy ergodicity** while
//!   stable static feedback preserves it.

//! # Example
//!
//! ```
//! use eqimpact_control::controller::{Controller, PController};
//! use eqimpact_control::ensemble::{logistic_ensemble, EnsembleLoop};
//! use eqimpact_stats::SimRng;
//!
//! // A stable proportional loop over stochastic users tracks its target.
//! let agents = logistic_ensemble(100, 0.0, 1.0, 0.2);
//! let mut lp = EnsembleLoop::new(agents, PController::new(2.0, 0.5), 0.5);
//! let out = lp.run(0.5, &[false; 100], 2_000, 0, None, &mut SimRng::new(1));
//! let tail: f64 = out.aggregates[1_500..].iter().sum::<f64>() / 500.0;
//! assert!((tail - 0.5).abs() < 0.06);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod ensemble;
pub mod filter;
pub mod iss;

pub use controller::Controller;
pub use ensemble::{EnsembleLoop, EnsembleOutcome};
pub use filter::{EwmaFilter, Filter, SlidingWindowFilter};
