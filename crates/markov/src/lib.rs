//! Markov systems and place-dependent iterated function systems.
//!
//! This crate implements the mathematical machinery of the paper's Sec. VI
//! and Appendix (after Werner 2004, Elton 1987, Barnsley et al. 1989):
//!
//! * [`system::MarkovSystem`] — a family `(X_{i(e)}, w_e, p_e)_{e ∈ E}` over
//!   a directed multigraph: Borel maps `w_e` with place-dependent
//!   probabilities `p_e`, `Σ_e p_e(x) = 1` on each partition cell;
//! * [`ifs::IfsBuilder`] — the single-vertex special case, a
//!   place-dependent iterated function system;
//! * [`operator`] — the Markov operator `P f = Σ_e p_e · (f ∘ w_e)` and its
//!   adjoint `P*` acting on particle (empirical) measures;
//! * [`contractivity`] — numerical verification of the average
//!   contractivity condition `Σ_e p_e(x) d(w_e(x), w_e(y)) ≤ a d(x, y)`;
//! * [`invariant`] — invariant-measure estimation for general systems and
//!   the exact stationary distribution of finite chains;
//! * [`ergodic`] — the unique-ergodicity verdict combining the structural
//!   graph conditions (irreducible + aperiodic = primitive) with
//!   contractivity, plus empirical Elton averages;
//! * [`coupling`] — common-noise coupling of two trajectories, the
//!   numerical counterpart of attractivity.
//!
//! # Example: a contractive two-map IFS
//!
//! ```
//! use eqimpact_markov::ifs::IfsBuilder;
//! use eqimpact_stats::SimRng;
//!
//! // x -> x/2 and x -> x/2 + 1/2 with equal probability: the invariant
//! // measure is uniform on [0, 1].
//! let ifs = IfsBuilder::new(1)
//!     .map(|x| vec![0.5 * x[0]], |_| 0.5)
//!     .map(|x| vec![0.5 * x[0] + 0.5], |_| 0.5)
//!     .build()
//!     .unwrap();
//! let mut rng = SimRng::new(7);
//! let traj = ifs.trajectory(&[0.9], 1000, &mut rng);
//! let mean: f64 = traj.iter().skip(100).map(|x| x[0]).sum::<f64>() / 900.0;
//! assert!((mean - 0.5).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contractivity;
pub mod coupling;
pub mod ergodic;
pub mod ifs;
pub mod invariant;
pub mod lyapunov;
pub mod operator;
pub mod system;

pub use contractivity::ContractivityReport;
pub use ergodic::{ErgodicityVerdict, UniqueErgodicityReport};
pub use invariant::FiniteChain;
pub use lyapunov::{lyapunov_exponent, LyapunovEstimate};
pub use operator::ParticleMeasure;
pub use system::{MarkovSystem, MarkovSystemError};
