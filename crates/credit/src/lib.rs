//! The credit-scoring case study of the paper's Sec. VII: a lender, a
//! census-sampled household population, repayment per the Gaussian
//! conditional-independence model, average default rates, and the yearly
//! scorecard retraining loop for 2002-2020.
//!
//! * [`model`] — eq. (10) state and eq. (11) repayment;
//! * [`adr`] — eq. (12) average default rates: the loop's feedback
//!   filter;
//! * [`lender`] — the AI-system block: the retrained scorecard lender
//!   (the learner of `eqimpact_ml::retrained` plus the offer sizing and
//!   the cut-off) and the uniform-$50K and income-multiple baselines of
//!   the introduction;
//! * [`users`] — the population block over `eqimpact-census` households;
//! * [`sim`] — configuration, single runs and the 5-trial protocol;
//! * [`report`] — extraction of the Table I / Fig. 2-5 artifacts;
//! * [`scenario`] — the case study as a first-class registry
//!   [`Scenario`](eqimpact_core::scenario::Scenario) (`experiments run
//!   credit`);
//! * [`trace`] — verified replay of recorded credit traces
//!   (`experiments record credit` / `experiments replay`);
//! * [`sweep`] — the off-policy face: candidate grids of
//!   lenders/thresholds evaluated over recorded traces
//!   (`experiments sweep credit`), and the single candidate of
//!   `experiments replay --policy`;
//! * [`certify`] — the certification face (`experiments certify
//!   credit`).
//!
//! # Example
//!
//! ```
//! use eqimpact_credit::sim::{CreditConfig, run_trial};
//!
//! let config = CreditConfig { users: 100, ..CreditConfig::default() };
//! let outcome = run_trial(&config, 0);
//! assert_eq!(outcome.record.steps(), 19); // 2002..=2020
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adr;
pub mod certify;
pub mod lender;
pub mod model;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod sweep;
pub mod trace;
pub mod users;

pub use adr::AdrFilter;
pub use certify::CreditCertify;
pub use lender::{IncomeMultipleLender, ScorecardLender, UniformExclusionLender};
pub use scenario::CreditScenario;
pub use sim::{run_trial, run_trials_protocol, CreditConfig, CreditOutcome, LenderKind};
pub use sweep::CreditSweep;
pub use trace::CreditTracer;
pub use users::CreditPopulation;
