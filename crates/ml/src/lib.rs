//! The regulated "AI system": from-scratch logistic regression and
//! scorecards.
//!
//! The paper's credit-scoring case study (Sec. VII) retrains a logistic
//! model every time step on `(1_{z≥15}, ADR_i(k−1)) → repayment` and
//! converts it into an explainable **scorecard** (Table I) with a cut-off
//! that yields the binary credit decision `π(k, i)`.
//!
//! * [`dataset`] — design matrices with labels, standardization;
//! * [`logistic`] — binomial GLM with logit link, fitted by IRLS (Newton)
//!   with an L2 ridge and a gradient-descent fallback;
//! * [`grouped`] — the grouped-binomial training table behind the
//!   retrained learner: every observation so far, pooled by feature
//!   vector, so a refit costs one IRLS row per distinct vector;
//! * [`retrained`] — the learner both traced scenarios retrain each step
//!   on `(history, visible code)`: its per-user history, refit,
//!   checkpoint and warmup-gated scores (credit's scorecard lender and
//!   hiring's adaptive screener add only their decisions);
//! * [`scorecard`] — coefficient-to-scorecard conversion, cut-off
//!   decisions, Table I rendering.

//! # Example
//!
//! ```
//! use eqimpact_ml::{Dataset, LogisticRegression, Scorecard};
//! use eqimpact_ml::scorecard::CreditDecision;
//!
//! // Fit a tiny model and read it back as a scorecard.
//! let rows = vec![vec![0.9, 0.0], vec![0.8, 0.0], vec![0.1, 1.0], vec![0.0, 1.0]];
//! let labels = vec![0.0, 0.0, 1.0, 1.0];
//! let data = Dataset::new(&rows, &labels).unwrap();
//! let model = LogisticRegression::default().fit(&data).unwrap();
//! let card = Scorecard::from_model(&model, &["History", "Income"], 0.0);
//! assert_eq!(card.decide(&[0.0, 1.0]), CreditDecision::Approved);
//! assert_eq!(card.decide(&[0.9, 0.0]), CreditDecision::Denied);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counterfactual;
pub mod dataset;
pub mod grouped;
pub mod logistic;
pub mod retrained;
pub mod scorecard;

pub use counterfactual::{minimal_counterfactual, Counterfactual, FeatureBounds};
pub use dataset::Dataset;
pub use grouped::GroupedTable;
pub use logistic::{LogisticModel, LogisticRegression, TrainError};
pub use scorecard::{CreditDecision, Scorecard};
