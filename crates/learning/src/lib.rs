//! Statistical-learning substrate: models, losses, gradients, optimizers, and
//! metrics.
//!
//! Crowd-ML learns a classifier by empirical-risk minimization (Eq. 2 of the
//! paper): a [`Model`](model::Model) supplies per-sample losses and (sub)gradients,
//! [`sgd`] provides the stochastic-gradient machinery (minibatch averaging,
//! learning-rate [`schedule`]s, the projected update of Eq. 3), and [`batch`]
//! provides the full-gradient trainer used for the "Central (batch)" baseline.
//! [`metrics`] computes the error curves the evaluation section plots.
//!
//! Implemented models:
//!
//! * [`logistic::MulticlassLogistic`] — the multiclass logistic regression of
//!   Table I (the model used in every experiment of the paper);
//! * [`logistic::BinaryLogistic`] — two-class logistic regression;
//! * [`svm::MulticlassHinge`] — one-vs-rest linear SVM with hinge loss, one of the
//!   alternative losses §III-A mentions;
//! * [`regression::RidgeRegression`] — regularized least squares for real-valued
//!   targets, covering the "predictor" (regression) side of the framework.

#![forbid(unsafe_code)]

pub mod batch;
pub mod error;
pub mod logistic;
pub mod metrics;
#[cfg(test)]
mod minibatch_reference;
pub mod model;
pub mod regression;
pub mod schedule;
pub mod sgd;
pub mod svm;

pub use error::LearningError;
pub use logistic::MulticlassLogistic;
pub use model::{minibatch_statistics, MinibatchStats, Model};
pub use schedule::LearningRate;
pub use sgd::{SgdConfig, SgdTrainer};

/// Result alias for fallible learning operations.
pub type Result<T> = std::result::Result<T, LearningError>;
