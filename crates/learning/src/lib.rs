//! Statistical-learning substrate: models, losses, gradients, optimizers, and
//! metrics.
//!
//! Crowd-ML learns a classifier by empirical-risk minimization (Eq. 2 of the
//! paper): a [`Model`] supplies per-sample losses and (sub)gradients,
//! [`sgd`] provides the stochastic-gradient machinery (minibatch averaging,
//! learning-rate [`schedule`]s, the projected update of Eq. 3), and [`batch`]
//! provides the full-gradient trainer used for the "Central (batch)" baseline.
//! [`metrics`] computes the error curves the evaluation section plots, and
//! [`dp`] holds the local differential-privacy mechanisms a device applies to
//! what it releases, calibrated to the models' sensitivity bounds.
//! [`spec`] states Device Routine 2 as plainly as it can be written, the
//! reference the fast path is tested against.
//!
//! Implemented models:
//!
//! * [`logistic::MulticlassLogistic`] — the multiclass logistic regression of
//!   Table I (the model used in every experiment of the paper);
//! * [`logistic::BinaryLogistic`] — two-class logistic regression;
//! * [`svm::MulticlassHinge`] — one-vs-rest linear SVM with hinge loss, one of the
//!   alternative losses §III-A mentions.

#![forbid(unsafe_code)]

pub mod batch;
pub mod dp;
pub mod error;
pub mod logistic;
pub mod metrics;
pub mod model;
pub mod schedule;
pub mod sgd;
pub mod spec;
pub mod svm;

pub use error::LearningError;
pub use logistic::MulticlassLogistic;
pub use model::{minibatch_statistics, MinibatchStats, Model};
pub use schedule::LearningRate;
pub use sgd::{SgdConfig, SgdTrainer};

/// Result alias for fallible learning operations.
pub type Result<T> = std::result::Result<T, LearningError>;

// Tests of the `dp` module's own items: `Epsilon` and the quantization rule.
#[cfg(test)]
mod tests {
    use crate::dp::{noise_dominates_quantization, Epsilon};

    #[test]
    fn finite_epsilon_validation() {
        assert!(Epsilon::finite(0.5).is_ok());
        assert!(Epsilon::finite(0.0).is_err());
        assert!(Epsilon::finite(-1.0).is_err());
        assert!(Epsilon::finite(f64::NAN).is_err());
        assert!(Epsilon::finite(f64::INFINITY).is_err());
    }

    #[test]
    fn from_inverse_matches_paper_convention() {
        assert_eq!(Epsilon::from_inverse(0.0).unwrap(), Epsilon::NonPrivate);
        assert_eq!(Epsilon::from_inverse(0.1).unwrap().value(), 10.0);
        assert!(Epsilon::from_inverse(-0.1).is_err());
    }

    #[test]
    fn quantization_rule_needs_noise_and_a_step() {
        // Noise scale comfortably above the step → quantize.
        assert!(noise_dominates_quantization(0.4, 0.1));
        // Boundary 2·s = λ counts as dominated.
        assert!(noise_dominates_quantization(0.2, 0.1));
        // Step too coarse for the noise floor.
        assert!(!noise_dominates_quantization(0.1, 0.1));
        // Non-private (λ = 0) and all-zero (s = 0) never quantize.
        assert!(!noise_dominates_quantization(0.0, 0.1));
        assert!(!noise_dominates_quantization(0.4, 0.0));
    }

    #[test]
    fn value_and_privacy_flags() {
        assert_eq!(Epsilon::non_private().value(), f64::INFINITY);
        assert!(!Epsilon::non_private().is_private());
        assert!(Epsilon::finite(2.0).unwrap().is_private());
    }
}
