//! Error type for the learning crate: the on-device math, models and
//! privacy mechanisms alike.

use std::fmt;

/// Errors produced by model construction, training, evaluation, or privacy
/// mechanisms and budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum LearningError {
    /// A feature vector, parameter vector, or label had an unexpected shape.
    ShapeMismatch {
        /// Description of the inconsistency.
        reason: String,
    },
    /// A hyperparameter was outside its valid domain.
    InvalidHyperparameter {
        /// Name of the hyperparameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Training was requested on an empty dataset or minibatch.
    EmptyData,
    /// A numerical failure (NaN/Inf) was detected during training.
    NumericalFailure {
        /// Where the failure was detected.
        context: String,
    },
    /// The privacy parameter ε was non-positive, NaN, or otherwise unusable.
    InvalidEpsilon(f64),
    /// The failure probability δ of an (ε, δ) mechanism was outside `(0, 1)`.
    InvalidDelta(f64),
    /// A sensitivity bound was non-positive or non-finite.
    InvalidSensitivity(f64),
    /// An exponential-mechanism invocation had no candidates to choose from.
    EmptyCandidateSet,
    /// A budget accountant refused an operation that would exceed the total budget.
    BudgetExhausted {
        /// Budget already spent.
        spent: f64,
        /// Cost of the requested operation.
        requested: f64,
        /// Total available budget.
        total: f64,
    },
    /// An unknown entity (e.g. a label outside the candidate set) was referenced.
    UnknownEntity(String),
}

impl fmt::Display for LearningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearningError::ShapeMismatch { reason } => write!(f, "shape mismatch: {reason}"),
            LearningError::InvalidHyperparameter { name, value } => {
                write!(f, "invalid hyperparameter {name} = {value}")
            }
            LearningError::EmptyData => write!(f, "operation requires at least one sample"),
            LearningError::NumericalFailure { context } => {
                write!(f, "numerical failure during {context}")
            }
            LearningError::InvalidEpsilon(v) => {
                write!(f, "invalid privacy parameter epsilon = {v}")
            }
            LearningError::InvalidDelta(v) => write!(f, "invalid failure probability delta = {v}"),
            LearningError::InvalidSensitivity(v) => write!(f, "invalid sensitivity bound {v}"),
            LearningError::EmptyCandidateSet => {
                write!(f, "exponential mechanism needs a non-empty candidate set")
            }
            LearningError::BudgetExhausted {
                spent,
                requested,
                total,
            } => write!(
                f,
                "privacy budget exhausted: spent {spent}, requested {requested}, total {total}"
            ),
            LearningError::UnknownEntity(name) => {
                write!(f, "unknown entity `{name}` in budget accountant")
            }
        }
    }
}

impl std::error::Error for LearningError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(LearningError::ShapeMismatch {
            reason: "dim".into()
        }
        .to_string()
        .contains("dim"));
        assert!(LearningError::InvalidHyperparameter {
            name: "lambda",
            value: -1.0
        }
        .to_string()
        .contains("lambda"));
        assert!(LearningError::EmptyData.to_string().contains("sample"));
        assert!(LearningError::NumericalFailure {
            context: "sgd".into()
        }
        .to_string()
        .contains("sgd"));
        assert!(LearningError::InvalidEpsilon(-1.0)
            .to_string()
            .contains("-1"));
        assert!(LearningError::InvalidDelta(2.0)
            .to_string()
            .contains("delta"));
        assert!(LearningError::InvalidSensitivity(0.0)
            .to_string()
            .contains("sensitivity"));
        assert!(LearningError::EmptyCandidateSet
            .to_string()
            .contains("candidate"));
        let b = LearningError::BudgetExhausted {
            spent: 0.9,
            requested: 0.2,
            total: 1.0,
        };
        assert!(b.to_string().contains("exhausted"));
        assert!(LearningError::UnknownEntity("dev-3".into())
            .to_string()
            .contains("dev-3"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LearningError::EmptyData);
    }

    #[test]
    fn implements_std_error() {
        // The privacy variants folded in from the dp module are std errors too.
        let e: Box<dyn std::error::Error> = Box::new(LearningError::EmptyCandidateSet);
        assert!(e.source().is_none());
        assert!(e.to_string().contains("candidate"));
    }
}
