//! Error type shared by all fallible linear-algebra operations.

use std::fmt;

/// Errors produced by dimension mismatches or invalid numerical arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand, e.g. `(rows, cols)` or `(len, 1)`.
        left: (usize, usize),
        /// Shape of the right/second operand.
        right: (usize, usize),
    },
    /// An argument was outside its valid domain (e.g. a non-power-of-two FFT length).
    InvalidArgument {
        /// Operation that rejected the argument.
        op: &'static str,
        /// Description of the violated requirement.
        reason: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in `{op}`: left operand is {}x{}, right operand is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::InvalidArgument { op, reason } => {
                write!(f, "invalid argument to `{op}`: {reason}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

impl LinalgError {
    /// Helper for constructing an [`LinalgError::InvalidArgument`].
    pub fn invalid(op: &'static str, reason: impl Into<String>) -> Self {
        LinalgError::InvalidArgument {
            op,
            reason: reason.into(),
        }
    }

    /// Helper for constructing a [`LinalgError::DimensionMismatch`] from vector lengths.
    pub fn vector_mismatch(op: &'static str, left: usize, right: usize) -> Self {
        LinalgError::DimensionMismatch {
            op,
            left: (left, 1),
            right: (right, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = LinalgError::DimensionMismatch {
            op: "matvec",
            left: (3, 4),
            right: (5, 1),
        };
        let msg = err.to_string();
        assert!(msg.contains("matvec"));
        assert!(msg.contains("3x4"));
        assert!(msg.contains("5x1"));
    }

    #[test]
    fn display_invalid_argument() {
        let err = LinalgError::invalid("fft", "length must be a power of two");
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn vector_mismatch_helper_shapes() {
        let err = LinalgError::vector_mismatch("dot", 2, 7);
        match err {
            LinalgError::DimensionMismatch { left, right, .. } => {
                assert_eq!(left, (2, 1));
                assert_eq!(right, (7, 1));
            }
            _ => panic!("expected dimension mismatch"),
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LinalgError::invalid("x", "y"));
    }
}
