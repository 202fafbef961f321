//! Error type for dataset construction, generation, and partitioning.

use std::fmt;

/// Errors produced by the data layer.
#[derive(Debug)]
pub enum DataError {
    /// A dataset was constructed with inconsistent feature/label lengths or shapes.
    ShapeMismatch {
        /// Description of the inconsistency.
        reason: String,
    },
    /// A label was outside `0..num_classes`.
    InvalidLabel {
        /// The offending label.
        label: usize,
        /// The number of classes the dataset declares.
        num_classes: usize,
    },
    /// An argument was outside its valid domain.
    InvalidArgument(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ShapeMismatch { reason } => write!(f, "shape mismatch: {reason}"),
            DataError::InvalidLabel { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            DataError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DataError::ShapeMismatch {
            reason: "rows".into()
        }
        .to_string()
        .contains("rows"));
        assert!(DataError::InvalidLabel {
            label: 12,
            num_classes: 10
        }
        .to_string()
        .contains("12"));
        assert!(DataError::InvalidArgument("x".into())
            .to_string()
            .contains("x"));
    }
}
