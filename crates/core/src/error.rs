//! Error type for the Crowd-ML core crate.

use std::fmt;

/// Errors produced by the Crowd-ML framework.
#[derive(Debug)]
pub enum CoreError {
    /// Invalid configuration value.
    Config(String),
    /// An error bubbled up from the learning substrate (models and privacy
    /// mechanisms).
    Learning(crowd_learning::LearningError),
    /// An error bubbled up from the data substrate.
    Data(crowd_data::DataError),
    /// A device or the server was used in a way that violates the protocol state
    /// machine (e.g. a checkin without a preceding checkout).
    Protocol(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
            CoreError::Learning(e) => write!(f, "learning error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Learning(e) => Some(e),
            CoreError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crowd_learning::LearningError> for CoreError {
    fn from(e: crowd_learning::LearningError) -> Self {
        CoreError::Learning(e)
    }
}

impl From<crowd_data::DataError> for CoreError {
    fn from(e: crowd_data::DataError) -> Self {
        CoreError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let cfg = CoreError::Config("bad b".into());
        assert!(cfg.to_string().contains("bad b"));
        let learning: CoreError = crowd_learning::LearningError::EmptyData.into();
        assert!(learning.to_string().contains("learning"));
        assert!(std::error::Error::source(&learning).is_some());
        let privacy: CoreError = crowd_learning::LearningError::EmptyCandidateSet.into();
        assert!(privacy.to_string().contains("candidate"));
        let data: CoreError = crowd_data::DataError::InvalidArgument("x".into()).into();
        assert!(data.to_string().contains("data"));
        let proto = CoreError::Protocol("double checkout".into());
        assert!(proto.to_string().contains("double checkout"));
        assert!(std::error::Error::source(&proto).is_none());
    }
}
