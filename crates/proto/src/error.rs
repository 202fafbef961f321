//! Error type for protocol encoding, decoding, and framing.

use crate::le::LeError;
use std::fmt;

/// Errors produced while encoding, decoding, or framing protocol messages.
#[derive(Debug)]
pub enum ProtoError {
    /// The buffer ended before a complete value could be decoded.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// An unknown message tag was encountered.
    UnknownMessageTag(u8),
    /// A declared length exceeded the configured maximum.
    FrameTooLarge {
        /// Declared frame length.
        declared: usize,
        /// Maximum allowed length.
        max: usize,
    },
    /// A field contained an invalid value (wrong version, bad token length, …).
    InvalidField {
        /// Field name.
        field: &'static str,
        /// Description of the problem.
        reason: String,
    },
    /// An underlying I/O error while reading or writing a frame.
    Io(std::io::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { context } => {
                write!(f, "truncated buffer while decoding {context}")
            }
            ProtoError::UnknownMessageTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            ProtoError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds maximum {max}")
            }
            ProtoError::InvalidField { field, reason } => {
                write!(f, "invalid field `{field}`: {reason}")
            }
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A short or over-cap read in [`crate::le`] is a short or invalid field of
/// the message being decoded.
impl From<LeError> for ProtoError {
    fn from(e: LeError) -> Self {
        match e {
            LeError::Truncated(context) => ProtoError::Truncated { context },
            LeError::OverCap { what, len, cap } => ProtoError::InvalidField {
                field: what,
                reason: format!("declared length {len} exceeds maximum {cap}"),
            },
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ProtoError::Truncated {
            context: "gradient"
        }
        .to_string()
        .contains("gradient"));
        assert!(ProtoError::UnknownMessageTag(0xFF)
            .to_string()
            .contains("0xff"));
        assert!(ProtoError::FrameTooLarge {
            declared: 100,
            max: 10
        }
        .to_string()
        .contains("100"));
        assert!(ProtoError::InvalidField {
            field: "version",
            reason: "too old".into()
        }
        .to_string()
        .contains("version"));
        let io: ProtoError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
