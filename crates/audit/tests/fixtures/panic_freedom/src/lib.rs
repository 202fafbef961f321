//! Fixture: one panic in a request-path module, plus every escape hatch.

pub mod bad;
