//! Fixture: one wall-clock read in a deterministic crate, plus every escape
//! hatch.

use std::time::Instant;

/// The violation: replay timing must come from the logical clock.
pub fn bad_timestamp() -> Instant {
    Instant::now()
}

/// Escape 1: an allow with a reason.
#[allow(
    clippy::disallowed_methods,
    reason = "display-only timing, never reaches replayed state"
)]
pub fn allowed_timestamp() -> Instant {
    Instant::now()
}

/// Escape 2: carrying an `Instant` without sampling the clock is fine.
pub fn deadline_passthrough(deadline: Instant) -> Instant {
    deadline
}

/// Escape 3: test code, under the allow every test module that reads the
/// clock carries.
#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "a test deadline")]
mod tests {
    #[test]
    fn timed_in_tests() {
        assert!(
            super::deadline_passthrough(std::time::Instant::now()) <= std::time::Instant::now()
        );
    }
}
