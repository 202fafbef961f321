//! A request-path module: the attributes below deny every panicking
//! construct outside test code.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

/// The violation: a decode path must return an error, not unwrap.
pub fn bad_decode(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().unwrap())
}

/// Escape 1: an allow with a reason.
#[allow(clippy::unwrap_used, reason = "caller holds is_some by construction")]
pub fn allowed_invariant(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Escape 2: non-panicking combinators are fine.
pub fn combinator(x: Option<u32>) -> u32 {
    x.unwrap_or_default()
}

/// Escape 3: test code is exempt.
#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests() {
        assert_eq!(super::bad_decode(&[1, 0, 0, 0]), "1".parse().unwrap());
    }
}
