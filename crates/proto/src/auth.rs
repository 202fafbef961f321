//! Device authentication tokens.
//!
//! Server Routines 1 and 2 both "authenticate device" before serving parameters or
//! accepting a checkin. The prototype in the paper relies on HTTPS session
//! authentication; here a device presents a 16-byte token issued at registration
//! time, and the server keeps a registry of issued tokens. Comparison is
//! constant-time to avoid timing side channels on the token value.

use crate::error::ProtoError;
use crate::Result;

/// Length of an authentication token in bytes.
pub const TOKEN_LEN: usize = 16;

/// A fixed-length device authentication token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthToken([u8; TOKEN_LEN]);

impl AuthToken {
    /// Creates a token from raw bytes.
    pub fn from_bytes(bytes: [u8; TOKEN_LEN]) -> Self {
        AuthToken(bytes)
    }

    /// Creates a token from a slice, validating the length.
    pub fn from_slice(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != TOKEN_LEN {
            return Err(ProtoError::InvalidField {
                field: "auth_token",
                reason: format!("expected {TOKEN_LEN} bytes, got {}", bytes.len()),
            });
        }
        let mut buf = [0u8; TOKEN_LEN];
        buf.copy_from_slice(bytes);
        Ok(AuthToken(buf))
    }

    /// Derives a deterministic token from a device id and a server secret using a
    /// simple SplitMix64-based keyed construction. Deterministic issuance keeps
    /// tests and simulations reproducible; a production deployment would issue
    /// random tokens at registration.
    pub fn derive(device_id: u64, secret: u64) -> Self {
        let mut out = [0u8; TOKEN_LEN];
        let mut state = device_id ^ secret.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
        for chunk in out.chunks_mut(8) {
            state = splitmix64(state);
            chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
        }
        AuthToken(out)
    }

    /// The raw token bytes.
    pub fn as_bytes(&self) -> &[u8; TOKEN_LEN] {
        &self.0
    }

    /// Constant-time equality check.
    pub fn constant_time_eq(&self, other: &AuthToken) -> bool {
        let mut diff = 0u8;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Server-side registry of issued tokens.
#[derive(Debug, Clone, Default)]
#[allow(
    clippy::disallowed_types,
    reason = "looked up by device id, never iterated, so its order reaches no output"
)]
pub struct TokenRegistry {
    tokens: std::collections::HashMap<u64, AuthToken>,
}

impl TokenRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TokenRegistry::default()
    }

    /// Creates a registry that pre-issues derived tokens for device ids
    /// `0..num_devices` using `secret`.
    pub fn with_derived_tokens(num_devices: u64, secret: u64) -> Self {
        let mut registry = TokenRegistry::new();
        for id in 0..num_devices {
            registry.register(id, AuthToken::derive(id, secret));
        }
        registry
    }

    /// Registers (or replaces) the token for a device.
    pub fn register(&mut self, device_id: u64, token: AuthToken) {
        self.tokens.insert(device_id, token);
    }

    /// Removes a device's token, returning whether it existed.
    pub fn revoke(&mut self, device_id: u64) -> bool {
        self.tokens.remove(&device_id).is_some()
    }

    /// Verifies a presented token for a device id.
    pub fn verify(&self, device_id: u64, presented: &AuthToken) -> bool {
        match self.tokens.get(&device_id) {
            Some(expected) => expected.constant_time_eq(presented),
            None => false,
        }
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when no tokens are registered.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_validates_length() {
        assert!(AuthToken::from_slice(&[0u8; 16]).is_ok());
        assert!(AuthToken::from_slice(&[0u8; 15]).is_err());
        assert!(AuthToken::from_slice(&[0u8; 17]).is_err());
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let a = AuthToken::derive(1, 42);
        let b = AuthToken::derive(1, 42);
        let c = AuthToken::derive(2, 42);
        let d = AuthToken::derive(1, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.constant_time_eq(&b));
        assert!(!a.constant_time_eq(&c));
    }

    #[test]
    fn registry_verification() {
        let mut reg = TokenRegistry::new();
        assert!(reg.is_empty());
        let token = AuthToken::derive(7, 99);
        reg.register(7, token);
        assert_eq!(reg.len(), 1);
        assert!(reg.verify(7, &token));
        assert!(!reg.verify(7, &AuthToken::derive(7, 100)));
        assert!(!reg.verify(8, &token));
        assert!(reg.revoke(7));
        assert!(!reg.revoke(7));
        assert!(!reg.verify(7, &token));
    }

    #[test]
    fn derived_registry_covers_all_devices() {
        let reg = TokenRegistry::with_derived_tokens(10, 1234);
        assert_eq!(reg.len(), 10);
        for id in 0..10 {
            assert!(reg.verify(id, &AuthToken::derive(id, 1234)));
            assert!(!reg.verify(id, &AuthToken::derive(id, 4321)));
        }
        assert!(!reg.verify(10, &AuthToken::derive(10, 1234)));
    }

    #[test]
    fn round_trip_bytes() {
        let token = AuthToken::derive(3, 5);
        let rebuilt = AuthToken::from_slice(token.as_bytes()).unwrap();
        assert_eq!(token, rebuilt);
        let rebuilt2 = AuthToken::from_bytes(*token.as_bytes());
        assert_eq!(token, rebuilt2);
    }
}
