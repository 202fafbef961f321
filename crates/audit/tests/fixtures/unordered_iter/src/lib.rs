//! Fixture: one hash container in a crate whose outputs must be bitwise
//! reproducible, plus every escape hatch.

use std::collections::BTreeMap;

/// The violation: summing these values in hash order makes the total's
/// rounding vary run to run.
pub struct Ledger {
    pub entries: std::collections::HashMap<u64, f64>,
}

/// Escape 1: an allow with a reason, for a set that is only looked up.
#[allow(clippy::disallowed_types, reason = "looked up, never iterated")]
pub struct Refused {
    pub ids: std::collections::HashSet<u64>,
}

/// Escape 2: a BTree container iterates in key order.
pub struct SortedLedger {
    pub entries: BTreeMap<u64, f64>,
}

/// Escape 3: test code, under an allow with a reason.
#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "sums four equal halves exactly in any order"
)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn order_free_in_tests() {
        let map: HashMap<u64, f64> = (0..4).map(|k| (k, 0.5)).collect();
        assert_eq!(map.values().sum::<f64>(), 2.0);
    }
}
