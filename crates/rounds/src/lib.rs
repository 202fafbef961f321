//! Round-based cohort protocol primitives: seed-derived K-of-M selection and
//! pairwise additive masking (Bonawitz-style in shape, vendored-rng in
//! substance — no real crypto).
//!
//! Every round the coordinator publishes `(round_id, seed, select_fraction,
//! population)`. From those values alone, every party — device or server —
//! derives the same facts without further coordination:
//!
//! * **Role.** Device `d` is *Selected* for the round iff
//!   `mix(seed, d) < select_fraction · 2^64` ([`is_selected`]). The cohort is
//!   the ascending list of selected ids ([`cohort`]); if the coin flips leave
//!   it empty, the whole population is the cohort (a deterministic fallback,
//!   never a stall).
//! * **Pair masks.** The round's *mask graph* places the cohort on a ring in
//!   the order of `mix(seed, mix(id, RING_SALT))` and pairs every member with
//!   the `⌈log₂ n⌉` members on either side of it — degree `2⌈log₂ n⌉`, the
//!   structure Bell et al., "Secure Single-Server Aggregation with
//!   (Poly)Logarithmic Overhead" (CCS 2020), prove sufficient for
//!   Bonawitz-style secure aggregation. A cohort of `n ≤ 9` is masked over
//!   all pairs instead: `2⌈log₂ n⌉ ≥ n − 1` there (the ring would reach
//!   everyone anyway) except at `n = 8`, which is rounded up to complete.
//!   The degree is a function of the cohort size alone. Each paired `{a, b}`
//!   shares a mask stream seeded by `(seed, a, b)` ([`pair_mask`]). Device
//!   `d`'s *net* mask adds the stream toward every higher-id neighbour and
//!   subtracts it toward every lower-id neighbour ([`net_mask`]); the
//!   neighbour relation is symmetric, so summed over the full cohort the
//!   masks cancel exactly.
//!
//! Masking operates on the gradient's IEEE-754 **bit patterns** with
//! wrapping `u64` arithmetic ([`mask`]/[`unmask`]), not on the floats
//! themselves. That makes unmasking lossless: the server recomputes a
//! survivor's net mask (including the pair masks toward partners that
//! vanished mid-round — the *dropout compensation*), subtracts it, and
//! recovers the original bits exactly. The finalized cohort sum is therefore
//! bitwise identical to the sum the unmasked gradients would have produced —
//! the property `tests/` proptests over random cohorts and dropout sets.
//!
//! What this buys within the paper's threat model: no raw gradient ever
//! crosses the wire (a masked word stream is what an eavesdropper — or a
//! logging middlebox — sees), and the aggregation path only ever folds
//! cohort-shaped sums. It is *not* cryptographic secure aggregation: the
//! seed is public, so the server could unmask an individual submission. The
//! protocol shape (roles, exactly-once submission, `RoundOutdated` resync,
//! dropout compensation) is the reproduction target; swapping the mask
//! derivation for real pairwise key agreement would not change any interface
//! in this crate. What the sparse graph changes in that *nominal* model:
//! with real pairwise keys an individual update is hidden from the server
//! plus fewer than `2⌈log₂ n⌉` colluding neighbours (all of a device's
//! neighbours must collude to strip its mask), where all-pairs masking held
//! against `n − 2` colluding peers.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A device's role in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// In the round's cohort: submit exactly one masked checkin this round.
    Selected,
    /// Not in the cohort: free-run (ordinary unmasked checkins) this round.
    Unselected,
}

/// SplitMix64-style finalizer used for all per-round derivations. Distinct
/// salts keep the derivation domains (selection, pair masks, round seeds)
/// from colliding.
fn mix(mut h: u64, salt: u64) -> u64 {
    h = h.wrapping_add(salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Derives round `round_id`'s selection/mask seed from the configured base
/// seed. Successive rounds get statistically unrelated cohorts.
pub fn round_seed(base_seed: u64, round_id: u64) -> u64 {
    mix(mix(base_seed, 0x5EED), round_id)
}

/// Whether `device_id` is selected for the round with the given seed:
/// a deterministic coin with `P(selected) ≈ select_fraction`, independent
/// across devices. `select_fraction ≥ 1` selects everyone, `≤ 0` no one.
pub fn is_selected(seed: u64, device_id: u64, select_fraction: f64) -> bool {
    if select_fraction >= 1.0 {
        return true;
    }
    if select_fraction <= 0.0 {
        return false;
    }
    // Threshold comparison in the u64 domain; the cast saturates safely for
    // any fraction in (0, 1).
    let threshold = (select_fraction * (u64::MAX as f64)) as u64;
    mix(seed, mix(device_id, 0x0D5E_7EC7)) < threshold
}

/// The round's cohort: ascending ids of the selected devices among
/// `0..population`. If the per-device coins select nobody, the whole
/// population is the cohort — every party applies the same fallback, so the
/// round still has a well-defined, non-empty cohort and cannot stall on an
/// unlucky seed.
pub fn cohort(seed: u64, population: u64, select_fraction: f64) -> Vec<u64> {
    let selected: Vec<u64> = (0..population)
        .filter(|&d| is_selected(seed, d, select_fraction))
        .collect();
    if selected.is_empty() {
        (0..population).collect()
    } else {
        selected
    }
}

/// A device's role for the round, derived exactly like [`cohort`] (including
/// the everyone-selected fallback — which is why the population is needed).
pub fn role_of(seed: u64, device_id: u64, population: u64, select_fraction: f64) -> Role {
    if cohort(seed, population, select_fraction)
        .binary_search(&device_id)
        .is_ok()
    {
        Role::Selected
    } else {
        Role::Unselected
    }
}

/// The generator behind the unordered pair `{a, b}`'s shared mask stream,
/// seeded by `(seed, min(a,b), max(a,b))`.
fn pair_rng(seed: u64, a: u64, b: u64) -> StdRng {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    StdRng::seed_from_u64(mix(mix(seed, lo), mix(hi, 0x7A1F)))
}

/// The shared mask stream for the unordered pair `{a, b}`: `dim` words drawn
/// from a generator seeded by `(seed, min(a,b), max(a,b))`. Both endpoints —
/// and the compensating server — derive the identical stream.
pub fn pair_mask(seed: u64, a: u64, b: u64, dim: usize) -> Vec<u64> {
    let mut rng = pair_rng(seed, a, b);
    (0..dim).map(|_| rng.next_u64()).collect()
}

/// Salt of the ring-order derivation (distinct from selection and pair masks).
const RING_SALT: u64 = 0x0052_1A6C;

/// Largest cohort masked over all pairs. `2⌈log₂ n⌉ ≥ n − 1` — the ring
/// already reaching everyone — holds for every `n ≤ 9` except 8 (6 of 7);
/// 8 is rounded up so the whole small-cohort regime keeps one rule and the
/// masks it always had.
const COMPLETE_UP_TO: usize = 9;

/// The round's mask graph: the cohort on a ring ordered by a seed-derived
/// hash, every member paired with the `⌈log₂ n⌉` members on either side.
struct MaskRing {
    seed: u64,
    /// `(ring key, device id)`, ascending — the ring order.
    slots: Vec<(u64, u64)>,
}

impl MaskRing {
    fn slot(seed: u64, device_id: u64) -> (u64, u64) {
        (mix(seed, mix(device_id, RING_SALT)), device_id)
    }

    fn new(seed: u64, cohort: &[u64]) -> Self {
        let mut slots: Vec<_> = cohort.iter().map(|&d| Self::slot(seed, d)).collect();
        slots.sort_unstable();
        MaskRing { seed, slots }
    }

    /// `device_id`'s ring position, or `Err(where it would be inserted)` for
    /// a non-member.
    fn position(&self, device_id: u64) -> Result<usize, usize> {
        self.slots.binary_search(&Self::slot(self.seed, device_id))
    }

    /// The ids paired with the member at `pos`: every other member of a
    /// cohort of at most [`COMPLETE_UP_TO`], otherwise ring offsets `1..=k`
    /// on either side with `k = ⌈log₂ n⌉`. Symmetric, and without repeats
    /// since `2k < n − 1` from 10 members up.
    fn neighbours(&self, pos: usize) -> impl Iterator<Item = u64> + '_ {
        let n = self.slots.len();
        let reach = if n <= COMPLETE_UP_TO {
            n - 1
        } else {
            n.next_power_of_two().trailing_zeros() as usize
        };
        // Offsets ahead, then the ones behind that the first run did not
        // already reach (none in a complete graph).
        (1..=reach)
            .chain((n - reach).max(reach + 1)..n)
            .map(move |offset| self.slots[(pos + offset) % n].1)
    }

    /// Overwrites `out` with the net mask of the member at `pos`: its pair
    /// streams added toward higher-id neighbours, subtracted toward lower-id
    /// ones (wrapping), straight out of each pair's generator.
    fn net_mask_into(&self, pos: usize, out: &mut [u64]) {
        let device_id = self.slots[pos].1;
        out.fill(0);
        for peer in self.neighbours(pos) {
            let mut rng = pair_rng(self.seed, device_id, peer);
            if device_id < peer {
                for o in out.iter_mut() {
                    *o = o.wrapping_add(rng.next_u64());
                }
            } else {
                for o in out.iter_mut() {
                    *o = o.wrapping_sub(rng.next_u64());
                }
            }
        }
    }
}

/// Device `device_id`'s net mask over the cohort's mask graph: the sum of
/// its pair masks toward its ring neighbours, added toward higher-id ones and
/// subtracted toward lower-id ones (wrapping). Summed over every cohort
/// member the signs pair off and the total is exactly zero — the
/// cancellation the protocol is named for.
///
/// A `device_id` outside `cohort` is masked as a member of the cohort plus
/// itself (ring position by its own hash), so the answer is never the
/// all-zero mask while the cohort has anyone else in it — a device that
/// mistakes its role still puts no raw gradient bits on the wire.
/// [`finalize_sum`] refuses such a survivor.
pub fn net_mask(seed: u64, device_id: u64, cohort: &[u64], dim: usize) -> Vec<u64> {
    let mut ring = MaskRing::new(seed, cohort);
    let pos = ring.position(device_id).unwrap_or_else(|at| {
        ring.slots.insert(at, MaskRing::slot(seed, device_id));
        at
    });
    let mut out = vec![0u64; dim];
    ring.net_mask_into(pos, &mut out);
    out
}

/// Masks a gradient for the wire: each coordinate's IEEE-754 bits plus the
/// net mask word, wrapping. Lossless by construction — [`unmask`] with the
/// same net mask recovers the original bits exactly.
pub fn mask(gradient: &[f64], net_mask: &[u64]) -> Vec<u64> {
    debug_assert_eq!(gradient.len(), net_mask.len());
    gradient
        .iter()
        .zip(net_mask)
        .map(|(&g, &m)| g.to_bits().wrapping_add(m))
        .collect()
}

/// Inverts [`mask`]: subtracts the net mask words and reinterprets the bits
/// as the original floats.
pub fn unmask(words: &[u64], net_mask: &[u64]) -> Vec<f64> {
    debug_assert_eq!(words.len(), net_mask.len());
    words
        .iter()
        .zip(net_mask)
        .map(|(&w, &m)| unmask_word(w, m))
        .collect()
}

/// One coordinate of [`unmask`].
fn unmask_word(word: u64, net_mask: u64) -> f64 {
    f64::from_bits(word.wrapping_sub(net_mask))
}

/// Server-side round finalization over the survivors: for each surviving
/// `(device_id, masked_words)` pair — ascending by device id — recompute the
/// device's net mask over the cohort's mask graph (pairs toward dropped
/// neighbours included: that recomputation *is* the dropout compensation),
/// unmask, and fold into the cohort sum. Returns `None` if any survivor's
/// word count differs from `dim` or a survivor is not a cohort member.
///
/// Because unmasking is per-device lossless, the result is bitwise identical
/// to summing the survivors' raw gradients in the same ascending order —
/// whatever subset of the cohort survived.
pub fn finalize_sum(
    seed: u64,
    cohort: &[u64],
    survivors: &[(u64, Vec<u64>)],
    dim: usize,
) -> Option<Vec<f64>> {
    let ring = MaskRing::new(seed, cohort);
    let mut sum = vec![0.0f64; dim];
    let mut net = vec![0u64; dim];
    let mut ordered: Vec<&(u64, Vec<u64>)> = survivors.iter().collect();
    ordered.sort_by_key(|(d, _)| *d);
    for (device_id, words) in ordered {
        if words.len() != dim {
            return None;
        }
        ring.net_mask_into(ring.position(*device_id).ok()?, &mut net);
        for ((acc, &w), &m) in sum.iter_mut().zip(words).zip(&net) {
            *acc += unmask_word(w, m);
        }
    }
    Some(sum)
}

#[cfg(test)]
mod mask_graph_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_fraction_shaped() {
        let seed = round_seed(42, 3);
        let a = cohort(seed, 1000, 0.5);
        let b = cohort(seed, 1000, 0.5);
        assert_eq!(a, b);
        // A fair coin over 1000 devices lands well inside [350, 650].
        assert!(a.len() > 350 && a.len() < 650, "cohort size {}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(cohort(seed, 10, 1.5), (0..10).collect::<Vec<_>>());
        // An impossible fraction falls back to the full population rather
        // than an empty cohort.
        assert_eq!(cohort(seed, 4, 0.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn roles_match_cohort_membership() {
        let seed = round_seed(7, 1);
        let members = cohort(seed, 64, 0.3);
        for d in 0..64 {
            let expected = if members.contains(&d) {
                Role::Selected
            } else {
                Role::Unselected
            };
            assert_eq!(role_of(seed, d, 64, 0.3), expected);
        }
    }

    #[test]
    fn net_masks_cancel_over_the_full_cohort() {
        let seed = round_seed(9, 5);
        let members = cohort(seed, 12, 0.6);
        let dim = 17;
        let mut total = vec![0u64; dim];
        for &d in &members {
            for (t, m) in total.iter_mut().zip(net_mask(seed, d, &members, dim)) {
                *t = t.wrapping_add(m);
            }
        }
        assert!(total.iter().all(|&w| w == 0));
    }

    #[test]
    fn mask_roundtrips_bitwise() {
        let seed = round_seed(1, 2);
        let members = vec![0, 3, 5];
        let gradient = [1.5, -0.25, f64::MIN_POSITIVE, 0.0, -0.0];
        let m = net_mask(seed, 3, &members, gradient.len());
        let words = mask(&gradient, &m);
        // The wire words are not the raw bits (cohort ≥ 2 ⇒ nonzero mask).
        assert_ne!(
            words,
            gradient.iter().map(|g| g.to_bits()).collect::<Vec<_>>()
        );
        let back = unmask(&words, &m);
        for (orig, got) in gradient.iter().zip(&back) {
            assert_eq!(orig.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn finalize_matches_unmasked_sum_under_dropouts() {
        let seed = round_seed(11, 4);
        let members = cohort(seed, 8, 0.9);
        let dim = 6;
        let gradients: Vec<Vec<f64>> = members
            .iter()
            .map(|&d| {
                (0..dim)
                    .map(|c| (d as f64 + 1.0) * 0.1 - c as f64 * 0.01)
                    .collect()
            })
            .collect();
        // Drop one member; the rest survive.
        let survivors: Vec<(u64, Vec<u64>)> = members
            .iter()
            .zip(&gradients)
            .skip(1)
            .map(|(&d, g)| (d, mask(g, &net_mask(seed, d, &members, dim))))
            .collect();
        let finalized = finalize_sum(seed, &members, &survivors, dim).unwrap();
        let mut expected = vec![0.0; dim];
        for (_, g) in members.iter().zip(&gradients).skip(1) {
            for (e, v) in expected.iter_mut().zip(g) {
                *e += v;
            }
        }
        assert_eq!(
            finalized.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        // A survivor outside the cohort, or a dimension mismatch, is refused.
        assert!(finalize_sum(seed, &members, &[(999, vec![0; dim])], dim).is_none());
        assert!(finalize_sum(seed, &members, &[(members[0], vec![0; 2])], dim).is_none());
    }
}
