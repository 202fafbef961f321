//! The round protocol's derivations stated plainly, bit for bit what the
//! crate's kernels compute: one selection coin per id, one pair stream per
//! neighbour and one whole net mask per survivor. Only tests, and other
//! crates' `spec` functions, call them.

use crate::{mix, pair_mask, unmask, COMPLETE_UP_TO, RING_SALT};

/// Device selection: `device_id` joins the round's cohort iff its draw
/// `mix(seed, mix(device_id, 0x0D5E_7EC7))` is below
/// `select_fraction · (2⁶⁴ − 1)`. A fraction `≥ 1` selects everyone; one
/// `≤ 0`, or NaN, selects no one.
pub fn is_selected(seed: u64, device_id: u64, select_fraction: f64) -> bool {
    if select_fraction >= 1.0 {
        return true;
    }
    if select_fraction <= 0.0 {
        return false;
    }
    let threshold = (select_fraction * (u64::MAX as f64)) as u64;
    mix(seed, mix(device_id, 0x0D5E_7EC7)) < threshold
}

/// The round's cohort: the selected ids of `0..population`, ascending, or
/// the whole population when nobody is selected.
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

/// Device `device_id`'s net mask: `Σ ± pair_mask` over its neighbours in the
/// round's mask graph, added toward a higher id and subtracted toward a
/// lower one (wrapping). The graph orders the cohort, plus `device_id` if
/// it is not a member, on a ring by `(mix(seed, mix(id, RING_SALT)), id)`.
/// With `n` on the ring, a device's neighbours are every other member when
/// `n ≤ 9`, otherwise the `⌈log₂ n⌉` members on either side of it.
pub fn net_mask(seed: u64, device_id: u64, cohort: &[u64], dim: usize) -> Vec<u64> {
    let mut ring = cohort.to_vec();
    if !ring.contains(&device_id) {
        ring.push(device_id);
    }
    ring.sort_by_key(|&d| (mix(seed, mix(d, RING_SALT)), d));
    let n = ring.len();
    let at = ring
        .iter()
        .position(|&d| d == device_id)
        .expect("device_id is on the ring");
    let neighbours: Vec<u64> = if n <= COMPLETE_UP_TO {
        ring.iter().copied().filter(|&d| d != device_id).collect()
    } else {
        let k = n.next_power_of_two().trailing_zeros() as usize;
        (1..=k)
            .flat_map(|offset| [ring[(at + offset) % n], ring[(at + n - offset) % n]])
            .collect()
    };
    let mut mask = vec![0u64; dim];
    for peer in neighbours {
        for (m, p) in mask.iter_mut().zip(pair_mask(seed, device_id, peer, dim)) {
            *m = if device_id < peer {
                m.wrapping_add(p)
            } else {
                m.wrapping_sub(p)
            };
        }
    }
    mask
}

/// Round finalization (the dropout-compensated cohort sum): over the
/// survivors in ascending id, `Σ unmask(words, net_mask(survivor))`, summed
/// from `+0.0`. `None` if a survivor is not a cohort member or did not send
/// `dim` words.
pub fn finalize_sum(
    seed: u64,
    cohort: &[u64],
    survivors: &[(u64, Vec<u64>)],
    dim: usize,
) -> Option<Vec<f64>> {
    let mut ordered: Vec<&(u64, Vec<u64>)> = survivors.iter().collect();
    ordered.sort_by_key(|(d, _)| *d);
    let mut sum = vec![0.0f64; dim];
    for (device_id, words) in ordered {
        if words.len() != dim || !cohort.contains(device_id) {
            return None;
        }
        let unmasked = unmask(words, &net_mask(seed, *device_id, cohort, dim));
        for (acc, g) in sum.iter_mut().zip(unmasked) {
            *acc += g;
        }
    }
    Some(sum)
}
