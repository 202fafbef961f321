//! Tests of the mask graph itself (which the public API only shows through
//! `dim`-word masks): its shape over random cohorts, `net_mask` against a
//! per-pair oracle and against [`crate::spec::net_mask`], and the directed
//! dropout and non-member cases.

use super::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// `⌈log₂ n⌉`, counted rather than computed the way the crate does.
fn ceil_log2(n: usize) -> usize {
    let mut k = 0;
    while (1usize << k) < n {
        k += 1;
    }
    k
}

/// `n` ascending, non-dense device ids.
fn sparse_ids(n: usize, stride: u64) -> Vec<u64> {
    (0..n as u64).map(|i| 3 + i * stride).collect()
}

fn neighbours_of(seed: u64, members: &[u64], device_id: u64) -> Vec<u64> {
    let ring = MaskRing::new(seed, members);
    let pos = ring.position(device_id).expect("a cohort member");
    ring.neighbours(pos).collect()
}

fn gradient(device_id: u64, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|c| (device_id as f64 + 1.0) * 0.37 - c as f64 * 0.011)
        .collect()
}

/// Masks `survivors`' gradients over `members`, finalizes, and compares with
/// the plain ascending sum of the same gradients, bit for bit.
fn assert_finalizes_to_the_plain_sum(seed: u64, members: &[u64], survivors: &[u64], dim: usize) {
    let submissions: Vec<(u64, Vec<u64>)> = survivors
        .iter()
        .map(|&d| (d, mask(&gradient(d, dim), &net_mask(seed, d, members, dim))))
        .collect();
    let finalized = finalize_sum(seed, members, &submissions, dim).expect("members, right dim");
    let mut ascending = survivors.to_vec();
    ascending.sort_unstable();
    let mut expected = vec![0.0f64; dim];
    for d in ascending {
        for (e, g) in expected.iter_mut().zip(gradient(d, dim)) {
            *e += g;
        }
    }
    assert_eq!(
        finalized.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

fn assert_net_masks_cancel(n: usize, dim: usize) {
    let seed = round_seed(21, n as u64);
    let members = sparse_ids(n, 7);
    let mut total = vec![0u64; dim];
    for &d in &members {
        for (t, m) in total.iter_mut().zip(net_mask(seed, d, &members, dim)) {
            *t = t.wrapping_add(m);
        }
    }
    assert!(total.iter().all(|&w| w == 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The neighbour relation is symmetric, has no self-loops or repeats,
    /// gives every member degree `min(n − 1, 2⌈log₂ n⌉)` (`n = 8`, rounded up
    /// to complete, is the one exception), and connects the cohort.
    #[test]
    fn the_mask_graph_is_symmetric_regular_and_connected(
        seed in any::<u64>(),
        n in 1usize..300,
        stride in 1u64..5000,
    ) {
        let members = sparse_ids(n, stride);
        let ring = MaskRing::new(seed, &members);
        let mut adjacent: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for &d in &members {
            let pos = ring.position(d).expect("a cohort member");
            let listed: Vec<u64> = ring.neighbours(pos).collect();
            let set: BTreeSet<u64> = listed.iter().copied().collect();
            prop_assert_eq!(set.len(), listed.len(), "repeated neighbour of {}", d);
            prop_assert!(!set.contains(&d), "{} neighbours itself", d);
            let degree = if n == 8 { 7 } else { (n - 1).min(2 * ceil_log2(n)) };
            prop_assert_eq!(set.len(), degree);
            adjacent.insert(d, set);
        }
        for (d, set) in &adjacent {
            for peer in set {
                prop_assert!(adjacent[peer].contains(d), "{} -> {} is one-way", d, peer);
            }
        }
        let mut reached = BTreeSet::from([members[0]]);
        let mut frontier = vec![members[0]];
        while let Some(d) = frontier.pop() {
            for &peer in &adjacent[&d] {
                if reached.insert(peer) {
                    frontier.push(peer);
                }
            }
        }
        prop_assert_eq!(reached.len(), n);
    }

    /// `net_mask` is Σ ±`pair_mask` over the device's neighbours — and
    /// `spec::net_mask` bit for bit, which builds its own ring.
    #[test]
    fn net_mask_is_the_signed_sum_of_its_neighbours_pair_masks(
        seed in any::<u64>(),
        n in 1usize..80,
        stride in 1u64..5000,
        dim in 1usize..9,
        pick in any::<u64>(),
    ) {
        let members = sparse_ids(n, stride);
        let device = members[(pick % n as u64) as usize];
        let mut expected = vec![0u64; dim];
        for peer in neighbours_of(seed, &members, device) {
            for (e, m) in expected.iter_mut().zip(pair_mask(seed, device, peer, dim)) {
                *e = if device < peer { e.wrapping_add(m) } else { e.wrapping_sub(m) };
            }
        }
        let got = net_mask(seed, device, &members, dim);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(&got, &spec::net_mask(seed, device, &members, dim));
    }
}

#[test]
fn the_graph_is_complete_up_to_nine_members_and_sparse_from_ten() {
    let seed = round_seed(5, 8);
    for n in 1..=9 {
        let members = sparse_ids(n, 11);
        for &d in &members {
            let mut got = neighbours_of(seed, &members, d);
            got.sort_unstable();
            let others: Vec<u64> = members.iter().copied().filter(|&m| m != d).collect();
            assert_eq!(got, others, "n = {n}");
            assert_eq!(
                net_mask(seed, d, &members, 5),
                spec::net_mask(seed, d, &members, 5)
            );
        }
    }
    // n = 1: no peers, so the mask is zero (as it always was).
    assert_eq!(net_mask(seed, 3, &[3], 4), vec![0; 4]);
    // n = 2: the one pair stream, added by the lower id, subtracted by the higher.
    let pair = pair_mask(seed, 3, 14, 4);
    assert_eq!(net_mask(seed, 3, &[3, 14], 4), pair);
    let negated: Vec<u64> = pair.iter().map(|m| m.wrapping_neg()).collect();
    assert_eq!(net_mask(seed, 14, &[3, 14], 4), negated);
    // n = 10 is the first sparse cohort: degree 8 of 9, so each mask leaves
    // one peer's pair stream out of the all-pairs sum.
    let members = sparse_ids(10, 11);
    for &d in &members {
        assert_eq!(neighbours_of(seed, &members, d).len(), 8);
    }
}

#[test]
fn both_ends_of_the_sorted_ring_wrap_around() {
    let seed = round_seed(6, 2);
    let members = sparse_ids(10, 13);
    let ring = MaskRing::new(seed, &members);
    let id_at = |pos: usize| ring.slots[pos].1;
    let ids = |positions: &[usize]| positions.iter().map(|&p| id_at(p)).collect::<BTreeSet<_>>();
    let first: BTreeSet<u64> = ring.neighbours(0).collect();
    assert_eq!(first, ids(&[1, 2, 3, 4, 6, 7, 8, 9]));
    let last: BTreeSet<u64> = ring.neighbours(9).collect();
    assert_eq!(last, ids(&[0, 1, 2, 3, 5, 6, 7, 8]));
    // Each end masks, unmasks and cancels like any other member.
    assert_finalizes_to_the_plain_sum(seed, &members, &[id_at(0), id_at(9)], 7);
}

#[test]
fn a_non_member_is_masked_as_one_more_ring_member_and_refused_at_finalization() {
    let dim = 6;
    for n in [1usize, 2, 9, 10, 128] {
        let seed = round_seed(13, n as u64);
        let members = sparse_ids(n, 10);
        // Outsiders below, between and above the member ids; over the seeds
        // they land at the ring's start, middle and end.
        for outsider in [0u64, 8, 1_000_003] {
            let m = net_mask(seed, outsider, &members, dim);
            assert!(m.iter().any(|&w| w != 0), "n = {n}: zero mask");
            let mut widened = members.clone();
            widened.push(outsider);
            widened.sort_unstable();
            assert_eq!(m, net_mask(seed, outsider, &widened, dim), "n = {n}");
            let words = mask(&gradient(outsider, dim), &m);
            assert!(finalize_sum(seed, &members, &[(outsider, words)], dim).is_none());
        }
    }
    // An outsider hashing before every member and one hashing after them all.
    let seed = round_seed(13, 77);
    let members = sparse_ids(16, 10);
    let ring = MaskRing::new(seed, &members);
    let outsider_at = |want: usize| {
        (1u64..)
            .map(|i| i * 10 + 4)
            .find(|&id| ring.position(id) == Err(want))
            .expect("some id hashes there")
    };
    for want in [0, members.len()] {
        let outsider = outsider_at(want);
        assert!(net_mask(seed, outsider, &members, dim)
            .iter()
            .any(|&w| w != 0));
    }
    // With nobody to pair with there is no mask to give.
    assert_eq!(net_mask(seed, 5, &[], dim), vec![0; dim]);
}

#[test]
fn directed_dropout_sets_finalize_to_the_plain_ascending_sum() {
    let dim = 9;
    for n in [10usize, 33, 128] {
        let seed = round_seed(17, n as u64);
        let members = sparse_ids(n, 3);
        // Everyone survived.
        assert_finalizes_to_the_plain_sum(seed, &members, &members, dim);
        // A lone survivor.
        assert_finalizes_to_the_plain_sum(seed, &members, &members[n / 2..n / 2 + 1], dim);
        // A survivor whose every neighbour dropped (all non-neighbours live).
        let isolated = members[n / 3];
        let dropped: BTreeSet<u64> = neighbours_of(seed, &members, isolated)
            .into_iter()
            .collect();
        let survivors: Vec<u64> = members
            .iter()
            .copied()
            .filter(|d| !dropped.contains(d))
            .collect();
        assert!(survivors.contains(&isolated) && survivors.len() == n - dropped.len());
        assert_finalizes_to_the_plain_sum(seed, &members, &survivors, dim);
        // Survivors handed over in descending order still fold ascending.
        let mut reversed = survivors.clone();
        reversed.reverse();
        assert_finalizes_to_the_plain_sum(seed, &members, &reversed, dim);
    }
}

#[test]
fn net_masks_cancel_over_a_full_cohort_of_128() {
    assert_net_masks_cancel(128, 500);
}

#[test]
fn net_masks_cancel_over_a_full_cohort_of_1000() {
    assert_net_masks_cancel(1000, 500);
}
