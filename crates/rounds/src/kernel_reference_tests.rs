//! `cohort`, `role_of`, `is_selected` and `finalize_sum` against
//! [`crate::spec`]: one selection coin per id with a growing `Vec`, and one
//! whole net mask per survivor. Membership and every finalized bit must
//! match.

use super::*;
use proptest::prelude::*;

/// The largest double below 1.
const JUST_BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// A fraction from the edge cases the selection cut has to get right, or a
/// random one in (0, 1).
fn fraction(pick: usize, random: f64) -> f64 {
    match pick {
        0 => 0.0,
        1 => 1.0,
        2 => f64::NAN,
        3 => f64::MIN_POSITIVE,
        4 => JUST_BELOW_ONE,
        5 => -0.5,
        6 => 2.0,
        // Small enough that a small population often selects no one.
        7 => random * 1e-3,
        _ => random,
    }
}

fn bits(sum: Option<Vec<f64>>) -> Option<Vec<u64>> {
    sum.map(|s| s.iter().map(|v| v.to_bits()).collect())
}

/// A cohort of `n` distinct ascending ids drawn from `rng`.
fn random_cohort(rng: &mut StdRng, n: usize) -> Vec<u64> {
    let mut next = rng.next_u64() % 64;
    (0..n)
        .map(|_| {
            next += 1 + rng.next_u64() % 40;
            next
        })
        .collect()
}

/// Which members survive: all, all but one, just one, or a random half.
fn survivors_of(rng: &mut StdRng, members: &[u64], dropout: usize) -> Vec<u64> {
    let n = members.len();
    let pick = (rng.next_u64() % n as u64) as usize;
    let mut alive: Vec<u64> = match dropout {
        0 => members.to_vec(),
        1 => members
            .iter()
            .copied()
            .filter(|&d| d != members[pick])
            .collect(),
        2 => vec![members[pick]],
        _ => members
            .iter()
            .copied()
            .filter(|_| rng.next_u64() & 1 == 1)
            .collect(),
    };
    // Submissions arrive in any order; the fold is ascending regardless.
    for i in (1..alive.len()).rev() {
        alive.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    alive
}

/// Arbitrary masked words (NaN and subnormal patterns included).
fn submissions(rng: &mut StdRng, ids: &[u64], dim: usize) -> Vec<(u64, Vec<u64>)> {
    ids.iter()
        .map(|&d| (d, (0..dim).map(|_| rng.next_u64()).collect()))
        .collect()
}

/// Dimensions at, around and between multiples of the block size.
fn dimension(pick: usize, random: usize) -> usize {
    match pick {
        0 => 0,
        1 => 1,
        2 => FINALIZE_BLOCK - 1,
        3 => FINALIZE_BLOCK,
        4 => FINALIZE_BLOCK + 1,
        5 => 2 * FINALIZE_BLOCK,
        _ => random,
    }
}

fn assert_finalize_matches_the_reference(
    seed: u64,
    members: &[u64],
    dropout: usize,
    dim: usize,
    rng: &mut StdRng,
) {
    let alive = survivors_of(rng, members, dropout);
    let subs = submissions(rng, &alive, dim);
    let got = bits(finalize_sum(seed, members, &subs, dim));
    assert!(got.is_some(), "members with the right dim are accepted");
    assert_eq!(got, bits(spec::finalize_sum(seed, members, &subs, dim)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn cohort_and_role_of_match_the_reference(
        seed in any::<u64>(),
        population in 0u64..=2048,
        pick in 0usize..10,
        random in 1e-9f64..1.0,
    ) {
        let f = fraction(pick, random);
        let expected = spec::cohort(seed, population, f);
        prop_assert_eq!(&cohort(seed, population, f), &expected);
        // Every id of a small population, and a sample of a large one.
        let step = (population / 64).max(1);
        for d in (0..population + 2).step_by(step as usize) {
            let role = if expected.binary_search(&d).is_ok() {
                Role::Selected
            } else {
                Role::Unselected
            };
            prop_assert_eq!(role_of(seed, d, population, f), role);
            prop_assert_eq!(is_selected(seed, d, f), spec::is_selected(seed, d, f));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn finalize_matches_the_reference_over_complete_cohorts(
        seed in any::<u64>(),
        n in 1usize..=9,
        dropout in 0usize..4,
        dim_pick in 0usize..8,
        random_dim in 0usize..400,
        draws in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(draws);
        let members = random_cohort(&mut rng, n);
        let dim = dimension(dim_pick, random_dim);
        assert_finalize_matches_the_reference(seed, &members, dropout, dim, &mut rng);
    }

    #[test]
    fn finalize_matches_the_reference_over_ring_cohorts(
        seed in any::<u64>(),
        n in 10usize..160,
        dropout in 0usize..4,
        dim_pick in 0usize..8,
        random_dim in 0usize..400,
        draws in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(draws);
        let members = random_cohort(&mut rng, n);
        let dim = dimension(dim_pick, random_dim);
        assert_finalize_matches_the_reference(seed, &members, dropout, dim, &mut rng);
    }

    #[test]
    fn finalize_refuses_what_the_reference_refuses(
        seed in any::<u64>(),
        n in 1usize..40,
        dim in 1usize..300,
        draws in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(draws);
        let members = random_cohort(&mut rng, n);
        let mut subs = submissions(&mut rng, &members, dim);
        let victim = (rng.next_u64() % n as u64) as usize;
        // A wrong word count.
        let mut short = subs.clone();
        short[victim].1.pop();
        prop_assert!(finalize_sum(seed, &members, &short, dim).is_none());
        prop_assert!(spec::finalize_sum(seed, &members, &short, dim).is_none());
        // A survivor outside the cohort (ids are ascending, so past the last).
        subs[victim].0 = members[n - 1] + 1;
        prop_assert!(finalize_sum(seed, &members, &subs, dim).is_none());
        prop_assert!(spec::finalize_sum(seed, &members, &subs, dim).is_none());
    }
}

#[test]
fn the_selection_fallbacks_match_the_reference() {
    let seed = round_seed(3, 9);
    for population in [0u64, 1, 2, 7] {
        for f in [0.0, f64::NAN, f64::MIN_POSITIVE, -1.0] {
            // Nobody is selected, so everyone is.
            let everyone: Vec<u64> = (0..population).collect();
            assert_eq!(cohort(seed, population, f), everyone);
            assert_eq!(spec::cohort(seed, population, f), everyone);
            for d in 0..population + 2 {
                let role = if d < population {
                    Role::Selected
                } else {
                    Role::Unselected
                };
                assert_eq!(role_of(seed, d, population, f), role);
            }
        }
    }
    assert_eq!(
        cohort(seed, 300, JUST_BELOW_ONE),
        spec::cohort(seed, 300, JUST_BELOW_ONE)
    );
}

#[test]
fn the_mask_graph_edges_are_its_neighbour_relation_once_each() {
    for n in [0usize, 1, 2, 8, 9, 10, 11, 64, 257] {
        let members = random_cohort(&mut StdRng::seed_from_u64(n as u64), n);
        let ring = MaskRing::new(round_seed(8, n as u64), &members);
        let mut from_edges: Vec<(u64, u64)> = ring
            .edges()
            .map(|(p, q)| {
                let (a, b) = (ring.slots[p].1, ring.slots[q].1);
                (a.min(b), a.max(b))
            })
            .collect();
        from_edges.sort_unstable();
        let edge_count = from_edges.len();
        from_edges.dedup();
        assert_eq!(
            from_edges.len(),
            edge_count,
            "n = {n}: an edge visited twice"
        );
        let mut from_neighbours: Vec<(u64, u64)> = (0..n)
            .flat_map(|pos| {
                let d = ring.slots[pos].1;
                ring.neighbours(pos).map(move |peer| (d, peer))
            })
            .filter(|(d, peer)| d < peer)
            .collect();
        from_neighbours.sort_unstable();
        assert_eq!(from_edges, from_neighbours, "n = {n}");
    }
}

#[test]
fn a_survivor_listed_twice_folds_twice_like_the_reference() {
    let seed = round_seed(4, 4);
    let mut rng = StdRng::seed_from_u64(4);
    for n in [5usize, 40] {
        let members = random_cohort(&mut rng, n);
        let dim = FINALIZE_BLOCK + 3;
        let mut subs = submissions(&mut rng, &members[1..], dim);
        subs.extend(submissions(&mut rng, &members[2..3], dim));
        assert_eq!(
            bits(finalize_sum(seed, &members, &subs, dim)),
            bits(spec::finalize_sum(seed, &members, &subs, dim))
        );
    }
}
