//! Property tests for the cohort masking scheme: over random cohorts,
//! dropout patterns, dimensions, and gradients, the finalized masked sum is
//! **bitwise identical** to the unmasked sum of the same survivors — and a
//! single observed submission is not the raw gradient.

use crowd_rounds::{cohort, finalize_sum, mask, net_mask, round_seed, unmask};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-device gradient for the property body.
fn gradient(seed: u64, device_id: u64, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ device_id.rotate_left(17));
    (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Finalizing any surviving subset of a random cohort through the masked
    /// path lands bitwise on the plain ascending sum of the survivors' raw
    /// gradients, whatever subset dropped out mid-round.
    #[test]
    fn masked_finalization_is_bitwise_identical_to_the_unmasked_sum(
        base_seed in any::<u64>(),
        round_id in 1u64..1000,
        population in 2u64..200,
        fraction in 0.2f64..1.0,
        dim in 1usize..12,
        drop_bits in any::<u32>(),
    ) {
        let seed = round_seed(base_seed, round_id);
        let members = cohort(seed, population, fraction);
        prop_assume!(!members.is_empty());

        // Random dropout pattern over the cohort (bit i drops member i).
        let survivors: Vec<u64> = members
            .iter()
            .enumerate()
            .filter(|(i, _)| drop_bits >> (i % 32) & 1 == 0)
            .map(|(_, &d)| d)
            .collect();

        let submissions: Vec<(u64, Vec<u64>)> = survivors
            .iter()
            .map(|&d| {
                let g = gradient(base_seed, d, dim);
                let m = net_mask(seed, d, &members, dim);
                (d, mask(&g, &m))
            })
            .collect();
        let finalized = finalize_sum(seed, &members, &submissions, dim)
            .expect("survivors are cohort members with matching dims");

        // The reference: raw gradients summed in the same ascending order.
        let mut reference = vec![0.0f64; dim];
        for &d in &survivors {
            for (acc, g) in reference.iter_mut().zip(gradient(base_seed, d, dim)) {
                *acc += g;
            }
        }
        let finalized_bits: Vec<u64> = finalized.iter().map(|v| v.to_bits()).collect();
        let reference_bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(finalized_bits, reference_bits);
    }

    /// What the server observes from one device is NOT the raw gradient: in
    /// any cohort of at least two, every masked word differs from the raw
    /// IEEE-754 bits unless that word's pairwise masks cancelled by chance
    /// (a per-word net mask of zero — vanishingly rare and checked for).
    #[test]
    fn a_single_submission_does_not_reveal_the_raw_gradient(
        base_seed in any::<u64>(),
        round_id in 1u64..1000,
        population in 2u64..200,
        dim in 1usize..12,
    ) {
        let seed = round_seed(base_seed, round_id);
        let members = cohort(seed, population, 1.0);
        prop_assume!(members.len() >= 2);
        let device = members[0];
        let g = gradient(base_seed, device, dim);
        let m = net_mask(seed, device, &members, dim);
        let words = mask(&g, &m);
        for i in 0..dim {
            if m[i] != 0 {
                prop_assert_ne!(
                    words[i],
                    g[i].to_bits(),
                    "masked word {} leaked the raw gradient bits", i
                );
            }
        }
        // And the mask is actually doing work: with ≥2 members the net mask
        // is nonzero somewhere for this generator's seeds.
        prop_assert!(m.iter().any(|&w| w != 0), "net mask was identically zero");
        // Unmasking with the right mask recovers the exact bits (losslessness
        // of the wrapping construction).
        let recovered = unmask(&words, &m);
        let recovered_bits: Vec<u64> = recovered.iter().map(|v| v.to_bits()).collect();
        let original_bits: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(recovered_bits, original_bits);
    }
}
