//! Seeded random vector constructors.
//!
//! Every stochastic component in the workspace takes an explicit `&mut impl Rng`
//! so experiments are reproducible from a single seed. This module centralizes the
//! primitive samplers (standard normal via Box–Muller, uniform permutations).

use crate::vector::Vector;
use rand::Rng;

/// Draws a standard normal variate using the Box–Muller transform.
///
/// Implemented locally (rather than via `rand_distr`) to keep the dependency
/// surface to the pre-approved crates.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid log(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// A vector of independent standard normal entries.
pub fn normal_vector<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vector {
    Vector::from_vec((0..len).map(|_| standard_normal(rng)).collect())
}

/// Fisher–Yates shuffle of indices `0..n`, returned as a permutation vector.
pub fn permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn shifted_normal_has_requested_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mean = (0..n).map(|_| normal(&mut rng, 5.0, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        assert_eq!(
            normal_vector(&mut a, 16).as_slice(),
            normal_vector(&mut b, 16).as_slice()
        );
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = permutation(&mut rng, 100);
        let mut seen = vec![false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn permutation_of_zero_and_one() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(permutation(&mut rng, 0).is_empty());
        assert_eq!(permutation(&mut rng, 1), vec![0]);
    }
}
