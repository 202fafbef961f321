//! The discrete Laplace (two-sided geometric) mechanism for integer counters
//! (Eqs. 11–12 and Theorem 2 of the paper).
//!
//! A device reports its misclassification count `n_e` and per-class label counts
//! `n_y^k` perturbed with integer noise `z ∈ {0, ±1, ±2, …}` drawn from
//! `P(z) ∝ exp(−(ε/2)·|z|)`. Changing a single sample changes each counter by at
//! most 1, so this is ε-differentially private per counter (equivalently, an
//! exponential mechanism with score `−|n̂ − n|`; see Appendix B). The noise has
//! zero mean and variance `2 e^{−ε/2} / (1 − e^{−ε/2})²` (Inusah & Kozubowski,
//! 2006), which Remark 2 of Appendix B uses to argue the server-side error
//! estimates remain consistent.

use super::Epsilon;
use crate::{LearningError, Result};
use rand::Rng;

/// The discrete Laplace mechanism with parameter `p = exp(−ε/2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteLaplaceMechanism {
    epsilon: Epsilon,
    /// `p = exp(−ε/2)`, computed once: every draw needs it.
    p: f64,
    /// `ln p`, the divisor of every geometric inversion.
    ln_p: f64,
}

impl DiscreteLaplaceMechanism {
    /// Creates a mechanism at privacy level `epsilon` for counters whose
    /// per-sample sensitivity is 1 (the case in the paper).
    pub fn new(epsilon: Epsilon) -> Self {
        let p = match epsilon {
            Epsilon::NonPrivate => 0.0,
            Epsilon::Finite(eps) => (-eps / 2.0).exp(),
        };
        DiscreteLaplaceMechanism {
            epsilon,
            p,
            ln_p: p.ln(),
        }
    }

    /// The privacy level of the mechanism.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The geometric parameter `p = exp(−ε/2)`; zero in the non-private limit.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Variance of the added noise: `2p / (1 − p)²`.
    pub fn noise_variance(&self) -> f64 {
        let p = self.p();
        if p == 0.0 {
            0.0
        } else {
            2.0 * p / ((1.0 - p) * (1.0 - p))
        }
    }

    /// Samples one discrete Laplace variate.
    ///
    /// The two-sided geometric distribution is the difference of two independent
    /// geometric variables with success probability `1 − p`.
    pub fn sample_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        if self.p == 0.0 {
            return 0;
        }
        let g1 = geometric_by_inversion(rng, self.ln_p);
        let g2 = geometric_by_inversion(rng, self.ln_p);
        g1 - g2
    }

    /// Perturbs an integer counter.
    pub fn perturb_count<R: Rng + ?Sized>(&self, rng: &mut R, count: i64) -> i64 {
        count + self.sample_noise(rng)
    }
}

/// Samples from the geometric distribution on `{0, 1, 2, …}` with
/// `P(k) = (1 − p)·p^k`, `0 < p < 1`, using inversion. Takes `ln p`, which
/// the mechanism computes once.
fn geometric_by_inversion<R: Rng + ?Sized>(rng: &mut R, ln_p: f64) -> i64 {
    debug_assert!(ln_p < 0.0 && ln_p.is_finite());
    // Inversion: k = floor(ln(u) / ln(p)) for u uniform in (0, 1).
    let u: f64 = 1.0 - rng.gen::<f64>(); // in (0, 1]
    let k = (u.ln() / ln_p).floor();
    // Guard against pathological floating point results.
    if k.is_finite() && k >= 0.0 {
        k as i64
    } else {
        0
    }
}

/// [`geometric_by_inversion`] from `p` itself, with `p = 0` drawing nothing.
#[cfg(test)]
fn sample_geometric<R: Rng + ?Sized>(rng: &mut R, p: f64) -> i64 {
    debug_assert!((0.0..1.0).contains(&p));
    if p == 0.0 {
        return 0;
    }
    geometric_by_inversion(rng, p.ln())
}

/// Validates a finite ε intended for counter perturbation. Provided for callers
/// that want an explicit error rather than the permissive `new`.
pub fn validated(epsilon: f64) -> Result<DiscreteLaplaceMechanism> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(LearningError::InvalidEpsilon(epsilon));
    }
    Ok(DiscreteLaplaceMechanism::new(Epsilon::Finite(epsilon)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_linalg::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_p_matches_definition() {
        let m = DiscreteLaplaceMechanism::new(Epsilon::finite(2.0).unwrap());
        assert!((m.p() - (-1.0_f64).exp()).abs() < 1e-15);
        assert_eq!(
            DiscreteLaplaceMechanism::new(Epsilon::non_private()).p(),
            0.0
        );
    }

    #[test]
    fn non_private_adds_no_noise() {
        let m = DiscreteLaplaceMechanism::new(Epsilon::non_private());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.perturb_count(&mut rng, 42), 42);
        assert_eq!(m.noise_variance(), 0.0);
    }

    #[test]
    fn noise_mean_is_zero_and_variance_matches_formula() {
        let m = DiscreteLaplaceMechanism::new(Epsilon::finite(1.0).unwrap());
        let mut rng = StdRng::seed_from_u64(13);
        let samples: Vec<f64> = (0..60_000)
            .map(|_| m.sample_noise(&mut rng) as f64)
            .collect();
        let mean = stats::mean(&samples);
        let var = stats::variance(&samples);
        assert!(mean.abs() < 0.05, "mean {mean}");
        let expected = m.noise_variance();
        assert!(
            (var - expected).abs() / expected < 0.1,
            "variance {var}, expected {expected}"
        );
    }

    #[test]
    fn stronger_privacy_means_more_noise() {
        let tight = DiscreteLaplaceMechanism::new(Epsilon::finite(0.1).unwrap());
        let loose = DiscreteLaplaceMechanism::new(Epsilon::finite(10.0).unwrap());
        assert!(tight.noise_variance() > loose.noise_variance());
    }

    #[test]
    fn perturbed_counts_can_be_negative() {
        // The paper notes (Appendix B, Remark 2) that perturbed counts may go
        // negative; the mechanism must not clamp them.
        let m = DiscreteLaplaceMechanism::new(Epsilon::finite(0.1).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let perturbed: Vec<i64> = (0..2000).map(|_| m.perturb_count(&mut rng, 0)).collect();
        assert!(perturbed.iter().any(|&x| x < 0));
        assert!(perturbed.iter().any(|&x| x > 0));
    }

    #[test]
    fn geometric_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let p: f64 = 0.6;
        let n = 50_000;
        let mean = (0..n)
            .map(|_| sample_geometric(&mut rng, p) as f64)
            .sum::<f64>()
            / n as f64;
        // Geometric on {0,1,...} with P(k) = (1-p) p^k has mean p/(1-p) = 1.5.
        assert!((mean - 1.5).abs() < 0.05, "mean {mean}");
        assert_eq!(sample_geometric(&mut rng, 0.0), 0);
    }

    #[test]
    fn validated_constructor() {
        assert!(validated(0.5).is_ok());
        assert!(validated(0.0).is_err());
        assert!(validated(f64::INFINITY).is_err());
    }
}
