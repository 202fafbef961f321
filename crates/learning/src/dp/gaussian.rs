//! The Gaussian mechanism for (ε, δ)-differential privacy.
//!
//! Footnote 1 of the paper notes that "(ε, δ)-differential privacy can be achieved
//! by adding Gaussian noise" as a variant of the gradient perturbation. This module
//! implements the classical calibration `σ ≥ √(2 ln(1.25/δ)) · S₂(f) / ε` for an
//! L2 sensitivity bound `S₂(f)` (Dwork & Roth, 2014), and is used by the
//! `ablation_mechanism` benchmark to compare Laplace and Gaussian gradient
//! perturbation.

use super::Epsilon;
use crate::{LearningError, Result};
use crowd_linalg::random::standard_normal;
use crowd_linalg::Vector;
use rand::Rng;

/// The Gaussian mechanism calibrated to an L2 sensitivity, ε, and δ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMechanism {
    epsilon: Epsilon,
    delta: f64,
    l2_sensitivity: f64,
}

impl GaussianMechanism {
    /// Creates a mechanism with failure probability `delta` in `(0, 1)` and the
    /// given L2 sensitivity.
    pub fn new(epsilon: Epsilon, delta: f64, l2_sensitivity: f64) -> Result<Self> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(LearningError::InvalidDelta(delta));
        }
        if !(l2_sensitivity.is_finite() && l2_sensitivity > 0.0) {
            return Err(LearningError::InvalidSensitivity(l2_sensitivity));
        }
        Ok(GaussianMechanism {
            epsilon,
            delta,
            l2_sensitivity,
        })
    }

    /// The calibrated noise standard deviation; zero in the non-private limit.
    pub fn sigma(&self) -> f64 {
        match self.epsilon {
            Epsilon::NonPrivate => 0.0,
            Epsilon::Finite(eps) => {
                (2.0 * (1.25 / self.delta).ln()).sqrt() * self.l2_sensitivity / eps
            }
        }
    }

    /// The privacy level ε.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The failure probability δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Per-coordinate noise variance `σ²`.
    pub fn noise_variance(&self) -> f64 {
        let s = self.sigma();
        s * s
    }

    /// Adds calibrated Gaussian noise to a scalar.
    pub fn perturb_scalar<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        let sigma = self.sigma();
        if sigma == 0.0 {
            value
        } else {
            value + sigma * standard_normal(rng)
        }
    }

    /// Returns a perturbed copy of `value` with i.i.d. Gaussian noise per coordinate.
    pub fn perturb_vector<R: Rng + ?Sized>(&self, rng: &mut R, value: &Vector) -> Vector {
        let sigma = self.sigma();
        if sigma == 0.0 {
            return value.clone();
        }
        Vector::from_vec(
            value
                .iter()
                .map(|&v| v + sigma * standard_normal(rng))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_linalg::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        let eps = Epsilon::finite(1.0).unwrap();
        assert!(GaussianMechanism::new(eps, 0.0, 1.0).is_err());
        assert!(GaussianMechanism::new(eps, 1.0, 1.0).is_err());
        assert!(GaussianMechanism::new(eps, 1e-5, 0.0).is_err());
        assert!(GaussianMechanism::new(eps, 1e-5, 1.0).is_ok());
    }

    #[test]
    fn sigma_matches_closed_form() {
        let m = GaussianMechanism::new(Epsilon::finite(2.0).unwrap(), 1e-5, 0.5).unwrap();
        let expected = (2.0 * (1.25 / 1e-5_f64).ln()).sqrt() * 0.5 / 2.0;
        assert!((m.sigma() - expected).abs() < 1e-12);
        assert!((m.noise_variance() - expected * expected).abs() < 1e-12);
    }

    #[test]
    fn non_private_is_identity() {
        let m = GaussianMechanism::new(Epsilon::non_private(), 1e-5, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let v = Vector::from_vec(vec![1.0, 2.0]);
        assert_eq!(m.perturb_vector(&mut rng, &v), v);
        assert_eq!(m.perturb_scalar(&mut rng, 3.0), 3.0);
        assert_eq!(m.sigma(), 0.0);
    }

    #[test]
    fn noise_variance_is_realized_empirically() {
        let m = GaussianMechanism::new(Epsilon::finite(1.0).unwrap(), 1e-3, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..40_000)
            .map(|_| m.perturb_scalar(&mut rng, 0.0))
            .collect();
        let var = stats::variance(&samples);
        assert!((var - m.noise_variance()).abs() / m.noise_variance() < 0.1);
        assert!(stats::mean(&samples).abs() < 0.1);
    }

    #[test]
    fn stronger_privacy_increases_sigma() {
        let strict = GaussianMechanism::new(Epsilon::finite(0.1).unwrap(), 1e-5, 1.0).unwrap();
        let loose = GaussianMechanism::new(Epsilon::finite(10.0).unwrap(), 1e-5, 1.0).unwrap();
        assert!(strict.sigma() > loose.sigma());
    }
}
