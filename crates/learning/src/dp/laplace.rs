//! The Laplace mechanism for real-valued vectors (Eq. 9–10 of the paper).
//!
//! A vector-valued function `f` with L1 sensitivity `S(f)` is made ε-differentially
//! private by adding i.i.d. Laplace noise with density `P(z) ∝ exp(−ε‖z‖₁ / S(f))`,
//! i.e. per-coordinate scale `S(f)/ε` (Dwork et al., 2006; Proposition 1 of \[3\] in
//! the paper). Crowd-ML applies this to the averaged minibatch gradient, whose
//! sensitivity for multiclass logistic regression is `4/b` (Appendix A), and the
//! centralized baseline applies it to raw features with sensitivity 2 (Appendix C).

use super::Epsilon;
use crate::{LearningError, Result};
use crowd_linalg::Vector;
use rand::Rng;

/// Samples one Laplace(0, `scale`) variate by inverse-CDF.
pub fn sample_laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    debug_assert!(scale > 0.0, "Laplace scale must be positive");
    // u uniform in (-0.5, 0.5]; inverse CDF of the Laplace distribution.
    let u: f64 = rng.gen::<f64>() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// The Laplace mechanism calibrated to a given L1 sensitivity and privacy level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: Epsilon,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism for a function with the given L1 `sensitivity` at privacy
    /// level `epsilon`.
    pub fn new(epsilon: Epsilon, sensitivity: f64) -> Result<Self> {
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(LearningError::InvalidSensitivity(sensitivity));
        }
        Ok(LaplaceMechanism {
            epsilon,
            sensitivity,
        })
    }

    /// The per-coordinate noise scale `S(f)/ε`; zero in the non-private limit.
    pub fn scale(&self) -> f64 {
        match self.epsilon {
            Epsilon::NonPrivate => 0.0,
            Epsilon::Finite(eps) => self.sensitivity / eps,
        }
    }

    /// The privacy level this mechanism provides.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The sensitivity bound the mechanism was calibrated to.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// Variance of each noise coordinate, `2·scale²` (used in Eq. 13's noise
    /// budget `32 D / (b ε_g)²` — with scale `4/(b ε_g)` this is `32/(b ε_g)²`
    /// per coordinate).
    pub fn noise_variance(&self) -> f64 {
        let s = self.scale();
        2.0 * s * s
    }

    /// Adds calibrated noise to a scalar.
    pub fn perturb_scalar<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        let scale = self.scale();
        if scale == 0.0 {
            value
        } else {
            value + sample_laplace(rng, scale)
        }
    }

    /// Returns a perturbed copy of `value` with i.i.d. noise on every coordinate.
    pub fn perturb_vector<R: Rng + ?Sized>(&self, rng: &mut R, value: &Vector) -> Vector {
        let scale = self.scale();
        if scale == 0.0 {
            return value.clone();
        }
        Vector::from_vec(
            value
                .iter()
                .map(|&v| v + sample_laplace(rng, scale))
                .collect(),
        )
    }

    /// Perturbs a vector in place.
    pub fn perturb_vector_in_place<R: Rng + ?Sized>(&self, rng: &mut R, value: &mut Vector) {
        let scale = self.scale();
        if scale == 0.0 {
            return;
        }
        value.map_in_place(|v| v + sample_laplace(rng, scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_linalg::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_sensitivity() {
        let eps = Epsilon::finite(1.0).unwrap();
        assert!(LaplaceMechanism::new(eps, 0.0).is_err());
        assert!(LaplaceMechanism::new(eps, -1.0).is_err());
        assert!(LaplaceMechanism::new(eps, f64::NAN).is_err());
        assert!(LaplaceMechanism::new(eps, 2.0).is_ok());
    }

    #[test]
    fn scale_matches_definition() {
        let m = LaplaceMechanism::new(Epsilon::finite(0.5).unwrap(), 4.0).unwrap();
        assert_eq!(m.scale(), 8.0);
        assert_eq!(m.noise_variance(), 128.0);
        let np = LaplaceMechanism::new(Epsilon::non_private(), 4.0).unwrap();
        assert_eq!(np.scale(), 0.0);
        assert_eq!(np.noise_variance(), 0.0);
    }

    #[test]
    fn non_private_is_identity() {
        let m = LaplaceMechanism::new(Epsilon::non_private(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let v = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        assert_eq!(m.perturb_vector(&mut rng, &v), v);
        assert_eq!(m.perturb_scalar(&mut rng, 7.0), 7.0);
    }

    #[test]
    fn noise_moments_match_laplace_distribution() {
        // Laplace(0, s) has mean 0 and variance 2 s².
        let m = LaplaceMechanism::new(Epsilon::finite(2.0).unwrap(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| m.perturb_scalar(&mut rng, 0.0))
            .collect();
        let mean = stats::mean(&samples);
        let var = stats::variance(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!(
            (var - m.noise_variance()).abs() / m.noise_variance() < 0.1,
            "var {var}"
        );
    }

    #[test]
    fn gradient_calibration_matches_paper() {
        // Eq. (10): scale 4/(b ε_g) per coordinate for minibatch size b.
        let b = 20.0;
        let eps_g = 10.0;
        let m = LaplaceMechanism::new(Epsilon::finite(eps_g).unwrap(), 4.0 / b).unwrap();
        assert!((m.scale() - 4.0 / (b * eps_g)).abs() < 1e-15);
        // Eq. (13): per-coordinate variance 32/(b ε_g)².
        assert!((m.noise_variance() - 32.0 / (b * eps_g).powi(2)).abs() < 1e-15);
    }

    #[test]
    fn perturb_vector_in_place_changes_values_when_private() {
        let m = LaplaceMechanism::new(Epsilon::finite(1.0).unwrap(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = Vector::zeros(32);
        m.perturb_vector_in_place(&mut rng, &mut v);
        assert!(v.norm_l1() > 0.0);
        assert!(v.is_finite());
    }

    #[test]
    fn sample_laplace_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 40_000;
        let positives = (0..n)
            .filter(|_| sample_laplace(&mut rng, 1.0) > 0.0)
            .count();
        let frac = positives as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive fraction {frac}");
    }
}
