//! Device-side sanitization (Device Routine 3).
//!
//! Everything that leaves a device passes through the [`Sanitizer`]:
//!
//! * the averaged gradient gets element-wise Laplace noise calibrated to the
//!   `4/b` sensitivity of the averaged multiclass-logistic gradient (Eq. 10,
//!   Theorem 1);
//! * the misclassification count and each label count get discrete Laplace noise
//!   (Eqs. 11–12, Theorem 2).
//!
//! The sanitizer is constructed per checkin from the privacy configuration and the
//! number of samples the gradient actually *averages* — the minibatch minus any
//! samples held out for error estimation (Remark 2) — because the sensitivity (and
//! hence the noise scale) depends on the averaged batch size.

use crate::config::PrivacyConfig;
use crate::Result;
use crowd_learning::dp::sensitivity::averaged_logistic_gradient;
use crowd_learning::dp::{DiscreteLaplaceMechanism, LaplaceMechanism};
use crowd_linalg::Vector;
use rand::Rng;

/// The sanitized payload produced from raw minibatch statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizedStats {
    /// The perturbed averaged gradient `ĝ`.
    pub gradient: Vector,
    /// The perturbed misclassification count `n̂_e` (may be negative).
    pub error_count: i64,
    /// The perturbed per-class label counts `n̂_y^k` (may be negative).
    pub label_counts: Vec<i64>,
}

/// Applies the paper's local privacy mechanisms to one minibatch's statistics.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    gradient_mechanism: LaplaceMechanism,
    counter_mechanism: DiscreteLaplaceMechanism,
    label_mechanism: DiscreteLaplaceMechanism,
}

impl Sanitizer {
    /// Builds a sanitizer for a gradient averaged over `batch_size` samples
    /// under the given privacy configuration.
    pub fn new(privacy: &PrivacyConfig, batch_size: usize) -> Result<Self> {
        let sensitivity = averaged_logistic_gradient(batch_size);
        let gradient_mechanism = LaplaceMechanism::new(privacy.budget.gradient, sensitivity)?;
        Ok(Sanitizer {
            gradient_mechanism,
            counter_mechanism: DiscreteLaplaceMechanism::new(privacy.budget.error_count),
            label_mechanism: DiscreteLaplaceMechanism::new(privacy.budget.label_count),
        })
    }

    /// The per-coordinate Laplace scale applied to the gradient (`4/(b·ε_g)`).
    pub fn gradient_noise_scale(&self) -> f64 {
        self.gradient_mechanism.scale()
    }

    /// Sanitizes one minibatch's statistics, perturbing a copy of the
    /// gradient (a device hands over its own gradient instead).
    pub fn sanitize<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        gradient: &Vector,
        num_errors: usize,
        label_counts: &[u64],
    ) -> SanitizedStats {
        self.sanitize_owned(rng, gradient.clone(), num_errors, label_counts)
    }

    /// Sanitizes one minibatch's statistics, perturbing the owned gradient in
    /// place — in the non-private limit the gradient is not touched at all.
    pub(crate) fn sanitize_owned<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut gradient: Vector,
        num_errors: usize,
        label_counts: &[u64],
    ) -> SanitizedStats {
        self.gradient_mechanism
            .perturb_vector_in_place(rng, &mut gradient);
        let error_count = self.counter_mechanism.perturb_count(rng, num_errors as i64);
        let label_counts = label_counts
            .iter()
            .map(|&c| self.label_mechanism.perturb_count(rng, c as i64))
            .collect();
        SanitizedStats {
            gradient,
            error_count,
            label_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrivacyConfig;
    use crowd_linalg::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn non_private_sanitizer_is_identity() {
        let s = Sanitizer::new(&PrivacyConfig::non_private(), 10).unwrap();
        assert_eq!(s.gradient_noise_scale(), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let g = Vector::from_vec(vec![0.5, -0.5, 1.0]);
        let out = s.sanitize(&mut rng, &g, 3, &[1, 2, 0]);
        assert_eq!(out.gradient, g);
        assert_eq!(out.error_count, 3);
        assert_eq!(out.label_counts, vec![1, 2, 0]);
    }

    #[test]
    fn noise_scale_matches_eq_10() {
        // ε total 1.0 split 99/1: ε_g = 0.99, b = 20 → scale = 4/(20·0.99).
        let privacy = PrivacyConfig::with_total_epsilon(1.0);
        let s = Sanitizer::new(&privacy, 20).unwrap();
        let expected = 4.0 / (20.0 * 0.99);
        assert!((s.gradient_noise_scale() - expected).abs() < 1e-12);
        // Larger minibatch → proportionally less noise.
        let s1 = Sanitizer::new(&privacy, 1).unwrap();
        assert!((s1.gradient_noise_scale() / s.gradient_noise_scale() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn private_sanitizer_perturbs_every_component() {
        let privacy = PrivacyConfig::with_total_epsilon(0.5);
        let s = Sanitizer::new(&privacy, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let g = Vector::zeros(50);
        let out = s.sanitize(&mut rng, &g, 0, &[0; 10]);
        assert!(out.gradient.norm_l1() > 0.0);
        // With a tiny counter budget, noise on counters should frequently be
        // non-zero across repeated draws.
        let mut changed = 0;
        for _ in 0..200 {
            let o = s.sanitize(&mut rng, &g, 0, &[0; 3]);
            if o.error_count != 0 || o.label_counts.iter().any(|&c| c != 0) {
                changed += 1;
            }
        }
        assert!(changed > 150, "counters changed only {changed}/200 times");
    }

    #[test]
    fn gradient_noise_variance_scales_with_batch_size() {
        // Empirically verify the 1/b² variance reduction of Eq. 13's Laplace term.
        let privacy = PrivacyConfig::with_total_epsilon(1.0);
        let small = Sanitizer::new(&privacy, 1).unwrap();
        let large = Sanitizer::new(&privacy, 20).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let g = Vector::zeros(1);
        let draw = |s: &Sanitizer, rng: &mut StdRng| -> Vec<f64> {
            (0..20_000)
                .map(|_| s.sanitize(rng, &g, 0, &[]).gradient[0])
                .collect()
        };
        let var_small = stats::variance(&draw(&small, &mut rng));
        let var_large = stats::variance(&draw(&large, &mut rng));
        let ratio = var_small / var_large;
        assert!(
            (ratio - 400.0).abs() / 400.0 < 0.25,
            "variance ratio {ratio}, expected ≈400"
        );
    }

    #[test]
    fn sanitization_is_reproducible_per_seed() {
        let privacy = PrivacyConfig::with_total_epsilon(2.0);
        let s = Sanitizer::new(&privacy, 5).unwrap();
        let g = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let a = s.sanitize(&mut StdRng::seed_from_u64(7), &g, 2, &[1, 1, 3]);
        let b = s.sanitize(&mut StdRng::seed_from_u64(7), &g, 2, &[1, 1, 3]);
        assert_eq!(a, b);
    }
}
