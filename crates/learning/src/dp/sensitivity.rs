//! Closed-form sensitivity bounds used to calibrate the mechanisms.
//!
//! Appendix A derives the L1 sensitivity of the *averaged* multiclass-logistic
//! gradient over a minibatch of size `b` as `4/b`, assuming features are
//! L1-normalized (`‖x‖₁ ≤ 1`). Appendix C notes the identity "release the feature
//! itself" has sensitivity 2 under the same normalization, and that counter
//! queries (error counts, label counts) have sensitivity 1. This module collects
//! those constants plus a generic gradient-clipping helper that enforces a chosen
//! L1 bound when a loss without a closed-form bound is used.

use crowd_linalg::Vector;

/// L1 sensitivity of the averaged multiclass-logistic gradient for minibatch size
/// `b` with `‖x‖₁ ≤ 1` (Appendix A): `S = 4/b`.
///
/// `b` is clamped to at least 1.
pub fn averaged_logistic_gradient(b: usize) -> f64 {
    4.0 / (b.max(1) as f64)
}

/// L1 sensitivity of releasing an L1-normalized feature vector directly
/// (Appendix C): replacing one sample swaps one vector for another, each with
/// `‖x‖₁ ≤ 1`, so the release changes by at most 2.
pub fn feature_release() -> f64 {
    2.0
}

/// L1 sensitivity of the averaged hinge-loss (linear SVM) gradient under the same
/// normalization. A single-sample subgradient is bounded by `‖x‖₁ + ‖x‖₁ ≤ 2` per
/// class pair, giving the same `4/b` bound used for logistic regression.
pub fn averaged_hinge_gradient(b: usize) -> f64 {
    4.0 / (b.max(1) as f64)
}

/// Clips a gradient vector to a maximum L1 norm, returning the scaling factor that
/// was applied (1.0 when no clipping was necessary).
///
/// Clipping lets a deployment bound the sensitivity of losses without a closed-form
/// bound: after clipping to `max_l1`, the averaged gradient over a minibatch of
/// size `b` has sensitivity at most `2·max_l1/b`.
pub fn clip_l1(gradient: &mut Vector, max_l1: f64) -> f64 {
    debug_assert!(max_l1 > 0.0);
    let norm = gradient.norm_l1();
    if norm <= max_l1 || norm == 0.0 {
        return 1.0;
    }
    let scale = max_l1 / norm;
    gradient.scale(scale);
    scale
}

/// Sensitivity of an averaged, L1-clipped gradient: `2·max_l1/b`.
pub fn averaged_clipped_gradient(max_l1: f64, b: usize) -> f64 {
    2.0 * max_l1 / (b.max(1) as f64)
}

/// Clips a gradient to a maximum L2 norm (used by the Gaussian-mechanism ablation),
/// returning the applied scaling factor.
pub fn clip_l2(gradient: &mut Vector, max_l2: f64) -> f64 {
    debug_assert!(max_l2 > 0.0);
    let norm = gradient.norm_l2();
    if norm <= max_l2 || norm == 0.0 {
        return 1.0;
    }
    let scale = max_l2 / norm;
    gradient.scale(scale);
    scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{minibatch_statistics, Model};
    use crate::MulticlassLogistic;
    use crowd_data::Sample;
    use crowd_linalg::ops::normalize_l1;
    use crowd_linalg::random::normal_vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Theorem 1 against the model: swapping one sample of a minibatch of
    /// L1-normalized features moves the averaged logistic gradient by at most
    /// the bound the device's Laplace noise is calibrated to.
    #[test]
    fn averaged_logistic_gradient_bounds_neighbouring_minibatches() {
        let (dim, classes) = (20, 10);
        let model = MulticlassLogistic::new(dim, classes).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let sample = |rng: &mut StdRng| {
            let mut x = normal_vector(rng, dim);
            normalize_l1(&mut x);
            Sample::new(x, rng.gen_range(0..classes))
        };
        for b in [1usize, 5, 20] {
            for _ in 0..200 {
                let w = normal_vector(&mut rng, model.param_dim());
                let mut batch: Vec<Sample> = (0..b).map(|_| sample(&mut rng)).collect();
                let g = minibatch_statistics(&model, &w, &batch, 0.0, &[])
                    .unwrap()
                    .gradient;
                batch[0] = sample(&mut rng);
                let g_neighbour = minibatch_statistics(&model, &w, &batch, 0.0, &[])
                    .unwrap()
                    .gradient;
                let moved = (&g - &g_neighbour).norm_l1();
                assert!(
                    moved <= averaged_logistic_gradient(b),
                    "b = {b}: the averaged gradient moved {moved}"
                );
            }
        }
    }

    #[test]
    fn logistic_sensitivity_matches_appendix_a() {
        assert_eq!(averaged_logistic_gradient(1), 4.0);
        assert_eq!(averaged_logistic_gradient(20), 0.2);
        assert_eq!(averaged_logistic_gradient(0), 4.0);
        assert_eq!(averaged_hinge_gradient(8), 0.5);
    }

    #[test]
    fn constant_sensitivities() {
        assert_eq!(feature_release(), 2.0);
    }

    #[test]
    fn clip_l1_only_shrinks() {
        let mut g = Vector::from_vec(vec![2.0, -2.0]);
        let scale = clip_l1(&mut g, 1.0);
        assert!((g.norm_l1() - 1.0).abs() < 1e-12);
        assert!((scale - 0.25).abs() < 1e-12);

        let mut small = Vector::from_vec(vec![0.1, 0.1]);
        assert_eq!(clip_l1(&mut small, 1.0), 1.0);
        assert_eq!(small.as_slice(), &[0.1, 0.1]);

        let mut zero = Vector::zeros(3);
        assert_eq!(clip_l1(&mut zero, 1.0), 1.0);
    }

    #[test]
    fn clip_l2_only_shrinks() {
        let mut g = Vector::from_vec(vec![3.0, 4.0]);
        let scale = clip_l2(&mut g, 1.0);
        assert!((g.norm_l2() - 1.0).abs() < 1e-12);
        assert!((scale - 0.2).abs() < 1e-12);
        let mut ok = Vector::from_vec(vec![0.3, 0.4]);
        assert_eq!(clip_l2(&mut ok, 1.0), 1.0);
    }

    #[test]
    fn clipped_sensitivity_formula() {
        assert_eq!(averaged_clipped_gradient(1.0, 1), 2.0);
        assert_eq!(averaged_clipped_gradient(2.0, 4), 1.0);
    }
}
