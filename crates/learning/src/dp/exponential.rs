//! The exponential mechanism (McSherry & Talwar, 2007) over finite candidate sets.
//!
//! The centralized baseline of Appendix C flips labels through the exponential
//! mechanism with score `d(y, ŷ) = I[y = ŷ]` (Eq. 16): the true label keeps
//! probability proportional to `exp(ε_y/2)` while every other label gets
//! probability proportional to 1. The same primitive is exposed generically for
//! arbitrary score functions with bounded sensitivity.

use super::Epsilon;
use crate::{LearningError, Result};
use rand::Rng;

/// The exponential mechanism for selecting one of finitely many candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialMechanism {
    epsilon: Epsilon,
    /// Sensitivity of the score function (1 for the paper's label-flip score).
    score_sensitivity: f64,
}

impl ExponentialMechanism {
    /// Creates a mechanism at privacy level `epsilon` for a score function with
    /// the given sensitivity.
    pub fn new(epsilon: Epsilon, score_sensitivity: f64) -> Result<Self> {
        if !(score_sensitivity.is_finite() && score_sensitivity > 0.0) {
            return Err(LearningError::InvalidSensitivity(score_sensitivity));
        }
        Ok(ExponentialMechanism {
            epsilon,
            score_sensitivity,
        })
    }

    /// The privacy level of the mechanism.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Selects an index from `scores` with probability proportional to
    /// `exp(ε · score / (2 · sensitivity))`.
    ///
    /// In the non-private limit the highest-scoring candidate is returned
    /// deterministically (ties resolve to the smallest index).
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R, scores: &[f64]) -> Result<usize> {
        if scores.is_empty() {
            return Err(LearningError::EmptyCandidateSet);
        }
        match self.epsilon {
            Epsilon::NonPrivate => Ok(argmax_index(scores)),
            Epsilon::Finite(eps) => {
                let beta = eps / (2.0 * self.score_sensitivity);
                // Normalize for numerical stability.
                let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = scores.iter().map(|s| (beta * (s - max)).exp()).collect();
                Ok(sample_categorical(rng, &weights))
            }
        }
    }

    /// Perturbs a class label in `0..num_classes` with the paper's score
    /// `d(y, ŷ) = I[y = ŷ]` (Eq. 16): the true label has score 1, every other
    /// label score 0.
    pub fn perturb_label<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        label: usize,
        num_classes: usize,
    ) -> Result<usize> {
        if num_classes == 0 {
            return Err(LearningError::EmptyCandidateSet);
        }
        if label >= num_classes {
            return Err(LearningError::UnknownEntity(format!(
                "label {label} out of range for {num_classes} classes"
            )));
        }
        let scores: Vec<f64> = (0..num_classes)
            .map(|k| if k == label { 1.0 } else { 0.0 })
            .collect();
        self.select(rng, &scores)
    }
}

fn argmax_index(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in xs.iter().enumerate() {
        if *v > xs[best] {
            best = i;
        }
    }
    best
}

/// Samples an index proportionally to non-negative `weights`. Falls back to the
/// last index on floating-point underflow.
fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return weights.len() - 1;
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_sensitivity() {
        let eps = Epsilon::finite(1.0).unwrap();
        assert!(ExponentialMechanism::new(eps, 0.0).is_err());
        assert!(ExponentialMechanism::new(eps, 1.0).is_ok());
    }

    #[test]
    fn empty_candidates_rejected() {
        let m = ExponentialMechanism::new(Epsilon::finite(1.0).unwrap(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            m.select(&mut rng, &[]),
            Err(LearningError::EmptyCandidateSet)
        );
        assert!(m.perturb_label(&mut rng, 0, 0).is_err());
        assert!(m.perturb_label(&mut rng, 5, 3).is_err());
    }

    #[test]
    fn non_private_selects_argmax() {
        let m = ExponentialMechanism::new(Epsilon::non_private(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.select(&mut rng, &[0.1, 0.9, 0.3]).unwrap(), 1);
        assert_eq!(m.perturb_label(&mut rng, 2, 5).unwrap(), 2);
    }

    #[test]
    fn label_retention_matches_closed_form() {
        let eps = 2.0;
        let classes = 10;
        let m = ExponentialMechanism::new(Epsilon::finite(eps).unwrap(), 1.0).unwrap();
        let expected = (eps / 2.0_f64).exp() / ((eps / 2.0_f64).exp() + 9.0);

        let mut rng = StdRng::seed_from_u64(21);
        let n = 40_000;
        let kept = (0..n)
            .filter(|_| m.perturb_label(&mut rng, 3, classes).unwrap() == 3)
            .count();
        let frac = kept as f64 / n as f64;
        assert!(
            (frac - expected).abs() < 0.02,
            "kept fraction {frac}, expected {expected}"
        );
    }

    #[test]
    fn high_epsilon_rarely_flips_low_epsilon_flips_often() {
        let mut rng = StdRng::seed_from_u64(9);
        let strict = ExponentialMechanism::new(Epsilon::finite(0.01).unwrap(), 1.0).unwrap();
        let loose = ExponentialMechanism::new(Epsilon::finite(20.0).unwrap(), 1.0).unwrap();
        let n = 5_000;
        let strict_kept = (0..n)
            .filter(|_| strict.perturb_label(&mut rng, 0, 4).unwrap() == 0)
            .count() as f64
            / n as f64;
        let loose_kept = (0..n)
            .filter(|_| loose.perturb_label(&mut rng, 0, 4).unwrap() == 0)
            .count() as f64
            / n as f64;
        assert!(strict_kept < 0.35, "strict kept {strict_kept}");
        assert!(loose_kept > 0.99, "loose kept {loose_kept}");
    }

    #[test]
    fn selection_respects_scores() {
        let m = ExponentialMechanism::new(Epsilon::finite(4.0).unwrap(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let n = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[m.select(&mut rng, &[0.0, 1.0, 2.0]).unwrap()] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
    }

    #[test]
    fn categorical_sampler_handles_degenerate_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_categorical(&mut rng, &[0.0, 0.0]), 1);
        assert_eq!(sample_categorical(&mut rng, &[1.0]), 0);
    }
}
