//! One-vs-rest linear SVM with hinge loss.
//!
//! Section III-A of the paper notes that the framework covers "regression, logistic
//! regression, and Support Vector Machine" by choosing the loss `l`. This module
//! provides the SVM instantiation: each class has its own weight vector, the loss
//! is the sum of one-vs-rest hinge losses, and the subgradient is bounded when
//! features are L1-normalized so the same clipping/sensitivity machinery applies.

use crate::error::LearningError;
use crate::model::{check_grad_len, Model, SampleEval};
use crate::Result;
use crowd_linalg::Vector;

/// One-vs-rest multiclass linear SVM with hinge loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulticlassHinge {
    input_dim: usize,
    num_classes: usize,
}

impl MulticlassHinge {
    /// Creates a hinge-loss model for `input_dim`-dimensional features and
    /// `num_classes ≥ 2` classes.
    pub fn new(input_dim: usize, num_classes: usize) -> Result<Self> {
        if input_dim == 0 {
            return Err(LearningError::InvalidHyperparameter {
                name: "input_dim",
                value: 0.0,
            });
        }
        if num_classes < 2 {
            return Err(LearningError::InvalidHyperparameter {
                name: "num_classes",
                value: num_classes as f64,
            });
        }
        Ok(MulticlassHinge {
            input_dim,
            num_classes,
        })
    }

    fn check_params(&self, params: &Vector) -> Result<()> {
        if params.len() != self.param_dim() {
            return Err(LearningError::ShapeMismatch {
                reason: format!(
                    "parameter vector has length {}, expected {}",
                    params.len(),
                    self.param_dim()
                ),
            });
        }
        Ok(())
    }
}

impl Model for MulticlassHinge {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn param_dim(&self) -> usize {
        self.input_dim * self.num_classes
    }

    fn scores(&self, params: &Vector, x: &Vector) -> Result<Vec<f64>> {
        self.check_params(params)?;
        self.validate(x, 0)?;
        let d = self.input_dim;
        let ps = params.as_slice();
        let xs = x.as_slice();
        Ok((0..self.num_classes)
            .map(|k| crowd_linalg::kernels::dot(&ps[k * d..(k + 1) * d], xs))
            .collect())
    }

    fn loss(&self, params: &Vector, x: &Vector, y: usize) -> Result<f64> {
        self.validate(x, y)?;
        Ok(hinge_loss(&self.scores(params, x)?, y))
    }

    fn gradient_into(&self, params: &Vector, x: &Vector, y: usize, out: &mut Vector) -> Result<()> {
        self.validate(x, y)?;
        let scores = self.scores(params, x)?;
        check_grad_len(out, self.param_dim())?;
        out.set_zero();
        self.scatter_subgradient(&scores, x, y, out);
        Ok(())
    }

    fn evaluate_accumulate(
        &self,
        params: &Vector,
        x: &Vector,
        y: usize,
        grad_sum: Option<&mut Vector>,
    ) -> Result<SampleEval> {
        self.validate(x, y)?;
        // One scores pass feeds prediction, loss, and subgradient; the values
        // match the standalone methods exactly.
        let scores = self.scores(params, x)?;
        let predicted =
            crowd_linalg::ops::argmax(&scores).ok_or_else(|| LearningError::ShapeMismatch {
                reason: "model produced no scores".into(),
            })?;
        if let Some(grad_sum) = grad_sum {
            check_grad_len(grad_sum, self.param_dim())?;
            self.scatter_subgradient(&scores, x, y, grad_sum);
        }
        Ok(SampleEval {
            predicted,
            loss: hinge_loss(&scores, y),
        })
    }
}

/// One-vs-rest hinge loss: the true class should score ≥ +1, every other
/// class ≤ −1.
fn hinge_loss(scores: &[f64], y: usize) -> f64 {
    let mut loss = 0.0;
    for (k, &s) in scores.iter().enumerate() {
        let t = if k == y { 1.0 } else { -1.0 };
        loss += (1.0 - t * s).max(0.0);
    }
    loss
}

impl MulticlassHinge {
    /// Adds the one-vs-rest hinge subgradient into `grad` given the scores.
    fn scatter_subgradient(&self, scores: &[f64], x: &Vector, y: usize, grad: &mut Vector) {
        let d = self.input_dim;
        let grad = grad.as_mut_slice();
        for (k, &s) in scores.iter().enumerate() {
            let t = if k == y { 1.0 } else { -1.0 };
            if 1.0 - t * s > 0.0 {
                let row = &mut grad[k * d..(k + 1) * d];
                for (g, &v) in row.iter_mut().zip(x.as_slice().iter()) {
                    *g += -t * v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_gradient;
    use crowd_linalg::random::normal_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(MulticlassHinge::new(0, 3).is_err());
        assert!(MulticlassHinge::new(3, 1).is_err());
        assert!(MulticlassHinge::new(3, 3).is_ok());
    }

    #[test]
    fn zero_weights_loss_is_num_classes() {
        // With w = 0 every margin is 0, so each of the C hinge terms is 1.
        let m = MulticlassHinge::new(4, 5).unwrap();
        let w = m.init_params();
        let x = Vector::from_vec(vec![0.1, 0.2, 0.3, 0.4]);
        assert!((m.loss(&w, &x, 2).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences_away_from_kinks() {
        let m = MulticlassHinge::new(3, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Random smooth points are almost surely away from hinge kinks.
        for trial in 0..5 {
            let w = normal_vector(&mut rng, m.param_dim());
            let x = normal_vector(&mut rng, 3);
            let y = trial % 4;
            let analytic = m.gradient(&w, &x, y).unwrap();
            let numeric = finite_difference_gradient(&m, &w, &x, y, 1e-6).unwrap();
            assert!(
                analytic.distance(&numeric).unwrap() < 1e-4,
                "trial {trial} mismatch"
            );
        }
    }

    #[test]
    fn confident_correct_prediction_has_zero_loss_and_gradient() {
        let m = MulticlassHinge::new(2, 2).unwrap();
        // Class 0 weights strongly positive on feature 0, class 1 strongly negative.
        let w = Vector::from_vec(vec![5.0, 0.0, -5.0, 0.0]);
        let x = Vector::from_vec(vec![1.0, 0.0]);
        assert_eq!(m.loss(&w, &x, 0).unwrap(), 0.0);
        assert_eq!(m.gradient(&w, &x, 0).unwrap().norm_l1(), 0.0);
        assert_eq!(m.predict(&w, &x).unwrap(), 0);
    }

    #[test]
    fn subgradient_l1_bounded_for_normalized_features() {
        // Each active hinge contributes at most ‖x‖₁ ≤ 1 per class; with all C
        // hinges active the bound is C, but for the averaged two-class case used in
        // the privacy analysis the 4/b bound holds. Here we check the per-class
        // contribution bound.
        let m = MulticlassHinge::new(5, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let w = normal_vector(&mut rng, m.param_dim());
            let mut x = normal_vector(&mut rng, 5);
            crowd_linalg::ops::normalize_l1(&mut x);
            let g = m.gradient(&w, &x, 1).unwrap();
            assert!(g.norm_l1() <= 3.0 + 1e-9);
        }
    }

    #[test]
    fn shape_errors() {
        let m = MulticlassHinge::new(3, 2).unwrap();
        assert!(m.scores(&Vector::zeros(5), &Vector::zeros(3)).is_err());
        assert!(m.loss(&m.init_params(), &Vector::zeros(2), 0).is_err());
        assert!(m.gradient(&m.init_params(), &Vector::zeros(3), 7).is_err());
    }
}
