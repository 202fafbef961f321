//! Multiclass and binary logistic regression (Table I of the paper).
//!
//! For multiclass logistic regression with parameters `w_1, …, w_C` (stored
//! row-major in one flat vector):
//!
//! * prediction: `argmax_k w_k' x`
//! * per-sample loss: `−w_y' x + log Σ_l exp(w_l' x)`
//! * per-sample gradient w.r.t. `w_k`: `x · (P(y = k | x) − I[y = k])`
//!
//! With `‖x‖₁ ≤ 1` the averaged-gradient L1 sensitivity is `4/b` (Appendix A),
//! which is what [`crate::dp::sensitivity::averaged_logistic_gradient`] encodes.

use crate::error::LearningError;
use crate::model::{check_grad_len, GradientSink, Model, SampleEval};
use crate::Result;
use crowd_linalg::ops::{log_sum_exp, sigmoid, softmax, softmax_in_place};
use crowd_linalg::Vector;

/// Multiclass logistic regression with a `C × D` weight matrix stored flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulticlassLogistic {
    input_dim: usize,
    num_classes: usize,
}

impl MulticlassLogistic {
    /// Creates a model for `input_dim`-dimensional features and `num_classes ≥ 2`
    /// classes.
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
        Ok(MulticlassLogistic {
            input_dim,
            num_classes,
        })
    }

    /// Class-posterior probabilities `P(y = k | x; w)`.
    pub fn posteriors(&self, params: &Vector, x: &Vector) -> Result<Vec<f64>> {
        Ok(softmax(&self.scores(params, x)?))
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

impl Model for MulticlassLogistic {
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
        let mut scores = vec![0.0; self.num_classes];
        self.scores_into(params, x, &mut scores)?;
        Ok(scores)
    }

    fn loss(&self, params: &Vector, x: &Vector, y: usize) -> Result<f64> {
        self.validate(x, y)?;
        let scores = self.scores(params, x)?;
        Ok(log_sum_exp(&scores) - scores[y])
    }

    fn gradient_into(&self, params: &Vector, x: &Vector, y: usize, out: &mut Vector) -> Result<()> {
        self.validate(x, y)?;
        let mut scores = self.scores(params, x)?;
        softmax_in_place(&mut scores);
        check_grad_len(out.len(), self.param_dim())?;
        out.set_zero();
        scores[y] -= 1.0;
        GradientSink::add_to(out.as_mut_slice()).add_rows(&scores, x.as_slice());
        Ok(())
    }

    fn evaluate_accumulate(
        &self,
        params: &Vector,
        x: &Vector,
        y: usize,
        grad: Option<&mut GradientSink<'_>>,
    ) -> Result<SampleEval> {
        self.validate(x, y)?;
        let mut stack = [0.0; STACK_CLASSES];
        let mut heap = Vec::new();
        let scores = if self.num_classes <= STACK_CLASSES {
            &mut stack[..self.num_classes]
        } else {
            heap.resize(self.num_classes, 0.0);
            &mut heap[..]
        };
        self.scores_into(params, x, scores)?;
        // One scores pass feeds prediction, loss, and gradient, and the
        // post-processing is itself fused: a single max fold, a single exp
        // pass, and a single sum serve both the log-sum-exp and the softmax,
        // instead of each recomputing them. Every intermediate reproduces the
        // standalone methods' arithmetic operation for operation (same fold
        // seeds, same left-to-right order), so prediction, loss, and gradient
        // stay bitwise identical to `predict`/`loss`/`gradient_into`.
        let predicted =
            crowd_linalg::ops::argmax(scores).ok_or_else(|| LearningError::ShapeMismatch {
                reason: "model produced no scores".into(),
            })?;
        let score_y = scores[y];
        let max = scores.iter().fold(f64::NEG_INFINITY, |m, &s| m.max(s));
        let mut sum = 0.0;
        for s in scores.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        // `log_sum_exp` short-circuits to `max` before exponentiating when the
        // max is ±inf/NaN; the softmax loop above still runs in that case,
        // exactly as `softmax_in_place` would.
        let lse = if max.is_finite() { max + sum.ln() } else { max };
        if let Some(grad) = grad {
            check_grad_len(grad.dim(), self.param_dim())?;
            // The posteriors, then `P − e_y`: a row per class.
            for s in scores.iter_mut() {
                *s /= sum;
            }
            scores[y] -= 1.0;
            grad.add_rows(scores, x.as_slice());
        }
        Ok(SampleEval {
            predicted,
            loss: lse - score_y,
        })
    }
}

/// Class counts whose scores the per-sample path keeps on the stack; a model
/// with more classes uses one heap buffer per sample instead.
const STACK_CLASSES: usize = 16;

impl MulticlassLogistic {
    /// Writes the class scores `w_k'x` into `out` (length `C`).
    fn scores_into(&self, params: &Vector, x: &Vector, out: &mut [f64]) -> Result<()> {
        self.check_params(params)?;
        self.validate(x, 0)?;
        let d = self.input_dim;
        let (ps, xs) = (params.as_slice(), x.as_slice());
        for (k, s) in out.iter_mut().enumerate() {
            *s = crowd_linalg::kernels::dot(&ps[k * d..(k + 1) * d], xs);
        }
        Ok(())
    }
}

/// Binary logistic regression with labels `{0, 1}` and a single weight vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryLogistic {
    input_dim: usize,
}

impl BinaryLogistic {
    /// Creates a binary logistic model for `input_dim`-dimensional features.
    pub fn new(input_dim: usize) -> Result<Self> {
        if input_dim == 0 {
            return Err(LearningError::InvalidHyperparameter {
                name: "input_dim",
                value: 0.0,
            });
        }
        Ok(BinaryLogistic { input_dim })
    }

    /// The probability `P(y = 1 | x; w) = σ(w'x)`.
    pub fn probability(&self, params: &Vector, x: &Vector) -> Result<f64> {
        let s = self.scores(params, x)?;
        Ok(sigmoid(s[1]))
    }
}

impl Model for BinaryLogistic {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn param_dim(&self) -> usize {
        self.input_dim
    }

    fn scores(&self, params: &Vector, x: &Vector) -> Result<Vec<f64>> {
        if params.len() != self.input_dim {
            return Err(LearningError::ShapeMismatch {
                reason: format!(
                    "parameter vector has length {}, expected {}",
                    params.len(),
                    self.input_dim
                ),
            });
        }
        self.validate(x, 0)?;
        let margin = params.dot(x).map_err(|e| LearningError::ShapeMismatch {
            reason: e.to_string(),
        })?;
        // Score of class 1 is the margin, class 0 is zero, so argmax matches the
        // sign of the margin.
        Ok(vec![0.0, margin])
    }

    fn loss(&self, params: &Vector, x: &Vector, y: usize) -> Result<f64> {
        self.validate(x, y)?;
        let margin = self.scores(params, x)?[1];
        // Log-loss: log(1 + exp(-t·margin)) with t = ±1, computed stably.
        let t = if y == 1 { 1.0 } else { -1.0 };
        let z = -t * margin;
        Ok(if z > 0.0 {
            z + (1.0 + (-z).exp()).ln()
        } else {
            (1.0 + z.exp()).ln()
        })
    }

    fn gradient_into(&self, params: &Vector, x: &Vector, y: usize, out: &mut Vector) -> Result<()> {
        self.validate(x, y)?;
        check_grad_len(out.len(), self.input_dim)?;
        let p = self.probability(params, x)?;
        let target = if y == 1 { 1.0 } else { 0.0 };
        let coeff = p - target;
        for (g, &v) in out.iter_mut().zip(x.as_slice().iter()) {
            *g = v * coeff;
        }
        Ok(())
    }

    fn evaluate_accumulate(
        &self,
        params: &Vector,
        x: &Vector,
        y: usize,
        grad: Option<&mut GradientSink<'_>>,
    ) -> Result<SampleEval> {
        // Off every hot path: the standalone methods, not a second copy of
        // the loss.
        let predicted = self.predict(params, x)?;
        let loss = self.loss(params, x, y)?;
        if let Some(grad) = grad {
            check_grad_len(grad.dim(), self.input_dim)?;
            let coeff = self.probability(params, x)? - if y == 1 { 1.0 } else { 0.0 };
            grad.add_row(coeff, x.as_slice());
        }
        Ok(SampleEval { predicted, loss })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_gradient;
    use crowd_linalg::ops::approx_eq;
    use crowd_linalg::random::normal_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(MulticlassLogistic::new(0, 3).is_err());
        assert!(MulticlassLogistic::new(4, 1).is_err());
        assert!(MulticlassLogistic::new(4, 3).is_ok());
        assert!(BinaryLogistic::new(0).is_err());
    }

    #[test]
    fn dimensions() {
        let m = MulticlassLogistic::new(5, 3).unwrap();
        assert_eq!(m.input_dim(), 5);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.param_dim(), 15);
        assert_eq!(m.init_params().len(), 15);
        let b = BinaryLogistic::new(4).unwrap();
        assert_eq!(b.param_dim(), 4);
        assert_eq!(b.num_classes(), 2);
    }

    #[test]
    fn zero_weights_give_uniform_posteriors() {
        let m = MulticlassLogistic::new(3, 4).unwrap();
        let w = m.init_params();
        let x = Vector::from_vec(vec![0.2, -0.1, 0.5]);
        let p = m.posteriors(&w, &x).unwrap();
        assert!(p.iter().all(|&v| approx_eq(v, 0.25, 1e-12)));
        assert!(approx_eq(m.loss(&w, &x, 2).unwrap(), 4.0_f64.ln(), 1e-12));
    }

    #[test]
    fn prediction_follows_best_score() {
        let m = MulticlassLogistic::new(2, 3).unwrap();
        // w_0 = (1, 0), w_1 = (0, 1), w_2 = (-1, -1).
        let w = Vector::from_vec(vec![1.0, 0.0, 0.0, 1.0, -1.0, -1.0]);
        assert_eq!(m.predict(&w, &Vector::from_vec(vec![1.0, 0.0])).unwrap(), 0);
        assert_eq!(m.predict(&w, &Vector::from_vec(vec![0.0, 1.0])).unwrap(), 1);
        assert_eq!(
            m.predict(&w, &Vector::from_vec(vec![-1.0, -1.0])).unwrap(),
            2
        );
    }

    #[test]
    fn multiclass_gradient_matches_finite_differences() {
        let m = MulticlassLogistic::new(4, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let w = normal_vector(&mut rng, m.param_dim());
        let x = normal_vector(&mut rng, 4);
        for y in 0..3 {
            let analytic = m.gradient(&w, &x, y).unwrap();
            let numeric = finite_difference_gradient(&m, &w, &x, y, 1e-5).unwrap();
            assert!(
                analytic.distance(&numeric).unwrap() < 1e-5,
                "gradient mismatch for label {y}"
            );
        }
    }

    #[test]
    fn binary_gradient_matches_finite_differences() {
        let m = BinaryLogistic::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let w = normal_vector(&mut rng, 5);
        let x = normal_vector(&mut rng, 5);
        for y in 0..2 {
            let analytic = m.gradient(&w, &x, y).unwrap();
            let numeric = finite_difference_gradient(&m, &w, &x, y, 1e-6).unwrap();
            assert!(analytic.distance(&numeric).unwrap() < 1e-4);
        }
    }

    #[test]
    fn gradient_l1_norm_bounded_for_normalized_features() {
        // Appendix A: the per-sample gradient matrix has L1 norm at most
        // 2(1 − P_y) ≤ 2 when ‖x‖₁ ≤ 1.
        let m = MulticlassLogistic::new(6, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let w = normal_vector(&mut rng, m.param_dim());
            let mut x = normal_vector(&mut rng, 6);
            crowd_linalg::ops::normalize_l1(&mut x);
            let g = m.gradient(&w, &x, 3).unwrap();
            assert!(
                g.norm_l1() <= 2.0 + 1e-9,
                "gradient L1 norm {}",
                g.norm_l1()
            );
        }
    }

    #[test]
    fn fused_evaluate_matches_standalone_methods_bitwise() {
        let m = MulticlassLogistic::new(7, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..50 {
            let w = normal_vector(&mut rng, m.param_dim());
            let x = normal_vector(&mut rng, 7);
            let y = trial % 5;
            let mut fused_grad = Vector::zeros(m.param_dim());
            let eval = m
                .evaluate_accumulate(
                    &w,
                    &x,
                    y,
                    Some(&mut GradientSink::add_to(fused_grad.as_mut_slice())),
                )
                .unwrap();
            assert_eq!(eval.predicted, m.predict(&w, &x).unwrap());
            assert_eq!(
                eval.loss.to_bits(),
                m.loss(&w, &x, y).unwrap().to_bits(),
                "fused loss diverged on trial {trial}"
            );
            let mut separate_grad = Vector::zeros(m.param_dim());
            m.gradient_into(&w, &x, y, &mut separate_grad).unwrap();
            for (a, b) in fused_grad.iter().zip(separate_grad.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "fused gradient diverged");
            }
        }
    }

    #[test]
    fn loss_decreases_when_correct_class_score_increases() {
        let m = MulticlassLogistic::new(2, 3).unwrap();
        let x = Vector::from_vec(vec![0.5, 0.5]);
        let w_neutral = m.init_params();
        let mut w_better = m.init_params();
        w_better[0] = 2.0; // boost class 0's weight on feature 0
        w_better[1] = 2.0;
        assert!(m.loss(&w_better, &x, 0).unwrap() < m.loss(&w_neutral, &x, 0).unwrap());
    }

    #[test]
    fn shape_errors_are_reported() {
        let m = MulticlassLogistic::new(3, 2).unwrap();
        let w = m.init_params();
        assert!(m.scores(&Vector::zeros(5), &Vector::zeros(3)).is_err());
        assert!(m.scores(&w, &Vector::zeros(4)).is_err());
        assert!(m.loss(&w, &Vector::zeros(3), 9).is_err());
        let b = BinaryLogistic::new(3).unwrap();
        assert!(b.scores(&Vector::zeros(2), &Vector::zeros(3)).is_err());
    }

    #[test]
    fn binary_probability_behaviour() {
        let b = BinaryLogistic::new(2).unwrap();
        let w = Vector::from_vec(vec![3.0, 0.0]);
        let p_pos = b
            .probability(&w, &Vector::from_vec(vec![1.0, 0.0]))
            .unwrap();
        let p_neg = b
            .probability(&w, &Vector::from_vec(vec![-1.0, 0.0]))
            .unwrap();
        assert!(p_pos > 0.9);
        assert!(p_neg < 0.1);
        assert_eq!(b.predict(&w, &Vector::from_vec(vec![1.0, 0.0])).unwrap(), 1);
        assert_eq!(
            b.predict(&w, &Vector::from_vec(vec![-1.0, 0.0])).unwrap(),
            0
        );
    }
}
