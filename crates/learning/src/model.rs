//! The [`Model`] trait: per-sample losses, gradients, and predictions over a flat
//! parameter vector.
//!
//! All models expose their parameters as a single flat [`Vector`] so the server
//! update (Eq. 3), the L2-ball projection, and the Laplace gradient perturbation
//! (Eq. 10) operate uniformly regardless of the model family. Multiclass models
//! store their `C × D` weight matrix row-major in that vector.
//!
//! A minibatch is built from one per-sample primitive,
//! [`Model::evaluate_accumulate`], which hands `∇_w l` to a [`GradientSink`]
//! row by row, in sample order. That is bitwise the sum a zeroed per-sample
//! scratch plus an `axpy` gave: the scratch held `0.0 + coeff·x`, which differs
//! from `coeff·x` only when the product is `−0.0`, and `s + (−0.0) = s + 0.0`
//! for every `s` but `−0.0` — which a sum starting at `+0.0` never becomes. So
//! even the exact-zero count behind the sparse/dense wire choice is unchanged.
//!
//! The sink makes the whole minibatch one pass over the gradient: the first
//! averaged sample writes `0.0 + coeff·x` into empty storage (the zero-fill
//! and the add in one write), and the last one also scales by `1/n`, adds
//! `λw`, checks finiteness and counts the coordinates that are not `+0.0`,
//! coordinate by coordinate: each still sees its sum from `+0.0` in sample
//! order, then `·(1/n)`, then `+ λ·w`.

use crate::error::LearningError;
use crate::Result;
use crowd_data::Sample;
use crowd_linalg::Vector;

/// A differentiable classification model with a flat parameter vector.
pub trait Model: Send + Sync {
    /// Feature dimensionality `D`.
    fn input_dim(&self) -> usize;

    /// Number of classes `C`.
    fn num_classes(&self) -> usize;

    /// Length of the flat parameter vector.
    fn param_dim(&self) -> usize;

    /// Initial parameter vector (zeros unless a model overrides it).
    fn init_params(&self) -> Vector {
        Vector::zeros(self.param_dim())
    }

    /// Per-class decision scores for a feature vector.
    fn scores(&self, params: &Vector, x: &Vector) -> Result<Vec<f64>>;

    /// Predicted class label (argmax of scores; Table I's `argmax_k w_k'x`).
    fn predict(&self, params: &Vector, x: &Vector) -> Result<usize> {
        let scores = self.scores(params, x)?;
        crowd_linalg::ops::argmax(&scores).ok_or(LearningError::ShapeMismatch {
            reason: "model produced no scores".into(),
        })
    }

    /// Per-sample loss `l(h(x; w), y)` (without the regularization term).
    fn loss(&self, params: &Vector, x: &Vector, y: usize) -> Result<f64>;

    /// Per-sample (sub)gradient `∇_w l(h(x; w), y)` (without regularization).
    ///
    /// Allocates a fresh vector per call; hot loops should prefer
    /// [`Model::gradient_into`] with a reused scratch vector.
    fn gradient(&self, params: &Vector, x: &Vector, y: usize) -> Result<Vector> {
        let mut out = Vector::zeros(self.param_dim());
        self.gradient_into(params, x, y, &mut out)?;
        Ok(out)
    }

    /// Writes the per-sample (sub)gradient into `out` (overwriting it) without
    /// allocating. `out` must have length [`Model::param_dim`].
    fn gradient_into(&self, params: &Vector, x: &Vector, y: usize, out: &mut Vector) -> Result<()>;

    /// The per-sample primitive of [`minibatch_statistics`]: prediction and
    /// loss (bitwise [`Model::predict`]'s and [`Model::loss`]'s) and, when
    /// `grad` is given (of dimension [`Model::param_dim`]), the products
    /// [`Model::gradient_into`] computes, handed to it row by row in
    /// coordinate order.
    fn evaluate_accumulate(
        &self,
        params: &Vector,
        x: &Vector,
        y: usize,
        grad: Option<&mut GradientSink<'_>>,
    ) -> Result<SampleEval>;

    /// Validates that a feature/label pair is compatible with the model.
    fn validate(&self, x: &Vector, y: usize) -> Result<()> {
        if x.len() != self.input_dim() {
            return Err(LearningError::ShapeMismatch {
                reason: format!(
                    "feature dimension {} does not match model input dimension {}",
                    x.len(),
                    self.input_dim()
                ),
            });
        }
        if y >= self.num_classes() {
            return Err(LearningError::ShapeMismatch {
                reason: format!("label {y} out of range for {} classes", self.num_classes()),
            });
        }
        Ok(())
    }
}

/// Per-sample outcome of a fused [`Model::evaluate_accumulate`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEval {
    /// The predicted class label (argmax of the scores).
    pub predicted: usize,
    /// The per-sample loss `l(h(x; w), y)`.
    pub loss: f64,
}

/// Checks that a gradient of length `len` handed to a model has length
/// `dim`.
pub(crate) fn check_grad_len(len: usize, dim: usize) -> Result<()> {
    if len != dim {
        return Err(LearningError::ShapeMismatch {
            reason: format!("gradient vector has length {len}, expected {dim}"),
        });
    }
    Ok(())
}

/// Where [`Model::evaluate_accumulate`] writes one sample's gradient.
///
/// A model hands its gradient over in coordinate order, as rows `coeff·x`:
/// [`GradientSink::add_rows`] for one row per class (a class whose
/// coefficient is exactly 0 contributes nothing), [`GradientSink::add_row`]
/// for a single row. The sink applies the write that the sample's place in
/// the minibatch calls for:
///
/// * the first averaged sample appends `0.0 + coeff·x` (and `0.0` for a
///   skipped row) to empty storage, bitwise a zeroed sum plus `+=`;
/// * any other sample adds `coeff·x` in place;
/// * the last averaged sample also finishes each coordinate it writes or
///   skips: `·(1/n)`, then `+ λ·w` when `λ > 0`, the finiteness check and
///   the count of coordinates that are not `+0.0`.
///
/// [`GradientSink::add_to`] is the plain in-place form.
pub struct GradientSink<'a> {
    storage: Storage<'a>,
    dim: usize,
    /// The next coordinate to write.
    pos: usize,
    finish: Option<Finish<'a>>,
}

enum Storage<'a> {
    /// The first averaged sample: rows are appended to empty storage.
    Append(&'a mut Vec<f64>),
    /// Rows are added to the running sum.
    InPlace(&'a mut [f64]),
}

impl Storage<'_> {
    fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            Storage::Append(sum) => sum,
            Storage::InPlace(sum) => sum,
        }
    }
}

/// The last averaged sample's per-coordinate finish, and what it found.
#[derive(Clone, Copy)]
struct Finish<'a> {
    inv: f64,
    lambda: f64,
    params: &'a [f64],
    finite: bool,
    nonzero: usize,
}

impl<'a> GradientSink<'a> {
    /// A sink that adds every row into `sum` in place.
    pub fn add_to(sum: &'a mut [f64]) -> Self {
        GradientSink {
            dim: sum.len(),
            storage: Storage::InPlace(sum),
            pos: 0,
            finish: None,
        }
    }

    /// The gradient's dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Contributes `coeffs[k]·x` to the `k`-th of the next `coeffs.len()`
    /// rows of `x.len()` coordinates, and nothing to a row whose
    /// coefficient is exactly `0.0`.
    #[inline]
    pub fn add_rows(&mut self, coeffs: &[f64], x: &[f64]) {
        if let (Storage::InPlace(sum), None) = (&mut self.storage, &self.finish) {
            // Every sample between the first and the last: one mode check
            // per sample, not per row.
            let end = self.pos + coeffs.len() * x.len();
            for (row, &coeff) in sum[self.pos..end].chunks_mut(x.len().max(1)).zip(coeffs) {
                if coeff != 0.0 {
                    add_product(row, coeff, x);
                }
            }
            self.pos = end;
            return;
        }
        for &coeff in coeffs {
            if coeff == 0.0 {
                self.skip_row(x.len());
            } else {
                self.add_row(coeff, x);
            }
        }
    }

    /// Contributes `coeff·x` to the next `x.len()` coordinates.
    pub fn add_row(&mut self, coeff: f64, x: &[f64]) {
        let (start, end) = (self.pos, self.pos + x.len());
        self.pos = end;
        let Some(finish) = &mut self.finish else {
            match &mut self.storage {
                Storage::Append(sum) => sum.extend(x.iter().map(|&v| 0.0 + coeff * v)),
                Storage::InPlace(sum) => add_product(&mut sum[start..end], coeff, x),
            }
            return;
        };
        // The last averaged sample: each coordinate is written, finished and
        // tallied in one step. The tallies are locals that each loop borrows
        // directly (through no second closure), so they stay in registers.
        let Finish {
            inv,
            lambda,
            params,
            ..
        } = *finish;
        let (mut finite, mut nonzero) = (true, 0usize);
        let (f, n) = (&mut finite, &mut nonzero);
        match &mut self.storage {
            Storage::Append(sum) if lambda == 0.0 => {
                sum.extend(x.iter().map(|&v| tally((0.0 + coeff * v) * inv, f, n)));
            }
            Storage::Append(sum) => sum.extend(
                x.iter()
                    .zip(&params[start..end])
                    .map(|(&v, &w)| tally((0.0 + coeff * v) * inv + lambda * w, f, n)),
            ),
            Storage::InPlace(sum) if lambda == 0.0 => {
                for (g, &v) in sum[start..end].iter_mut().zip(x) {
                    *g = tally((*g + coeff * v) * inv, f, n);
                }
            }
            Storage::InPlace(sum) => {
                for ((g, &v), &w) in sum[start..end].iter_mut().zip(x).zip(&params[start..end]) {
                    *g = tally((*g + coeff * v) * inv + lambda * w, f, n);
                }
            }
        }
        finish.finite &= finite;
        finish.nonzero += nonzero;
    }

    /// Contributes nothing to the next `len` coordinates.
    fn skip_row(&mut self, len: usize) {
        let (start, end) = (self.pos, self.pos + len);
        self.pos = end;
        if let Storage::Append(sum) = &mut self.storage {
            sum.resize(end, 0.0);
        }
        let Some(finish) = &mut self.finish else {
            return;
        };
        let Finish {
            inv,
            lambda,
            params,
            ..
        } = *finish;
        let row = &mut self.storage.as_mut_slice()[start..end];
        if lambda > 0.0 {
            for (g, &w) in row.iter_mut().zip(&params[start..end]) {
                *g = *g * inv + lambda * w;
            }
        } else {
            for g in row.iter_mut() {
                *g *= inv;
            }
        }
        let (mut finite, mut nonzero) = (true, 0usize);
        for &g in row.iter() {
            tally(g, &mut finite, &mut nonzero);
        }
        finish.finite &= finite;
        finish.nonzero += nonzero;
    }
}

/// Notes a finished coordinate `g` in the tally: whether all are finite,
/// and how many are not `+0.0`.
#[inline(always)]
fn tally(g: f64, finite: &mut bool, nonzero: &mut usize) -> f64 {
    *finite &= g.is_finite();
    *nonzero += usize::from(g.to_bits() != 0);
    g
}

/// `row += coeff·x`: the plain loop, which beats the unrolled
/// `kernels::axpy` on rows as short as 50.
#[inline]
fn add_product(row: &mut [f64], coeff: f64, x: &[f64]) {
    for (g, &v) in row.iter_mut().zip(x) {
        *g += coeff * v;
    }
}

/// The statistics a device computes over one minibatch in Device Routine 2:
/// the averaged regularized gradient `g̃ = (1/n) Σ ∇l + λw`, the number of
/// processed samples `n_s`, the misclassification count `n_e`, and the per-class
/// label counts `n_y^k`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinibatchStats {
    /// Averaged regularized gradient over the minibatch.
    pub gradient: Vector,
    /// Number of samples in the minibatch (`n_s`).
    pub num_samples: usize,
    /// Number of misclassified samples under the current parameters (`n_e`).
    pub num_errors: usize,
    /// Per-class label counts (`n_y^k`, length `C`).
    pub label_counts: Vec<u64>,
    /// How many coordinates of `gradient` are not `+0.0` (a `−0.0` counts),
    /// the count behind the sparse/dense wire choice of
    /// `GradientUpdate::from_dense_auto`.
    pub nonzero: usize,
    /// Average per-sample loss over the minibatch (not transmitted; used for
    /// diagnostics and tests).
    pub mean_loss: f64,
}

/// Computes the Device Routine 2 statistics for a minibatch: predictions, error and
/// label counts, and the averaged gradient `g̃ = (1/n) Σ_i ∇l(x_i, y_i) + λ w`.
///
/// `holdout` optionally marks samples (by index) that are used only for error
/// estimation — their gradients are excluded from the average, matching Remark 2
/// of the paper.
///
/// The gradient takes one pass over memory for any `n` (see the module docs
/// and [`GradientSink`]): the first averaged sample writes its products into
/// fresh storage, and the last one also averages them, adds `λw`, checks
/// finiteness and counts [`MinibatchStats::nonzero`]. Every coordinate sees
/// the operations of the separate passes of [`crate::spec::minibatch_statistics`],
/// in their order: the sum from `+0.0` in sample order, then `·(1/n)`, then
/// `+ λ·w`.
pub fn minibatch_statistics<M: Model + ?Sized>(
    model: &M,
    params: &Vector,
    samples: &[Sample],
    lambda: f64,
    holdout: &[usize],
) -> Result<MinibatchStats> {
    if samples.is_empty() {
        return Err(LearningError::EmptyData);
    }
    if lambda < 0.0 || !lambda.is_finite() {
        return Err(LearningError::InvalidHyperparameter {
            name: "lambda",
            value: lambda,
        });
    }
    let dim = model.param_dim();
    let averaged = (0..samples.len()).filter(|i| !holdout.contains(i)).count();
    // `λ·w` is fused only at the gradient's length; a mismatch is reported
    // after the loop, so any sample's own error comes first.
    let regularize_mismatch = lambda > 0.0 && params.len() != dim;
    let finish = Finish {
        // With every sample held out the sum stays `+0.0` and `n` reads 1.
        inv: 1.0 / averaged.max(1) as f64,
        lambda,
        params: params.as_slice(),
        finite: true,
        nonzero: 0,
    };
    let mut gradient = Vec::with_capacity(dim);
    let mut finished = None;
    let mut num_errors = 0usize;
    let mut label_counts = vec![0u64; model.num_classes()];
    let mut loss_sum = 0.0;
    let mut written = 0usize;

    for (i, s) in samples.iter().enumerate() {
        model.validate(&s.features, s.label)?;
        label_counts[s.label] += 1;
        let mut sink = (!holdout.contains(&i)).then(|| {
            written += 1;
            GradientSink {
                storage: if written == 1 {
                    Storage::Append(&mut gradient)
                } else {
                    Storage::InPlace(&mut gradient[..])
                },
                dim,
                pos: 0,
                finish: (written == averaged && !regularize_mismatch).then_some(finish),
            }
        });
        let eval = model.evaluate_accumulate(params, &s.features, s.label, sink.as_mut())?;
        if let Some(sink) = sink {
            debug_assert_eq!(sink.pos, dim, "a model left gradient rows unwritten");
            finished = finished.or(sink.finish.map(|f| (f.finite, f.nonzero)));
        }
        num_errors += usize::from(eval.predicted != s.label);
        loss_sum += eval.loss;
    }

    if regularize_mismatch {
        return Err(LearningError::ShapeMismatch {
            reason: "regularization failed: parameter length mismatch".into(),
        });
    }
    // With every sample held out no sample finished the mean: it is the
    // zero vector, finished the same way.
    let finished = finished.unwrap_or_else(|| {
        let mut sink = GradientSink {
            storage: Storage::Append(&mut gradient),
            dim,
            pos: 0,
            finish: Some(finish),
        };
        sink.skip_row(dim);
        sink.finish.map_or((true, 0), |f| (f.finite, f.nonzero))
    });
    let (finite, nonzero) = finished;
    if !finite {
        return Err(LearningError::NumericalFailure {
            context: "minibatch gradient".into(),
        });
    }

    Ok(MinibatchStats {
        gradient: Vector::from_vec(gradient),
        num_samples: samples.len(),
        num_errors,
        label_counts,
        nonzero,
        mean_loss: loss_sum / samples.len() as f64,
    })
}

/// Numerically estimates the gradient of `model.loss` at `(params, x, y)` by
/// central finite differences. Used by tests and the Table I verification bench to
/// confirm the closed-form gradients.
pub fn finite_difference_gradient<M: Model + ?Sized>(
    model: &M,
    params: &Vector,
    x: &Vector,
    y: usize,
    step: f64,
) -> Result<Vector> {
    let mut grad = Vector::zeros(params.len());
    for i in 0..params.len() {
        let mut plus = params.clone();
        plus[i] += step;
        let mut minus = params.clone();
        minus[i] -= step;
        let f_plus = model.loss(&plus, x, y)?;
        let f_minus = model.loss(&minus, x, y)?;
        grad[i] = (f_plus - f_minus) / (2.0 * step);
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::BinaryLogistic;
    use crate::logistic::MulticlassLogistic;
    use crate::spec;
    use crate::svm::MulticlassHinge;
    use crowd_linalg::Vector;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn samples() -> Vec<Sample> {
        vec![
            Sample::new(Vector::from_vec(vec![0.5, 0.5]), 0),
            Sample::new(Vector::from_vec(vec![-0.5, 0.5]), 1),
            Sample::new(Vector::from_vec(vec![0.25, -0.75]), 2),
            Sample::new(Vector::from_vec(vec![0.9, 0.1]), 0),
        ]
    }

    #[test]
    fn minibatch_stats_counts_and_shape() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let w = model.init_params();
        let stats = minibatch_statistics(&model, &w, &samples(), 0.0, &[]).unwrap();
        assert_eq!(stats.num_samples, 4);
        assert_eq!(stats.label_counts, vec![2, 1, 1]);
        assert_eq!(stats.gradient.len(), model.param_dim());
        assert!(stats.mean_loss > 0.0);
        // With zero weights every class ties, argmax picks class 0, so labels 1 and
        // 2 are errors.
        assert_eq!(stats.num_errors, 2);
    }

    #[test]
    fn empty_minibatch_and_bad_lambda_rejected() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let w = model.init_params();
        assert_eq!(
            minibatch_statistics(&model, &w, &[], 0.0, &[]),
            Err(LearningError::EmptyData)
        );
        assert!(minibatch_statistics(&model, &w, &samples(), -0.1, &[]).is_err());
        assert!(minibatch_statistics(&model, &w, &samples(), f64::NAN, &[]).is_err());
    }

    #[test]
    fn holdout_excludes_gradient_but_not_error_counting() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let w = model.init_params();
        let all = minibatch_statistics(&model, &w, &samples(), 0.0, &[]).unwrap();
        let held = minibatch_statistics(&model, &w, &samples(), 0.0, &[0, 1, 2, 3]).unwrap();
        // All gradients held out: averaged gradient is zero, errors still counted.
        assert_eq!(held.gradient.norm_l1(), 0.0);
        assert_eq!(held.num_errors, all.num_errors);
        assert_eq!(held.num_samples, 4);
    }

    #[test]
    fn regularization_adds_lambda_w() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let mut w = model.init_params();
        for i in 0..w.len() {
            w[i] = 0.1 * (i as f64 + 1.0);
        }
        let without = minibatch_statistics(&model, &w, &samples(), 0.0, &[]).unwrap();
        let with = minibatch_statistics(&model, &w, &samples(), 0.5, &[]).unwrap();
        let diff = &with.gradient - &without.gradient;
        let expected = w.scaled(0.5);
        assert!((diff.distance(&expected).unwrap()) < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let model = MulticlassLogistic::new(3, 2).unwrap();
        assert!(model.validate(&Vector::zeros(3), 1).is_ok());
        assert!(model.validate(&Vector::zeros(2), 1).is_err());
        assert!(model.validate(&Vector::zeros(3), 2).is_err());
    }

    /// Requires the accumulate path and the spec to agree:
    /// gradient and mean loss bit for bit, counts exactly, errors in full.
    fn assert_matches_spec(
        model: &dyn Model,
        params: &Vector,
        samples: &[Sample],
        lambda: f64,
        holdout: &[usize],
    ) -> Result<MinibatchStats> {
        let new = minibatch_statistics(model, params, samples, lambda, holdout);
        let old = spec::minibatch_statistics(model, params, samples, lambda, holdout);
        match (&new, &old) {
            (Ok(n), Ok(o)) => {
                let bits = |v: &Vector| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&n.gradient), bits(&o.gradient));
                assert_eq!(n.mean_loss.to_bits(), o.mean_loss.to_bits());
                assert_eq!(
                    (n.num_samples, n.num_errors, &n.label_counts),
                    (o.num_samples, o.num_errors, &o.label_counts)
                );
            }
            _ => assert_eq!(new, old),
        }
        new
    }

    /// The three models over `dim` features (`classes` for the multiclass
    /// ones).
    fn models(dim: usize, classes: usize) -> Vec<Box<dyn Model>> {
        vec![
            Box::new(MulticlassLogistic::new(dim, classes).unwrap()),
            Box::new(BinaryLogistic::new(dim).unwrap()),
            Box::new(MulticlassHinge::new(dim, classes).unwrap()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn accumulated_minibatch_is_bitwise_the_frozen_scratch_path(
            seed in any::<u64>(),
            b in 1usize..=32,
            kind in 0usize..3,
            regularize in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = rng.gen_range(1..=8);
            let model = models(dim, rng.gen_range(2..=5)).swap_remove(kind);
            let lambda = if regularize { rng.gen_range(0.001..1.0) } else { 0.0 };
            // Large scales saturate the softmax and the hinges, so whole
            // classes get a coefficient of exactly 0.
            let scale = [0.1, 1.0, 30.0, 1000.0][rng.gen_range(0..4usize)];
            let params = Vector::from_vec(
                (0..model.param_dim()).map(|_| scale * rng.gen_range(-1.0..1.0)).collect(),
            );
            let samples: Vec<Sample> = (0..b)
                .map(|_| {
                    let x = (0..dim)
                        .map(|_| match rng.gen_range(0..4usize) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(-1.0..1.0),
                        })
                        .collect();
                    Sample::new(Vector::from_vec(x), rng.gen_range(0..model.num_classes()))
                })
                .collect();
            // Any subset, possibly every sample, possibly with repeats.
            let holdout: Vec<usize> =
                (0..rng.gen_range(0..=b)).map(|_| rng.gen_range(0..b)).collect();
            let stats = assert_matches_spec(&*model, &params, &samples, lambda, &holdout);
            prop_assert!(stats.is_ok());
        }
    }

    #[test]
    fn frozen_path_agrees_on_signed_zeros_and_zero_coefficients() {
        // Row 0 scores +1000 and every other row −1000 on feature 0, with the
        // label on the winning class: the softmax saturates to exactly 1 and
        // 0, every hinge is inactive, and the binary sigmoid rounds to 1, so
        // every class coefficient is exactly 0. The other features are ±0.0.
        let x = Vector::from_vec(vec![1.0, -0.0, 0.0, -0.0]);
        for model in models(4, 3) {
            let params = Vector::from_vec(
                (0..model.param_dim())
                    .map(|j| match (j % 4, j < 4) {
                        (0, true) => 1000.0,
                        (0, false) => -1000.0,
                        _ => 0.0,
                    })
                    .collect(),
            );
            let label = if model.num_classes() == 2 { 1 } else { 0 };
            let saturated = vec![Sample::new(x.clone(), label)];
            let mixed = vec![
                Sample::new(x.clone(), label),
                Sample::new(Vector::from_vec(vec![-0.0, 0.5, -0.0, -0.25]), 0),
                Sample::new(Vector::from_vec(vec![0.0, -0.0, 0.0, -0.0]), 1),
            ];
            for lambda in [0.0, 0.5] {
                let zero = assert_matches_spec(&*model, &params, &saturated, lambda, &[]).unwrap();
                if lambda == 0.0 {
                    assert!(zero.gradient.iter().all(|g| g.to_bits() == 0));
                }
                assert_matches_spec(&*model, &params, &mixed, lambda, &[]).unwrap();
                assert_matches_spec(&*model, &params, &mixed, lambda, &[1]).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The count the last averaged sample makes is the separate pass's:
        /// every coordinate that is not `+0.0`, a `−0.0` included. Saturated
        /// scores and `±0.0` features make whole rows and single coordinates
        /// exactly zero, of either sign.
        #[test]
        fn nonzero_is_the_count_of_coordinates_that_are_not_positive_zero(
            seed in any::<u64>(),
            b in 1usize..=8,
            kind in 0usize..3,
            regularize in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = rng.gen_range(1..=6);
            let model = models(dim, rng.gen_range(2..=4)).swap_remove(kind);
            let lambda = if regularize { 0.5 } else { 0.0 };
            let scale = [1.0, 1000.0][rng.gen_range(0..2usize)];
            let params = Vector::from_vec(
                (0..model.param_dim())
                    .map(|_| match rng.gen_range(0..3usize) {
                        0 => -0.0,
                        _ => scale * rng.gen_range(-1.0..1.0),
                    })
                    .collect(),
            );
            let samples: Vec<Sample> = (0..b)
                .map(|_| {
                    let x = (0..dim)
                        .map(|_| [0.0, -0.0, rng.gen_range(-1.0..1.0)][rng.gen_range(0..3usize)])
                        .collect();
                    Sample::new(Vector::from_vec(x), rng.gen_range(0..model.num_classes()))
                })
                .collect();
            let holdout: Vec<usize> = (0..rng.gen_range(0..=b)).map(|_| rng.gen_range(0..b)).collect();
            let stats = minibatch_statistics(&*model, &params, &samples, lambda, &holdout).unwrap();
            let counted = stats.gradient.iter().filter(|g| g.to_bits() != 0).count();
            prop_assert_eq!(stats.nonzero, counted);
            let plain =
                spec::minibatch_statistics(&*model, &params, &samples, lambda, &holdout)
                    .unwrap();
            prop_assert_eq!(stats.nonzero, plain.nonzero);
        }
    }

    #[test]
    fn frozen_path_agrees_on_every_error() {
        let nan = Sample::new(Vector::from_vec(vec![f64::NAN, 0.5, 0.25]), 1);
        let fine = Sample::new(Vector::from_vec(vec![0.5, -0.5, 0.0]), 0);
        for (kind, model) in models(3, 3).into_iter().enumerate() {
            let params = Vector::from_vec(vec![0.3; model.param_dim()]);
            let batch = [fine.clone(), nan.clone()];
            let check = |params: &Vector, samples: &[Sample], lambda: f64, holdout: &[usize]| {
                assert_matches_spec(&*model, params, samples, lambda, holdout)
            };
            // A NaN margin activates no hinge, so only the logistic models'
            // gradients turn non-finite.
            let poisoned = check(&params, &batch, 0.1, &[]);
            assert_eq!(
                matches!(poisoned, Err(LearningError::NumericalFailure { .. })),
                kind < 2
            );
            // Held out, the NaN sample never reaches the gradient.
            check(&params, &batch, 0.1, &[1]).unwrap();
            assert_eq!(check(&params, &[], 0.1, &[]), Err(LearningError::EmptyData));
            assert!(matches!(
                check(&params, &batch, -0.1, &[]),
                Err(LearningError::InvalidHyperparameter { .. })
            ));
            let short = Vector::zeros(model.param_dim() - 1);
            for lambda in [0.0, 0.1] {
                assert!(matches!(
                    check(&short, std::slice::from_ref(&fine), lambda, &[]),
                    Err(LearningError::ShapeMismatch { .. })
                ));
            }
        }
    }
}
