//! Evaluation metrics: test error, mean loss, and the error curves the paper
//! plots.

use crate::error::LearningError;
use crate::model::Model;
use crate::Result;
use crowd_data::Dataset;
use crowd_linalg::Vector;

/// Misclassification rate of `params` on `data` (the "test error" of Figs. 4–9).
pub fn error_rate<M: Model + ?Sized>(model: &M, params: &Vector, data: &Dataset) -> Result<f64> {
    if data.is_empty() {
        return Err(LearningError::EmptyData);
    }
    let mut errors = 0usize;
    for s in data.iter() {
        if model.predict(params, &s.features)? != s.label {
            errors += 1;
        }
    }
    Ok(errors as f64 / data.len() as f64)
}

/// Classification accuracy, `1 − error_rate`.
pub fn accuracy<M: Model + ?Sized>(model: &M, params: &Vector, data: &Dataset) -> Result<f64> {
    Ok(1.0 - error_rate(model, params, data)?)
}

/// Mean per-sample loss of `params` on `data` (without regularization).
pub fn mean_loss<M: Model + ?Sized>(model: &M, params: &Vector, data: &Dataset) -> Result<f64> {
    if data.is_empty() {
        return Err(LearningError::EmptyData);
    }
    let mut sum = 0.0;
    for s in data.iter() {
        sum += model.loss(params, &s.features, s.label)?;
    }
    Ok(sum / data.len() as f64)
}

/// The time-averaged online error of Fig. 3:
/// `Err(t) = (1/t) Σ_{i ≤ t} I[y_i ≠ ŷ_i]`, computed from a 0/1 mistake sequence.
pub fn time_averaged_error(mistakes: &[bool]) -> Vec<f64> {
    let mut out = Vec::with_capacity(mistakes.len());
    let mut errors = 0usize;
    for (i, &m) in mistakes.iter().enumerate() {
        if m {
            errors += 1;
        }
        out.push(errors as f64 / (i + 1) as f64);
    }
    out
}

/// One point of an error-vs-iteration curve (the series plotted in Figs. 4–9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration count (number of samples consumed so far).
    pub iteration: usize,
    /// Error measured at that iteration.
    pub error: f64,
}

/// An error-vs-iteration curve with convenience accessors used by the experiment
/// harness and EXPERIMENTS.md reporting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErrorCurve {
    points: Vec<CurvePoint>,
}

impl ErrorCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        ErrorCurve { points: Vec::new() }
    }

    /// Appends a measurement.
    pub fn push(&mut self, iteration: usize, error: f64) {
        self.points.push(CurvePoint { iteration, error });
    }

    /// The recorded points.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded error (the curve's asymptote proxy).
    pub fn final_error(&self) -> Option<f64> {
        self.points.last().map(|p| p.error)
    }

    /// The mean of the last `k` recorded errors, a more stable asymptote estimate.
    pub fn tail_mean(&self, k: usize) -> Option<f64> {
        if self.points.is_empty() || k == 0 {
            return None;
        }
        let start = self.points.len().saturating_sub(k);
        let tail = &self.points[start..];
        Some(tail.iter().map(|p| p.error).sum::<f64>() / tail.len() as f64)
    }

    /// Averages several curves point-wise (all curves must have the same length;
    /// iterations are taken from the first curve). Used for the "averaged over 10
    /// trials" reporting in §V-C.
    pub fn average(curves: &[ErrorCurve]) -> Result<ErrorCurve> {
        if curves.is_empty() {
            return Err(LearningError::EmptyData);
        }
        let len = curves[0].len();
        if curves.iter().any(|c| c.len() != len) {
            return Err(LearningError::ShapeMismatch {
                reason: "error curves have different lengths".into(),
            });
        }
        let mut out = ErrorCurve::new();
        for i in 0..len {
            let mean = curves.iter().map(|c| c.points[i].error).sum::<f64>() / curves.len() as f64;
            out.push(curves[0].points[i].iteration, mean);
        }
        Ok(out)
    }

    /// Renders the curve as CSV lines `iteration,error` (used by the figure
    /// binaries).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("iteration,error\n");
        for p in &self.points {
            s.push_str(&format!("{},{:.6}\n", p.iteration, p.error));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::MulticlassLogistic;
    use crowd_data::Sample;

    fn dataset() -> Dataset {
        Dataset::new(
            vec![
                Sample::new(Vector::from_vec(vec![1.0, 0.0]), 0),
                Sample::new(Vector::from_vec(vec![0.9, 0.1]), 0),
                Sample::new(Vector::from_vec(vec![0.0, 1.0]), 1),
                Sample::new(Vector::from_vec(vec![0.1, 0.9]), 1),
            ],
            2,
        )
        .unwrap()
    }

    fn good_params() -> Vector {
        // Class 0 favours feature 0, class 1 favours feature 1.
        Vector::from_vec(vec![2.0, -2.0, -2.0, 2.0])
    }

    #[test]
    fn error_rate_and_accuracy() {
        let model = MulticlassLogistic::new(2, 2).unwrap();
        let data = dataset();
        assert_eq!(error_rate(&model, &good_params(), &data).unwrap(), 0.0);
        assert_eq!(accuracy(&model, &good_params(), &data).unwrap(), 1.0);
        // Zero weights: every sample predicted as class 0, so half are wrong.
        let w0 = model.init_params();
        assert_eq!(error_rate(&model, &w0, &data).unwrap(), 0.5);
        assert!(error_rate(&model, &w0, &Dataset::empty(2, 2).unwrap()).is_err());
        assert!(mean_loss(&model, &good_params(), &data).unwrap() < 0.2);
    }

    #[test]
    fn time_averaged_error_matches_fig3_definition() {
        let mistakes = [true, false, false, true];
        let curve = time_averaged_error(&mistakes);
        assert_eq!(curve, vec![1.0, 0.5, 1.0 / 3.0, 0.5]);
        assert!(time_averaged_error(&[]).is_empty());
    }

    #[test]
    fn error_curve_accessors() {
        let mut c = ErrorCurve::new();
        assert!(c.is_empty());
        assert_eq!(c.final_error(), None);
        c.push(10, 0.5);
        c.push(20, 0.3);
        c.push(30, 0.1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.final_error(), Some(0.1));
        assert!((c.tail_mean(2).unwrap() - 0.2).abs() < 1e-12);
        assert!(c.to_csv().contains("20,0.300000"));
    }

    #[test]
    fn curve_averaging() {
        let mut a = ErrorCurve::new();
        a.push(1, 0.4);
        a.push(2, 0.2);
        let mut b = ErrorCurve::new();
        b.push(1, 0.6);
        b.push(2, 0.4);
        let avg = ErrorCurve::average(&[a.clone(), b]).unwrap();
        assert_eq!(avg.points()[0].error, 0.5);
        assert!((avg.points()[1].error - 0.3).abs() < 1e-12);
        assert!(ErrorCurve::average(&[]).is_err());
        let mut short = ErrorCurve::new();
        short.push(1, 0.1);
        assert!(ErrorCurve::average(&[a, short]).is_err());
    }
}
