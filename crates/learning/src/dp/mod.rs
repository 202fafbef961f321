//! Differential-privacy mechanisms and budget accounting.
//!
//! The paper protects every quantity that leaves a device with a *local*
//! ε-differential-privacy mechanism (§III-C):
//!
//! * averaged minibatch gradients `g̃` are perturbed with element-wise **Laplace**
//!   noise calibrated to the L1 sensitivity `4/b` of the multiclass-logistic
//!   gradient (Eq. 10, Theorem 1) — [`laplace`];
//! * the misclassification count `n_e` and per-class label counts `n_y^k` are
//!   perturbed with **discrete Laplace** (two-sided geometric) noise (Eqs. 11–12,
//!   Theorem 2) — [`discrete`];
//! * the centralized baseline perturbs features with Laplace noise (Eq. 15) and
//!   flips labels through the **exponential mechanism** (Eq. 16, Theorem 3) —
//!   [`exponential`];
//! * footnote 1 mentions the **Gaussian** ((ε, δ)) variant — [`gaussian`].
//!
//! [`sensitivity`] collects the closed-form sensitivity bounds the calibration
//! relies on, and [`accountant`] tracks per-device budget consumption under basic
//! composition so a deployment can enforce a total ε.

pub mod accountant;
pub mod discrete;
pub mod exponential;
pub mod gaussian;
pub mod laplace;
pub mod sensitivity;

pub use accountant::{BudgetAccountant, PrivacyBudget};
pub use discrete::DiscreteLaplaceMechanism;
pub use exponential::ExponentialMechanism;
pub use gaussian::GaussianMechanism;
pub use laplace::LaplaceMechanism;

use crate::{LearningError, Result};

/// Transport selection rule for quantized gradient uploads: does the DP
/// noise floor dominate the quantization error?
///
/// A Laplace mechanism with scale λ adds per-coordinate noise of standard
/// deviation `λ·√2`; unbiased stochastic rounding with step `s` adds noise of
/// standard deviation at most `s/2`. Requiring `2·s ≤ λ` keeps the
/// quantization std at most `λ/4 ≈ 18%` of the mechanism's — statistically
/// invisible next to the noise the privacy budget already forces — so the
/// client can ship 16-bit fixed point instead of 64-bit floats. Returns
/// `false` for λ = 0 (non-private runs quantize nothing: the gradient's full
/// precision is meaningful) and for step 0 (an all-zero gradient gains
/// nothing from quantization).
pub fn noise_dominates_quantization(laplace_scale: f64, quant_step: f64) -> bool {
    laplace_scale > 0.0 && quant_step > 0.0 && 2.0 * quant_step <= laplace_scale
}

/// A privacy level ε. The paper writes privacy strength as ε (smaller is more
/// private) and frequently reports its inverse ε⁻¹ in the experiments.
///
/// `Epsilon::finite` requires a strictly positive value; [`Epsilon::non_private`]
/// models the ε → ∞ (no noise) configuration used in the non-private experiments
/// (`ε⁻¹ = 0` in Figs. 3–4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epsilon {
    /// A finite, strictly positive privacy parameter.
    Finite(f64),
    /// The non-private limit ε → ∞: mechanisms add no noise.
    NonPrivate,
}

impl Epsilon {
    /// Constructs a finite ε, validating positivity.
    pub fn finite(value: f64) -> Result<Self> {
        if !(value.is_finite() && value > 0.0) {
            return Err(LearningError::InvalidEpsilon(value));
        }
        Ok(Epsilon::Finite(value))
    }

    /// Constructs the non-private (ε → ∞) level.
    pub fn non_private() -> Self {
        Epsilon::NonPrivate
    }

    /// Constructs an ε from its inverse as reported in the paper's figures
    /// (`ε⁻¹ = 0` means non-private).
    pub fn from_inverse(inverse: f64) -> Result<Self> {
        if inverse < 0.0 || !inverse.is_finite() {
            return Err(LearningError::InvalidEpsilon(inverse));
        }
        if inverse == 0.0 {
            Ok(Epsilon::NonPrivate)
        } else {
            Epsilon::finite(1.0 / inverse)
        }
    }

    /// The numeric ε value; `f64::INFINITY` for the non-private level.
    pub fn value(&self) -> f64 {
        match self {
            Epsilon::Finite(v) => *v,
            Epsilon::NonPrivate => f64::INFINITY,
        }
    }

    /// `true` when the level is finite (i.e. noise will actually be added).
    pub fn is_private(&self) -> bool {
        matches!(self, Epsilon::Finite(_))
    }
}
