//! Dense linear-algebra substrate for the Crowd-ML framework.
//!
//! The crate provides exactly the numerical machinery the paper's pipeline needs,
//! implemented from scratch so the workspace has no external linear-algebra
//! dependency:
//!
//! * [`Vector`] — an owned dense vector with the usual BLAS-1-style operations
//!   (`dot`, `axpy`, `scale`, norms, …).
//! * [`kernels`] — unrolled BLAS-1 reductions with a fixed summation order, so
//!   hot-path dot products and norms are fast *and* bitwise reproducible.
//! * [`sparse`] — [`SparseVector`] and the [`GradientUpdate`] carrier used to
//!   ship mostly-zero gradients in bandwidth proportional to their support.
//! * [`ops`] — free functions used throughout the learning stack: softmax,
//!   log-sum-exp, argmax, L1/L2 normalization, and the L2-ball projection
//!   `Π_W(w) = min(1, R/‖w‖)·w` from Eq. (3) of the paper.
//! * [`fft`] — an iterative radix-2 FFT and the 64-bin magnitude-spectrum feature
//!   extractor used by the activity-recognition workload (§V-B).
//! * [`stats`] — scalar summary statistics used by tests and the experiment
//!   harness.
//! * [`random`] — seeded samplers (standard normal via Box–Muller, random
//!   permutations).
//!
//! All floating-point storage is `f64`.

#![forbid(unsafe_code)]

pub mod error;
pub mod fft;
pub mod kernels;
pub mod ops;
pub mod quant;
pub mod random;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use error::LinalgError;
pub use quant::QuantizedVector;
pub use sparse::{GradientUpdate, SparseVector};
pub use vector::Vector;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
