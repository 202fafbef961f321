//! Datasets, synthetic workload generators, and device partitioning for the
//! Crowd-ML evaluation.
//!
//! The paper evaluates on three workloads:
//!
//! 1. **Activity recognition** (§V-B): 7 smartphones, triaxial accelerometer at
//!    20 Hz, acceleration magnitudes over 3.2 s windows, 64-bin FFT features,
//!    3 classes ("Still", "On Foot", "In Vehicle"), samples collected only when the
//!    activity label changes. We do not have the authors' phones or volunteers, so
//!    [`activity`] synthesizes accelerometer traces with per-activity
//!    amplitude/frequency profiles and runs the *same* feature-extraction pipeline.
//! 2. **Handwritten digits** (§V-C): MNIST, PCA to 50 dimensions, L1-normalized,
//!    60 000 train / 10 000 test, 10 classes. [`synthetic::mnist_like`] generates
//!    a Gaussian-mixture surrogate with identical shape and a comparable error
//!    floor.
//! 3. **Object recognition** (Appendix D): CIFAR-10 CNN features, PCA to 100
//!    dimensions, L1-normalized. [`synthetic::cifar_feature_like`] generates the
//!    surrogate with heavier class overlap (higher error floor, ≈0.3 in the paper).
//!
//! Neither image corpus is in the repository, so the surrogates are generated
//! directly at the post-PCA dimension and already L1-normalized: no PCA and no
//! dataset file loading runs anywhere in the workspace.
//!
//! [`partition`] distributes a dataset across `M` simulated devices (IID or
//! non-IID).

#![forbid(unsafe_code)]

pub mod activity;
pub mod dataset;
pub mod error;
pub mod partition;
pub mod synthetic;

pub use dataset::{Dataset, Sample};
pub use error::DataError;

/// Result alias for fallible data operations.
pub type Result<T> = std::result::Result<T, DataError>;
