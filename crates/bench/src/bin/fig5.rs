//! Reproduces Fig. 5: MNIST-like digit recognition with privacy ε⁻¹ = 0.1 and
//! minibatch sizes b ∈ {1, 10, 20}, no delay.
//!
//! Expected shape: Crowd-ML with b = 20 has the lowest asymptotic error (below
//! Central batch on perturbed data); Central (SGD) on feature/label-perturbed data
//! stays near chance regardless of b.

#![forbid(unsafe_code)]

use crowd_bench::{run_privacy_minibatch_sweep, RunScale, SimulatedWorkload};

fn main() {
    let scale = RunScale::from_args();
    match run_privacy_minibatch_sweep(SimulatedWorkload::MnistLike, scale, 5) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("fig5 failed: {e}");
            std::process::exit(1);
        }
    }
}
