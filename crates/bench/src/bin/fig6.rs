//! Reproduces Fig. 6: impact of communication delays on Crowd-ML (MNIST-like,
//! privacy ε⁻¹ = 0.1, b ∈ {1, 20}, maximum delays ∈ {1Δ, 10Δ, 100Δ, 1000Δ}).
//!
//! Expected shape: with b = 1 large delays slow convergence noticeably; with
//! b = 20 even a 1000Δ delay barely affects the final error, which stays below the
//! Central (batch) reference.

#![forbid(unsafe_code)]

use crowd_bench::{run_delay_sweep, RunScale, SimulatedWorkload};

fn main() {
    let scale = RunScale::from_args();
    match run_delay_sweep(SimulatedWorkload::MnistLike, scale, 6) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("fig6 failed: {e}");
            std::process::exit(1);
        }
    }
}
