//! Reproduces Fig. 4: MNIST-like digit recognition, no privacy, no delay.
//!
//! Series: Central (batch) as a horizontal reference, Crowd-ML (SGD, b = 1), and
//! Decentralized (SGD). Expected shape: Crowd-ML converges to (roughly) the batch
//! error; the decentralized error stays far higher because each device only sees
//! `~N/M` samples.

#![forbid(unsafe_code)]

use crowd_bench::{run_no_privacy_comparison, RunScale, SimulatedWorkload};

fn main() {
    let scale = RunScale::from_args();
    match run_no_privacy_comparison(SimulatedWorkload::MnistLike, scale, 4) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("fig4 failed: {e}");
            std::process::exit(1);
        }
    }
}
