//! Reproduces Fig. 9 (Appendix D): impact of delays on Crowd-ML for the
//! CIFAR-feature workload (privacy ε⁻¹ = 0.1, b ∈ {1, 20},
//! delays ∈ {1Δ, 10Δ, 100Δ, 1000Δ}) — the Fig. 6 protocol on the harder workload.

#![forbid(unsafe_code)]

use crowd_bench::{run_delay_sweep, RunScale, SimulatedWorkload};

fn main() {
    let scale = RunScale::from_args();
    match run_delay_sweep(SimulatedWorkload::CifarFeatureLike, scale, 9) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("fig9 failed: {e}");
            std::process::exit(1);
        }
    }
}
