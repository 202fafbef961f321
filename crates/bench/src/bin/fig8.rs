//! Reproduces Fig. 8 (Appendix D): CIFAR-feature object recognition with privacy
//! ε⁻¹ = 0.1 and minibatch sizes b ∈ {1, 10, 20} — the Fig. 5 protocol on the
//! harder workload.

#![forbid(unsafe_code)]

use crowd_bench::{run_privacy_minibatch_sweep, RunScale, SimulatedWorkload};

fn main() {
    let scale = RunScale::from_args();
    match run_privacy_minibatch_sweep(SimulatedWorkload::CifarFeatureLike, scale, 8) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("fig8 failed: {e}");
            std::process::exit(1);
        }
    }
}
