//! Reproduces Fig. 7 (Appendix D): CIFAR-feature object recognition, no privacy,
//! no delay — the Fig. 4 protocol on the harder 100-dimensional workload, so the
//! same ordering holds but every error level is higher (≈0.3 for the winners).

#![forbid(unsafe_code)]

use crowd_bench::{run_no_privacy_comparison, RunScale, SimulatedWorkload};

fn main() {
    let scale = RunScale::from_args();
    match run_no_privacy_comparison(SimulatedWorkload::CifarFeatureLike, scale, 7) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("fig7 failed: {e}");
            std::process::exit(1);
        }
    }
}
