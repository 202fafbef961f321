//! Accuracy-vs-bytes ablation for the wire-v5 quantized gradient transport:
//! the same DP-noised SGD stream (ε⁻¹ = 0.1, b = 20) shipped as 8-byte doubles
//! vs stochastically rounded i16 levels, with the uplink bytes per checkin for
//! each transport reported alongside the error curves.

#![forbid(unsafe_code)]

use crowd_bench::{run_quantization_ablation, RunScale, SimulatedWorkload};

fn main() {
    let scale = RunScale::from_args();
    match run_quantization_ablation(SimulatedWorkload::MnistLike, scale, 12) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("quant_ablation failed: {e}");
            std::process::exit(1);
        }
    }
}
