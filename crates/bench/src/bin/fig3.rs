//! Reproduces Fig. 3: activity recognition on a fleet of 7 devices.
//!
//! The paper runs 3-class logistic regression (λ = 0, b = 1, ε⁻¹ = 0) on
//! accelerometer-derived FFT features from 7 smartphones and plots the
//! time-averaged online misclassification error over the first 300 samples for
//! learning-rate constants c ∈ {1e-6, 1e-4, 1e-2, 1}. The expected shape: all
//! four curves converge quickly (within ~50 samples) and end up nearly identical.

#![forbid(unsafe_code)]

use crowd_bench::RunScale;
use crowd_core::experiment::{CrowdMlExperiment, ExperimentConfig};
use crowd_core::report::series_to_csv;

fn main() {
    let scale = RunScale::from_args();
    // 7 devices as in the paper; ~300 total samples regardless of scale (the real
    // experiment is already small), more when --full is requested.
    let devices = 7usize;
    let samples_per_device = if scale.data_scale >= 1.0 { 100 } else { 43 };
    let total = devices * samples_per_device;

    println!("# Fig. 3: activity recognition, {devices} devices, {total} samples, b=1, eps^-1=0");
    println!("# time-averaged online error for learning-rate constants c");
    let mut finals = Vec::new();
    for &c in &[1e-6, 1e-4, 1e-2, 1.0] {
        let config = ExperimentConfig::builder()
            .devices(devices)
            .minibatch(1)
            .passes(1.0)
            .rate_constant(c)
            .eval_points(5)
            .seed(42)
            .build();
        let experiment = CrowdMlExperiment::activity(samples_per_device, 200, config);
        match experiment.run() {
            Ok(outcome) => {
                println!("\n## series: c={c:e}");
                let truncated: Vec<f64> = outcome.online_error.iter().copied().take(300).collect();
                print!("{}", series_to_csv("time_averaged_error", &truncated));
                finals.push((c, *truncated.last().unwrap_or(&1.0)));
            }
            Err(e) => {
                eprintln!("fig3 run failed for c={c}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("\n## summary");
    println!("c,final_time_averaged_error");
    for (c, err) in finals {
        println!("{c:e},{err:.4}");
    }
}
