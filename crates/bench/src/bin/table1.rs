//! Verifies Table I: the multiclass-logistic-regression prediction, risk, and
//! gradient formulas, plus the Appendix A sensitivity bound the privacy
//! calibration depends on.
//!
//! The binary checks, on random inputs:
//!
//! 1. the closed-form gradient of Table I matches central finite differences of
//!    the risk;
//! 2. the per-sample gradient matrix has L1 norm ≤ 2(1 − P_y) ≤ 2 when
//!    `‖x‖₁ ≤ 1`;
//! 3. the empirical sensitivity of the *averaged* gradient over minibatches
//!    differing in one sample never exceeds 4/b (Theorem 1's bound).

#![forbid(unsafe_code)]

use crowd_data::Sample;
use crowd_learning::model::{finite_difference_gradient, minibatch_statistics, Model};
use crowd_learning::MulticlassLogistic;
use crowd_linalg::ops::normalize_l1;
use crowd_linalg::random::normal_vector;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let dim = 20;
    let classes = 10;
    let model = MulticlassLogistic::new(dim, classes).expect("valid model");

    println!("# Table I verification: multiclass logistic regression");
    println!("check,trials,max_observed,bound,pass");

    // 1. Gradient vs finite differences.
    let mut max_grad_diff: f64 = 0.0;
    let trials = 25;
    for _ in 0..trials {
        let w = normal_vector(&mut rng, model.param_dim());
        let mut x = normal_vector(&mut rng, dim);
        normalize_l1(&mut x);
        let y = rng.gen_range(0..classes);
        let analytic = model.gradient(&w, &x, y).expect("gradient");
        let numeric =
            finite_difference_gradient(&model, &w, &x, y, 1e-5).expect("finite differences");
        max_grad_diff = max_grad_diff.max(analytic.distance(&numeric).expect("same dim"));
    }
    println!(
        "gradient_matches_finite_difference,{trials},{max_grad_diff:.3e},1e-4,{}",
        max_grad_diff < 1e-4
    );

    // 2. Per-sample gradient L1 bound.
    let mut max_l1: f64 = 0.0;
    let trials = 500;
    for _ in 0..trials {
        let w = normal_vector(&mut rng, model.param_dim());
        let mut x = normal_vector(&mut rng, dim);
        normalize_l1(&mut x);
        let y = rng.gen_range(0..classes);
        max_l1 = max_l1.max(model.gradient(&w, &x, y).expect("gradient").norm_l1());
    }
    println!(
        "per_sample_gradient_l1,{trials},{max_l1:.4},2.0,{}",
        max_l1 <= 2.0 + 1e-9
    );

    // 3. Averaged-gradient sensitivity ≤ 4/b over neighbouring minibatches.
    for &b in &[1usize, 5, 20] {
        let bound = 4.0 / b as f64;
        let mut max_sensitivity: f64 = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let w = normal_vector(&mut rng, model.param_dim());
            let mut batch: Vec<Sample> = (0..b)
                .map(|_| {
                    let mut x = normal_vector(&mut rng, dim);
                    normalize_l1(&mut x);
                    Sample::new(x, rng.gen_range(0..classes))
                })
                .collect();
            let g1 = minibatch_statistics(&model, &w, &batch, 0.0, &[])
                .expect("stats")
                .gradient;
            // Replace the first sample to get a neighbouring dataset.
            let mut x = normal_vector(&mut rng, dim);
            normalize_l1(&mut x);
            batch[0] = Sample::new(x, rng.gen_range(0..classes));
            let g2 = minibatch_statistics(&model, &w, &batch, 0.0, &[])
                .expect("stats")
                .gradient;
            max_sensitivity = max_sensitivity.max((&g1 - &g2).norm_l1());
        }
        println!(
            "averaged_gradient_sensitivity_b{b},{trials},{max_sensitivity:.4},{bound:.4},{}",
            max_sensitivity <= bound + 1e-9
        );
    }
}
