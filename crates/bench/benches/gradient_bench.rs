//! Device-side computation cost (§IV-B1): per-sample gradients and averaged
//! minibatch gradients for the paper's multiclass logistic regression at the
//! MNIST-like dimensionality (D = 50, C = 10).
//!
//! The scalability analysis claims the per-device load is "a gradient per sample,
//! a vector summation per sample, and Laplace noise per minibatch" — cheap enough
//! for a low-end device. These benches measure exactly those operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_data::Sample;
use crowd_learning::model::{minibatch_statistics, GradientSink, Model};
use crowd_learning::MulticlassLogistic;
use crowd_linalg::ops::normalize_l1;
use crowd_linalg::random::normal_vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn make_batch(rng: &mut StdRng, dim: usize, classes: usize, b: usize) -> Vec<Sample> {
    (0..b)
        .map(|_| {
            let mut x = normal_vector(rng, dim);
            normalize_l1(&mut x);
            Sample::new(x, rng.gen_range(0..classes))
        })
        .collect()
}

fn bench_gradients(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let dim = 50;
    let classes = 10;
    let model = MulticlassLogistic::new(dim, classes).unwrap();
    let w = normal_vector(&mut rng, model.param_dim());
    let sample = make_batch(&mut rng, dim, classes, 1).pop().unwrap();

    // The allocating per-sample gradient vs the `gradient_into` fast path
    // writing into one reused scratch vector (the acceptance comparison for
    // the allocation-free kernels).
    let mut grad_group = c.benchmark_group("per_sample_gradient_d50_c10");
    grad_group.bench_function("alloc", |bench| {
        bench.iter(|| {
            black_box(
                model
                    .gradient(black_box(&w), black_box(&sample.features), sample.label)
                    .unwrap(),
            )
        })
    });
    grad_group.bench_function("into", |bench| {
        let mut scratch = crowd_linalg::Vector::zeros(model.param_dim());
        bench.iter(|| {
            model
                .gradient_into(
                    black_box(&w),
                    black_box(&sample.features),
                    sample.label,
                    &mut scratch,
                )
                .unwrap();
            black_box(scratch.as_slice()[0])
        })
    });
    // The fused pass computes prediction and loss from one scores evaluation
    // and adds the gradient straight into a running sum — what the minibatch
    // loop actually runs per sample.
    grad_group.bench_function("fused_accumulate", |bench| {
        let mut grad_sum = crowd_linalg::Vector::zeros(model.param_dim());
        bench.iter(|| {
            black_box(
                model
                    .evaluate_accumulate(
                        black_box(&w),
                        black_box(&sample.features),
                        sample.label,
                        Some(&mut GradientSink::add_to(grad_sum.as_mut_slice())),
                    )
                    .unwrap(),
            )
        })
    });
    // The unfused baseline the fused pass replaces: three independent scores
    // evaluations (predict, loss, gradient) per sample.
    grad_group.bench_function("separate_passes", |bench| {
        let mut scratch = crowd_linalg::Vector::zeros(model.param_dim());
        bench.iter(|| {
            let predicted = model.predict(black_box(&w), &sample.features).unwrap();
            let loss = model
                .loss(black_box(&w), &sample.features, sample.label)
                .unwrap();
            model
                .gradient_into(black_box(&w), &sample.features, sample.label, &mut scratch)
                .unwrap();
            black_box((predicted, loss, scratch.as_slice()[0]))
        })
    });
    grad_group.finish();

    c.bench_function("per_sample_prediction_d50_c10", |bench| {
        bench.iter(|| black_box(model.predict(black_box(&w), &sample.features).unwrap()))
    });

    let mut group = c.benchmark_group("averaged_minibatch_gradient");
    for &b in &[1usize, 10, 20, 64] {
        let batch = make_batch(&mut rng, dim, classes, b);
        group.bench_with_input(BenchmarkId::from_parameter(b), &batch, |bench, batch| {
            bench.iter(|| {
                black_box(minibatch_statistics(&model, &w, black_box(batch), 0.0, &[]).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gradients);
criterion_main!(benches);
