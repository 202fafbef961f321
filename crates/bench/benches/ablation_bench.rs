//! Ablations over the design choices called out in DESIGN.md §5.
//!
//! * minibatch size vs the per-checkin work a device performs at fixed ε (the
//!   Eq. 13 trade-off): larger b amortizes the Laplace draw over more samples;
//! * learning-rate schedule: the paper's `c/√t` vs AdaGrad (Remark 3);
//! * Laplace vs Gaussian gradient perturbation (footnote 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_core::config::{DeviceConfig, PrivacyConfig};
use crowd_core::device::Device;
use crowd_data::Sample;
use crowd_learning::dp::{Epsilon, GaussianMechanism, LaplaceMechanism};
use crowd_learning::model::Model;
use crowd_learning::{LearningRate, MulticlassLogistic};
use crowd_linalg::ops::normalize_l1;
use crowd_linalg::random::normal_vector;
use crowd_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_minibatch_ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let dim = 50;
    let classes = 10;
    let model = MulticlassLogistic::new(dim, classes).unwrap();
    let params = model.init_params();

    let mut group = c.benchmark_group("device_checkin_cost_vs_minibatch");
    for &b in &[1usize, 4, 16, 64] {
        let samples: Vec<Sample> = (0..b)
            .map(|_| {
                let mut x = normal_vector(&mut rng, dim);
                normalize_l1(&mut x);
                Sample::new(x, rng.gen_range(0..classes))
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(b),
            &samples,
            |bench, samples| {
                bench.iter_batched(
                    || {
                        let mut device = Device::new(
                            0,
                            DeviceConfig::new(samples.len()),
                            PrivacyConfig::with_total_epsilon(10.0),
                        )
                        .unwrap();
                        for s in samples {
                            device.observe(s.clone());
                        }
                        device.begin_checkout().unwrap();
                        (device, StdRng::seed_from_u64(7))
                    },
                    |(mut device, mut rng)| {
                        black_box(
                            device
                                .compute_checkin(&model, &params, 0, 0.0, &mut rng)
                                .unwrap(),
                        )
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_schedule_ablation(c: &mut Criterion) {
    let gradient = Vector::filled(500, 0.01);
    let mut group = c.benchmark_group("learning_rate_schedule");
    group.bench_function("inv_sqrt", |bench| {
        let mut schedule = LearningRate::inv_sqrt(1.0).unwrap();
        let mut t = 0usize;
        bench.iter(|| {
            t += 1;
            black_box(schedule.rate(t, &gradient))
        })
    });
    group.bench_function("adagrad", |bench| {
        let mut schedule = LearningRate::adagrad(1.0, 1e-8).unwrap();
        let mut t = 0usize;
        bench.iter(|| {
            t += 1;
            black_box(schedule.rate(t, &gradient))
        })
    });
    group.finish();
}

fn bench_mechanism_ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let gradient = Vector::zeros(500);
    let eps = Epsilon::finite(10.0).unwrap();
    let mut group = c.benchmark_group("gradient_mechanism");
    group.bench_function("laplace", |bench| {
        let mechanism = LaplaceMechanism::new(eps, 0.2).unwrap();
        bench.iter(|| black_box(mechanism.perturb_vector(&mut rng, &gradient)))
    });
    group.bench_function("gaussian", |bench| {
        let mechanism = GaussianMechanism::new(eps, 1e-5, 0.2).unwrap();
        bench.iter(|| black_box(mechanism.perturb_vector(&mut rng, &gradient)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_minibatch_ablation,
    bench_schedule_ablation,
    bench_mechanism_ablation
);
criterion_main!(benches);
