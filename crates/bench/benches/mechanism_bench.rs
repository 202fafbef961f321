//! Cost of the privacy mechanisms (§IV-B1): Laplace gradient perturbation per
//! minibatch, discrete Laplace counter perturbation, and the exponential-mechanism
//! label flip used by the centralized baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_learning::dp::{
    DiscreteLaplaceMechanism, Epsilon, ExponentialMechanism, GaussianMechanism, LaplaceMechanism,
};
use crowd_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_mechanisms(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let eps = Epsilon::finite(10.0).unwrap();

    let mut group = c.benchmark_group("laplace_gradient_perturbation");
    for &dim in &[50usize, 500, 1000] {
        let mechanism = LaplaceMechanism::new(eps, 4.0 / 20.0).unwrap();
        let gradient = Vector::zeros(dim);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| black_box(mechanism.perturb_vector(&mut rng, black_box(&gradient))))
        });
    }
    group.finish();

    c.bench_function("gaussian_gradient_perturbation_d500", |bench| {
        let mechanism = GaussianMechanism::new(eps, 1e-5, 0.2).unwrap();
        let gradient = Vector::zeros(500);
        bench.iter(|| black_box(mechanism.perturb_vector(&mut rng, black_box(&gradient))))
    });

    c.bench_function("discrete_laplace_counter", |bench| {
        let mechanism = DiscreteLaplaceMechanism::new(eps);
        bench.iter(|| black_box(mechanism.perturb_count(&mut rng, black_box(17))))
    });

    c.bench_function("exponential_label_flip_c10", |bench| {
        let mechanism = ExponentialMechanism::new(eps, 1.0).unwrap();
        bench.iter(|| black_box(mechanism.perturb_label(&mut rng, black_box(3), 10).unwrap()))
    });
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
