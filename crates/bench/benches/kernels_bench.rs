//! The fixed-order BLAS-1 kernels at the server-side hot dimensionality
//! (D = 5000, roughly the MNIST-like D·C parameter vector): one row per
//! kernel, `kernels_d5000/{dot,sum_sq,axpy}`.

use criterion::{criterion_group, criterion_main, Criterion};
use crowd_linalg::kernels;
use crowd_linalg::random::normal_vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let dim = 5000;
    let a = normal_vector(&mut rng, dim);
    let b = normal_vector(&mut rng, dim);

    let mut group = c.benchmark_group("kernels_d5000");
    group.bench_function("dot", |bench| {
        bench.iter(|| black_box(kernels::dot(black_box(a.as_slice()), b.as_slice())))
    });
    group.bench_function("sum_sq", |bench| {
        bench.iter(|| black_box(kernels::sum_sq(black_box(a.as_slice()))))
    });
    group.bench_function("axpy", |bench| {
        let mut y = b.clone();
        bench.iter(|| {
            kernels::axpy(0.125, black_box(a.as_slice()), y.as_mut_slice());
            black_box(y.as_slice()[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
