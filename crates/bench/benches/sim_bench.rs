//! Throughput of the discrete-event simulation and of a full small Crowd-ML run,
//! used to size the `--full` figure reproductions and to check that simulation
//! overhead (event queue, delay sampling) stays negligible next to the learning
//! math.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_core::config::CrowdMlConfig;
use crowd_core::simulation::{run_crowd_ml, SimulationConfig};
use crowd_core::simulation::{DelayModel, EventQueue};
use crowd_data::partition::{partition, PartitionStrategy};
use crowd_data::synthetic::GaussianMixtureSpec;
use crowd_learning::MulticlassLogistic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_schedule_pop");
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                let mut queue = EventQueue::new();
                for i in 0..n {
                    queue.schedule((n - i) as f64, i);
                }
                while let Some(e) = queue.pop() {
                    black_box(e.payload);
                }
            })
        });
    }
    group.finish();

    c.bench_function("uniform_delay_sampling", |bench| {
        let mut rng = StdRng::seed_from_u64(0);
        let model = DelayModel::Uniform { max: 100.0 };
        bench.iter(|| black_box(model.sample(&mut rng)))
    });
}

fn bench_crowd_run(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let (train, test) = GaussianMixtureSpec::new(20, 5)
        .with_train_size(2000)
        .with_test_size(200)
        .generate(&mut rng)
        .unwrap();
    let parts = partition(&train, 50, PartitionStrategy::Iid, &mut rng).unwrap();
    let model = MulticlassLogistic::new(20, 5).unwrap();
    let config = CrowdMlConfig::default_non_private();
    let sim = SimulationConfig::new().with_eval_every(10_000);

    c.bench_function("crowd_ml_simulation_2000_samples_50_devices", |bench| {
        bench.iter(|| {
            let mut run_rng = StdRng::seed_from_u64(2);
            black_box(run_crowd_ml(&model, &parts, &test, &config, &sim, &mut run_rng).unwrap())
        })
    });
}

criterion_group!(benches, bench_event_queue, bench_crowd_run);
criterion_main!(benches);
