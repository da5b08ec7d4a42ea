//! Batch-wait estimator cost: the `O(M(N−k+1))` distribution update of
//! §4.2 (footnote 6) runs asynchronously once per sync period.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pard_core::batchwait::{aggregate_wait_quantile, WaitSource};
use pard_sim::DetRng;
use std::hint::black_box;

fn bench_estimator(c: &mut Criterion) {
    let samples: Vec<f64> = (0..512).map(|i| (i % 80) as f64 * 0.5).collect();
    let mut group = c.benchmark_group("wait_quantile");
    for &modules in &[1usize, 2, 4] {
        for &draws in &[1_000usize, 4_000, 10_000] {
            let id = format!("n{modules}_m{draws}");
            group.bench_with_input(
                BenchmarkId::from_parameter(id),
                &(modules, draws),
                |b, &(modules, draws)| {
                    let sources: Vec<WaitSource<'_>> = (0..modules)
                        .map(|_| WaitSource::Samples(&samples))
                        .collect();
                    let mut rng = DetRng::new(7);
                    b.iter(|| {
                        black_box(aggregate_wait_quantile(
                            black_box(&sources),
                            0.1,
                            draws,
                            &mut rng,
                        ))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_estimator);
criterion_main!(benches);
