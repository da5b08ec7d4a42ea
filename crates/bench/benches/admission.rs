//! Edge-admission microbenchmarks: the cost of one admission decision
//! on the gateway's per-request path.
//!
//! `edge_decision/full` recomputes the critical-path estimate from the
//! raw `EdgeState` on every call — what the gateway did when the state
//! sat behind a mutex and had to be re-derived per request.
//! `edge_decision/snapshot` is the shipping hot path: the
//! `AdmissionFloor` is precomputed once per published snapshot
//! ([`pard_gateway::EdgeSnapshot`]), and the per-request decision is
//! pure arithmetic on three `Copy` durations — no lock anywhere (the
//! snapshot is immutable shared data behind an epoch-validated `Arc`),
//! no allocation, no walk over the pipeline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pard_engine_api::EdgeState;
use pard_gateway::{AdmissionFloor, EdgeSnapshot};
use pard_sim::{SimDuration, SimTime};
use std::hint::black_box;

fn dag_state() -> (EdgeState, Vec<Vec<usize>>) {
    // A diamond DAG with loaded queues: the admission shape the `da`
    // app serves, with both downstream paths live.
    let state = EdgeState {
        queue_depths: vec![12, 4, 9, 2],
        workers: vec![2, 2, 2, 2],
        batch_sizes: vec![4, 4, 4, 4],
        exec_ms: vec![40.0, 100.0, 90.0, 20.0],
        slo: SimDuration::from_millis(420),
    };
    let paths = vec![vec![1, 3], vec![2, 3]];
    (state, paths)
}

fn bench_admission(c: &mut Criterion) {
    let (state, paths) = dag_state();
    let snapshot = EdgeSnapshot::new(state.clone(), 0, &paths);
    let now = SimTime::from_millis(1_000);
    let deadline = now + SimDuration::from_millis(420);

    let mut group = c.benchmark_group("edge_decision");
    group.throughput(Throughput::Elements(1));
    group.bench_function("full", |b| {
        b.iter(|| {
            AdmissionFloor::compute(black_box(&state), 0, black_box(&paths))
                .decide(black_box(now), black_box(deadline))
        })
    });
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(&snapshot).decide(black_box(now), black_box(deadline)))
    });
    group.bench_function("snapshot_build", |b| {
        b.iter(|| EdgeSnapshot::new(black_box(state.clone()), 0, black_box(&paths)))
    });
    group.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
