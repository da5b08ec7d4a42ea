//! End-to-end simulator throughput: simulated requests per wall second
//! for a short tm run under PARD, and the stepped serving wrapper's
//! cost per scheduled arrival with a burst's worth of requests in
//! flight — on a fresh server and on one two million requests old.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pard_bench::{exec_estimates, experiment_config, oc_config, run_system, Workload};
use pard_cluster::{resolve_profiles, SimServer};
use pard_core::PardConfig;
use pard_pipeline::AppKind;
use pard_policies::{make_factory, SystemKind};
use pard_sim::{SimDuration, SimTime};
use pard_workload::{constant, TraceKind};
use std::hint::black_box;

fn bench_cluster(c: &mut Criterion) {
    let workload = Workload {
        app: AppKind::Tm,
        trace: TraceKind::Tweet,
    };
    let trace = constant(200.0, 10);
    let mut group = c.benchmark_group("cluster");
    group.sample_size(10);
    group.throughput(Throughput::Elements(2_000));
    group.bench_function("tm_10s_at_200rps", |b| {
        b.iter(|| {
            let config = experiment_config(7).with_pard(PardConfig::default().with_mc_draws(1_000));
            let result =
                run_system(workload, SystemKind::Pard, &trace, config).expect("zoo models");
            black_box(result.log.len())
        })
    });
    group.finish();
}

/// `advance_to` + `submit` on a gated `tm` [`SimServer`] that a steady
/// schedule holds at about 100 unresolved requests — what a replayed
/// burst looks like from inside. Every event the advance steps through
/// collects its terminals, so this is where a per-event cost that grows
/// with the number in flight shows. One iteration is 1 000 arrivals:
/// ms/iter reads as µs per arrival.
///
/// Measured twice: on a fresh server, and on one that has already
/// answered two million requests. The server retires what it has
/// answered, so the two must read the same; a server that kept every
/// request would be slower the second time (a table of 2 M records no
/// longer fits any cache).
fn bench_sim_server(c: &mut Criterion) {
    const ARRIVALS_PER_ITER: u64 = 1_000;
    const SERVED_BEFORE: u64 = 2_000_000;
    // 8 workers a module serve ~1 600 req/s; 1 000 req/s at ~100 ms a
    // request keeps 90–105 in flight without PARD shedding any.
    const GAP: SimDuration = SimDuration::from_micros(1_000);
    let new_server = || {
        let spec = AppKind::Tm.pipeline();
        let config = experiment_config(7)
            .with_fixed_workers(vec![8; spec.modules.len()])
            .with_pard(PardConfig::default().with_mc_draws(1_000));
        let exec = exec_estimates(&spec, config.headroom).expect("zoo models");
        let factory = make_factory(SystemKind::Pard, &spec, &exec, oc_config(TraceKind::Tweet));
        let profiles = resolve_profiles(&spec).expect("zoo models");
        let workers = config.fixed_workers.clone().expect("set above");
        (
            SimServer::new(spec, profiles, factory, config, workers),
            SimTime::ZERO,
        )
    };
    let arrivals = |(server, t): &mut (SimServer, SimTime), count: u64| {
        for _ in 0..count {
            *t += GAP;
            black_box(server.advance_to(*t));
            black_box(server.submit(None));
        }
        server.unresolved()
    };
    let mut group = c.benchmark_group("sim_server");
    group.throughput(Throughput::Elements(ARRIVALS_PER_ITER));
    let mut fresh = new_server();
    group.bench_function("advance_submit_100_in_flight", |b| {
        b.iter(|| arrivals(&mut fresh, ARRIVALS_PER_ITER))
    });
    let mut seasoned = new_server();
    arrivals(&mut seasoned, SERVED_BEFORE);
    group.bench_function("advance_submit_after_2m_served", |b| {
        b.iter(|| arrivals(&mut seasoned, ARRIVALS_PER_ITER))
    });
    group.finish();
}

criterion_group!(benches, bench_cluster, bench_sim_server);
criterion_main!(benches);
