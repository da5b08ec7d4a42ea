//! Discrete-event engine throughput: events processed per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pard_sim::{EventQueue, SimDuration, SimTime, Simulation, World};
use std::hint::black_box;

/// A world that reschedules itself `remaining` times.
struct Chain {
    remaining: u64,
}

impl World for Chain {
    type Event = u64;

    fn handle(&mut self, now: SimTime, ev: u64, queue: &mut EventQueue<u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            queue.push(
                now + SimDuration::from_micros(ev % 97 + 1),
                ev.wrapping_mul(2862933555777941757).wrapping_add(1),
            );
        }
    }
}

fn bench_des(c: &mut Criterion) {
    let mut group = c.benchmark_group("des");
    const EVENTS: u64 = 100_000;
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("chained_events_100k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Chain { remaining: EVENTS });
            sim.schedule(SimTime::ZERO, 12345);
            sim.run_to_completion();
            black_box(sim.processed())
        })
    });
    group.bench_function("wide_heap_100k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Chain { remaining: 0 });
            for i in 0..EVENTS {
                sim.schedule(SimTime::from_micros((i * 7919) % 1_000_000), i);
            }
            sim.run_to_completion();
            black_box(sim.processed())
        })
    });
    // The same events as `wide_heap_100k`, streamed in time order the
    // way a trace-driven run feeds its arrivals.
    let mut source: Vec<(SimTime, u64)> = (0..EVENTS)
        .map(|i| (SimTime::from_micros((i * 7919) % 1_000_000), i))
        .collect();
    source.sort_by_key(|&(t, _)| t);
    group.bench_function("merged_source_100k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Chain { remaining: 0 });
            sim.run_merged(source.iter().copied());
            black_box(sim.processed())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_des);
criterion_main!(benches);
