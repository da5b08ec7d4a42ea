//! The layer walk of a traced run: one layer at a time, the workload's
//! own inputs are fed through the public functions its path is built
//! from, each timed from outside. One span per 4 096 calls,
//! parented to the layer's span, which is parented to the walk.
//!
//! The items called here are the surface `README.md` lists: a refactor
//! that moves one of them has to keep it or hand it to a follow-up
//! benchmark change.

use std::hint::black_box;
use std::sync::mpsc;

use pard_core::batchwait::{aggregate_wait_quantile, WaitSource};
use pard_core::{Depq, ModuleState, PardConfig, PipelineView, StatePlanner};
use pard_engine_api::{Backend, ClusterConfig, EngineBuilder, EngineHandle, SubmitSpec};
use pard_gateway::{
    AdaptiveConfig, AdaptiveState, EdgePublisher, EdgeSnapshot, PendingMap, Request, Response,
    SnapshotReader,
};
use pard_harness::{build_schedule, build_sim_engine, run_schedule_engine, Scenario, TraceSpec};
use pard_obs::{FlightRecorder, ObsEvent, ObsKind};
use pard_pipeline::{graph, AppKind};
use pard_sim::{DetRng, EventQueue, SimDuration, SimTime, Simulation, World};
use pard_workload::WireEvent;

use crate::gateway::{closed_mix, live_inputs, replay_inputs};
use crate::gen::Arrival;
use crate::inproc::sweep_spec;
use crate::report::{RunResult, Values};
use crate::spans::{SpanId, Tracer, NO_PARENT};
use crate::wireio::push_request;
use crate::Ctx;

/// Lines of the workload's input the walk feeds through each layer
/// (eight burst cycles of the replay schedule).
const WALK_LINES: usize = 200_000;
const CALLS_PER_SPAN: usize = 4_096;

/// Times `calls` invocations of `call` under a span named `name` and
/// returns the mean nanoseconds per call.
fn walk(
    tracer: &mut Tracer,
    root: SpanId,
    name: &'static str,
    calls: usize,
    mut call: impl FnMut(usize),
) -> f64 {
    let layer = tracer.push(name, tracer.now_ns(), 0, root, calls as u64);
    let mut busy_ns = 0;
    for from in (0..calls).step_by(CALLS_PER_SPAN) {
        let to = (from + CALLS_PER_SPAN).min(calls);
        let start = tracer.now_ns();
        for i in from..to {
            call(i);
        }
        let end = tracer.now_ns();
        tracer.push(name, start, end, layer, (to - from) as u64);
        busy_ns += end - start;
    }
    tracer.close(layer, tracer.now_ns());
    busy_ns as f64 / calls.max(1) as f64
}

/// The engine the gateway binary builds for `--app <app> --backend sim
/// --workers 2`.
fn sim_engine(app: AppKind, seed: u64) -> Box<dyn EngineHandle> {
    let config = ClusterConfig::default()
        .with_seed(seed)
        .with_fixed_workers(vec![2; app.pipeline().modules.len()])
        .with_pard(PardConfig::default().with_mc_draws(1_000));
    EngineBuilder::for_app(app)
        .build(Backend::Sim(config))
        .expect("the builtin pipelines build")
}

fn stage_event(i: u64) -> ObsEvent {
    ObsEvent {
        t_us: 2_000_000 + i,
        req: i,
        kind: ObsKind::Stage {
            module: (i % 3) as u16,
            worker: (i % 2) as u16,
            batch: 8,
            arrived_us: 1_900_000 + i,
            batched_us: 1_940_000 + i,
            exec_start_us: 1_950_000 + i,
            exec_end_us: 2_000_000 + i,
        },
    }
}

/// The self-rescheduling world of the repository's own DES benchmark.
struct Chain {
    remaining: u64,
}

impl World for Chain {
    type Event = u64;

    fn handle(&mut self, now: SimTime, event: u64, queue: &mut EventQueue<u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            queue.push(
                now + SimDuration::from_micros(event % 97 + 1),
                event.wrapping_mul(2862933555777941757).wrapping_add(1),
            );
        }
    }
}

/// The layer walk of one traced run: each workload walks the layers it
/// runs, over its own input, so no probe repeats under a workload whose
/// numbers it cannot explain.
///
/// - `replay_tm_burst`: the per-request path of the gateway over the
///   replay schedule, then the rest of `gateway` and the stepped engine
///   behind it. `replay2_tm_burst` replays the same lines through the
///   same layers, so it walks nothing.
/// - `closed_tm_sim`, `live_da_burst`: the per-request path over their
///   own lines; the closed loop also gets what is left for
///   `gateway::server`.
/// - `des_fig08_slice`: `sim` and `core`, the simulator's own parts.
/// - `sweep_tm_grid`: what a sweep cell pays before it replays.
pub fn layer_walk(ctx: &Ctx, run: &mut RunResult, tracer: &mut Tracer) {
    let root = tracer.push("walk", tracer.now_ns(), 0, NO_PARENT, 0);
    let values = &mut run.values;
    match run.workload {
        "replay_tm_burst" => {
            let timed = replay_inputs(ctx.seed, WALK_LINES / 25_000).1;
            request_path(ctx, values, tracer, root, AppKind::Tm, &timed, true);
            gateway_rest(ctx, values, tracer, root);
            stepped_engine(ctx, values, tracer, root, &timed);
        }
        "closed_tm_sim" => {
            let mix = closed_mix(ctx.seed);
            let probed_ns = request_path(ctx, values, tracer, root, AppKind::Tm, &mix, false);
            // gateway::server has no public per-request call: with the
            // engine behind it, it is what is left of the client's wait
            // once every probed layer a request crosses is taken out.
            let wait_us = values.median("client.wait_us_p50");
            values.push(
                "server.residual_us",
                wait_us.map(|wait_us| wait_us - probed_ns / 1e3),
            );
        }
        "live_da_burst" => {
            let timed = live_inputs(ctx.seed, ctx.seconds).1;
            request_path(ctx, values, tracer, root, AppKind::Da, &timed, false);
        }
        "des_fig08_slice" => sim_and_core(ctx, values, tracer, root),
        "sweep_tm_grid" => sweep_cell(ctx, values, tracer, root),
        _ => {}
    }
    tracer.close(root, tracer.now_ns());
}

/// The layers one request crosses in the gateway, over `input` (the
/// workload's own request lines, with `at_us` stamps when `scheduled`):
/// decode, the admission decision against a loaded engine's edge state,
/// the pending table, the flight recorder, encode. Returns the sum of
/// the per-request probes, ns.
fn request_path(
    ctx: &Ctx,
    values: &mut Values,
    tracer: &mut Tracer,
    root: SpanId,
    app: AppKind,
    input: &[Arrival],
    scheduled: bool,
) -> f64 {
    let input = &input[..input.len().min(WALK_LINES)];
    let n = input.len();

    // gateway::wire, and a reply mix like the one the lines get back.
    let mut text = Vec::new();
    let mut ends = Vec::with_capacity(n);
    for (i, arrival) in input.iter().enumerate() {
        push_request(
            &mut text,
            app.name(),
            i as u64,
            arrival,
            scheduled.then_some(arrival.at_us),
        );
        ends.push(text.len() - 1);
    }
    let text = String::from_utf8(text).expect("request lines are ASCII");
    let line = |i: usize| &text[if i == 0 { 0 } else { ends[i - 1] + 1 }..ends[i]];
    let decode_ns = walk(tracer, root, "wire.request_decode", n, |i| {
        black_box(Request::decode(black_box(line(i))).expect("our own lines decode"));
    });
    values.push("wire.request_decode_ns", decode_ns);
    let replies: Vec<Response> = (0..n as u64)
        .map(|i| match i % 10 {
            0 => Response::dropped((1 << 52) + i, Some(i), true, "predicted"),
            7 => Response::dropped(i, Some(i), false, "expired"),
            9 => Response::violated(i, Some(i), 412.5 + (i % 50) as f64),
            _ => Response::ok(i, Some(i), 40.0 + (i % 300) as f64 * 0.731),
        })
        .collect();
    let mut out = String::with_capacity(128);
    let encode_ns = walk(tracer, root, "wire.response_encode", n, |i| {
        out.clear();
        black_box(&replies[i]).encode_into(&mut out);
        black_box(&out);
    });
    values.push("wire.response_encode_ns", encode_ns);

    // gateway::admission, against the edge state of a loaded engine.
    let engine = sim_engine(app, ctx.seed);
    let source = engine.spec().source();
    let paths = graph::downstream_paths(engine.spec(), source);
    for k in 0..200u64 {
        engine.submit(SubmitSpec {
            slo: None,
            tag: 0,
            at: Some(SimTime::from_micros(k * 1_000)),
        });
    }
    let snapshot = EdgeSnapshot::new(engine.edge_state(), source, &paths);
    let decide_ns = walk(tracer, root, "admission.decide", n, |i| {
        let now = SimTime::from_micros(input[i].at_us);
        let deadline = now + SimDuration::from_millis(input[i].slo_ms as u64);
        black_box(black_box(&snapshot).decide(now, deadline));
    });
    values.push("admission.decide_ns", decide_ns);
    let publisher = EdgePublisher::new(snapshot);
    let mut reader = SnapshotReader::new(&publisher);
    let current_ns = walk(tracer, root, "admission.reader_current", n, |_| {
        black_box(reader.current(black_box(&publisher)));
    });
    values.push("admission.reader_current_ns", current_ns);

    // gateway::pending: the life of one entry, from one thread and from
    // two at once.
    let table: PendingMap<u64, u64> = PendingMap::new(8_192);
    let entry_life = |id: u64| {
        if table.reserve() {
            black_box(table.insert(id, id));
            black_box(table.take_or_stash(id, id));
        }
    };
    let pending_ns = walk(tracer, root, "pending.insert_take", n, |i| {
        entry_life(i as u64)
    });
    values.push("pending.insert_take_ns", pending_ns);
    let pending_2t_ns = walk(tracer, root, "pending.insert_take_2t", 1, |_| {
        std::thread::scope(|scope| {
            for half in 0..2u64 {
                scope.spawn(move || (0..n as u64 / 2).for_each(|i| entry_life(2 * i + half)));
            }
        });
    });
    values.push(
        "pending.insert_take_2t_ns",
        pending_2t_ns / (n / 2).max(1) as f64,
    );

    // obs: one stage event recorded.
    let recorder = FlightRecorder::with_capacity(CALLS_PER_SPAN);
    let record_ns = walk(tracer, root, "obs.record", n, |i| {
        recorder.record(black_box(&stage_event(i as u64)))
    });
    values.push("obs.record_ns", record_ns);

    decode_ns + encode_ns + current_ns + decide_ns + pending_ns + record_ns
}

/// What `gateway` does per change of state rather than per request:
/// building a snapshot, and folding a ring of events into the
/// estimator.
fn gateway_rest(ctx: &Ctx, values: &mut Values, tracer: &mut Tracer, root: SpanId) {
    let engine = sim_engine(AppKind::Tm, ctx.seed);
    let source = engine.spec().source();
    let paths = graph::downstream_paths(engine.spec(), source);
    let state = engine.edge_state();
    let build_ns = walk(tracer, root, "admission.snapshot_build", 20_000, |_| {
        black_box(EdgeSnapshot::new(black_box(state.clone()), source, &paths));
    });
    values.push("admission.snapshot_build_us", build_ns / 1e3);

    let recorder = FlightRecorder::with_capacity(CALLS_PER_SPAN);
    let fill = |fold: u64| {
        for i in 0..CALLS_PER_SPAN as u64 {
            recorder.record(&stage_event(fold * CALLS_PER_SPAN as u64 + i));
        }
    };
    let fill_ns = walk(tracer, root, "adaptive.fill", 40, |fold| fill(fold as u64));
    let mut adaptive = AdaptiveState::new(AdaptiveConfig::default());
    let mut edge = state.clone();
    let fold_ns = walk(tracer, root, "adaptive.observe", 40, |fold| {
        fill(fold as u64);
        edge.exec_ms.clone_from(&state.exec_ms);
        black_box(adaptive.observe_and_adjust(&recorder, &mut edge, source));
    });
    // Per event folded, with the filling of the ring taken out.
    values.push(
        "adaptive.observe_ns",
        (fold_ns - fill_ns).max(0.0) / CALLS_PER_SPAN as f64,
    );
}

/// engine-api + cluster (the stepped simulator behind the gateway) and
/// the harness's socketless replay of `timed`.
fn stepped_engine(
    ctx: &Ctx,
    values: &mut Values,
    tracer: &mut Tracer,
    root: SpanId,
    timed: &[Arrival],
) {
    let mut built = Vec::new();
    let build_ms = walk(tracer, root, "engine.sim_build", 16, |i| {
        built.push(sim_engine(AppKind::Tm, ctx.seed + i as u64))
    });
    values.push("engine.sim_build_ms", build_ms / 1e6);
    let engine = built.pop().expect("sixteen engines were built");
    drop(built);
    let (sink, completions) = mpsc::channel();
    engine.set_completion_sink(sink);
    let submit_ns = walk(tracer, root, "engine.submit_at", 50_000, |i| {
        black_box(engine.submit(SubmitSpec {
            slo: Some(SimDuration::from_millis(timed[i].slo_ms as u64)),
            tag: 0,
            at: Some(SimTime::from_micros(timed[i].at_us)),
        }));
    });
    values.push("engine.submit_at_ns", submit_ns);
    let edge_state_ns = walk(tracer, root, "engine.edge_state", 20_000, |_| {
        black_box(engine.edge_state());
    });
    values.push("engine.edge_state_us", edge_state_ns / 1e3);
    let drain_ns = walk(tracer, root, "engine.drain", 1, |_| {
        black_box(engine.drain(SimDuration::from_secs(10)));
    });
    values.push("engine.drain_ms", drain_ns / 1e6);
    drop(completions);

    // harness: the same admission sequence with no socket in it.
    let mut scenario = Scenario::new(
        "bench-walk",
        AppKind::Tm,
        TraceSpec::Constant {
            rate: 1.0,
            len_s: 1,
        },
    )
    .with_workers(vec![2; 3])
    .with_seed(ctx.seed);
    scenario.mc_draws = 1_000;
    let events: Vec<WireEvent> = timed[..100_000]
        .iter()
        .map(|a| WireEvent {
            at: SimTime::from_micros(a.at_us),
            app: "tm".into(),
            slo_ms: a.slo_ms as u64,
            payload_len: a.payload_len as usize,
        })
        .collect();
    let horizon = SimDuration::from_micros(events.last().map_or(0, |e| e.at.as_micros()));
    let socketless_ns = walk(tracer, root, "harness.socketless", 1, |_| {
        let engine = build_sim_engine(&scenario, Some(0));
        black_box(run_schedule_engine(&scenario, engine, &events, horizon));
    });
    values.push(
        "harness.socketless_req_ns",
        socketless_ns / events.len() as f64,
    );
}

/// `sim` and `core`: the event loop, the double-ended priority queue,
/// the batch-wait Monte Carlo and the State Planner's estimate.
fn sim_and_core(ctx: &Ctx, values: &mut Values, tracer: &mut Tracer, root: SpanId) {
    let events_run = 200_000u64;
    let event_ns = walk(tracer, root, "sim.event", 1, |_| {
        let mut sim = Simulation::new(Chain {
            remaining: events_run,
        });
        sim.schedule(SimTime::ZERO, 12_345);
        sim.run_to_completion();
        black_box(sim.processed());
    });
    values.push("sim.event_ns", event_ns / events_run as f64);
    let mut rng = DetRng::new(ctx.seed);
    let mut queue: Depq<u64> = (0..1_024).map(|_| rng.next_u64()).collect();
    let depq_ns = walk(tracer, root, "core.depq_op", WALK_LINES, |i| {
        queue.push(black_box(rng.next_u64()));
        black_box(if i % 2 == 0 {
            queue.pop_min()
        } else {
            queue.pop_max()
        });
    });
    values.push("core.depq_op_ns", depq_ns);
    let wait_samples: Vec<f64> = (0..512).map(|i| (i % 80) as f64 * 0.5).collect();
    let sources = [WaitSource::Samples(&wait_samples); 3];
    for (name, span, draws, calls) in [
        (
            "core.batchwait_q1000_us",
            "core.batchwait_q1000",
            1_000,
            400,
        ),
        (
            "core.batchwait_q4000_us",
            "core.batchwait_q4000",
            4_000,
            100,
        ),
    ] {
        let ns = walk(tracer, root, span, calls, |_| {
            black_box(aggregate_wait_quantile(
                black_box(&sources),
                0.1,
                draws,
                &mut rng,
            ));
        });
        values.push(name, ns / 1e3);
    }
    let tm = AppKind::Tm.pipeline();
    let pard = PardConfig::default();
    let mut planner = StatePlanner::new(
        0,
        graph::downstream_paths(&tm, 0),
        pard.lambda,
        1_000,
        pard.rate_history_len,
        DetRng::new(ctx.seed),
    );
    let view = PipelineView {
        taken_at: SimTime::from_secs(1),
        modules: (0..tm.modules.len())
            .map(|m| ModuleState {
                avg_queueing_ms: 4.0 + m as f64,
                batch_size: 8,
                exec_ms: 40.0,
                throughput: 200.0,
                input_rate: 180.0,
                wait_sample_ms: (0..pard.wait_digest_len).map(|i| (i % 40) as f32).collect(),
                ..ModuleState::empty(m)
            })
            .collect(),
    };
    let estimate_ns = walk(tracer, root, "core.planner_estimate", 400, |_| {
        black_box(planner.estimate(black_box(&view)));
    });
    values.push("core.planner_estimate_us", estimate_ns / 1e3);
}

/// harness + sweep: what a sweep cell pays before it replays.
fn sweep_cell(ctx: &Ctx, values: &mut Values, tracer: &mut Tracer, root: SpanId) {
    let spec = sweep_spec(ctx.seed);
    let cell = spec.scenario(&spec.cells()[0]);
    let schedule_ns = walk(tracer, root, "sweep.build_schedule", 8, |_| {
        black_box(build_schedule(black_box(&cell)));
    });
    values.push("sweep.build_schedule_ms", schedule_ns / 1e6);
    let engine_ns = walk(tracer, root, "sweep.build_engine", 64, |_| {
        black_box(build_sim_engine(black_box(&cell), Some(0)));
    });
    values.push("sweep.build_engine_us", engine_ns / 1e3);
}
