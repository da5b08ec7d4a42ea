//! The live backend end to end: the simulated cluster on a compressed
//! wall clock, driven through [`EngineHandle`] — chains and DAGs,
//! completion delivery, and stage ordering read back from the flight
//! recorder.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;

use pard_core::{
    PardConfig, PardPolicy, PardPolicyConfig, PolicyFactory, PopCtx, PopOutcome, ReqMeta,
    WorkerPolicy,
};
use pard_engine_api::{
    ClusterConfig, Completion, EngineBuilder, EngineHandle, LiveConfig, PacedEngine, SubmitSpec,
};
use pard_metrics::{DropReason, Outcome, ServedTotals};
use pard_obs::ObsKind;
use pard_pipeline::{AppKind, ModuleSpec, PipelineSpec};
use pard_policies::NaivePolicy;
use pard_profile::ModelProfile;
use pard_sim::{DetRng, SimDuration, SimTime};

const SCALE: f64 = 40.0; // 40 virtual seconds per wall second

fn chain_profiles() -> Vec<ModelProfile> {
    vec![
        ModelProfile::new("a", 10.0, 5.0, 0.9, 16),
        ModelProfile::new("b", 8.0, 4.0, 0.9, 16),
        ModelProfile::new("c", 6.0, 3.0, 0.9, 16),
    ]
}

fn pard() -> PolicyFactory {
    Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard())))
}

fn naive() -> PolicyFactory {
    Box::new(|_| Box::new(NaivePolicy::new()))
}

/// A three-module chain under `slo_ms` with `workers` per module.
fn chain(slo_ms: u64, workers: usize, policy: PolicyFactory) -> PacedEngine {
    let spec = PipelineSpec::chain("live", SimDuration::from_millis(slo_ms), &["a", "b", "c"]);
    EngineBuilder::new(spec)
        .with_profiles(chain_profiles())
        .with_policy(policy)
        .build_live(LiveConfig::compressed(SCALE, 3, workers))
        .expect("valid chain")
}

/// Submits a Poisson stream of `rate` requests per virtual second for
/// `duration` of virtual time, each as the engine's clock reaches it.
fn open_loop(engine: &PacedEngine, rate: f64, duration: SimDuration, seed: u64) {
    let mut rng = DetRng::new(seed);
    let end = engine.now() + duration;
    let mut next = engine.now() + SimDuration::from_secs_f64(rng.exp(1.0 / rate));
    while next < end {
        while engine.now() < next {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        engine.submit(SubmitSpec::default());
        next += SimDuration::from_secs_f64(rng.exp(1.0 / rate));
    }
}

/// What an engine served, read after its drain.
struct Served {
    totals: ServedTotals,
    completions: HashMap<u64, Completion>,
    engine: PacedEngine,
}

impl Served {
    fn goodput_fraction(&self) -> f64 {
        self.totals.goodput as f64 / self.totals.requests.max(1) as f64
    }

    /// `(module, arrived, batched, exec_start, exec_end)` of every stage
    /// request `id` executed, in the order the recorder saw them.
    fn stages(&self, id: u64) -> Vec<(u16, u64, u64, u64, u64)> {
        let recorder = self.engine.telemetry().expect("the live backend records");
        recorder
            .events_for(id)
            .iter()
            .filter_map(|e| match e.kind {
                ObsKind::Stage {
                    module,
                    arrived_us,
                    batched_us,
                    exec_start_us,
                    exec_end_us,
                    ..
                } => Some((module, arrived_us, batched_us, exec_start_us, exec_end_us)),
                _ => None,
            })
            .collect()
    }
}

/// Drains `engine` and collects every completion its sink received,
/// asserting each request was answered exactly once.
fn finish(engine: PacedEngine, rx: Receiver<Completion>, limit: SimDuration) -> Served {
    let totals = engine.drain(limit);
    let mut completions = HashMap::new();
    for completion in rx.try_iter() {
        assert!(!matches!(completion.outcome, Outcome::InFlight));
        let previous = completions.insert(completion.id, completion);
        assert!(previous.is_none(), "{} answered twice", completion.id);
    }
    Served {
        totals,
        completions,
        engine,
    }
}

fn with_sink(engine: &PacedEngine) -> Receiver<Completion> {
    let (tx, rx) = std::sync::mpsc::channel();
    engine.set_completion_sink(tx);
    rx
}

#[test]
fn light_load_serves_within_slo() {
    let engine = chain(400, 1, pard());
    let rx = with_sink(&engine);
    open_loop(&engine, 30.0, SimDuration::from_secs(8), 7);
    let served = finish(engine, rx, SimDuration::from_secs(5));
    assert!(served.totals.requests > 100, "{:?}", served.totals);
    assert!(served.goodput_fraction() > 0.9, "{:?}", served.totals);
    // Requests traverse all three modules in order.
    let completed = served
        .completions
        .values()
        .find(|c| c.within_slo())
        .expect("at least one goodput request");
    let modules: Vec<u16> = served.stages(completed.id).iter().map(|s| s.0).collect();
    assert_eq!(modules, vec![0, 1, 2]);
}

#[test]
fn overload_drops_proactively_with_pard() {
    // SLO is tight and the offered rate exceeds one worker's capacity.
    let engine = chain(150, 1, pard());
    let rx = with_sink(&engine);
    open_loop(&engine, 400.0, SimDuration::from_secs(6), 11);
    let served = finish(engine, rx, SimDuration::from_secs(4));
    assert!(served.totals.requests > 500, "{:?}", served.totals);
    let drop_rate = served.totals.dropped as f64 / served.totals.requests as f64;
    assert!(drop_rate > 0.1, "overload must drop, rate {drop_rate}");
    // Goodput requests really met the deadline.
    for c in served.completions.values().filter(|c| c.within_slo()) {
        assert!(c.latency().expect("completed") <= SimDuration::from_millis(150));
    }
}

#[test]
fn pard_beats_naive_under_live_overload() {
    let run = |policy| {
        let engine = chain(200, 1, policy);
        let rx = with_sink(&engine);
        open_loop(&engine, 350.0, SimDuration::from_secs(6), 13);
        finish(engine, rx, SimDuration::from_secs(4)).goodput_fraction()
    };
    let (pard_frac, naive_frac) = (run(pard()), run(naive()));
    assert!(
        pard_frac > naive_frac,
        "PARD {pard_frac:.3} should beat Naive {naive_frac:.3}"
    );
}

#[test]
fn stage_timestamps_are_ordered() {
    let engine = chain(400, 2, pard());
    let rx = with_sink(&engine);
    open_loop(&engine, 60.0, SimDuration::from_secs(5), 17);
    let served = finish(engine, rx, SimDuration::from_secs(4));
    let mut stages = 0;
    for &id in served.completions.keys() {
        let mut prev_end = 0;
        for (_, arrived, batched, exec_start, exec_end) in served.stages(id) {
            assert!(arrived <= batched);
            assert!(batched <= exec_start);
            assert!(exec_start < exec_end);
            assert!(arrived >= prev_end, "stage started before previous ended");
            prev_end = exec_end;
            stages += 1;
        }
    }
    assert!(stages > 200, "stages {stages}");
}

#[test]
fn submit_returns_monotonic_ids() {
    let engine = chain(400, 1, pard());
    let a = engine.submit(SubmitSpec::default());
    let b = engine.submit(SubmitSpec::default());
    assert_eq!(b, a + 1);
    assert_eq!(engine.drain(SimDuration::from_secs(3)).requests, 2);
}

#[test]
fn per_request_slo_overrides_pipeline_default() {
    let engine = chain(400, 1, pard());
    let rx = with_sink(&engine);
    // An SLO far tighter than the pipeline can serve: the request must
    // resolve as dropped, while a default-SLO request completes.
    let tight = engine.submit(SubmitSpec::default().with_slo(SimDuration::from_millis(1)));
    let loose = engine.submit(SubmitSpec::default());
    let served = finish(engine, rx, SimDuration::from_secs(5));
    let tight = &served.completions[&tight];
    assert_eq!(tight.deadline, tight.sent + SimDuration::from_millis(1));
    assert!(
        matches!(tight.outcome, Outcome::Dropped { .. }),
        "tight SLO request must not count: {tight:?}"
    );
    assert!(
        served.completions[&loose].within_slo(),
        "default SLO request must complete"
    );
}

#[test]
fn completion_sink_reports_every_request_with_its_tag() {
    let engine = chain(400, 1, pard());
    let rx = with_sink(&engine);
    let mut expected = HashMap::new();
    for tag in [7u64, 11, 13] {
        let id = engine.submit(SubmitSpec::default().with_tag(tag));
        expected.insert(id, tag);
    }
    // The pacer answers on its own, before any drain.
    for _ in 0..expected.len() {
        let completion = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("completion without a drain");
        assert_eq!(expected[&completion.id], completion.tag);
        assert!(!matches!(completion.outcome, Outcome::InFlight));
        if completion.within_slo() {
            assert!(completion.latency().expect("completed") <= SimDuration::from_millis(400));
        }
    }
    assert_eq!(engine.drain(SimDuration::from_secs(3)).requests, 3);
}

#[test]
fn batches_take_their_profiled_time_over_the_scale() {
    // The pacer answers a request when the wall clock reaches its
    // virtual finish, not before: at 100× a ~130 ms virtual pipeline
    // takes ~1.3 ms of wall time.
    let engine = EngineBuilder::new(PipelineSpec::chain(
        "live",
        SimDuration::from_millis(400),
        &["a", "b", "c"],
    ))
    .with_profiles(chain_profiles())
    .build_live(LiveConfig::compressed(100.0, 3, 1))
    .expect("valid chain");
    let rx = with_sink(&engine);
    let started = std::time::Instant::now();
    engine.submit(SubmitSpec::default());
    let completion = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("answered without a drain");
    let wall = started.elapsed();
    let latency = completion.latency().expect("completed");
    assert!(
        wall.as_secs_f64() >= latency.as_secs_f64() / 100.0 * 0.95,
        "answered after {wall:?} for {latency} virtual"
    );
    assert!(wall.as_millis() < 50, "{wall:?}");
    let _ = engine.drain(SimDuration::from_secs(1));
}

#[test]
fn edge_state_reflects_plan_and_queues() {
    let engine = chain(400, 2, pard());
    let state = engine.edge_state();
    assert_eq!(state.queue_depths.len(), 3);
    assert_eq!(state.workers, vec![2, 2, 2]);
    assert_eq!(state.batch_sizes.len(), 3);
    assert_eq!(state.exec_ms.len(), 3);
    assert_eq!(state.slo, SimDuration::from_millis(400));
    assert!(state.exec_ms.iter().all(|&d| d > 0.0));
    assert!(state.batch_sizes.iter().all(|&b| b >= 1));
    let _ = engine.drain(SimDuration::from_secs(1));
}

/// The diamond of §5.1: 0 splits to {1, 2}, 3 merges them.
fn diamond(policy: PolicyFactory) -> PacedEngine {
    let module = |name: &str, id, pres: Vec<usize>, subs: Vec<usize>| ModuleSpec {
        name: name.into(),
        id,
        pres,
        subs,
    };
    let spec = PipelineSpec {
        name: "diamond".into(),
        slo: SimDuration::from_millis(5_000),
        modules: vec![
            module("a", 0, vec![], vec![1, 2]),
            module("b", 1, vec![0], vec![3]),
            module("c", 2, vec![0], vec![3]),
            module("d", 3, vec![1, 2], vec![]),
        ],
    };
    let profiles = vec![
        ModelProfile::new("a", 10.0, 5.0, 0.9, 16),
        ModelProfile::new("b", 8.0, 4.0, 0.9, 16),
        // The c branch is deliberately ~4× slower than b, so the merge
        // barrier is always exercised: b's fragment arrives first and
        // must wait for c's.
        ModelProfile::new("c", 30.0, 15.0, 0.9, 16),
        ModelProfile::new("d", 6.0, 3.0, 0.9, 16),
    ];
    EngineBuilder::new(spec)
        .with_profiles(profiles)
        .with_policy(policy)
        .build_live(LiveConfig::compressed(SCALE, 4, 1))
        .expect("valid diamond")
}

/// Refuses every request at admission — stands in for a PARD drop
/// firing on one DAG branch.
struct RefuseAll;

impl WorkerPolicy for RefuseAll {
    fn name(&self) -> &'static str {
        "refuse-all"
    }

    fn enqueue(&mut self, req: ReqMeta, _now: SimTime) -> Option<(ReqMeta, DropReason)> {
        Some((req, DropReason::PredictedViolation))
    }

    fn pop_next(&mut self, _ctx: &PopCtx) -> PopOutcome {
        PopOutcome::Empty
    }

    fn queue_len(&self) -> usize {
        0
    }

    fn drain_queue(&mut self) -> Vec<ReqMeta> {
        Vec::new()
    }
}

/// Naive everywhere except `module`, which refuses everything.
fn refusing(module: usize) -> PolicyFactory {
    Box::new(move |m| -> Box<dyn WorkerPolicy> {
        if m == module {
            Box::new(RefuseAll)
        } else {
            Box::new(NaivePolicy::new())
        }
    })
}

#[test]
fn split_fans_out_and_merge_waits_for_both_branches() {
    let engine = diamond(naive());
    let rx = with_sink(&engine);
    let ids: Vec<u64> = (0..5)
        .map(|_| engine.submit(SubmitSpec::default()))
        .collect();
    let served = finish(engine, rx, SimDuration::from_secs(20));
    assert_eq!(served.totals.requests, ids.len() as u64);
    for id in ids {
        let completion = served.completions[&id];
        assert!(
            matches!(completion.outcome, Outcome::Completed { .. }),
            "{completion:?}"
        );
        let stages = served.stages(id);
        // Every module executed exactly once — the split fragment per
        // branch, and a single merged execution at the sink.
        let mut visits = [0usize; 4];
        for stage in &stages {
            visits[stage.0 as usize] += 1;
        }
        assert_eq!(visits, [1, 1, 1, 1], "{stages:?}");
        // The source ran first, the sink last.
        assert_eq!(stages.first().unwrap().0, 0);
        assert_eq!(stages.last().unwrap().0, 3);
        // The join barrier held: the merged fragment arrived at the
        // sink only after *both* branch executions ended.
        let of = |module: u16| *stages.iter().find(|s| s.0 == module).unwrap();
        assert!(of(3).1 >= of(1).4, "{stages:?}");
        assert!(of(3).1 >= of(2).4, "{stages:?}");
    }
}

#[test]
fn branch_drop_cancels_siblings_and_reports_exactly_once() {
    // Module 1 (one branch of the split) refuses everything; module 2
    // would happily serve its fragment.
    let engine = diamond(refusing(1));
    let rx = with_sink(&engine);
    let id = engine.submit(SubmitSpec::default());
    let served = finish(engine, rx, SimDuration::from_secs(20));

    // Exactly one terminal notification, and it is the branch drop.
    assert_eq!(served.completions.len(), 1);
    match served.completions[&id].outcome {
        Outcome::Dropped { module, reason, .. } => {
            assert_eq!(module, 1);
            assert_eq!(reason, DropReason::PredictedViolation);
        }
        other => panic!("expected a drop, got {other:?}"),
    }
    // The sibling fragment on module 2 was cancelled before execution
    // and the sink never ran: only the source produced a stage.
    let visited: Vec<u16> = served.stages(id).iter().map(|s| s.0).collect();
    assert_eq!(visited, vec![0]);
}

#[test]
fn dropped_requests_resolve_promptly_not_at_drain_timeout() {
    // The cancel path must release the request the moment the branch
    // drops — a request wedged behind a never-filling merge barrier
    // would only "resolve" by hitting the drain ceiling.
    let engine = diamond(refusing(2));
    let rx = with_sink(&engine);
    let id = engine.submit(SubmitSpec::default());
    let completion = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the drop must be notified without waiting for a drain");
    assert_eq!(completion.id, id);
    assert!(
        matches!(completion.outcome, Outcome::Dropped { module: 2, .. }),
        "{completion:?}"
    );
    let totals = engine.drain(SimDuration::from_secs(5));
    assert_eq!((totals.requests, totals.dropped), (1, 1));
}

#[test]
fn live_forgets_what_it_answered() {
    // 20 000 requests at 2 000× compression: tm at ~300 req/s virtual
    // is ~70 virtual seconds, ~35 ms of wall time — the engine runs
    // behind the wall clock, and every answered request must leave it.
    const REQUESTS: u64 = 20_000;
    let engine = EngineBuilder::for_app(AppKind::Tm)
        .with_recorder_capacity(0)
        .build_live(LiveConfig {
            time_scale: 2_000.0,
            cluster: ClusterConfig::default()
                .with_fixed_workers(vec![2; 3])
                .with_pard(PardConfig::default().with_mc_draws(200)),
        })
        .expect("builtin models resolve from the zoo");
    let rx = with_sink(&engine);
    let mut peak = 0;
    let mut next = SimTime::ZERO;
    for _ in 0..REQUESTS {
        next += SimDuration::from_micros(3_300);
        while engine.now() < next {
            std::thread::yield_now();
        }
        engine.submit(SubmitSpec::default());
        peak = peak.max(engine.resident());
    }
    let served = finish(engine, rx, SimDuration::from_secs(30));
    assert!(peak < 2_000, "resident peaked at {peak}");
    assert_eq!(served.engine.resident(), 0);
    assert_eq!(served.totals.requests, REQUESTS);
    assert_eq!(served.completions.len() as u64, REQUESTS);
    let goodput = served
        .completions
        .values()
        .filter(|c| c.within_slo())
        .count() as u64;
    assert_eq!(served.totals.goodput, goodput);
    assert_eq!(served.totals.dropped, REQUESTS - goodput);
}
