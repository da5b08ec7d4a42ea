//! Boots a real gateway and replays a scenario through it — on the
//! deterministic stepped backend (golden-comparable) or on the
//! wall-paced live backend (envelope-checkable, see
//! [`crate::Envelope`]).

use std::sync::Arc;
use std::time::Duration;

use pard_core::PardConfig;
use pard_engine_api::{Backend, ClusterConfig, EngineBuilder, EngineHandle, LiveConfig};
use pard_gateway::client::{CallSpec, Client, Outcome};
use pard_gateway::{AppConfig, Gateway, GatewayConfig};
use pard_obs::FlightRecorder;
use pard_pipeline::PipelineSpec;
use pard_policies::{make_factory, OcConfig};
use pard_profile::plan_batches;
use pard_sim::SimTime;
use pard_workload::wire_schedule;

use crate::outcome::{OutcomeTaxonomy, RequestOutcome};
use crate::scenario::{Scenario, ScenarioApp};

/// Wall-clock ceiling for one answer after the flush; generous because
/// the whole replay runs at simulation speed and only pathological
/// hangs should ever approach it.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything one scenario run produced.
#[derive(Clone)]
pub struct ScenarioRun {
    /// Per-request classifications in schedule order — the
    /// bit-reproducibility unit (two runs of the same scenario must
    /// compare equal on this vector, not just on aggregates).
    pub outcomes: Vec<RequestOutcome>,
    /// The per-phase rollup compared against golden snapshots.
    pub taxonomy: OutcomeTaxonomy,
    /// The engine's flight recorder, retained past gateway shutdown so
    /// a golden divergence can be explained from the event record (see
    /// [`crate::golden::explain_divergence`]).
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for ScenarioRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRun")
            .field("outcomes", &self.outcomes)
            .field("taxonomy", &self.taxonomy)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

/// Builds the scenario's wire schedule (trace synthesis + arrival
/// sampling + payload sizes, all seeded) — shared by the simulated,
/// live, and socketless engine runners so all three replay the
/// identical request sequence. Public so a sweep can build one
/// schedule and share it across every cell that differs only in
/// policy or worker allocation.
pub fn build_schedule(
    scenario: &Scenario,
) -> (pard_workload::RateTrace, Vec<pard_workload::WireEvent>) {
    let trace = scenario.build_trace();
    let nominal_slo_ms = scenario
        .slo
        .default_ms
        .unwrap_or_else(|| (scenario.app.slo().as_millis_f64()) as u64);
    let events = wire_schedule(
        &trace,
        &scenario.app.name(),
        nominal_slo_ms,
        scenario.payload,
        scenario.seed,
    );
    assert!(
        !events.is_empty(),
        "scenario {:?} produced an empty schedule",
        scenario.name
    );
    (trace, events)
}

/// Collects every answer under one shared deadline and classifies it.
/// The single deadline means answers that can still arrive do so
/// promptly, while a regression leaving K requests unanswered fails in
/// seconds, not K × timeout.
fn collect_outcomes(client: &mut Client, sent: Vec<(u64, u64)>) -> Vec<RequestOutcome> {
    let deadline = std::time::Instant::now() + ANSWER_TIMEOUT;
    sent.into_iter()
        .map(|(seq, at_us)| {
            let answer = client.wait(
                seq,
                deadline.saturating_duration_since(std::time::Instant::now()),
            );
            let (label, id, latency_us) = answer
                .map(|a| {
                    // Wire latency travels as f64 milliseconds
                    // (µs / 1000.0); the round-trip back to µs is exact
                    // for any latency below ~2^52 µs, so this field is
                    // bit-comparable against the socketless path.
                    let latency_us = match a.outcome {
                        Outcome::Ok { latency_ms, .. } | Outcome::Violated { latency_ms, .. } => {
                            Some((latency_ms * 1000.0).round() as u64)
                        }
                        _ => None,
                    };
                    (a.outcome.taxonomy(), a.outcome.id(), latency_us)
                })
                .unwrap_or(("unanswered", None, None));
            RequestOutcome {
                seq,
                at_us,
                label,
                id,
                latency_us,
            }
        })
        .collect()
}

/// The scenario's pipeline spec (builtin apps materialise theirs).
fn pipeline_spec(app: &ScenarioApp) -> PipelineSpec {
    match app {
        ScenarioApp::Builtin(kind) => kind.pipeline(),
        ScenarioApp::Custom { spec, .. } => spec.clone(),
    }
}

/// The engine builder for a scenario's app — `for_app` for builtins,
/// `new(spec)` (plus explicit profiles, when given) for custom
/// pipelines — with the scenario's policy selection applied. A selected
/// [`pard_policies::SystemKind`] is instantiated exactly as the
/// experiment binaries do it: static-split inputs are the profiled
/// execution durations at the planned batch sizes under the default
/// headroom.
fn engine_builder(scenario: &Scenario) -> EngineBuilder {
    let mut builder = match &scenario.app {
        ScenarioApp::Builtin(kind) => EngineBuilder::for_app(*kind),
        ScenarioApp::Custom { spec, profiles } => {
            let builder = EngineBuilder::new(spec.clone());
            match profiles {
                Some(profiles) => builder.with_profiles(profiles.clone()),
                None => builder,
            }
        }
    };
    if let Some(kind) = scenario.policy {
        let spec = pipeline_spec(&scenario.app);
        let profiles = match &scenario.app {
            ScenarioApp::Custom {
                profiles: Some(profiles),
                ..
            } => profiles.clone(),
            _ => pard_cluster::resolve_profiles(&spec).unwrap_or_else(|e| {
                panic!(
                    "scenario {:?}: cannot resolve profiles for policy {:?}: \
                     model {:?} is not in the zoo",
                    scenario.name,
                    kind.name(),
                    e.module
                )
            }),
        };
        let plan = plan_batches(&profiles, spec.slo, ClusterConfig::default().headroom);
        let exec_ms: Vec<f64> = profiles
            .iter()
            .zip(&plan.batch_sizes)
            .map(|(p, &b)| p.latency_ms(b))
            .collect();
        builder = builder.with_policy(make_factory(kind, &spec, &exec_ms, OcConfig::default()));
    }
    builder
}

/// Builds the scenario's engine on `backend`'s clock: profiles,
/// policy, workers and every cluster dynamic the scenario declares.
/// `recorder_capacity` overrides the flight-recorder ring size
/// (`Some(0)` disables recording entirely — the sweep engine's
/// per-cell setup economy); `None` keeps the default ring.
fn build_engine(
    scenario: &Scenario,
    recorder_capacity: Option<usize>,
    backend: impl FnOnce(ClusterConfig) -> Backend,
) -> Box<dyn EngineHandle> {
    let mut builder = engine_builder(scenario)
        .with_faults(scenario.faults.clone())
        .with_autoscale(scenario.autoscale)
        .with_worker_cap(scenario.worker_cap)
        .with_cold_start(scenario.cold_start)
        .with_exec_jitter(scenario.exec_jitter_sigma);
    if let Some(workers) = scenario.fixed_workers.clone() {
        builder = builder.with_workers(workers);
    }
    if let Some(capacity) = recorder_capacity {
        builder = builder.with_recorder_capacity(capacity);
    }
    let config = ClusterConfig::default()
        .with_seed(scenario.seed)
        .with_pard(PardConfig::default().with_mc_draws(scenario.mc_draws));
    builder
        .build(backend(config))
        .unwrap_or_else(|e| panic!("scenario {:?}: engine build failed: {e}", scenario.name))
}

/// Builds the scenario's **simulated** engine — the one configuration
/// both the wire replay ([`run_scenario`]) and the socketless engine
/// replay ([`crate::run_scenario_engine`]) boot, so the two paths can
/// only diverge in transport, never in engine dynamics.
/// `recorder_capacity` is as in `build_engine`.
pub fn build_sim_engine(
    scenario: &Scenario,
    recorder_capacity: Option<usize>,
) -> Box<dyn EngineHandle> {
    build_engine(scenario, recorder_capacity, Backend::Sim)
}

/// Runs `scenario` end to end: builds the simulated engine, boots a
/// gateway on an ephemeral loopback socket, replays the trace-driven
/// schedule through the typed client with scheduled arrivals
/// (`at_us`), flushes the stepped clock past the tail, and classifies
/// every request.
///
/// # Panics
///
/// This is a test harness: any infrastructure failure (engine build,
/// socket bind, wire error) panics with context rather than returning
/// an error the suite would have to unwrap anyway.
pub fn run_scenario(scenario: &Scenario) -> ScenarioRun {
    let (trace, events) = build_schedule(scenario);
    let engine = build_sim_engine(scenario, None);

    let gateway = Gateway::start(
        engine,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            edge_refresh: Duration::from_millis(5),
            // The replay pipelines the whole schedule; admitted
            // requests resolve at simulation speed, but the cap must
            // never be grazed — an `overloaded` refusal would depend on
            // dispatcher timing, not on the schedule.
            max_pending: 1 << 20,
            allow_replay: true,
            // Scheduled replay stays deterministic with the adaptive
            // layer on: every estimator transition is a per-event fold,
            // so the state any decision sees depends only on how far
            // the schedule has advanced, never on poller timing.
            adaptive: scenario.adaptive,
            ..GatewayConfig::default()
        },
    )
    .expect("gateway binds ephemeral loopback ports");

    let mut client = Client::connect(gateway.addr()).expect("client connects");
    let mut sent: Vec<(u64, u64)> = Vec::with_capacity(events.len());
    for (index, event) in events.iter().enumerate() {
        let mut spec = CallSpec::new(event.app.clone())
            .with_payload_len(event.payload_len)
            .with_at_us(event.at.as_micros());
        spec.slo_ms = scenario.slo.slo_for(index as u64);
        let seq = client
            .send(&spec)
            .unwrap_or_else(|e| panic!("scenario {:?}: send failed: {e}", scenario.name));
        sent.push((seq, event.at.as_micros()));
    }
    // Flush: release the clock gate past the last arrival so queued
    // work, late completions, and scheduled faults beyond the traffic
    // all resolve.
    let flush_to = (SimTime::ZERO + trace.duration()).saturating_add(scenario.drain);
    client
        .advance(flush_to.as_micros().min(pard_gateway::wire::MAX_VIRTUAL_US))
        .expect("advance control line");

    let outcomes = collect_outcomes(&mut client, sent);
    drop(client);
    let recorder = gateway.recorder();
    let _ = gateway.shutdown(pard_sim::SimDuration::from_secs(1));

    let taxonomy = OutcomeTaxonomy::build(scenario, &outcomes);
    ScenarioRun {
        outcomes,
        taxonomy,
        recorder,
    }
}

/// Runs several scenarios **against one multi-tenant gateway**: each
/// scenario becomes one app (distinct wire names required), each app
/// gets its own connection, and the connections form a replay group
/// (`replay_join`) so the gateway re-serializes every party's
/// scheduled requests into global `(at_us, seq)` order before touching
/// any engine. Per-connection wire seqs are striped (`party`,
/// `party + N`, …), making them globally unique — the drain order, and
/// therefore every admission decision, is a pure function of the
/// schedules, not of socket interleaving. Each app's outcome vector is
/// as bit-reproducible as a single-tenant [`run_scenario`], and is
/// returned in scenario order with seqs renumbered back to that app's
/// schedule order (golden-comparable per app).
///
/// # Panics
///
/// Panics when two scenarios serve the same app name (the wire `app`
/// field is the routing key) and on any infrastructure failure, like
/// [`run_scenario`].
pub fn run_scenario_multi(scenarios: &[Scenario]) -> Vec<ScenarioRun> {
    assert!(
        scenarios.len() >= 2,
        "a multi-tenant run needs at least two scenarios"
    );
    let names: Vec<String> = scenarios.iter().map(|s| s.app.name()).collect();
    for (i, name) in names.iter().enumerate() {
        assert!(
            !names[..i].contains(name),
            "multi-tenant scenarios must serve distinct apps; {name:?} repeats"
        );
    }
    let schedules: Vec<_> = scenarios.iter().map(build_schedule).collect();
    let gateway = Gateway::start_multi(
        scenarios
            .iter()
            .map(|s| AppConfig::new(build_sim_engine(s, None)))
            .collect(),
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            edge_refresh: Duration::from_millis(5),
            max_pending: 1 << 20,
            allow_replay: true,
            // The adaptive layer is a gateway-wide setting with
            // per-app state; any tenant asking for it enables it.
            adaptive: scenarios.iter().find_map(|s| s.adaptive),
            ..GatewayConfig::default()
        },
    )
    .expect("gateway binds ephemeral loopback ports");
    let addr = gateway.addr();

    // Every party's trailing advance targets the same global flush, so
    // the group's clock gate ends past the last arrival of *every*
    // schedule — a shorter tenant must not strand a longer one's tail.
    let flush_us = scenarios
        .iter()
        .zip(&schedules)
        .map(|(s, (trace, _))| {
            (SimTime::ZERO + trace.duration())
                .saturating_add(s.drain)
                .as_micros()
        })
        .max()
        .expect("at least two scenarios")
        .min(pard_gateway::wire::MAX_VIRTUAL_US);

    let parties = scenarios.len() as u64;
    let per_app: Vec<Vec<RequestOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scenarios
            .iter()
            .zip(&schedules)
            .enumerate()
            .map(|(party, (scenario, (_trace, events)))| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    // Striped seqs: globally unique across the group,
                    // equal to the request's own stripe of the global
                    // schedule index space.
                    client.set_seq_stride(party as u64, parties);
                    client
                        .replay_join(parties)
                        .unwrap_or_else(|e| panic!("scenario {:?}: join: {e}", scenario.name));
                    let mut sent: Vec<(u64, u64)> = Vec::with_capacity(events.len());
                    for (index, event) in events.iter().enumerate() {
                        let mut spec = CallSpec::new(event.app.clone())
                            .with_payload_len(event.payload_len)
                            .with_at_us(event.at.as_micros());
                        spec.slo_ms = scenario.slo.slo_for(index as u64);
                        let seq = client.send(&spec).unwrap_or_else(|e| {
                            panic!("scenario {:?}: send failed: {e}", scenario.name)
                        });
                        sent.push((seq, event.at.as_micros()));
                    }
                    client.advance(flush_us).expect("advance control line");
                    let mut outcomes = collect_outcomes(&mut client, sent);
                    // Wire seqs are striped across the group; the
                    // outcome vector is per app, in schedule order.
                    for (index, outcome) in outcomes.iter_mut().enumerate() {
                        outcome.seq = index as u64;
                    }
                    outcomes
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    });

    let runs = scenarios
        .iter()
        .zip(per_app)
        .map(|(scenario, outcomes)| {
            let taxonomy = OutcomeTaxonomy::build(scenario, &outcomes);
            ScenarioRun {
                outcomes,
                taxonomy,
                recorder: gateway.recorder_of(&scenario.app.name()),
            }
        })
        .collect();
    let _ = gateway.shutdown_multi(pard_sim::SimDuration::from_secs(1));
    runs
}

/// Runs `scenario` on the **live backend**: the same engine
/// [`run_scenario`] boots, but on the wall-paced clock (compressed by
/// `time_scale` virtual seconds per wall second), with the schedule
/// sent as ordinary traffic — no `at_us` stamps, since a live engine's
/// clock cannot be steered. Arrival stamps therefore vary with the
/// wall clock and outcomes are *not* bit-reproducible; compare the
/// returned taxonomy against a [`crate::Envelope`] instead of a golden
/// snapshot.
///
/// # Panics
///
/// On any infrastructure failure, like [`run_scenario`].
pub fn run_scenario_live(scenario: &Scenario, time_scale: f64) -> ScenarioRun {
    let (_trace, events) = build_schedule(scenario);
    let engine = build_engine(scenario, None, |cluster| {
        Backend::Live(LiveConfig {
            time_scale,
            cluster,
        })
    });

    let gateway = Gateway::start(
        engine,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            edge_refresh: Duration::from_millis(2),
            max_pending: 1 << 20,
            allow_replay: false,
            adaptive: scenario.adaptive,
            ..GatewayConfig::default()
        },
    )
    .expect("gateway binds ephemeral loopback ports");

    let mut client = Client::connect(gateway.addr()).expect("client connects");
    let started = std::time::Instant::now();
    let mut sent: Vec<(u64, u64)> = Vec::with_capacity(events.len());
    for (index, event) in events.iter().enumerate() {
        // Pace each send to its scheduled arrival on the compressed
        // wall clock; bursts past the OS sleep granularity are sent
        // back-to-back, like a real client catching up.
        let due = Duration::from_secs_f64(event.at.as_secs_f64() / time_scale);
        let elapsed = started.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        let mut spec = CallSpec::new(event.app.clone()).with_payload_len(event.payload_len);
        spec.slo_ms = scenario.slo.slo_for(index as u64);
        let seq = client
            .send(&spec)
            .unwrap_or_else(|e| panic!("scenario {:?}: send failed: {e}", scenario.name));
        sent.push((seq, event.at.as_micros()));
    }

    let outcomes = collect_outcomes(&mut client, sent);
    drop(client);
    let recorder = gateway.recorder();
    let _ = gateway.shutdown(scenario.drain);

    let taxonomy = OutcomeTaxonomy::build(scenario, &outcomes);
    ScenarioRun {
        outcomes,
        taxonomy,
        recorder,
    }
}
