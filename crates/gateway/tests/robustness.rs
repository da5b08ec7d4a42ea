//! Robustness e2e: the gateway must survive what its engines and
//! connections do to it — a pump thread that panics or wedges, TCP
//! connections that stall, trickle, or die mid-request, and transient
//! back-pressure the client retries through.
//!
//! The watchdog tests drive a deliberately broken [`EngineHandle`]
//! stub: the failure modes (panic inside `pump`, a pump call that
//! never returns on time) cannot be provoked reliably from the real
//! engines, and the contract under test is the *gateway's* — in-flight
//! requests answered `shutting_down`, the app quarantined, healthy
//! tenants unaffected.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Mutex;
use std::time::Duration;

use pard_engine_api::{
    Backend, ClusterConfig, Completion, EdgeState, EngineBuilder, EngineHandle, LiveConfig,
    SubmitSpec,
};
use pard_gateway::client::{CallSpec, Client, Outcome};
use pard_gateway::server::ChaosConfig;
use pard_gateway::{
    AppConfig, ErrorCode, Gateway, GatewayConfig, LoadMode, LoadgenConfig, RateLimit, RetryPolicy,
};
use pard_metrics::ServedTotals;
use pard_pipeline::{AppKind, PipelineSpec};
use pard_sim::{SimDuration, SimTime};

const SCALE: f64 = 20.0;

fn live_engine() -> Box<dyn EngineHandle> {
    EngineBuilder::for_app(AppKind::Tm)
        .build(Backend::Live(LiveConfig::compressed(SCALE, 3, 2)))
        .expect("builtin models resolve from the zoo")
}

fn sim_engine(seed: u64) -> Box<dyn EngineHandle> {
    EngineBuilder::for_app(AppKind::Tm)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(seed)
                .with_fixed_workers(vec![2; 3])
                .with_pard(pard_core::PardConfig::default().with_mc_draws(500)),
        ))
        .expect("builtin models resolve from the zoo")
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: "127.0.0.1:0".into(),
        edge_refresh: Duration::from_millis(5),
        max_pending: 8192,
        allow_replay: true,
        ..GatewayConfig::default()
    }
}

fn fetch_metrics(gateway: &Gateway) -> String {
    use std::io::{Read, Write};
    let mut stream =
        std::net::TcpStream::connect(gateway.metrics_addr()).expect("metrics reachable");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    assert!(body.starts_with("HTTP/1.1 200 OK"), "got: {body}");
    body
}

// ---------------------------------------------------------------------------
// A stub engine whose pump misbehaves on demand
// ---------------------------------------------------------------------------

enum PumpFailure {
    /// `pump` panics once a request has been submitted (after a short
    /// grace so the submit path finishes filing the pending entry —
    /// the race it covers is real but belongs to the entry-parking
    /// tests, not the watchdog's).
    Panic,
    /// `pump` blocks for this long once a request has been submitted —
    /// long enough that the poller's stall check must fire first.
    Stall(Duration),
    /// Once two requests are submitted, `pump` completes the first
    /// (sends its completion, as a stepped engine does, from inside the
    /// call) and then panics with the second still in flight.
    ResolveFirstThenPanic,
}

struct BrokenPumpEngine {
    spec: PipelineSpec,
    failure: PumpFailure,
    submitted: AtomicU64,
    sink: Mutex<Option<Sender<Completion>>>,
}

impl BrokenPumpEngine {
    fn boxed(name: &str, failure: PumpFailure) -> Box<dyn EngineHandle> {
        let mut spec = AppKind::Tm.pipeline();
        spec.name = name.into();
        Box::new(BrokenPumpEngine {
            spec,
            failure,
            submitted: AtomicU64::new(0),
            sink: Mutex::new(None),
        })
    }
}

impl EngineHandle for BrokenPumpEngine {
    fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(0)
    }

    fn submit(&self, _spec: SubmitSpec) -> u64 {
        self.submitted.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn edge_state(&self) -> EdgeState {
        // Permissive: everything admits, so requests reach the pending
        // table and the watchdog has in-flight work to flush.
        let n = self.spec.modules.len();
        EdgeState {
            queue_depths: vec![0; n],
            workers: vec![1; n],
            batch_sizes: vec![1; n],
            exec_ms: vec![1.0; n],
            slo: self.spec.slo,
        }
    }

    fn set_completion_sink(&self, sink: Sender<Completion>) {
        *self.sink.lock().unwrap() = Some(sink);
    }

    fn stepped(&self) -> bool {
        true
    }

    fn pump(&self) -> bool {
        let submitted = self.submitted.load(Ordering::SeqCst);
        if submitted == 0 {
            return false;
        }
        match self.failure {
            PumpFailure::ResolveFirstThenPanic if submitted < 2 => false,
            PumpFailure::ResolveFirstThenPanic => {
                std::thread::sleep(Duration::from_millis(50));
                let completion = Completion {
                    id: 1,
                    tag: 0,
                    sent: SimTime::ZERO,
                    deadline: SimTime::from_millis(400),
                    outcome: pard_metrics::Outcome::Completed {
                        finished: SimTime::from_millis(100),
                    },
                };
                let sink = self.sink.lock().unwrap().clone();
                sink.expect("the gateway registered a sink")
                    .send(completion)
                    .expect("the gateway holds the receiver");
                panic!("stub engine pump poisoned on purpose");
            }
            PumpFailure::Panic => {
                std::thread::sleep(Duration::from_millis(50));
                panic!("stub engine pump poisoned on purpose");
            }
            PumpFailure::Stall(wedge) => {
                std::thread::sleep(wedge);
                false
            }
        }
    }

    fn drain(&self, _limit: SimDuration) -> ServedTotals {
        // A drained engine drops its sink, as the real ones do.
        self.sink.lock().unwrap().take();
        ServedTotals::default()
    }
}

fn assert_shutting_down(outcome: &Outcome) {
    match outcome {
        Outcome::Rejected { code, message } => assert_eq!(
            *code,
            Some(ErrorCode::ShuttingDown),
            "expected shutting_down, got {code:?}: {message}"
        ),
        other => panic!("expected a shutting_down envelope, got {other:?}"),
    }
}

#[test]
fn pump_panic_flushes_in_flight_and_quarantines_the_app() {
    let apps = vec![
        AppConfig::new(BrokenPumpEngine::boxed("bad", PumpFailure::Panic)),
        AppConfig::new(sim_engine(31)),
    ];
    let gateway = Gateway::start_multi(apps, gateway_config()).expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("client connects");

    // The first request admits, the pump panics, and the watchdog
    // answers the owed response instead of leaving the client hanging.
    let answer = client
        .call(&CallSpec::new("bad"), Duration::from_secs(10))
        .expect("wire stays up")
        .expect("in-flight request is answered, not wedged");
    assert_shutting_down(&answer.outcome);

    // New requests to the dead app are refused immediately.
    let answer = client
        .call(&CallSpec::new("bad"), Duration::from_secs(5))
        .expect("wire stays up")
        .expect("refusal is immediate");
    assert_shutting_down(&answer.outcome);

    // The healthy tenant on the same gateway keeps serving.
    let answer = client
        .call(&CallSpec::new("tm"), Duration::from_secs(10))
        .expect("wire stays up")
        .expect("healthy app answers");
    assert!(
        matches!(
            answer.outcome,
            Outcome::Ok { .. } | Outcome::Violated { .. }
        ),
        "healthy app should complete the request, got {:?}",
        answer.outcome
    );

    // Health is visible on /metrics.
    let metrics = fetch_metrics(&gateway);
    assert!(
        metrics.contains("pard_gateway_app_healthy{app=\"bad\"} 0"),
        "dead app must export healthy=0:\n{metrics}"
    );
    assert!(
        metrics.contains("pard_gateway_app_healthy{app=\"tm\"} 1"),
        "live app must export healthy=1:\n{metrics}"
    );

    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

#[test]
fn watchdog_flush_answers_what_the_dying_pump_resolved() {
    // A stepped engine's completions are routed by whoever drove it,
    // and a pump that panicked will never drive it again: the watchdog
    // must look in the channel before it flushes, or a request that
    // really completed is answered `shutting_down`.
    let gateway = Gateway::start(
        BrokenPumpEngine::boxed("tm", PumpFailure::ResolveFirstThenPanic),
        gateway_config(),
    )
    .expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("client connects");
    let first = client.send(&CallSpec::new("tm")).expect("send");
    let second = client.send(&CallSpec::new("tm")).expect("send");
    let answer = client
        .wait(first, Duration::from_secs(10))
        .expect("the resolved request is answered");
    assert!(answer.outcome.is_ok(), "{answer:?}");
    let answer = client
        .wait(second, Duration::from_secs(10))
        .expect("the in-flight request is answered");
    assert_shutting_down(&answer.outcome);
    let counters = gateway.counters();
    assert_eq!((counters.completed_ok, counters.dropped), (1, 1));
    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

#[test]
fn pump_stall_trips_the_watchdog() {
    let config = GatewayConfig {
        pump_stall: Some(Duration::from_millis(100)),
        ..gateway_config()
    };
    let gateway = Gateway::start(
        BrokenPumpEngine::boxed("tm", PumpFailure::Stall(Duration::from_millis(800))),
        config,
    )
    .expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("client connects");

    // The request admits; the pump wedges; the stall monitor (not the
    // 800 ms pump return) must answer within the watchdog budget.
    let start = std::time::Instant::now();
    let answer = client
        .call(&CallSpec::new("tm"), Duration::from_secs(10))
        .expect("wire stays up")
        .expect("stalled app's in-flight request is answered");
    assert_shutting_down(&answer.outcome);
    assert!(
        start.elapsed() < Duration::from_millis(700),
        "watchdog should beat the 800 ms wedge, took {:?}",
        start.elapsed()
    );

    let metrics = fetch_metrics(&gateway);
    assert!(
        metrics.contains("pard_gateway_app_healthy{app=\"tm\"} 0"),
        "stalled app must export healthy=0:\n{metrics}"
    );
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

// ---------------------------------------------------------------------------
// Connection chaos
// ---------------------------------------------------------------------------

#[test]
fn read_stalls_and_partial_writes_preserve_every_outcome() {
    // Every read tick may be skipped and every reply is trickled out 7
    // bytes at a time — pure delay under level-triggered polling, so
    // the run must end with the same closed algebra as a clean one.
    let config = GatewayConfig {
        chaos: Some(ChaosConfig {
            max_write_chunk: Some(7),
            read_stall_every: Some(3),
            reset_every: None,
        }),
        ..gateway_config()
    };
    let gateway = Gateway::start(live_engine(), config).expect("gateway starts");
    let load = LoadgenConfig {
        app: "tm".into(),
        connections: 3,
        mode: LoadMode::Closed {
            requests_per_connection: 20,
        },
        slo_ms: None,
        tight_fraction: 0.2,
        time_scale: SCALE,
        seed: 7,
        ..LoadgenConfig::default()
    };
    let report = pard_gateway::loadgen::run(gateway.addr(), &load).expect("loadgen run");

    assert_eq!(report.sent, 60);
    assert_eq!(
        report.unanswered, 0,
        "chaos must not lose replies: {report:?}"
    );
    assert_eq!(
        report.errors, 0,
        "chaos must not corrupt framing: {report:?}"
    );
    assert!(report.ok > 0, "goodput survives the chaos: {report:?}");
    assert!(
        report.dropped_edge >= 12,
        "canaries still rejected at the edge: {report:?}"
    );
    assert_eq!(
        report.sent,
        report.ok + report.violated + report.dropped_edge + report.dropped_pipeline,
        "outcome algebra stays closed under chaos: {report:?}"
    );

    let snapshot = gateway.counters();
    assert_eq!(snapshot.received, 60);
    assert_eq!(snapshot.admitted + snapshot.unadmitted(), snapshot.received);
    let totals = gateway.shutdown(SimDuration::from_secs(10));
    assert_eq!(totals.requests, snapshot.admitted);
    assert_eq!(totals.goodput, snapshot.completed_ok);
}

#[test]
fn mid_request_resets_kill_the_connection_but_not_the_server() {
    let config = GatewayConfig {
        chaos: Some(ChaosConfig {
            max_write_chunk: None,
            read_stall_every: None,
            reset_every: Some(3),
        }),
        ..gateway_config()
    };
    let gateway = Gateway::start(live_engine(), config).expect("gateway starts");

    // The connection dies after its Nth served line: some requests are
    // answered, then one reply is computed but never delivered.
    let mut client = Client::connect(gateway.addr()).expect("client connects");
    let mut answered = 0usize;
    let mut died = false;
    for _ in 0..8 {
        match client.call(&CallSpec::new("tm"), Duration::from_secs(3)) {
            Ok(Some(_)) => answered += 1,
            Ok(None) | Err(_) => {
                died = true;
                break;
            }
        }
    }
    assert!(died, "the reset must kill the connection");
    assert!(
        (1..8).contains(&answered),
        "some requests answered before the reset, got {answered}"
    );

    // The server itself is unharmed: a fresh connection serves.
    let mut fresh = Client::connect(gateway.addr()).expect("reconnect");
    let answer = fresh
        .call(&CallSpec::new("tm"), Duration::from_secs(10))
        .expect("wire stays up")
        .expect("fresh connection is answered");
    assert!(
        matches!(
            answer.outcome,
            Outcome::Ok { .. } | Outcome::Violated { .. }
        ),
        "got {:?}",
        answer.outcome
    );

    // Counter algebra survives replies that never reached a socket:
    // the engine completed them, so they are in its totals and counted.
    let snapshot = gateway.counters();
    assert_eq!(snapshot.admitted + snapshot.unadmitted(), snapshot.received);
    let totals = gateway.shutdown(SimDuration::from_secs(10));
    assert_eq!(totals.requests, snapshot.admitted);
}

// ---------------------------------------------------------------------------
// Client retry under transient back-pressure
// ---------------------------------------------------------------------------

#[test]
fn bounded_retry_rides_out_rate_limiting() {
    let apps = vec![AppConfig {
        engine: live_engine(),
        rate_limit: Some(RateLimit {
            rate_per_sec: 2.0,
            burst: 1.0,
        }),
        weight: 1,
    }];
    let gateway = Gateway::start_multi(apps, gateway_config()).expect("gateway starts");
    let load = LoadgenConfig {
        app: "tm".into(),
        connections: 2,
        mode: LoadMode::Closed {
            requests_per_connection: 15,
        },
        slo_ms: None,
        tight_fraction: 0.0,
        time_scale: SCALE,
        seed: 13,
        retry: Some(RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(80),
            seed: 5,
        }),
        ..LoadgenConfig::default()
    };
    let report = pard_gateway::loadgen::run(gateway.addr(), &load).expect("loadgen run");

    // Logical requests only in `sent`; the extra wire attempts are
    // reported separately, and the algebra stays closed either way.
    assert_eq!(report.sent, 30);
    assert!(
        report.retries > 0,
        "the bucket is far too small for 30 back-to-back requests: {report:?}"
    );
    assert!(
        report.ok > 0,
        "retries must convert some refusals: {report:?}"
    );
    assert_eq!(
        report.sent,
        report.ok
            + report.violated
            + report.dropped_edge
            + report.dropped_pipeline
            + report.errors
            + report.unanswered,
        "outcome algebra stays closed with retries: {report:?}"
    );

    // Server side: rate-limited attempts are visible as their own
    // counter and never entered the admission path.
    let snapshot = gateway.counters();
    assert!(snapshot.rate_limited > 0);
    assert_eq!(snapshot.admitted + snapshot.unadmitted(), snapshot.received);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}
