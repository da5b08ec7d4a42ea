//! End-to-end loopback tests: a real gateway on an ephemeral port,
//! driven over real sockets — through the typed client for valid
//! traffic, and through raw streams where the *wire itself* is under
//! test (malformed lines, oversized lines).
//!
//! The same scenarios run against both engine backends via
//! [`EngineBuilder`]; the cross-backend test at the bottom is the
//! acceptance check that "same client, either backend" holds.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use pard_engine_api::{Backend, ClusterConfig, EngineBuilder, EngineHandle, LiveConfig};
use pard_gateway::client::{CallSpec, Client, Outcome};
use pard_gateway::{Gateway, GatewayConfig, LoadMode, LoadgenConfig};
use pard_pipeline::AppKind;
use pard_sim::SimDuration;
use pard_workload::constant;

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

fn start_gateway() -> Gateway {
    Gateway::start(live_engine(), gateway_config()).expect("gateway binds ephemeral ports")
}

fn fetch_metrics(gateway: &Gateway) -> String {
    let mut stream = TcpStream::connect(gateway.metrics_addr()).expect("metrics reachable");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    assert!(body.starts_with("HTTP/1.1 200 OK"), "got: {body}");
    body
}

#[test]
fn closed_loop_serves_and_rejects_at_the_edge() {
    let gateway = start_gateway();
    let config = LoadgenConfig {
        app: "tm".into(),
        connections: 4,
        mode: LoadMode::Closed {
            requests_per_connection: 25,
        },
        slo_ms: None,
        tight_fraction: 0.2, // every 5th request carries an infeasible SLO
        time_scale: SCALE,
        seed: 7,
        ..LoadgenConfig::default()
    };
    let report = pard_gateway::loadgen::run(gateway.addr(), &config).expect("loadgen run");

    assert_eq!(report.sent, 100);
    assert_eq!(report.unanswered, 0, "every request must be answered");
    assert_eq!(report.errors, 0, "no protocol errors expected");
    assert!(report.ok > 0, "goodput must be positive: {report:?}");
    assert!(
        report.dropped_edge >= 20,
        "canary requests must be rejected at the edge: {report:?}"
    );
    // Latencies of completed requests respect the (virtual) SLO.
    assert!(report
        .latencies_ms
        .iter()
        .all(|&l| l.is_finite() && l > 0.0));

    // Both outcomes are visible in /metrics.
    let metrics = fetch_metrics(&gateway);
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
    };
    assert_eq!(counter("pard_gateway_received_total"), 100);
    assert!(counter("pard_gateway_completed_ok_total") > 0);
    assert!(counter("pard_gateway_rejected_total") >= 20);
    assert!(metrics.contains("pard_gateway_queue_depth{module=\"0\"}"));

    let snapshot = gateway.counters();
    assert_eq!(snapshot.admitted + snapshot.unadmitted(), snapshot.received);
    assert_eq!(snapshot.refused, 0, "no back-pressure in this scenario");
    let totals = gateway.shutdown(SimDuration::from_secs(10));
    // Only admitted requests reach the engine, and what it counts as
    // goodput is what the gateway answered `ok`.
    assert_eq!(totals.requests, snapshot.admitted);
    assert!(totals.goodput > 0);
    assert_eq!(totals.goodput, snapshot.completed_ok);
}

#[test]
fn open_loop_replays_a_trace_over_sockets() {
    let gateway = start_gateway();
    // 6 virtual seconds at 120 req/s virtual (~0.3 s wall at 20×).
    let config = LoadgenConfig {
        app: "tm".into(),
        connections: 3,
        mode: LoadMode::Open {
            trace: constant(120.0, 6),
        },
        slo_ms: Some(400),
        tight_fraction: 0.1,
        time_scale: SCALE,
        seed: 11,
        ..LoadgenConfig::default()
    };
    let report = pard_gateway::loadgen::run(gateway.addr(), &config).expect("loadgen run");

    assert!(
        report.sent > 400,
        "6 s at 120 req/s should send >400, got {}",
        report.sent
    );
    assert_eq!(report.unanswered, 0);
    assert!(report.ok > 0);
    assert!(report.dropped_edge > 0);
    // Goodput in virtual req/s should be a sizeable share of the
    // offered rate (the pipeline is underloaded apart from canaries).
    assert!(
        report.goodput_rps() > 30.0,
        "goodput {} req/s",
        report.goodput_rps()
    );

    let snapshot = gateway.counters();
    assert_eq!(snapshot.received as usize, report.sent);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

#[test]
fn malformed_lines_and_wrong_apps_get_structured_errors() {
    let gateway = start_gateway();
    let mut stream = TcpStream::connect(gateway.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());

    let mut line = String::new();
    let mut roundtrip = |request: &str| -> String {
        use std::io::BufRead;
        writeln!(stream, "{request}").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("response");
        line.trim().to_string()
    };

    let garbage = roundtrip("this is not json");
    match pard_gateway::Reply::decode(&garbage).expect("error envelope") {
        pard_gateway::Reply::Error(e) => {
            assert_eq!(
                e.code,
                Some(pard_gateway::ErrorCode::Malformed),
                "{garbage}"
            )
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Unknown app → the structured `unknown_app` code, with seq echoed.
    let wrong_app = roundtrip(r#"{"v":2,"app":"nope","payload_len":4,"payload":"xxxx","seq":9}"#);
    match pard_gateway::Reply::decode(&wrong_app).expect("error envelope") {
        pard_gateway::Reply::Error(e) => {
            assert_eq!(e.code, Some(pard_gateway::ErrorCode::UnknownApp));
            assert_eq!(e.seq, Some(9), "{wrong_app}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // A bare v1 line (no "v" field) is no longer decoded: it gets a v2
    // `malformed` envelope with its seq echoed.
    let v1 = roundtrip(r#"{"app":"tm","payload_len":4,"payload":"xxxx","seq":1}"#);
    match pard_gateway::Reply::decode(&v1).expect("error envelope") {
        pard_gateway::Reply::Error(e) => {
            assert_eq!(e.code, Some(pard_gateway::ErrorCode::Malformed), "{v1}");
            assert_eq!(e.seq, Some(1), "{v1}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    let snapshot = gateway.counters();
    assert_eq!(snapshot.protocol_errors, 3);
    assert_eq!(snapshot.received, 3);
    drop(reader);
    drop(stream);
    let _ = gateway.shutdown(SimDuration::from_secs(5));
}

#[test]
fn oversized_lines_close_the_connection_with_an_error() {
    let gateway = start_gateway();
    let mut stream = TcpStream::connect(gateway.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    use std::io::BufRead;

    // A newline-free stream larger than the per-line cap must get an
    // error response and EOF, not unbounded buffering.
    let blob = vec![b'x'; pard_gateway::server::MAX_LINE_BYTES + 4096];
    stream.write_all(&blob).expect("send oversized blob");
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    assert!(
        line.contains("exceeds") && line.contains("\"error_code\":\"malformed\""),
        "{line}"
    );
    line.clear();
    let eof = reader.read_line(&mut line).expect("read after close");
    assert_eq!(eof, 0, "connection must be closed, got {line:?}");

    let snapshot = gateway.counters();
    assert_eq!(snapshot.protocol_errors, 1);
    let _ = gateway.shutdown(SimDuration::from_secs(5));
}

#[test]
fn per_request_slo_controls_admission() {
    let gateway = start_gateway();
    let mut client = Client::connect(gateway.addr()).expect("connect");

    // Infeasible budget → rejected at the edge, synchronously.
    let rejection = client
        .call(
            &CallSpec::new("tm").with_slo_ms(1).with_payload_len(1),
            Duration::from_secs(10),
        )
        .expect("send")
        .expect("answered");
    match rejection.outcome {
        Outcome::DroppedEdge { id, .. } => assert!(id >= pard_gateway::EDGE_ID_BASE),
        other => panic!("must be rejected at the edge: {other:?}"),
    }

    // Generous budget → admitted and served.
    let served = client
        .call(
            &CallSpec::new("tm").with_slo_ms(2000).with_payload_len(1),
            Duration::from_secs(30),
        )
        .expect("send")
        .expect("answered");
    match served.outcome {
        Outcome::Ok { id, latency_ms } => {
            assert!(latency_ms > 0.0);
            assert!(id < pard_gateway::EDGE_ID_BASE);
        }
        other => panic!("must complete within SLO: {other:?}"),
    }

    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(5));
}

/// Runs the identical closed-loop Client scenario against a gateway
/// serving `app` and returns the taxonomy sequence (one label per
/// request, in order).
fn client_scenario(engine: Box<dyn EngineHandle>, app: &str) -> Vec<&'static str> {
    let gateway = Gateway::start(engine, gateway_config()).expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("connect");
    let mut taxonomy = Vec::new();
    for i in 0..30u64 {
        // Every fifth request is an infeasible canary; the rest carry a
        // generous budget.
        let slo_ms = if i % 5 == 0 { 1 } else { 30_000 };
        let answer = client
            .call(
                &CallSpec::new(app).with_slo_ms(slo_ms).with_payload_len(8),
                Duration::from_secs(30),
            )
            .expect("send")
            .expect("answered");
        taxonomy.push(answer.outcome.taxonomy());
    }
    drop(client);
    let totals = gateway.shutdown(SimDuration::from_secs(30));
    assert_eq!(totals.requests, 24, "24 admitted requests reach the engine");
    taxonomy
}

#[test]
fn same_client_scenario_matches_across_backends() {
    let live = client_scenario(live_engine(), "tm");
    let sim = client_scenario(sim_engine(42), "tm");
    assert_eq!(
        live, sim,
        "the identical Client program must classify identically on both backends"
    );
    assert_eq!(live.iter().filter(|&&t| t == "dropped_edge").count(), 6);
    assert_eq!(live.iter().filter(|&&t| t == "ok").count(), 24);
}

fn live_da_engine() -> Box<dyn EngineHandle> {
    EngineBuilder::for_app(AppKind::Da)
        .build(Backend::Live(LiveConfig::compressed(SCALE, 4, 2)))
        .expect("the live backend serves the da DAG")
}

fn sim_da_engine(seed: u64) -> Box<dyn EngineHandle> {
    EngineBuilder::for_app(AppKind::Da)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(seed)
                .with_fixed_workers(vec![2; 4])
                .with_pard(pard_core::PardConfig::default().with_mc_draws(500)),
        ))
        .expect("builtin models resolve from the zoo")
}

#[test]
fn same_client_scenario_matches_across_backends_on_the_da_dag() {
    // "Same client, either backend" for a split/merge pipeline: the
    // identical 30-request program — canaries rejected by the DAG-aware
    // edge admission, the rest split at module 0, joined at module 3 —
    // classifies identically over the wall-paced live backend and the
    // deterministic stepped simulator.
    let live = client_scenario(live_da_engine(), "da");
    let sim = client_scenario(sim_da_engine(42), "da");
    assert_eq!(
        live, sim,
        "the identical Client program must classify identically on both backends"
    );
    assert_eq!(live.iter().filter(|&&t| t == "dropped_edge").count(), 6);
    assert_eq!(live.iter().filter(|&&t| t == "ok").count(), 24);
}

#[test]
fn sim_backend_is_bit_reproducible_across_runs() {
    let first = client_scenario(sim_engine(7), "tm");
    let second = client_scenario(sim_engine(7), "tm");
    assert_eq!(first, second, "same seed → same per-request outcomes");
}

/// Drives a worker crash through the real network path: an
/// `EngineBuilder`-configured fault fires mid-replay under the stepped
/// clock, and the client observes its effects over the socket.
fn crash_scenario() -> Vec<&'static str> {
    use pard_engine_api::FaultSpec;
    use pard_sim::SimTime;

    // Module 0 has a single worker; its crash at t = 2 s kills all
    // service at the pipeline's entrance, so every later request dies
    // inside the pipeline with a worker_failed drop.
    let engine = EngineBuilder::for_app(AppKind::Tm)
        .with_workers(vec![1; 3])
        .with_faults(vec![FaultSpec::WorkerCrash {
            module: 0,
            worker: 0,
            at: SimTime::from_secs(2),
        }])
        .with_exec_jitter(0.0)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(13)
                .with_pard(pard_core::PardConfig::default().with_mc_draws(500)),
        ))
        .expect("fault-configured sim engine builds");
    let gateway = Gateway::start(engine, gateway_config()).expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("connect");
    // Scheduled replay: one request every 500 virtual ms, crossing the
    // crash at t = 2 s. `at_us` steers the stepped clock, so the fault
    // fires at exactly the same point in every run; the trailing
    // advance releases the clock gate so the tail resolves.
    let seqs: Vec<u64> = (0..10u64)
        .map(|i| {
            client
                .send(
                    &CallSpec::new("tm")
                        .with_slo_ms(30_000)
                        .with_payload_len(8)
                        .with_at_us(i * 500_000),
                )
                .expect("send")
        })
        .collect();
    client.advance(60_000_000).expect("flush the stepped clock");
    let taxonomy: Vec<&'static str> = seqs
        .into_iter()
        .map(|seq| {
            client
                .wait(seq, Duration::from_secs(30))
                .expect("answered")
                .outcome
                .taxonomy()
        })
        .collect();
    // In-pipeline drops are attributed to their module in /metrics: the
    // crash killed module 0's only worker, so the labeled series for
    // (module 0, worker-failed) carries the post-crash drops.
    let metrics = fetch_metrics(&gateway);
    let module0_failed = metrics
        .lines()
        .find(|l| {
            l.starts_with(
                "pard_gateway_module_dropped_total{module=\"0\",reason=\"worker-failed\"}",
            )
        })
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("module drop series missing in:\n{metrics}"));
    let dropped = taxonomy
        .iter()
        .filter(|&&t| t == "dropped_pipeline")
        .count() as u64;
    assert_eq!(module0_failed, dropped, "{metrics}");
    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(30));
    taxonomy
}

#[test]
fn replay_controls_can_be_disabled() {
    // On a gateway serving mutually untrusting clients, at_us stamps
    // and advance_us lines would let any connection steer the shared
    // virtual clock; with allow_replay = false both get a structured
    // refusal and plain requests still serve.
    let gateway = Gateway::start(
        sim_engine(3),
        GatewayConfig {
            allow_replay: false,
            ..gateway_config()
        },
    )
    .expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("connect");

    let refused = client
        .call(
            &CallSpec::new("tm")
                .with_slo_ms(30_000)
                .with_payload_len(1)
                .with_at_us(1_000_000),
            Duration::from_secs(10),
        )
        .expect("send")
        .expect("answered");
    match refused.outcome {
        Outcome::Rejected { code, message } => {
            assert_eq!(code, Some(pard_gateway::ErrorCode::Malformed));
            assert!(message.contains("disabled"), "{message}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }

    let served = client
        .call(
            &CallSpec::new("tm").with_slo_ms(30_000).with_payload_len(1),
            Duration::from_secs(30),
        )
        .expect("send")
        .expect("answered");
    assert!(served.outcome.is_ok(), "{served:?}");

    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

#[test]
fn plain_requests_still_serve_after_a_replay_interaction() {
    // A replay interaction leaves the stepped clock gated at its last
    // scheduled arrival; ordinary traffic afterwards must release the
    // gate, not hang forever behind it.
    let gateway = Gateway::start(sim_engine(11), gateway_config()).expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("connect");
    // One scheduled request gates the engine; resolve it via the flush.
    let seq = client
        .send(
            &CallSpec::new("tm")
                .with_slo_ms(30_000)
                .with_payload_len(2)
                .with_at_us(500_000),
        )
        .expect("send");
    client.advance(2_000_000).expect("flush");
    assert!(client.wait(seq, Duration::from_secs(30)).is_some());
    // Now a plain closed-loop request (no at_us) on a fresh connection.
    let mut plain = Client::connect(gateway.addr()).expect("connect");
    let answer = plain
        .call(
            &CallSpec::new("tm").with_slo_ms(30_000).with_payload_len(2),
            Duration::from_secs(30),
        )
        .expect("send")
        .expect("a plain request must resolve on a previously gated engine");
    assert!(answer.outcome.is_ok(), "{answer:?}");
    drop(plain);
    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

#[test]
fn abandoned_replay_does_not_stall_shutdown() {
    // A scheduled-replay client that disconnects without its trailing
    // advance leaves the clock gate at its last arrival: the pending
    // requests can never resolve by pumping. Shutdown must notice the
    // stall and flush them well before its 30 s ceiling.
    let engine = EngineBuilder::for_app(AppKind::Tm)
        .with_workers(vec![2; 3])
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(5)
                .with_pard(pard_core::PardConfig::default().with_mc_draws(500)),
        ))
        .expect("sim engine builds");
    let gateway = Gateway::start(engine, gateway_config()).expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("connect");
    for i in 0..3u64 {
        client
            .send(
                &CallSpec::new("tm")
                    .with_slo_ms(30_000)
                    .with_payload_len(4)
                    .with_at_us(i * 100_000),
            )
            .expect("send");
    }
    // Give the reader time to admit the requests, then vanish.
    std::thread::sleep(Duration::from_millis(300));
    drop(client);
    let started = std::time::Instant::now();
    let totals = gateway.shutdown(SimDuration::from_secs(30));
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "shutdown stalled {:?} on a gated engine",
        started.elapsed()
    );
    // The admitted requests were flushed (answered as drops) and are
    // still in the engine's totals after the drain.
    assert_eq!(totals.requests, 3);
}

#[test]
fn worker_crash_fault_is_visible_through_the_network_path() {
    let taxonomy = crash_scenario();
    // Requests scheduled before the crash complete; requests after it
    // are dropped inside the pipeline (the gateway still admits them —
    // the edge snapshot floors serviceable workers at one).
    assert_eq!(&taxonomy[..4], &["ok"; 4], "{taxonomy:?}");
    assert!(
        taxonomy[4..].iter().all(|&t| t == "dropped_pipeline"),
        "{taxonomy:?}"
    );
    // And the whole faulty scenario is bit-reproducible.
    assert_eq!(taxonomy, crash_scenario());
}
