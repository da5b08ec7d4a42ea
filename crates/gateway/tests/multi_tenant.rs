//! Multi-tenant e2e: wire-field routing, per-tenant token-bucket
//! edges, weighted pending-table quotas, replay groups across
//! connections, and event-loop hammering — all over real sockets
//! against real engines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use pard_engine_api::{Backend, ClusterConfig, EngineBuilder, EngineHandle};
use pard_gateway::client::{CallSpec, Client, Outcome};
use pard_gateway::{
    AppConfig, ErrorCode, Gateway, GatewayConfig, LoadMode, LoadgenConfig, Pace, RateLimit,
};
use pard_pipeline::AppKind;
use pard_sim::SimDuration;
use pard_workload::constant;

fn sim_engine(app: AppKind, seed: u64) -> Box<dyn EngineHandle> {
    let modules = app.pipeline().modules.len();
    EngineBuilder::for_app(app)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(seed)
                .with_fixed_workers(vec![2; modules])
                .with_pard(pard_core::PardConfig::default().with_mc_draws(500)),
        ))
        .expect("builtin models resolve from the zoo")
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: "127.0.0.1:0".into(),
        edge_refresh: Duration::from_millis(5),
        ..GatewayConfig::default()
    }
}

fn fetch(gateway: &Gateway, path: &str) -> String {
    let mut stream = TcpStream::connect(gateway.metrics_addr()).expect("metrics reachable");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

fn call_ok(client: &mut Client, app: &str) {
    let answer = client
        .call(
            &CallSpec::new(app).with_slo_ms(30_000).with_payload_len(2),
            Duration::from_secs(30),
        )
        .expect("send")
        .expect("answered");
    assert!(answer.outcome.is_ok(), "[{app}] {answer:?}");
}

#[test]
fn requests_route_by_wire_app_field() {
    let gateway = Gateway::start_multi(
        vec![
            AppConfig::new(sim_engine(AppKind::Tm, 3)),
            AppConfig::new(sim_engine(AppKind::Lv, 3)),
        ],
        gateway_config(),
    )
    .expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("connect");

    // One connection interleaves both tenants: routing is per line.
    for _ in 0..5 {
        call_ok(&mut client, "tm");
    }
    for _ in 0..3 {
        call_ok(&mut client, "lv");
    }

    // Unknown apps are refused with every served tenant named.
    let unknown = client
        .call(&CallSpec::new("nope"), Duration::from_secs(10))
        .expect("send")
        .expect("answered");
    match unknown.outcome {
        Outcome::Rejected { code, message } => {
            assert_eq!(code, Some(ErrorCode::UnknownApp));
            assert!(
                message.contains("tm") && message.contains("lv"),
                "{message}"
            );
        }
        other => panic!("expected a refusal, got {other:?}"),
    }

    // Per-tenant counters split exactly (the unroutable request lands
    // on app 0, preserving the single-app accounting identity).
    let tm = gateway.counters_of("tm").expect("tm served");
    let lv = gateway.counters_of("lv").expect("lv served");
    assert_eq!(tm.received, 6);
    assert_eq!(tm.completed_ok, 5);
    assert_eq!(tm.protocol_errors, 1);
    assert_eq!(lv.received, 3);
    assert_eq!(lv.completed_ok, 3);
    assert_eq!(gateway.app_names(), vec!["tm".to_string(), "lv".into()]);

    // /metrics exposes aggregated families plus per-app series.
    let metrics = fetch(&gateway, "/metrics");
    assert!(
        metrics.contains("pard_gateway_received_total 9"),
        "{metrics}"
    );
    assert!(
        metrics.contains("pard_gateway_app_received_total{app=\"tm\"} 6"),
        "{metrics}"
    );
    assert!(
        metrics.contains("pard_gateway_app_received_total{app=\"lv\"} 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("pard_gateway_app_completed_ok_total{app=\"lv\"} 3"),
        "{metrics}"
    );
    // Unknown ?app= selectors 404 on the app-scoped endpoints.
    let missing = fetch(&gateway, "/flightrecord?app=nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    drop(client);
    let totals = gateway.shutdown_multi(SimDuration::from_secs(10));
    assert_eq!(totals.len(), 2);
    assert_eq!(totals[0].requests, 5, "tm's engine saw its five requests");
    assert_eq!(totals[1].requests, 3, "lv's engine saw its three");
    assert_eq!(totals[1].goodput, 3, "and agrees with /metrics on lv's ok");
}

#[test]
fn token_bucket_rate_limits_deterministically_under_replay() {
    // Scheduled arrivals steer the sim clock, so bucket refill is a
    // pure function of the schedule: burst 2 at t=0 admits exactly two,
    // rejects two, and a one-second gap refills the bucket.
    let run = || -> Vec<&'static str> {
        let mut app = AppConfig::new(sim_engine(AppKind::Tm, 9));
        app.rate_limit = Some(RateLimit {
            rate_per_sec: 5.0,
            burst: 2.0,
        });
        let gateway = Gateway::start_multi(vec![app], gateway_config()).expect("gateway starts");
        let mut client = Client::connect(gateway.addr()).expect("connect");
        let mut seqs = Vec::new();
        for at_us in [1_000, 1_000, 1_000, 1_000, 1_000_000, 1_000_000] {
            seqs.push(
                client
                    .send(
                        &CallSpec::new("tm")
                            .with_slo_ms(30_000)
                            .with_payload_len(2)
                            .with_at_us(at_us),
                    )
                    .expect("send"),
            );
        }
        client.advance(60_000_000).expect("flush");
        let taxonomy: Vec<&'static str> = seqs
            .into_iter()
            .map(|seq| {
                let answer = client.wait(seq, Duration::from_secs(30)).expect("answered");
                if let Outcome::Rejected { code, message } = &answer.outcome {
                    assert_eq!(*code, Some(ErrorCode::RateLimited), "{message}");
                    assert!(message.contains("rate limit"), "{message}");
                    "rate_limited"
                } else {
                    answer.outcome.taxonomy()
                }
            })
            .collect();
        let counters = gateway.counters();
        assert_eq!(counters.rate_limited, 2);
        assert_eq!(counters.received, 6);
        assert_eq!(counters.admitted + counters.unadmitted(), counters.received);
        let metrics = fetch(&gateway, "/metrics");
        assert!(
            metrics.contains("pard_gateway_rate_limited_total 2"),
            "{metrics}"
        );
        drop(client);
        let _ = gateway.shutdown(SimDuration::from_secs(10));
        taxonomy
    };
    let first = run();
    assert_eq!(
        first,
        vec!["ok", "ok", "rate_limited", "rate_limited", "ok", "ok"],
        "burst admits two, the refill after 1 s admits two more"
    );
    assert_eq!(first, run(), "token-bucket refill replays bit-identically");
}

#[test]
fn flooding_tenant_cannot_starve_the_polite_one() {
    // Tiny pending table: 8 slots, half guaranteed → 2 per tenant at
    // equal weight, 4 shared. The flooder parks its engine clock with
    // same-instant scheduled arrivals so admitted requests stay
    // pending; once it exhausts the shared slots plus its own
    // guarantee, further floods are refused while the polite tenant's
    // requests still serve out of its guaranteed slots.
    let gateway = Gateway::start_multi(
        vec![
            AppConfig::new(sim_engine(AppKind::Tm, 5)),
            AppConfig::new(sim_engine(AppKind::Lv, 5)),
        ],
        GatewayConfig {
            max_pending: 8,
            ..gateway_config()
        },
    )
    .expect("gateway starts");

    let mut flood = Client::connect(gateway.addr()).expect("connect");
    let seqs: Vec<u64> = (0..12u64)
        .map(|_| {
            flood
                .send(
                    &CallSpec::new("tm")
                        .with_slo_ms(30_000)
                        .with_payload_len(2)
                        .with_at_us(1_000),
                )
                .expect("send")
        })
        .collect();
    // Every flood line is answered synchronously (admission happens at
    // accept; admitted ones stay pending behind the gated clock) or
    // stays pending — wait for the refusals to arrive.
    let mut refused = 0usize;
    for &seq in &seqs {
        // Only refusals answer now; admitted requests resolve after the
        // flush below. A short poll distinguishes them.
        if let Some(answer) = flood.wait(seq, Duration::from_millis(400)) {
            match answer.outcome {
                Outcome::Rejected { code, message } => {
                    assert_eq!(code, Some(ErrorCode::Overloaded), "{message}");
                    assert!(message.contains("pending-request table"), "{message}");
                    refused += 1;
                }
                other => panic!("unexpected early answer {other:?}"),
            }
        }
    }
    // Capacity 8 minus lv's guarantee of 2 leaves at most 6 for the
    // flooder; at least 12 - 6 = 6 floods must have been refused.
    assert!(refused >= 6, "only {refused} floods refused");
    let tm = gateway.counters_of("tm").expect("tm served");
    assert!(tm.refused >= 6, "{tm:?}");

    // The polite tenant is untouched: its guaranteed slots admit and
    // its own engine clock is free to run.
    let mut polite = Client::connect(gateway.addr()).expect("connect");
    for _ in 0..3 {
        call_ok(&mut polite, "lv");
    }
    let lv = gateway.counters_of("lv").expect("lv served");
    assert_eq!(lv.refused, 0, "{lv:?}");
    assert_eq!(lv.completed_ok, 3, "{lv:?}");

    // Release the flooder's clock so its admitted requests resolve.
    flood.advance(60_000_000).expect("flush");
    drop(flood);
    drop(polite);
    let _ = gateway.shutdown_multi(SimDuration::from_secs(10));
}

#[test]
fn slow_loris_partial_lines_assemble_across_the_event_loop() {
    // Sixty connections drip one request byte-wise, interleaved, so
    // every socket crosses read boundaries mid-line many times. Each
    // must still get exactly one well-formed reply.
    let gateway = Gateway::start_multi(
        vec![AppConfig::new(sim_engine(AppKind::Tm, 7))],
        gateway_config(),
    )
    .expect("gateway starts");
    let mut streams: Vec<TcpStream> = (0..60)
        .map(|_| {
            let s = TcpStream::connect(gateway.addr()).expect("connect");
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    let line = |i: usize| {
        format!("{{\"v\":2,\"app\":\"tm\",\"slo_ms\":30000,\"payload_len\":2,\"payload\":\"xx\",\"seq\":{i}}}\n")
    };
    let lines: Vec<Vec<u8>> = (0..streams.len()).map(|i| line(i).into_bytes()).collect();
    let longest = lines.iter().map(Vec::len).max().unwrap();
    // Byte k of every connection's line goes out before byte k+1 of
    // any — maximal interleaving of partial lines across the shards.
    for k in 0..longest {
        for (stream, bytes) in streams.iter_mut().zip(&lines) {
            if let Some(&b) = bytes.get(k) {
                stream.write_all(&[b]).expect("drip one byte");
            }
        }
    }
    for (i, stream) in streams.iter_mut().enumerate() {
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let decoded = pard_gateway::Reply::decode(reply.trim())
            .unwrap_or_else(|e| panic!("conn {i}: {e:?} in {reply:?}"));
        match decoded {
            pard_gateway::Reply::Outcome(response) => assert_eq!(response.seq, Some(i as u64)),
            pard_gateway::Reply::Error(e) => panic!("conn {i}: unexpected error {e:?}"),
        }
    }
    let counters = gateway.counters();
    assert_eq!(counters.received, 60);
    assert_eq!(counters.protocol_errors, 0);
    drop(streams);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

#[test]
fn disconnect_storm_leaves_the_gateway_serving() {
    // A thousand sockets connect and die mid-request — half with a
    // dangling partial line, half vanishing right after a full request
    // (the reply hits a closed pipe). The event loop must shed them
    // all and keep serving polite clients.
    let gateway = Gateway::start_multi(
        vec![AppConfig::new(sim_engine(AppKind::Tm, 21))],
        gateway_config(),
    )
    .expect("gateway starts");
    for i in 0..1000usize {
        let mut stream = TcpStream::connect(gateway.addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        if i % 2 == 0 {
            // Partial line, then a hard disconnect.
            stream.write_all(b"{\"v\":2,\"app\":\"tm\",\"pay").unwrap();
        } else {
            // Full request, then vanish before the reply can land.
            stream
                .write_all(
                    b"{\"v\":2,\"app\":\"tm\",\"slo_ms\":30000,\"payload_len\":0,\"seq\":1}\n",
                )
                .unwrap();
        }
        let _ = stream.shutdown(Shutdown::Both);
        drop(stream);
    }
    // A polite client still serves afterwards.
    let mut client = Client::connect(gateway.addr()).expect("connect");
    for _ in 0..3 {
        call_ok(&mut client, "tm");
    }
    let counters = gateway.counters();
    // Full-request writers were received (500) plus the polite three;
    // partial-line writers never completed a line and are invisible.
    assert!(counters.received >= 503, "{counters:?}");
    assert!(counters.completed_ok >= 3, "{counters:?}");
    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}

#[test]
fn multi_connection_virtual_replay_is_deterministic() {
    // The same trace split over three replay-group connections must
    // produce identical aggregate outcomes run after run: the gateway
    // re-serializes the parties into global (at_us, seq) order, so
    // socket interleaving cannot leak into admission decisions.
    let run = || {
        let gateway = Gateway::start_multi(
            vec![AppConfig::new(sim_engine(AppKind::Tm, 17))],
            gateway_config(),
        )
        .expect("gateway starts");
        let config = LoadgenConfig {
            app: "tm".into(),
            connections: 3,
            mode: LoadMode::Open {
                trace: constant(150.0, 4),
            },
            slo_ms: Some(400),
            tight_fraction: 0.1,
            time_scale: 1.0,
            pace: Pace::Virtual,
            seed: 23,
            ..LoadgenConfig::default()
        };
        let report = pard_gateway::loadgen::run(gateway.addr(), &config).expect("loadgen run");
        assert_eq!(report.unanswered, 0, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        let counters = gateway.counters();
        let _ = gateway.shutdown(SimDuration::from_secs(10));
        (
            report.sent,
            report.ok,
            report.violated,
            report.dropped_edge,
            report.dropped_pipeline,
            counters.admitted,
            counters.rejected,
        )
    };
    let first = run();
    assert!(
        first.0 > 400,
        "4 s at 150 req/s should send >400: {first:?}"
    );
    assert!(first.1 > 0 && first.3 > 0, "{first:?}");
    assert_eq!(first, run(), "replay outcomes must be bit-identical");
}

#[test]
fn mux_driver_matches_thread_per_connection_semantics() {
    // The epoll-multiplexed open-loop driver serves hundreds of
    // connections from one thread; every request must be answered and
    // the gateway's accounting identity must hold.
    let gateway = Gateway::start_multi(
        vec![
            AppConfig::new(sim_engine(AppKind::Tm, 31)),
            AppConfig::new(sim_engine(AppKind::Lv, 31)),
        ],
        gateway_config(),
    )
    .expect("gateway starts");
    let config = LoadgenConfig {
        app: "tm,lv".into(),
        connections: 300,
        mode: LoadMode::Open {
            trace: constant(200.0, 3),
        },
        slo_ms: Some(30_000),
        tight_fraction: 0.1,
        time_scale: 1.0,
        pace: Pace::Wall,
        mux: true,
        seed: 29,
        ..LoadgenConfig::default()
    };
    let report = pard_gateway::loadgen::run(gateway.addr(), &config).expect("loadgen run");
    assert!(report.sent > 400, "{report:?}");
    assert_eq!(report.unanswered, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert!(report.ok > 0, "{report:?}");
    let tm = gateway.counters_of("tm").expect("tm served");
    let lv = gateway.counters_of("lv").expect("lv served");
    assert_eq!((tm.received + lv.received) as usize, report.sent);
    assert!(tm.received > 0 && lv.received > 0, "both tenants loaded");
    assert_eq!(tm.admitted + tm.unadmitted(), tm.received);
    assert_eq!(lv.admitted + lv.unadmitted(), lv.received);
    let _ = gateway.shutdown_multi(SimDuration::from_secs(10));
}

#[test]
fn deadline_math_saturates_at_wire_extremes() {
    // A large virtual `now` combined with the largest legal SLO (one
    // full day, `MAX_SLO_MS`) exercises the saturating deadline path
    // end to end — `ms · 1000` then `now + slo` — and the request must
    // answer normally, not wrap or panic. (The literal 7-day
    // `MAX_VIRTUAL_US` cap is wire-accepted — asserted in the wire
    // tests — but walking the stepped clock there means ~600k
    // per-second bookkeeping events, so the serving check uses an hour.)
    let hour_us: u64 = 3_600_000_000;
    let gateway = Gateway::start_multi(
        vec![AppConfig::new(sim_engine(AppKind::Tm, 19))],
        gateway_config(),
    )
    .expect("gateway starts");
    let mut client = Client::connect(gateway.addr()).expect("connect");
    client.advance(hour_us).expect("advance an hour");
    let seq = client
        .send(
            &CallSpec::new("tm")
                .with_slo_ms(pard_gateway::wire::MAX_SLO_MS)
                .with_payload_len(2)
                .with_at_us(hour_us),
        )
        .expect("send");
    // Release the gate past the arrival so the request can serve.
    client.advance(hour_us + 60_000_000).expect("flush");
    let answer = client
        .wait(seq, Duration::from_secs(30))
        .expect("answered with the SLO at its wire maximum");
    assert!(answer.outcome.is_ok(), "{answer:?}");
    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(10));
}
