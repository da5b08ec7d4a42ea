//! The gateway + load-generator pair, in one process: a real TCP
//! gateway on an ephemeral loopback port, PARD admission at the edge,
//! and an open-loop trace replay against it — all through the unified
//! engine API, so switching between the wall-paced live backend and the
//! deterministic stepped simulator is the one-line `Backend` choice
//! below.
//!
//! ```sh
//! cargo run --release --example gateway_quickstart                 # live backend
//! PARD_BACKEND=sim cargo run --release --example gateway_quickstart  # simulator backend
//! ```

use pard::prelude::*;
use pard::workload::constant;

const SCALE: f64 = 20.0;

fn main() {
    // The one-line backend switch: the identical gateway, client, and
    // report run against either engine.
    let backend = match std::env::var("PARD_BACKEND").as_deref() {
        Ok("sim") => Backend::Sim(
            ClusterConfig::default()
                .with_seed(42)
                .with_fixed_workers(vec![2; 3]),
        ),
        _ => Backend::Live(LiveConfig::compressed(SCALE, 3, 2)),
    };
    let engine = EngineBuilder::for_app(AppKind::Tm)
        .build(backend)
        .expect("builtin models are in the zoo");

    let gateway = Gateway::start(
        engine,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback");
    println!(
        "gateway serving tm on {} (metrics http://{}/metrics)",
        gateway.addr(),
        gateway.metrics_addr()
    );

    // 10 virtual seconds at 150 req/s; 5% of requests carry an
    // infeasible SLO to make edge rejection visible even underloaded.
    // The load generator drives the typed pard_gateway::client::Client.
    let config = LoadgenConfig {
        app: "tm".into(),
        connections: 4,
        mode: LoadMode::Open {
            trace: constant(150.0, 10),
        },
        // Compresses the wall-clock send schedule 20×; the live backend
        // runs its virtual clock at the same scale, the simulator paces
        // its own virtual time from the request stream.
        time_scale: SCALE,
        ..LoadgenConfig::default()
    };
    let report = pard::gateway::loadgen::run(gateway.addr(), &config).expect("loadgen");
    print!("{}", report.render());
    println!("{}", report.to_json("tm", "open", config.connections));

    let snapshot = gateway.counters();
    println!(
        "gateway counters: received {}, admitted {}, edge-rejected {}, ok {}",
        snapshot.received, snapshot.admitted, snapshot.rejected, snapshot.completed_ok
    );
    let totals = gateway.shutdown(SimDuration::from_secs(10));
    println!(
        "engine served: {} admitted requests, {} goodput, {} drops",
        totals.requests, totals.goodput, totals.dropped
    );
}
