//! Which threads a gateway runs, read from `/proc/self/task/*/comm`.
//!
//! One test, alone in its binary: the thread list is the process's, so
//! a gateway started by a neighbouring test would be counted too.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pard_engine_api::{Backend, ClusterConfig, EngineBuilder, EngineHandle, LiveConfig};
use pard_gateway::{Gateway, GatewayConfig};
use pard_pipeline::AppKind;
use pard_sim::SimDuration;

fn engine(backend: Backend) -> Box<dyn EngineHandle> {
    EngineBuilder::for_app(AppKind::Tm)
        .build(backend)
        .expect("builtin models resolve from the zoo")
}

fn gateway(engine: Box<dyn EngineHandle>) -> Gateway {
    let config = GatewayConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: "127.0.0.1:0".into(),
        shards: 2,
        ..GatewayConfig::default()
    };
    Gateway::start(engine, config).expect("gateway binds ephemeral ports")
}

/// Gateway threads by name (the kernel keeps 15 bytes of it), counted.
fn pard_threads() -> BTreeMap<String, usize> {
    let mut names = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = task.expect("task entry").path().join("comm");
        // A thread can exit between the listing and the read.
        let Ok(name) = std::fs::read_to_string(comm) else {
            continue;
        };
        if name.starts_with("pard-") {
            *names.entry(name.trim_end().to_string()).or_insert(0) += 1;
        }
    }
    names
}

/// Asserts the gateway threads are exactly `shared` plus `own`, one of
/// each. A thread names itself as it starts, so the list settles a
/// moment after `Gateway::start` returns.
fn assert_threads(shared: &[&str], own: &str) {
    let want: BTreeMap<String, usize> = shared
        .iter()
        .chain([&own])
        .map(|name| (name.to_string(), 1))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while pard_threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(pard_threads(), want);
}

#[test]
fn a_stepped_app_has_a_pump_and_a_live_app_a_dispatcher() {
    const SHARED: [&str; 6] = [
        "pard-shard-0",
        "pard-shard-1",
        "pard-poller",
        "pard-accept",
        "pard-frames",
        "pard-metrics",
    ];

    // The simulator sends completions from inside the call that drove
    // it, so the driver routes them: a pump thread, no dispatcher.
    let sim = gateway(engine(Backend::Sim(
        ClusterConfig::default().with_fixed_workers(vec![2; 3]),
    )));
    assert_threads(&SHARED, "pard-pump-tm");
    let _ = sim.shutdown(SimDuration::from_secs(1));
    assert_eq!(pard_threads(), BTreeMap::new(), "shutdown joins them all");

    // The live engine's pacer completes work on a thread of its own:
    // exactly one dispatcher blocks on its channel, and nothing pumps
    // it. The pacer is the engine's only thread.
    let live = gateway(engine(Backend::Live(LiveConfig::compressed(20.0, 3, 2))));
    let mut with_pacer = SHARED.to_vec();
    with_pacer.push("pard-pacer-tm");
    assert_threads(&with_pacer, "pard-dispatch-t"); // "pard-dispatch-tm", cut at 15 bytes
    let _ = live.shutdown(SimDuration::from_secs(1));
    assert_eq!(pard_threads(), BTreeMap::new(), "shutdown joins them all");
}
