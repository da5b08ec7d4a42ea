//! Live serving on real threads: the same PARD policy objects the
//! simulator validates, running against a sleep-based inference backend
//! at 20× time compression (~6 s wall time).
//!
//! ```sh
//! cargo run --release --example live_serving
//! ```

use pard::prelude::*;

const SCALE: f64 = 20.0;

fn main() {
    let spec = PipelineSpec::chain(
        "live-demo",
        SimDuration::from_millis(400),
        &["det", "rec", "ocr"],
    );
    let profiles = vec![
        ModelProfile::new("det", 12.0, 6.0, 0.88, 16),
        ModelProfile::new("rec", 5.0, 3.0, 0.90, 16),
        ModelProfile::new("ocr", 8.0, 4.0, 0.90, 16),
    ];

    println!("starting 3-module live cluster (2 workers each, {SCALE}x compressed)...");
    // The unified engine API builds the cluster; `cluster()` exposes
    // the runtime-specific open-loop driver.
    let engine = EngineBuilder::new(spec)
        .with_profiles(profiles)
        .build_live(LiveConfig::compressed(SCALE, 3, 2))
        .expect("valid chain pipeline");
    let cluster = engine.cluster();

    // 2 minutes of virtual time: one minute calm, one minute overloaded.
    println!("phase 1: 60 virtual seconds at 150 req/s (within capacity)...");
    cluster.run_open_loop(150.0, SimDuration::from_secs(60), 1);
    println!("phase 2: 60 virtual seconds at 700 req/s (overload: drops expected)...");
    cluster.run_open_loop(700.0, SimDuration::from_secs(60), 2);

    // The runtime's own drain hands back the full request log (the
    // engine API's `drain` only returns totals).
    let log = cluster.drain(SimDuration::from_secs(10));
    let calm: Vec<_> = log
        .records()
        .iter()
        .filter(|r| r.sent < SimTime::from_secs(60))
        .collect();
    let hot: Vec<_> = log
        .records()
        .iter()
        .filter(|r| r.sent >= SimTime::from_secs(60))
        .collect();
    let frac = |rs: &[&pard::metrics::RequestRecord]| {
        let good = rs.iter().filter(|r| r.is_goodput()).count();
        100.0 * good as f64 / rs.len().max(1) as f64
    };
    println!();
    println!(
        "phase 1 (calm):     {} requests, {:.1}% goodput",
        calm.len(),
        frac(&calm)
    );
    println!(
        "phase 2 (overload): {} requests, {:.1}% goodput",
        hot.len(),
        frac(&hot)
    );
    println!("total drop rate:    {:.1}%", 100.0 * log.drop_rate());
    println!();
    println!("same WorkerPolicy trait objects as the simulator — no porting step.");
}
