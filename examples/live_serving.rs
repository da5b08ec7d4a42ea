//! Live serving: the simulated cluster on a wall clock compressed 20×,
//! fed a Poisson stream as its clock reaches each arrival (~6 s wall
//! time) — the same PARD policy objects, answering requests as a live
//! deployment would.
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
    let engine = EngineBuilder::new(spec)
        .with_profiles(profiles)
        .build_live(LiveConfig::compressed(SCALE, 3, 2))
        .expect("valid chain pipeline");
    let (tx, rx) = std::sync::mpsc::channel();
    engine.set_completion_sink(tx);

    // 2 minutes of virtual time: one minute calm, one minute overloaded.
    let mut rng = DetRng::new(1);
    let mut next = SimTime::ZERO;
    for (rate, until, label) in [
        (
            150.0,
            60,
            "60 virtual seconds at 150 req/s (within capacity)",
        ),
        (
            700.0,
            120,
            "60 virtual seconds at 700 req/s (overload: drops expected)",
        ),
    ] {
        println!("{label}...");
        loop {
            next += SimDuration::from_secs_f64(rng.exp(1.0 / rate));
            if next >= SimTime::from_secs(until) {
                break;
            }
            while engine.now() < next {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            engine.submit(SubmitSpec::default());
        }
    }
    let totals = engine.drain(SimDuration::from_secs(10));

    // Every request was answered on the sink, with its submit time.
    let mut phases = [(0u64, 0u64); 2];
    for completion in rx.try_iter() {
        let phase = &mut phases[usize::from(completion.sent >= SimTime::from_secs(60))];
        phase.0 += 1;
        phase.1 += u64::from(completion.within_slo());
    }
    let frac = |(all, good): (u64, u64)| 100.0 * good as f64 / all.max(1) as f64;
    println!();
    println!(
        "phase 1 (calm):     {} requests, {:.1}% goodput",
        phases[0].0,
        frac(phases[0])
    );
    println!(
        "phase 2 (overload): {} requests, {:.1}% goodput",
        phases[1].0,
        frac(phases[1])
    );
    println!(
        "total drop rate:    {:.1}%",
        100.0 * totals.dropped as f64 / totals.requests.max(1) as f64
    );
    println!();
    println!("same WorkerPolicy trait objects as the simulator — no porting step.");
}
