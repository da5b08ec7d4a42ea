//! A long replay must not make the simulated engine grow.
//!
//! 200 000 scheduled requests go through a `tm` [`SimEngine`] on the
//! socketless path ([`run_schedule_engine`] — the gateway's own
//! `EdgeAdmitter`, no transport). The engine answers each request once,
//! on the completion sink, and then forgets it: what it holds at any
//! moment is the id span still in flight, which depends on the rate and
//! the pipeline's latency, never on how many requests came before.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use pard_core::PardConfig;
use pard_engine_api::{
    ClusterConfig, Completion, EdgeState, EngineBuilder, EngineHandle, SimEngine, SubmitSpec,
};
use pard_harness::{build_schedule, run_schedule_engine, Scenario, TraceSpec};
use pard_metrics::ServedTotals;
use pard_obs::FlightRecorder;
use pard_pipeline::{AppKind, PipelineSpec};
use pard_sim::{SimDuration, SimTime};

/// What the engine held, sampled where a replay can see it.
#[derive(Default)]
struct Residency {
    /// Largest resident count seen right after a submit.
    peak: AtomicUsize,
    /// Resident count when the drain began, the replay's tail resolved.
    at_drain: AtomicUsize,
    /// The totals the drain returned.
    requests: AtomicUsize,
}

/// A [`SimEngine`] that notes its resident count as it is driven.
struct Watched {
    engine: SimEngine,
    seen: Arc<Residency>,
}

impl EngineHandle for Watched {
    fn spec(&self) -> &PipelineSpec {
        self.engine.spec()
    }
    fn now(&self) -> SimTime {
        self.engine.now()
    }
    fn submit(&self, spec: SubmitSpec) -> u64 {
        let id = self.engine.submit(spec);
        self.seen
            .peak
            .fetch_max(self.engine.resident(), Ordering::Relaxed);
        id
    }
    fn edge_state(&self) -> EdgeState {
        self.engine.edge_state()
    }
    fn set_completion_sink(&self, sink: Sender<Completion>) {
        self.engine.set_completion_sink(sink)
    }
    fn stepped(&self) -> bool {
        true
    }
    fn pump(&self) -> bool {
        self.engine.pump()
    }
    fn advance_to(&self, t: SimTime) -> bool {
        self.engine.advance_to(t)
    }
    fn drain(&self, limit: SimDuration) -> ServedTotals {
        self.seen
            .at_drain
            .store(self.engine.resident(), Ordering::Relaxed);
        let totals = self.engine.drain(limit);
        self.seen
            .requests
            .store(totals.requests as usize, Ordering::Relaxed);
        totals
    }
    fn telemetry(&self) -> Option<Arc<FlightRecorder>> {
        self.engine.telemetry()
    }
}

#[test]
fn a_long_replay_holds_the_in_flight_span_not_the_request_count() {
    // 1 000 req/s for 200 virtual seconds against eight workers a
    // module: about a hundred requests in flight at any instant.
    let scenario = Scenario::new(
        "soak_tm",
        AppKind::Tm,
        TraceSpec::Constant {
            rate: 1_000.0,
            len_s: 200,
        },
    )
    .with_workers(vec![8, 8, 8])
    .with_seed(17);
    let (trace, events) = build_schedule(&scenario);
    assert!(events.len() >= 200_000 - 2_000, "{} events", events.len());

    let engine = EngineBuilder::for_app(AppKind::Tm)
        .with_workers(vec![8, 8, 8])
        .with_autoscale(false)
        .with_recorder_capacity(0)
        .build_sim(
            ClusterConfig::default()
                .with_seed(scenario.seed)
                .with_pard(PardConfig::default().with_mc_draws(scenario.mc_draws)),
        )
        .expect("tm builds");
    let seen = Arc::new(Residency::default());
    let watched = Watched {
        engine,
        seen: Arc::clone(&seen),
    };
    let run = run_schedule_engine(&scenario, Box::new(watched), &events, trace.duration());

    let answered: u64 = run.taxonomy.phases.iter().map(|p| p.sent).sum();
    assert_eq!(answered, events.len() as u64);
    let admitted = run
        .outcomes
        .iter()
        .filter(|o| o.label != "dropped_edge")
        .count();
    assert!(admitted > 150_000, "only {admitted} reached the engine");
    assert_eq!(seen.requests.load(Ordering::Relaxed), admitted);

    let peak = seen.peak.load(Ordering::Relaxed);
    assert!(
        (10..1_000).contains(&peak),
        "the engine held {peak} records at its largest, having served {admitted}"
    );
    assert_eq!(
        seen.at_drain.load(Ordering::Relaxed),
        0,
        "everything resolved by the flush, so nothing is left to remember"
    );
}
