//! Socketless scenario replay: the wire path without the wire.
//!
//! [`run_scenario`](crate::run_scenario) measures the full serving
//! stack — sockets, protocol decode, the pending table — which is what
//! a golden scenario wants on the hook. A parallel sweep running
//! thousands of cells wants none of it: per-cell loopback listeners
//! and connection threads would dominate runtime and fight over
//! ephemeral ports. This module replays the *identical* schedule
//! against the gateway's own [`EdgeAdmitter`] with no transport around
//! it:
//!
//! 1. every scheduled arrival goes through
//!    [`EdgeAdmitter::decide_at`] — the call the gateway's replay path
//!    makes — and an admitted one through [`AdmitPermit::submit`];
//! 2. the flush releases the clock gate past the trace tail plus the
//!    scenario's drain, and anything still unresolved is flushed as a
//!    drop — what [`pard_gateway::Gateway::shutdown`] does to its
//!    pending table.
//!
//! Admission is therefore the same code on either path, and what is
//! left here is outcome classification. `tests/engine_path.rs` holds
//! the two paths to the **same per-request outcome vector** (and, for
//! the adaptive scenario, the same recorded edge decisions), so a
//! sweep cell and a golden scenario measure the same thing.
//!
//! [`AdmitPermit::submit`]: pard_gateway::AdmitPermit::submit

use std::collections::HashMap;
use std::sync::{mpsc, Arc};

use pard_engine_api::{Completion, EngineHandle};
use pard_gateway::{Admission, EdgeAdmitter};
use pard_metrics::Outcome;
use pard_sim::{SimDuration, SimTime};
use pard_workload::WireEvent;

use crate::outcome::{OutcomeTaxonomy, RequestOutcome};
use crate::runner::{build_schedule, build_sim_engine, ScenarioRun};
use crate::scenario::Scenario;

/// Replays a pre-built schedule against a pre-built **simulated**
/// engine and classifies every request. This is the sweep engine's
/// per-cell hot loop: the schedule is built once per (trace, seed) and
/// shared across every cell that differs only in policy or workers,
/// and `recorder_capacity = 0` in [`crate::runner::build_sim_engine`]
/// skips the flight-recorder allocation entirely (the adaptive fold
/// needs that event stream, so such a cell keeps the static floor).
///
/// `trace_duration` is the rate envelope's length (the flush point is
/// its end plus the scenario's drain, like the wire path's trailing
/// `advance` control line).
pub fn run_schedule_engine(
    scenario: &Scenario,
    engine: Box<dyn EngineHandle>,
    events: &[WireEvent],
    trace_duration: SimDuration,
) -> ScenarioRun {
    let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
    engine.set_completion_sink(completion_tx);
    let admitter = EdgeAdmitter::new(engine, scenario.adaptive, None, Arc::default());

    // Replay. Edge rejections classify immediately; admitted requests
    // wait for their completion.
    let mut admitted: Vec<(u64, u64, u64)> = Vec::new(); // (seq, at_us, id)
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; events.len()];
    for (index, event) in events.iter().enumerate() {
        let seq = index as u64;
        let at_us = event.at.as_micros();
        match admitter.decide_at(at_us, scenario.slo.slo_for(seq)) {
            Admission::RateLimited => unreachable!("no rate limit is configured"),
            Admission::Rejected { id, .. } => {
                outcomes[index] = Some(RequestOutcome {
                    seq,
                    at_us,
                    label: "dropped_edge",
                    id: Some(id),
                    latency_us: None,
                });
            }
            Admission::Admitted(permit) => admitted.push((seq, at_us, permit.submit())),
        }
    }
    let engine = admitter.engine();

    // Flush: release the clock gate past the last arrival plus the
    // drain window (the wire path's trailing `advance` control line),
    // then stop the engine. Completions delivered up to the flush
    // classify by their real outcome; anything later is flushed as a
    // drop, exactly like the gateway's shutdown flush of its pending
    // table.
    let flush_to = (SimTime::ZERO + trace_duration).saturating_add(scenario.drain);
    engine.advance_to(SimTime::from_micros(
        flush_to.as_micros().min(pard_gateway::wire::MAX_VIRTUAL_US),
    ));
    let mut completions: HashMap<u64, Completion> = HashMap::new();
    while let Ok(completion) = completion_rx.try_recv() {
        completions.insert(completion.id, completion);
    }
    let _ = engine.drain(SimDuration::from_secs(1));

    for (seq, at_us, id) in admitted {
        let (label, latency_us) = match completions.get(&id) {
            Some(completion) => match completion.outcome {
                Outcome::Completed { .. } => {
                    // µs → f64 ms → µs matches the wire's latency field
                    // bit for bit (exact below ~2^52 µs).
                    let latency_us = completion
                        .latency()
                        .map(|d| (d.as_millis_f64() * 1000.0).round() as u64);
                    if completion.within_slo() {
                        ("ok", latency_us)
                    } else {
                        ("violated", latency_us)
                    }
                }
                Outcome::Dropped { .. } => ("dropped_pipeline", None),
                Outcome::InFlight => unreachable!("completions are terminal"),
            },
            // Unresolved past the flush: the wire path answers these
            // from the shutdown flush as drops.
            None => ("dropped_pipeline", None),
        };
        outcomes[seq as usize] = Some(RequestOutcome {
            seq,
            at_us,
            label,
            id: Some(id),
            latency_us,
        });
    }

    let outcomes: Vec<RequestOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every scheduled request classified"))
        .collect();
    let taxonomy = OutcomeTaxonomy::build(scenario, &outcomes);
    ScenarioRun {
        outcomes,
        taxonomy,
        recorder: admitter.recorder().cloned(),
    }
}

/// Runs `scenario` end to end **without a gateway socket**: the same
/// schedule builder, engine configuration and [`EdgeAdmitter`] as
/// [`crate::run_scenario`], and the same outcome classification —
/// minus the wire. Produces the identical per-request outcome vector
/// (and therefore the identical golden taxonomy).
///
/// # Panics
///
/// Like [`crate::run_scenario`], any infrastructure failure panics
/// with context.
pub fn run_scenario_engine(scenario: &Scenario) -> ScenarioRun {
    let (trace, events) = build_schedule(scenario);
    let engine = build_sim_engine(scenario, None);
    run_schedule_engine(scenario, engine, &events, trace.duration())
}
