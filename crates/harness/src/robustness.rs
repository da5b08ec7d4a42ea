//! The canned dynamic-interference scenario pair (the "chaos smoke").
//!
//! One scenario, two admission configurations: the **static** floor
//! (profile-trusting, as shipped before the adaptive layer) and the
//! **adaptive** floor (online estimator + re-planner + brownout). The
//! golden suite replays the pair on the simulator and asserts the
//! headline claim bit-reproducibly; the live envelope suite replays the
//! same pair on the wall-paced live backend (the same seeded
//! interference trace, arrivals stamped by the wall clock) and asserts
//! it statistically;
//! CI's `chaos-smoke` job runs both in release.
//!
//! The regime is chosen so the interference actually *hurts* and
//! adaptation actually *helps*:
//!
//! * The Markov slowdown rides the **terminal** module's only worker.
//!   Upstream modules shed doomed requests cheaply at batch formation
//!   (stale profiled estimates still predict those violations), but a
//!   stale-admitted request reaching the terminal module executes on
//!   the contended bottleneck and finishes violated — real wasted
//!   capacity, which is what guts the static floor.
//! * Factor 1.7 keeps the contended steady state *barely* servable
//!   within tm's 400 ms SLO (batch fill + formed-batch residual +
//!   1.7x exec + upstream transit ≈ 390 ms), so a floor that tracks
//!   the observed ratio keeps serving at contended capacity, while the
//!   static floor admits deep queues whose every occupant misses.
//! * Long bouts (mean ≈ 2 s calm / ≈ 3.3 s contended at a 500 ms flip
//!   period) give the estimator time to latch and make the static
//!   queue poison compound.

use pard_cluster::FaultSpec;
use pard_gateway::AdaptiveConfig;
use pard_obs::FlightRecorder;
use pard_pipeline::AppKind;
use pard_sim::{MarkovParams, SimDuration, SimTime};

use crate::{Scenario, ScenarioRun, TraceSpec};

/// The dynamic-interference scenario: tm at 205 req/s with a seeded
/// Markov-modulated slowdown on the terminal module's worker between
/// t = 10 s and t = 30 s. Run it as-is for the static floor; add
/// [`adaptive_config`] for the adaptive floor.
pub fn interference_scenario(name: &str) -> Scenario {
    Scenario::new(
        name,
        AppKind::Tm,
        TraceSpec::Constant {
            rate: 205.0,
            len_s: 40,
        },
    )
    .with_workers(vec![2, 1, 1])
    .with_faults(vec![FaultSpec::InterferenceMarkov {
        module: 2,
        worker: 0,
        markov: MarkovParams {
            calm: 1.0,
            contended: 1.7,
            p_enter: 0.25,
            p_exit: 0.15,
        },
        period: SimDuration::from_millis(500),
        from: SimTime::from_secs(10),
        until: SimTime::from_secs(30),
    }])
    .phase("calm", 0, 10)
    .phase("storm", 10, 30)
    .phase("after", 30, 40)
}

/// The adaptive config the pair runs with: a long quantile window so
/// the latch *holds* across calm gaps between bouts (losing the latch
/// costs a fresh detection lag per bout), a floor margin that pushes
/// the shed threshold below the doomed batch-fill band the floor's
/// queue arithmetic cannot see, and a lazy downward probe so full
/// shedding still decays back to the profile.
pub fn adaptive_config() -> AdaptiveConfig {
    AdaptiveConfig {
        window: 256,
        brownout_threshold: 0.5,
        brownout_step: 1.1,
        brownout_max: 2.0,
        floor_margin: 2.0,
        probe_after: 64,
        ..AdaptiveConfig::default()
    }
}

/// Dumps the tail of a run's flight record to stderr — called by the
/// chaos-smoke assertions on failure so CI logs carry the admission
/// decisions and floor movements that led to the miss, not just the
/// counts.
pub fn dump_flight_tail(run: &ScenarioRun, max: usize) {
    match &run.recorder {
        Some(recorder) => eprint!("{}", render_flight_tail(recorder, max)),
        None => eprintln!("(no flight recorder on this run)"),
    }
}

/// The last `max` retained events, one per line, under a header that
/// says how much of the run the ring still holds.
fn render_flight_tail(recorder: &FlightRecorder, max: usize) -> String {
    // `read_since` returns the ticket count it read up to, so the loss
    // is exact even while the engine is still recording.
    let (events, emitted) = recorder.read_since(0);
    let mut out = format!(
        "flight record tail ({} of {} retained events, {} overwritten):\n",
        max.min(events.len()),
        events.len(),
        emitted - events.len() as u64,
    );
    for event in &events[events.len().saturating_sub(max)..] {
        out.push_str(&format!("  {}\n", event.describe()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_obs::{ObsEvent, ObsKind};

    #[test]
    fn flight_tail_reports_what_the_ring_overwrote() {
        // 20 events through an 8-slot ring: 8 retained, 12 lost — not
        // the read cursor (20) the header used to print as "dropped".
        let recorder = FlightRecorder::with_capacity(8);
        for i in 0..20 {
            recorder.record(&ObsEvent {
                t_us: i,
                req: i,
                kind: ObsKind::Completed {
                    finished_us: i,
                    deadline_us: i + 1,
                },
            });
        }
        let text = render_flight_tail(&recorder, 3);
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("flight record tail (3 of 8 retained events, 12 overwritten):")
        );
        // The tail is the newest three events, oldest first.
        let tail: Vec<&str> = lines.collect();
        assert_eq!(tail.len(), 3);
        for (line, req) in tail.iter().zip(17..20u64) {
            assert!(line.contains(&format!("req={req} ")), "{line}");
        }
    }
}
