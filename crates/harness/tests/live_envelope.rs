//! Live-backend scenario coverage: the same declarative scenarios the
//! golden suite replays against the stepped simulator, run on the
//! **wall-paced live backend** over a real socket and judged against
//! statistical envelopes (wall-clock runs cannot be golden-equal).
//!
//! Bounds are deliberately loose — they must hold on a loaded CI
//! machine — while still failing hard on structural regressions: a DAG
//! branch that never forwards, a merge barrier that never releases, a
//! broken edge-admission path, or requests left unanswered.

use pard_harness::{run_scenario_live, Envelope, Scenario, SloMix, TraceSpec};
use pard_pipeline::AppKind;

/// Virtual seconds per wall second; keeps each run ~0.5 s of wall time.
const SCALE: f64 = 20.0;

#[test]
fn live_chain_scenario_stays_inside_its_envelope() {
    // 40 req/s for 6 virtual s on the tm chain, every 8th request an
    // infeasible 1 ms canary: ~240 requests, ~30 canaries.
    let scenario = Scenario::new(
        "live_steady_tm",
        AppKind::Tm,
        TraceSpec::Constant {
            rate: 40.0,
            len_s: 6,
        },
    )
    .with_workers(vec![2, 2, 2])
    .with_slo(SloMix {
        default_ms: None,
        tight_every: 8,
    });
    let run = run_scenario_live(&scenario, SCALE);
    assert!(run.taxonomy.total().sent > 150, "{:?}", run.taxonomy);
    Envelope::new()
        .with_min_goodput_fraction(0.6)
        .with_max_violated_fraction(0.25)
        .with_max_unanswered(0)
        .with_edge_rejects(15, 80)
        .assert(&run.taxonomy);
}

#[test]
fn live_da_dag_scenario_stays_inside_its_envelope() {
    // The split/merge `da` app on the live backend — the shape that
    // used to be sim-only. Same canary mix; every non-canary request
    // must fan out at module 0, clear the join barrier at module 3,
    // and come back over the socket.
    let scenario = Scenario::new(
        "live_dag_da",
        AppKind::Da,
        TraceSpec::Constant {
            rate: 40.0,
            len_s: 6,
        },
    )
    .with_workers(vec![2, 2, 2, 2])
    .with_slo(SloMix {
        default_ms: None,
        tight_every: 8,
    });
    let run = run_scenario_live(&scenario, SCALE);
    let total = run.taxonomy.total();
    assert!(total.sent > 150, "{total:?}");
    Envelope::new()
        .with_min_goodput_fraction(0.6)
        .with_max_violated_fraction(0.25)
        .with_max_unanswered(0)
        .with_edge_rejects(15, 80)
        .assert(&run.taxonomy);
    // The canaries prove the DAG-aware (critical-path) edge admission
    // is live: an idle diamond still cannot serve a 1 ms budget.
    assert!(total.dropped_edge >= 15, "{total:?}");
}

#[test]
fn live_interference_pair_adaptive_recovers() {
    // The headline robustness pair (golden on the simulator in
    // `scenarios.rs`) on the live backend: the same seeded Markov
    // interference trace, with arrivals stamped by the wall clock.
    // Stamp jitter means the exact goodput differs run to run, so the live half
    // asserts a loose envelope of the same shape: the storm must hurt
    // the static floor, and the adaptive floor must claw back a
    // meaningful share by shedding at the edge.
    const ISCALE: f64 = 10.0;
    let static_run = run_scenario_live(
        &pard_harness::robustness::interference_scenario("live_interference_static"),
        ISCALE,
    );
    let adaptive_run = run_scenario_live(
        &pard_harness::robustness::interference_scenario("live_interference_adaptive")
            .with_adaptive_config(pard_harness::robustness::adaptive_config()),
        ISCALE,
    );

    let calm = static_run.taxonomy.phase("calm").goodput_fraction();
    let g_static = static_run.taxonomy.phase("storm").goodput_fraction();
    let g_adaptive = adaptive_run.taxonomy.phase("storm").goodput_fraction();
    let shed_static = static_run.taxonomy.phase("storm").dropped_edge;
    let shed_adaptive = adaptive_run.taxonomy.phase("storm").dropped_edge;
    eprintln!(
        "live pair: calm {calm:.3} static {g_static:.3} adaptive {g_adaptive:.3} \
         shed {shed_static} -> {shed_adaptive}"
    );

    let mut failures: Vec<String> = Vec::new();
    if calm < 0.85 {
        failures.push(format!("calm phase must be healthy: {calm:.3}"));
    }
    if g_static > 0.85 {
        failures.push(format!(
            "interference must hurt the static floor: storm {g_static:.3}"
        ));
    }
    if g_adaptive < g_static + 0.25 * (calm - g_static) {
        failures.push(format!(
            "adaptive must recover a meaningful share on live: \
             calm {calm:.3} static {g_static:.3} adaptive {g_adaptive:.3}"
        ));
    }
    if shed_adaptive <= shed_static {
        failures.push(format!(
            "the adaptive floor must shed at the edge: {shed_static} -> {shed_adaptive}"
        ));
    }
    let recorder = adaptive_run.recorder.as_ref().expect("live recorder");
    let (events, _) = recorder.read_since(0);
    if !events
        .iter()
        .any(|e| matches!(e.kind, pard_obs::ObsKind::FloorAdjust { .. }))
    {
        failures.push("floor movements must be on the live audit trail".into());
    }
    if static_run.taxonomy.total().unanswered + adaptive_run.taxonomy.total().unanswered > 0 {
        failures.push("every live request must be answered".into());
    }
    if !failures.is_empty() {
        pard_harness::robustness::dump_flight_tail(&adaptive_run, 120);
        panic!(
            "live interference envelope failed:\n  {}",
            failures.join("\n  ")
        );
    }
}

#[test]
fn live_runner_serves_a_crash_and_autoscaling() {
    // The live backend runs the simulator's state machine, so faults
    // and autoscaling serve there too: module 0 loses a worker mid-run
    // while the scaling engine is on, and every request is still
    // answered exactly once.
    let scenario = Scenario::new(
        "live_faulty",
        AppKind::Tm,
        TraceSpec::Constant {
            rate: 40.0,
            len_s: 4,
        },
    )
    .with_autoscale(8, pard_sim::SimDuration::from_millis(500))
    .with_faults(vec![pard_engine_api::FaultSpec::WorkerCrash {
        module: 0,
        worker: 0,
        at: pard_sim::SimTime::from_secs(2),
    }]);
    let run = run_scenario_live(&scenario, SCALE);
    let total = run.taxonomy.total();
    assert!(total.sent > 100, "{total:?}");
    assert_eq!(total.unanswered, 0, "{total:?}");
    assert_eq!(run.outcomes.len() as u64, total.sent, "{total:?}");
    Envelope::new()
        .with_min_goodput_fraction(0.5)
        .with_max_unanswered(0)
        .assert(&run.taxonomy);
}
