//! The socketless engine path must measure the same thing as the wire
//! path.
//!
//! `pard-sweep` fans [`pard_harness::run_scenario_engine`] across
//! cores; its results are only meaningful if a sweep cell and a golden
//! scenario agree. Both runners call the gateway's one `EdgeAdmitter`,
//! so they agree on admission by construction; these tests drive three
//! golden scenarios — a chain with canaries (`steady_tm`, so the
//! edge-rejection path is exercised), a DAG (`dag_split_merge`) and the
//! adaptive interference run (`interference_adaptive`, so the floor
//! moves mid-run) — through both and assert the **full per-request
//! outcome vectors** — labels, ids, and latencies — are identical, not
//! just the taxonomy rollup.

use pard_harness::robustness::{adaptive_config, interference_scenario};
use pard_harness::{
    golden_path, run_scenario, run_scenario_engine, OutcomeTaxonomy, Scenario, ScenarioRun, SloMix,
    TraceSpec,
};
use pard_obs::{FloorCause, ObsEvent, ObsKind};
use pard_pipeline::AppKind;
use pard_policies::SystemKind;

/// The `steady_tm` golden scenario, verbatim from the shipped suite.
fn steady_tm() -> Scenario {
    Scenario::new(
        "steady_tm",
        AppKind::Tm,
        TraceSpec::Constant {
            rate: 120.0,
            len_s: 25,
        },
    )
    .with_slo(SloMix {
        default_ms: None,
        tight_every: 10,
    })
}

/// The `dag_split_merge` golden scenario, verbatim from the shipped
/// suite: admission charges the critical downstream path of `da`.
fn dag_split_merge() -> Scenario {
    Scenario::new(
        "dag_split_merge",
        AppKind::Da,
        TraceSpec::Constant {
            rate: 55.0,
            len_s: 25,
        },
    )
    .with_workers(vec![1, 1, 1, 1])
    .with_slo(SloMix {
        default_ms: None,
        tight_every: 12,
    })
}

/// The run's recorded edge decisions, in order: `(t_us, id, kind)` —
/// the id, the Eq. 3 inputs and the verdict of every request.
fn edge_decisions(run: &ScenarioRun) -> Vec<ObsEvent> {
    let recorder = run.recorder.as_ref().expect("sim engines record");
    let events = recorder.dump();
    assert_eq!(
        recorder.emitted(),
        events.len() as u64,
        "the ring must retain the whole run for the comparison to mean anything"
    );
    events
        .into_iter()
        .filter(|event| matches!(event.kind, ObsKind::EdgeDecision { .. }))
        .collect()
}

/// The run's floor movements, in order, as `(module, cause)`.
fn floor_adjustments(run: &ScenarioRun) -> Vec<(u16, FloorCause)> {
    let recorder = run.recorder.as_ref().expect("sim engines record");
    recorder
        .dump()
        .into_iter()
        .filter_map(|event| match event.kind {
            ObsKind::FloorAdjust { module, cause, .. } => Some((module, cause)),
            _ => None,
        })
        .collect()
}

#[test]
fn engine_path_matches_wire_path_on_a_golden_scenario() {
    let adaptive =
        interference_scenario("interference_adaptive").with_adaptive_config(adaptive_config());
    for scenario in [steady_tm(), dag_split_merge(), adaptive] {
        let name = &scenario.name;
        let wire = run_scenario(&scenario);
        let engine = run_scenario_engine(&scenario);
        assert_eq!(
            wire.outcomes, engine.outcomes,
            "{name}: socketless replay diverged from the wire replay"
        );
        assert_eq!(wire.taxonomy, engine.taxonomy, "{name}");
        // And both agree with the checked-in golden.
        let golden = std::fs::read_to_string(golden_path(name)).expect("golden exists");
        let golden = OutcomeTaxonomy::from_json(&golden).expect("golden parses");
        assert_eq!(engine.taxonomy, golden, "{name}");

        // The flight records agree on every edge decision: same ids,
        // same Eq. 3 inputs, same verdicts, at the same virtual times.
        let decisions = edge_decisions(&engine);
        assert_eq!(decisions.len(), engine.outcomes.len(), "{name}");
        assert_eq!(edge_decisions(&wire), decisions, "{name}");
        if scenario.adaptive.is_some() {
            // The floor moved, and moved the same way. Only `(module,
            // cause)` is compared: the estimator folds event by event,
            // so *which* movements happen is a function of the
            // schedule, but the wire path's wall-clock refresh poller
            // may run the fold between two arrivals, and a movement's
            // stamp (`t_us`, `sub_us`) and its position among the
            // other events then belong to that earlier fold.
            let moves = floor_adjustments(&engine);
            assert!(!moves.is_empty(), "{name}: the storm must move the floor");
            assert_eq!(floor_adjustments(&wire), moves, "{name}");
        }
    }
}

#[test]
fn engine_path_is_bit_reproducible_and_policy_aware() {
    // Two runs of the same cell must compare equal on the outcome
    // vector (the sweep's determinism unit), and the policy axis must
    // actually change behaviour — Naive admits everything at the edge,
    // so its canaries become violations instead of edge rejections.
    let scenario = steady_tm();
    let first = run_scenario_engine(&scenario);
    let second = run_scenario_engine(&scenario);
    assert_eq!(first.outcomes, second.outcomes);

    // The policy axis only shows under pressure — an underloaded PARD
    // pipeline has nothing to drop — so probe it at ~3× capacity.
    let overloaded = |name: &str| {
        Scenario::new(
            name,
            AppKind::Tm,
            TraceSpec::Constant {
                rate: 400.0,
                len_s: 8,
            },
        )
    };
    let pard = run_scenario_engine(&overloaded("probe_pard"));
    let naive = run_scenario_engine(&overloaded("probe_naive").with_policy(SystemKind::Naive));
    assert_ne!(
        naive.taxonomy.phases, pard.taxonomy.phases,
        "selecting the Naive worker policy must change behaviour under overload"
    );
    // Naive never drops inside the pipeline; PARD sheds load there to
    // protect the requests it keeps.
    assert_eq!(naive.taxonomy.total().dropped_pipeline, 0);
    assert!(
        pard.taxonomy.total().dropped_pipeline > 0,
        "{:?}",
        pard.taxonomy.total()
    );
}

#[test]
fn disabled_recorder_does_not_change_outcomes() {
    // The sweep disables the flight recorder per cell (it is ~65k
    // eagerly allocated slots of pure observability); recording must
    // never feed back into behaviour.
    let scenario = steady_tm();
    let (trace, events) = pard_harness::build_schedule(&scenario);
    let with_recorder = pard_harness::run_schedule_engine(
        &scenario,
        pard_harness::build_sim_engine(&scenario, None),
        &events,
        trace.duration(),
    );
    let without = pard_harness::run_schedule_engine(
        &scenario,
        pard_harness::build_sim_engine(&scenario, Some(0)),
        &events,
        trace.duration(),
    );
    assert!(with_recorder.recorder.is_some());
    assert!(without.recorder.is_none());
    assert_eq!(with_recorder.outcomes, without.outcomes);
}
