//! End-to-end tests of the cluster engine.

use pard_cluster::{run, ClusterConfig, FaultSpec, RunResult};
use pard_core::PardConfig;
use pard_metrics::{DropReason, Outcome};
use pard_pipeline::AppKind;
use pard_policies::{make_factory, OcConfig, SystemKind};
use pard_profile::zoo;
use pard_sim::{MarkovParams, SimDuration, SimTime};
use pard_workload::{constant, tweet, RateTrace};

fn exec_estimates(app: AppKind) -> Vec<f64> {
    let spec = app.pipeline();
    let profiles: Vec<_> = spec
        .modules
        .iter()
        .map(|m| zoo::by_name(&m.name).unwrap())
        .collect();
    let plan = pard_profile::plan_batches(&profiles, spec.slo, 2.0);
    profiles
        .iter()
        .zip(&plan.batch_sizes)
        .map(|(p, &b)| p.latency_ms(b))
        .collect()
}

fn run_system(
    app: AppKind,
    kind: SystemKind,
    trace: &RateTrace,
    config: ClusterConfig,
) -> pard_cluster::RunResult {
    let spec = app.pipeline();
    let factory = make_factory(kind, &spec, &exec_estimates(app), OcConfig::default());
    run(&spec, trace, factory, config).expect("builtin models are in the zoo")
}

/// Fast-sim config: fewer Monte-Carlo draws keep tests snappy.
fn test_config() -> ClusterConfig {
    ClusterConfig::default().with_pard(PardConfig::default().with_mc_draws(1_500))
}

#[test]
fn light_load_completes_everything_within_slo() {
    let trace = constant(40.0, 30);
    let result = run_system(AppKind::Tm, SystemKind::Pard, &trace, test_config());
    let log = &result.log;
    assert!(log.len() > 1_000, "arrivals {}", log.len());
    assert_eq!(result.unfinished, 0, "requests left in flight");
    let drop_rate = log.drop_rate();
    assert!(drop_rate < 0.01, "drop rate {drop_rate} under light load");
    let goodput = log.goodput_count() as f64 / log.len() as f64;
    assert!(goodput > 0.99, "goodput fraction {goodput}");
}

#[test]
fn stage_timestamps_follow_fig5_ordering() {
    let trace = constant(60.0, 20);
    let result = run_system(AppKind::Lv, SystemKind::Pard, &trace, test_config());
    let mut checked = 0;
    for r in result.log.records() {
        for s in &r.stages {
            assert!(r.sent <= s.arrived, "t_s <= t_r");
            assert!(s.arrived <= s.batched, "t_r <= t_b");
            assert!(s.batched <= s.exec_start, "t_b <= t_e");
            assert!(s.exec_start < s.exec_end, "t_e < end");
            assert!(s.batch_size >= 1);
            checked += 1;
        }
        if let Outcome::Completed { finished } = r.outcome {
            // Stages traverse the chain in order.
            let modules: Vec<usize> = r.stages.iter().map(|s| s.module).collect();
            assert_eq!(modules, vec![0, 1, 2, 3, 4]);
            assert_eq!(finished, r.stages.last().unwrap().exec_end);
        }
    }
    assert!(checked > 5_000, "stages checked: {checked}");
}

#[test]
fn conservation_all_requests_accounted() {
    let trace = constant(120.0, 20);
    for kind in [SystemKind::Pard, SystemKind::Nexus, SystemKind::Naive] {
        let result = run_system(AppKind::Tm, kind, &trace, test_config());
        assert_eq!(
            result.unfinished, 0,
            "{:?}: unfinished requests remain",
            kind
        );
        let log = &result.log;
        let completed = log
            .records()
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
            .count();
        let dropped = log
            .records()
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Dropped { .. }))
            .count();
        assert_eq!(completed + dropped, log.len(), "{:?}", kind);
    }
}

#[test]
fn same_seed_is_deterministic() {
    let trace = tweet(60, 5);
    let a = run_system(AppKind::Tm, SystemKind::Pard, &trace, test_config());
    let b = run_system(AppKind::Tm, SystemKind::Pard, &trace, test_config());
    assert_eq!(a.log.len(), b.log.len());
    assert_eq!(a.log.goodput_count(), b.log.goodput_count());
    assert_eq!(a.log.drop_count(), b.log.drop_count());
    assert_eq!(a.sync_bytes, b.sync_bytes);
    // Per-request outcomes are identical, not just aggregates.
    for (ra, rb) in a.log.records().iter().zip(b.log.records()) {
        assert_eq!(ra.outcome, rb.outcome);
        assert_eq!(ra.stages.len(), rb.stages.len());
    }
}

#[test]
fn different_seed_changes_arrivals() {
    let trace = constant(80.0, 10);
    let a = run_system(AppKind::Tm, SystemKind::Pard, &trace, test_config());
    let b = run_system(
        AppKind::Tm,
        SystemKind::Pard,
        &trace,
        test_config().with_seed(99),
    );
    assert_ne!(a.log.len(), b.log.len());
}

#[test]
fn overload_pard_beats_naive_goodput() {
    // One worker per module, offered load ~2x a worker's capacity:
    // dropping is mandatory for goodput.
    let spec_len = AppKind::Tm.pipeline().len();
    let config = test_config().with_fixed_workers(vec![1; spec_len]);
    let trace = constant(350.0, 40);
    let pard = run_system(AppKind::Tm, SystemKind::Pard, &trace, config.clone());
    let naive = run_system(AppKind::Tm, SystemKind::Naive, &trace, config);
    let pard_goodput = pard.log.goodput_count();
    let naive_goodput = naive.log.goodput_count();
    assert!(
        pard_goodput as f64 > 1.5 * naive_goodput as f64,
        "PARD {pard_goodput} vs Naive {naive_goodput}"
    );
    // Naive completes everything but mostly late.
    assert!(
        naive.log.drop_rate() > 0.3,
        "naive {}",
        naive.log.drop_rate()
    );
}

#[test]
fn dag_pipeline_merges_branches() {
    let trace = constant(50.0, 20);
    let result = run_system(AppKind::Da, SystemKind::Pard, &trace, test_config());
    assert_eq!(result.unfinished, 0);
    let mut full_traversals = 0;
    for r in result.log.records() {
        if matches!(r.outcome, Outcome::Completed { .. }) {
            let mut modules: Vec<usize> = r.stages.iter().map(|s| s.module).collect();
            modules.sort_unstable();
            // All four modules execute exactly once: split 0 -> {1, 2} -> 3.
            assert_eq!(modules, vec![0, 1, 2, 3]);
            // The merge module starts only after both branches finish.
            let merge = r.stages.iter().find(|s| s.module == 3).unwrap();
            for branch in r.stages.iter().filter(|s| s.module == 1 || s.module == 2) {
                assert!(branch.exec_end <= merge.arrived);
            }
            full_traversals += 1;
        }
    }
    assert!(full_traversals > 500, "traversals {full_traversals}");
}

#[test]
fn dag_drop_cancels_sibling_branch() {
    // Overload the DAG pipeline so drops occur at branch modules.
    let config = test_config().with_fixed_workers(vec![1; 4]);
    let trace = constant(400.0, 30);
    let result = run_system(AppKind::Da, SystemKind::Pard, &trace, config);
    assert_eq!(result.unfinished, 0);
    // A dropped request must never execute the merge module afterwards.
    for r in result.log.records() {
        if let Outcome::Dropped { at, .. } = r.outcome {
            for s in &r.stages {
                if s.module == 3 {
                    assert!(
                        s.exec_start <= at,
                        "merge executed after the request was dropped"
                    );
                }
            }
        }
    }
    assert!(result.log.drop_count() > 100);
}

#[test]
fn autoscaling_adds_workers_on_burst() {
    let mut rates = vec![50.0; 20];
    rates.extend(vec![400.0; 30]);
    let trace = RateTrace::new(rates);
    let result = run_system(AppKind::Tm, SystemKind::Pard, &trace, test_config());
    let initial: usize = pard_cluster::initial_workers(
        &AppKind::Tm.pipeline(),
        &AppKind::Tm
            .pipeline()
            .modules
            .iter()
            .map(|m| zoo::by_name(&m.name).unwrap())
            .collect::<Vec<_>>(),
        &trace,
        &test_config(),
    )
    .iter()
    .sum();
    assert!(
        result.peak_workers > initial,
        "peak {} should exceed initial {initial}",
        result.peak_workers
    );
}

#[test]
fn worker_crash_drops_executing_batch_and_recovers() {
    let config = ClusterConfig {
        faults: vec![FaultSpec::WorkerCrash {
            module: 0,
            worker: 0,
            at: SimTime::from_secs(10),
        }],
        ..test_config()
    };
    let trace = constant(100.0, 30);
    let result = run_system(AppKind::Tm, SystemKind::Pard, &trace, config);
    assert_eq!(result.unfinished, 0);
    let failed = result
        .log
        .drop_reasons()
        .iter()
        .find(|(r, _)| *r == DropReason::WorkerFailed)
        .map(|&(_, c)| c)
        .unwrap_or(0);
    assert!(failed >= 1, "crash produced no WorkerFailed drops");
    // The system keeps serving after the crash.
    let after: usize = result
        .log
        .records()
        .iter()
        .filter(|r| r.sent > SimTime::from_secs(15) && r.is_goodput())
        .count();
    assert!(after > 500, "goodput after crash: {after}");
}

#[test]
fn slow_worker_degrades_then_recovers() {
    let config = ClusterConfig {
        faults: vec![FaultSpec::SlowWorker {
            module: 0,
            worker: 0,
            factor: 8.0,
            from: SimTime::from_secs(8),
            until: SimTime::from_secs(16),
        }],
        ..test_config()
    };
    let trace = constant(100.0, 30);
    let result = run_system(AppKind::Tm, SystemKind::Pard, &trace, config);
    assert_eq!(result.unfinished, 0);
    // Late-phase requests (after recovery) complete fine.
    let late_ok = result
        .log
        .records()
        .iter()
        .filter(|r| r.sent > SimTime::from_secs(20) && r.is_goodput())
        .count();
    assert!(late_ok > 500, "late goodput {late_ok}");
}

#[test]
fn slow_worker_window_boundaries_are_exact() {
    // The degradation multiplier applies to batches *started* in
    // `[from, until)` — onset and recovery land exactly on the fault's
    // timestamps. Jitter is disabled and module 0 has a single worker,
    // so every module-0 batch duration is exactly `latency(b)` scaled
    // (or not) by the fault factor, measurable from the stage records.
    let factor = 4.0;
    let (from, until) = (SimTime::from_secs(8), SimTime::from_secs(16));
    let spec_len = AppKind::Tm.pipeline().len();
    let config = ClusterConfig {
        faults: vec![FaultSpec::SlowWorker {
            module: 0,
            worker: 0,
            factor,
            from,
            until,
        }],
        exec_jitter_sigma: 0.0,
        ..test_config().with_fixed_workers(vec![1; spec_len])
    };
    let trace = constant(60.0, 30);
    let result = run_system(AppKind::Tm, SystemKind::Pard, &trace, config);
    let profile = zoo::by_name(&AppKind::Tm.pipeline().modules[0].name).unwrap();
    let (mut before, mut during, mut after) = (0usize, 0usize, 0usize);
    for r in result.log.records() {
        for s in r.stages.iter().filter(|s| s.module == 0) {
            let nominal = profile.latency(s.batch_size);
            let actual = s.exec_end.saturating_since(s.exec_start);
            let expected = if s.exec_start >= from && s.exec_start < until {
                during += 1;
                nominal.mul_f64(factor)
            } else {
                if s.exec_start < from {
                    before += 1;
                } else {
                    after += 1;
                }
                nominal
            };
            // mul_f64 rounds to whole microseconds; nothing else may
            // perturb the duration.
            assert_eq!(
                actual, expected,
                "batch at {:?} (batch {}): {actual:?} != {expected:?}",
                s.exec_start, s.batch_size
            );
        }
    }
    assert!(
        before > 100 && during > 20 && after > 100,
        "all three regimes must be exercised: {before}/{during}/{after}"
    );
}

#[test]
fn sync_traffic_stays_within_paper_bound() {
    let trace = constant(60.0, 30);
    let result = run_system(AppKind::Lv, SystemKind::Pard, &trace, test_config());
    // §5.4: a worker exchanges its module's compact state once per sync
    // period, < 3.2 kbps. One snapshot per second must encode to fewer
    // than 400 bytes; the recorded total must match the broadcast model
    // (each of the 5 controllers sends its state to the 4 others, every
    // second of the 30 s trace — sync stops at the horizon).
    let per_state = pard_core::ModuleState {
        wait_sample_ms: vec![0.0; 64],
        ..pard_core::ModuleState::empty(0)
    }
    .encoded_size_bytes();
    assert!(
        per_state * 8 < 3_200,
        "snapshot {per_state} B exceeds 3.2 kbps"
    );
    let ticks_min = 30u64;
    let expected_min = ticks_min * 5 * 4 * (per_state as u64 - 64 * 4); // digests may be partial early on
    assert!(
        result.sync_bytes >= expected_min,
        "sync bytes {} below model minimum {expected_min}",
        result.sync_bytes
    );
    let ticks_max = 41u64;
    let expected_max = ticks_max * 5 * 4 * per_state as u64;
    assert!(
        result.sync_bytes <= expected_max,
        "sync bytes {} above model maximum {expected_max}",
        result.sync_bytes
    );
}

#[test]
fn priority_log_tracks_modes() {
    let trace = constant(60.0, 15);
    let result = run_system(AppKind::Tm, SystemKind::Pard, &trace, test_config());
    assert!(!result.priority_log.is_empty());
    // PARD exposes a priority mode; all samples have load factor >= 0.
    for s in &result.priority_log {
        assert!(s.load_factor >= 0.0);
        assert!(s.epsilon >= 0.0);
    }
    assert!(result.priority_log.iter().any(|s| s.mode.is_some()));
}

#[test]
fn dynamic_paths_take_one_branch_and_raise_drops() {
    // §5.2: request-specific dynamic paths amplify latency uncertainty.
    let trace = constant(300.0, 60);
    let static_cfg = test_config();
    let dynamic_cfg = ClusterConfig {
        dynamic_paths: true,
        ..test_config()
    };
    let static_run = run_system(AppKind::Da, SystemKind::Pard, &trace, static_cfg);
    let dynamic_run = run_system(AppKind::Da, SystemKind::Pard, &trace, dynamic_cfg);
    // Dynamic requests execute exactly one of the two branch modules.
    let mut pose = 0usize;
    let mut face = 0usize;
    for r in dynamic_run.log.records() {
        if matches!(r.outcome, Outcome::Completed { .. }) {
            let ms: Vec<usize> = r.stages.iter().map(|s| s.module).collect();
            let has_pose = ms.contains(&1);
            let has_face = ms.contains(&2);
            assert!(has_pose ^ has_face, "exactly one branch: {ms:?}");
            pose += usize::from(has_pose);
            face += usize::from(has_face);
        }
    }
    assert!(
        pose > 100 && face > 100,
        "both branches used: {pose}/{face}"
    );
    // The estimator assumes the max-latency path, so dynamic routing
    // mis-estimates; the paper reports drop rates rising 0.05x-0.21x.
    // Our check is directional with slack for the lighter per-branch load.
    assert!(
        dynamic_run.log.drop_rate() <= static_run.log.drop_rate() + 0.15,
        "dynamic {} vs static {}",
        dynamic_run.log.drop_rate(),
        static_run.log.drop_rate()
    );
    assert_eq!(dynamic_run.unfinished, 0);
}

#[test]
fn scale_down_drains_workers_without_losing_requests() {
    // High load then a long quiet tail: autoscaling must retire workers
    // and every request must still be classified.
    let mut rates = vec![400.0; 15];
    rates.extend(vec![25.0; 45]);
    let trace = RateTrace::new(rates);
    let result = run_system(AppKind::Tm, SystemKind::Pard, &trace, test_config());
    assert_eq!(result.unfinished, 0);
    // Requests sent in the quiet tail still complete fine.
    let tail_good = result
        .log
        .records()
        .iter()
        .filter(|r| r.sent > SimTime::from_secs(25) && r.is_goodput())
        .count();
    let tail_total = result
        .log
        .records()
        .iter()
        .filter(|r| r.sent > SimTime::from_secs(25))
        .count();
    assert!(
        tail_good as f64 > 0.95 * tail_total as f64,
        "tail goodput {tail_good}/{tail_total}"
    );
}

/// FNV-1a over every record of `result`'s log (id, send time, deadline,
/// every stage's timestamps, outcome) and every Fig. 13 telemetry sample.
fn outcome_digest(result: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in result.log.records() {
        mix(r.id);
        mix(r.sent.as_micros());
        mix(r.deadline.as_micros());
        for s in &r.stages {
            for x in [
                s.module as u64,
                s.worker as u64,
                s.arrived.as_micros(),
                s.batched.as_micros(),
                s.exec_start.as_micros(),
                s.exec_end.as_micros(),
                s.batch_size as u64,
                s.gpu_share.as_micros(),
            ] {
                mix(x);
            }
        }
        match r.outcome {
            Outcome::InFlight => mix(u64::MAX),
            Outcome::Completed { finished } => mix(finished.as_micros()),
            Outcome::Dropped { module, at, reason } => {
                mix(module as u64);
                mix(at.as_micros());
                mix(reason.index() as u64);
            }
        }
    }
    for s in &result.priority_log {
        mix(s.t.as_micros());
        mix(s.module as u64);
        mix(s.load_factor.to_bits());
        mix(s.epsilon.to_bits());
        mix(s.mode.map_or(u64::MAX, |m| m as u64));
    }
    h
}

/// Calm, a burst the autoscaler cannot absorb at once, calm again.
fn burst_trace() -> RateTrace {
    let mut rates = vec![150.0; 10];
    rates.extend(vec![420.0; 8]);
    rates.extend(vec![150.0; 6]);
    RateTrace::new(rates)
}

/// Outcome digests of `run`, recorded while arrivals were still
/// pre-scheduled on the event heap: any change to the order events are
/// processed in, or to what a handler does with them, moves one.
#[test]
fn outcome_digests_are_pinned() {
    let trace = burst_trace();
    let mut cells: Vec<(String, RunResult)> = Vec::new();
    let systems = SystemKind::BASELINES
        .iter()
        .map(|&kind| (AppKind::Lv, kind))
        .chain(
            SystemKind::BASELINES
                .iter()
                .map(|&kind| (AppKind::Da, kind)),
        )
        .chain([
            (AppKind::Lv, SystemKind::PardWcl),
            (AppKind::Lv, SystemKind::PardBack),
        ]);
    for (app, kind) in systems {
        let name = format!("{}/{}", app.name(), kind.name());
        cells.push((name, run_system(app, kind, &trace, test_config())));
    }
    let faulted = ClusterConfig {
        faults: vec![
            FaultSpec::WorkerCrash {
                module: 0,
                worker: 0,
                at: SimTime::from_secs(6),
            },
            FaultSpec::SlowWorker {
                module: 1,
                worker: 0,
                factor: 3.0,
                from: SimTime::from_secs(4),
                until: SimTime::from_secs(12),
            },
            FaultSpec::InterferenceMarkov {
                module: 2,
                worker: 0,
                markov: MarkovParams {
                    calm: 1.0,
                    contended: 1.7,
                    p_enter: 0.25,
                    p_exit: 0.15,
                },
                period: SimDuration::from_millis(500),
                from: SimTime::from_secs(8),
                until: SimTime::from_secs(20),
            },
        ],
        ..test_config().with_fixed_workers(vec![2, 2, 2])
    };
    cells.push((
        "tm/PARD faults".into(),
        run_system(AppKind::Tm, SystemKind::Pard, &trace, faulted),
    ));
    let dynamic = ClusterConfig {
        dynamic_paths: true,
        ..test_config()
    };
    assert!(dynamic.autoscale);
    cells.push((
        "da/PARD autoscale+dynamic".into(),
        run_system(AppKind::Da, SystemKind::Pard, &trace, dynamic),
    ));

    let expected: [(&str, u64); 12] = [
        ("lv/PARD", 0x8ad6291df4783885),
        ("lv/Nexus", 0x2eacd5212f323292),
        ("lv/Clipper++", 0x8b363c5213e56c97),
        ("lv/Naive", 0xc052e7c960e49bf4),
        ("da/PARD", 0xaf7ae079a2bc422d),
        ("da/Nexus", 0x087d817a8404d61b),
        ("da/Clipper++", 0xe31c9616025f75a2),
        ("da/Naive", 0x73cb5c6eedb73fcd),
        ("lv/PARD-WCL", 0x317596f36f62ec5c),
        ("lv/PARD-back", 0x61cd3512e97d32a9),
        ("tm/PARD faults", 0x3f393548e0e79ee0),
        ("da/PARD autoscale+dynamic", 0xd35ff5441c1f242a),
    ];
    let got: Vec<(&str, u64)> = cells
        .iter()
        .map(|(name, result)| (name.as_str(), outcome_digest(result)))
        .collect();
    for (name, result) in &cells {
        assert_eq!(result.unfinished, 0, "{name}: requests left in flight");
        assert!(
            result.log.drop_count() > 0 || name.ends_with("Naive"),
            "{name}: no drops"
        );
    }
    assert_eq!(got, expected, "actual: {got:#x?}");
}
