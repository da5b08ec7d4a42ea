//! The two workloads with no socket in them: `des_fig08_slice` (the
//! trace-driven cluster simulator every paper figure comes from) and
//! `sweep_tm_grid` (the socketless engine path fanned over threads).
//! They bypass everything the gateway workloads measure.

use std::io;
use std::sync::Mutex;
use std::time::Instant;

use pard_cluster::{resolve_profiles, ClusterConfig, RunResult as ClusterRun};
use pard_core::PardConfig;
use pard_metrics::{Outcome, RequestLog};
use pard_pipeline::{AppKind, PipelineSpec};
use pard_policies::{make_factory, OcConfig, SystemKind};
use pard_profile::plan_batches;
use pard_sweep::{run_sweep, CellRecord, SweepSpec};
use pard_workload::RateTrace;

use crate::child::sample_proc;
use crate::gen::{Fnv, Rng};
use crate::report::{Measured, RunResult, Slice, Values};
use crate::stats::{median, quantile};
use crate::Ctx;

/// Simulated seconds per cluster run: twice 40 s calm, then a 20 s
/// burst the autoscaler cannot absorb. Eight runs take about 1.3 s of
/// wall time. (A milder burst, 220 req/s × 2.2, leaves PARD and Nexus
/// within two points of each other on da, either way round depending on
/// the seed.)
const DES_TRACE_S: usize = 120;
/// The simulator's own seed, fixed as the figure binaries fix theirs:
/// `--seed` moves the trace, and PARD's goodput over ten traces then
/// stays within a point (within three when both seeds move).
const DES_CLUSTER_SEED: u64 = 42;
const DES_CALM_RPS: f64 = 300.0;
const DES_BURST_FACTOR: f64 = 2.0;
const DES_APPS: [AppKind; 2] = [AppKind::Lv, AppKind::Da];

/// The benchmark's own bursty per-second rate envelope: the burst
/// profile with ±5% seeded jitter on every second.
pub fn des_trace(seed: u64, len_s: usize) -> RateTrace {
    let mut rng = Rng::new(seed);
    RateTrace::new(
        (0..len_s)
            .map(|t| {
                let burst = if t % 60 >= 40 { DES_BURST_FACTOR } else { 1.0 };
                DES_CALM_RPS * burst * (0.95 + 0.10 * rng.unit())
            })
            .collect(),
    )
}

fn trace_digest(trace: &RateTrace) -> u64 {
    let mut fnv = Fnv::new();
    for rate in trace.rates() {
        fnv.u64(rate.to_bits());
    }
    fnv.0
}

/// One trace-driven cluster run of `system` on `spec`, configured as
/// the figure binaries configure theirs (4 000 Monte-Carlo draws).
fn cluster_run(spec: &PipelineSpec, system: SystemKind, trace: &RateTrace) -> ClusterRun {
    let config = ClusterConfig::default()
        .with_seed(DES_CLUSTER_SEED)
        .with_pard(PardConfig::default().with_mc_draws(4_000));
    let profiles = resolve_profiles(spec).expect("builtin models are in the zoo");
    let plan = plan_batches(&profiles, spec.slo, config.headroom);
    let exec_ms: Vec<f64> = profiles
        .iter()
        .zip(&plan.batch_sizes)
        .map(|(p, &b)| p.latency_ms(b))
        .collect();
    let factory = make_factory(system, spec, &exec_ms, OcConfig::default());
    pard_cluster::run(spec, trace, factory, config).expect("builtin models are in the zoo")
}

/// Virtual-time facts of PARD's request logs, for the per-layer list.
fn push_log_layers(values: &mut Values, runs: &[&ClusterRun]) {
    let (mut queue, mut wait, mut exec) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requests, mut dropped, mut dropped_first) = (0u64, 0u64, 0u64);
    for run in runs {
        let (q, w, d) = run.log.latency_components_ms();
        queue.extend(q);
        wait.extend(w);
        exec.extend(d);
        for record in run.log.records() {
            requests += 1;
            if record.is_dropped() {
                dropped += 1;
                dropped_first += (record.drop_module() == Some(0)) as u64;
            }
        }
    }
    values.push("cluster.queue_wait_ms_p50", median(&mut queue));
    values.push("cluster.batch_wait_ms_p50", median(&mut wait));
    values.push("cluster.exec_ms_p50", median(&mut exec));
    values.push("cluster.drop_frac", dropped as f64 / requests.max(1) as f64);
    values.push(
        "cluster.drop_at_first_module_frac",
        dropped_first as f64 / dropped.max(1) as f64,
    );
    values.push(
        "cluster.peak_workers",
        runs.iter().map(|r| r.peak_workers).max().unwrap_or(0) as f64,
    );
    values.push(
        "cluster.sync_bytes_per_req",
        runs.iter().map(|r| r.sync_bytes).sum::<u64>() as f64 / requests.max(1) as f64,
    );
}

const RUN_REQ_NS: [&str; 4] = [
    "cluster.run_req_ns.pard",
    "cluster.run_req_ns.nexus",
    "cluster.run_req_ns.clipper",
    "cluster.run_req_ns.naive",
];

/// Times one cluster run per baseline system and, in a traced pass,
/// pushes each one's wall nanoseconds per simulated arrival. Returns the
/// runs in [`SystemKind::BASELINES`] order.
fn timed_baselines(
    mut values: Option<&mut Values>,
    spec: &PipelineSpec,
    trace: &RateTrace,
) -> Vec<ClusterRun> {
    SystemKind::BASELINES
        .into_iter()
        .zip(RUN_REQ_NS)
        .map(|(system, name)| {
            let started = Instant::now();
            let run = cluster_run(spec, system, trace);
            let req_ns = started.elapsed().as_nanos() as f64 / run.log.len().max(1) as f64;
            if let Some(values) = values.as_deref_mut() {
                values.push(name, req_ns);
            }
            run
        })
        .collect()
}

fn log_digest(fnv: &mut Fnv, log: &RequestLog) {
    for record in log.records() {
        match record.outcome {
            Outcome::Completed { finished } => fnv.u64(finished.as_micros()),
            Outcome::Dropped { module, at, .. } => {
                fnv.u64(module as u64);
                fnv.u64(at.as_micros());
            }
            Outcome::InFlight => fnv.u64(u64::MAX),
        }
    }
}

/// What one pass over an in-process workload's input measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_us: u64,
    requests: u64,
    ok: u64,
    /// PARD's requests (the goodput denominator).
    pard_requests: u64,
    failed: u64,
    rtt_p50_us: Option<f64>,
    digest: u64,
    problems: Vec<String>,
}

/// Repeats `pass` (its own set-up, then the same deterministic work)
/// until `ctx.seconds` of timed work have been measured: nothing carries
/// over from one pass to the next, so the passes are the slices of one
/// window. A traced run collects per-layer detail in every other pass.
/// Peak memory is taken once over the whole run, because a process's
/// high-water mark hardly moves after the first pass. The caller records
/// what comes back.
fn run_passes(
    ctx: &Ctx,
    workload: &'static str,
    input_digest: u64,
    mut pass: impl FnMut(bool, &mut Values) -> Pass,
) -> io::Result<(RunResult, Measured)> {
    let mut run = RunResult::new(workload, ctx, input_digest);
    let hwm_before = sample_proc("self")?.hwm_bytes;
    let (mut setup_s, mut slices) = (Vec::new(), Vec::new());
    let (mut timed_s, mut requests, mut failed) = (0.0, 0, 0);
    let last = loop {
        let traced = ctx.traced && slices.len() % 2 == 0;
        let mut done = pass(traced, &mut run.values);
        timed_s += done.wall_s;
        requests += done.requests;
        failed += done.failed;
        run.problems.append(&mut done.problems);
        run.fold_digest(done.digest);
        setup_s.push(done.setup_s);
        slices.push(Slice {
            wall_s: done.wall_s,
            requests: done.requests,
            cpu_us: done.cpu_us,
            traced,
        });
        if timed_s >= ctx.seconds && (!ctx.traced || slices.len() >= 2) {
            break done;
        }
    };
    let grown = sample_proc("self")?.hwm_bytes.saturating_sub(hwm_before);
    let measured = Measured {
        setup_s,
        slices,
        attempted: requests,
        failed,
        goodput_frac: last.ok as f64 / last.pard_requests.max(1) as f64,
        rtt_p50_us: last.rtt_p50_us,
        rss_bytes_per_req: grown as f64 / last.requests.max(1) as f64,
    };
    Ok((run, measured))
}

pub fn des_fig08_slice(ctx: &Ctx) -> io::Result<RunResult> {
    let input_digest = trace_digest(&des_trace(ctx.seed, DES_TRACE_S));
    let (mut run, measured) =
        run_passes(ctx, "des_fig08_slice", input_digest, |traced, values| {
            let started = Instant::now();
            let trace = des_trace(ctx.seed, DES_TRACE_S);
            let specs = DES_APPS.map(AppKind::pipeline);
            // Warm-up: one short PARD run touches every code path once.
            cluster_run(&specs[0], SystemKind::Pard, &des_trace(ctx.seed, 20));
            let setup_s = started.elapsed().as_secs_f64();

            let cpu_before = sample_proc("self").map_or(0, |s| s.cpu_us());
            let timed = Instant::now();
            let per_app: Vec<Vec<ClusterRun>> = specs
                .iter()
                .map(|spec| timed_baselines(traced.then_some(&mut *values), spec, &trace))
                .collect();
            let wall_s = timed.elapsed().as_secs_f64();
            let cpu_us = sample_proc("self").map_or(0, |s| s.cpu_us()) - cpu_before;

            let mut it = Pass {
                setup_s,
                wall_s,
                cpu_us,
                requests: 0,
                ok: 0,
                pard_requests: 0,
                failed: 0,
                rtt_p50_us: None,
                digest: 0,
                problems: Vec::new(),
            };
            let mut fnv = Fnv::new();
            let mut latencies = Vec::new();
            // The paper's wasted computation: GPU time PARD spent on
            // requests it later dropped, over all the GPU time it spent.
            let (mut wasted_us, mut gpu_us) = (0u64, 0u64);
            for (app, runs) in DES_APPS.iter().zip(&per_app) {
                let goodput =
                    |run: &ClusterRun| run.log.goodput_count() as f64 / run.log.len().max(1) as f64;
                for (system, run) in SystemKind::BASELINES.iter().zip(runs) {
                    it.requests += run.log.len() as u64;
                    it.failed += run.unfinished as u64;
                    log_digest(&mut fnv, &run.log);
                    if goodput(run) > goodput(&runs[0]) {
                        it.problems.push(format!(
                            "{}: {} goodput {:.4} beats PARD's {:.4}",
                            app.name(),
                            system.name(),
                            goodput(run),
                            goodput(&runs[0])
                        ));
                    }
                }
                let pard = &runs[0];
                it.ok += pard.log.goodput_count() as u64;
                it.pard_requests += pard.log.len() as u64;
                for record in pard.log.records() {
                    let time = record.gpu_time().as_micros();
                    gpu_us += time;
                    wasted_us += if record.is_dropped() { time } else { 0 };
                }
                latencies.extend(
                    pard.log
                        .records()
                        .iter()
                        .filter_map(|r| r.latency())
                        .map(|l| l.as_micros() as f64),
                );
            }
            it.digest = fnv.0;
            it.rtt_p50_us = quantile(&mut latencies, 0.50);
            values.push("invalid_frac", wasted_us as f64 / gpu_us.max(1) as f64);
            if traced {
                let pard: Vec<&ClusterRun> = per_app.iter().map(|runs| &runs[0]).collect();
                push_log_layers(values, &pard);
            }
            it
        })?;
    run.record(measured);
    Ok(run)
}

/// The grid `sweep_tm_grid` runs, with its seed axis replaced by values
/// derived from the benchmark's seed.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::from_json(include_str!("../workloads/sweep_tm_grid.json"))
        .expect("workloads/sweep_tm_grid.json is a valid sweep spec");
    for (i, slot) in spec.seeds.iter_mut().enumerate() {
        *slot = seed.wrapping_mul(1_000).wrapping_add(i as u64) % (1 << 52);
    }
    spec
}

fn records_digest(records: &[CellRecord]) -> u64 {
    let mut fnv = Fnv::new();
    for record in records {
        fnv.bytes(record.to_json_line().as_bytes());
    }
    fnv.0
}

/// PARD must not lose to Naive on any cell Naive itself shows to be
/// overloaded (goodput under 0.8).
fn check_pard_beats_naive(records: &[CellRecord], problems: &mut Vec<String>) {
    let same_cell = |a: &CellRecord, b: &CellRecord| {
        a.workers == b.workers
            && a.trace == b.trace
            && a.slo_default_ms == b.slo_default_ms
            && a.slo_tight_every == b.slo_tight_every
            && a.seed == b.seed
    };
    for naive in records
        .iter()
        .filter(|r| r.policy == "Naive" && r.goodput < 0.8)
    {
        for pard in records
            .iter()
            .filter(|r| r.policy == "PARD" && same_cell(r, naive))
        {
            if pard.goodput < naive.goodput {
                problems.push(format!(
                    "cell {}: PARD goodput {:.4} below Naive's {:.4} (cell {})",
                    pard.cell, pard.goodput, naive.goodput, naive.cell
                ));
            }
        }
    }
}

pub fn sweep_tm_grid(ctx: &Ctx) -> io::Result<RunResult> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = sweep_spec(ctx.seed);
    // The single-thread pass comes first, on a fresh heap: it is the
    // reference the parallel records must equal bit for bit, the base of
    // `sweep.parallel_efficiency`, and, because one thread allocates in
    // the same order every time, what peak memory is taken over (at
    // `nproc` threads the peak depends on which cells overlap).
    let hwm_before = sample_proc("self")?.hwm_bytes;
    let started = Instant::now();
    let reference = run_sweep(&spec, 1, |_| {});
    let serial_s = started.elapsed().as_secs_f64();
    let grown = sample_proc("self")?.hwm_bytes.saturating_sub(hwm_before);
    let input_digest = {
        let mut fnv = Fnv::new();
        fnv.bytes(include_str!("../workloads/sweep_tm_grid.json").as_bytes());
        spec.seeds.iter().for_each(|&s| fnv.u64(s));
        fnv.0
    };
    let mut parallel_s = Vec::new();
    let (mut run, mut measured) =
        run_passes(ctx, "sweep_tm_grid", input_digest, |traced, values| {
            let started = Instant::now();
            let spec = sweep_spec(ctx.seed);
            // Warm-up: every policy, allocation and SLO mix once, on the
            // lightest trace and the first seed.
            let mut warm = spec.clone();
            warm.traces.truncate(1);
            warm.seeds.truncate(1);
            run_sweep(&warm, 1, |_| {});
            let setup_s = started.elapsed().as_secs_f64();

            let cpu_before = sample_proc("self").map_or(0, |s| s.cpu_us());
            let timed = Instant::now();
            // A worker runs its cells back to back, so a cell took the time
            // since the same thread's previous completion.
            let last_done: Mutex<Vec<(std::thread::ThreadId, Instant)>> = Mutex::new(Vec::new());
            let cell_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
            let records = run_sweep(&spec, threads, |_| {
                if traced {
                    let (me, now) = (std::thread::current().id(), Instant::now());
                    let mut last = last_done.lock().expect("no panic under this lock");
                    let since = match last.iter_mut().find(|(id, _)| *id == me) {
                        Some((_, at)) => std::mem::replace(at, now),
                        None => {
                            last.push((me, now));
                            timed
                        }
                    };
                    cell_ms
                        .lock()
                        .expect("no panic under this lock")
                        .push((now - since).as_secs_f64() * 1e3);
                }
            });
            let wall_s = timed.elapsed().as_secs_f64();
            let cpu_us = sample_proc("self").map_or(0, |s| s.cpu_us()) - cpu_before;
            parallel_s.push(wall_s);

            let mut problems = Vec::new();
            check_pard_beats_naive(&records, &mut problems);
            let pard: Vec<&CellRecord> = records.iter().filter(|r| r.policy == "PARD").collect();
            let total = |f: fn(&pard_harness::PhaseCounts) -> u64| {
                pard.iter().map(|r| f(&r.taxonomy.total())).sum::<u64>()
            };
            if traced {
                let mut cell_ms = cell_ms.into_inner().expect("no panic under this lock");
                values.push("sweep.cell_ms_p50", quantile(&mut cell_ms, 0.50));
                values.push("sweep.cell_ms_p99", quantile(&mut cell_ms, 0.99));
            }
            Pass {
                setup_s,
                wall_s,
                cpu_us,
                requests: records.iter().map(|r| r.requests).sum(),
                ok: total(|t| t.ok),
                pard_requests: total(|t| t.sent),
                failed: records.iter().map(|r| r.taxonomy.total().unanswered).sum(),
                // A cell record keeps quantiles, not samples: the mean over
                // PARD's cells is the smoothest summary of them.
                rtt_p50_us: Some(
                    pard.iter().map(|r| r.latency_p50_us).sum::<f64>() / pard.len().max(1) as f64,
                ),
                digest: records_digest(&records),
                problems,
            }
        })?;
    let requests: u64 = reference.iter().map(|r| r.requests).sum();
    measured.rss_bytes_per_req = grown as f64 / requests.max(1) as f64;
    run.record(measured);
    // Every parallel pass had the same digest.
    if Some(records_digest(&reference)) != run.outcome_digest {
        run.problems.push(format!(
            "records at {threads} threads differ from the records at 1 thread"
        ));
    }
    if ctx.traced {
        let parallel = median(&mut parallel_s).unwrap_or(f64::NAN);
        run.values.push(
            "sweep.parallel_efficiency",
            serial_s / (threads as f64 * parallel),
        );
    }
    Ok(run)
}
