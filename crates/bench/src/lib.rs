//! Shared experiment harness for the figure/table reproduction binaries.
//!
//! Every `src/bin/figNN_*.rs` binary drives the cluster simulator through
//! this harness and prints paper-style tables (via
//! [`pard_metrics::Table`]), most with the paper's numbers beside the
//! measured ones. Nothing stores or checks the output: rerun a binary to
//! see its numbers.

use pard_cluster::{resolve_profiles, run, ClusterConfig, RunResult, UnknownModelError};
use pard_core::PardConfig;
use pard_pipeline::{AppKind, PipelineSpec};
use pard_policies::{make_factory, OcConfig, SystemKind};
use pard_profile::plan_batches;
use pard_sim::SimDuration;
use pard_workload::{RateTrace, TraceKind};

/// Default trace length used by the full-run experiments (the paper's
/// traces span 1000–1350 s; Fig. 10 plots up to 1200 s).
pub const TRACE_LEN_S: usize = 1200;

/// Default master seed for every experiment.
pub const SEED: u64 = 42;

/// One workload: an application pipeline driven by a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Workload {
    /// The application pipeline.
    pub app: AppKind,
    /// The request-rate trace.
    pub trace: TraceKind,
}

impl Workload {
    /// All 12 workloads of the paper (4 apps × 3 traces).
    pub fn all() -> Vec<Workload> {
        let mut out = Vec::with_capacity(12);
        for &trace in &TraceKind::ALL {
            for &app in &AppKind::ALL {
                out.push(Workload { app, trace });
            }
        }
        out
    }

    /// Display name like `lv-tweet`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.app.name(), self.trace.name())
    }

    /// Builds the trace at the default length and seed.
    pub fn build_trace(&self) -> RateTrace {
        self.trace.build(TRACE_LEN_S, SEED)
    }

    /// The paper's flagship workload for motivation/ablation studies.
    pub fn lv_tweet() -> Workload {
        Workload {
            app: AppKind::Lv,
            trace: TraceKind::Tweet,
        }
    }
}

/// Per-module execution-duration estimates (ms) at the planned batch
/// sizes — the inputs static-split policies divide the SLO by.
pub fn exec_estimates(spec: &PipelineSpec, headroom: f64) -> Result<Vec<f64>, UnknownModelError> {
    let profiles = resolve_profiles(spec)?;
    let plan = plan_batches(&profiles, spec.slo, headroom);
    Ok(profiles
        .iter()
        .zip(&plan.batch_sizes)
        .map(|(p, &b)| p.latency_ms(b))
        .collect())
}

/// Unwraps an experiment result, exiting with a clean diagnostic (no
/// panic/backtrace) when a pipeline references a model the zoo does
/// not know — the error path [`pard_cluster::run`] reports.
pub fn must<T>(result: Result<T, UnknownModelError>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The OC baseline's tuned thresholds per trace (§5.3 footnote 8).
pub fn oc_config(trace: TraceKind) -> OcConfig {
    OcConfig {
        threshold: match trace {
            TraceKind::Wiki => SimDuration::from_millis(20),
            TraceKind::Tweet | TraceKind::Azure => SimDuration::from_millis(25),
        },
        alpha: 0.4,
    }
}

/// Experiment-grade cluster configuration.
///
/// Monte-Carlo draws are reduced from the paper's 10 000 to 4 000: the
/// λ-quantile of the wait distribution is already stable at that size
/// (validated against the Irwin–Hall closed form in `pard-core`) and
/// sweeps run several hundred simulations.
pub fn experiment_config(seed: u64) -> ClusterConfig {
    ClusterConfig::default()
        .with_seed(seed)
        .with_pard(PardConfig::default().with_mc_draws(4_000))
}

/// Runs `system` on `workload`'s pipeline over `trace`.
pub fn run_system(
    workload: Workload,
    system: SystemKind,
    trace: &RateTrace,
    config: ClusterConfig,
) -> Result<RunResult, UnknownModelError> {
    let spec = workload.app.pipeline();
    let exec = exec_estimates(&spec, config.headroom)?;
    let factory = make_factory(system, &spec, &exec, oc_config(workload.trace));
    run(&spec, trace, factory, config)
}

/// Runs `system` on the workload's default full trace.
pub fn run_default(workload: Workload, system: SystemKind) -> Result<RunResult, UnknownModelError> {
    let trace = workload.build_trace();
    run_system(workload, system, &trace, experiment_config(SEED))
}

/// Runs on the burst window of the workload's trace (the red-boxed
/// regions of Fig. 10) — where dropping policy differences concentrate.
pub fn run_burst_window(
    workload: Workload,
    system: SystemKind,
) -> Result<RunResult, UnknownModelError> {
    let (from, to) = workload.trace.burst_window();
    let trace = workload.build_trace().window(from, to);
    run_system(workload, system, &trace, experiment_config(SEED))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_workloads() {
        let all = Workload::all();
        assert_eq!(all.len(), 12);
        let mut names: Vec<String> = all.iter().map(|w| w.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
        assert_eq!(Workload::lv_tweet().name(), "lv-tweet");
    }

    #[test]
    fn exec_estimates_are_positive() {
        for app in AppKind::ALL {
            let spec = app.pipeline();
            let exec = exec_estimates(&spec, 2.0).expect("builtin models in zoo");
            assert_eq!(exec.len(), spec.modules.len());
            assert!(exec.iter().all(|&d| d > 0.0));
        }
    }

    #[test]
    fn unknown_models_surface_as_errors() {
        let spec = PipelineSpec::chain(
            "ghost",
            SimDuration::from_millis(400),
            &["no-such-model", "object-detection"],
        );
        let e = exec_estimates(&spec, 2.0).unwrap_err();
        assert_eq!(e.module, "no-such-model");
    }

    #[test]
    fn oc_thresholds_follow_paper() {
        assert_eq!(
            oc_config(TraceKind::Wiki).threshold,
            SimDuration::from_millis(20)
        );
        assert_eq!(
            oc_config(TraceKind::Azure).threshold,
            SimDuration::from_millis(25)
        );
    }
}
