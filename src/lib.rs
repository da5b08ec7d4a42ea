//! # PARD — proactive request dropping for inference pipelines
//!
//! A from-scratch Rust reproduction of *"PARD: Enhancing Goodput for
//! Inference Pipeline via ProActive Request Dropping"* (EuroSys '26).
//!
//! Multi-model inference pipelines serve requests under end-to-end
//! latency SLOs; a request that finishes late is worthless, and under
//! bursts some requests *must* be dropped so the rest can make it. PARD
//! drops **proactively** — estimating each request's end-to-end latency
//! from bi-directional runtime information before it enters a batch —
//! and chooses **which** requests to drop with an adaptive double-ended
//! priority queue (High-Budget-First under overload, Low-Budget-First
//! otherwise, with a hysteresis band against flapping).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event engine, virtual time, RNG |
//! | [`metrics`] | request lifecycle records, goodput/drop/invalid rates |
//! | [`profile`] | model zoo, batch-latency profiles, offline profiler |
//! | [`workload`] | wiki/tweet/azure trace synthesis, arrival sampling |
//! | [`pipeline`] | pipeline specs, JSON configuration, DAG utilities |
//! | [`core`] | **the contribution**: DEPQ, State Planner, Request Broker, adaptive priority |
//! | [`policies`] | Nexus, Clipper++, Naive, overload control, ablations |
//! | [`cluster`] | discrete-event cluster serving engine |
//! | [`engine_api`] | unified `EngineHandle` front door: the cluster on a stepped or a wall-paced clock |
//! | [`gateway`] | TCP serving front-end with edge admission, typed client + load generator |
//! | [`harness`] | scenario harness: golden (sim) + envelope (live) e2e suites over real sockets |
//! | [`sweep`] | parallel scenario-sweep engine + goodput/latency/cost Pareto explorer |
//! | [`rag`] | §7 RAG workflow case study |
//!
//! # Examples
//!
//! Run a pipeline under PARD and a reactive baseline and compare:
//!
//! ```
//! use pard::prelude::*;
//!
//! let spec = AppKind::Tm.pipeline();
//! let trace = pard::workload::constant(80.0, 10);
//! let exec = vec![40.0; spec.modules.len()];
//! let config = ClusterConfig::default()
//!     .with_pard(PardConfig::default().with_mc_draws(500));
//! let factory = make_factory(SystemKind::Pard, &spec, &exec, OcConfig::default());
//! let result = pard::cluster::run(&spec, &trace, factory, config)
//!     .expect("builtin models are in the zoo");
//! assert!(result.log.goodput_count() > 0);
//! ```
//!
//! Build a serving engine — simulated or live — behind the unified API:
//!
//! ```
//! use pard::prelude::*;
//!
//! let engine = EngineBuilder::for_app(AppKind::Tm)
//!     .build(Backend::Sim(ClusterConfig::default()))
//!     .expect("builtin models are in the zoo");
//! assert_eq!(engine.spec().name, "tm");
//! ```

pub use pard_cluster as cluster;
pub use pard_core as core;
pub use pard_engine_api as engine_api;
pub use pard_gateway as gateway;
pub use pard_harness as harness;
pub use pard_metrics as metrics;
pub use pard_obs as obs;
pub use pard_pipeline as pipeline;
pub use pard_policies as policies;
pub use pard_profile as profile;
pub use pard_rag as rag;
pub use pard_sim as sim;
pub use pard_sweep as sweep;
pub use pard_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use pard_cluster::{
        run, ClusterConfig, FaultSpec, RunResult, SimServer, UnknownModelError,
    };
    pub use pard_core::{
        Depq, OrderMode, PardConfig, PardPolicy, PardPolicyConfig, PriorityMode, ReqMeta, RuleMode,
        SubMode, WorkerPolicy,
    };
    pub use pard_engine_api::{Backend, EngineBuilder, EngineHandle, LiveConfig, SubmitSpec};
    pub use pard_gateway::{CallSpec, Client, Gateway, GatewayConfig, LoadMode, LoadgenConfig};
    pub use pard_metrics::{DropReason, Outcome, RequestLog, Table};
    pub use pard_obs::{EngineFrame, FlightRecorder, ObsEvent, ObsKind};
    pub use pard_pipeline::{AppKind, ModuleSpec, PipelineSpec};
    pub use pard_policies::{make_factory, OcConfig, SystemKind};
    pub use pard_profile::{plan_batches, ModelProfile};
    pub use pard_rag::{run_rag, RagConfig, RagPolicy, RagWorkload};
    pub use pard_sim::{DetRng, SimDuration, SimTime};
    pub use pard_sweep::{pareto_front_of, run_sweep, CellRecord, SweepSpec};
    pub use pard_workload::{RateTrace, TraceKind};
}
