//! Discrete-event cluster simulator for PARD inference pipelines.
//!
//! This crate substitutes the paper's 16-machine / 64-GPU testbed
//! (§5.1) with a deterministic discrete-event model that preserves the
//! dynamics the dropping policies react to: dynamic batching with the
//! collect-during-execution loop of Fig. 3b, per-module queueing,
//! dispatcher load balancing, controller state synchronisation with one
//! period of staleness, autoscaling with model cold starts, DAG
//! split/merge semantics, and fault injection.
//!
//! Entry point: [`engine::run`] (or [`engine::run_with_profiles`]),
//! producing a [`engine::RunResult`] whose
//! [`RequestLog`](pard_metrics::RequestLog) feeds every figure of the
//! evaluation.

pub mod config;
pub mod engine;
pub mod request;
pub mod serve;
pub mod worker;

pub use config::{ClusterConfig, FaultSpec};
pub use engine::{
    initial_workers, resolve_profiles, run, run_with_profiles, Event, PrioritySample, RunResult,
    UnknownModelError,
};
pub use request::{InFlight, ReqStatus, RequestTable};
pub use serve::{EdgeState, SimServer, TerminalEvent};
pub use worker::{BatchEntry, Worker, WorkerState};
