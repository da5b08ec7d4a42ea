//! One typed front door over both PARD serving engines.
//!
//! The workspace grows two executions of the same serving semantics: the
//! deterministic discrete-event simulator ([`pard_cluster`]) and the
//! live threaded runtime ([`pard_runtime`]). PARD's goodput claim (Eq. 3
//! proactive dropping) must hold identically on both, but until this
//! crate they exposed unrelated APIs, so every front-end hand-rolled one
//! side and nothing could cross-check them.
//!
//! [`EngineHandle`] is the unified surface a serving front-end drives:
//! submit, edge-state snapshots, completion delivery, a virtual clock,
//! and a draining shutdown that yields the engine's
//! [`pard_metrics::ServedTotals`]. [`EngineBuilder`] constructs either
//! implementation from a [`PipelineSpec`](pard_pipeline::PipelineSpec):
//!
//! * [`Backend::Live`] — the threaded [`LiveCluster`] with sleep
//!   backends profiled from the model zoo; wall-clock (optionally
//!   compressed) virtual time.
//! * [`Backend::Sim`] — the DES behind a stepped virtual clock
//!   ([`pard_cluster::SimServer`]): time advances only while submitted
//!   requests are unresolved, so a closed-loop socket-driven run (one
//!   outstanding request at a time) is bit-reproducible from the
//!   submit order and the seed; see [`SimEngine`] for the exact
//!   determinism contract.
//!
//! Swapping a gateway, load generator, or test between a simulated and a
//! live pipeline is a one-line change of [`Backend`].

pub mod builder;
pub mod handle;
pub mod live;
pub mod sim;

pub use builder::{Backend, EngineBuilder, EngineError};
pub use handle::{EngineHandle, RequestId, SubmitSpec};
pub use live::LiveEngine;
pub use sim::SimEngine;

// The concrete types the unified API traffics in, re-exported so
// front-ends need only this crate.
pub use pard_cluster::{ClusterConfig, FaultSpec, SimServer};
pub use pard_runtime::{Completion, EdgeState, LiveCluster, LiveConfig};
