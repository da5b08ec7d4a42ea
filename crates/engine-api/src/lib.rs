//! One typed front door over the PARD serving engine.
//!
//! There is one executor of the paper's serving semantics: the
//! discrete-event cluster ([`pard_cluster`]). What differs between a
//! reproducible replay and live serving is only who moves its virtual
//! clock, and that is what a [`Backend`] picks:
//!
//! * [`Backend::Sim`] — the DES behind a stepped virtual clock
//!   ([`SimEngine`] over [`pard_cluster::SimServer`]): time advances
//!   only while submitted requests are unresolved, so a closed-loop
//!   socket-driven run (one outstanding request at a time) is
//!   bit-reproducible from the submit order and the seed; see
//!   [`SimEngine`] for the exact determinism contract.
//! * [`Backend::Live`] — the same DES on a wall-clock pacer
//!   ([`PacedEngine`]): virtual time is scaled wall time, requests are
//!   stamped when they arrive, and a worker forms a batch only once it
//!   is idle ([`pard_cluster::SimServer::wall_paced`]).
//!
//! [`EngineHandle`] is the unified surface a serving front-end drives:
//! submit, edge-state snapshots, completion delivery, a virtual clock,
//! and a draining shutdown that yields the engine's
//! [`pard_metrics::ServedTotals`]. [`EngineBuilder`] constructs either
//! from a [`PipelineSpec`](pard_pipeline::PipelineSpec). Swapping a
//! gateway, load generator, or test between the two is a one-line
//! change of [`Backend`].

pub mod builder;
pub mod handle;
pub mod paced;
pub mod sim;

pub use builder::{Backend, EngineBuilder, EngineError};
pub use handle::{Completion, EngineHandle, RequestId, SubmitSpec};
pub use paced::{LiveConfig, PacedEngine};
pub use sim::SimEngine;

// The concrete types the unified API traffics in, re-exported so
// front-ends need only this crate.
pub use pard_cluster::{ClusterConfig, EdgeState, FaultSpec, SimServer};
