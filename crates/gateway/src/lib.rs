//! Networked serving front-end for PARD engines.
//!
//! The paper's goodput argument (§4, Eq. 3) pays off most when the drop
//! decision happens *before* a request consumes any pipeline resources.
//! This crate moves that decision to the serving edge: a multi-threaded
//! TCP gateway serves any [`pard_engine_api::EngineHandle`] — the
//! simulated cluster on a wall-paced or a stepped clock, built by
//! [`pard_engine_api::EngineBuilder`] — behind a versioned
//! newline-delimited JSON protocol ([`wire`], v2) and runs PARD's
//! proactive check ([`admission`], built on
//! [`pard_core::DecisionInputs::at_edge`]) at accept time, so a request
//! that cannot meet its deadline is refused without ever touching a
//! worker queue. A `/metrics` endpoint exports the
//! [`pard_metrics::ServingCounters`] family plus live queue-depth
//! gauges in the Prometheus text format.
//!
//! [`client::Client`] is the typed blocking client every in-tree
//! consumer shares — the load generator ([`loadgen`]), the e2e tests,
//! and the quickstart example all speak the wire protocol through it.
//! The load generator replays [`pard_workload`] arrival traces over
//! real sockets — open-loop on schedule, or closed-loop with one
//! outstanding request per connection — and reports goodput and
//! latency quantiles.
//!
//! Two binaries expose the pair on the command line:
//!
//! ```sh
//! cargo run --release --bin pard-gateway  -- --app tm --backend sim --addr 127.0.0.1:7311
//! cargo run --release --bin pard-loadgen -- --addr 127.0.0.1:7311 --mode open --rate 120 --duration 10
//! ```

pub mod adaptive;
pub mod admission;
pub mod client;
pub mod loadgen;
pub mod netpoll;
pub mod pending;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use adaptive::{AdaptiveConfig, AdaptiveState, FloorAdjustment};
pub use admission::{
    Admission, AdmissionFloor, AdmitPermit, EdgeAdmitter, EdgePublisher, EdgeSnapshot, EdgeTrace,
    SnapshotReader, EDGE_ID_BASE,
};
pub use client::{Answer, CallSpec, Client, Drained, RetryPolicy};
pub use loadgen::{LoadMode, LoadgenConfig, LoadgenReport, Pace};
pub use pending::PendingMap;
pub use server::{AppConfig, Gateway, GatewayConfig, RateLimit};
pub use telemetry::RttWindow;
pub use wire::{ErrorCode, Reply, Request, Response, ServerError, WireError, WireOutcome};
