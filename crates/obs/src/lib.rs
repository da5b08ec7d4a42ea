//! Observability layer: per-request flight recording and periodic
//! engine telemetry, both off the serving hot path.
//!
//! PARD's contribution is a *decision* — proactively dropping requests
//! the pipeline cannot finish in time (Eq. 3) — and counters alone
//! cannot explain an individual decision after the fact. This crate
//! provides the two data paths that can:
//!
//! * [`FlightRecorder`] — a fixed-capacity lock-free ring of
//!   [`ObsEvent`]s covering a request's whole lifecycle: the edge
//!   decision with the inputs that produced it (lead, `L_sub`, slack),
//!   the Fig. 5 per-module timestamps, drops with their
//!   [`DropReason`](pard_metrics::DropReason), merge-barrier releases,
//!   and completion. Producers reserve a slot with one atomic
//!   `fetch_add` and publish it with a per-slot seqlock; no lock, no
//!   allocation, no serialization on the recording path. JSON exists
//!   only at dump time.
//! * [`EngineFrame`] / [`FrameBus`] — periodic time-series snapshots
//!   (queue depths, worker counts, admission floor, pending depth,
//!   windowed goodput/violation/drop rates, RTT quantiles) published
//!   as epoch-stamped immutable `Arc`s, the same discipline as the
//!   gateway's admission snapshots. Subscribers that fall behind skip
//!   to the latest frame; they can never block the sampler.
//!
//! Both ends are engine-agnostic: the live and the stepped backend
//! emit the same events with the same clocks, so a dump from a golden
//! scenario and a dump from a production socket read identically.

mod event;
mod frame;
mod ring;

pub use event::{FloorCause, ObsEvent, ObsKind};
pub use frame::{EngineFrame, FrameBus};
pub use ring::FlightRecorder;
