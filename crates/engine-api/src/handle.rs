//! The [`EngineHandle`] trait: what a serving front-end needs from an
//! engine, and nothing else.

use std::sync::mpsc::Sender;
use std::sync::Arc;

use pard_cluster::EdgeState;
use pard_metrics::{Outcome, ServedTotals};
use pard_obs::FlightRecorder;
use pard_pipeline::PipelineSpec;
use pard_sim::{SimDuration, SimTime};

/// Engine-assigned request identifier, unique for the lifetime of the
/// engine. Travels on the wire as a JSON number, so engines keep ids
/// within f64's exact-integer range.
pub type RequestId = u64;

/// Terminal-state notification delivered to the completion sink the
/// moment a request resolves (completes or is dropped).
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The id [`EngineHandle::submit`] returned.
    pub id: RequestId,
    /// The caller tag from [`SubmitSpec`].
    pub tag: u64,
    /// Virtual submit time.
    pub sent: SimTime,
    /// Absolute virtual deadline.
    pub deadline: SimTime,
    /// Terminal outcome (never [`Outcome::InFlight`]).
    pub outcome: Outcome,
}

impl Completion {
    /// Whether the request completed within its SLO.
    pub fn within_slo(&self) -> bool {
        matches!(self.outcome, Outcome::Completed { finished } if finished <= self.deadline)
    }

    /// End-to-end latency for completed requests.
    pub fn latency(&self) -> Option<SimDuration> {
        match self.outcome {
            Outcome::Completed { finished } => Some(finished.saturating_since(self.sent)),
            _ => None,
        }
    }
}

/// Per-request submission parameters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitSpec {
    /// End-to-end latency budget; the pipeline's SLO when `None`.
    pub slo: Option<SimDuration>,
    /// Opaque caller tag echoed back verbatim in the [`Completion`].
    pub tag: u64,
    /// Scheduled virtual arrival for deterministic replay: a stepped
    /// engine advances its clock to this instant (gating background
    /// pumping) before stamping the request. `None` marks ordinary
    /// traffic and *releases* any replay gate — otherwise one replay
    /// interaction would leave the clock gated and starve every later
    /// plain request, whose events always lie beyond the gate. The
    /// wall-paced engine stamps every request at wall-clock time and
    /// ignores the field.
    pub at: Option<SimTime>,
}

impl SubmitSpec {
    /// Overrides the per-request SLO.
    pub fn with_slo(mut self, slo: SimDuration) -> SubmitSpec {
        self.slo = Some(slo);
        self
    }

    /// Sets the caller tag.
    pub fn with_tag(mut self, tag: u64) -> SubmitSpec {
        self.tag = tag;
        self
    }

    /// Sets the scheduled virtual arrival (deterministic replay).
    pub fn with_at(mut self, at: SimTime) -> SubmitSpec {
        self.at = Some(at);
        self
    }
}

/// A running PARD serving engine, simulated or live.
///
/// All methods take `&self`: a handle is shared across a front-end's
/// threads (readers submit, a poller snapshots edge state, a pump
/// thread drives simulated time). Implementations are internally
/// synchronised.
pub trait EngineHandle: Send + Sync {
    /// The pipeline specification being served.
    fn spec(&self) -> &PipelineSpec;

    /// Current virtual time. The wall-paced engine reads it off the
    /// scaled wall clock; the stepped engine freezes it while idle.
    fn now(&self) -> SimTime;

    /// Submits one request; returns its id. The terminal state arrives
    /// on the completion sink.
    fn submit(&self, spec: SubmitSpec) -> RequestId;

    /// Snapshot of the state edge admission control needs.
    fn edge_state(&self) -> EdgeState;

    /// Registers the channel that receives a [`Completion`] the moment
    /// any request resolves. Replaces a previously registered sink.
    ///
    /// Who sends, and when, follows [`EngineHandle::stepped`], and a
    /// front-end may build on it. A stepped engine sends only from
    /// inside a driving call ([`EngineHandle::submit`],
    /// [`EngineHandle::pump`], [`EngineHandle::advance_to`],
    /// [`EngineHandle::drain`]), on the caller's thread, before the
    /// call returns: the caller can empty the channel right after the
    /// call, and no thread has to wait on it. A self-driving engine
    /// also sends from a thread of its own whenever its clock resolves
    /// work, so its receiver needs a thread blocked on it.
    fn set_completion_sink(&self, sink: Sender<Completion>);

    /// Whether this engine's virtual time only advances when driven
    /// ([`EngineHandle::pump`] / [`EngineHandle::advance_to`]). Live
    /// engines are self-driving and return `false`; front-ends use
    /// this to tell "stalled because nothing drives the clock past the
    /// gate" from "still working" during drains, and to decide who
    /// reads the completion sink (see
    /// [`EngineHandle::set_completion_sink`]).
    fn stepped(&self) -> bool {
        false
    }

    /// Drives engines whose virtual time does not advance on its own
    /// (the stepped simulator). Returns whether any progress was made —
    /// `false` means the caller may idle briefly. Live engines are
    /// self-driving and always return `false`.
    fn pump(&self) -> bool {
        false
    }

    /// Moves virtual time to exactly `t` for engines with a stepped
    /// clock, processing every due event on the way (completions reach
    /// the sink) — the scheduled-replay primitive: a driver replaying a
    /// known arrival schedule advances to each arrival time before
    /// submitting, which also gates background pumping so outcomes are
    /// a pure function of the schedule and the seed (see
    /// [`pard_cluster::SimServer::advance_to`]). Calls must use
    /// non-decreasing `t`. Returns `false` on engines whose clock
    /// cannot be steered (the wall-paced engine), which ignore the call.
    fn advance_to(&self, _t: SimTime) -> bool {
        false
    }

    /// Resolves in-flight requests (bounded by `limit` of virtual
    /// time), stops the engine, drops the completion sink, and returns
    /// what it served: how many requests were submitted, how many
    /// completed within their SLO, how many count as dropped — what a
    /// full [`pard_metrics::RequestLog`] would answer to `len`,
    /// `goodput_count` and `drop_count`, with requests the limit left
    /// unresolved counted in `requests` only.
    ///
    /// Totals, not a log: a serving engine answers each request once,
    /// on the completion sink, and is free to forget it afterwards —
    /// both shipped engines do, which is what keeps a long-lived
    /// server's memory at its in-flight span (see
    /// [`pard_cluster::SimServer`]). A caller that wants per-request
    /// records reads the sink or [`EngineHandle::telemetry`]; the
    /// trace-driven [`pard_cluster::run`] still returns a full log.
    ///
    /// Call it once, last. A repeated call resolves nothing further
    /// and reports the same totals again.
    fn drain(&self, limit: SimDuration) -> ServedTotals;

    /// The engine's flight recorder, if it records lifecycle events.
    ///
    /// Both shipped engines (stepped and wall-paced) record by default
    /// with the same event vocabulary and clocks, so a front-end can expose one
    /// `/flightrecord` endpoint — and a harness can explain a diverging
    /// golden — without caring which engine is behind the handle. The
    /// front-end also records its *edge* events (admission decisions
    /// with their Eq. 3 inputs) into the same ring, keeping one
    /// time-ordered stream per engine.
    fn telemetry(&self) -> Option<Arc<FlightRecorder>> {
        None
    }
}
