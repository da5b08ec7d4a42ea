//! [`EngineHandle`] over the stepped discrete-event simulator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use parking_lot::Mutex;

use pard_cluster::{EdgeState, SimServer, TerminalEvent};
use pard_metrics::ServedTotals;
use pard_obs::FlightRecorder;
use pard_pipeline::PipelineSpec;
use pard_sim::{SimDuration, SimTime};

use crate::handle::{Completion, EngineHandle, RequestId, SubmitSpec};

/// Events processed per [`EngineHandle::pump`] call — bounds how long
/// the simulator lock is held while other threads want to submit.
const PUMP_CHUNK: usize = 512;

struct Inner {
    server: SimServer,
    /// Caller tags by request id, echoed in completions.
    tags: HashMap<u64, u64>,
    sink: Option<Sender<Completion>>,
}

impl Inner {
    fn deliver(&mut self, terminals: Vec<TerminalEvent>) {
        for t in terminals {
            let tag = self.tags.remove(&t.id).unwrap_or(0);
            if let Some(sink) = self.sink.as_ref() {
                let completion = Completion {
                    id: t.id,
                    tag,
                    sent: t.sent,
                    deadline: t.deadline,
                    outcome: t.outcome,
                };
                if sink.send(completion).is_err() {
                    self.sink = None;
                }
            }
        }
    }
}

/// The simulated engine behind the unified API: a [`SimServer`] under a
/// mutex, with virtual time advanced by [`EngineHandle::pump`] calls
/// from the front-end's pump thread.
///
/// # Determinism
///
/// The virtual clock is frozen whenever no request is unresolved, so a
/// **closed-loop** driver (each request submitted only after the
/// previous one resolved — e.g. one connection, one outstanding call)
/// sees outcomes that are a pure function of the submit sequence and
/// the seed, reproducible across runs. Under free-running pipelined or
/// multi-connection traffic, submits race the pump thread's progress
/// through the event queue, so virtual arrival times (and therefore
/// borderline admission decisions) can vary with wall-clock
/// interleaving. **Scheduled replay** closes that gap: a driver that
/// calls [`EngineHandle::advance_to`] with each request's scheduled
/// arrival time before submitting pins every arrival to the schedule
/// and gates the pump thread, making even deeply pipelined replays
/// bit-reproducible (see [`pard_cluster::SimServer::advance_to`]).
pub struct SimEngine {
    // The spec lives outside the lock so `spec()` can hand out a plain
    // reference.
    spec: PipelineSpec,
    /// Lock-free shadow of the stepped clock, refreshed before the
    /// engine lock is released by every time-moving operation.
    /// [`EngineHandle::now`] runs on a serving front-end's per-request
    /// admission path, where contending with a pump thread that is
    /// mid-way through an event batch would serialise every reader;
    /// the shadow makes it one atomic load. Scheduled replay stays
    /// exact: `advance_to(t)` publishes `t` before returning, and the
    /// clock gate keeps the pump from moving time past the last
    /// scheduled arrival, so the stamp a replayed request observes is
    /// still a pure function of the schedule.
    now_us: AtomicU64,
    /// Flight recorder shared with the wrapped server's world; handed
    /// out by [`EngineHandle::telemetry`] so front-ends can add edge
    /// events and dump the combined stream. `None` when recording was
    /// disabled at build time ([`SimEngine::with_recorder_capacity`]
    /// with capacity 0) — the default ring is ~65k slots of eager
    /// allocation, which dominates engine setup for short-lived
    /// engines like parallel sweep cells.
    recorder: Option<Arc<FlightRecorder>>,
    inner: Mutex<Inner>,
}

impl SimEngine {
    /// Wraps a stepped simulation server; lifecycle events are
    /// recorded into a fresh default-capacity [`FlightRecorder`].
    pub fn new(server: SimServer) -> SimEngine {
        SimEngine::with_recorder_capacity(server, FlightRecorder::DEFAULT_CAPACITY)
    }

    /// Wraps a stepped simulation server with an explicitly sized
    /// flight-recorder ring; `capacity == 0` disables recording
    /// entirely ([`EngineHandle::telemetry`] returns `None` and no
    /// lifecycle events are buffered).
    pub fn with_recorder_capacity(mut server: SimServer, capacity: usize) -> SimEngine {
        let recorder = (capacity > 0).then(|| Arc::new(FlightRecorder::with_capacity(capacity)));
        if let Some(recorder) = &recorder {
            server.set_recorder(Arc::clone(recorder));
        }
        SimEngine {
            spec: server.spec().clone(),
            now_us: AtomicU64::new(server.now().as_micros()),
            recorder,
            inner: Mutex::new(Inner {
                server,
                tags: HashMap::new(),
                sink: None,
            }),
        }
    }

    /// Request records the simulator holds right now: the id span from
    /// its oldest unresolved request to its newest submit, whatever the
    /// number it has served (see [`SimServer::resident`]).
    pub fn resident(&self) -> usize {
        self.inner.lock().server.resident()
    }

    /// When the simulator's next queued event is due (see
    /// [`SimServer::next_event`]).
    pub(crate) fn next_event(&self) -> Option<SimTime> {
        self.inner.lock().server.next_event()
    }

    /// Publishes the server's clock to the lock-free shadow; call with
    /// the inner lock held, after any operation that may move time.
    fn publish_now(&self, inner: &Inner) {
        self.now_us
            .store(inner.server.now().as_micros(), Ordering::Release);
    }
}

impl EngineHandle for SimEngine {
    fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us.load(Ordering::Acquire))
    }

    fn submit(&self, spec: SubmitSpec) -> RequestId {
        let mut inner = self.inner.lock();
        match spec.at {
            // Scheduled replay: pin the clock (and the gate) to the
            // arrival in the same critical section as the submit.
            Some(at) => {
                let terminals = inner.server.advance_to(at);
                inner.deliver(terminals);
            }
            // Ordinary traffic releases any replay gate: its events lie
            // beyond the last scheduled arrival and would otherwise
            // never be processed.
            None => inner.server.clear_gate(),
        }
        let id = inner.server.submit(spec.slo);
        if spec.tag != 0 {
            inner.tags.insert(id, spec.tag);
        }
        self.publish_now(&inner);
        id
    }

    fn edge_state(&self) -> EdgeState {
        self.inner.lock().server.edge_state()
    }

    fn set_completion_sink(&self, sink: Sender<Completion>) {
        self.inner.lock().sink = Some(sink);
    }

    fn stepped(&self) -> bool {
        true
    }

    fn pump(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.server.unresolved() == 0 {
            return false;
        }
        let (processed, terminals) = inner.server.pump(PUMP_CHUNK);
        let progressed = processed > 0 || !terminals.is_empty();
        inner.deliver(terminals);
        self.publish_now(&inner);
        progressed
    }

    fn advance_to(&self, t: SimTime) -> bool {
        let mut inner = self.inner.lock();
        let terminals = inner.server.advance_to(t);
        inner.deliver(terminals);
        self.publish_now(&inner);
        true
    }

    fn drain(&self, limit: SimDuration) -> ServedTotals {
        let mut inner = self.inner.lock();
        let terminals = inner.server.drain(limit);
        inner.deliver(terminals);
        inner.sink = None;
        self.publish_now(&inner);
        inner.server.totals()
    }

    fn telemetry(&self) -> Option<Arc<FlightRecorder>> {
        self.recorder.clone()
    }
}
