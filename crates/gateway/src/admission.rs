//! PARD admission at the serving edge.
//!
//! The paper's broker evaluates Eq. 3 at batch-formation time (`t_b`),
//! inside a worker. The gateway runs the *same* decision earlier, at
//! accept time, from the coarser state a front-end can observe: the
//! per-module queue depths and the static batch plan in
//! [`pard_engine_api::EdgeState`]. A request that already cannot meet its
//! deadline under this estimate is refused before it touches a worker
//! queue — the whole point of proactive dropping, moved to where it
//! saves the most work.
//!
//! The downstream term is estimated over the pipeline's *critical
//! downstream path* (§4.2 DAG handling): the gateway enumerates every
//! entry-to-sink path once at startup
//! ([`pard_pipeline::graph::downstream_paths`]) and
//! [`pard_core::critical_path_estimate`] charges the slowest one.
//! Parallel DAG branches execute concurrently, so the chain-style sum
//! over every downstream module would double-charge a split; on a
//! chain the single path makes both formulas identical.
//!
//! The edge estimate is deliberately a *lower bound* on latency (it
//! assumes zero batch wait and charges only whole batches ahead of the
//! request). Admission therefore never rejects a servable request; the
//! in-worker broker, with its richer Monte-Carlo wait estimate, still
//! re-checks every admitted request at `t_b`.
//!
//! [`EdgeAdmitter`] owns the whole per-app sequence around that
//! decision — clock, rate limit, SLO, snapshot, adaptive fold, edge
//! ids, submit, flight record — and is the only caller of
//! [`EdgeSnapshot::decide_traced`]: the gateway's shard loop, its
//! replay coordinator, its refresh poller and the harness's socketless
//! runner all go through it, so they cannot disagree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pard_core::{
    critical_path_estimate, proactive_decision, Decision, DecisionInputs, ReqMeta, SubEstimate,
};
use pard_engine_api::{EdgeState, EngineHandle, SubmitSpec};
use pard_metrics::DropReason;
use pard_obs::{FlightRecorder, ObsEvent, ObsKind};
use pard_sim::{SimDuration, SimTime, TokenBucket};

use crate::adaptive::{AdaptiveConfig, AdaptiveState};

/// Ids for edge-rejected requests live in their own space so they can
/// never collide with engine-assigned ids (record indices, which a
/// process cannot push anywhere near 2^52). The base is kept within
/// f64's exact-integer range because wire ids travel as JSON numbers:
/// 2^52 + seq round-trips exactly for any realistic seq, where 2^63
/// would silently lose its low bits.
pub const EDGE_ID_BASE: u64 = 1 << 52;

/// The state-dependent half of the edge decision, precomputed once per
/// [`EdgeState`] snapshot: the entry module's queued-batch delay
/// ([`DecisionInputs::edge_lead`]), its execution duration, and the
/// critical-downstream-path estimate (`L_sub` of §4.2: queued-batch
/// delay plus execution, summed along each downstream path and
/// maximised over `paths`, zero batch wait). [`AdmissionFloor::decide`]
/// is then pure arithmetic on three `Copy` durations — no locks, no
/// allocation, no per-request walk over the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionFloor {
    /// Queued-batch delay ahead of an arriving request at the source.
    lead: SimDuration,
    /// Profiled execution duration of the source module.
    exec: SimDuration,
    /// Critical-downstream-path estimate (`L_sub`).
    sub: SubEstimate,
}

impl AdmissionFloor {
    /// Precomputes the floor from an edge-state snapshot. `source` is
    /// the pipeline's entry module and `paths` its downstream paths
    /// from there (both static, computed once per engine).
    pub fn compute(state: &EdgeState, source: usize, paths: &[Vec<usize>]) -> AdmissionFloor {
        let exec = SimDuration::from_millis_f64(state.exec_ms[source]);
        AdmissionFloor {
            lead: DecisionInputs::edge_lead(
                state.queue_depths[source],
                state.workers[source],
                state.batch_sizes[source],
                exec,
            ),
            exec,
            sub: critical_path_estimate(
                paths,
                &state.queue_depths,
                &state.workers,
                &state.batch_sizes,
                &state.exec_ms,
            ),
        }
    }

    /// Eq. 3 for a request arriving `now` with `deadline`.
    pub fn decide(&self, now: SimTime, deadline: SimTime) -> Decision {
        let req = ReqMeta {
            id: 0,
            sent: now,
            deadline,
            arrived: now,
        };
        let inputs = DecisionInputs::at_edge_with_lead(now, self.lead, self.exec, self.sub);
        proactive_decision(&req, &inputs)
    }

    /// [`AdmissionFloor::decide`] plus the inputs it weighed, in the
    /// units the flight recorder stores — so an observer can replay
    /// *why*: the decision drops exactly when `sub_us > slack_us`
    /// (or the slack itself has gone negative).
    pub fn decide_traced(&self, now: SimTime, deadline: SimTime) -> (Decision, EdgeTrace) {
        let budget = deadline.as_micros() as i64 - now.as_micros() as i64;
        let trace = EdgeTrace {
            lead_us: self.lead.as_micros(),
            sub_us: self.sub.total.as_micros(),
            slack_us: budget - self.lead.as_micros() as i64 - self.exec.as_micros() as i64,
        };
        (self.decide(now, deadline), trace)
    }

    /// Queued-batch delay ahead of an arriving request at the source.
    pub fn lead(&self) -> SimDuration {
        self.lead
    }

    /// Critical-downstream-path estimate (`L_sub`) total.
    pub fn sub_total(&self) -> SimDuration {
        self.sub.total
    }
}

/// The Eq. 3 inputs behind one edge decision, as recorded in the
/// flight recorder's `edge` events: the queued-batch lead at the
/// source, the downstream estimate `L_sub`, and the slack
/// `(deadline − now) − lead − exec` it was compared against (negative
/// when the budget is already consumed by the source module alone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeTrace {
    /// Queued-batch delay ahead of the request at the source (µs).
    pub lead_us: u64,
    /// Critical-downstream-path estimate total (µs).
    pub sub_us: u64,
    /// Remaining budget after the source's lead and execution (µs).
    pub slack_us: i64,
}

/// An immutable, epoch-published view of the serving state: the raw
/// [`EdgeState`] (for `/metrics` gauges) plus the precomputed
/// [`AdmissionFloor`]. Reader threads hold it through an [`Arc`]; the
/// poller publishes a fresh one per refresh tick and never mutates a
/// published snapshot.
#[derive(Clone, Debug)]
pub struct EdgeSnapshot {
    state: EdgeState,
    floor: AdmissionFloor,
}

impl EdgeSnapshot {
    /// Builds a snapshot, precomputing the admission floor.
    pub fn new(state: EdgeState, source: usize, paths: &[Vec<usize>]) -> EdgeSnapshot {
        let floor = AdmissionFloor::compute(&state, source, paths);
        EdgeSnapshot { state, floor }
    }

    /// The admission decision against this snapshot — lock-free pure
    /// arithmetic; see [`AdmissionFloor::decide`].
    #[inline]
    pub fn decide(&self, now: SimTime, deadline: SimTime) -> Decision {
        self.floor.decide(now, deadline)
    }

    /// [`EdgeSnapshot::decide`] plus the Eq. 3 inputs it weighed (see
    /// [`AdmissionFloor::decide_traced`]).
    #[inline]
    pub fn decide_traced(&self, now: SimTime, deadline: SimTime) -> (Decision, EdgeTrace) {
        self.floor.decide_traced(now, deadline)
    }

    /// The precomputed admission floor (for telemetry frames).
    pub fn floor(&self) -> &AdmissionFloor {
        &self.floor
    }

    /// The underlying edge state (for `/metrics` rendering).
    pub fn state(&self) -> &EdgeState {
        &self.state
    }
}

/// Epoch-published [`EdgeSnapshot`] slot.
///
/// The hot path must not lock or clone per request, but `std` has no
/// safe lock-free `Arc` swap (a bare `AtomicPtr` load races the
/// publisher's release of the old snapshot). The design instead splits
/// the cost by frequency: the publisher bumps an atomic **epoch** after
/// replacing the slot (a mutexed `Arc`, cloned only on refresh), and
/// every reader thread keeps its own [`SnapshotReader`] cache — one
/// `Arc` clone per *publication* it observes, not per request. The
/// per-request admission path is then a single `Acquire` load plus
/// pure arithmetic on the cached immutable snapshot; the slot mutex is
/// touched `refresh_hz × readers` times a second in the worst case,
/// independent of request rate.
pub struct EdgePublisher {
    epoch: AtomicU64,
    slot: Mutex<Arc<EdgeSnapshot>>,
}

impl EdgePublisher {
    /// Creates the publisher with an initial snapshot (epoch 0).
    pub fn new(snapshot: EdgeSnapshot) -> EdgePublisher {
        EdgePublisher {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(snapshot)),
        }
    }

    /// Publishes a fresh snapshot and bumps the epoch. Readers observe
    /// the bump (`Release`/`Acquire`) no later than their next request.
    pub fn publish(&self, snapshot: EdgeSnapshot) {
        *self.slot.lock() = Arc::new(snapshot);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The current publication epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot (an `Arc` clone under the slot lock) — for
    /// cold paths like `/metrics`; readers on the request path go
    /// through [`SnapshotReader`].
    pub fn load(&self) -> Arc<EdgeSnapshot> {
        self.slot.lock().clone()
    }
}

/// A reader thread's cached view of an [`EdgePublisher`]: revalidated
/// against the epoch with one atomic load per request, re-cloned only
/// when a new snapshot was published.
pub struct SnapshotReader {
    epoch: u64,
    snapshot: Arc<EdgeSnapshot>,
}

impl SnapshotReader {
    /// Caches the publisher's current snapshot.
    pub fn new(publisher: &EdgePublisher) -> SnapshotReader {
        SnapshotReader {
            epoch: publisher.epoch(),
            snapshot: publisher.load(),
        }
    }

    /// The freshest published snapshot. Lock-free unless the epoch
    /// moved since the last call.
    #[inline]
    pub fn current(&mut self, publisher: &EdgePublisher) -> &EdgeSnapshot {
        let epoch = publisher.epoch();
        if epoch != self.epoch {
            self.snapshot = publisher.load();
            self.epoch = epoch;
        }
        &self.snapshot
    }
}

/// One app's admission path, start to finish: everything Eq. 3 needs
/// at the serving edge (the engine, the pipeline's static shape, the
/// published snapshot, the optional adaptive re-planner and rate
/// limiter, the flight recorder, the edge-id counter) and the sequence
/// that uses it.
///
/// Admission is two steps so a front-end can put transport between
/// them: [`EdgeAdmitter::decide_now`] / [`EdgeAdmitter::decide_at`]
/// answer [`Admission`], and an admitted request's
/// [`AdmitPermit::submit`] hands it to the engine. A permit dropped
/// unsubmitted (the gateway's pending table was full) leaves no trace:
/// nothing reached the engine, nothing was recorded.
pub struct EdgeAdmitter {
    engine: Box<dyn EngineHandle>,
    /// The pipeline's entry module (static).
    source: usize,
    /// Downstream paths from the entry module to the sink (static) —
    /// the estimate charges the critical one, so parallel DAG branches
    /// are not double-counted.
    paths: Vec<Vec<usize>>,
    publisher: EdgePublisher,
    /// Online re-planner + brownout controller; `None` keeps the floor
    /// on the static profile. Snapshot rebuilds are serialized per app
    /// in the common case (one poller, or the replay gate), so the
    /// mutex is uncontended — it exists for the race between the
    /// wall-clock poller and a scheduled rebuild, where fold order
    /// must be serialized for determinism.
    adaptive: Option<Mutex<AdaptiveState>>,
    /// Per-tenant rate limiter, refilled on this engine's clock.
    limiter: Option<Mutex<TokenBucket>>,
    /// The engine's flight recorder ([`EngineHandle::telemetry`]);
    /// edge decisions go into the same ring the engine writes its
    /// lifecycle events to, so there is one time-ordered stream — the
    /// one the adaptive fold reads back.
    recorder: Option<Arc<FlightRecorder>>,
    /// Edge-rejection id counter, shared by every admitter of one
    /// front-end so edge ids stay unique across its apps.
    edge_ids: Arc<AtomicU64>,
}

/// What the edge decided for one request.
pub enum Admission<'a> {
    /// The app's token bucket was empty; no snapshot was read or built.
    RateLimited,
    /// Eq. 3 refused the request. `id` comes from the edge-id space
    /// ([`EDGE_ID_BASE`]); the decision is already in the flight record.
    Rejected {
        /// The request's edge id.
        id: u64,
        /// Why Eq. 3 refused it.
        reason: DropReason,
    },
    /// Eq. 3 admitted the request; submit it through the permit.
    Admitted(AdmitPermit<'a>),
}

/// An admitted request that has not reached the engine yet.
#[must_use = "an admitted request reaches the engine only through `submit`"]
pub struct AdmitPermit<'a> {
    admitter: &'a EdgeAdmitter,
    now: SimTime,
    slo: SimDuration,
    at: Option<SimTime>,
    trace: EdgeTrace,
}

impl AdmitPermit<'_> {
    /// Submits the request — a scheduled one with its arrival pinned,
    /// which keeps the replay gate there; a plain one releases it (see
    /// [`SubmitSpec::at`]) — records the admission with its Eq. 3
    /// inputs, and returns the engine-assigned id.
    pub fn submit(self) -> u64 {
        let id = self.admitter.engine.submit(SubmitSpec {
            slo: Some(self.slo),
            tag: 0,
            at: self.at,
        });
        self.admitter.record(self.now, id, &self.trace, None);
        id
    }
}

impl EdgeAdmitter {
    /// Takes ownership of `engine` and publishes an initial snapshot of
    /// its edge state. `edge_ids` is the counter rejections draw their
    /// ids from; admitters that share a front-end share it.
    pub fn new(
        engine: Box<dyn EngineHandle>,
        adaptive: Option<AdaptiveConfig>,
        limiter: Option<TokenBucket>,
        edge_ids: Arc<AtomicU64>,
    ) -> EdgeAdmitter {
        let source = engine.spec().source();
        let paths = pard_pipeline::graph::downstream_paths(engine.spec(), source);
        EdgeAdmitter {
            publisher: EdgePublisher::new(EdgeSnapshot::new(engine.edge_state(), source, &paths)),
            adaptive: adaptive.map(|config| Mutex::new(AdaptiveState::new(config))),
            limiter: limiter.map(Mutex::new),
            recorder: engine.telemetry(),
            source,
            paths,
            edge_ids,
            engine,
        }
    }

    /// The engine behind this app.
    pub fn engine(&self) -> &dyn EngineHandle {
        self.engine.as_ref()
    }

    /// The engine's flight recorder, if it has one.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// A per-thread cache over the published snapshot, for
    /// [`EdgeAdmitter::decide_now`].
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(&self.publisher)
    }

    /// The published snapshot — for cold paths like `/metrics`.
    pub fn published(&self) -> Arc<EdgeSnapshot> {
        self.publisher.load()
    }

    /// Rebuilds the snapshot from the engine's current state and
    /// publishes it (the refresh poller's tick).
    pub fn refresh(&self) {
        self.publisher.publish(self.fresh_snapshot());
    }

    /// Decides a request arriving now against the *published* snapshot:
    /// pure reads on shared immutable data, no lock beyond the rate
    /// limiter's (when one is configured).
    pub fn decide_now(&self, reader: &mut SnapshotReader, slo_ms: Option<u64>) -> Admission<'_> {
        let now = self.engine.now();
        if !self.acquire(now) {
            return Admission::RateLimited;
        }
        self.weigh(reader.current(&self.publisher), now, slo_ms, None)
    }

    /// Decides a scheduled request (deterministic replay): steers a
    /// stepped clock to the virtual arrival `at_us`, then runs the rate
    /// limiter and Eq. 3 against a *fresh* snapshot taken at exactly
    /// that instant, so the decision is a pure function of the
    /// schedule. Live engines ignore the advance and decide on receipt.
    pub fn decide_at(&self, at_us: u64, slo_ms: Option<u64>) -> Admission<'_> {
        let at = SimTime::from_micros(at_us);
        self.engine.advance_to(at);
        let now = self.engine.now();
        if !self.acquire(now) {
            return Admission::RateLimited;
        }
        self.weigh(&self.fresh_snapshot(), now, slo_ms, Some(at))
    }

    /// One token-bucket acquire on this app's clock; `true` when no
    /// limit is configured.
    fn acquire(&self, now: SimTime) -> bool {
        match &self.limiter {
            Some(limiter) => limiter.lock().try_acquire(now),
            None => true,
        }
    }

    /// Eq. 3 for a request arriving `now` with the SLO the request
    /// carries (or the pipeline's default), against `snapshot`.
    fn weigh(
        &self,
        snapshot: &EdgeSnapshot,
        now: SimTime,
        slo_ms: Option<u64>,
        at: Option<SimTime>,
    ) -> Admission<'_> {
        let slo = slo_ms
            .map(SimDuration::saturating_from_millis)
            .unwrap_or(self.engine.spec().slo);
        let (decision, trace) = snapshot.decide_traced(now, now.saturating_add(slo));
        match decision {
            Decision::Drop(reason) => {
                let id = EDGE_ID_BASE + self.edge_ids.fetch_add(1, Ordering::Relaxed);
                self.record(now, id, &trace, Some(reason));
                Admission::Rejected { id, reason }
            }
            Decision::Admit => Admission::Admitted(AdmitPermit {
                admitter: self,
                now,
                slo,
                at,
                trace,
            }),
        }
    }

    /// Builds a snapshot from the engine's current state.
    ///
    /// With the adaptive layer on, this is where the feedback loop
    /// closes: drain the engine's flight-recorder stream, fold it into
    /// the estimator, and compute the floor from *observed* per-module
    /// latencies instead of the static profile. Every floor movement
    /// the fold produced is stamped back into the recorder with the
    /// resulting `L_sub`. An engine without a recorder has no stream to
    /// fold and keeps the static floor.
    fn fresh_snapshot(&self) -> EdgeSnapshot {
        let mut state = self.engine.edge_state();
        let adjustments = match (&self.adaptive, &self.recorder) {
            (Some(adaptive), Some(recorder)) => {
                adaptive
                    .lock()
                    .observe_and_adjust(recorder, &mut state, self.source)
            }
            _ => Vec::new(),
        };
        let snapshot = EdgeSnapshot::new(state, self.source, &self.paths);
        if !adjustments.is_empty() {
            if let Some(recorder) = &self.recorder {
                let t_us = self.engine.now().as_micros();
                let sub_us = snapshot.floor().sub_total().as_micros();
                for adj in adjustments {
                    recorder.record(&ObsEvent {
                        t_us,
                        req: 0,
                        kind: ObsKind::FloorAdjust {
                            module: adj.module,
                            cause: adj.cause,
                            observed_us: adj.observed_us,
                            profiled_us: adj.profiled_us,
                            sub_us,
                        },
                    });
                }
            }
        }
        snapshot
    }

    /// Records one edge decision into the engine's flight recorder:
    /// the Eq. 3 inputs plus the verdict (`reason` is `None` for an
    /// admission). One ring write; a no-op without a recorder.
    #[inline]
    fn record(&self, now: SimTime, id: u64, trace: &EdgeTrace, reason: Option<DropReason>) {
        if let Some(recorder) = &self.recorder {
            recorder.record(&ObsEvent {
                t_us: now.as_micros(),
                req: id,
                kind: ObsKind::EdgeDecision {
                    lead_us: trace.lead_us,
                    sub_us: trace.sub_us,
                    slack_us: trace.slack_us,
                    reason,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_metrics::DropReason;

    fn state(queues: Vec<usize>) -> EdgeState {
        EdgeState {
            queue_depths: queues,
            workers: vec![1, 1, 1],
            batch_sizes: vec![4, 4, 4],
            exec_ms: vec![40.0, 30.0, 20.0],
            slo: SimDuration::from_millis(400),
        }
    }

    /// Downstream paths of the 3-module chain entered at module 0.
    fn chain_paths() -> Vec<Vec<usize>> {
        vec![vec![1, 2]]
    }

    fn decide(now: SimTime, deadline: SimTime, state: &EdgeState) -> Decision {
        AdmissionFloor::compute(state, 0, &chain_paths()).decide(now, deadline)
    }

    #[test]
    fn idle_pipeline_admits_feasible_request() {
        // Empty queues: projected latency = 40 + (30 + 20) = 90 ms.
        let s = state(vec![0, 0, 0]);
        let now = SimTime::from_millis(100);
        let d = decide(now, now + SimDuration::from_millis(400), &s);
        assert_eq!(d, Decision::Admit);
    }

    #[test]
    fn hopeless_slo_is_rejected_immediately() {
        // 1 ms budget < 90 ms floor: rejected even when idle.
        let s = state(vec![0, 0, 0]);
        let now = SimTime::from_millis(100);
        let d = decide(now, now + SimDuration::from_millis(1), &s);
        assert_eq!(d, Decision::Drop(DropReason::PredictedViolation));
    }

    #[test]
    fn deep_queues_tip_the_decision() {
        // 40 queued at module 0 → 10 batches → 400 ms before this
        // request's batch even starts.
        let s = state(vec![40, 0, 0]);
        let now = SimTime::from_millis(100);
        let d = decide(now, now + SimDuration::from_millis(400), &s);
        assert_eq!(d, Decision::Drop(DropReason::PredictedViolation));
        // The same deadline with shallow queues is fine.
        let shallow = state(vec![3, 3, 3]);
        let d = decide(now, now + SimDuration::from_millis(400), &shallow);
        assert_eq!(d, Decision::Admit);
    }

    #[test]
    fn worker_parallelism_halves_the_queue_delay() {
        // 40 queued at module 0 is hopeless for one worker (10 rounds ×
        // 40 ms) but fine for four workers draining in parallel.
        let mut s = state(vec![40, 0, 0]);
        let now = SimTime::from_millis(100);
        let deadline = now + SimDuration::from_millis(400);
        assert_eq!(
            decide(now, deadline, &s),
            Decision::Drop(DropReason::PredictedViolation)
        );
        s.workers = vec![4, 1, 1];
        assert_eq!(decide(now, deadline, &s), Decision::Admit);
    }

    #[test]
    fn downstream_queues_count_too() {
        // Module 0 idle, but module 2 has 80 queued → 20 batches × 20 ms
        // = 400 ms of downstream queueing.
        let s = state(vec![0, 0, 80]);
        let now = SimTime::ZERO;
        let sub = AdmissionFloor::compute(&s, 0, &chain_paths()).sub;
        assert_eq!(sub.sum_q, SimDuration::from_millis(400));
        assert_eq!(sub.sum_d, SimDuration::from_millis(50));
        let d = decide(now, now + SimDuration::from_millis(300), &s);
        assert_eq!(d, Decision::Drop(DropReason::PredictedViolation));
    }

    #[test]
    fn expired_deadline_reports_already_expired() {
        let s = state(vec![0, 0, 0]);
        let now = SimTime::from_millis(500);
        let d = decide(now, SimTime::from_millis(400), &s);
        assert_eq!(d, Decision::Drop(DropReason::AlreadyExpired));
    }

    #[test]
    fn snapshot_decisions_match_the_floor_exactly() {
        // The published-snapshot fast path must be bit-identical to a
        // floor computed directly from the same state, across queue
        // depths, SLOs, and shapes — golden taxonomies depend on it.
        let paths = chain_paths();
        let mut cases = Vec::new();
        for q0 in [0usize, 3, 8, 40, 400] {
            for q2 in [0usize, 20, 80] {
                cases.push(state(vec![q0, 1, q2]));
            }
        }
        for s in cases {
            let snapshot = EdgeSnapshot::new(s.clone(), 0, &paths);
            for now_ms in [0u64, 100, 500] {
                for slo_ms in [1u64, 90, 120, 400, 1000] {
                    let now = SimTime::from_millis(now_ms);
                    for deadline in [
                        now + SimDuration::from_millis(slo_ms),
                        SimTime::from_millis(slo_ms), // possibly already expired
                    ] {
                        assert_eq!(
                            snapshot.decide(now, deadline),
                            AdmissionFloor::compute(&s, 0, &paths).decide(now, deadline),
                            "q={:?} now={now_ms} slo={slo_ms}",
                            s.queue_depths,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn traced_decision_matches_decide_and_explains_it() {
        // The trace is the decision's own arithmetic: a predicted drop
        // happens exactly when L_sub exceeds the slack (and an expired
        // deadline shows as negative slack).
        let paths = chain_paths();
        for q0 in [0usize, 3, 8, 40, 400] {
            let snapshot = EdgeSnapshot::new(state(vec![q0, 1, 0]), 0, &paths);
            let now = SimTime::from_millis(100);
            for deadline in [
                now + SimDuration::from_millis(1),
                now + SimDuration::from_millis(90),
                now + SimDuration::from_millis(400),
                SimTime::from_millis(50), // already expired
            ] {
                let (decision, trace) = snapshot.decide_traced(now, deadline);
                assert_eq!(decision, snapshot.decide(now, deadline));
                let dropped = matches!(decision, Decision::Drop(_));
                assert_eq!(
                    dropped,
                    trace.slack_us < 0 || trace.sub_us as i64 > trace.slack_us,
                    "q0={q0} deadline={deadline:?} trace={trace:?}"
                );
            }
        }
    }

    #[test]
    fn publisher_epoch_tracks_publications_and_readers_refresh() {
        let paths = chain_paths();
        let publisher = EdgePublisher::new(EdgeSnapshot::new(state(vec![0, 0, 0]), 0, &paths));
        let mut reader = SnapshotReader::new(&publisher);
        let now = SimTime::ZERO;
        let fine = now + SimDuration::from_millis(400);
        assert_eq!(
            reader.current(&publisher).decide(now, fine),
            Decision::Admit
        );

        // Publish a congested snapshot: the same reader must observe it
        // on its next request without being recreated.
        publisher.publish(EdgeSnapshot::new(state(vec![400, 0, 0]), 0, &paths));
        assert_eq!(publisher.epoch(), 1);
        assert_eq!(
            reader.current(&publisher).decide(now, fine),
            Decision::Drop(DropReason::PredictedViolation)
        );
        // The cold-path load sees the same snapshot.
        assert_eq!(publisher.load().state().queue_depths, vec![400, 0, 0]);
    }

    #[test]
    fn parallel_branches_are_charged_once_not_summed() {
        // Diamond 0 → {1, 2} → 3 with symmetric 100 ms branches and a
        // 260 ms budget at the edge: the critical-path estimate
        // (40 + 100 + 20 = 160 ms) admits, while the old chain-style
        // sum over every module (40 + 100 + 100 + 20 = 260 ms… plus
        // any queueing) would sit exactly at the cliff and reject as
        // soon as anything queues.
        let s = EdgeState {
            queue_depths: vec![0, 4, 4, 0],
            workers: vec![1, 1, 1, 1],
            batch_sizes: vec![4, 4, 4, 4],
            exec_ms: vec![40.0, 100.0, 100.0, 20.0],
            slo: SimDuration::from_millis(400),
        };
        let paths = vec![vec![1, 3], vec![2, 3]];
        let floor = AdmissionFloor::compute(&s, 0, &paths);
        // One branch + sink, with that branch's one queued batch.
        assert_eq!(floor.sub.total, SimDuration::from_millis(220));
        let now = SimTime::ZERO;
        let d = floor.decide(now, now + SimDuration::from_millis(300));
        assert_eq!(d, Decision::Admit);
    }

    #[test]
    fn edge_ids_round_trip_exactly_through_json_numbers() {
        // Wire ids travel as f64; every edge id must survive the trip.
        for seq in [0u64, 1, 2, 1_000_000_007] {
            let id = EDGE_ID_BASE + seq;
            assert_eq!((id as f64) as u64, id, "seq {seq} lost precision");
        }
        // And the space stays disjoint from any feasible record index.
        assert!(EDGE_ID_BASE > u32::MAX as u64 * 1024);
    }

    /// An idle tm-shaped engine that logs what the admitter asks of it
    /// and assigns dense ids from 0.
    struct StubEngine {
        spec: pard_pipeline::PipelineSpec,
        edge_states: Arc<AtomicU64>,
        submits: Arc<Mutex<Vec<SubmitSpec>>>,
        recorder: Arc<FlightRecorder>,
    }

    impl EngineHandle for StubEngine {
        fn spec(&self) -> &pard_pipeline::PipelineSpec {
            &self.spec
        }
        fn now(&self) -> SimTime {
            SimTime::from_millis(100)
        }
        fn submit(&self, spec: SubmitSpec) -> u64 {
            let mut submits = self.submits.lock();
            submits.push(spec);
            submits.len() as u64 - 1
        }
        fn edge_state(&self) -> EdgeState {
            self.edge_states.fetch_add(1, Ordering::Relaxed);
            state(vec![0, 0, 0])
        }
        fn set_completion_sink(&self, _: std::sync::mpsc::Sender<pard_engine_api::Completion>) {}
        fn drain(&self, _: SimDuration) -> pard_metrics::ServedTotals {
            pard_metrics::ServedTotals::default()
        }
        fn telemetry(&self) -> Option<Arc<FlightRecorder>> {
            Some(Arc::clone(&self.recorder))
        }
    }

    /// An admitter over a [`StubEngine`], plus the stub's two logs.
    fn stub_admitter(
        limiter: Option<TokenBucket>,
        edge_ids: &Arc<AtomicU64>,
    ) -> (EdgeAdmitter, Arc<AtomicU64>, Arc<Mutex<Vec<SubmitSpec>>>) {
        let engine = StubEngine {
            spec: pard_pipeline::AppKind::Tm.pipeline(),
            edge_states: Arc::default(),
            submits: Arc::default(),
            recorder: Arc::new(FlightRecorder::with_capacity(64)),
        };
        let (edge_states, submits) = (engine.edge_states.clone(), engine.submits.clone());
        let admitter = EdgeAdmitter::new(Box::new(engine), None, limiter, Arc::clone(edge_ids));
        (admitter, edge_states, submits)
    }

    /// A 1 ms SLO is below the idle 90 ms floor: always rejected.
    const HOPELESS_MS: Option<u64> = Some(1);

    #[test]
    fn rate_limited_requests_cost_no_snapshot_work() {
        // A one-token bucket that never refills: the first scheduled
        // request builds its fresh snapshot; the next ones are refused
        // before the engine is asked for its edge state, before an
        // edge id is drawn, and before anything is recorded.
        let edge_ids = Arc::new(AtomicU64::new(0));
        let bucket = TokenBucket::new(0.0, 1.0, SimTime::ZERO);
        let (admitter, edge_states, _) = stub_admitter(Some(bucket), &edge_ids);
        assert!(matches!(
            admitter.decide_at(1_000, HOPELESS_MS),
            Admission::Rejected { .. }
        ));
        // One for the initial published snapshot, one for the fresh one.
        assert_eq!(edge_states.load(Ordering::Relaxed), 2);

        assert!(matches!(
            admitter.decide_at(2_000, HOPELESS_MS),
            Admission::RateLimited
        ));
        assert!(matches!(
            admitter.decide_now(&mut admitter.reader(), HOPELESS_MS),
            Admission::RateLimited
        ));
        assert_eq!(edge_states.load(Ordering::Relaxed), 2);
        assert_eq!(edge_ids.load(Ordering::Relaxed), 1);
        assert_eq!(admitter.recorder().expect("stub records").emitted(), 1);
    }

    #[test]
    fn edge_ids_are_drawn_from_the_shared_counter() {
        // Two apps of one front-end share the counter: ids start at
        // EDGE_ID_BASE and never repeat across them, on either entry
        // point, and each rejection is recorded under its id.
        let edge_ids = Arc::new(AtomicU64::new(0));
        let (a, ..) = stub_admitter(None, &edge_ids);
        let (b, ..) = stub_admitter(None, &edge_ids);
        let rejected_id = |admission: Admission<'_>| match admission {
            Admission::Rejected { id, reason } => {
                assert_eq!(reason, DropReason::PredictedViolation);
                id
            }
            _ => panic!("a 1 ms SLO is rejected"),
        };
        assert_eq!(rejected_id(a.decide_at(1_000, HOPELESS_MS)), EDGE_ID_BASE);
        assert_eq!(
            rejected_id(b.decide_now(&mut b.reader(), HOPELESS_MS)),
            EDGE_ID_BASE + 1
        );
        assert_eq!(
            rejected_id(a.decide_now(&mut a.reader(), HOPELESS_MS)),
            EDGE_ID_BASE + 2
        );
        let recorded: Vec<(u64, bool)> = (a.recorder().expect("stub records").dump().iter())
            .map(|e| {
                let rejected = matches!(
                    e.kind,
                    ObsKind::EdgeDecision {
                        reason: Some(_),
                        ..
                    }
                );
                (e.req, rejected)
            })
            .collect();
        assert_eq!(
            recorded,
            vec![(EDGE_ID_BASE, true), (EDGE_ID_BASE + 2, true)]
        );
    }

    #[test]
    fn a_dropped_permit_submits_and_records_nothing() {
        // The gateway drops the permit when its pending table is full:
        // the engine must not see the request and the flight record
        // must not claim it was admitted.
        let edge_ids = Arc::new(AtomicU64::new(0));
        let (admitter, _, submits) = stub_admitter(None, &edge_ids);
        let recorder = Arc::clone(admitter.recorder().expect("stub records"));
        match admitter.decide_at(5_000, None) {
            Admission::Admitted(permit) => drop(permit),
            _ => panic!("an idle pipeline admits its default SLO"),
        }
        assert!(submits.lock().is_empty());
        assert_eq!(recorder.emitted(), 0);

        // Submitted, a scheduled request reaches the engine with its
        // arrival pinned and is recorded as an admission under the
        // engine's id.
        let Admission::Admitted(permit) = admitter.decide_at(5_000, Some(250)) else {
            panic!("250 ms clears the idle 90 ms floor");
        };
        let id = permit.submit();
        let pinned = SubmitSpec {
            slo: Some(SimDuration::from_millis(250)),
            tag: 0,
            at: Some(SimTime::from_micros(5_000)),
        };
        assert_eq!(*submits.lock(), vec![pinned]);
        let events = recorder.dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].req, id);
        assert!(matches!(
            events[0].kind,
            ObsKind::EdgeDecision { reason: None, .. }
        ));
        assert_eq!(edge_ids.load(Ordering::Relaxed), 0, "no edge id spent");
    }
}
