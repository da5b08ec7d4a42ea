//! Externally driven serving mode for the discrete-event cluster.
//!
//! [`crate::run_with_profiles`] owns the whole timeline: arrivals are
//! pre-drawn from a trace and the event loop runs to completion. A
//! serving front-end needs the opposite — requests arrive one at a
//! time from outside (a socket), and virtual time must only advance
//! when the driver says so. [`SimServer`] wraps [`ClusterWorld`] behind
//! that stepped virtual clock:
//!
//! * [`SimServer::submit`] stamps a request at the *current* virtual
//!   time and schedules its first module arrival; it never advances
//!   the clock.
//! * [`SimServer::pump`] processes queued events — advancing the clock
//!   event-by-event — but **only while at least one submitted request
//!   is unresolved**, and it stops as soon as any request reaches a
//!   terminal state. While the pipeline is idle the clock is frozen,
//!   so the virtual timeline is a pure function of the submit sequence
//!   (order, SLOs) and the seed — never of how often the driver polls.
//!   This is what makes a closed-loop socket-driven simulation
//!   bit-reproducible: when each request is submitted only after the
//!   previous one resolved, replaying the same submit sequence yields
//!   the same per-request outcomes. (With several requests in flight,
//!   how many events a driver pumps between two submits shifts the
//!   later request's virtual arrival time, so pipelined traffic is
//!   reproducible only if the pump/submit interleaving is.)
//! * Periodic [`Event::Sync`] / [`Event::Scale`] self-perpetuate (the
//!   horizon is [`SimTime::MAX`]); they fire in timestamp order
//!   between arrivals like in a trace-driven run, and every
//!   [`crate::FaultSpec`] in [`ClusterConfig::faults`] is scheduled at
//!   construction, so mid-run crashes and slowdowns fire when virtual
//!   time passes their timestamps.
//!
//! # Scheduled replay and the clock gate
//!
//! Closed-loop driving cannot overload a pipeline (one request in
//! flight at a time), and pipelined driving is only as reproducible as
//! the wall-clock interleaving. [`SimServer::advance_to`] closes that
//! gap for trace replay: a driver that knows its arrival schedule calls
//! `advance_to(t)` before each submit. The call processes every queued
//! event up to `t`, moves the clock to exactly `t` (through idle
//! stretches too, so syncs, scaling, and faults fire on schedule), and
//! raises the **clock gate** to `t`. Once the gate is set,
//! [`SimServer::pump`] never processes an event beyond it — so between
//! two `advance_to` calls the world is frozen, and the whole timeline
//! is a pure function of the submit sequence and the seed no matter how
//! driver threads interleave. Arrivals must be replayed in
//! non-decreasing schedule order (one driver, sorted schedule);
//! [`SimServer::drain`] releases the gate to its deadline so the tail
//! resolves.
//!
//! # What the server remembers
//!
//! Only the in-flight span. A trace-driven run keeps every request
//! because its [`RequestLog`](pard_metrics::RequestLog) *is* the
//! result; a server has already told its caller each outcome (the
//! [`TerminalEvent`]), so once a step's terminals are emitted it
//! retires the front of the [`crate::RequestTable`] while that front is
//! terminal, folding each retired request into three running counts
//! ([`SimServer::totals`]). What stays resident is the id range from
//! the oldest unresolved request to the newest ([`SimServer::resident`])
//! — hundreds of records under load, none when idle — and a retired
//! record is reused for the next submit, so a server that has answered
//! a hundred million requests is as large, and as fast, as a fresh one.
//!
//! * Ids stay dense and sequential: [`SimServer::submit`] returns
//!   `0, 1, 2, …` for the life of the server, retired or not.
//! * Retired means not active. Things inside the world may still name
//!   a retired id — a `ModuleArrival` queued for the other branch of a
//!   DAG request that was dropped, that branch's copy in a policy queue
//!   (which the policy may pop, or decide to `Drop`, much later), a
//!   stage that was executing when the drop happened. All of them were
//!   already ignored for a request that is no longer active, and a
//!   retired id answers the same way, so the event timeline and the
//!   flight-record stream are those of a world that never retires.
//!   Nothing outside the world can ask: an id leaves only in a
//!   [`TerminalEvent`], and is retired after that event was handed out.
//! * One request that never resolves pins the window behind it —
//!   everything submitted later stays resident, as everything did
//!   before — and the first step that resolves it releases the backlog.

use pard_core::PolicyFactory;
use pard_metrics::{Outcome, ServedTotals};
use pard_pipeline::PipelineSpec;
use pard_profile::ModelProfile;
use pard_sim::{SimDuration, SimTime, Simulation};

use crate::config::ClusterConfig;
use crate::engine::{ClusterWorld, Event};
use crate::request::InFlight;
use crate::worker::WorkerState;

/// A request that reached a terminal state during a pump or drain.
#[derive(Clone, Copy, Debug)]
pub struct TerminalEvent {
    /// The id [`SimServer::submit`] returned.
    pub id: u64,
    /// Virtual submit time.
    pub sent: SimTime,
    /// Absolute virtual deadline.
    pub deadline: SimTime,
    /// Terminal outcome (never [`Outcome::InFlight`]).
    pub outcome: Outcome,
}

/// Point-in-time view of the serving state a gateway needs for edge
/// admission, built from the worker queues and the static batch plan.
#[derive(Clone, Debug)]
pub struct EdgeState {
    /// Queued requests per module (summed over workers).
    pub queue_depths: Vec<usize>,
    /// Serviceable (`Up`) workers per module, floored at 1.
    pub workers: Vec<usize>,
    /// Planned batch size per module.
    pub batch_sizes: Vec<usize>,
    /// Profiled execution duration per module at the planned batch, ms.
    pub exec_ms: Vec<f64>,
    /// The pipeline's default SLO.
    pub slo: SimDuration,
}

/// The stepped-clock serving wrapper around [`ClusterWorld`].
pub struct SimServer {
    sim: Simulation<ClusterWorld>,
    /// Number of submitted requests not yet terminal.
    unresolved: usize,
    /// The requests already retired from the table, counted on their
    /// way out.
    retired: ServedTotals,
    /// Scheduled-replay clock gate: once set (by the first
    /// [`SimServer::advance_to`]), [`SimServer::pump`] never processes
    /// an event beyond it. `None` = ungated closed-loop serving.
    gate: Option<SimTime>,
}

impl SimServer {
    /// Builds a serving cluster for `spec` with `workers_per_module`
    /// initial workers each.
    ///
    /// # Panics
    ///
    /// Panics if the spec or config is invalid, or if the worker vector
    /// length does not match the module count (configurations are built
    /// once; see [`ClusterConfig::validate`]).
    pub fn new(
        spec: PipelineSpec,
        profiles: Vec<ModelProfile>,
        factory: PolicyFactory,
        config: ClusterConfig,
        workers_per_module: Vec<usize>,
    ) -> SimServer {
        SimServer::build(spec, profiles, factory, config, workers_per_module, false)
    }

    /// [`SimServer::new`] for an executor that advances the clock to
    /// scaled wall time: a worker forms its next batch only once it is
    /// idle, so batch wait `W` is zero and waiting shows up as queueing
    /// delay `Q`. Everything else — policies, syncs, faults, scaling —
    /// is the same state machine.
    ///
    /// # Panics
    ///
    /// As [`SimServer::new`].
    pub fn wall_paced(
        spec: PipelineSpec,
        profiles: Vec<ModelProfile>,
        factory: PolicyFactory,
        config: ClusterConfig,
        workers_per_module: Vec<usize>,
    ) -> SimServer {
        SimServer::build(spec, profiles, factory, config, workers_per_module, true)
    }

    fn build(
        spec: PipelineSpec,
        profiles: Vec<ModelProfile>,
        factory: PolicyFactory,
        config: ClusterConfig,
        workers_per_module: Vec<usize>,
        idle_formation: bool,
    ) -> SimServer {
        config.validate();
        spec.validate().expect("invalid pipeline spec");
        assert_eq!(profiles.len(), spec.modules.len(), "one profile per module");
        assert_eq!(
            workers_per_module.len(),
            spec.modules.len(),
            "one worker count per module"
        );
        let first_sync = config.pard.first_sync();
        let scale_period = config.scale_period;
        let faults = config.faults.clone();
        let mut world = ClusterWorld::new(
            spec,
            profiles,
            factory,
            config,
            workers_per_module,
            SimTime::MAX,
        );
        // The world notes each request the moment it turns terminal, so
        // a step costs its own terminals, not a scan of everything in
        // flight (see `collect_terminals`).
        world.terminals = Some(Vec::new());
        world.idle_formation = idle_formation;
        let mut sim = Simulation::new(world);
        sim.schedule(first_sync, Event::Sync);
        sim.schedule(SimTime::ZERO + scale_period, Event::Scale);
        // Faults fire mid-run when virtual time passes their
        // timestamps, exactly as in a trace-driven run. Under a pure
        // closed-loop driver virtual time only moves while requests are
        // in flight, so a fault beyond the traffic horizon never fires;
        // scheduled replay ([`SimServer::advance_to`]) moves the clock
        // through idle stretches and hits every timestamp.
        crate::engine::schedule_faults(&mut sim, &faults);
        SimServer {
            sim,
            unresolved: 0,
            retired: ServedTotals::default(),
            gate: None,
        }
    }

    /// Current virtual time (frozen while the pipeline is idle).
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The pipeline specification being served.
    pub fn spec(&self) -> &PipelineSpec {
        &self.sim.world().spec
    }

    /// When the next queued event is due, if any — how long a caller
    /// that follows a clock of its own may sleep.
    pub fn next_event(&self) -> Option<SimTime> {
        self.sim.peek_time()
    }

    /// Number of submitted requests not yet terminal.
    pub fn unresolved(&self) -> usize {
        self.unresolved
    }

    /// Records the request table still holds: the id span from the
    /// oldest unresolved request to the newest submit.
    pub fn resident(&self) -> usize {
        self.sim.world().requests.resident()
    }

    /// Every request submitted so far, counted the way a full
    /// [`RequestLog`](pard_metrics::RequestLog) would count it: the
    /// retired ones as they left, the resident ones now.
    pub fn totals(&self) -> ServedTotals {
        let mut totals = self.retired;
        for r in self.sim.world().requests.iter() {
            totals.count(r.deadline, r.outcome);
        }
        totals
    }

    /// Installs a flight recorder: from now on every lifecycle event
    /// (stage execution, drop, merge-barrier release, completion) is
    /// recorded with its virtual timestamp. Observation only — the
    /// event timeline is bit-identical with or without a recorder.
    pub fn set_recorder(&mut self, recorder: std::sync::Arc<pard_obs::FlightRecorder>) {
        self.sim.world_mut().recorder = Some(recorder);
    }

    /// Releases the replay clock gate, returning to ungated serving
    /// (pump advances freely while requests are unresolved). Ordinary
    /// (un-scheduled) traffic arriving on a previously gated server
    /// must clear the gate, or its events — always beyond the last
    /// scheduled arrival — could never be processed.
    pub fn clear_gate(&mut self) {
        self.gate = None;
    }

    /// Submits one request at the current virtual time under `slo` (the
    /// pipeline's default when `None`); returns its id. The clock does
    /// not advance — call [`SimServer::pump`] to make progress.
    pub fn submit(&mut self, slo: Option<SimDuration>) -> u64 {
        let now = self.sim.now();
        let (id, arrival, source) = {
            let w = self.sim.world_mut();
            let slo = slo.unwrap_or(w.spec.slo);
            let id = w.requests.insert(now, now.saturating_add(slo), &w.spec);
            (id, now.saturating_add(w.config.net_delay), w.spec.source())
        };
        self.sim.schedule(
            arrival,
            Event::ModuleArrival {
                module: source,
                req: id,
            },
        );
        self.unresolved += 1;
        id
    }

    /// Processes queued events while any request is unresolved, up to
    /// `max_events`, stopping early the moment one or more requests
    /// reach a terminal state. Never crosses the clock gate (see
    /// [`SimServer::advance_to`]). Returns the number of events
    /// processed and the terminals reached (possibly empty). A no-op
    /// when the pipeline is idle or the gate stalls it.
    pub fn pump(&mut self, max_events: usize) -> (usize, Vec<TerminalEvent>) {
        let mut out = Vec::new();
        let mut processed = 0;
        for _ in 0..max_events {
            if self.unresolved == 0 {
                break;
            }
            if let (Some(gate), Some(next)) = (self.gate, self.sim.peek_time()) {
                if next > gate {
                    break;
                }
            }
            if !self.sim.step() {
                break;
            }
            processed += 1;
            self.collect_terminals(&mut out);
            if !out.is_empty() {
                break;
            }
        }
        (processed, out)
    }

    /// Processes every queued event up to `t`, then moves the clock to
    /// exactly `t` — through idle stretches too, so periodic syncs,
    /// scaling evaluations, and scheduled faults fire even while no
    /// request is in flight — and raises the clock gate to `t`.
    ///
    /// This is the scheduled-replay primitive: a driver replaying a
    /// known arrival schedule calls `advance_to(arrival)` then
    /// [`SimServer::submit`], and because [`SimServer::pump`] never
    /// crosses the gate, the resulting timeline is a pure function of
    /// the schedule and the seed regardless of thread interleaving.
    /// Calls must use non-decreasing `t` (a sorted schedule); a stale
    /// `t` (at or before the gate) processes nothing and leaves the
    /// gate where it was. Returns the terminals reached.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<TerminalEvent> {
        let mut out = Vec::new();
        self.gate = Some(self.gate.map_or(t, |g| g.max(t)));
        while let Some(next) = self.sim.peek_time() {
            if next > t {
                break;
            }
            self.sim.step();
            self.collect_terminals(&mut out);
        }
        self.sim.advance_now_to(t);
        out
    }

    /// Pumps until every submitted request is terminal or virtual time
    /// has advanced by `limit`, returning every terminal reached. On a
    /// gated server the gate is released up to the drain deadline.
    pub fn drain(&mut self, limit: SimDuration) -> Vec<TerminalEvent> {
        let deadline = self.sim.now().saturating_add(limit);
        if let Some(gate) = self.gate {
            self.gate = Some(gate.max(deadline));
        }
        let mut out = Vec::new();
        while self.unresolved > 0 {
            match self.sim.peek_time() {
                Some(t) if t <= deadline => {
                    self.sim.step();
                    self.collect_terminals(&mut out);
                }
                _ => break,
            }
        }
        out
    }

    /// Snapshot of the state edge admission control needs.
    pub fn edge_state(&self) -> EdgeState {
        let w = self.sim.world();
        let mut queue_depths = Vec::with_capacity(w.modules.len());
        let mut workers = Vec::with_capacity(w.modules.len());
        let mut batch_sizes = Vec::with_capacity(w.modules.len());
        let mut exec_ms = Vec::with_capacity(w.modules.len());
        for m in &w.modules {
            queue_depths.push(m.workers.iter().map(|w| w.policy.queue_len()).sum());
            workers.push(
                m.workers
                    .iter()
                    .filter(|w| w.state == WorkerState::Up)
                    .count()
                    .max(1),
            );
            batch_sizes.push(m.batch_size);
            exec_ms.push(m.profile.latency_ms(m.batch_size));
        }
        EdgeState {
            queue_depths,
            workers,
            batch_sizes,
            exec_ms,
            slo: w.spec.slo,
        }
    }

    /// Moves the terminals of the step that just ran into `out`, in
    /// ascending id (= submit order, whatever order the event handler
    /// reached them in), then retires what the table no longer needs.
    /// This is the only place a request is retired: after its terminal
    /// was handed out, so nobody can still be owed its record.
    fn collect_terminals(&mut self, out: &mut Vec<TerminalEvent>) {
        let world = self.sim.world_mut();
        let terminals = world.terminals.as_mut().expect("installed at construction");
        if terminals.is_empty() {
            return;
        }
        terminals.sort_unstable();
        self.unresolved -= terminals.len();
        out.extend(terminals.drain(..).map(|id| {
            terminal_event(
                world
                    .requests
                    .get(id)
                    .expect("terminal since the last step"),
            )
        }));
        let retired = &mut self.retired;
        world
            .requests
            .retire_resolved(|r| retired.count(r.deadline, r.outcome));
    }
}

fn terminal_event(r: &InFlight) -> TerminalEvent {
    TerminalEvent {
        id: r.id,
        sent: r.sent,
        deadline: r.deadline,
        outcome: r.outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_core::{PardPolicy, PardPolicyConfig};
    use pard_pipeline::AppKind;
    use pard_policies::{make_factory, OcConfig, SystemKind};
    use proptest::prelude::*;

    fn server(seed: u64) -> SimServer {
        server_for(AppKind::Tm, seed)
    }

    fn server_for(app: AppKind, seed: u64) -> SimServer {
        server_with(app, SystemKind::Pard, config_for(app, seed))
    }

    /// Two workers a module, a cheap planner.
    fn config_for(app: AppKind, seed: u64) -> ClusterConfig {
        ClusterConfig::default()
            .with_seed(seed)
            .with_fixed_workers(vec![2; app.pipeline().modules.len()])
            .with_pard(pard_core::PardConfig::default().with_mc_draws(500))
    }

    fn server_with(app: AppKind, system: SystemKind, config: ClusterConfig) -> SimServer {
        let spec = app.pipeline();
        let profiles = crate::engine::resolve_profiles(&spec).expect("builtin models in zoo");
        let workers = config.fixed_workers.clone().unwrap();
        // (Only the static-split baselines read the execution estimates.)
        let exec_ms = vec![10.0; spec.modules.len()];
        let factory = make_factory(system, &spec, &exec_ms, OcConfig::default());
        SimServer::new(spec, profiles, factory, config, workers)
    }

    fn run_scenario(seed: u64) -> Vec<(u64, bool)> {
        let mut s = server(seed);
        let mut outcomes = Vec::new();
        for i in 0..20u64 {
            // Every fifth request carries an infeasible 1 ms budget.
            let slo = if i % 5 == 0 {
                Some(SimDuration::from_millis(1))
            } else {
                None
            };
            let id = s.submit(slo);
            // Closed loop: resolve before the next submit.
            let mut terminal = None;
            for _ in 0..1_000 {
                let (_, t) = s.pump(10_000);
                if let Some(t) = t.into_iter().find(|t| t.id == id) {
                    terminal = Some(t);
                    break;
                }
            }
            let t = terminal.expect("request resolves");
            outcomes.push((t.id, matches!(t.outcome, Outcome::Completed { .. })));
        }
        outcomes
    }

    #[test]
    fn idle_server_does_not_advance_time() {
        let mut s = server(1);
        let t0 = s.now();
        let (processed, terminals) = s.pump(1_000);
        assert_eq!(processed, 0);
        assert!(terminals.is_empty());
        assert_eq!(s.now(), t0, "pump must be a no-op while idle");
    }

    #[test]
    fn submitted_requests_resolve_and_drain() {
        let mut s = server(2);
        let a = s.submit(None);
        let b = s.submit(Some(SimDuration::from_micros(1)));
        let mut terminals = Vec::new();
        terminals.extend(s.drain(SimDuration::from_secs(30)));
        assert_eq!(terminals.len(), 2);
        assert_eq!(s.unresolved(), 0);
        let ok = terminals
            .iter()
            .find(|t| t.id == a)
            .expect("generous request resolves");
        assert!(matches!(ok.outcome, Outcome::Completed { .. }), "{ok:?}");
        let hopeless = terminals.iter().find(|t| t.id == b).unwrap();
        assert!(
            matches!(hopeless.outcome, Outcome::Dropped { .. }),
            "{hopeless:?}"
        );
        let totals = s.totals();
        assert_eq!((totals.requests, totals.goodput, totals.dropped), (2, 1, 1));
        assert_eq!(s.resident(), 0, "nothing in flight, nothing remembered");
    }

    #[test]
    fn same_seed_same_submit_sequence_same_outcomes() {
        let a = run_scenario(7);
        let b = run_scenario(7);
        assert_eq!(a, b, "stepped sim must be bit-reproducible");
        assert!(a.iter().any(|&(_, ok)| ok), "some requests complete");
        assert!(a.iter().any(|&(_, ok)| !ok), "canaries are dropped");
    }

    #[test]
    fn advance_to_moves_the_clock_through_idle_stretches() {
        let mut s = server(3);
        assert_eq!(s.now(), SimTime::ZERO);
        let terminals = s.advance_to(SimTime::from_secs(5));
        assert!(terminals.is_empty(), "no requests were submitted");
        assert_eq!(s.now(), SimTime::from_secs(5));
        // A request submitted at the advanced clock resolves normally.
        let id = s.submit(None);
        let terminals = s.advance_to(SimTime::from_secs(10));
        let t = terminals.iter().find(|t| t.id == id).expect("resolves");
        assert_eq!(t.sent, SimTime::from_secs(5));
        assert!(matches!(t.outcome, Outcome::Completed { .. }), "{t:?}");
    }

    #[test]
    fn pump_never_crosses_the_gate() {
        let mut s = server(4);
        s.advance_to(SimTime::from_secs(1));
        let id = s.submit(None);
        // The arrival (and everything after it) lies beyond the gate:
        // pumping makes no progress until the gate is raised.
        let (processed, terminals) = s.pump(100_000);
        assert_eq!(processed, 0, "gate must stall the pump");
        assert!(terminals.is_empty());
        assert_eq!(s.now(), SimTime::from_secs(1));
        let terminals = s.advance_to(SimTime::from_secs(3));
        assert!(terminals.iter().any(|t| t.id == id), "released by gate");
    }

    #[test]
    fn scheduled_faults_fire_under_the_stepped_clock() {
        let spec = AppKind::Tm.pipeline();
        let profiles = crate::engine::resolve_profiles(&spec).expect("builtin models in zoo");
        let config = ClusterConfig::default()
            .with_seed(9)
            .with_fixed_workers(vec![1; spec.modules.len()])
            .with_pard(pard_core::PardConfig::default().with_mc_draws(500));
        let config = ClusterConfig {
            faults: vec![crate::FaultSpec::WorkerCrash {
                module: 0,
                worker: 0,
                at: SimTime::from_secs(2),
            }],
            exec_jitter_sigma: 0.0,
            ..config
        };
        let workers = config.fixed_workers.clone().unwrap();
        let mut s = SimServer::new(
            spec,
            profiles,
            Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard()))),
            config,
            workers,
        );
        // Before the crash: a request completes.
        let a = s.submit(None);
        let before = s.advance_to(SimTime::from_secs(1));
        let a = before.iter().find(|t| t.id == a).expect("resolves");
        assert!(matches!(a.outcome, Outcome::Completed { .. }), "{a:?}");
        // Advance past the crash: module 0's only worker goes down, so
        // every later request is dropped at dispatch.
        s.advance_to(SimTime::from_secs(3));
        let b = s.submit(None);
        let after = s.advance_to(SimTime::from_secs(5));
        let b = after.iter().find(|t| t.id == b).expect("resolves");
        assert!(matches!(b.outcome, Outcome::Dropped { .. }), "{b:?}");
    }

    /// `worker` 0 of `module` runs `factor` times slower, always.
    fn always_slow(module: usize, factor: f64) -> crate::FaultSpec {
        crate::FaultSpec::SlowWorker {
            module,
            worker: 0,
            factor,
            from: SimTime::ZERO,
            until: SimTime::from_secs(86_400),
        }
    }

    #[test]
    fn one_stuck_request_pins_the_window_until_it_resolves() {
        // The batch module 0's first worker starts takes minutes.
        let config = ClusterConfig {
            faults: vec![always_slow(0, 2_000.0)],
            ..config_for(AppKind::Tm, 11)
        };
        let mut s = server_with(AppKind::Tm, SystemKind::Pard, config);
        // Request 0 lands on the idle slow worker and starts executing
        // at once; nothing drops a request that is already on the GPU.
        let stuck = s.submit(None);
        let mut t = SimTime::from_millis(1);
        assert!(s.advance_to(t).is_empty(), "still executing");
        // Everything behind it resolves (served by the healthy worker,
        // or dropped from the slow one's queue) but stays resident.
        let mut later = 0;
        for _ in 0..50 {
            for _ in 0..4 {
                s.submit(None);
            }
            t += SimDuration::from_millis(100);
            later += s.advance_to(t).len();
        }
        later += s.advance_to(t + SimDuration::from_secs(2)).len();
        assert_eq!(later, 200, "only the stuck request is unresolved");
        assert_eq!(s.unresolved(), 1);
        assert_eq!(s.resident(), 201, "the window cannot move past id {stuck}");
        // The step that resolves it retires the whole backlog.
        let tail = s.drain(SimDuration::from_secs(3_600));
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].id, stuck);
        assert_eq!((s.unresolved(), s.resident()), (0, 0));
        assert_eq!(s.totals().requests, 201);
    }

    /// The reference world: a twin server stepped through its internals,
    /// so it never runs `collect_terminals` and therefore never retires
    /// a request — its table is the full log. Terminals are found by
    /// the scan `collect_terminals` replaced: every in-flight id checked
    /// against the request table after every event.
    struct RetainScan {
        twin: SimServer,
        in_flight: Vec<u64>,
    }

    impl RetainScan {
        fn scan(&mut self, out: &mut Vec<TerminalEvent>) {
            let world = self.twin.sim.world();
            self.in_flight.retain(|&id| {
                let r = world.requests.get(id).expect("the twin never retires");
                if r.status == crate::request::ReqStatus::Active {
                    return true;
                }
                out.push(terminal_event(r));
                false
            });
        }

        fn submit(&mut self, slo: Option<SimDuration>) {
            let id = self.twin.submit(slo);
            self.in_flight.push(id);
        }

        fn pump(&mut self, max_events: usize) -> Vec<TerminalEvent> {
            let mut out = Vec::new();
            for _ in 0..max_events {
                if self.in_flight.is_empty() {
                    break;
                }
                if let (Some(gate), Some(next)) = (self.twin.gate, self.twin.sim.peek_time()) {
                    if next > gate {
                        break;
                    }
                }
                if !self.twin.sim.step() {
                    break;
                }
                self.scan(&mut out);
                if !out.is_empty() {
                    break;
                }
            }
            out
        }

        fn advance_to(&mut self, t: SimTime) -> Vec<TerminalEvent> {
            let mut out = Vec::new();
            self.twin.gate = Some(self.twin.gate.map_or(t, |g| g.max(t)));
            while self.twin.sim.peek_time().is_some_and(|next| next <= t) {
                self.twin.sim.step();
                self.scan(&mut out);
            }
            self.twin.sim.advance_now_to(t);
            out
        }

        fn drain(&mut self, limit: SimDuration) -> Vec<TerminalEvent> {
            let deadline = self.twin.sim.now().saturating_add(limit);
            if let Some(gate) = self.twin.gate {
                self.twin.gate = Some(gate.max(deadline));
            }
            let mut out = Vec::new();
            while !self.in_flight.is_empty()
                && self.twin.sim.peek_time().is_some_and(|t| t <= deadline)
            {
                self.twin.sim.step();
                self.scan(&mut out);
            }
            out
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// A burst of submits at the current instant (what makes one
        /// batch, and so one step, resolve several requests).
        Submit {
            count: usize,
            slo_ms: Option<u64>,
        },
        AdvanceBy {
            us: u64,
        },
        Pump {
            max_events: usize,
        },
        Drain {
            ms: u64,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // (The shim has no tuple strategies: one draw carries both.)
            // The pipeline's own SLO, one that is hopeless at the door,
            // and one that gets in and runs out of time downstream.
            4 => (3usize..72).prop_map(|n| Op::Submit {
                count: n / 3,
                slo_ms: [None, Some(40), Some(150)][n % 3],
            }),
            3 => (0u64..60_000).prop_map(|us| Op::AdvanceBy { us }),
            2 => (1usize..64).prop_map(|max_events| Op::Pump { max_events }),
            1 => (1u64..300).prop_map(|ms| Op::Drain { ms }),
        ]
    }

    /// Runs `ops`, then a full drain, on a served world — which retires
    /// what it has answered — and on the retain-scan twin, which keeps
    /// everything. Every call must report the same terminals in the same
    /// order, the two flight records must be the same stream, the served
    /// world must hold exactly the span from its oldest unresolved id to
    /// its newest, and its totals must be what the twin's full log says.
    fn check_against_retain_scan(
        build: impl Fn() -> SimServer,
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        let mut s = build();
        let mut reference = RetainScan {
            twin: build(),
            in_flight: Vec::new(),
        };
        let recorders = [(); 2].map(|()| std::sync::Arc::new(pard_obs::FlightRecorder::new()));
        s.set_recorder(recorders[0].clone());
        reference.twin.set_recorder(recorders[1].clone());
        let (mut submitted, mut resolved) = (0usize, 0usize);
        let full_drain = Op::Drain { ms: 3_600_000 };
        for &op in ops.iter().chain([&full_drain]) {
            let (got, want) = match op {
                Op::Submit { count, slo_ms } => {
                    let slo = slo_ms.map(SimDuration::from_millis);
                    for _ in 0..count {
                        s.submit(slo);
                        reference.submit(slo);
                    }
                    submitted += count;
                    (Vec::new(), Vec::new())
                }
                Op::AdvanceBy { us } => {
                    let t = s.now() + SimDuration::from_micros(us);
                    (s.advance_to(t), reference.advance_to(t))
                }
                Op::Pump { max_events } => (s.pump(max_events).1, reference.pump(max_events)),
                Op::Drain { ms } => {
                    let limit = SimDuration::from_millis(ms);
                    (s.drain(limit), reference.drain(limit))
                }
            };
            let key = |t: &TerminalEvent| (t.id, t.sent, t.deadline, t.outcome);
            let got: Vec<_> = got.iter().map(key).collect();
            let want: Vec<_> = want.iter().map(key).collect();
            prop_assert!(got == want, "{op:?}: {got:?} != retain scan {want:?}");
            if let Op::Pump { .. } = op {
                // A pump stops at the first step that resolves anything,
                // so its terminals are one step's: ascending by id.
                prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", got);
            }
            resolved += got.len();
            prop_assert_eq!(s.unresolved(), submitted - resolved);
            prop_assert_eq!(s.now(), reference.twin.now());
            // `in_flight` is in submit order, so its head is the oldest
            // unresolved id; everything below it is retired.
            let oldest = reference
                .in_flight
                .first()
                .map_or(submitted, |&id| id as usize);
            let resident = s.resident();
            prop_assert!(
                resident == submitted - oldest,
                "{op:?}: {resident} resident, ids {oldest}..{submitted} in flight"
            );
        }
        // A full drain leaves no backlog.
        prop_assert_eq!(s.resident(), s.unresolved());
        prop_assert_eq!(recorders[0].emitted(), recorders[1].emitted());
        prop_assert!(
            recorders[0].dump() == recorders[1].dump(),
            "flight records differ"
        );
        let log = std::mem::take(&mut reference.twin.sim.world_mut().requests).into_log();
        prop_assert_eq!(log.len(), submitted);
        prop_assert_eq!(s.totals(), pard_metrics::ServedTotals::from(&log));
        Ok(())
    }

    /// PARD drops at the first module whatever it can foresee; the
    /// reactive and the look-behind-only systems let doomed requests
    /// through, so theirs are the drops that happen downstream.
    fn random_system_server(app: AppKind, seed: u64) -> SimServer {
        let systems = [SystemKind::Pard, SystemKind::Nexus, SystemKind::PardBack];
        server_with(app, systems[seed as usize % 3], config_for(app, seed))
    }

    /// The random scripts reach one of the ways a retired id is named
    /// again (the `ModuleArrival` still queued for the other branch when
    /// a DAG request is dropped at dispatch). This script builds the
    /// others on `da` (0 -> {1, 2} -> 3). Branch 2 has one worker, 30x
    /// slow, so it holds its copies for hundreds of milliseconds: one
    /// executing, a full forming batch, the rest in the policy's queue.
    /// Branch 1 meanwhile loses every worker to a crash, which drops all
    /// 32 requests, and with nothing older unresolved they are retired
    /// on the spot. Then branch 2 surfaces the copies: its batches end
    /// (a stage finishing for a retired id), the policy pops the queue
    /// (admitting some, deciding to `Drop` others — the short-SLO ones
    /// have expired), and — second variant — its own worker crashes
    /// with a forming batch of retired ids to re-dispatch.
    #[test]
    fn sibling_copies_of_a_retired_request_surface_harmlessly() {
        let crash = |module, worker, ms| crate::FaultSpec::WorkerCrash {
            module,
            worker,
            at: SimTime::from_millis(ms),
        };
        for branch_2_crash in [None, Some(crash(2, 0, 200))] {
            let mut faults = vec![
                always_slow(2, 30.0),
                // The first two requests are executing on these...
                crash(1, 0, 20),
                crash(1, 1, 20),
                // ...and the other thirty have all reached this one.
                crash(1, 2, 85),
            ];
            faults.extend(branch_2_crash);
            let config = ClusterConfig {
                faults,
                fixed_workers: Some(vec![2, 3, 1, 1]),
                ..config_for(AppKind::Da, 5)
            };
            let build = || server_with(AppKind::Da, SystemKind::Nexus, config.clone());
            // Two requests take module 0's idle workers; the burst
            // behind them leaves module 0 as two batches of fifteen.
            let submits = [(2, None), (18, None), (6, Some(200)), (6, Some(5_000))];
            let mut ops = Vec::new();
            for (count, slo_ms) in submits {
                ops.push(Op::Submit { count, slo_ms });
                ops.push(Op::AdvanceBy { us: 250 });
            }
            ops.extend((0..400).map(|_| Op::AdvanceBy { us: 5_000 }));
            check_against_retain_scan(build, &ops).unwrap();

            // The scenario is what the comment says: at 100 ms the
            // table is empty while branch 2 still queues the copies.
            let mut s = build();
            for (count, slo_ms) in submits {
                for _ in 0..count {
                    s.submit(slo_ms.map(SimDuration::from_millis));
                }
                s.advance_to(s.now() + SimDuration::from_micros(250));
            }
            s.advance_to(SimTime::from_millis(100));
            assert_eq!((s.unresolved(), s.resident()), (0, 0));
            assert!(s.edge_state().queue_depths[2] > 0);
        }
    }

    /// A wall-paced executor stamps each request when the wall clock
    /// says, then runs the same state machine: given the stamps, what
    /// happens is fixed. One recorded stamp list — calm, then a burst
    /// that overloads the `da` diamond, several stamps sharing a
    /// microsecond — fed twice gives the same terminals and the same
    /// flight record, and every batch starts the moment it forms.
    #[test]
    fn wall_paced_outcomes_depend_only_on_the_stamps() {
        let mut rng = pard_sim::DetRng::new(3);
        let mut t = 0;
        let stamps: Vec<SimTime> = (0..800)
            .map(|i| {
                t += rng.below(if i < 400 { 8_000 } else { 1_200 });
                SimTime::from_micros(t)
            })
            .collect();
        let run = || {
            let spec = AppKind::Da.pipeline();
            let profiles = crate::engine::resolve_profiles(&spec).expect("builtin models in zoo");
            let mut s = SimServer::wall_paced(
                spec,
                profiles,
                Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard()))),
                config_for(AppKind::Da, 5),
                vec![2; 4],
            );
            let recorder = std::sync::Arc::new(pard_obs::FlightRecorder::new());
            s.set_recorder(recorder.clone());
            let mut terminals = Vec::new();
            for &at in &stamps {
                terminals.extend(s.advance_to(at));
                s.submit(None);
            }
            terminals.extend(s.drain(SimDuration::from_secs(60)));
            let terminals: Vec<_> = terminals
                .iter()
                .map(|t| (t.id, t.sent, t.deadline, t.outcome))
                .collect();
            (terminals, recorder.dump())
        };
        let (terminals, record) = run();
        assert_eq!(terminals.len(), stamps.len());
        assert!(terminals
            .iter()
            .any(|t| matches!(t.3, Outcome::Completed { .. })));
        assert!(terminals
            .iter()
            .any(|t| matches!(t.3, Outcome::Dropped { .. })));
        assert_eq!(run(), (terminals, record.clone()));
        let mut stages = 0;
        for event in &record {
            if let pard_obs::ObsKind::Stage {
                batched_us,
                exec_start_us,
                ..
            } = event.kind
            {
                assert_eq!(batched_us, exec_start_us, "{event:?}");
                stages += 1;
            }
        }
        assert!(stages > stamps.len(), "{stages} stages");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn terminals_match_the_retain_scan_on_tm(
            seed in 0u64..1_000,
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            check_against_retain_scan(|| random_system_server(AppKind::Tm, seed), &ops)?;
        }

        #[test]
        fn terminals_match_the_retain_scan_on_da(
            seed in 0u64..1_000,
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            check_against_retain_scan(|| random_system_server(AppKind::Da, seed), &ops)?;
        }
    }
}
