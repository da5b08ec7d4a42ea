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

use pard_core::PolicyFactory;
use pard_metrics::{Outcome, RequestLog};
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

/// Edge-visible serving state of the simulated cluster — the same
/// shape a live engine reports, built from the DES worker queues and
/// the static batch plan.
#[derive(Clone, Debug)]
pub struct EdgeSnapshot {
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

    /// Number of submitted requests not yet terminal.
    pub fn unresolved(&self) -> usize {
        self.unresolved
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
    pub fn edge_snapshot(&self) -> EdgeSnapshot {
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
        EdgeSnapshot {
            queue_depths,
            workers,
            batch_sizes,
            exec_ms,
            slo: w.spec.slo,
        }
    }

    /// Takes the accumulated request log, leaving the server empty (a
    /// subsequent take returns an empty log).
    pub fn take_log(&mut self) -> RequestLog {
        self.unresolved = 0;
        std::mem::take(&mut self.sim.world_mut().requests).into_log()
    }

    /// Moves the terminals of the step that just ran into `out`, in
    /// ascending id (= submit order, whatever order the event handler
    /// reached them in).
    fn collect_terminals(&mut self, out: &mut Vec<TerminalEvent>) {
        let world = self.sim.world_mut();
        let terminals = world.terminals.as_mut().expect("installed at construction");
        if terminals.is_empty() {
            return;
        }
        terminals.sort_unstable();
        self.unresolved -= terminals.len();
        out.extend(
            terminals
                .drain(..)
                .map(|id| terminal_event(world.requests.get(id))),
        );
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
    use proptest::prelude::*;

    fn server(seed: u64) -> SimServer {
        server_for(AppKind::Tm, seed)
    }

    fn server_for(app: AppKind, seed: u64) -> SimServer {
        let spec = app.pipeline();
        let profiles = crate::engine::resolve_profiles(&spec).expect("builtin models in zoo");
        let config = ClusterConfig::default()
            .with_seed(seed)
            .with_fixed_workers(vec![2; spec.modules.len()])
            .with_pard(pard_core::PardConfig::default().with_mc_draws(500));
        let workers = config.fixed_workers.clone().unwrap();
        SimServer::new(
            spec,
            profiles,
            Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard()))),
            config,
            workers,
        )
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
        let log = s.take_log();
        assert_eq!(log.len(), 2);
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

    /// The scan `collect_terminals` replaced, kept as the reference: a
    /// twin server stepped through its internals, with every in-flight
    /// id checked against the request table after every event.
    struct RetainScan {
        twin: SimServer,
        in_flight: Vec<u64>,
    }

    impl RetainScan {
        fn scan(&mut self, out: &mut Vec<TerminalEvent>) {
            let world = self.twin.sim.world();
            self.in_flight.retain(|&id| {
                let r = world.requests.get(id);
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
            tight: bool,
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
            4 => (2usize..48).prop_map(|n| Op::Submit { count: n / 2, tight: n % 2 == 1 }),
            3 => (0u64..60_000).prop_map(|us| Op::AdvanceBy { us }),
            2 => (1usize..64).prop_map(|max_events| Op::Pump { max_events }),
            1 => (1u64..300).prop_map(|ms| Op::Drain { ms }),
        ]
    }

    /// Runs `ops` on a served world and on the retain-scan twin; the two
    /// must report the same terminals in the same order from every call.
    fn check_against_retain_scan(app: AppKind, seed: u64, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut s = server_for(app, seed);
        let mut reference = RetainScan {
            twin: server_for(app, seed),
            in_flight: Vec::new(),
        };
        let (mut submitted, mut resolved) = (0usize, 0usize);
        for &op in ops {
            let (got, want) = match op {
                Op::Submit { count, tight } => {
                    let slo = tight.then(|| SimDuration::from_millis(40));
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
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn terminals_match_the_retain_scan_on_tm(
            seed in 0u64..1_000,
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            check_against_retain_scan(AppKind::Tm, seed, &ops)?;
        }

        #[test]
        fn terminals_match_the_retain_scan_on_da(
            seed in 0u64..1_000,
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            check_against_retain_scan(AppKind::Da, seed, &ops)?;
        }
    }
}
