//! The discrete-event cluster engine.
//!
//! Reproduces the serving semantics of §4.1/Fig. 5 exactly:
//!
//! * Each module has one controller (State Planner) and a set of
//!   workers; the dispatcher routes arrivals to the least-loaded worker.
//! * A worker collects its next batch *while the current batch
//!   executes* ("right after the previous one begins execution to avoid
//!   GPU idling"), so a request admitted at `t_b` waits
//!   `W = t_e − t_b` until the running batch ends at `t_e`. The
//!   wall-paced executor ([`crate::SimServer::wall_paced`]) forms a
//!   batch only once its worker is idle instead, so `W` is zero and
//!   waiting shows up as queueing delay `Q`.
//! * Drop decisions happen when the policy pops a request for the
//!   forming batch — the moment all bi-directional information exists.
//! * Controllers synchronise once per sync period; each module sees the
//!   *previous* period's snapshot of every other module (staleness, as
//!   in the distributed deployment).
//! * The scaling engine adds workers with a cold-start delay and drains
//!   workers on scale-down (§2).

use pard_core::{
    ModuleState, PipelineView, PolicyFactory, PopCtx, PopOutcome, PriorityMode, ReqMeta,
    StatePlanner, SyncUpdate,
};
use pard_metrics::{DropReason, RequestLog, Reservoir, StageRecord};
use pard_obs::{FlightRecorder, ObsEvent, ObsKind};
use pard_pipeline::{graph, PipelineSpec};
use pard_profile::{plan_batches, ModelProfile};
use pard_sim::{DetRng, EventQueue, SimDuration, SimTime, Simulation, SlowdownTrace, World};
use pard_workload::{poisson_arrivals, RateTrace};

use crate::config::{ClusterConfig, FaultSpec};
use crate::request::{ReqStatus, RequestTable};
use crate::worker::{BatchEntry, Worker, WorkerState};
use pard_core::window::{LinearWeightedWindow, RateMeter};
use std::sync::Arc;

/// Events of the cluster world.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A request reaches a module's dispatcher.
    ModuleArrival {
        /// Target module.
        module: usize,
        /// Request id.
        req: u64,
    },
    /// A worker's executing batch finishes.
    BatchDone {
        /// Module index.
        module: usize,
        /// Worker index within the module.
        worker: usize,
        /// Worker epoch at schedule time (stale-event guard).
        epoch: u64,
    },
    /// Periodic state synchronisation.
    Sync,
    /// Periodic scaling evaluation.
    Scale,
    /// A cold-starting worker becomes serviceable.
    WorkerReady {
        /// Module index.
        module: usize,
        /// Worker index within the module.
        worker: usize,
    },
    /// A fault fires (`phase` 0 = onset, 1 = recovery).
    Fault {
        /// Index into the config's fault list.
        index: usize,
        /// Onset or recovery.
        phase: u8,
    },
}

/// One sample of the adaptive-priority telemetry (Fig. 13).
#[derive(Clone, Copy, Debug)]
pub struct PrioritySample {
    /// Sample time.
    pub t: SimTime,
    /// Module the sample describes.
    pub module: usize,
    /// Load factor µ at the sample.
    pub load_factor: f64,
    /// Dynamic ε at the sample.
    pub epsilon: f64,
    /// Priority mode of the module's policy, if it has one.
    pub mode: Option<PriorityMode>,
}

/// Per-module runtime state.
pub(crate) struct ModuleRuntime {
    pub(crate) profile: ModelProfile,
    pub(crate) batch_size: usize,
    per_worker_tput: f64,
    pub(crate) workers: Vec<Worker>,
    planner: StatePlanner,
    wait_reservoir: Reservoir,
    q_window: LinearWeightedWindow,
    wcl_window: LinearWeightedWindow,
    input_meter: RateMeter,
    drop_meter: RateMeter,
    last_scale_down: SimTime,
    pres_count: usize,
}

/// The simulated cluster.
pub struct ClusterWorld {
    pub(crate) spec: PipelineSpec,
    pub(crate) config: ClusterConfig,
    factory: PolicyFactory,
    pub(crate) modules: Vec<ModuleRuntime>,
    /// Every request of a trace-driven run; the in-flight span of a
    /// served one, whose wrapper retires what it has reported. Nothing
    /// in this file can tell: a retired id reads as "not active".
    pub(crate) requests: RequestTable,
    published: Vec<ModuleState>,
    rng: DetRng,
    sync_bytes: u64,
    /// Fig. 13 telemetry, one sample per module per sync. Only
    /// [`RunResult`] exposes it, so only the trace-driven run installs
    /// it: a serving world syncs for as long as the process lives and
    /// nothing could ever read the samples.
    priority_log: Option<Vec<PrioritySample>>,
    /// Ids of the requests that turned terminal (dropped or completed)
    /// since the list was last emptied, in event order. Installed only
    /// by the serving wrapper ([`crate::SimServer`]), which empties it
    /// after every step; trace-driven runs read outcomes from the
    /// request table once, at the end, and keep it `None`.
    pub(crate) terminals: Option<Vec<u64>>,
    /// The batching loop's drop decisions, held here so that a pass
    /// over a worker allocates nothing; empty between calls.
    drops: Vec<(u64, DropReason)>,
    horizon: SimTime,
    peak_workers: usize,
    /// Flight recorder for lifecycle events (stage, drop, merge,
    /// completion); `None` in trace-driven batch runs, installed by the
    /// serving mode ([`crate::SimServer::set_recorder`]). Recording is
    /// observation only — it never influences the event timeline, so a
    /// recorded run stays bit-identical to an unrecorded one.
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// Precomputed interference schedule per fault index (`None` for
    /// step faults): drawn once from `(seed, index)` at construction,
    /// so the factor applied at each change point is a pure function
    /// of the configuration.
    pub(crate) interference: Vec<Option<SlowdownTrace>>,
    /// Whether a worker forms its next batch only once it is idle, as
    /// the wall-paced executor does, instead of while the running batch
    /// executes. Chosen by the executor's constructor, never by
    /// configuration.
    pub(crate) idle_formation: bool,
}

/// Everything a run produces.
pub struct RunResult {
    /// Per-request lifecycle records.
    pub log: RequestLog,
    /// Duration of the driven trace (drain time excluded).
    pub trace_duration: SimDuration,
    /// Adaptive-priority telemetry, one sample per module per sync.
    pub priority_log: Vec<PrioritySample>,
    /// Total state-synchronisation traffic in bytes.
    pub sync_bytes: u64,
    /// Maximum concurrently provisioned workers.
    pub peak_workers: usize,
    /// Requests still marked active when the run ended (0 expected).
    pub unfinished: usize,
}

impl ClusterWorld {
    pub(crate) fn new(
        spec: PipelineSpec,
        profiles: Vec<ModelProfile>,
        factory: PolicyFactory,
        config: ClusterConfig,
        initial_workers: Vec<usize>,
        horizon: SimTime,
    ) -> ClusterWorld {
        let pard = config.pard;
        let rng = DetRng::new(config.seed);
        let plan = plan_batches(&profiles, spec.slo, config.headroom);
        let n = spec.modules.len();
        let mut modules = Vec::with_capacity(n);
        for k in 0..n {
            let paths = graph::downstream_paths(&spec, k);
            let planner = StatePlanner::new(
                k,
                paths,
                pard.lambda,
                pard.mc_draws,
                pard.rate_history_len,
                rng.fork(1_000 + k as u64),
            );
            let mut workers = Vec::with_capacity(initial_workers[k]);
            for i in 0..initial_workers[k] {
                workers.push(Worker::new(i, (factory)(k), WorkerState::Up));
            }
            modules.push(ModuleRuntime {
                profile: profiles[k].clone(),
                batch_size: plan.batch_sizes[k],
                per_worker_tput: plan.worker_throughput[k],
                workers,
                planner,
                wait_reservoir: Reservoir::new(
                    pard.reservoir_capacity,
                    config.seed ^ (0xABCD + k as u64),
                ),
                q_window: LinearWeightedWindow::new(pard.window),
                wcl_window: LinearWeightedWindow::new(pard.window),
                input_meter: RateMeter::new(pard.window),
                drop_meter: RateMeter::new(pard.window),
                last_scale_down: SimTime::ZERO,
                pres_count: spec.modules[k].pres.len(),
            });
        }
        let published = (0..n).map(ModuleState::empty).collect();
        let peak = initial_workers.iter().sum();
        let interference = config
            .faults
            .iter()
            .enumerate()
            .map(|(i, f)| f.slowdown_trace(config.seed, i as u64))
            .collect();
        ClusterWorld {
            spec,
            config,
            factory,
            modules,
            requests: RequestTable::new(),
            published,
            rng: rng.fork(2),
            sync_bytes: 0,
            priority_log: None,
            terminals: None,
            drops: Vec::new(),
            horizon,
            peak_workers: peak,
            recorder: None,
            interference,
            idle_formation: false,
        }
    }

    /// Records one flight-recorder event, if a recorder is installed.
    #[inline]
    fn obs(&self, ev: ObsEvent) {
        if let Some(r) = &self.recorder {
            r.record(&ev);
        }
    }

    /// Marks a request dropped (first drop wins) and meters it. A
    /// request that already resolved — a policy surfacing the cancelled
    /// copy of a DAG sibling, possibly long after the serving wrapper
    /// retired the id — is left alone.
    fn record_drop(&mut self, id: u64, module: usize, now: SimTime, reason: DropReason) {
        let Some(req) = self.requests.active_mut(id) else {
            return;
        };
        req.mark_dropped(module, now, reason);
        if let Some(terminals) = &mut self.terminals {
            terminals.push(id);
        }
        self.modules[module].drop_meter.record(now);
        self.obs(ObsEvent {
            t_us: now.as_micros(),
            req: id,
            kind: ObsKind::Dropped {
                module: module as u16,
                reason,
            },
        });
    }

    /// Least-loaded dispatchable worker of `module`.
    fn pick_worker(&self, module: usize) -> Option<usize> {
        self.modules[module]
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.dispatchable())
            .min_by_key(|(i, w)| (w.load(), *i))
            .map(|(i, _)| i)
    }

    /// Routes `meta` to a worker of `module` and services it.
    fn dispatch(
        &mut self,
        module: usize,
        meta: ReqMeta,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(widx) = self.pick_worker(module) else {
            self.record_drop(meta.id, module, now, DropReason::WorkerFailed);
            return;
        };
        if let Some((refused, reason)) =
            self.modules[module].workers[widx].policy.enqueue(meta, now)
        {
            self.record_drop(refused.id, module, now, reason);
            return;
        }
        self.service(module, widx, now, queue);
    }

    /// Routes the entries of a forming batch its worker will not run
    /// (scale-down, crash) to the module's other workers. An entry
    /// whose request is no longer active — dropped on a sibling branch
    /// after it was batched, retired since — vanishes here.
    fn redispatch_forming(
        &mut self,
        module: usize,
        forming: Vec<BatchEntry>,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        for entry in forming {
            let Some(record) = self.requests.active(entry.req) else {
                continue;
            };
            let meta = ReqMeta {
                id: entry.req,
                sent: record.sent,
                deadline: record.deadline,
                arrived: entry.arrived,
            };
            self.dispatch(module, meta, now, queue);
        }
    }

    /// The batching loop: fill the forming batch from the queue (making
    /// drop decisions on the way) and start it when the GPU is idle.
    /// Under idle formation a busy worker leaves its queue alone.
    fn service(&mut self, m: usize, w: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let mut drops = std::mem::take(&mut self.drops);
        loop {
            let mut started = false;
            {
                let module = &mut self.modules[m];
                let b = module.batch_size;
                let d_planned = module.profile.latency(b);
                let worker = &mut module.workers[w];
                if !matches!(worker.state, WorkerState::Up | WorkerState::Draining)
                    || (self.idle_formation && worker.busy_until.is_some())
                {
                    break;
                }
                let ctx = PopCtx {
                    now,
                    expected_exec_start: worker.busy_until.unwrap_or(now),
                    exec_duration: d_planned,
                    batch_size: b,
                };
                if !worker.batch_opened {
                    worker.batch_opened = true;
                    for (meta, reason) in worker.policy.on_batch_open(&ctx) {
                        drops.push((meta.id, reason));
                    }
                }
                while worker.forming.len() < b {
                    match worker.policy.pop_next(&ctx) {
                        PopOutcome::Admit(meta) => {
                            // A DAG sibling may have been dropped already;
                            // cancelled copies vanish without executing.
                            if self.requests.active(meta.id).is_none() {
                                continue;
                            }
                            // The windows are read only at sync, so a
                            // sample can go in before this pass's drops
                            // are recorded.
                            module
                                .q_window
                                .push(now, now.saturating_since(meta.arrived).as_millis_f64());
                            worker.forming.push(BatchEntry {
                                req: meta.id,
                                arrived: meta.arrived,
                                batched: now,
                            });
                        }
                        PopOutcome::Drop(meta, reason) => drops.push((meta.id, reason)),
                        PopOutcome::Empty => break,
                    }
                }
                if worker.busy_until.is_none() && !worker.forming.is_empty() {
                    let batch_len = worker.forming.len();
                    let jitter = if self.config.exec_jitter_sigma > 0.0 {
                        self.rng.lognormal(0.0, self.config.exec_jitter_sigma)
                    } else {
                        1.0
                    };
                    let duration = module
                        .profile
                        .latency(batch_len)
                        .mul_f64(jitter * worker.slow_factor);
                    worker.exec_started = now;
                    // An idle worker's executing buffer is empty; the
                    // forming batch takes over its capacity.
                    debug_assert!(worker.executing.is_empty());
                    std::mem::swap(&mut worker.executing, &mut worker.forming);
                    worker.batch_opened = false;
                    worker.busy_until = Some(now + duration);
                    for e in &worker.executing {
                        module
                            .wait_reservoir
                            .record(now.saturating_since(e.batched).as_millis_f64());
                    }
                    queue.push(
                        now + duration,
                        Event::BatchDone {
                            module: m,
                            worker: w,
                            epoch: worker.epoch,
                        },
                    );
                    started = true;
                }
            }
            for (id, reason) in drops.drain(..) {
                self.record_drop(id, m, now, reason);
            }
            if !started {
                break;
            }
        }
        self.drops = drops;
    }

    fn on_module_arrival(
        &mut self,
        module: usize,
        req: u64,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(record) = self.requests.active_mut(req) else {
            return; // a DAG sibling was dropped
        };
        let (sent, deadline) = (record.sent, record.deadline);
        let required = if self.config.dynamic_paths {
            1
        } else {
            self.modules[module].pres_count
        };
        if required > 1 {
            if !record.deliver(module, required) {
                return; // waiting for the other branch(es)
            }
            self.obs(ObsEvent {
                t_us: now.as_micros(),
                req,
                kind: ObsKind::MergeRelease {
                    module: module as u16,
                },
            });
        }
        self.modules[module].input_meter.record(now);
        let meta = ReqMeta {
            id: req,
            sent,
            deadline,
            arrived: now,
        };
        self.dispatch(module, meta, now, queue);
    }

    fn on_batch_done(
        &mut self,
        m: usize,
        w: usize,
        epoch: u64,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let (mut entries, t_e) = {
            let worker = &mut self.modules[m].workers[w];
            if worker.epoch != epoch {
                return; // stale completion of a crashed worker
            }
            worker.busy_until = None;
            (std::mem::take(&mut worker.executing), worker.exec_started)
        };
        if entries.is_empty() {
            self.service(m, w, now, queue);
            return;
        }
        let batch_len = entries.len();
        let gpu_share = now.saturating_since(t_e) / batch_len as u64;
        let subs = &self.spec.modules[m].subs;
        for e in &entries {
            let stage = StageRecord {
                module: m,
                worker: w,
                arrived: e.arrived,
                batched: e.batched,
                exec_start: t_e,
                exec_end: now,
                batch_size: batch_len,
                gpu_share,
            };
            self.modules[m]
                .wcl_window
                .push(now, now.saturating_since(e.arrived).as_millis_f64());
            self.obs(ObsEvent {
                t_us: now.as_micros(),
                req: e.req,
                kind: ObsKind::Stage {
                    module: m as u16,
                    worker: w as u16,
                    batch: batch_len as u16,
                    arrived_us: e.arrived.as_micros(),
                    batched_us: e.batched.as_micros(),
                    exec_start_us: t_e.as_micros(),
                    exec_end_us: now.as_micros(),
                },
            });
            // Dropped elsewhere while executing: the stage still goes
            // on the record if there is one, and nothing is forwarded.
            let Some(record) = self.requests.get_mut(e.req) else {
                continue;
            };
            record.stages.push(stage);
            if record.status != ReqStatus::Active {
                continue;
            }
            if subs.is_empty() {
                let deadline = record.deadline;
                record.mark_completed(now);
                if let Some(terminals) = &mut self.terminals {
                    terminals.push(e.req);
                }
                self.obs(ObsEvent {
                    t_us: now.as_micros(),
                    req: e.req,
                    kind: ObsKind::Completed {
                        finished_us: now.as_micros(),
                        deadline_us: deadline.as_micros(),
                    },
                });
            } else if self.config.dynamic_paths && subs.len() > 1 {
                // Dynamic DAG: the branch depends on this request's
                // intermediate result — modelled as a uniform choice.
                let pick = subs[self.rng.below(subs.len() as u64) as usize];
                queue.push(
                    now + self.config.net_delay,
                    Event::ModuleArrival {
                        module: pick,
                        req: e.req,
                    },
                );
            } else {
                for &s in subs {
                    queue.push(
                        now + self.config.net_delay,
                        Event::ModuleArrival {
                            module: s,
                            req: e.req,
                        },
                    );
                }
            }
        }
        // The buffer goes back for the worker's next batch to reuse.
        entries.clear();
        let worker = &mut self.modules[m].workers[w];
        worker.executing = entries;
        // A draining worker that has flushed everything goes down.
        if worker.state == WorkerState::Draining
            && worker.forming.is_empty()
            && worker.policy.queue_len() == 0
        {
            worker.state = WorkerState::Down;
            return;
        }
        self.service(m, w, now, queue);
    }

    fn do_sync(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let n = self.modules.len();
        let digest = self.config.pard.wait_digest_len;
        let fresh: Vec<ModuleState> = (0..n)
            .map(|k| {
                let m = &mut self.modules[k];
                let input = m.input_meter.rate(now);
                let drops = m.drop_meter.rate(now);
                let up = m
                    .workers
                    .iter()
                    .filter(|w| w.state == WorkerState::Up)
                    .count();
                ModuleState {
                    module: k,
                    avg_queueing_ms: m.q_window.mean(now).unwrap_or(0.0),
                    batch_size: m.batch_size,
                    exec_ms: m.profile.latency_ms(m.batch_size),
                    throughput: up as f64 * m.per_worker_tput,
                    input_rate: input,
                    drop_rate: if input > 0.0 { drops / input } else { 0.0 },
                    worst_case_ms: m
                        .wcl_window
                        .max(now)
                        .unwrap_or_else(|| m.profile.latency_ms(m.batch_size)),
                    wait_sample_ms: m
                        .wait_reservoir
                        .samples()
                        .iter()
                        .take(digest)
                        .map(|&x| x as f32)
                        .collect(),
                }
            })
            .collect();
        for k in 0..n {
            // Own state is fresh; every other module's state is the one
            // published on the previous sync — modelling propagation lag.
            let view_modules: Vec<ModuleState> = (0..n)
                .map(|i| {
                    if i == k {
                        fresh[i].clone()
                    } else {
                        self.published[i].clone()
                    }
                })
                .collect();
            let view = PipelineView {
                taken_at: now,
                modules: view_modules,
            };
            let planner = &mut self.modules[k].planner;
            let epsilon = planner.observe_input_rate(fresh[k].input_rate);
            let sub = planner.estimate(&view);
            let load_factor = fresh[k].load_factor();
            let wcl_cum_budget = StatePlanner::wcl_cumulative_budgets(&view, self.spec.slo)[k];
            let update = SyncUpdate {
                module: k,
                sub,
                load_factor,
                epsilon,
                wcl_cum_budget,
                input_rate: fresh[k].input_rate,
                view,
            };
            for worker in &mut self.modules[k].workers {
                worker.policy.on_sync(&update);
            }
            self.sync_bytes +=
                fresh[k].encoded_size_bytes() as u64 * (n.saturating_sub(1).max(1)) as u64;
            if let Some(log) = &mut self.priority_log {
                log.push(PrioritySample {
                    t: now,
                    module: k,
                    load_factor,
                    epsilon,
                    mode: self.modules[k]
                        .workers
                        .first()
                        .and_then(|w| w.policy.priority_mode()),
                });
            }
        }
        self.published = fresh;
        let next = now + self.config.pard.sync_period;
        if next <= self.horizon {
            queue.push(next, Event::Sync);
        }
    }

    fn do_scale(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        if self.config.autoscale {
            let n = self.modules.len();
            let mut targets: Vec<usize> = (0..n)
                .map(|k| {
                    let m = &mut self.modules[k];
                    let rate = m.input_meter.rate(now);
                    ((rate * self.config.safety_factor / m.per_worker_tput).ceil() as usize).max(1)
                })
                .collect();
            let total: usize = targets.iter().sum();
            if total > self.config.worker_cap {
                let scale = self.config.worker_cap as f64 / total as f64;
                for t in &mut targets {
                    *t = ((*t as f64 * scale).floor() as usize).max(1);
                }
            }
            for (k, &target) in targets.iter().enumerate() {
                self.apply_target(k, target, now, queue);
            }
            let provisioned: usize = self
                .modules
                .iter()
                .map(|m| {
                    m.workers
                        .iter()
                        .filter(|w| {
                            matches!(w.state, WorkerState::Up | WorkerState::ColdStarting { .. })
                        })
                        .count()
                })
                .sum();
            self.peak_workers = self.peak_workers.max(provisioned);
        }
        let next = now + self.config.scale_period;
        if next <= self.horizon {
            queue.push(next, Event::Scale);
        }
    }

    fn apply_target(
        &mut self,
        k: usize,
        target: usize,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let (up, warming) = {
            let m = &self.modules[k];
            (
                m.workers
                    .iter()
                    .filter(|w| w.state == WorkerState::Up)
                    .count(),
                m.workers
                    .iter()
                    .filter(|w| matches!(w.state, WorkerState::ColdStarting { .. }))
                    .count(),
            )
        };
        let provisioned = up + warming;
        if target > provisioned {
            for _ in provisioned..target {
                let policy = (self.factory)(k);
                let m = &mut self.modules[k];
                let widx = m.workers.len();
                let ready_at = now + self.config.cold_start;
                let mut worker = Worker::new(widx, policy, WorkerState::ColdStarting { ready_at });
                worker.epoch = 0;
                m.workers.push(worker);
                queue.push(
                    ready_at,
                    Event::WorkerReady {
                        module: k,
                        worker: widx,
                    },
                );
            }
        } else if target < up
            && now.saturating_since(self.modules[k].last_scale_down)
                > self.config.scale_down_cooldown
        {
            let excess = up - target;
            self.modules[k].last_scale_down = now;
            // Drain the highest-indexed Up workers first.
            let victims: Vec<usize> = {
                let m = &self.modules[k];
                m.workers
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.state == WorkerState::Up)
                    .map(|(i, _)| i)
                    .rev()
                    .take(excess)
                    .collect()
            };
            for widx in victims {
                let (drained, forming, idle) = {
                    let worker = &mut self.modules[k].workers[widx];
                    worker.state = WorkerState::Draining;
                    let drained = worker.policy.drain_queue();
                    let forming = std::mem::take(&mut worker.forming);
                    worker.batch_opened = false;
                    (drained, forming, worker.idle())
                };
                for meta in drained {
                    self.dispatch(k, meta, now, queue);
                }
                self.redispatch_forming(k, forming, now, queue);
                if idle {
                    self.modules[k].workers[widx].state = WorkerState::Down;
                }
            }
        }
    }

    fn on_fault(&mut self, index: usize, phase: u8, now: SimTime, queue: &mut EventQueue<Event>) {
        let fault = self.config.faults[index];
        match fault {
            FaultSpec::WorkerCrash { module, worker, .. } => {
                if worker >= self.modules[module].workers.len() {
                    return;
                }
                let (executing, forming, drained) = {
                    let w = &mut self.modules[module].workers[worker];
                    w.state = WorkerState::Down;
                    w.epoch += 1;
                    w.busy_until = None;
                    w.batch_opened = false;
                    (
                        std::mem::take(&mut w.executing),
                        std::mem::take(&mut w.forming),
                        w.policy.drain_queue(),
                    )
                };
                // The executing batch is lost with the GPU.
                for e in executing {
                    self.record_drop(e.req, module, now, DropReason::WorkerFailed);
                }
                // Queued and forming requests are re-dispatched.
                self.redispatch_forming(module, forming, now, queue);
                for meta in drained {
                    self.dispatch(module, meta, now, queue);
                }
            }
            FaultSpec::SlowWorker {
                module,
                worker,
                factor,
                ..
            } => {
                if worker >= self.modules[module].workers.len() {
                    return;
                }
                let w = &mut self.modules[module].workers[worker];
                w.slow_factor = if phase == 0 { factor.max(0.01) } else { 1.0 };
            }
            // Interference change point: re-sample the precomputed
            // trace at the current instant. `factor_at` returns 1.0
            // outside the window, so the recovery event (scheduled at
            // `until`) restores nominal speed through the same path.
            FaultSpec::InterferenceWalk { module, worker, .. }
            | FaultSpec::InterferenceMarkov { module, worker, .. } => {
                if worker >= self.modules[module].workers.len() {
                    return;
                }
                let factor = self.interference[index]
                    .as_ref()
                    .map_or(1.0, |t| t.factor_at(now.as_micros()));
                self.modules[module].workers[worker].slow_factor = factor.max(0.01);
            }
        }
    }
}

impl World for ClusterWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::ModuleArrival { module, req } => self.on_module_arrival(module, req, now, queue),
            Event::BatchDone {
                module,
                worker,
                epoch,
            } => self.on_batch_done(module, worker, epoch, now, queue),
            Event::Sync => self.do_sync(now, queue),
            Event::Scale => self.do_scale(now, queue),
            Event::WorkerReady { module, worker } => {
                let w = &mut self.modules[module].workers[worker];
                if matches!(w.state, WorkerState::ColdStarting { .. }) {
                    w.state = WorkerState::Up;
                }
                self.service(module, worker, now, queue);
            }
            Event::Fault { index, phase } => self.on_fault(index, phase, now, queue),
        }
    }
}

/// Schedules every configured fault's onset (phase 0) and, for
/// windowed faults, recovery (phase 1) — shared by the trace-driven
/// run path and the stepped serving mode so the `FaultSpec` → event
/// expansion cannot diverge between them.
pub(crate) fn schedule_faults(sim: &mut Simulation<ClusterWorld>, faults: &[FaultSpec]) {
    for (index, fault) in faults.iter().enumerate() {
        match *fault {
            FaultSpec::WorkerCrash { at, .. } => sim.schedule(at, Event::Fault { index, phase: 0 }),
            FaultSpec::SlowWorker { from, until, .. } => {
                sim.schedule(from, Event::Fault { index, phase: 0 });
                sim.schedule(until, Event::Fault { index, phase: 1 });
            }
            // A continuous-interference fault expands into one change
            // point per trace step plus the recovery instant; each
            // fires as an ordinary timed event, so the piecewise
            // factor is applied on the virtual clock whether the run
            // is trace-driven or externally stepped.
            FaultSpec::InterferenceWalk { .. } | FaultSpec::InterferenceMarkov { .. } => {
                let points: Vec<u64> = sim.world().interference[index]
                    .as_ref()
                    .map(|t| t.change_points().collect())
                    .unwrap_or_default();
                for t_us in points {
                    sim.schedule(SimTime::from_micros(t_us), Event::Fault { index, phase: 0 });
                }
            }
        }
    }
}

/// Initial per-module worker counts for a trace: enough for the rate at
/// t = 0 (autoscaling handles the rest), capped by the global budget.
pub fn initial_workers(
    spec: &PipelineSpec,
    profiles: &[ModelProfile],
    trace: &RateTrace,
    config: &ClusterConfig,
) -> Vec<usize> {
    if let Some(fixed) = &config.fixed_workers {
        assert_eq!(fixed.len(), spec.modules.len(), "one count per module");
        return fixed.clone();
    }
    let plan = plan_batches(profiles, spec.slo, config.headroom);
    let rate = if config.autoscale {
        trace.rate_at(SimTime::ZERO).max(trace.mean_rate() * 0.5)
    } else {
        trace.mean_rate().max(trace.rate_at(SimTime::ZERO))
    };
    let mut counts: Vec<usize> = plan
        .worker_throughput
        .iter()
        .map(|&tput| ((rate * config.safety_factor / tput).ceil() as usize).max(1))
        .collect();
    let total: usize = counts.iter().sum();
    if total > config.worker_cap {
        let scale = config.worker_cap as f64 / total as f64;
        for c in &mut counts {
            *c = ((*c as f64 * scale).floor() as usize).max(1);
        }
    }
    counts
}

/// Runs `trace` through `spec` with per-module `profiles` and the policy
/// built by `factory`.
///
/// Every request is registered up front, so ids and the returned log
/// follow arrival order. The arrivals themselves are streamed into the
/// event loop ([`Simulation::run_merged`]) rather than pre-scheduled: the
/// heap holds only the events in flight, not the whole trace, and the
/// merge's tie rule makes the run bit-identical to pre-scheduling them.
pub fn run_with_profiles(
    spec: &PipelineSpec,
    profiles: Vec<ModelProfile>,
    trace: &RateTrace,
    factory: PolicyFactory,
    config: ClusterConfig,
) -> RunResult {
    config.validate();
    spec.validate().expect("invalid pipeline spec");
    assert_eq!(profiles.len(), spec.modules.len(), "one profile per module");
    let trace_duration = trace.duration();
    let horizon = SimTime::ZERO + trace_duration + config.drain;
    let workers = initial_workers(spec, &profiles, trace, &config);
    let slo = spec.slo;
    let source = spec.source();
    let net_delay = config.net_delay;
    let faults = config.faults.clone();
    let mut arrival_rng = DetRng::new(config.seed).fork(7);
    let mut world = ClusterWorld::new(spec.clone(), profiles, factory, config, workers, horizon);
    world.priority_log = Some(Vec::new());
    let arrivals: Vec<(SimTime, Event)> = poisson_arrivals(trace, &mut arrival_rng)
        .into_iter()
        .map(|t| {
            let req = world.requests.insert(t, t + slo, &world.spec);
            (
                t + net_delay,
                Event::ModuleArrival {
                    module: source,
                    req,
                },
            )
        })
        .collect();
    let mut sim = Simulation::new(world);
    let first_sync = sim.world().config.pard.first_sync();
    sim.schedule(first_sync, Event::Sync);
    let first_scale = SimTime::ZERO + sim.world().config.scale_period;
    sim.schedule(first_scale, Event::Scale);
    schedule_faults(&mut sim, &faults);
    sim.run_merged(arrivals);

    let world = sim.into_world();
    let (active, _, _) = world.requests.status_counts();
    RunResult {
        log: world.requests.into_log(),
        trace_duration,
        priority_log: world.priority_log.unwrap_or_default(),
        sync_bytes: world.sync_bytes,
        peak_workers: world.peak_workers,
        unfinished: active,
    }
}

/// A pipeline module whose `name` has no [`pard_profile::zoo`] entry,
/// so no batch-latency profile can be attached to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownModelError {
    /// The module name that failed zoo lookup.
    pub module: String,
}

impl std::fmt::Display for UnknownModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model {:?} is not in the profile zoo (see pard_profile::zoo::models())",
            self.module
        )
    }
}

impl std::error::Error for UnknownModelError {}

/// Resolves one [`ModelProfile`] per module of `spec` from the zoo by
/// module name.
pub fn resolve_profiles(spec: &PipelineSpec) -> Result<Vec<ModelProfile>, UnknownModelError> {
    spec.modules
        .iter()
        .map(|m| {
            pard_profile::zoo::by_name(&m.name).ok_or_else(|| UnknownModelError {
                module: m.name.clone(),
            })
        })
        .collect()
}

/// Like [`run_with_profiles`] but resolves model profiles from the zoo
/// by each module's `name`, failing cleanly (instead of panicking) when
/// a name has no zoo entry.
pub fn run(
    spec: &PipelineSpec,
    trace: &RateTrace,
    factory: PolicyFactory,
    config: ClusterConfig,
) -> Result<RunResult, UnknownModelError> {
    let profiles = resolve_profiles(spec)?;
    Ok(run_with_profiles(spec, profiles, trace, factory, config))
}
