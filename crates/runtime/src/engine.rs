//! The live threaded serving engine.
//!
//! One OS thread per worker, a controller thread for state
//! synchronisation, and the same [`pard_core::WorkerPolicy`] objects the simulator
//! drives — so a policy validated in the DES serves unchanged on real
//! threads with a real (or sleep-based) backend.
//!
//! Differences from the DES (documented, deliberate):
//!
//! * Batches form when the worker becomes idle rather than overlapping
//!   with the previous execution, so batch wait `W` is near zero and
//!   waiting shows up as queueing delay `Q`. Policy arithmetic is
//!   unchanged; the DES remains the reference for Fig. 3b-style wait
//!   dynamics.
//!
//! Any valid [`PipelineSpec`] is served, DAGs included (§5.1): a request
//! finishing a fan-out module forwards one *fragment* per successor, a
//! merge module holds a join barrier that releases only once every
//! predecessor fragment has delivered, and a drop on any branch cancels
//! the sibling fragments — the request resolves exactly once, as
//! dropped, and cancelled fragments are discarded at batch formation
//! before they burn backend execution.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use pard_core::window::{LinearWeightedWindow, RateMeter};
use pard_core::{
    ModuleState, PardConfig, PipelineView, PolicyFactory, PopCtx, PopOutcome, ReqMeta,
    StatePlanner, SyncUpdate,
};
use pard_metrics::{DropReason, Outcome, RequestLog, RequestRecord, Reservoir, StageRecord};
use pard_obs::{FlightRecorder, ObsEvent, ObsKind};
use pard_pipeline::{graph, PipelineSpec};
use pard_profile::{plan_batches, ModelProfile};
use pard_sim::{DetRng, SimDuration, SimTime};

use crate::backend::InferenceBackend;
use crate::clock::WallClock;

/// Builds one backend per worker of a module. Called sequentially at
/// startup — module-major, worker-minor — with the module index and
/// the engine's own clock (so wrappers like
/// [`crate::ScriptedSlowdownBackend`] share the exact virtual-time
/// origin the engine runs on).
pub type BackendFactory = Box<dyn Fn(usize, &WallClock) -> Box<dyn InferenceBackend> + Send + Sync>;

/// Configuration of the live engine.
pub struct LiveConfig {
    /// Virtual seconds per wall second (experiment compression).
    pub time_scale: f64,
    /// PARD algorithm knobs.
    pub pard: PardConfig,
    /// Workers per module.
    pub workers_per_module: Vec<usize>,
    /// Batch-planning headroom.
    pub headroom: f64,
}

impl LiveConfig {
    /// A configuration suitable for fast tests/demos: `scale`× time
    /// compression, light Monte-Carlo load, `workers` per module.
    pub fn compressed(scale: f64, modules: usize, workers: usize) -> LiveConfig {
        LiveConfig {
            time_scale: scale,
            pard: PardConfig::default().with_mc_draws(500),
            workers_per_module: vec![workers; modules],
            headroom: 2.0,
        }
    }
}

struct WorkerShared {
    policy: Mutex<Box<dyn pard_core::WorkerPolicy>>,
    cv: Condvar,
}

struct ModuleShared {
    workers: Vec<WorkerShared>,
    input_meter: Mutex<RateMeter>,
    q_window: Mutex<LinearWeightedWindow>,
    wcl_window: Mutex<LinearWeightedWindow>,
    wait_reservoir: Mutex<Reservoir>,
}

struct LiveRecord {
    sent: SimTime,
    deadline: SimTime,
    tag: u64,
    stages: Vec<StageRecord>,
    outcome: Outcome,
    /// Per-module join-barrier state: count of predecessor fragments
    /// delivered and the latest delivery time. The merge module
    /// enqueues only when the count reaches its `pres` length, stamped
    /// at the *latest* branch end — worker threads may deliver out of
    /// execution order, and the join logically completes when the
    /// slowest branch does. Empty for chain pipelines (no merge nodes,
    /// never consulted).
    merge_arrivals: Vec<(usize, SimTime)>,
}

/// Per-request submission options (see [`LiveCluster::submit_with`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// End-to-end latency budget; the pipeline's SLO when `None`.
    pub slo: Option<SimDuration>,
    /// Opaque caller tag echoed back verbatim in the [`Completion`],
    /// for submitters that want to attach their own correlation key
    /// (the gateway routes by `id` and leaves this at 0).
    pub tag: u64,
}

impl SubmitOptions {
    /// Overrides the per-request SLO.
    pub fn with_slo(mut self, slo: SimDuration) -> SubmitOptions {
        self.slo = Some(slo);
        self
    }

    /// Sets the caller tag.
    pub fn with_tag(mut self, tag: u64) -> SubmitOptions {
        self.tag = tag;
        self
    }
}

/// Terminal-state notification delivered to the completion sink the
/// moment a request resolves (completes or is dropped), without waiting
/// for [`LiveCluster::finish`].
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The id [`LiveCluster::submit_with`] returned.
    pub id: u64,
    /// The caller tag from [`SubmitOptions`].
    pub tag: u64,
    /// Client send time.
    pub sent: SimTime,
    /// Absolute deadline.
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

/// Point-in-time view of the serving state a gateway needs for edge
/// admission: per-module queue depths plus the static plan.
#[derive(Clone, Debug)]
pub struct EdgeState {
    /// Queued requests per module (summed over workers).
    pub queue_depths: Vec<usize>,
    /// Worker threads per module (queued batches drain this many at a
    /// time).
    pub workers: Vec<usize>,
    /// Planned batch size per module.
    pub batch_sizes: Vec<usize>,
    /// Profiled execution duration per module at the planned batch, ms.
    pub exec_ms: Vec<f64>,
    /// The pipeline's default SLO.
    pub slo: SimDuration,
}

struct Shared {
    spec: PipelineSpec,
    /// Whether the spec has merge nodes; chains skip the per-request
    /// join-barrier allocation entirely.
    has_merges: bool,
    batch_sizes: Vec<usize>,
    exec_ms: Vec<f64>,
    per_worker_tput: Vec<f64>,
    clock: WallClock,
    pard: PardConfig,
    shutdown: AtomicBool,
    modules: Vec<ModuleShared>,
    records: Mutex<Vec<LiveRecord>>,
    /// How many of `records` are still [`Outcome::InFlight`], so a
    /// drain can wait for zero without taking the lock every worker
    /// needs to finish a batch. Written only under that lock, next to
    /// the outcome it counts (`Release`, pairing with the drain's
    /// `Acquire` load: a drain that reads zero also sees the outcomes).
    unresolved: AtomicUsize,
    completion_tx: Mutex<Option<Sender<Completion>>>,
    /// Flight recorder for lifecycle events, always on: recording is a
    /// ticket `fetch_add` plus a handful of atomic stores, so it stays
    /// off every lock and adds nothing observable to the serving path.
    recorder: Arc<FlightRecorder>,
}

impl Shared {
    /// Index of the least-loaded worker of `module`.
    fn pick_worker(&self, module: usize) -> usize {
        let mut best = 0;
        let mut best_len = usize::MAX;
        for (i, w) in self.modules[module].workers.iter().enumerate() {
            let len = w.policy.lock().queue_len();
            if len < best_len {
                best_len = len;
                best = i;
            }
        }
        best
    }

    /// Enqueues `meta` at `module`, recording admission-control drops.
    fn enqueue(&self, module: usize, meta: ReqMeta, now: SimTime) {
        self.modules[module].input_meter.lock().record(now);
        let widx = self.pick_worker(module);
        let worker = &self.modules[module].workers[widx];
        let refused = worker.policy.lock().enqueue(meta, now);
        match refused {
            Some((req, reason)) => self.mark_dropped(req.id, module, now, reason),
            None => {
                worker.cv.notify_one();
            }
        }
    }

    /// Forwards a request that finished `module` to every successor
    /// fragment. At a merge node the fragment parks in the join barrier
    /// until the last predecessor delivers; only that delivery enqueues.
    fn forward(&self, module: usize, meta: &ReqMeta, end: SimTime) {
        for &s in &self.spec.modules[module].subs {
            if let Some(joined) = self.deliver(meta.id, s, end) {
                let fragment = ReqMeta {
                    arrived: joined,
                    ..*meta
                };
                self.enqueue(s, fragment, joined);
            }
        }
    }

    /// Registers one predecessor delivery of request `id` at `module`
    /// ending at `end`; returns the join time when the barrier released
    /// (immediately, outside merge nodes). The records lock serialises
    /// racing sibling branches, so exactly one delivery sees the
    /// barrier fill — and the join is stamped at the *latest* branch
    /// end, not the releasing thread's own (threads may deliver out of
    /// execution order).
    fn deliver(&self, id: u64, module: usize, end: SimTime) -> Option<SimTime> {
        let required = self.spec.modules[module].pres.len();
        if required <= 1 {
            return Some(end);
        }
        let joined = {
            let mut records = self.records.lock();
            let (arrivals, latest) = &mut records[id as usize].merge_arrivals[module];
            *arrivals += 1;
            *latest = (*latest).max(end);
            (*arrivals == required).then_some(*latest)
        };
        if let Some(t) = joined {
            self.recorder.record(&ObsEvent {
                t_us: t.as_micros(),
                req: id,
                kind: ObsKind::MergeRelease {
                    module: module as u16,
                },
            });
        }
        joined
    }

    /// Discards batch entries whose request already resolved — the
    /// sibling fragments of a dropped DAG branch. They are cancelled
    /// here, at batch formation, before any backend execution is spent
    /// on them; the drop itself was already reported exactly once.
    fn cancel_resolved(&self, batch: &mut Vec<(ReqMeta, SimTime)>) {
        let records = self.records.lock();
        batch.retain(|(meta, _)| matches!(records[meta.id as usize].outcome, Outcome::InFlight));
    }

    fn mark_dropped(&self, id: u64, module: usize, at: SimTime, reason: DropReason) {
        let completion = {
            let mut records = self.records.lock();
            let record = &mut records[id as usize];
            if matches!(record.outcome, Outcome::InFlight) {
                record.outcome = Outcome::Dropped { module, at, reason };
                self.unresolved.fetch_sub(1, Ordering::Release);
                Some(Completion {
                    id,
                    tag: record.tag,
                    sent: record.sent,
                    deadline: record.deadline,
                    outcome: record.outcome,
                })
            } else {
                None
            }
        };
        if let Some(completion) = completion {
            self.recorder.record(&ObsEvent {
                t_us: at.as_micros(),
                req: id,
                kind: ObsKind::Dropped {
                    module: module as u16,
                    reason,
                },
            });
            self.notify(completion);
        }
    }

    /// Delivers a terminal-state notification, dropping the sink if the
    /// receiver has gone away.
    fn notify(&self, completion: Completion) {
        let mut tx = self.completion_tx.lock();
        if let Some(sender) = tx.as_ref() {
            if sender.send(completion).is_err() {
                *tx = None;
            }
        }
    }
}

/// A running live cluster.
pub struct LiveCluster {
    shared: Arc<Shared>,
    // Behind a Mutex so `drain` can join through `&self` — the unified
    // engine API hands the cluster around as a shared trait object.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl LiveCluster {
    /// Starts worker and controller threads for `spec` — any valid
    /// pipeline shape, chain or DAG.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or if worker counts do not match
    /// the module count.
    pub fn start(
        spec: PipelineSpec,
        profiles: Vec<ModelProfile>,
        policy_factory: PolicyFactory,
        backend_factory: BackendFactory,
        config: LiveConfig,
    ) -> LiveCluster {
        spec.validate().expect("invalid pipeline spec");
        assert_eq!(config.workers_per_module.len(), spec.modules.len());
        config.pard.validate();
        let plan = plan_batches(&profiles, spec.slo, config.headroom);
        let exec_ms: Vec<f64> = profiles
            .iter()
            .zip(&plan.batch_sizes)
            .map(|(p, &b)| p.latency_ms(b))
            .collect();
        let modules: Vec<ModuleShared> = (0..spec.modules.len())
            .map(|m| ModuleShared {
                workers: (0..config.workers_per_module[m])
                    .map(|_| WorkerShared {
                        policy: Mutex::new(policy_factory(m)),
                        cv: Condvar::new(),
                    })
                    .collect(),
                input_meter: Mutex::new(RateMeter::new(config.pard.window)),
                q_window: Mutex::new(LinearWeightedWindow::new(config.pard.window)),
                wcl_window: Mutex::new(LinearWeightedWindow::new(config.pard.window)),
                wait_reservoir: Mutex::new(Reservoir::new(
                    config.pard.reservoir_capacity,
                    0x11ee + m as u64,
                )),
            })
            .collect();
        let shared = Arc::new(Shared {
            has_merges: !graph::merge_nodes(&spec).is_empty(),
            batch_sizes: plan.batch_sizes.clone(),
            exec_ms,
            per_worker_tput: plan.worker_throughput.clone(),
            clock: WallClock::new(config.time_scale),
            pard: config.pard,
            shutdown: AtomicBool::new(false),
            modules,
            records: Mutex::new(Vec::new()),
            unresolved: AtomicUsize::new(0),
            completion_tx: Mutex::new(None),
            recorder: Arc::new(FlightRecorder::new()),
            spec,
        });

        let mut handles = Vec::new();
        for m in 0..shared.spec.modules.len() {
            for w in 0..config.workers_per_module[m] {
                let shared = Arc::clone(&shared);
                let backend = backend_factory(m, &shared.clock);
                handles.push(std::thread::spawn(move || {
                    worker_loop(shared, m, w, backend);
                }));
            }
        }
        {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || controller_loop(shared)));
        }
        LiveCluster {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.clock.now()
    }

    /// Submits one request under the pipeline's default SLO; returns its
    /// id.
    pub fn submit(&self) -> u64 {
        self.submit_with(SubmitOptions::default())
    }

    /// Submits one request with per-request options (SLO override and a
    /// caller tag for completion routing); returns its id.
    pub fn submit_with(&self, options: SubmitOptions) -> u64 {
        let now = self.shared.clock.now();
        let deadline = now + options.slo.unwrap_or(self.shared.spec.slo);
        let merge_arrivals = if self.shared.has_merges {
            vec![(0, SimTime::ZERO); self.shared.spec.modules.len()]
        } else {
            Vec::new()
        };
        let id = {
            let mut records = self.shared.records.lock();
            records.push(LiveRecord {
                sent: now,
                deadline,
                tag: options.tag,
                stages: Vec::new(),
                outcome: Outcome::InFlight,
                merge_arrivals,
            });
            self.shared.unresolved.fetch_add(1, Ordering::Release);
            (records.len() - 1) as u64
        };
        let meta = ReqMeta {
            id,
            sent: now,
            deadline,
            arrived: now,
        };
        self.shared.enqueue(self.shared.spec.source(), meta, now);
        id
    }

    /// Registers a channel that receives a [`Completion`] the moment any
    /// request resolves. Replaces a previously registered sink.
    pub fn set_completion_sink(&self, sender: Sender<Completion>) {
        *self.shared.completion_tx.lock() = Some(sender);
    }

    /// The pipeline specification being served.
    pub fn spec(&self) -> &PipelineSpec {
        &self.shared.spec
    }

    /// The cluster's flight recorder (always recording).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Snapshot of the state edge admission control needs: per-module
    /// queue depths and the static batch plan.
    pub fn edge_state(&self) -> EdgeState {
        let queue_depths = (0..self.shared.spec.modules.len())
            .map(|m| {
                self.shared.modules[m]
                    .workers
                    .iter()
                    .map(|w| w.policy.lock().queue_len())
                    .sum()
            })
            .collect();
        EdgeState {
            queue_depths,
            workers: self
                .shared
                .modules
                .iter()
                .map(|m| m.workers.len())
                .collect(),
            batch_sizes: self.shared.batch_sizes.clone(),
            exec_ms: self.shared.exec_ms.clone(),
            slo: self.shared.spec.slo,
        }
    }

    /// Submits a Poisson stream of `rate` requests per *virtual* second
    /// for `duration` of virtual time (blocking the calling thread).
    ///
    /// Arrival instants are pre-drawn on the virtual clock; each wakeup
    /// submits everything that has come due, so high rates are honoured
    /// even when they exceed the OS sleep granularity.
    pub fn run_open_loop(&self, rate: f64, duration: SimDuration, seed: u64) {
        assert!(rate > 0.0, "rate must be positive");
        let mut rng = DetRng::new(seed);
        let start = self.shared.clock.now();
        let end = start + duration;
        let mut next = start + SimDuration::from_secs_f64(rng.exp(1.0 / rate));
        loop {
            let now = self.shared.clock.now();
            if now >= end {
                break;
            }
            while next <= now && next < end {
                self.submit();
                next += SimDuration::from_secs_f64(rng.exp(1.0 / rate));
            }
            if next > now {
                self.shared.clock.sleep(next.saturating_since(now));
            }
        }
    }

    /// Waits for in-flight requests to resolve (bounded by
    /// `drain_virtual`), stops all threads, and returns the log.
    pub fn finish(self, drain_virtual: SimDuration) -> RequestLog {
        self.drain(drain_virtual)
    }

    /// [`LiveCluster::finish`] through a shared reference, for callers
    /// that hold the cluster behind a trait object. Idempotent: the
    /// first call stops the engine and takes the log; later calls
    /// return an empty log.
    pub fn drain(&self, drain_virtual: SimDuration) -> RequestLog {
        let deadline = self.shared.clock.now() + drain_virtual;
        loop {
            let pending = self.shared.unresolved.load(Ordering::Acquire) > 0;
            if !pending || self.shared.clock.now() >= deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for module in &self.shared.modules {
            for worker in &module.workers {
                worker.cv.notify_all();
            }
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
        // Completion consumers unblock once the engine is down.
        *self.shared.completion_tx.lock() = None;
        let records = std::mem::take(&mut *self.shared.records.lock());
        let mut log = RequestLog::new();
        for (id, r) in records.into_iter().enumerate() {
            log.push(RequestRecord {
                id: id as u64,
                sent: r.sent,
                deadline: r.deadline,
                stages: r.stages,
                outcome: r.outcome,
            });
        }
        log
    }
}

fn worker_loop(shared: Arc<Shared>, m: usize, w: usize, mut backend: Box<dyn InferenceBackend>) {
    let is_sink = shared.spec.modules[m].subs.is_empty();
    loop {
        let mut drops: Vec<(ReqMeta, DropReason)> = Vec::new();
        let mut batch: Vec<(ReqMeta, SimTime)> = Vec::new();
        {
            let worker = &shared.modules[m].workers[w];
            let mut policy = worker.policy.lock();
            while policy.queue_len() == 0 {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                worker
                    .cv
                    .wait_for(&mut policy, std::time::Duration::from_millis(5));
            }
            let now = shared.clock.now();
            let b = shared.batch_sizes[m];
            let ctx = PopCtx {
                now,
                expected_exec_start: now,
                exec_duration: SimDuration::from_millis_f64(shared.exec_ms[m]),
                batch_size: b,
            };
            drops.extend(policy.on_batch_open(&ctx));
            while batch.len() < b {
                match policy.pop_next(&ctx) {
                    PopOutcome::Admit(meta) => batch.push((meta, now)),
                    PopOutcome::Drop(meta, reason) => drops.push((meta, reason)),
                    PopOutcome::Empty => break,
                }
            }
        }
        let now = shared.clock.now();
        for (meta, reason) in drops {
            shared.mark_dropped(meta.id, m, now, reason);
        }
        // Cancelled sibling fragments (their request was dropped on
        // another DAG branch) are discarded before execution. Only
        // pipelines with parallel branches can have them: a chain
        // request has one fragment, which cannot be resolved while
        // queued — so chains skip the records lock entirely. (Any
        // valid split reconverges by the single sink, so `has_merges`
        // is exactly "has parallel branches".)
        if shared.has_merges {
            shared.cancel_resolved(&mut batch);
        }
        if batch.is_empty() {
            continue;
        }
        let t_e = shared.clock.now();
        backend.execute(batch.len());
        let end = shared.clock.now();
        let gpu_share = end.saturating_since(t_e) / batch.len() as u64;
        for (meta, t_b) in &batch {
            let stage = StageRecord {
                module: m,
                worker: w,
                arrived: meta.arrived,
                batched: *t_b,
                exec_start: t_e,
                exec_end: end,
                batch_size: batch.len(),
                gpu_share,
            };
            {
                let module = &shared.modules[m];
                module
                    .q_window
                    .lock()
                    .push(end, t_b.saturating_since(meta.arrived).as_millis_f64());
                module
                    .wait_reservoir
                    .lock()
                    .record(t_e.saturating_since(*t_b).as_millis_f64());
                module
                    .wcl_window
                    .lock()
                    .push(end, end.saturating_since(meta.arrived).as_millis_f64());
            }
            let mut records = shared.records.lock();
            let record = &mut records[meta.id as usize];
            record.stages.push(stage);
            // A sibling branch may have dropped the request while this
            // fragment was executing; the stage is still recorded, but
            // the request neither completes nor forwards.
            let active = matches!(record.outcome, Outcome::InFlight);
            let mut completion = None;
            if active && is_sink {
                record.outcome = Outcome::Completed { finished: end };
                shared.unresolved.fetch_sub(1, Ordering::Release);
                completion = Some(Completion {
                    id: meta.id,
                    tag: record.tag,
                    sent: record.sent,
                    deadline: record.deadline,
                    outcome: record.outcome,
                });
            }
            drop(records);
            shared.recorder.record(&ObsEvent {
                t_us: end.as_micros(),
                req: meta.id,
                kind: ObsKind::Stage {
                    module: m as u16,
                    worker: w as u16,
                    batch: batch.len() as u16,
                    arrived_us: meta.arrived.as_micros(),
                    batched_us: t_b.as_micros(),
                    exec_start_us: t_e.as_micros(),
                    exec_end_us: end.as_micros(),
                },
            });
            if let Some(completion) = completion {
                shared.recorder.record(&ObsEvent {
                    t_us: end.as_micros(),
                    req: meta.id,
                    kind: ObsKind::Completed {
                        finished_us: end.as_micros(),
                        deadline_us: completion.deadline.as_micros(),
                    },
                });
                shared.notify(completion);
            }
            if active && !is_sink {
                shared.forward(m, meta, end);
            }
        }
    }
}

fn controller_loop(shared: Arc<Shared>) {
    let n = shared.spec.modules.len();
    let mut planners: Vec<StatePlanner> = (0..n)
        .map(|k| {
            StatePlanner::new(
                k,
                graph::downstream_paths(&shared.spec, k),
                shared.pard.lambda,
                shared.pard.mc_draws,
                shared.pard.rate_history_len,
                DetRng::new(0x900d + k as u64),
            )
        })
        .collect();
    let mut published: Vec<ModuleState> = (0..n).map(ModuleState::empty).collect();
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.clock.sleep(shared.pard.sync_period);
        let now = shared.clock.now();
        let fresh: Vec<ModuleState> = (0..n)
            .map(|k| {
                let module = &shared.modules[k];
                let input = module.input_meter.lock().rate(now);
                let workers = module.workers.len();
                ModuleState {
                    module: k,
                    avg_queueing_ms: module.q_window.lock().mean(now).unwrap_or(0.0),
                    batch_size: shared.batch_sizes[k],
                    exec_ms: shared.exec_ms[k],
                    throughput: workers as f64 * shared.per_worker_tput[k],
                    input_rate: input,
                    drop_rate: 0.0,
                    worst_case_ms: module
                        .wcl_window
                        .lock()
                        .max(now)
                        .unwrap_or(shared.exec_ms[k]),
                    wait_sample_ms: module
                        .wait_reservoir
                        .lock()
                        .samples()
                        .iter()
                        .take(shared.pard.wait_digest_len)
                        .map(|&x| x as f32)
                        .collect(),
                }
            })
            .collect();
        for k in 0..n {
            let view_modules: Vec<ModuleState> = (0..n)
                .map(|i| {
                    if i == k {
                        fresh[i].clone()
                    } else {
                        published[i].clone()
                    }
                })
                .collect();
            let view = PipelineView {
                taken_at: now,
                modules: view_modules,
            };
            let epsilon = planners[k].observe_input_rate(fresh[k].input_rate);
            let sub = planners[k].estimate(&view);
            let update = SyncUpdate {
                module: k,
                sub,
                load_factor: fresh[k].load_factor(),
                epsilon,
                wcl_cum_budget: StatePlanner::wcl_cumulative_budgets(&view, shared.spec.slo)[k],
                input_rate: fresh[k].input_rate,
                view,
            };
            for worker in &shared.modules[k].workers {
                worker.policy.lock().on_sync(&update);
            }
        }
        published = fresh;
    }
}
