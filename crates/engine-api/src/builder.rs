//! Constructing an [`EngineHandle`] for either backend.

use std::fmt;

use pard_cluster::{ClusterConfig, FaultSpec, SimServer, UnknownModelError};
use pard_core::{PardPolicy, PardPolicyConfig, PolicyFactory};
use pard_pipeline::{PipelineSpec, SpecError};
use pard_profile::ModelProfile;
use pard_sim::SimDuration;

use crate::handle::EngineHandle;
use crate::paced::{LiveConfig, PacedEngine};
use crate::sim::SimEngine;

/// Which clock drives the pipeline. Both run the same simulated
/// cluster; they differ in who moves its virtual time.
pub enum Backend {
    /// The wall clock, scaled ([`PacedEngine`]): requests are stamped
    /// on arrival and answered when virtual time reaches their
    /// outcome, as a live deployment would answer them.
    Live(LiveConfig),
    /// The caller ([`SimEngine`] over a [`SimServer`]): virtual time
    /// moves only when pumped or advanced, so outcomes are
    /// deterministic from the submit order and `config.seed`.
    Sim(ClusterConfig),
}

/// Why an engine could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A module name has no profile-zoo entry (and no explicit profiles
    /// were supplied).
    UnknownModel {
        /// The module name that failed zoo lookup.
        module: String,
    },
    /// The pipeline specification failed structural validation.
    InvalidSpec(SpecError),
    /// A configuration vector does not match the pipeline shape.
    Config(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownModel { module } => {
                write!(f, "model {module:?} is not in the profile zoo")
            }
            EngineError::InvalidSpec(e) => write!(f, "invalid pipeline spec: {e}"),
            EngineError::Config(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<UnknownModelError> for EngineError {
    fn from(e: UnknownModelError) -> EngineError {
        EngineError::UnknownModel { module: e.module }
    }
}

/// Worker vectors must match the pipeline shape and name runnable
/// pools — checked here with a typed error instead of panicking deep
/// inside the cluster's own `validate`.
fn check_worker_counts(workers: &[usize], modules: usize) -> Result<(), EngineError> {
    if workers.len() != modules {
        return Err(EngineError::Config(format!(
            "{} worker counts for {modules} modules",
            workers.len()
        )));
    }
    if let Some(module) = workers.iter().position(|&n| n == 0) {
        return Err(EngineError::Config(format!(
            "module {module} has 0 workers; every module needs at least 1"
        )));
    }
    Ok(())
}

/// Fault schedules must name reachable targets and well-ordered
/// windows — checked at build time with typed errors, because a fault
/// aimed at a worker that never exists is a silent no-op at fire time
/// (the handler ignores unknown workers). `pinned_workers` is `Some`
/// when the pool size is knowable now (without autoscaling); growing
/// pools can only have their module index checked.
fn check_fault_targets(
    faults: &[FaultSpec],
    modules: usize,
    pinned_workers: Option<&[usize]>,
) -> Result<(), EngineError> {
    for (i, fault) in faults.iter().enumerate() {
        let (module, worker) = fault.target();
        if module >= modules {
            return Err(EngineError::Config(format!(
                "fault #{i} targets module {module}, but the pipeline has {modules} modules"
            )));
        }
        if let Some(workers) = pinned_workers {
            if worker >= workers[module] {
                return Err(EngineError::Config(format!(
                    "fault #{i} targets worker {worker} of module {module}, which has only \
                     {} workers",
                    workers[module]
                )));
            }
        }
        // Swapped bounds would fire the recovery before the onset,
        // leaving the worker degraded forever.
        match *fault {
            FaultSpec::SlowWorker { from, until, .. }
            | FaultSpec::InterferenceWalk { from, until, .. }
            | FaultSpec::InterferenceMarkov { from, until, .. } => {
                if from >= until {
                    return Err(EngineError::Config(format!(
                        "fault #{i}: window [{from:?}, {until:?}) is empty or inverted"
                    )));
                }
            }
            FaultSpec::WorkerCrash { .. } => {}
        }
    }
    Ok(())
}

/// Builds an [`EngineHandle`] for a pipeline: resolve profiles, pick a
/// policy, pick a [`Backend`].
///
/// ```
/// use pard_engine_api::{Backend, ClusterConfig, EngineBuilder};
/// use pard_pipeline::AppKind;
///
/// let engine = EngineBuilder::for_app(AppKind::Tm)
///     .build(Backend::Sim(ClusterConfig::default()))
///     .expect("builtin models are in the zoo");
/// assert_eq!(engine.spec().name, "tm");
/// ```
pub struct EngineBuilder {
    spec: PipelineSpec,
    profiles: Option<Vec<ModelProfile>>,
    policy: Option<PolicyFactory>,
    workers_per_module: Option<Vec<usize>>,
    faults: Option<Vec<FaultSpec>>,
    autoscale: Option<bool>,
    worker_cap: Option<usize>,
    cold_start: Option<SimDuration>,
    exec_jitter_sigma: Option<f64>,
    net_delay: Option<SimDuration>,
    recorder_capacity: Option<usize>,
}

impl EngineBuilder {
    /// Starts a builder for an arbitrary pipeline (e.g. parsed from
    /// JSON via [`pard_pipeline::PipelineSpec::from_json`]).
    pub fn new(spec: PipelineSpec) -> EngineBuilder {
        EngineBuilder {
            spec,
            profiles: None,
            policy: None,
            workers_per_module: None,
            faults: None,
            autoscale: None,
            worker_cap: None,
            cold_start: None,
            exec_jitter_sigma: None,
            net_delay: None,
            recorder_capacity: None,
        }
    }

    /// Starts a builder for one of the paper's builtin applications.
    pub fn for_app(app: pard_pipeline::AppKind) -> EngineBuilder {
        EngineBuilder::new(app.pipeline())
    }

    /// Supplies explicit per-module profiles instead of zoo lookup.
    pub fn with_profiles(mut self, profiles: Vec<ModelProfile>) -> EngineBuilder {
        self.profiles = Some(profiles);
        self
    }

    /// Overrides the worker policy (default: PARD proactive dropping).
    pub fn with_policy(mut self, policy: PolicyFactory) -> EngineBuilder {
        self.policy = Some(policy);
        self
    }

    /// Overrides per-module worker counts (default: 2 per module
    /// unless `ClusterConfig::fixed_workers` says otherwise). Pins the
    /// pool, as [`ClusterConfig::with_fixed_workers`] does.
    pub fn with_workers(mut self, workers_per_module: Vec<usize>) -> EngineBuilder {
        self.workers_per_module = Some(workers_per_module);
        self
    }

    /// Injects faults that fire when virtual time passes their
    /// timestamps. Interference traces are drawn from
    /// `ClusterConfig::seed`.
    pub fn with_faults(mut self, faults: Vec<FaultSpec>) -> EngineBuilder {
        self.faults = Some(faults);
        self
    }

    /// Enables or disables the runtime scaling engine.
    pub fn with_autoscale(mut self, autoscale: bool) -> EngineBuilder {
        self.autoscale = Some(autoscale);
        self
    }

    /// Caps the total worker budget across modules. Takes effect only
    /// under autoscaling; inert otherwise.
    pub fn with_worker_cap(mut self, worker_cap: usize) -> EngineBuilder {
        self.worker_cap = Some(worker_cap);
        self
    }

    /// Sets the model cold-start delay of newly provisioned workers.
    /// Takes effect only under autoscaling; inert otherwise.
    pub fn with_cold_start(mut self, cold_start: SimDuration) -> EngineBuilder {
        self.cold_start = Some(cold_start);
        self
    }

    /// Sets the log-normal σ of execution-duration jitter; 0 disables.
    pub fn with_exec_jitter(mut self, sigma: f64) -> EngineBuilder {
        self.exec_jitter_sigma = Some(sigma);
        self
    }

    /// Sets the one-way client/module network delay.
    pub fn with_net_delay(mut self, net_delay: SimDuration) -> EngineBuilder {
        self.net_delay = Some(net_delay);
        self
    }

    /// Sizes the engine's flight-recorder ring (entries, rounded up to
    /// a power of two); `0` disables recording entirely. The default
    /// ring eagerly allocates ~65k slots, which dominates engine
    /// construction when thousands of short-lived engines are built —
    /// a parallel sweep disables it per cell.
    pub fn with_recorder_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.recorder_capacity = Some(capacity);
        self
    }

    /// Builds the engine behind the trait — the form front-ends like
    /// the gateway consume. For the concrete types use
    /// [`EngineBuilder::build_live`] / [`EngineBuilder::build_sim`].
    pub fn build(self, backend: Backend) -> Result<Box<dyn EngineHandle>, EngineError> {
        match backend {
            Backend::Live(config) => Ok(Box::new(self.build_live(config)?)),
            Backend::Sim(config) => Ok(Box::new(self.build_sim(config)?)),
        }
    }

    /// Builds the wall-paced engine with its concrete type exposed.
    pub fn build_live(self, config: LiveConfig) -> Result<PacedEngine, EngineError> {
        if !(config.time_scale.is_finite() && config.time_scale > 0.0) {
            return Err(EngineError::Config(format!(
                "time scale {} must be finite and positive",
                config.time_scale
            )));
        }
        let engine = self.build_engine(config.cluster, SimServer::wall_paced)?;
        Ok(PacedEngine::start(engine, config.time_scale))
    }

    /// Builds the stepped simulator engine with its concrete type
    /// exposed.
    pub fn build_sim(self, config: ClusterConfig) -> Result<SimEngine, EngineError> {
        self.build_engine(config, SimServer::new)
    }

    /// Folds this [`EngineBuilder`]'s overrides into `config`, checks
    /// it, and wraps the server `new_server` builds.
    fn build_engine(
        self,
        mut config: ClusterConfig,
        new_server: fn(
            PipelineSpec,
            Vec<ModelProfile>,
            PolicyFactory,
            ClusterConfig,
            Vec<usize>,
        ) -> SimServer,
    ) -> Result<SimEngine, EngineError> {
        let workers_override = self.workers_per_module.clone();
        let recorder_capacity = self
            .recorder_capacity
            .unwrap_or(pard_obs::FlightRecorder::DEFAULT_CAPACITY);
        // Builder-level cluster dynamics override the passed config.
        if let Some(faults) = self.faults.clone() {
            config.faults = faults;
        }
        if let Some(autoscale) = self.autoscale {
            config.autoscale = autoscale;
        }
        if let Some(worker_cap) = self.worker_cap {
            config.worker_cap = worker_cap;
        }
        if let Some(cold_start) = self.cold_start {
            config.cold_start = cold_start;
        }
        if let Some(sigma) = self.exec_jitter_sigma {
            config.exec_jitter_sigma = sigma;
        }
        if let Some(net_delay) = self.net_delay {
            config.net_delay = net_delay;
        }
        let (spec, profiles, policy) = self.resolve()?;
        // A builder override is a genuine override, matching
        // `ClusterConfig::with_fixed_workers` semantics (pins the pool
        // and disables autoscaling) — otherwise the config would record
        // counts the cluster is not actually running.
        if let Some(workers) = &workers_override {
            config.fixed_workers = Some(workers.clone());
            config.autoscale = false;
        }
        let workers = workers_override
            .or_else(|| config.fixed_workers.clone())
            .unwrap_or_else(|| vec![2; spec.modules.len()]);
        check_worker_counts(&workers, spec.modules.len())?;
        if config.worker_cap == 0 {
            return Err(EngineError::Config("worker cap must be at least 1".into()));
        }
        if !config.exec_jitter_sigma.is_finite() || config.exec_jitter_sigma < 0.0 {
            return Err(EngineError::Config(format!(
                "execution jitter sigma {} must be finite and non-negative",
                config.exec_jitter_sigma
            )));
        }
        check_fault_targets(
            &config.faults,
            spec.modules.len(),
            (!config.autoscale).then_some(workers.as_slice()),
        )?;
        let server = new_server(spec, profiles, policy, config, workers);
        Ok(SimEngine::with_recorder_capacity(server, recorder_capacity))
    }

    /// Validates the spec and resolves profiles and policy.
    fn resolve(self) -> Result<(PipelineSpec, Vec<ModelProfile>, PolicyFactory), EngineError> {
        self.spec.validate().map_err(EngineError::InvalidSpec)?;
        let modules = self.spec.modules.len();
        let profiles = match self.profiles {
            Some(profiles) => {
                if profiles.len() != modules {
                    return Err(EngineError::Config(format!(
                        "{} profiles supplied for {modules} modules",
                        profiles.len()
                    )));
                }
                profiles
            }
            None => pard_cluster::resolve_profiles(&self.spec)?,
        };
        let policy = self
            .policy
            .unwrap_or_else(|| Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard()))));
        Ok((self.spec, profiles, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_pipeline::AppKind;
    use pard_sim::SimTime;

    fn config_error(result: Result<SimEngine, EngineError>) -> String {
        match result {
            Err(EngineError::Config(message)) => message,
            other => panic!("expected EngineError::Config, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn worker_override_length_mismatch_is_a_typed_error() {
        let e = config_error(
            EngineBuilder::for_app(AppKind::Tm)
                .with_workers(vec![1, 1])
                .build_sim(ClusterConfig::default()),
        );
        assert!(e.contains("2 worker counts for 3 modules"), "{e}");
    }

    #[test]
    fn zero_worker_counts_are_a_typed_error_not_a_panic() {
        // Via the builder override…
        let e = config_error(
            EngineBuilder::for_app(AppKind::Tm)
                .with_workers(vec![1, 0, 1])
                .build_sim(ClusterConfig::default()),
        );
        assert!(e.contains("module 1 has 0 workers"), "{e}");
        // …and via a config-level fixed_workers vector, which used to
        // panic inside ClusterConfig::validate.
        let e = config_error(
            EngineBuilder::for_app(AppKind::Tm)
                .build_sim(ClusterConfig::default().with_fixed_workers(vec![0, 1, 1])),
        );
        assert!(e.contains("module 0 has 0 workers"), "{e}");
    }

    #[test]
    fn live_builds_reject_worker_shape_errors_with_typed_errors() {
        let short = EngineBuilder::for_app(AppKind::Tm)
            .with_workers(vec![2])
            .build_live(LiveConfig::compressed(10.0, 3, 2))
            .err();
        assert!(matches!(short, Some(EngineError::Config(_))), "{short:?}");
        let zero = EngineBuilder::for_app(AppKind::Tm)
            .with_workers(vec![2, 0, 2])
            .build_live(LiveConfig::compressed(10.0, 3, 2))
            .err();
        assert!(matches!(zero, Some(EngineError::Config(_))), "{zero:?}");
    }

    #[test]
    fn crash_and_autoscale_serve_on_the_live_backend() {
        // The wall-paced engine runs the simulator's state machine, so a
        // worker crash and autoscaling serve on it too — and every
        // request is still answered exactly once.
        use crate::handle::{EngineHandle, SubmitSpec};
        let engine = EngineBuilder::for_app(AppKind::Tm)
            .with_faults(vec![FaultSpec::WorkerCrash {
                module: 0,
                worker: 0,
                at: SimTime::from_millis(500),
            }])
            .with_autoscale(true)
            .with_cold_start(SimDuration::from_millis(200))
            .build_live(LiveConfig::compressed(50.0, 3, 2))
            .expect("crash and autoscale build on live");
        let (tx, rx) = std::sync::mpsc::channel();
        engine.set_completion_sink(tx);
        // 200 requests over ~3 virtual seconds, across the crash and a
        // scaling evaluation.
        let ids: Vec<u64> = (0..200)
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_micros(300));
                engine.submit(SubmitSpec::default())
            })
            .collect();
        let totals = engine.drain(SimDuration::from_secs(30));
        let mut answers = std::collections::HashMap::new();
        for completion in rx.try_iter() {
            *answers.entry(completion.id).or_insert(0) += 1;
        }
        assert!(
            ids.iter().all(|id| answers.get(id) == Some(&1)),
            "{answers:?}"
        );
        assert_eq!(answers.len(), ids.len());
        assert_eq!(totals.requests, 200);
        assert!(totals.goodput > 0, "{totals:?}");
    }

    #[test]
    fn rejects_zero_scale() {
        for time_scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = EngineBuilder::for_app(AppKind::Tm)
                .build_live(LiveConfig {
                    time_scale,
                    ..LiveConfig::compressed(1.0, 3, 2)
                })
                .err();
            match err {
                Some(EngineError::Config(message)) => {
                    assert!(message.contains("time scale"), "{message}")
                }
                other => panic!("expected a Config error for {time_scale}, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_fault_modules_are_rejected_at_build_time() {
        let e = config_error(
            EngineBuilder::for_app(AppKind::Tm)
                .with_faults(vec![FaultSpec::SlowWorker {
                    module: 7,
                    worker: 0,
                    factor: 2.0,
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(1),
                }])
                .build_sim(ClusterConfig::default()),
        );
        assert!(e.contains("targets module 7"), "{e}");
    }

    #[test]
    fn inverted_slow_worker_windows_are_rejected_at_build_time() {
        // Swapped bounds would fire the recovery before the onset,
        // leaving the worker degraded forever.
        let e = config_error(
            EngineBuilder::for_app(AppKind::Tm)
                .with_faults(vec![FaultSpec::SlowWorker {
                    module: 0,
                    worker: 0,
                    factor: 2.0,
                    from: SimTime::from_secs(16),
                    until: SimTime::from_secs(8),
                }])
                .build_sim(ClusterConfig::default()),
        );
        assert!(e.contains("inverted"), "{e}");
    }

    #[test]
    fn out_of_range_fault_workers_are_rejected_for_pinned_pools() {
        // An unknown worker index would make the fault a silent no-op
        // at fire time; with a pinned pool the bound is knowable now.
        let e = config_error(
            EngineBuilder::for_app(AppKind::Tm)
                .with_workers(vec![1, 1, 1])
                .with_faults(vec![FaultSpec::WorkerCrash {
                    module: 0,
                    worker: 1,
                    at: SimTime::from_secs(1),
                }])
                .build_sim(ClusterConfig::default()),
        );
        assert!(e.contains("targets worker 1"), "{e}");
        // Autoscaling pools grow at runtime, so the same fault is
        // accepted there.
        let grown = EngineBuilder::for_app(AppKind::Tm)
            .with_autoscale(true)
            .with_faults(vec![FaultSpec::WorkerCrash {
                module: 0,
                worker: 5,
                at: SimTime::from_secs(1),
            }])
            .build_sim(ClusterConfig::default());
        assert!(grown.is_ok());
    }

    #[test]
    fn interference_faults_build_on_both_backends() {
        use pard_sim::WalkParams;
        let walk = || FaultSpec::InterferenceWalk {
            module: 0,
            worker: 0,
            walk: WalkParams {
                lo: 1.0,
                hi: 4.0,
                mean: 2.0,
                theta: 0.2,
                sigma: 0.3,
            },
            period: SimDuration::from_millis(250),
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(3),
        };
        let live = EngineBuilder::for_app(AppKind::Tm)
            .with_faults(vec![walk()])
            .build_live(LiveConfig::compressed(50.0, 3, 2));
        assert!(live.is_ok(), "{:?}", live.err().map(|e| e.to_string()));
        let sim = EngineBuilder::for_app(AppKind::Tm)
            .with_faults(vec![walk()])
            .build_sim(ClusterConfig::default());
        assert!(sim.is_ok());
        // Target validation applies to the live path too.
        let mut bad = walk();
        if let FaultSpec::InterferenceWalk { worker, .. } = &mut bad {
            *worker = 9;
        }
        let e = EngineBuilder::for_app(AppKind::Tm)
            .with_faults(vec![bad])
            .build_live(LiveConfig::compressed(50.0, 3, 2))
            .err();
        match e {
            Some(EngineError::Config(message)) => {
                assert!(message.contains("targets worker 9"), "{message}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn dag_pipelines_build_on_the_live_backend() {
        use crate::handle::EngineHandle;
        let engine = EngineBuilder::for_app(AppKind::Da)
            .build_live(LiveConfig::compressed(20.0, 4, 1))
            .expect("the live backend serves DAGs");
        assert_eq!(engine.spec().name, "da");
        assert!(!engine.spec().is_chain());
        let _ = engine.drain(SimDuration::from_secs(1));
    }

    #[test]
    fn invalid_specs_still_get_typed_errors_on_live() {
        // Genuinely invalid shapes (here: two sources) stay typed
        // errors, not a panic deep in the cluster.
        let mut spec = AppKind::Da.pipeline();
        spec.modules[0].subs.retain(|&s| s != 1);
        spec.modules[1].pres.clear();
        let err = EngineBuilder::new(spec)
            .build_live(LiveConfig::compressed(20.0, 4, 1))
            .err();
        assert!(matches!(err, Some(EngineError::InvalidSpec(_))), "{err:?}");
    }

    #[test]
    fn builder_dynamics_land_in_the_cluster_config() {
        // Observable end to end: a cranked-up net delay shifts a
        // request's first arrival, so the engine resolves it later.
        let engine = EngineBuilder::for_app(AppKind::Tm)
            .with_net_delay(SimDuration::from_millis(250))
            .with_exec_jitter(0.0)
            .with_autoscale(false)
            .build_sim(ClusterConfig::default())
            .expect("builds");
        use crate::handle::{EngineHandle, SubmitSpec};
        let id = engine.submit(SubmitSpec::default());
        engine.advance_to(SimTime::from_millis(200));
        // The arrival is still in flight at 200 ms (net delay 250 ms).
        assert_eq!(engine.edge_state().queue_depths[0], 0);
        let totals = engine.drain(SimDuration::from_secs(10));
        assert_eq!(totals.requests, 1);
        let events = engine.telemetry().expect("records").events_for(id);
        let first_arrival = events.iter().find_map(|e| match e.kind {
            pard_obs::ObsKind::Stage { arrived_us, .. } => Some(arrived_us),
            _ => None,
        });
        assert!(first_arrival >= Some(250_000), "{events:?}");
    }
}
