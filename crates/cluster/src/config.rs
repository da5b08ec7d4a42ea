//! Cluster configuration and fault injection specs.

use pard_core::PardConfig;
use pard_sim::{
    interference, DetRng, MarkovParams, SimDuration, SimTime, SlowdownTrace, WalkParams,
};

/// Stream-id namespace for interference traces: fault `i` draws from
/// `DetRng::new(seed).fork(INTERFERENCE_STREAM_BASE + i)`, far from
/// the small fork ids the cluster's own arrival/jitter streams use.
const INTERFERENCE_STREAM_BASE: u64 = 0x1F00;

/// An injected fault (failure-handling tests and benches).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// Worker crashes: its executing batch is lost, queued requests are
    /// re-dispatched, and the slot goes down permanently.
    WorkerCrash {
        /// Module of the crashing worker.
        module: usize,
        /// Worker index within the module.
        worker: usize,
        /// Crash time.
        at: SimTime,
    },
    /// Worker executes `factor`× slower during `[from, until)`.
    SlowWorker {
        /// Module of the degraded worker.
        module: usize,
        /// Worker index within the module.
        worker: usize,
        /// Execution-duration multiplier (> 1 slows down).
        factor: f64,
        /// Degradation start.
        from: SimTime,
        /// Degradation end.
        until: SimTime,
    },
    /// Continuous interference: the worker's execution slowdown follows
    /// a seeded mean-reverting random walk over `[from, until)`,
    /// re-drawn every `period` (see [`pard_sim::interference`]). The
    /// trace is a pure function of the cluster seed and the fault's
    /// index.
    InterferenceWalk {
        /// Module of the interfered worker.
        module: usize,
        /// Worker index within the module.
        worker: usize,
        /// Walk parameters (clamp bounds, mean, reversion, noise).
        walk: WalkParams,
        /// Step length of the piecewise-constant factor.
        period: SimDuration,
        /// Interference start.
        from: SimTime,
        /// Interference end (factor returns to 1.0).
        until: SimTime,
    },
    /// Continuous interference: a two-state (calm/contended) Markov
    /// modulation of the worker's execution slowdown — the abrupt
    /// arrival and departure of a noisy neighbour. Seeded like
    /// [`FaultSpec::InterferenceWalk`].
    InterferenceMarkov {
        /// Module of the interfered worker.
        module: usize,
        /// Worker index within the module.
        worker: usize,
        /// Chain parameters (state factors and flip probabilities).
        markov: MarkovParams,
        /// Step length of the piecewise-constant factor.
        period: SimDuration,
        /// Interference start.
        from: SimTime,
        /// Interference end (factor returns to 1.0).
        until: SimTime,
    },
}

impl FaultSpec {
    /// The `(module, worker)` the fault targets.
    pub fn target(&self) -> (usize, usize) {
        match *self {
            FaultSpec::WorkerCrash { module, worker, .. }
            | FaultSpec::SlowWorker { module, worker, .. }
            | FaultSpec::InterferenceWalk { module, worker, .. }
            | FaultSpec::InterferenceMarkov { module, worker, .. } => (module, worker),
        }
    }

    /// Materialises the interference schedule for this fault: the
    /// slowdown trace drawn from `DetRng::new(seed)` forked on the
    /// fault's position `index` in [`ClusterConfig::faults`]. `None`
    /// for non-interference faults.
    pub fn slowdown_trace(&self, seed: u64, index: u64) -> Option<SlowdownTrace> {
        let mut rng = DetRng::new(seed).fork(INTERFERENCE_STREAM_BASE + index);
        match *self {
            FaultSpec::InterferenceWalk {
                walk,
                period,
                from,
                until,
                ..
            } => Some(interference::walk_trace(
                &mut rng,
                &walk,
                from.as_micros(),
                until.as_micros(),
                period.as_micros(),
            )),
            FaultSpec::InterferenceMarkov {
                markov,
                period,
                from,
                until,
                ..
            } => Some(interference::markov_trace(
                &mut rng,
                &markov,
                from.as_micros(),
                until.as_micros(),
                period.as_micros(),
            )),
            FaultSpec::WorkerCrash { .. } | FaultSpec::SlowWorker { .. } => None,
        }
    }

    /// Validates the fault's parameters (windows, clamps,
    /// probabilities). Module/worker bounds are checked where the
    /// module count is known (the engine builder).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values (configurations are built once).
    pub fn validate_params(&self) {
        match *self {
            FaultSpec::WorkerCrash { .. } => {}
            FaultSpec::SlowWorker {
                factor,
                from,
                until,
                ..
            } => {
                assert!(factor > 0.0, "slowdown factor must be positive");
                assert!(from < until, "slow-worker window is inverted");
            }
            FaultSpec::InterferenceWalk {
                walk,
                period,
                from,
                until,
                ..
            } => {
                assert!(from < until, "interference window is inverted");
                assert!(
                    period > SimDuration::ZERO,
                    "interference period must be > 0"
                );
                assert!(walk.lo > 0.0, "walk lower clamp must be positive");
                assert!(walk.hi >= walk.lo, "walk clamp bounds are inverted");
                assert!(
                    (walk.lo..=walk.hi).contains(&walk.mean),
                    "walk mean must lie within the clamp bounds"
                );
                assert!(
                    walk.theta > 0.0 && walk.theta <= 1.0,
                    "walk reversion must be in (0, 1]"
                );
                assert!(walk.sigma >= 0.0, "walk noise must be non-negative");
            }
            FaultSpec::InterferenceMarkov {
                markov,
                period,
                from,
                until,
                ..
            } => {
                assert!(from < until, "interference window is inverted");
                assert!(
                    period > SimDuration::ZERO,
                    "interference period must be > 0"
                );
                assert!(markov.calm > 0.0, "calm factor must be positive");
                assert!(
                    markov.contended >= markov.calm,
                    "contended factor must be >= calm"
                );
                assert!(
                    (0.0..=1.0).contains(&markov.p_enter) && (0.0..=1.0).contains(&markov.p_exit),
                    "Markov flip probabilities must be in [0, 1]"
                );
            }
        }
    }
}

/// Full configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// PARD algorithm knobs (λ, windows, sync period, ...).
    pub pard: PardConfig,
    /// Total worker budget across all modules (§5.1: 64 GPUs).
    pub worker_cap: usize,
    /// Whether the scaling engine adjusts worker counts at runtime.
    pub autoscale: bool,
    /// Fixed per-module worker counts (stress test, Fig. 14a); overrides
    /// autoscaling when set.
    pub fixed_workers: Option<Vec<usize>>,
    /// Scaling evaluation period.
    pub scale_period: SimDuration,
    /// Model cold-start delay for a newly provisioned worker (§2).
    pub cold_start: SimDuration,
    /// Minimum time between scale-down operations per module.
    pub scale_down_cooldown: SimDuration,
    /// Capacity safety factor applied to measured input rates.
    pub safety_factor: f64,
    /// One-way network delay between client/modules.
    pub net_delay: SimDuration,
    /// Log-normal σ of execution-duration jitter (0 disables).
    pub exec_jitter_sigma: f64,
    /// Batch-planning headroom (multiple of `d(B)` per module share).
    pub headroom: f64,
    /// Master seed; all randomness forks from it.
    pub seed: u64,
    /// Extra simulated time after the trace ends so in-flight requests
    /// can finish.
    pub drain: SimDuration,
    /// Injected faults.
    pub faults: Vec<FaultSpec>,
    /// Dynamic DAG paths (§5.2): at a split, each request takes *one*
    /// randomly chosen branch instead of all of them, and merges fire on
    /// the first delivery. Latency estimation still assumes the maximum
    /// over paths, reproducing the paper's mis-estimation effect.
    pub dynamic_paths: bool,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            pard: PardConfig::default(),
            worker_cap: 64,
            autoscale: true,
            fixed_workers: None,
            scale_period: SimDuration::from_secs(2),
            cold_start: SimDuration::from_secs(4),
            scale_down_cooldown: SimDuration::from_secs(6),
            safety_factor: 1.25,
            net_delay: SimDuration::from_millis(1),
            exec_jitter_sigma: 0.02,
            headroom: 2.0,
            seed: 42,
            drain: SimDuration::from_secs(10),
            faults: Vec::new(),
            dynamic_paths: false,
        }
    }
}

impl ClusterConfig {
    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> ClusterConfig {
        self.seed = seed;
        self
    }

    /// Fixes per-module worker counts and disables autoscaling.
    pub fn with_fixed_workers(mut self, workers: Vec<usize>) -> ClusterConfig {
        self.fixed_workers = Some(workers);
        self.autoscale = false;
        self
    }

    /// Sets the PARD algorithm configuration.
    pub fn with_pard(mut self, pard: PardConfig) -> ClusterConfig {
        self.pard = pard;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values (configurations are built once).
    pub fn validate(&self) {
        self.pard.validate();
        assert!(self.worker_cap >= 1, "need at least one worker");
        assert!(self.safety_factor > 0.0, "safety factor must be positive");
        assert!(self.headroom > 0.0, "headroom must be positive");
        assert!(
            self.exec_jitter_sigma >= 0.0,
            "jitter sigma must be non-negative"
        );
        if let Some(w) = &self.fixed_workers {
            assert!(w.iter().all(|&n| n >= 1), "fixed workers must be >= 1");
        }
        for fault in &self.faults {
            fault.validate_params();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ClusterConfig::default().validate();
    }

    #[test]
    fn builder_methods() {
        let c = ClusterConfig::default()
            .with_seed(7)
            .with_fixed_workers(vec![2, 3, 4]);
        c.validate();
        assert_eq!(c.seed, 7);
        assert!(!c.autoscale);
        assert_eq!(c.fixed_workers.as_deref(), Some(&[2usize, 3, 4][..]));
    }

    #[test]
    #[should_panic(expected = "fixed workers")]
    fn rejects_zero_fixed_workers() {
        ClusterConfig::default()
            .with_fixed_workers(vec![0])
            .validate();
    }

    fn walk_fault() -> FaultSpec {
        FaultSpec::InterferenceWalk {
            module: 0,
            worker: 0,
            walk: WalkParams {
                lo: 1.0,
                hi: 4.0,
                mean: 2.0,
                theta: 0.3,
                sigma: 0.4,
            },
            period: SimDuration::from_millis(250),
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(11),
        }
    }

    #[test]
    fn interference_trace_is_a_pure_function_of_seed_and_index() {
        let fault = walk_fault();
        let a = fault.slowdown_trace(42, 0).expect("interference fault");
        let b = fault.slowdown_trace(42, 0).expect("interference fault");
        assert_eq!(a, b, "same (seed, index), same trace");
        let c = fault.slowdown_trace(42, 1).expect("interference fault");
        assert_ne!(a, c, "sibling faults draw independent streams");
        let d = fault.slowdown_trace(43, 0).expect("interference fault");
        assert_ne!(a, d, "different seeds diverge");
        assert_eq!(a.steps(), 40);
    }

    #[test]
    fn step_faults_have_no_trace() {
        let crash = FaultSpec::WorkerCrash {
            module: 0,
            worker: 0,
            at: SimTime::from_secs(1),
        };
        assert!(crash.slowdown_trace(42, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "interference window")]
    fn rejects_inverted_interference_window() {
        let fault = FaultSpec::InterferenceWalk {
            module: 0,
            worker: 0,
            walk: WalkParams {
                lo: 1.0,
                hi: 2.0,
                mean: 1.5,
                theta: 0.5,
                sigma: 0.1,
            },
            period: SimDuration::from_millis(100),
            from: SimTime::from_secs(5),
            until: SimTime::from_secs(2),
        };
        ClusterConfig {
            faults: vec![fault],
            ..ClusterConfig::default()
        }
        .validate();
    }
}
