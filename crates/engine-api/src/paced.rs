//! [`EngineHandle`] over the simulator's state machine, paced by the
//! wall clock.

use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use pard_cluster::{ClusterConfig, EdgeState};
use pard_core::PardConfig;
use pard_metrics::ServedTotals;
use pard_obs::FlightRecorder;
use pard_pipeline::PipelineSpec;
use pard_sim::{SimDuration, SimTime};

use crate::handle::{Completion, EngineHandle, RequestId, SubmitSpec};
use crate::sim::SimEngine;

/// Configuration of the wall-paced engine ([`crate::Backend::Live`]):
/// the cluster it runs, and how fast its clock goes.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Virtual seconds per wall second (experiment compression; 1 is
    /// real time).
    pub time_scale: f64,
    /// The cluster the engine runs: planner knobs, workers, faults,
    /// scaling, jitter, network delay and seed, as on the simulator.
    pub cluster: ClusterConfig,
}

impl LiveConfig {
    /// `scale`× compression of `workers` pinned workers per module, a
    /// light planner (500 Monte-Carlo draws), no network delay and no
    /// execution jitter — the serving model of fast tests and demos.
    pub fn compressed(scale: f64, modules: usize, workers: usize) -> LiveConfig {
        LiveConfig {
            time_scale: scale,
            cluster: ClusterConfig {
                net_delay: SimDuration::ZERO,
                exec_jitter_sigma: 0.0,
                ..ClusterConfig::default()
                    .with_fixed_workers(vec![workers; modules])
                    .with_pard(PardConfig::default().with_mc_draws(500))
            },
        }
    }
}

/// Virtual time as a scaled reading of the wall clock.
struct Pace {
    origin: Instant,
    time_scale: f64,
}

impl Pace {
    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.origin.elapsed().as_secs_f64() * self.time_scale)
    }

    /// The wall instant at which virtual time reaches `t`; `None` when
    /// it lies beyond what an [`Instant`] can hold.
    fn wall_at(&self, t: SimTime) -> Option<Instant> {
        let wall = Duration::try_from_secs_f64(t.as_secs_f64() / self.time_scale).ok()?;
        // One microsecond late, so the clock has reached `t` on waking.
        self.origin.checked_add(wall + Duration::from_micros(1))
    }
}

#[derive(Default)]
struct Wakes {
    /// Bumped by every submit: the pacer sleeps only while it is
    /// unchanged since its last advance.
    generation: u64,
    stopped: bool,
}

struct Shared {
    engine: SimEngine,
    pace: Pace,
    wakes: Mutex<Wakes>,
    wake: Condvar,
}

/// The wall-paced engine behind [`crate::Backend::Live`]: a
/// [`SimEngine`] over [`pard_cluster::SimServer::wall_paced`], driven
/// by one thread that keeps its clock at `elapsed wall × time_scale`.
///
/// The pacer advances to wall-now, then sleeps until the next queued
/// event is due or a submit wakes it. A submit first advances to
/// wall-now, then stamps the request there. Completions go to the sink
/// from whichever call resolved them — the pacer or a submit — so the
/// engine is self-driving ([`EngineHandle::stepped`] is `false`).
/// Outcomes are a pure function of the arrival stamps and the seed;
/// what varies between runs is only where the wall clock puts those
/// stamps.
pub struct PacedEngine {
    shared: Arc<Shared>,
    pacer: Mutex<Option<JoinHandle<()>>>,
}

impl PacedEngine {
    /// Starts pacing `engine`, which must wrap a wall-paced server, at
    /// `time_scale` virtual seconds per wall second.
    pub(crate) fn start(engine: SimEngine, time_scale: f64) -> PacedEngine {
        let name = format!("pard-pacer-{}", engine.spec().name);
        let shared = Arc::new(Shared {
            engine,
            pace: Pace {
                origin: Instant::now(),
                time_scale,
            },
            wakes: Mutex::new(Wakes::default()),
            wake: Condvar::new(),
        });
        let pacer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || pace(&shared))
                .expect("spawn the pacer thread")
        };
        PacedEngine {
            shared,
            pacer: Mutex::new(Some(pacer)),
        }
    }

    /// Request records the engine holds right now (see
    /// [`SimEngine::resident`]).
    pub fn resident(&self) -> usize {
        self.shared.engine.resident()
    }

    /// Stops and joins the pacer; the clock stays where it got to.
    fn stop(&self) {
        self.shared.wakes.lock().stopped = true;
        self.shared.wake.notify_one();
        if let Some(pacer) = self.pacer.lock().take() {
            let _ = pacer.join();
        }
    }
}

impl Drop for PacedEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The pacer loop: advance to wall-now, then sleep until the next
/// queued event is due, unless a submit came in meanwhile.
fn pace(shared: &Shared) {
    loop {
        let seen = {
            let wakes = shared.wakes.lock();
            if wakes.stopped {
                return;
            }
            wakes.generation
        };
        shared.engine.advance_to(shared.pace.now());
        let due = shared
            .engine
            .next_event()
            .and_then(|t| shared.pace.wall_at(t));
        let mut wakes = shared.wakes.lock();
        if wakes.stopped || wakes.generation != seen {
            continue;
        }
        match due {
            Some(at) => {
                let timeout = at.saturating_duration_since(Instant::now());
                shared.wake.wait_for(&mut wakes, timeout);
            }
            None => shared.wake.wait(&mut wakes),
        }
    }
}

impl EngineHandle for PacedEngine {
    fn spec(&self) -> &PipelineSpec {
        self.shared.engine.spec()
    }

    fn now(&self) -> SimTime {
        self.shared.pace.now()
    }

    fn submit(&self, spec: SubmitSpec) -> RequestId {
        let at = Some(self.shared.pace.now());
        let id = self.shared.engine.submit(SubmitSpec { at, ..spec });
        self.shared.wakes.lock().generation += 1;
        self.shared.wake.notify_one();
        id
    }

    fn edge_state(&self) -> EdgeState {
        self.shared.engine.edge_state()
    }

    fn set_completion_sink(&self, sink: Sender<Completion>) {
        self.shared.engine.set_completion_sink(sink);
    }

    /// Stops the pacer, then resolves what is in flight at simulation
    /// speed, as the stepped engine does.
    fn drain(&self, limit: SimDuration) -> ServedTotals {
        self.stop();
        self.shared.engine.drain(limit)
    }

    fn telemetry(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.engine.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pace(time_scale: f64) -> Pace {
        Pace {
            origin: Instant::now(),
            time_scale,
        }
    }

    #[test]
    fn advances_monotonically() {
        let clock = pace(1.0);
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        assert!(clock.now() > a);
    }

    #[test]
    fn scale_compresses_time() {
        let clock = pace(50.0);
        std::thread::sleep(Duration::from_millis(10));
        // 10 ms wall at 50x is >= 500 ms virtual (scheduler slack only
        // adds more).
        assert!(clock.now() >= SimTime::from_millis(450));
    }

    #[test]
    fn sleep_advances_virtual_duration() {
        // Sleeping until `wall_at(t)` — what the pacer does before the
        // next event — lands at or just past `t`, not before it.
        let clock = pace(20.0);
        let t = SimTime::from_millis(100);
        let at = clock.wall_at(t).expect("representable");
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        let now = clock.now();
        assert!(now >= t, "woke at {now}, before {t}");
        assert!(now < SimTime::from_secs(5), "woke at {now}");
        // A virtual instant too far out for the wall clock to hold.
        assert_eq!(pace(1e-9).wall_at(SimTime::MAX), None);
    }
}
