//! Seeded continuous-interference processes.
//!
//! A step-function `SlowWorker` fault models maintenance; real
//! co-located serving sees *continuous* interference — noisy
//! neighbours, cache and bandwidth contention — that drifts on
//! second scales and invalidates a static latency profile (the ODIN
//! observation). This module generates that interference as a
//! [`SlowdownTrace`]: a piecewise-constant per-worker execution
//! slowdown factor, precomputed from a [`DetRng`] stream so the same
//! `(seed, stream id)` pair yields the identical trace everywhere it
//! is consumed.
//!
//! Precomputation is the whole trick: the discrete-event simulator
//! folds the trace's change points into its event schedule, so the
//! interference a scenario injects is fixed by the configuration
//! whichever clock — stepped or wall-paced — drives the simulator.
//!
//! Two processes are provided:
//!
//! * [`WalkParams`] — a mean-reverting (Ornstein–Uhlenbeck style)
//!   random walk, clamped to `[lo, hi]`: contention that wanders and
//!   is pulled back toward a long-run mean.
//! * [`MarkovParams`] — a two-state (calm/contended) Markov
//!   modulation: abrupt arrival and departure of a noisy neighbour.

use crate::rng::DetRng;

/// A precomputed, piecewise-constant slowdown schedule over a window
/// of virtual time. Outside `[from_us, until_us)` the factor is 1.0
/// (no interference); inside, the factor for step `n` applies to
/// `[from_us + n·period_us, from_us + (n+1)·period_us)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowdownTrace {
    /// Window start, absolute virtual µs.
    pub from_us: u64,
    /// Window end, absolute virtual µs.
    pub until_us: u64,
    /// Step length, µs (> 0).
    pub period_us: u64,
    /// Slowdown factor per step (1.0 = nominal speed).
    pub factors: Vec<f64>,
}

impl SlowdownTrace {
    /// The slowdown factor in effect at absolute virtual time `t_us`.
    pub fn factor_at(&self, t_us: u64) -> f64 {
        if t_us < self.from_us || t_us >= self.until_us || self.factors.is_empty() {
            return 1.0;
        }
        let step = ((t_us - self.from_us) / self.period_us.max(1)) as usize;
        self.factors[step.min(self.factors.len() - 1)]
    }

    /// The timestamps (absolute virtual µs) at which the factor may
    /// change: every step boundary in `[from_us, until_us)` plus the
    /// recovery instant `until_us`. This is the schedule a
    /// discrete-event executor replays the trace on.
    pub fn change_points(&self) -> impl Iterator<Item = u64> + '_ {
        let period = self.period_us.max(1);
        (0..self.factors.len() as u64)
            .map(move |n| self.from_us + n * period)
            .filter(move |&t| t < self.until_us)
            .chain(std::iter::once(self.until_us))
    }

    /// Number of steps in the trace.
    pub fn steps(&self) -> usize {
        self.factors.len()
    }
}

/// Mean-reverting random-walk interference (discretised
/// Ornstein–Uhlenbeck, clamped to `[lo, hi]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalkParams {
    /// Lower clamp on the slowdown factor (≥ a small positive bound).
    pub lo: f64,
    /// Upper clamp on the slowdown factor (≥ `lo`).
    pub hi: f64,
    /// Long-run mean the walk reverts toward.
    pub mean: f64,
    /// Reversion strength per step in `(0, 1]`: the fraction of the
    /// gap to `mean` recovered each step.
    pub theta: f64,
    /// Per-step noise standard deviation.
    pub sigma: f64,
}

/// Two-state Markov-modulated interference: each step the worker is
/// either `calm` or `contended`, with geometric dwell times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MarkovParams {
    /// Slowdown factor in the calm state (usually 1.0).
    pub calm: f64,
    /// Slowdown factor in the contended state (> `calm`).
    pub contended: f64,
    /// Per-step probability of entering contention from calm.
    pub p_enter: f64,
    /// Per-step probability of leaving contention.
    pub p_exit: f64,
}

fn steps_for(from_us: u64, until_us: u64, period_us: u64) -> usize {
    let span = until_us.saturating_sub(from_us);
    (span.div_ceil(period_us.max(1))) as usize
}

/// Generates a mean-reverting walk trace over `[from_us, until_us)`
/// at `period_us` resolution from the given seeded stream. The walk
/// starts at `mean` and every step is clamped into `[lo, hi]`, so the
/// factor is bounded by construction.
pub fn walk_trace(
    rng: &mut DetRng,
    params: &WalkParams,
    from_us: u64,
    until_us: u64,
    period_us: u64,
) -> SlowdownTrace {
    let steps = steps_for(from_us, until_us, period_us);
    let mut factors = Vec::with_capacity(steps);
    let mut x = params.mean.clamp(params.lo, params.hi);
    for _ in 0..steps {
        factors.push(x);
        let noise = params.sigma * rng.std_normal();
        x = (x + params.theta * (params.mean - x) + noise).clamp(params.lo, params.hi);
    }
    SlowdownTrace {
        from_us,
        until_us,
        period_us: period_us.max(1),
        factors,
    }
}

/// Generates a two-state Markov-modulated trace over
/// `[from_us, until_us)` at `period_us` resolution. The chain starts
/// calm; every step's factor is exactly `calm` or `contended`.
pub fn markov_trace(
    rng: &mut DetRng,
    params: &MarkovParams,
    from_us: u64,
    until_us: u64,
    period_us: u64,
) -> SlowdownTrace {
    let steps = steps_for(from_us, until_us, period_us);
    let mut factors = Vec::with_capacity(steps);
    let mut contended = false;
    for _ in 0..steps {
        factors.push(if contended {
            params.contended
        } else {
            params.calm
        });
        let flip = if contended {
            params.p_exit
        } else {
            params.p_enter
        };
        if rng.chance(flip) {
            contended = !contended;
        }
    }
    SlowdownTrace {
        from_us,
        until_us,
        period_us: period_us.max(1),
        factors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk() -> WalkParams {
        WalkParams {
            lo: 1.0,
            hi: 4.0,
            mean: 2.0,
            theta: 0.2,
            sigma: 0.5,
        }
    }

    #[test]
    fn factor_is_one_outside_the_window() {
        let mut rng = DetRng::new(1);
        let trace = walk_trace(&mut rng, &walk(), 1_000_000, 2_000_000, 100_000);
        assert_eq!(trace.factor_at(0), 1.0);
        assert_eq!(trace.factor_at(999_999), 1.0);
        assert_eq!(trace.factor_at(2_000_000), 1.0);
        assert!(trace.factor_at(1_000_000) >= 1.0);
    }

    #[test]
    fn walk_stays_clamped_and_is_seed_deterministic() {
        let p = walk();
        let mut a = DetRng::new(7).fork(3);
        let mut b = DetRng::new(7).fork(3);
        let ta = walk_trace(&mut a, &p, 0, 60_000_000, 250_000);
        let tb = walk_trace(&mut b, &p, 0, 60_000_000, 250_000);
        assert_eq!(ta, tb, "same seed, same trace");
        assert_eq!(ta.steps(), 240);
        for &f in &ta.factors {
            assert!((p.lo..=p.hi).contains(&f), "factor {f} out of bounds");
        }
        let mut c = DetRng::new(8).fork(3);
        let tc = walk_trace(&mut c, &p, 0, 60_000_000, 250_000);
        assert_ne!(ta, tc, "different seeds diverge");
    }

    #[test]
    fn walk_reverts_toward_the_mean() {
        // Long-run average of the clamped OU walk sits near `mean`,
        // far from the clamp bounds.
        let p = walk();
        let mut rng = DetRng::new(99);
        let t = walk_trace(&mut rng, &p, 0, 3_600_000_000, 100_000);
        let avg: f64 = t.factors.iter().sum::<f64>() / t.factors.len() as f64;
        assert!(
            (avg - p.mean).abs() < 0.3,
            "long-run average {avg} should hug the mean {}",
            p.mean
        );
    }

    #[test]
    fn markov_alternates_between_exactly_two_levels() {
        let p = MarkovParams {
            calm: 1.0,
            contended: 3.0,
            p_enter: 0.2,
            p_exit: 0.3,
        };
        let mut rng = DetRng::new(5);
        let t = markov_trace(&mut rng, &p, 0, 120_000_000, 200_000);
        assert!(t.factors.iter().all(|&f| f == 1.0 || f == 3.0));
        assert!(t.factors.contains(&1.0), "chain visits calm");
        assert!(t.factors.contains(&3.0), "chain visits contended");
    }

    #[test]
    fn change_points_cover_every_step_and_the_recovery() {
        let mut rng = DetRng::new(2);
        let t = walk_trace(&mut rng, &walk(), 500_000, 1_000_000, 200_000);
        let points: Vec<u64> = t.change_points().collect();
        assert_eq!(points, vec![500_000, 700_000, 900_000, 1_000_000]);
    }

    #[test]
    fn empty_window_yields_no_steps() {
        let mut rng = DetRng::new(3);
        let t = walk_trace(&mut rng, &walk(), 5, 5, 100);
        assert_eq!(t.steps(), 0);
        assert_eq!(t.factor_at(5), 1.0);
    }
}
