//! Offline profiling: measure a backend, fit a [`ModelProfile`].
//!
//! PARD "performs an offline profiling to obtain per-model execution
//! duration and throughput under various batch sizes" (§5.1). The zoo's
//! analytic profiles are already known; anything else that can time a
//! batch is profiled the way a real deployment would be: run each batch
//! size a few times, take robust statistics, and fit the
//! `base + slope · B^gamma` model with a grid search over `gamma` and a
//! closed-form least-squares solution for `base`/`slope`.

use crate::ModelProfile;

/// Anything whose batch execution can be timed.
pub trait Profileable {
    /// Executes one batch of the given size and returns the wall time in
    /// milliseconds.
    fn run_batch(&mut self, batch: usize) -> f64;
}

/// One measured batch size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasuredPoint {
    /// Batch size measured.
    pub batch: usize,
    /// Mean latency across repetitions, milliseconds.
    pub mean_ms: f64,
    /// Population standard deviation across repetitions, milliseconds.
    pub std_ms: f64,
}

/// The raw result of a profiling pass.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredProfile {
    /// Measured points, in increasing batch order.
    pub points: Vec<MeasuredPoint>,
}

impl MeasuredProfile {
    /// Profiles `backend` at each batch size in `batches`, `reps` times
    /// each (after one warm-up run per size).
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty or `reps` is zero.
    pub fn collect(
        backend: &mut dyn Profileable,
        batches: &[usize],
        reps: usize,
    ) -> MeasuredProfile {
        assert!(!batches.is_empty(), "need at least one batch size");
        assert!(reps > 0, "need at least one repetition");
        let mut points = Vec::with_capacity(batches.len());
        for &b in batches {
            let _warmup = backend.run_batch(b);
            let samples: Vec<f64> = (0..reps).map(|_| backend.run_batch(b)).collect();
            let mean = samples.iter().sum::<f64>() / reps as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / reps as f64;
            points.push(MeasuredPoint {
                batch: b,
                mean_ms: mean,
                std_ms: var.sqrt(),
            });
        }
        points.sort_by_key(|p| p.batch);
        MeasuredProfile { points }
    }

    /// Fits an analytic [`ModelProfile`] to the measurements.
    pub fn fit(&self, name: impl Into<String>, max_batch: usize) -> ModelProfile {
        fit_profile(name, &self.points, max_batch)
    }
}

/// Least-squares fit of `d(B) = base + slope · B^gamma` to `points`.
///
/// `gamma` is selected by grid search over `[0.50, 1.00]` in steps of
/// 0.01; for each candidate the optimal `base`/`slope` follow from simple
/// linear regression of `mean_ms` against `B^gamma`. Degenerate fits
/// (non-positive base or slope) are clamped to small positive values so
/// the result is always a valid profile.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn fit_profile(
    name: impl Into<String>,
    points: &[MeasuredPoint],
    max_batch: usize,
) -> ModelProfile {
    assert!(!points.is_empty(), "cannot fit an empty profile");
    let n = points.len() as f64;
    let mut best: Option<(f64, f64, f64, f64)> = None; // (err, base, slope, gamma)
    let mut gamma = 0.50;
    while gamma <= 1.0 + 1e-9 {
        // Linear regression of y = mean_ms on x = B^gamma.
        let xs: Vec<f64> = points
            .iter()
            .map(|p| (p.batch as f64).powf(gamma))
            .collect();
        let ys: Vec<f64> = points.iter().map(|p| p.mean_ms).collect();
        let sx: f64 = xs.iter().sum();
        let sy: f64 = ys.iter().sum();
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        let (slope, base) = if denom.abs() < 1e-12 {
            (0.0, sy / n)
        } else {
            let slope = (n * sxy - sx * sy) / denom;
            (slope, (sy - slope * sx) / n)
        };
        let err: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| {
                let pred = base + slope * x;
                (pred - y) * (pred - y)
            })
            .sum();
        if best.is_none_or(|(e, ..)| err < e) {
            best = Some((err, base, slope, gamma));
        }
        gamma += 0.01;
    }
    let (_, base, slope, gamma) = best.expect("grid search always yields a candidate");
    ModelProfile::new(
        name,
        base.max(1e-3),
        slope.max(1e-3),
        gamma.min(1.0),
        max_batch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend whose true cost follows the analytic model exactly.
    struct AnalyticBackend {
        base: f64,
        slope: f64,
        gamma: f64,
    }

    impl Profileable for AnalyticBackend {
        fn run_batch(&mut self, batch: usize) -> f64 {
            self.base + self.slope * (batch as f64).powf(self.gamma)
        }
    }

    /// An analytic backend with deterministic "noise".
    struct NoisyBackend {
        inner: AnalyticBackend,
        tick: u32,
    }

    impl Profileable for NoisyBackend {
        fn run_batch(&mut self, batch: usize) -> f64 {
            self.tick += 1;
            let jitter = 1.0 + 0.01 * ((self.tick % 7) as f64 - 3.0) / 3.0;
            self.inner.run_batch(batch) * jitter
        }
    }

    #[test]
    fn fit_recovers_exact_model() {
        let mut backend = AnalyticBackend {
            base: 10.0,
            slope: 5.0,
            gamma: 0.9,
        };
        let measured = MeasuredProfile::collect(&mut backend, &[1, 2, 4, 8, 16, 32], 3);
        let fitted = measured.fit("exact", 32);
        assert!((fitted.gamma - 0.9).abs() < 0.011, "gamma {}", fitted.gamma);
        for b in [1, 4, 16, 32] {
            let true_ms = backend.run_batch(b);
            let rel = (fitted.latency_ms(b) - true_ms).abs() / true_ms;
            assert!(rel < 0.02, "batch {b}: rel err {rel}");
        }
    }

    /// A backend whose timings follow an exact per-item law plus a
    /// small deterministic wobble — what a CPU mat-mul measurement
    /// looks like on an unloaded machine, with the machine taken out of
    /// the test.
    struct ScriptedBackend {
        base_ms: f64,
        per_item_ms: f64,
        calls: u32,
    }

    impl Profileable for ScriptedBackend {
        fn run_batch(&mut self, batch: usize) -> f64 {
            // ±2% deterministic jitter so the fit sees "noisy"
            // repetitions, reproducibly.
            self.calls += 1;
            let wobble = 1.0 + 0.02 * f64::from(self.calls % 3) - 0.02;
            (self.base_ms + self.per_item_ms * batch as f64) * wobble
        }
    }

    #[test]
    fn fit_recovers_linear_work_from_injected_timings() {
        // Collect → robust stats → gamma grid search → closed-form
        // base/slope, driven by deterministic timings: per-item-linear
        // work must fit with gamma near 1 and predict the largest batch
        // closely.
        let mut backend = ScriptedBackend {
            base_ms: 0.4,
            per_item_ms: 2.5,
            calls: 0,
        };
        let measured = MeasuredProfile::collect(&mut backend, &[1, 2, 4, 8], 3);
        let fitted = measured.fit("scripted-linear", 8);
        assert!(fitted.gamma > 0.9, "gamma {}", fitted.gamma);
        let last = measured.points.last().unwrap();
        let rel = (fitted.latency_ms(last.batch) - last.mean_ms).abs() / last.mean_ms;
        assert!(rel < 0.05, "batch {}: rel {rel}", last.batch);
        // And the measured points really were wobbled, not constant.
        assert!(measured.points.iter().any(|p| p.std_ms > 0.0));
    }

    #[test]
    fn fit_tolerates_noise() {
        let mut backend = NoisyBackend {
            inner: AnalyticBackend {
                base: 8.0,
                slope: 4.0,
                gamma: 0.85,
            },
            tick: 0,
        };
        let measured = MeasuredProfile::collect(&mut backend, &[1, 2, 4, 8, 16], 10);
        let fitted = measured.fit("noisy", 16);
        for p in &measured.points {
            let rel = (fitted.latency_ms(p.batch) - p.mean_ms).abs() / p.mean_ms;
            assert!(rel < 0.05, "batch {}: rel err {rel}", p.batch);
        }
    }

    #[test]
    fn collect_orders_points_and_computes_std() {
        let mut backend = AnalyticBackend {
            base: 1.0,
            slope: 1.0,
            gamma: 1.0,
        };
        let measured = MeasuredProfile::collect(&mut backend, &[8, 1, 4], 2);
        let batches: Vec<usize> = measured.points.iter().map(|p| p.batch).collect();
        assert_eq!(batches, vec![1, 4, 8]);
        for p in &measured.points {
            assert_eq!(p.std_ms, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn collect_rejects_empty_batches() {
        let mut backend = AnalyticBackend {
            base: 1.0,
            slope: 1.0,
            gamma: 1.0,
        };
        let _ = MeasuredProfile::collect(&mut backend, &[], 1);
    }

    #[test]
    fn degenerate_fit_is_still_valid() {
        // A constant-latency backend has slope ~0; the fit clamps it.
        let points = vec![
            MeasuredPoint {
                batch: 1,
                mean_ms: 5.0,
                std_ms: 0.0,
            },
            MeasuredPoint {
                batch: 8,
                mean_ms: 5.0,
                std_ms: 0.0,
            },
        ];
        let fitted = fit_profile("flat", &points, 8);
        assert!(fitted.slope_ms > 0.0);
        assert!(fitted.base_ms > 0.0);
    }
}
