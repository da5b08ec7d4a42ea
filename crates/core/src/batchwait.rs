//! Batch-wait distribution estimation — the "sweet spot" `w_k`.
//!
//! The aggregated batch wait `Σ W_i` of the modules downstream of a
//! dropping decision is the most uncertain part of the latency estimate:
//! each `W_i` ranges over `[0, d_i]` depending on when the request enters
//! the forming batch (Fig. 3b). Underestimating it mis-keeps requests
//! (they die later, wasting GPU time); overestimating mis-drops them
//! (§4.2). PARD therefore estimates the *distribution* of the aggregate
//! by Monte-Carlo convolution of per-module empirical samples and takes
//! the `λ` quantile (`λ = 0.1` by default):
//!
//! ```text
//! w_k = F⁻¹_{k+1→N}(λ)
//! ```
//!
//! With independent uniform waits the aggregate follows the Irwin–Hall
//! distribution; [`irwin_hall_quantile`] provides the analytic reference
//! the paper's Fig. 6 numbers come from (0.31/0.28/0.22/0.10 · Σd at
//! λ = 0.1 for 4/3/2/1 modules), and tests verify the Monte-Carlo
//! estimator against it.

use pard_sim::DetRng;

/// Where one module's batch-wait draws come from.
#[derive(Clone, Copy, Debug)]
pub enum WaitSource<'a> {
    /// Empirical samples (milliseconds) observed at runtime.
    Samples(&'a [f64]),
    /// No samples yet: fall back to the theoretical uniform `[0, d]`
    /// with `d` the module's current batch execution duration (ms).
    Uniform(f64),
}

/// Monte-Carlo estimate of the `lambda` quantile of the aggregated batch
/// wait across `sources`, in milliseconds.
///
/// Runtime is `O(draws × sources.len())`, matching the paper's
/// `O(M(N−k+1))` with `M = draws` (default 10 000, §4.2 footnote 6):
/// the quantile is read by selecting the one order statistic it names,
/// in expected linear time, not by sorting every draw. Selection and a
/// full sort return the same value to the bit — no draw is ever `-0.0`
/// (each sum starts at `+0.0`), so equal values cannot differ in sign —
/// and a NaN draw still panics.
/// Returns 0 for an empty source list (the pipeline sink).
pub fn aggregate_wait_quantile(
    sources: &[WaitSource<'_>],
    lambda: f64,
    draws: usize,
    rng: &mut DetRng,
) -> f64 {
    if sources.is_empty() || draws == 0 {
        return 0.0;
    }
    let lambda = lambda.clamp(0.0, 1.0);
    let mut sums = Vec::with_capacity(draws);
    for _ in 0..draws {
        let mut total = 0.0;
        for src in sources {
            total += match *src {
                WaitSource::Samples(samples) => {
                    if samples.is_empty() {
                        0.0
                    } else {
                        samples[rng.below(samples.len() as u64) as usize]
                    }
                }
                WaitSource::Uniform(d) => rng.f64() * d.max(0.0),
            };
        }
        sums.push(total);
    }
    // Index convention matches an empirical inverse CDF.
    let idx = ((lambda * draws as f64) as usize).min(draws - 1);
    *sums
        .select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("NaN in wait sample"))
        .1
}

/// CDF of the Irwin–Hall distribution: the sum of `n` iid `U[0, 1]`
/// variables, evaluated at `x`.
///
/// Usable for `n ≤ ~15` before floating-point cancellation degrades it —
/// far beyond any pipeline depth in the paper.
pub fn irwin_hall_cdf(n: usize, x: f64) -> f64 {
    if n == 0 {
        return if x >= 0.0 { 1.0 } else { 0.0 };
    }
    if x <= 0.0 {
        return 0.0;
    }
    if x >= n as f64 {
        return 1.0;
    }
    // F(x) = 1/n! · Σ_{k=0}^{⌊x⌋} (-1)^k C(n,k) (x-k)^n
    let mut sum = 0.0f64;
    let mut binom = 1.0f64; // C(n, k)
    for k in 0..=(x.floor() as usize) {
        let term = binom * (x - k as f64).powi(n as i32);
        if k % 2 == 0 {
            sum += term;
        } else {
            sum -= term;
        }
        binom = binom * (n - k) as f64 / (k + 1) as f64;
    }
    let n_fact: f64 = (1..=n).map(|i| i as f64).product();
    (sum / n_fact).clamp(0.0, 1.0)
}

/// Quantile of the Irwin–Hall distribution via bisection.
///
/// Returns a value in `[0, n]`; `q` is clamped to `[0, 1]`.
pub fn irwin_hall_quantile(n: usize, q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    if n == 0 {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0, n as f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if irwin_hall_cdf(n, mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn irwin_hall_cdf_basics() {
        // n=1: uniform.
        assert!((irwin_hall_cdf(1, 0.3) - 0.3).abs() < 1e-12);
        // n=2: triangular, F(1) = 0.5.
        assert!((irwin_hall_cdf(2, 1.0) - 0.5).abs() < 1e-12);
        // Bounds.
        assert_eq!(irwin_hall_cdf(3, -1.0), 0.0);
        assert_eq!(irwin_hall_cdf(3, 5.0), 1.0);
    }

    #[test]
    fn quantiles_match_paper_fig6() {
        // §4.2: λ = 0.1 with equal durations d yields
        // w = 1.24d (4 modules), 0.84d (3), 0.44d (2), 0.10d (1).
        let cases = [(4, 1.24), (3, 0.84), (2, 0.447), (1, 0.10)];
        for (n, expect) in cases {
            let got = irwin_hall_quantile(n, 0.1);
            assert!(
                (got - expect).abs() < 0.015,
                "n={n}: got {got}, paper {expect}"
            );
        }
    }

    #[test]
    fn quantile_is_monotone_in_lambda() {
        for n in 1..=5 {
            let mut prev = -1.0;
            for i in 0..=10 {
                let q = irwin_hall_quantile(n, i as f64 / 10.0);
                assert!(q >= prev);
                prev = q;
            }
        }
    }

    #[test]
    fn monte_carlo_matches_irwin_hall_for_uniform_sources() {
        let mut rng = DetRng::new(42);
        let d = 40.0; // ms
        for n in 1..=4 {
            let sources: Vec<WaitSource<'_>> = (0..n).map(|_| WaitSource::Uniform(d)).collect();
            let got = aggregate_wait_quantile(&sources, 0.1, 20_000, &mut rng);
            let expect = irwin_hall_quantile(n, 0.1) * d;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.06, "n={n}: MC {got}, analytic {expect}");
        }
    }

    #[test]
    fn empirical_samples_shift_the_estimate() {
        let mut rng = DetRng::new(7);
        // A module whose waits concentrate near d (e.g. always filling
        // batches late) must push the quantile up versus uniform.
        let high: Vec<f64> = (0..500).map(|i| 35.0 + (i % 10) as f64 / 2.0).collect();
        let sources = [WaitSource::Samples(&high), WaitSource::Uniform(40.0)];
        let got = aggregate_wait_quantile(&sources, 0.1, 10_000, &mut rng);
        let uniform_only = aggregate_wait_quantile(
            &[WaitSource::Uniform(40.0), WaitSource::Uniform(40.0)],
            0.1,
            10_000,
            &mut rng,
        );
        assert!(
            got > uniform_only + 20.0,
            "got {got}, uniform {uniform_only}"
        );
    }

    #[test]
    fn edge_cases() {
        let mut rng = DetRng::new(1);
        assert_eq!(aggregate_wait_quantile(&[], 0.1, 100, &mut rng), 0.0);
        assert_eq!(
            aggregate_wait_quantile(&[WaitSource::Uniform(10.0)], 0.1, 0, &mut rng),
            0.0
        );
        // Empty sample slice behaves as zero wait.
        let empty: &[f64] = &[];
        assert_eq!(
            aggregate_wait_quantile(&[WaitSource::Samples(empty)], 0.5, 100, &mut rng),
            0.0
        );
        // λ=0 → lower bound 0; λ=1 → at most Σd.
        let lo = aggregate_wait_quantile(&[WaitSource::Uniform(10.0)], 0.0, 1000, &mut rng);
        assert!(lo < 0.2, "λ=0 bound {lo}");
        let hi = aggregate_wait_quantile(&[WaitSource::Uniform(10.0)], 1.0, 1000, &mut rng);
        assert!(hi <= 10.0);
    }

    #[test]
    #[should_panic(expected = "NaN in wait sample")]
    fn nan_draws_panic() {
        let nan = [f64::NAN];
        aggregate_wait_quantile(&[WaitSource::Samples(&nan)], 0.1, 100, &mut DetRng::new(3));
    }

    proptest! {
        /// Selection reads the very order statistic a full sort would,
        /// to the bit.
        #[test]
        fn selection_matches_the_sorted_draws(
            samples in proptest::collection::vec(0u32..400, 0..64),
            d in 0.0f64..80.0,
            lambda in 0.0f64..1.0,
            draws in 1usize..3_000,
            seed in 0u64..1_000,
        ) {
            let samples: Vec<f64> = samples.iter().map(|&s| s as f64 * 0.25).collect();
            let sources = [WaitSource::Samples(&samples), WaitSource::Uniform(d)];
            let mut rng = DetRng::new(seed);
            let mut sums: Vec<f64> = (0..draws)
                .map(|_| {
                    let sample = if samples.is_empty() {
                        0.0
                    } else {
                        samples[rng.below(samples.len() as u64) as usize]
                    };
                    0.0 + sample + rng.f64() * d
                })
                .collect();
            sums.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect = sums[((lambda * draws as f64) as usize).min(draws - 1)];
            let got = aggregate_wait_quantile(&sources, lambda, draws, &mut DetRng::new(seed));
            prop_assert_eq!(got.to_bits(), expect.to_bits());
        }

        #[test]
        fn mc_quantile_monotone_in_lambda(
            d in 1.0f64..100.0,
            n in 1usize..5,
        ) {
            let mut rng = DetRng::new(11);
            let sources: Vec<WaitSource<'_>> =
                (0..n).map(|_| WaitSource::Uniform(d)).collect();
            let q25 = aggregate_wait_quantile(&sources, 0.25, 4000, &mut rng);
            let q75 = aggregate_wait_quantile(&sources, 0.75, 4000, &mut rng);
            prop_assert!(q25 <= q75 + 1e-9);
            prop_assert!(q75 <= n as f64 * d + 1e-9);
        }

        #[test]
        fn irwin_hall_cdf_is_monotone(n in 1usize..8) {
            let mut prev = 0.0;
            for i in 0..=40 {
                let x = n as f64 * i as f64 / 40.0;
                let f = irwin_hall_cdf(n, x);
                prop_assert!(f + 1e-12 >= prev);
                prev = f;
            }
        }
    }
}
