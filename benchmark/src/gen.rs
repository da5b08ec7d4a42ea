//! The benchmark's own inputs: a seeded xorshift generator, Poisson
//! arrivals over a piecewise-constant rate profile, and the digest that
//! lets two runs prove they saw the same bytes.
//!
//! Nothing here comes from the repository (`pard-workload` synthesises
//! its traces with its own RNG): a later change to the program under
//! test cannot move the inputs it is measured on.

/// xorshift64* — the whole benchmark's randomness comes from one of
/// these per workload, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // One splitmix step so small seeds (0, 1, 2 …) start far apart
        // and the state is never zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One step of a rate profile: `rate` requests per second for `secs`.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub secs: f64,
    pub rate: f64,
}

/// One request of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, µs from the start of the schedule (virtual time for
    /// the replay workloads, wall time for the live one).
    pub at_us: u64,
    pub slo_ms: u32,
    pub payload_len: u32,
}

/// Poisson arrival times (µs) over the first `horizon_s` seconds of
/// `profile` repeated cyclically. A gap that would cross a phase
/// boundary is redrawn from the boundary at the next phase's rate,
/// which is exact for exponential gaps.
pub fn arrival_times(profile: &[Phase], horizon_s: f64, rng: &mut Rng) -> Vec<u64> {
    let mut times = Vec::new();
    let (mut t, mut phase, mut phase_end) = (0.0f64, 0usize, profile[0].secs);
    while t < horizon_s {
        let gap = -rng.unit().ln() / profile[phase].rate;
        if t + gap >= phase_end {
            t = phase_end;
            phase = (phase + 1) % profile.len();
            phase_end += profile[phase].secs;
        } else {
            t += gap;
            if t < horizon_s {
                times.push((t * 1e6) as u64);
            }
        }
    }
    times
}

/// A full schedule: `horizon_s` of arrival times from `profile`, payload
/// lengths
/// uniform in `[64, 512]`, SLO `slo_ms` except every `tight_every`-th
/// request (0: never), which gets `tight_ms`.
pub fn schedule(
    profile: &[Phase],
    horizon_s: f64,
    slo_ms: u32,
    tight_every: usize,
    tight_ms: u32,
    rng: &mut Rng,
) -> Vec<Arrival> {
    arrival_times(profile, horizon_s, rng)
        .into_iter()
        .enumerate()
        .map(|(i, at_us)| Arrival {
            at_us,
            slo_ms: if tight_every > 0 && (i + 1) % tight_every == 0 {
                tight_ms
            } else {
                slo_ms
            },
            payload_len: rng.range(64, 512) as u32,
        })
        .collect()
}

/// FNV-1a, the digest every workload prints for its inputs and its
/// outcomes.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of a materialised schedule over `(at_us, slo_ms, payload_len)`.
pub fn schedule_digest(schedule: &[Arrival]) -> u64 {
    let mut fnv = Fnv::new();
    for a in schedule {
        fnv.u64(a.at_us);
        fnv.u64(a.slo_ms as u64);
        fnv.u64(a.payload_len as u64);
    }
    fnv.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const BURSTY: [Phase; 2] = [
        Phase {
            secs: 40.0,
            rate: 240.0,
        },
        Phase {
            secs: 20.0,
            rate: 800.0,
        },
    ];

    #[test]
    fn same_seed_same_schedule_and_other_seed_differs() {
        let a = schedule(&BURSTY, 12.0, 400, 10, 250, &mut Rng::new(7));
        let b = schedule(&BURSTY, 12.0, 400, 10, 250, &mut Rng::new(7));
        let c = schedule(&BURSTY, 12.0, 400, 10, 250, &mut Rng::new(8));
        assert_eq!(a, b);
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        assert_ne!(schedule_digest(&a), schedule_digest(&c));
    }

    #[test]
    fn arrivals_are_sorted_and_follow_the_profile() {
        let times = arrival_times(&BURSTY, 480.0, &mut Rng::new(42));
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // First cycle: 40 s at 240/s then 20 s at 800/s.
        let calm = times.iter().filter(|&&t| t < 40_000_000).count() as f64;
        let burst = times
            .iter()
            .filter(|&&t| (40_000_000..60_000_000).contains(&t))
            .count() as f64;
        assert!((calm / 9_600.0 - 1.0).abs() < 0.05, "calm {calm}");
        assert!((burst / 16_000.0 - 1.0).abs() < 0.05, "burst {burst}");
        // The profile repeats: the whole schedule averages 25 600 per
        // 60 s cycle.
        assert!((times.len() as f64 / 8.0 / 25_600.0 - 1.0).abs() < 0.03);
    }

    #[test]
    fn slo_mix_and_payload_range() {
        let s = schedule(&BURSTY, 4.0, 400, 10, 250, &mut Rng::new(1));
        assert_eq!(s.iter().filter(|a| a.slo_ms == 250).count(), s.len() / 10);
        assert_eq!(s[9].slo_ms, 250);
        assert!(s.iter().all(|a| (64..=512).contains(&a.payload_len)));
        assert!(s.iter().any(|a| a.payload_len < 100));
        assert!(s.iter().any(|a| a.payload_len > 480));
    }

    #[test]
    fn a_time_bounded_schedule_stops_at_its_horizon() {
        let times = arrival_times(&BURSTY, 50.0, &mut Rng::new(3));
        assert!(*times.last().unwrap() < 50_000_000);
        let expected = 40.0 * 240.0 + 10.0 * 800.0;
        assert!((times.len() as f64 / expected - 1.0).abs() < 0.05);
    }

    #[test]
    fn unit_never_returns_zero() {
        let mut rng = Rng::new(0);
        assert!((0..100_000).all(|_| {
            let u = rng.unit();
            u > 0.0 && u <= 1.0
        }));
    }
}
