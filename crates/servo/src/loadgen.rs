//! Open-loop arrival generation.
//!
//! The generator is *open loop*: request arrival times are fixed by
//! the seed before the server runs, and do not react to server state.
//! When the server stalls (a mode switch, a fault-recovery window),
//! arrivals keep coming and queue up — which is precisely how a switch
//! pause becomes visible as tail latency.  Closed-loop generators
//! (issue → wait → issue) hide such pauses by slowing down with the
//! server; the distinction matters enough in serving benchmarks that
//! we only implement the honest one.
//!
//! Inter-arrival gaps are exponentially distributed (a Poisson
//! process) with a configurable mean, inverted from one SplitMix64
//! draw per arrival; the request shape is drawn from a weighted
//! [`CostMix`] with exactly one more draw.  Two draws per request,
//! total — the stream position is a pure function of the request
//! index, so same-seed runs are bit-identical.

use faultgen::rng::SplitMix64;
use mercury_workloads::mix::{CostMix, RequestShape};

/// Truncate exponential gaps at this multiple of the mean so one
/// extreme draw cannot dwarf the whole run (documented distortion:
/// less than 1e-5 of the mass for the exponential).
const GAP_CAP_MULTIPLE: u64 = 12;

/// Configuration of one arrival stream.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// RNG seed; the entire stream is a function of it.
    pub seed: u64,
    /// Mean inter-arrival gap in simulated cycles (3 000 cycles =
    /// 1 µs).  The offered rate is `3e9 / mean_gap_cycles` requests
    /// per simulated second.
    pub mean_gap_cycles: u64,
    /// Number of requests to generate.
    pub requests: u32,
    /// Cost mix the request shapes are drawn from.
    pub mix: CostMix,
}

/// One generated arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Request id, dense from 0 in arrival order.
    pub id: u64,
    /// Arrival time as an offset from traffic start, in simulated
    /// cycles.  Strictly non-decreasing in `id`.
    pub offset: u64,
    /// The work this request performs.
    pub shape: RequestShape,
}

/// Map one `u64` draw to a uniform in `(0, 1]` (53 mantissa bits; the
/// `+1` excludes zero so `ln` is always finite).
fn unit_open(draw: u64) -> f64 {
    ((draw >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Generate the arrival stream for `cfg`.
///
/// ```
/// use mercury_servo::loadgen::{generate, LoadConfig};
/// use mercury_workloads::mix::CostMix;
///
/// let cfg = LoadConfig { seed: 7, mean_gap_cycles: 30_000, requests: 500, mix: CostMix::web() };
/// let a = generate(&cfg);
/// let b = generate(&cfg);
/// assert_eq!(a, b); // same seed, bit-identical stream
/// assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
/// let mean = a.last().unwrap().offset / (a.len() as u64 - 1);
/// assert!((15_000..60_000).contains(&mean), "mean gap {mean} off target");
/// ```
pub fn generate(cfg: &LoadConfig) -> Vec<Arrival> {
    assert!(cfg.mean_gap_cycles > 0, "mean gap must be nonzero");
    let mut rng = SplitMix64::new(cfg.seed);
    let cap = cfg.mean_gap_cycles.saturating_mul(GAP_CAP_MULTIPLE);
    let mut at = 0u64;
    let mut out = Vec::with_capacity(cfg.requests as usize);
    for id in 0..cfg.requests as u64 {
        // Inverse-CDF exponential on the simulated clock.  f64 math is
        // IEEE-deterministic for a given build, and the archived gate
        // only compares runs within one process.
        let gap = (-(cfg.mean_gap_cycles as f64) * unit_open(rng.next_u64()).ln()).round() as u64;
        at += gap.min(cap);
        let shape = *cfg.mix.pick(rng.next_u64());
        out.push(Arrival {
            id,
            offset: at,
            shape,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seed_deterministic_and_monotone() {
        let cfg = LoadConfig {
            seed: 99,
            mean_gap_cycles: 10_000,
            requests: 2_000,
            mix: CostMix::oltp(),
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
        assert_eq!(a.len(), 2_000);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            generate(&LoadConfig {
                seed,
                mean_gap_cycles: 10_000,
                requests: 64,
                mix: CostMix::web(),
            })
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn mean_gap_lands_near_target() {
        let cfg = LoadConfig {
            seed: 5,
            mean_gap_cycles: 50_000,
            requests: 4_000,
            mix: CostMix::web(),
        };
        let a = generate(&cfg);
        let mean = a.last().unwrap().offset / (a.len() as u64 - 1);
        // Exponential with n=4000: the sample mean sits well within
        // ±20% of the true mean.
        assert!((40_000..60_000).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn gaps_are_capped() {
        let cfg = LoadConfig {
            seed: 3,
            mean_gap_cycles: 1,
            requests: 10_000,
            mix: CostMix::web(),
        };
        let a = generate(&cfg);
        for w in a.windows(2) {
            assert!(w[1].offset - w[0].offset <= GAP_CAP_MULTIPLE);
        }
    }
}
