//! Seeded inputs.  Everything a workload feeds the system is a pure
//! function of `--seed`; the program under test sees only these.

use faultgen::rng::SplitMix64;

/// Truncate exponential gaps at this multiple of the mean so one
/// extreme draw cannot dwarf a run (under 1e-5 of the mass).
const GAP_CAP_MULTIPLE: u64 = 12;

/// The work one request performs (servo's `RequestShape`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    /// Mean user-mode compute; each request draws its own within
    /// [`COMPUTE_JITTER`] of it.
    pub compute_cycles: u64,
    pub file_appends: u32,
    pub file_reads: u32,
    pub io_bytes: usize,
    pub net_echoes: u32,
}

/// servo's oltp mix: 55 % lookup, 35 % update, 10 % fan-out echo.
pub const OLTP: [(Shape, u64); 3] = [
    (
        Shape {
            name: "lookup",
            compute_cycles: 9_000,
            file_appends: 0,
            file_reads: 2,
            io_bytes: 512,
            net_echoes: 0,
        },
        55,
    ),
    (
        Shape {
            name: "update",
            compute_cycles: 12_000,
            file_appends: 2,
            file_reads: 1,
            io_bytes: 512,
            net_echoes: 0,
        },
        35,
    ),
    (
        Shape {
            name: "fanout",
            compute_cycles: 6_000,
            file_appends: 0,
            file_reads: 1,
            io_bytes: 256,
            net_echoes: 1,
        },
        10,
    ),
];

/// A request's user compute is uniform within this share of its
/// shape's mean.  Without it every service time is one of three
/// constants and the percentiles land on the same cycle for every seed.
pub const COMPUTE_JITTER: f64 = 0.25;

/// The low half of the draw picks the shape, the high half the jitter,
/// so the stream stays at two draws per request like servo's.
fn pick_shape(draw: u64) -> (&'static Shape, u64) {
    let total: u64 = OLTP.iter().map(|(_, w)| w).sum();
    let unit = (draw >> 32) as f64 / (1u64 << 32) as f64;
    let scale = 1.0 + COMPUTE_JITTER * (2.0 * unit - 1.0);
    let mut point = (draw & 0xffff_ffff) % total;
    for (shape, weight) in &OLTP {
        if point < *weight {
            return (shape, (shape.compute_cycles as f64 * scale).round() as u64);
        }
        point -= weight;
    }
    unreachable!("a draw below the total weight lands in an entry")
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Dense from 0 in arrival order.
    pub id: u64,
    /// Due time, simulated cycles after traffic start; non-decreasing.
    pub offset: u64,
    pub shape: &'static Shape,
    /// This request's user-mode compute.
    pub compute_cycles: u64,
}

/// Map one draw to a uniform in `(0, 1]` so `ln` is always finite.
pub fn unit_open(draw: u64) -> f64 {
    ((draw >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// An endless Poisson arrival stream: exponential gaps inverted from
/// one SplitMix64 draw, the shape from exactly one more.  The stream
/// is fixed by `(seed, mean_gap_cycles)` before the server runs and
/// never reacts to it.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: SplitMix64,
    mean_gap_cycles: u64,
    next_id: u64,
    at: u64,
}

impl Arrivals {
    pub fn new(seed: u64, mean_gap_cycles: u64) -> Arrivals {
        assert!(mean_gap_cycles > 0, "mean gap must be nonzero");
        Arrivals {
            rng: SplitMix64::new(seed),
            mean_gap_cycles,
            next_id: 0,
            at: 0,
        }
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let mean = self.mean_gap_cycles;
        let gap = (-(mean as f64) * unit_open(self.rng.next_u64()).ln()).round() as u64;
        self.at += gap.min(mean.saturating_mul(GAP_CAP_MULTIPLE));
        let (shape, compute_cycles) = pick_shape(self.rng.next_u64());
        let id = self.next_id;
        self.next_id += 1;
        Some(Arrival {
            id,
            offset: self.at,
            shape,
            compute_cycles,
        })
    }
}

/// What a seed is split into, so warm-up, the timed run and the
/// switch schedule never share draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    Warmup = 1,
    Timed = 2,
    Switches = 3,
}

pub fn subseed(seed: u64, purpose: Purpose) -> u64 {
    SplitMix64::new(seed ^ (purpose as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<Arrival> = Arrivals::new(11, 30_000).take(2_000).collect();
        let b: Vec<Arrival> = Arrivals::new(11, 30_000).take(2_000).collect();
        assert_eq!(a, b);
        let c: Vec<Arrival> = Arrivals::new(12, 30_000).take(2_000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_monotone_dense_and_on_rate() {
        let a: Vec<Arrival> = Arrivals::new(7, 30_000).take(20_000).collect();
        assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
        assert!(a.iter().enumerate().all(|(i, x)| x.id == i as u64));
        let mean = a.last().unwrap().offset / (a.len() as u64 - 1);
        assert!((29_000..31_000).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn mix_matches_its_weights() {
        let n = 100_000;
        let mut counts = [0u32; 3];
        for a in Arrivals::new(3, 1_000).take(n) {
            let i = OLTP
                .iter()
                .position(|(s, _)| s.name == a.shape.name)
                .unwrap();
            counts[i] += 1;
        }
        for (i, (shape, w)) in OLTP.iter().enumerate() {
            let share = counts[i] as f64 / n as f64 * 100.0;
            assert!((share - *w as f64).abs() < 1.0, "{} {share}", shape.name);
        }
    }

    #[test]
    fn compute_jitter_stays_in_band_and_centred() {
        let (mut lo, mut hi, mut sum, mut n) = (f64::MAX, f64::MIN, 0.0, 0.0);
        for a in Arrivals::new(5, 1_000).take(50_000) {
            let ratio = a.compute_cycles as f64 / a.shape.compute_cycles as f64;
            (lo, hi) = (lo.min(ratio), hi.max(ratio));
            sum += ratio;
            n += 1.0;
        }
        assert!((0.749..0.76).contains(&lo), "{lo}");
        assert!((1.24..1.251).contains(&hi), "{hi}");
        assert!((sum / n - 1.0).abs() < 0.005, "{}", sum / n);
    }

    #[test]
    fn subseeds_differ_by_purpose() {
        assert_ne!(subseed(11, Purpose::Warmup), subseed(11, Purpose::Timed));
        assert_eq!(subseed(11, Purpose::Timed), subseed(11, Purpose::Timed));
    }
}
