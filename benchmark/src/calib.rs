//! Host-speed calibration.
//!
//! The container's CPU runs the same code at anywhere between about
//! 65 % and 100 % of its best speed, for seconds at a time, while the
//! process is never descheduled (`user` time equals `real` time): a
//! busy sibling thread or neighbour, nothing the program can see or
//! avoid.  Raw host rates of identical code therefore differ by up to
//! a quarter between runs.
//!
//! So every host-clock measurement is taken next to a sample of a
//! small fixed kernel and reported in *calibrated* seconds: host
//! seconds scaled by how fast the kernel ran beside it, relative to
//! [`NOMINAL_NS`].  The kernel is cache-resident and mixes what the
//! simulator's hot paths are made of (integer hashing, a hash-map
//! probe, an uncontended mutex, an atomic add, a scattered store), so
//! whatever slows the simulator slows it by much the same factor.  It
//! shares no code with the product: a change to the product cannot
//! move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Host nanoseconds per kernel iteration that count as full speed; the
/// undisturbed figure on the reference container.  It only fixes the
/// scale of the calibrated second.
pub const NOMINAL_NS: f64 = 30.0;

/// Iterations per sample: about 3 ms.
const ITERATIONS: u64 = 100_000;

pub struct Reference {
    map: HashMap<u64, u64>,
    buf: Vec<u64>,
    state: u64,
    lock: Mutex<u64>,
    // A statistic: publishes no other data.
    counter: AtomicU64,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            map: (0..4096).map(|i| (i, i)).collect(),
            buf: vec![1; 16 << 10],
            state: 1,
            lock: Mutex::new(0),
            counter: AtomicU64::new(0),
        }
    }

    /// Run the kernel once; host nanoseconds per iteration.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        let mask = self.buf.len() as u64 - 1;
        for _ in 0..ITERATIONS {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = ((self.state >> 20) & mask) as usize;
            self.buf[slot] = self.buf[slot].wrapping_add(self.state);
            self.counter.fetch_add(1, Ordering::Relaxed);
            let key = (self.state >> 40) & 4095;
            *self.lock.lock().expect("only this thread locks it") += self.map[&key] & 1;
        }
        black_box(&self.buf);
        started.elapsed().as_nanos() as f64 / ITERATIONS as f64
    }
}

/// Host seconds to calibrated seconds, given the kernel's speed sampled
/// just before and just after the interval.
pub fn calibrated_seconds(host_seconds: f64, ref_ns_before: f64, ref_ns_after: f64) -> f64 {
    host_seconds * NOMINAL_NS / ((ref_ns_before + ref_ns_after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_nominal_speed_is_left_alone() {
        assert_eq!(calibrated_seconds(2.0, NOMINAL_NS, NOMINAL_NS), 2.0);
    }

    #[test]
    fn a_host_at_half_speed_took_twice_as_long() {
        let half = 2.0 * NOMINAL_NS;
        assert_eq!(calibrated_seconds(2.0, half, half), 1.0);
        // Speed changed during the interval: the mean of the two.
        assert_eq!(calibrated_seconds(3.0, NOMINAL_NS, half), 2.0);
    }

    #[test]
    fn the_kernel_runs_and_reports_a_plausible_time() {
        let ns = Reference::new().sample();
        assert!(ns > 1.0 && ns < 10_000.0, "{ns} ns per iteration");
    }
}
