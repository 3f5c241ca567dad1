//! Percentiles, step rates and the arithmetic shared by every
//! workload report.

use crate::calib::calibrated_seconds;
use simx86::costs::CYCLES_PER_US;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.  Returns the value
/// and how many samples lie beyond it.
pub fn percentile(sorted: &[u32], q: f64) -> (u32, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (sorted[idx], sorted.len() - 1 - idx)
}

/// Median of a small set of rates (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One checkpoint of the timed section: cumulative ops, busy simulated
/// cycles and host nanoseconds since the section began, and the
/// calibration kernel's speed sampled at the checkpoint (host
/// nanoseconds per iteration, see `calib`).  Marks are evenly spaced in
/// steps taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    pub ops: u64,
    pub busy_cycles: u64,
    pub host_ns: u64,
    pub ref_ns: f64,
}

/// A rate per host second, over the steps between consecutive marks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRate {
    /// Median step rate per calibrated second: each step's host time
    /// is scaled by the calibration samples on either side of it.
    pub calibrated: f64,
    /// Median step rate per raw host second, for comparison.
    pub raw: f64,
}

pub fn step_rate(marks: &[Mark], value: impl Fn(&Mark) -> u64) -> StepRate {
    assert!(marks.len() >= 2, "a timed section has at least one step");
    let (calibrated, raw): (Vec<f64>, Vec<f64>) = marks
        .windows(2)
        .map(|w| {
            let done = (value(&w[1]) - value(&w[0])) as f64;
            let seconds = (w[1].host_ns - w[0].host_ns) as f64 * 1e-9;
            (
                done / calibrated_seconds(seconds, w[0].ref_ns, w[1].ref_ns),
                done / seconds,
            )
        })
        .unzip();
    StepRate {
        calibrated: median(&calibrated),
        raw: median(&raw),
    }
}

pub fn cycles_to_us(cycles: f64) -> f64 {
    cycles / CYCLES_PER_US as f64
}

/// `part / whole` in percent; 0 when there is nothing to divide.
#[cfg(feature = "trace")]
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::NOMINAL_NS;

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), (500, 500));
        assert_eq!(percentile(&v, 0.99), (990, 10));
        assert_eq!(percentile(&v, 0.999), (999, 1));
        assert_eq!(percentile(&v, 1.0), (1000, 0));
        assert_eq!(percentile(&[7], 0.5), (7, 0));
        assert_eq!(percentile(&[3, 9], 0.5), (3, 1));
    }

    #[test]
    fn p999_of_twelve_thousand_keeps_ten_beyond() {
        let v: Vec<u32> = (0..12_000).collect();
        let (_, beyond) = percentile(&v, 0.999);
        assert!(beyond >= 10, "{beyond}");
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn mark(ops: u64, host_ns: u64, ref_ns: f64) -> Mark {
        Mark {
            ops,
            busy_cycles: ops * 7,
            host_ns,
            ref_ns,
        }
    }

    #[test]
    fn step_rate_is_the_median_step() {
        // Ten steps of 100 ops at nominal speed, 1 ms each except
        // three disturbed ones the calibration did not catch.
        let mut marks = vec![mark(0, 0, NOMINAL_NS)];
        let mut t = 0u64;
        for i in 1..=10u64 {
            t += if i % 4 == 0 { 5_000_000 } else { 1_000_000 };
            marks.push(mark(i * 100, t, NOMINAL_NS));
        }
        let r = step_rate(&marks, |m| m.ops);
        assert!((r.calibrated - 100_000.0).abs() < 1e-6, "{r:?}");
        assert_eq!(r.calibrated, r.raw);
        let busy = step_rate(&marks, |m| m.busy_cycles);
        assert!((busy.calibrated - 700_000.0).abs() < 1e-6, "{busy:?}");
    }

    #[test]
    fn step_rate_scales_out_a_slow_host() {
        // The host runs at half speed throughout: every step takes
        // 2 ms and the calibration kernel takes twice its nominal time.
        let slow: Vec<Mark> = (0..=6u64)
            .map(|i| mark(i * 100, i * 2_000_000, 2.0 * NOMINAL_NS))
            .collect();
        let r = step_rate(&slow, |m| m.ops);
        assert!((r.raw - 50_000.0).abs() < 1e-6, "{r:?}");
        assert!((r.calibrated - 100_000.0).abs() < 1e-6, "{r:?}");
    }
}
