//! The campaign PRNG: SplitMix64.
//!
//! Fault campaigns must be reproducible from a single seed (DESIGN.md
//! §12 "determinism by seed"), so faultgen carries its own tiny
//! generator instead of depending on an external crate whose stream
//! could change between versions.  SplitMix64 is the 64-bit mixer from
//! Steele, Lea & Flood's *Fast Splittable Pseudorandom Number
//! Generators* — one multiply-xor-shift chain per draw, full period,
//! and a fixed, documented output stream.

/// A seeded SplitMix64 generator.
///
/// ```
/// use faultgen::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// let draws: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
/// assert_eq!(draws, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
/// assert_ne!(draws[0], draws[1]);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `[0, bound)`.  `bound` must be nonzero.
    ///
    /// Uses the widening-multiply reduction (Lemire), which is exact
    /// enough for campaign scheduling and keeps the stream consumption
    /// at one draw per call — important for reproducibility.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A draw in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// `len` draws collected in order.
    pub fn vec<T>(&mut self, len: usize, mut draw: impl FnMut(&mut SplitMix64) -> T) -> Vec<T> {
        (0..len).map(|_| draw(self)).collect()
    }
}

/// Run a property over `cases` seeds: case `n` gets `SplitMix64::new(n)`
/// and draws its inputs from it.  A case that panics is named on stderr
/// by property and seed before the panic continues, so the failure can
/// be replayed from that one seed.
///
/// ```
/// faultgen::rng::check("below stays below", 64, |rng| {
///     let bound = rng.range(1, 1000);
///     assert!(rng.below(bound) < bound);
/// });
/// ```
pub fn check(property: &str, cases: u64, mut case: impl FnMut(&mut SplitMix64)) {
    for seed in 0..cases {
        let mut rng = SplitMix64::new(seed);
        let run = std::panic::AssertUnwindSafe(|| case(&mut rng));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("property `{property}` failed at seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn check_runs_every_seed_and_reraises_the_failing_one() {
        let mut seen = Vec::new();
        check("counts", 5, |rng| seen.push(rng.next_u64()));
        let firsts: Vec<u64> = (0..5).map(|s| SplitMix64::new(s).next_u64()).collect();
        assert_eq!(seen, firsts);

        let mut ran = 0;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check("fails at 2", 5, |_| {
                ran += 1;
                assert!(ran < 3);
            })
        }));
        assert!(failed.is_err());
        assert_eq!(ran, 3, "cases after the failing seed must not run");
    }

    #[test]
    fn known_first_draw() {
        // Pin the stream: a silent change to the mixer would silently
        // change every archived campaign.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }
}
