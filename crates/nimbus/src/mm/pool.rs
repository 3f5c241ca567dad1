//! The kernel's frame pool: free-list plus sharing counts.
//!
//! The pool manages the frames the kernel was booted with (its domain
//! quota under a hypervisor; effectively all of RAM on bare hardware).
//! Data frames are reference-counted so copy-on-write sharing after
//! `fork` can free frames only when the last mapping goes away.
//!
//! The counts are a dense array indexed by frame number — a fork, an
//! exit or a COW fault asks for one per PTE it touches, and a frame
//! number is already the perfect hash.  Zero means free, or not this
//! pool's frame at all; the array reaches as far as the highest frame
//! the pool manages.

use simx86::costs;
use simx86::mem::FrameNum;
use simx86::Cpu;
use std::collections::HashMap;

/// The pool.  Lives inside the big kernel lock; not internally locked.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePool {
    free: Vec<FrameNum>,
    /// Sharing count by frame number; 0 = free or untracked.
    refs: Vec<u32>,
    total: usize,
}

/// Room for a count for every frame up to the highest of `frames`.
fn counts_for(frames: impl Iterator<Item = FrameNum>) -> Vec<u32> {
    vec![0; frames.map(|f| f.0 as usize + 1).max().unwrap_or(0)]
}

impl FramePool {
    /// A pool over the given frames, all free.
    pub fn new(mut frames: Vec<FrameNum>) -> FramePool {
        // Descending, so pop() hands out low frames first (stable tests).
        frames.sort_unstable_by_key(|f| std::cmp::Reverse(f.0));
        let total = frames.len();
        FramePool {
            refs: counts_for(frames.iter().copied()),
            free: frames,
            total,
        }
    }

    /// Allocate one frame with reference count 1.
    pub fn alloc(&mut self, cpu: &Cpu) -> Option<FrameNum> {
        cpu.tick(costs::FRAME_ALLOC);
        let f = self.free.pop()?;
        self.refs[f.0 as usize] = 1;
        Some(f)
    }

    /// Take another reference to a shared frame (COW fork).
    pub fn incref(&mut self, frame: FrameNum) {
        match self.refs.get_mut(frame.0 as usize) {
            Some(r) if *r > 0 => *r += 1,
            _ => debug_assert!(false, "incref of untracked frame {}", frame.0),
        }
    }

    /// Drop a reference; frees the frame when it was the last one.
    /// Returns true if the frame was actually freed.
    pub fn decref(&mut self, frame: FrameNum) -> bool {
        match self.refs.get_mut(frame.0 as usize) {
            Some(r) if *r > 1 => {
                *r -= 1;
                false
            }
            Some(r) if *r == 1 => {
                *r = 0;
                self.free.push(frame);
                true
            }
            _ => {
                debug_assert!(false, "decref of untracked frame {}", frame.0);
                false
            }
        }
    }

    /// Current reference count (0 = free or untracked).
    pub fn refcount(&self, frame: FrameNum) -> u32 {
        self.refs.get(frame.0 as usize).copied().unwrap_or(0)
    }

    /// Frames currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Frames currently allocated.
    pub fn in_use(&self) -> usize {
        self.total - self.free.len()
    }

    /// Total frames managed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The frames with a count, ascending, and their counts.
    fn tracked(&self) -> impl Iterator<Item = (FrameNum, u32)> + '_ {
        (0..)
            .map(FrameNum)
            .zip(self.refs.iter().copied())
            .filter(|&(_, count)| count > 0)
    }

    /// Every frame this pool manages, free or not (ascending).
    pub fn all_frames(&self) -> Vec<FrameNum> {
        let mut v: Vec<FrameNum> = self.free.clone();
        v.extend(self.tracked().map(|(f, _)| f));
        v.sort_unstable();
        v
    }

    /// Remap every frame number through `map` (restore/migration: the
    /// domain landed in different physical frames).
    pub fn translate(&mut self, map: &HashMap<u32, u32>) {
        let moved = |f: FrameNum| FrameNum(*map.get(&f.0).unwrap_or(&f.0));
        let tracked: Vec<(FrameNum, u32)> = self.tracked().map(|(f, c)| (moved(f), c)).collect();
        for f in self.free.iter_mut() {
            *f = moved(*f);
        }
        let frames = self
            .free
            .iter()
            .copied()
            .chain(tracked.iter().map(|&(f, _)| f));
        self.refs = counts_for(frames);
        for (f, count) in tracked {
            self.refs[f.0 as usize] = count;
        }
    }
}

/// The pool this one replaced — counts in a `HashMap` keyed by frame
/// number — kept as the model the dense array is checked against.
#[cfg(test)]
mod oracle {
    use super::*;

    pub struct FramePool {
        pub free: Vec<FrameNum>,
        refs: HashMap<u32, u32>,
        total: usize,
    }

    impl FramePool {
        pub fn new(mut frames: Vec<FrameNum>) -> FramePool {
            frames.sort_unstable_by_key(|f| std::cmp::Reverse(f.0));
            let total = frames.len();
            FramePool {
                free: frames,
                refs: HashMap::new(),
                total,
            }
        }

        pub fn alloc(&mut self, cpu: &Cpu) -> Option<FrameNum> {
            cpu.tick(costs::FRAME_ALLOC);
            let f = self.free.pop()?;
            self.refs.insert(f.0, 1);
            Some(f)
        }

        pub fn incref(&mut self, frame: FrameNum) {
            *self.refs.entry(frame.0).or_insert(0) += 1;
        }

        pub fn decref(&mut self, frame: FrameNum) -> bool {
            match self.refs.get_mut(&frame.0) {
                Some(r) if *r > 1 => {
                    *r -= 1;
                    false
                }
                Some(_) => {
                    self.refs.remove(&frame.0);
                    self.free.push(frame);
                    true
                }
                None => false,
            }
        }

        pub fn refcount(&self, frame: FrameNum) -> u32 {
            self.refs.get(&frame.0).copied().unwrap_or(0)
        }

        pub fn in_use(&self) -> usize {
            self.total - self.free.len()
        }

        pub fn all_frames(&self) -> Vec<FrameNum> {
            let mut v: Vec<FrameNum> = self.free.clone();
            v.extend(self.refs.keys().map(|&f| FrameNum(f)));
            v.sort_unstable();
            v
        }

        pub fn translate(&mut self, map: &HashMap<u32, u32>) {
            for f in self.free.iter_mut() {
                if let Some(n) = map.get(&f.0) {
                    *f = FrameNum(*n);
                }
            }
            self.refs = self
                .refs
                .iter()
                .map(|(&f, &c)| (*map.get(&f).unwrap_or(&f), c))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultgen::rng::check;
    use std::sync::Arc;

    /// Same return values, same counts, same frames and the same free
    /// list — so the next `alloc` hands out the same frame — after
    /// every step of a random run that exhausts the pool and relocates
    /// it onto higher frame numbers.
    #[test]
    fn dense_counts_match_the_hashmap_pool_step_by_step() {
        check(
            "dense_counts_match_the_hashmap_pool_step_by_step",
            128,
            |rng| {
                const FRAMES: usize = 24;
                let frames: Vec<FrameNum> =
                    (0..FRAMES as u32).map(|i| FrameNum(3 + 2 * i)).collect();
                let mut pool = FramePool::new(frames.clone());
                let mut old = oracle::FramePool::new(frames.clone());
                let cpu = Cpu::new(0);
                let mut held: Vec<FrameNum> = Vec::new(); // one entry per reference
                                                          // Every number a managed frame ever had, and the highest.
                let mut seen = frames;
                let mut top = seen[FRAMES - 1].0;
                for _ in 0..rng.range(1, 300) {
                    let pick = held
                        .get(rng.below(held.len().max(1) as u64) as usize)
                        .copied();
                    match (rng.below(20), pick) {
                        (0..=3, Some(f)) => {
                            pool.incref(f);
                            old.incref(f);
                            held.push(f);
                        }
                        (4..=9, Some(f)) => {
                            assert_eq!(pool.decref(f), old.decref(f));
                            let at = held.iter().position(|&h| h == f).expect("picked from held");
                            held.swap_remove(at);
                        }
                        (10, _) => {
                            // Relocate a random half of the managed frames
                            // above everything seen so far.
                            let map: HashMap<u32, u32> = pool
                                .all_frames()
                                .into_iter()
                                .filter(|_| rng.below(2) == 0)
                                .map(|f| {
                                    top += 2;
                                    (f.0, top)
                                })
                                .collect();
                            pool.translate(&map);
                            old.translate(&map);
                            for f in held.iter_mut() {
                                *f = FrameNum(*map.get(&f.0).unwrap_or(&f.0));
                            }
                            seen.extend(map.values().map(|&f| FrameNum(f)));
                        }
                        // Allocation outnumbers release: the pool runs dry.
                        _ => {
                            let dry = pool.available() == 0;
                            let got = pool.alloc(&cpu);
                            assert_eq!(got, old.alloc(&cpu));
                            assert_eq!(got.is_none(), dry);
                            held.extend(got);
                        }
                    }
                    assert_eq!(pool.free, old.free);
                    assert_eq!(pool.all_frames(), old.all_frames());
                    assert_eq!((pool.in_use(), pool.total()), (old.in_use(), FRAMES));
                    // Vacated numbers, unmanaged neighbours and one past the
                    // end of the array included.
                    for f in seen.iter().flat_map(|f| [f.0, f.0 + 1]) {
                        assert_eq!(
                            pool.refcount(FrameNum(f)),
                            old.refcount(FrameNum(f)),
                            "frame {f}"
                        );
                    }
                }
            },
        );
    }

    fn pool(n: u32) -> FramePool {
        FramePool::new((1..=n).map(FrameNum).collect())
    }

    #[test]
    fn alloc_low_first_and_counts() {
        let mut p = pool(4);
        let cpu = Arc::new(Cpu::new(0));
        assert_eq!(p.alloc(&cpu), Some(FrameNum(1)));
        assert_eq!(p.available(), 3);
        assert_eq!(p.in_use(), 1);
        assert_eq!(p.refcount(FrameNum(1)), 1);
    }

    #[test]
    fn cow_sharing_frees_only_on_last_drop() {
        let mut p = pool(2);
        let cpu = Arc::new(Cpu::new(0));
        let f = p.alloc(&cpu).unwrap();
        p.incref(f);
        assert_eq!(p.refcount(f), 2);
        assert!(!p.decref(f));
        assert_eq!(p.available(), 1);
        assert!(p.decref(f));
        assert_eq!(p.available(), 2);
        assert_eq!(p.refcount(f), 0);
    }

    #[test]
    fn exhaustion() {
        let mut p = pool(1);
        let cpu = Arc::new(Cpu::new(0));
        p.alloc(&cpu).unwrap();
        assert_eq!(p.alloc(&cpu), None);
    }

    #[test]
    fn translate_remaps_everything() {
        let mut p = pool(3);
        let cpu = Arc::new(Cpu::new(0));
        let f1 = p.alloc(&cpu).unwrap();
        let map: HashMap<u32, u32> = [(1u32, 10u32), (2, 20), (3, 30)].into();
        p.translate(&map);
        assert_eq!(p.refcount(FrameNum(10)), 1);
        assert_eq!(p.refcount(f1), 0);
        let mut all = p.all_frames();
        all.sort_unstable();
        assert_eq!(all, vec![FrameNum(10), FrameNum(20), FrameNum(30)]);
    }
}
