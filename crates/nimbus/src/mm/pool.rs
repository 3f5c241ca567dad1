//! The kernel's frame pool: free-list plus sharing counts.
//!
//! The pool manages the frames the kernel was booted with (its domain
//! quota under a hypervisor; effectively all of RAM on bare hardware).
//! Data frames are reference-counted so copy-on-write sharing after
//! `fork` can free frames only when the last mapping goes away.

use simx86::costs;
use simx86::mem::FrameNum;
use simx86::Cpu;
use std::collections::HashMap;

/// The pool.  Lives inside the big kernel lock; not internally locked.
#[derive(Debug, Clone)]
pub struct FramePool {
    free: Vec<FrameNum>,
    refs: HashMap<u32, u32>,
    total: usize,
}

impl FramePool {
    /// A pool over the given frames, all free.
    pub fn new(mut frames: Vec<FrameNum>) -> FramePool {
        // Descending, so pop() hands out low frames first (stable tests).
        frames.sort_unstable_by_key(|f| std::cmp::Reverse(f.0));
        let total = frames.len();
        FramePool {
            free: frames,
            refs: HashMap::new(),
            total,
        }
    }

    /// Allocate one frame with reference count 1.
    pub fn alloc(&mut self, cpu: &Cpu) -> Option<FrameNum> {
        cpu.tick(costs::FRAME_ALLOC);
        let f = self.free.pop()?;
        self.refs.insert(f.0, 1);
        Some(f)
    }

    /// Take another reference to a shared frame (COW fork).
    pub fn incref(&mut self, frame: FrameNum) {
        *self.refs.entry(frame.0).or_insert(0) += 1;
    }

    /// Drop a reference; frees the frame when it was the last one.
    /// Returns true if the frame was actually freed.
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
            None => {
                debug_assert!(false, "decref of untracked frame {}", frame.0);
                false
            }
        }
    }

    /// Current reference count (0 = free or untracked).
    pub fn refcount(&self, frame: FrameNum) -> u32 {
        self.refs.get(&frame.0).copied().unwrap_or(0)
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

    /// Every frame this pool manages, free or not (ascending).
    pub fn all_frames(&self) -> Vec<FrameNum> {
        let mut v: Vec<FrameNum> = self.free.clone();
        v.extend(self.refs.keys().map(|&f| FrameNum(f)));
        v.sort_unstable();
        v
    }

    /// Remap every frame number through `map` (restore/migration: the
    /// domain landed in different physical frames).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
