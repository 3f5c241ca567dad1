//! A round-robin vCPU scheduler.
//!
//! The paper's testbed runs one or two guests; a credit scheduler's
//! weights would add nothing to the reproduction, so Xenon schedules
//! runnable vCPUs round-robin per physical CPU.  The workload harness
//! calls [`Scheduler::pick_next`] to decide which domain to drive.

use crate::domain::{DomId, Domain};
use simx86::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A schedulable entity: one vCPU of one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedUnit {
    /// The domain.
    pub dom: DomId,
    /// vCPU index within the domain.
    pub vcpu: usize,
}

/// The scheduler: a run queue per physical CPU.
pub struct Scheduler {
    queues: Vec<Mutex<VecDeque<SchedUnit>>>,
}

impl Scheduler {
    /// A scheduler for `num_pcpus` physical CPUs.
    pub fn new(num_pcpus: usize) -> Self {
        Scheduler {
            queues: (0..num_pcpus)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        }
    }

    /// Add a vCPU to `pcpu`'s run queue.
    pub fn enqueue(&self, pcpu: usize, unit: SchedUnit) {
        let mut q = self.queues[pcpu].lock();
        if !q.contains(&unit) {
            q.push_back(unit);
        }
    }

    /// Remove every vCPU of `dom` from all queues (domain destruction or
    /// migration away), handing each `(pcpu, unit)` removed to
    /// `removed`, so a pause that is called off can put them back with
    /// [`Self::enqueue`].  A callback rather than a list: domain
    /// destruction runs on the live-update path, which must not allocate.
    pub fn remove_domain(&self, dom: DomId, mut removed: impl FnMut(usize, SchedUnit)) {
        // volint::bound(64) — one run queue per physical CPU
        for (pcpu, q) in self.queues.iter().enumerate() {
            q.lock().retain(|&u| {
                if u.dom == dom {
                    removed(pcpu, u);
                }
                u.dom != dom
            });
        }
    }

    /// Pick the next runnable unit on `pcpu`, rotating it to the back of
    /// the queue.  `resolve` maps a domain id to the live domain; dead
    /// or fully blocked domains are skipped (blocked ones stay queued —
    /// an event may wake them).
    pub fn pick_next(
        &self,
        pcpu: usize,
        resolve: impl Fn(DomId) -> Option<Arc<Domain>>,
    ) -> Option<SchedUnit> {
        let mut q = self.queues[pcpu].lock();
        // Purge dead domains eagerly.
        q.retain(|u| resolve(u.dom).map(|d| d.is_alive()).unwrap_or(false));
        let len = q.len();
        for _ in 0..len {
            let unit = q.pop_front()?;
            q.push_back(unit);
            if let Some(d) = resolve(unit.dom) {
                let runnable = d
                    .vcpus()
                    .get(unit.vcpu)
                    .map(|v| v.runnable)
                    .unwrap_or(false);
                if runnable {
                    return Some(unit);
                }
            }
        }
        None
    }

    /// Units queued on `pcpu` (diagnostics).
    pub fn queue_len(&self, pcpu: usize) -> usize {
        self.queues[pcpu].lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doms() -> (Arc<Domain>, Arc<Domain>) {
        (
            Domain::new(DomId(0), "a", true, 0),
            Domain::new(DomId(1), "b", false, 0),
        )
    }

    #[test]
    fn round_robin_rotation() {
        let (a, b) = doms();
        let s = Scheduler::new(1);
        s.enqueue(0, SchedUnit { dom: a.id, vcpu: 0 });
        s.enqueue(0, SchedUnit { dom: b.id, vcpu: 0 });
        let resolve = |id: DomId| {
            if id == a.id {
                Some(a.clone())
            } else {
                Some(b.clone())
            }
        };
        assert_eq!(s.pick_next(0, resolve).unwrap().dom, a.id);
        assert_eq!(s.pick_next(0, resolve).unwrap().dom, b.id);
        assert_eq!(s.pick_next(0, resolve).unwrap().dom, a.id);
    }

    #[test]
    fn blocked_vcpus_skipped_but_kept() {
        let (a, b) = doms();
        let s = Scheduler::new(1);
        s.enqueue(0, SchedUnit { dom: a.id, vcpu: 0 });
        s.enqueue(0, SchedUnit { dom: b.id, vcpu: 0 });
        a.set_runnable(0, false);
        let resolve = |id: DomId| {
            if id == a.id {
                Some(a.clone())
            } else {
                Some(b.clone())
            }
        };
        assert_eq!(s.pick_next(0, resolve).unwrap().dom, b.id);
        assert_eq!(s.pick_next(0, resolve).unwrap().dom, b.id);
        // Wake it: scheduled again.
        a.set_runnable(0, true);
        assert_eq!(s.pick_next(0, resolve).unwrap().dom, a.id);
        assert_eq!(s.queue_len(0), 2);
    }

    #[test]
    fn dead_domains_drop_from_queue() {
        let (a, b) = doms();
        let s = Scheduler::new(1);
        s.enqueue(0, SchedUnit { dom: a.id, vcpu: 0 });
        s.enqueue(0, SchedUnit { dom: b.id, vcpu: 0 });
        b.kill();
        let resolve = |id: DomId| {
            if id == a.id {
                Some(a.clone())
            } else {
                Some(b.clone())
            }
        };
        assert_eq!(s.pick_next(0, resolve).unwrap().dom, a.id);
        assert_eq!(s.queue_len(0), 1);
    }

    #[test]
    fn duplicate_enqueue_ignored_and_remove_domain() {
        let (a, _) = doms();
        let s = Scheduler::new(2);
        let u = SchedUnit { dom: a.id, vcpu: 0 };
        s.enqueue(1, u);
        s.enqueue(1, u);
        assert_eq!(s.queue_len(1), 1);
        let mut removed = Vec::new();
        s.remove_domain(a.id, |pcpu, unit| removed.push((pcpu, unit)));
        assert_eq!(removed, [(1, u)]);
        assert_eq!(s.queue_len(1), 0);
        assert!(s.pick_next(1, |_| Some(a.clone())).is_none());
    }
}
