//! Scheduler bookkeeping: run queue and per-CPU current process.
//!
//! The mechanics of an actual context switch (CR3 load, kernel-stack
//! selector handling) live in `kernel.rs`; this module is the pure
//! state, so it can be cloned into checkpoints.

use crate::process::Pid;
use std::collections::VecDeque;

/// Scheduler state.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedState {
    /// Ready processes, FIFO.
    pub runq: VecDeque<Pid>,
    /// Current process per CPU.
    pub current: Vec<Option<Pid>>,
    /// Timer ticks observed.
    pub jiffies: u64,
}

impl SchedState {
    /// Fresh state for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> SchedState {
        SchedState {
            runq: VecDeque::new(),
            current: vec![None; num_cpus],
            jiffies: 0,
        }
    }

    /// Queue a process if not already queued.
    pub fn enqueue(&mut self, pid: Pid) {
        if !self.runq.iter().any(|&p| p == pid) {
            // volint::allow(SWITCH-ALLOC): run-queue append; reached from the live-update path only through the name-shared hypervisor enqueue, and the deque capacity is pre-grown by the process table
            self.runq.push_back(pid);
        }
    }

    /// Remove a process from the queue (exit, external block).
    pub fn remove(&mut self, pid: Pid) {
        self.runq.retain(|&p| p != pid);
    }

    /// Pop the next ready process.
    pub fn pick_next(&mut self) -> Option<Pid> {
        self.runq.pop_front()
    }

    /// The process on `cpu`.
    pub fn current(&self, cpu: usize) -> Option<Pid> {
        self.current[cpu]
    }

    /// Is `pid` on any CPU?
    pub fn is_on_cpu(&self, pid: Pid) -> bool {
        self.current.contains(&Some(pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_no_duplicates() {
        let mut s = SchedState::new(1);
        s.enqueue(Pid(1));
        s.enqueue(Pid(2));
        s.enqueue(Pid(1));
        assert_eq!(s.pick_next(), Some(Pid(1)));
        assert_eq!(s.pick_next(), Some(Pid(2)));
        assert_eq!(s.pick_next(), None);
    }

    #[test]
    fn remove_and_on_cpu() {
        let mut s = SchedState::new(2);
        s.enqueue(Pid(1));
        s.remove(Pid(1));
        assert_eq!(s.pick_next(), None);
        s.current[1] = Some(Pid(9));
        assert!(s.is_on_cpu(Pid(9)));
        assert!(!s.is_on_cpu(Pid(1)));
        assert_eq!(s.current(1), Some(Pid(9)));
    }
}
