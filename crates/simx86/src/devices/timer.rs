//! A per-CPU programmable interval timer.
//!
//! The paper's systems all run a 100 Hz timer; Mercury additionally arms
//! a retry timer when a mode switch finds the virtualization object busy
//! (§5.1.1).  This model keeps one deadline per CPU in simulated cycles;
//! `poll` fires the TIMER vector when the CPU's clock passes it.

use crate::costs::CYCLES_PER_US;
use crate::cpu::{vectors, Cpu};
use crate::sync::Mutex;
use std::sync::Arc;

/// Default period: 100 Hz = 10 ms.
pub const DEFAULT_PERIOD_CYCLES: u64 = 10_000 * CYCLES_PER_US;

struct PerCpu {
    next_deadline: u64,
    period: u64,
    enabled: bool,
}

/// The timer device.
pub struct SimTimer {
    percpu: Vec<Mutex<PerCpu>>,
    ticks_fired: Mutex<Vec<u64>>,
}

impl SimTimer {
    /// A timer for `num_cpus` CPUs, initially disabled.
    pub fn new(num_cpus: usize) -> Self {
        SimTimer {
            percpu: (0..num_cpus)
                .map(|_| {
                    Mutex::new(PerCpu {
                        next_deadline: 0,
                        period: DEFAULT_PERIOD_CYCLES,
                        enabled: false,
                    })
                })
                .collect(),
            ticks_fired: Mutex::new(vec![0; num_cpus]),
        }
    }

    /// Program the periodic timer for `cpu` starting from its current
    /// cycle count.
    pub fn start(&self, cpu: &Cpu, period_cycles: u64) {
        let mut p = self.percpu[cpu.id].lock();
        p.period = period_cycles;
        p.next_deadline = cpu.cycles() + period_cycles;
        p.enabled = true;
    }

    /// Stop the timer on `cpu`.
    pub fn stop(&self, cpu_id: usize) {
        self.percpu[cpu_id].lock().enabled = false;
    }

    /// One-shot: fire once after `delay_cycles` (used by Mercury's switch
    /// retry timer).  Subsequent firings resume the programmed period.
    pub fn arm_oneshot(&self, cpu: &Cpu, delay_cycles: u64) {
        let mut p = self.percpu[cpu.id].lock();
        p.next_deadline = cpu.cycles() + delay_cycles;
        p.enabled = true;
    }

    /// Check the deadline for `cpu`; assert TIMER if passed.  Returns
    /// true when an interrupt was raised.
    pub fn poll(&self, cpu: &Arc<Cpu>) -> bool {
        let mut p = self.percpu[cpu.id].lock();
        if p.enabled && cpu.cycles() >= p.next_deadline {
            let period = p.period.max(1);
            // Catch up without storms: schedule strictly in the future.
            while p.next_deadline <= cpu.cycles() {
                p.next_deadline += period;
            }
            drop(p);
            self.ticks_fired.lock()[cpu.id] += 1;
            cpu.raise(vectors::TIMER);
            true
        } else {
            false
        }
    }

    /// Number of ticks fired on `cpu_id` so far.
    pub fn ticks(&self, cpu_id: usize) -> u64 {
        self.ticks_fired.lock()[cpu_id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_period() {
        let cpu = Arc::new(Cpu::new(0));
        let t = SimTimer::new(1);
        t.start(&cpu, 1_000);
        assert!(!t.poll(&cpu));
        cpu.tick(999);
        assert!(!t.poll(&cpu));
        cpu.tick(2);
        assert!(t.poll(&cpu));
        assert!(cpu.is_pending(vectors::TIMER));
        assert_eq!(t.ticks(0), 1);
    }

    #[test]
    fn periodic_refires() {
        let cpu = Arc::new(Cpu::new(0));
        let t = SimTimer::new(1);
        t.start(&cpu, 100);
        cpu.tick(150);
        assert!(t.poll(&cpu));
        cpu.tick(100);
        assert!(t.poll(&cpu));
        assert_eq!(t.ticks(0), 2);
    }

    #[test]
    fn catch_up_fires_once() {
        let cpu = Arc::new(Cpu::new(0));
        let t = SimTimer::new(1);
        t.start(&cpu, 100);
        cpu.tick(10_000);
        assert!(t.poll(&cpu));
        // Deadline advanced past now: immediate re-poll is quiet.
        assert!(!t.poll(&cpu));
    }

    #[test]
    fn oneshot_and_stop() {
        let cpu = Arc::new(Cpu::new(0));
        let t = SimTimer::new(1);
        t.arm_oneshot(&cpu, 50);
        cpu.tick(60);
        assert!(t.poll(&cpu));
        t.stop(0);
        cpu.tick(1_000_000);
        assert!(!t.poll(&cpu));
    }
}
