//! A per-CPU programmable interval timer.
//!
//! The paper's systems all run a 100 Hz timer; Mercury additionally arms
//! a retry timer when a mode switch finds the virtualization object busy
//! (§5.1.1).  This model keeps one deadline per CPU in simulated cycles;
//! `poll` fires the TIMER vector when the CPU's clock passes it.
//!
//! Any thread may program or poll any CPU's timer (`Machine::
//! pump_devices` polls them all), so the state is behind a lock; the
//! armed deadline is mirrored in an atomic so that a poll — one per
//! syscall — takes the lock only when a tick is due.

use crate::costs::CYCLES_PER_US;
use crate::cpu::{vectors, Cpu};
use crate::sync::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default period: 100 Hz = 10 ms.
pub const DEFAULT_PERIOD_CYCLES: u64 = 10_000 * CYCLES_PER_US;

struct State {
    next_deadline: u64,
    period: u64,
    enabled: bool,
}

struct PerCpu {
    state: Mutex<State>,
    /// `next_deadline` while enabled, `u64::MAX` while not; written
    /// under `state`'s lock ([`PerCpu::publish`]), read without it.
    armed: AtomicU64,
}

impl PerCpu {
    /// Mirror the state just written; the caller holds its lock.
    fn publish(&self, state: &MutexGuard<'_, State>) {
        let armed = if state.enabled {
            state.next_deadline
        } else {
            u64::MAX
        };
        self.armed.store(armed, Ordering::Release);
    }
}

/// The timer device.
pub struct SimTimer {
    percpu: Vec<PerCpu>,
    ticks_fired: Mutex<Vec<u64>>,
}

impl SimTimer {
    /// A timer for `num_cpus` CPUs, initially disabled.
    pub fn new(num_cpus: usize) -> Self {
        SimTimer {
            percpu: (0..num_cpus)
                .map(|_| PerCpu {
                    state: Mutex::new(State {
                        next_deadline: 0,
                        period: DEFAULT_PERIOD_CYCLES,
                        enabled: false,
                    }),
                    armed: AtomicU64::new(u64::MAX),
                })
                .collect(),
            ticks_fired: Mutex::new(vec![0; num_cpus]),
        }
    }

    /// Program the periodic timer for `cpu` starting from its current
    /// cycle count.
    pub fn start(&self, cpu: &Cpu, period_cycles: u64) {
        let slot = &self.percpu[cpu.id];
        let mut p = slot.state.lock();
        p.period = period_cycles;
        p.next_deadline = cpu.cycles() + period_cycles;
        p.enabled = true;
        slot.publish(&p);
    }

    /// Stop the timer on `cpu`.
    pub fn stop(&self, cpu_id: usize) {
        let slot = &self.percpu[cpu_id];
        let mut p = slot.state.lock();
        p.enabled = false;
        slot.publish(&p);
    }

    /// One-shot: fire once after `delay_cycles` (used by Mercury's switch
    /// retry timer).  Subsequent firings resume the programmed period.
    pub fn arm_oneshot(&self, cpu: &Cpu, delay_cycles: u64) {
        let slot = &self.percpu[cpu.id];
        let mut p = slot.state.lock();
        p.next_deadline = cpu.cycles() + delay_cycles;
        p.enabled = true;
        slot.publish(&p);
    }

    /// Check the deadline for `cpu`; assert TIMER if passed.  Returns
    /// true when an interrupt was raised.
    pub fn poll(&self, cpu: &Arc<Cpu>) -> bool {
        let slot = &self.percpu[cpu.id];
        if cpu.cycles() < slot.armed.load(Ordering::Acquire) {
            return false;
        }
        // Due by the mirror; decide under the lock, where it is exact.
        let mut p = slot.state.lock();
        if p.enabled && cpu.cycles() >= p.next_deadline {
            let period = p.period.max(1);
            // Catch up without storms: schedule strictly in the future.
            while p.next_deadline <= cpu.cycles() {
                p.next_deadline += period;
            }
            slot.publish(&p);
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

    /// The fast path may only ever be early (it then decides under the
    /// lock): with a period armed, a one-shot below it moves the mirror
    /// down with the deadline and fires on time.
    #[test]
    fn oneshot_below_the_period_fires_on_time() {
        let cpu = Arc::new(Cpu::new(0));
        let t = SimTimer::new(1);
        t.start(&cpu, 10_000);
        t.arm_oneshot(&cpu, 50);
        cpu.tick(49);
        assert!(!t.poll(&cpu));
        cpu.tick(1);
        assert!(t.poll(&cpu));
        // The programmed period resumes from the one-shot's deadline.
        cpu.tick(9_999);
        assert!(!t.poll(&cpu));
        cpu.tick(1);
        assert!(t.poll(&cpu));
        assert_eq!(t.ticks(0), 2);
    }

    impl SimTimer {
        /// Under the lock the mirror is the deadline, or `MAX` when off.
        fn assert_mirror_exact(&self, cpu_id: usize) {
            let slot = &self.percpu[cpu_id];
            let p = slot.state.lock();
            let expect = if p.enabled { p.next_deadline } else { u64::MAX };
            assert_eq!(slot.armed.load(Ordering::Acquire), expect);
        }
    }

    /// `Machine::pump_devices` polls every CPU's timer from whichever
    /// thread calls it, and Mercury arms retries from the initiator:
    /// reprogramming and polling from a foreign thread while the owner
    /// runs never leaves the mirror ahead of (or behind) the deadline.
    #[test]
    fn mirror_stays_exact_under_a_foreign_thread() {
        use faultgen::rng::SplitMix64;
        let cpu = Arc::new(Cpu::new(0));
        let t = SimTimer::new(1);
        t.start(&cpu, 300);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut rng = SplitMix64::new(11);
                for _ in 0..20_000 {
                    match rng.below(8) {
                        0 => t.start(&cpu, rng.range(1, 500)),
                        1 => t.stop(0),
                        2 => t.arm_oneshot(&cpu, rng.below(200)),
                        _ => {
                            t.poll(&cpu);
                        }
                    }
                    t.assert_mirror_exact(0);
                }
            });
            let mut fired = 0;
            for _ in 0..20_000 {
                cpu.tick(37);
                fired += t.poll(&cpu) as u64;
                t.assert_mirror_exact(0);
            }
            assert!(fired > 0, "the owner's polls fired under the churn");
        });
        // Quiet again: armed and past due fires, whoever programmed it.
        t.start(&cpu, 100);
        cpu.tick(100);
        assert!(t.poll(&cpu));
    }
}
