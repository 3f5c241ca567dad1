//! Idle time: charging a gap in which a CPU has nothing to do.
//!
//! Simulated time has one level: the per-CPU cycle counters
//! ([`Cpu::cycles`]) advanced by [`Cpu::tick`] at every priced
//! operation.  `tick` costs the same whatever it adds, so a CPU that is
//! idle until cycle `T` — a servo worker waiting for its next open-loop
//! arrival, a watchdog backing off between attach attempts — gets there
//! in one `tick` of the whole gap.  [`EvClock::advance`] is that one
//! addition plus the `simx86.evclock.skip` probe that makes idle time
//! visible in a trace.
//!
//! Only *idle* gaps go through here.  Switch-critical code (the
//! mode-switch phases, the SMP rendezvous) earns its cycles operation
//! by operation and never calls `advance`.

use crate::cpu::Cpu;

/// The idle-gap charger of a [`crate::Machine`] (`machine.evclock`).
#[derive(Debug)]
pub struct EvClock;

impl EvClock {
    /// Advance `cpu` to absolute cycle `target`, charging the idle gap
    /// to its cycle counter in one [`Cpu::tick`].  Returns the cycles
    /// charged (0 when the CPU is already at or past `target`).
    pub fn advance(&self, cpu: &Cpu, target: u64) -> u64 {
        let gap = target.saturating_sub(cpu.cycles());
        if gap > 0 {
            cpu.tick(gap);
            merctrace::counter!(cpu.id, "simx86.evclock.skip", gap, cpu.cycles());
        }
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_lands_on_target_and_returns_the_gap() {
        let cpu = Cpu::new(0);
        cpu.tick(123);
        assert_eq!(EvClock.advance(&cpu, 1_234_567), 1_234_567 - 123);
        assert_eq!(cpu.cycles(), 1_234_567);
        assert_eq!(EvClock.advance(&cpu, 1_234_567), 0, "at target");
        assert_eq!(EvClock.advance(&cpu, 400), 0, "past target");
        assert_eq!(cpu.cycles(), 1_234_567);
    }
}
