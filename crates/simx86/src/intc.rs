//! The interrupt controller: routes device interrupts to CPUs and sends
//! inter-processor interrupts.
//!
//! IPIs are the substrate of Mercury's SMP mode-switch protocol (§5.4):
//! the control processor notifies its peers with IPIs and coordinates the
//! rendezvous through shared variables.

use crate::costs;
use crate::cpu::Cpu;
use std::sync::Arc;

/// The machine's interrupt controller.
pub struct InterruptController {
    cpus: Vec<Arc<Cpu>>,
}

impl InterruptController {
    /// Build a controller over the machine's CPUs.
    pub fn new(cpus: Vec<Arc<Cpu>>) -> Self {
        InterruptController { cpus }
    }

    /// Number of CPUs reachable.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Raise `vector` on `cpu` (device interrupt line assertion).
    pub fn raise(&self, cpu: usize, vector: u8) {
        self.cpus[cpu].raise(vector);
    }

    /// Send an IPI to every CPU except the sender.
    /// Virtualization-sensitive (paper §5.4).
    #[doc(alias = "volint-privileged")]
    pub fn broadcast_ipi(&self, from: &Cpu, vector: u8) {
        // volint::bound(64) — one IPI per CPU; the machine model tops out well below this
        for cpu in &self.cpus {
            if cpu.id != from.id {
                from.tick(costs::IPI_SEND);
                merctrace::counter!(from.id, "simx86.ipi.send", 1, from.cycles());
                cpu.raise(vector);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::vectors;

    fn cpus(n: usize) -> Vec<Arc<Cpu>> {
        (0..n).map(|i| Arc::new(Cpu::new(i))).collect()
    }

    #[test]
    fn raise_targets_one_cpu() {
        let cs = cpus(2);
        let intc = InterruptController::new(cs.clone());
        intc.raise(1, vectors::DISK);
        assert!(!cs[0].is_pending(vectors::DISK));
        assert!(cs[1].is_pending(vectors::DISK));
    }

    #[test]
    fn broadcast_excludes_sender_and_charges_it() {
        let cs = cpus(3);
        let intc = InterruptController::new(cs.clone());
        let before = cs[0].cycles();
        intc.broadcast_ipi(&cs[0], vectors::SELF_VIRT_RENDEZVOUS);
        assert!(!cs[0].is_pending(vectors::SELF_VIRT_RENDEZVOUS));
        assert!(cs[1].is_pending(vectors::SELF_VIRT_RENDEZVOUS));
        assert!(cs[2].is_pending(vectors::SELF_VIRT_RENDEZVOUS));
        assert_eq!(cs[0].cycles() - before, 2 * costs::IPI_SEND);
    }
}
