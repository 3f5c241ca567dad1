//! Hardware faults raised by the simulated machine.

use crate::paging::VirtAddr;
use std::fmt;

/// The kind of memory access that triggered a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch (used only for completeness; kernel code is
    /// host-native in this simulation).
    Execute,
}

/// A fault delivered by the simulated hardware.
///
/// Faults are *values*, not panics: the layer that owns PL0 (the bare
/// kernel in native mode, the hypervisor in virtual mode) decides how to
/// handle them, mirroring the x86 exception model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Page not present during translation.
    PageNotPresent {
        /// Faulting virtual address.
        va: VirtAddr,
        /// The access that faulted.
        access: AccessKind,
    },
    /// Page present but the access violates its protection bits
    /// (write to read-only, user access to supervisor page, ...).
    PageProtection {
        /// Faulting virtual address.
        va: VirtAddr,
        /// The access that faulted.
        access: AccessKind,
    },
    /// A privileged operation was executed at an insufficient privilege
    /// level (the classic `#GP`).
    GeneralProtection {
        /// The offending operation.
        what: &'static str,
    },
    /// A physical address fell outside installed memory.
    BadPhysAddr {
        /// The bad address.
        pa: u64,
    },
    /// Translation walked into a malformed table (e.g. an L2 entry
    /// pointing at a nonexistent frame).
    BadPageTable {
        /// What was malformed.
        detail: &'static str,
    },
    /// Double fault: a fault occurred while dispatching a fault and no
    /// handler was installed.  Terminal.
    DoubleFault,
    /// Machine check: used by the cluster layer to inject hardware
    /// failures (§6.5 failure prediction scenario).
    MachineCheck {
        /// What the platform reported.
        detail: &'static str,
    },
    /// Second-level (EPT) translation denied the access: the guest
    /// reached for a machine frame outside its extended page table.
    EptViolation {
        /// The offending machine frame.
        frame: u32,
    },
}

impl Fault {
    /// True for faults that a page-fault handler can plausibly fix
    /// (demand paging, COW).
    pub fn is_page_fault(&self) -> bool {
        matches!(
            self,
            Fault::PageNotPresent { .. } | Fault::PageProtection { .. }
        )
    }

    /// The faulting virtual address, when there is one.
    pub fn fault_va(&self) -> Option<VirtAddr> {
        match self {
            Fault::PageNotPresent { va, .. } | Fault::PageProtection { va, .. } => Some(*va),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PageNotPresent { va, access } => {
                write!(f, "page not present at {va:?} ({access:?})")
            }
            Fault::PageProtection { va, access } => {
                write!(f, "page protection violation at {va:?} ({access:?})")
            }
            Fault::GeneralProtection { what } => write!(f, "general protection fault: {what}"),
            Fault::BadPhysAddr { pa } => write!(f, "bad physical address {pa:#x}"),
            Fault::BadPageTable { detail } => write!(f, "malformed page table: {detail}"),
            Fault::DoubleFault => write!(f, "double fault"),
            Fault::MachineCheck { detail } => write!(f, "machine check: {detail}"),
            Fault::EptViolation { frame } => write!(f, "EPT violation on frame {frame}"),
        }
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_fault_classification() {
        let f = Fault::PageNotPresent {
            va: VirtAddr(0x1000),
            access: AccessKind::Read,
        };
        assert!(f.is_page_fault());
        assert_eq!(f.fault_va(), Some(VirtAddr(0x1000)));

        let g = Fault::GeneralProtection { what: "wrmsr" };
        assert!(!g.is_page_fault());
        assert_eq!(g.fault_va(), None);
    }

    #[test]
    fn display_is_informative() {
        let f = Fault::GeneralProtection { what: "mov cr3" };
        assert!(f.to_string().contains("mov cr3"));
    }
}
