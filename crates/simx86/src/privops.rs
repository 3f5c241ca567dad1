//! Machine-readable registry of privileged primitives.
//!
//! Every operation in this crate that a de-privileged kernel must not
//! reach directly — control-register writes, descriptor-table loads,
//! interrupt-flag and privilege-level changes, TLB maintenance,
//! page-table mutation and IPIs — is tagged at its definition with
//! `#[doc(alias = "volint-privileged")]` and listed here.  The `volint`
//! invariant checker derives its VO-BYPASS target set from the markers,
//! and the tests below hold the marker set and this registry together
//! so neither can drift: adding a privileged primitive without
//! registering it (or vice versa) fails the build.
//!
//! Privilege is enforced by the simulated hardware itself — a
//! registered primitive executed de-privileged faults exactly as the
//! paper's de-privileged kernel would trap into the VMM:
//!
//! ```
//! use simx86::cpu::{Cpu, PrivLevel};
//!
//! let cpu = Cpu::new(0);
//! cpu.write_cr3(1).expect("PL0 may load CR3");
//!
//! // De-privilege the CPU, as Mercury's attach does to the kernel …
//! cpu.set_pl_raw(PrivLevel::Pl1);
//! // … and the same instruction now takes a #GP.
//! assert!(cpu.write_cr3(2).is_err());
//!
//! // The registry documents why it is virtualization-sensitive.
//! let op = simx86::privops::REGISTRY
//!     .iter()
//!     .find(|op| op.name == "write_cr3")
//!     .unwrap();
//! assert_eq!(op.paper_ref, "§5.3");
//! assert!(simx86::privops::is_privileged("write_cr3"));
//! ```

/// One privileged primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivOp {
    /// Method name as it appears at call sites.
    pub name: &'static str,
    /// What the primitive does to the machine.
    pub effect: &'static str,
    /// Mercury paper section motivating its virtualization.
    pub paper_ref: &'static str,
}

/// All privileged primitives, in definition order per module.
pub static REGISTRY: &[PrivOp] = &[
    // cpu.rs
    PrivOp {
        name: "set_pl_raw",
        effect: "changes the CPU privilege level outside a gate",
        paper_ref: "§4.2",
    },
    PrivOp {
        name: "write_cr3",
        effect: "loads the address-space root and flushes the TLB",
        paper_ref: "§5.3",
    },
    PrivOp {
        name: "read_cr3",
        effect: "reads the address-space root (privileged on x86)",
        paper_ref: "§5.3",
    },
    PrivOp {
        name: "set_cr3_raw",
        effect: "hardware-internal CR3 restore for state reload",
        paper_ref: "§5.1.3",
    },
    PrivOp {
        name: "flush_tlb_local",
        effect: "invalidates every non-global TLB entry on this CPU",
        paper_ref: "§5.3",
    },
    PrivOp {
        name: "request_tlb_flush",
        effect: "charges a peer CPU a TLB flush and has it applied before that CPU's next TLB use",
        paper_ref: "§5.3",
    },
    PrivOp {
        name: "invlpg",
        effect: "invalidates one page translation",
        paper_ref: "§5.3",
    },
    PrivOp {
        name: "cli",
        effect: "disables interrupt delivery",
        paper_ref: "§5.4",
    },
    PrivOp {
        name: "sti",
        effect: "enables interrupt delivery",
        paper_ref: "§5.4",
    },
    PrivOp {
        name: "set_if_raw",
        effect: "hardware-internal IF change for trap entry/exit",
        paper_ref: "§5.4",
    },
    PrivOp {
        name: "lidt",
        effect: "installs a trap gate table",
        paper_ref: "§5.1.2",
    },
    PrivOp {
        name: "set_idt_raw",
        effect: "hardware-internal IDT swap for state reload",
        paper_ref: "§5.1.3",
    },
    PrivOp {
        name: "replace_idt_raw",
        effect: "hardware-internal IDT swap, only while a given table is loaded",
        paper_ref: "§3.2.1",
    },
    PrivOp {
        name: "lgdt",
        effect: "installs a segment descriptor table",
        paper_ref: "§5.1.2",
    },
    PrivOp {
        name: "set_gdt_raw",
        effect: "hardware-internal GDT swap for state reload",
        paper_ref: "§5.1.3",
    },
    PrivOp {
        name: "set_non_root",
        effect: "enters/leaves VT-x-style non-root mode with an EPT",
        paper_ref: "§8",
    },
    PrivOp {
        name: "set_lazy_set",
        effect: "installs/removes the MMU's pending-validation set and flushes the TLB",
        paper_ref: "§5.1.2",
    },
    // mem.rs
    PrivOp {
        name: "write_pte",
        effect: "mutates a page-table entry in physical memory",
        paper_ref: "§5.3",
    },
    PrivOp {
        name: "write_ptes",
        effect: "mutates a run of entries of one page table in physical memory",
        paper_ref: "§5.3",
    },
    // intc.rs
    PrivOp {
        name: "broadcast_ipi",
        effect: "raises an inter-processor interrupt on every other CPU",
        paper_ref: "§5.4",
    },
];

/// Is `name` a registered privileged primitive?
pub fn is_privileged(name: &str) -> bool {
    REGISTRY.iter().any(|op| op.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `#[doc(alias = "volint-privileged")]` markers in this
    /// crate's sources, extracted with volint's own walker.
    fn marked() -> BTreeSet<String> {
        let sources = [
            include_str!("cpu.rs"),
            include_str!("mem.rs"),
            include_str!("intc.rs"),
        ];
        sources
            .iter()
            .flat_map(|s| volint::walk::walk_file("", s).fns)
            .filter(|f| f.privileged)
            .map(|f| f.name)
            .collect()
    }

    #[test]
    fn registry_and_markers_agree() {
        let marked = marked();
        let registered: BTreeSet<String> =
            REGISTRY.iter().map(|op| op.name.to_string()).collect();
        assert_eq!(
            marked, registered,
            "privileged-op markers and privops::REGISTRY drifted apart"
        );
    }

    #[test]
    fn registry_is_duplicate_free_and_annotated() {
        let mut seen = BTreeSet::new();
        for op in REGISTRY {
            assert!(seen.insert(op.name), "duplicate registry entry {}", op.name);
            assert!(!op.effect.is_empty());
            assert!(op.paper_ref.starts_with('§'));
        }
        assert!(is_privileged("write_cr3"));
        assert!(!is_privileged("cycles"));
    }
}
