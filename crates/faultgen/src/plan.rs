//! Fault taxonomy and campaign plans.
//!
//! A campaign is a list of [`FaultSpec`]s, each naming *what* breaks
//! ([`FaultTarget`]) and *when* it becomes due (`due_cycle`, on the
//! simulated cycle clock).  The injector fires a due fault the first
//! time the matching hardware hook runs at or after its due cycle, so
//! the whole campaign is a pure function of the plan — and the plan is
//! a pure function of the seed that generated it (DESIGN.md §12).

/// The fault classes the engine can inject (DESIGN.md §12 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// A single-bit flip in a simulated DRAM word (ECC-detectable).
    MemBitFlip,
    /// A disk request the device wedges on instead of completing.
    DeviceTimeout,
    /// An interrupt line that re-asserts after every service (stuck).
    StuckIrq,
    /// A one-shot interrupt nobody asked for.
    SpuriousIrq,
    /// A latent IDT descriptor corruption: dispatches of the vector are
    /// swallowed until the descriptor is rewritten.
    DescriptorCorrupt,
    /// A hypercall that fails transiently and is retried (penalty
    /// cycles charged to the caller).
    HypercallFail,
    /// A hypercall serviced on the hypervisor's slow path.
    HypercallSlow,
    /// Latent corruption inside the running VMM's own frame-accounting
    /// state.  Unlike every other class, the damaged component is the
    /// hypervisor itself, so the recovery action is a live-update to a
    /// pristine successor instance (whose accounting is recomputed from
    /// the guest's page tables), not a scrub or repair in place.
    VmmCorrupt,
}

impl FaultClass {
    /// Stable identifier used in reports and `faultgen_results.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::MemBitFlip => "mem-bit-flip",
            FaultClass::DeviceTimeout => "device-timeout",
            FaultClass::StuckIrq => "stuck-irq",
            FaultClass::SpuriousIrq => "spurious-irq",
            FaultClass::DescriptorCorrupt => "descriptor-corrupt",
            FaultClass::HypercallFail => "hypercall-fail",
            FaultClass::HypercallSlow => "hypercall-slow",
            FaultClass::VmmCorrupt => "vmm-corrupt",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a fault lands, with the class-specific parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Flip `1 << bit` in word `word` of physical frame `frame`.  Fires
    /// on the next read of that word at or after the due cycle; the
    /// flipped value is written back, so the corruption is persistent
    /// until scrubbed.
    MemWord {
        /// Target frame number.
        frame: u32,
        /// Word index within the frame (0..512).
        word: u16,
        /// Bit to flip (0..64).
        bit: u8,
    },
    /// Wedge the disk when it pops the request with this driver id; the
    /// device stalls (requests stay queued) until the fault is
    /// [resolved](crate::resolve).
    DiskRequest {
        /// The `DiskRequest::id` to wedge on.
        req_id: u64,
    },
    /// Stick interrupt `vector` on `cpu`: it re-asserts at every
    /// service point until resolved (an interrupt storm).
    IrqLine {
        /// CPU whose line sticks.
        cpu: usize,
        /// Vector that keeps re-asserting.
        vector: u8,
    },
    /// Raise `vector` once on `cpu` with no device behind it.
    Spurious {
        /// CPU to interrupt.
        cpu: usize,
        /// The spurious vector.
        vector: u8,
    },
    /// Corrupt the descriptor for `vector` on `cpu`: dispatches are
    /// swallowed (the gate is unreadable) until the descriptor is
    /// repaired and the fault resolved.
    IdtGate {
        /// CPU whose descriptor fetch fails.
        cpu: usize,
        /// The corrupted vector.
        vector: u8,
    },
    /// Fail or slow the next hypercall on `cpu` at or after the due
    /// cycle, charging `penalty_cycles` extra to the caller.
    Hypercall {
        /// CPU whose hypercall is hit.
        cpu: usize,
        /// Extra cycles the retry/slow path costs.
        penalty_cycles: u64,
        /// `true` = slow path, `false` = transient failure + retry.
        slow: bool,
    },
    /// Wipe the running VMM's accounting record of `frame` (type,
    /// count and pin state) behind the guest's back.  Fires at the
    /// next hypervisor service point on `cpu` at or after the due
    /// cycle; the corruption persists until a recovery agent resolves
    /// it — by live-updating to a successor VMM, which rebuilds the
    /// record from the guest's own page tables.
    VmmState {
        /// CPU at whose hypervisor service point the corruption lands.
        cpu: usize,
        /// Frame whose accounting record is wiped.
        frame: u32,
    },
}

/// One planned fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Campaign-unique id, echoed through signals and reports.
    pub id: u64,
    /// Earliest simulated cycle at which the fault may fire.  Sites
    /// without a cycle clock (the disk pump) treat the plan as due
    /// immediately and stamp this value as the injection time.
    pub due_cycle: u64,
    /// What breaks.
    pub target: FaultTarget,
}

impl FaultSpec {
    /// The fault's class, derived from its target.
    pub fn class(&self) -> FaultClass {
        match self.target {
            FaultTarget::MemWord { .. } => FaultClass::MemBitFlip,
            FaultTarget::DiskRequest { .. } => FaultClass::DeviceTimeout,
            FaultTarget::IrqLine { .. } => FaultClass::StuckIrq,
            FaultTarget::Spurious { .. } => FaultClass::SpuriousIrq,
            FaultTarget::IdtGate { .. } => FaultClass::DescriptorCorrupt,
            FaultTarget::Hypercall { slow: false, .. } => FaultClass::HypercallFail,
            FaultTarget::Hypercall { slow: true, .. } => FaultClass::HypercallSlow,
            FaultTarget::VmmState { .. } => FaultClass::VmmCorrupt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_derivation() {
        let spec = |target| FaultSpec {
            id: 0,
            due_cycle: 0,
            target,
        };
        assert_eq!(
            spec(FaultTarget::MemWord {
                frame: 1,
                word: 2,
                bit: 3
            })
            .class(),
            FaultClass::MemBitFlip
        );
        assert_eq!(
            spec(FaultTarget::Hypercall {
                cpu: 0,
                penalty_cycles: 100,
                slow: true
            })
            .class(),
            FaultClass::HypercallSlow
        );
        assert_eq!(
            spec(FaultTarget::Hypercall {
                cpu: 0,
                penalty_cycles: 100,
                slow: false
            })
            .class(),
            FaultClass::HypercallFail
        );
    }

    #[test]
    fn class_ids_are_stable() {
        assert_eq!(FaultClass::MemBitFlip.as_str(), "mem-bit-flip");
        assert_eq!(
            FaultClass::DescriptorCorrupt.to_string(),
            "descriptor-corrupt"
        );
        assert_eq!(FaultClass::VmmCorrupt.as_str(), "vmm-corrupt");
        assert_eq!(
            FaultSpec {
                id: 0,
                due_cycle: 0,
                target: FaultTarget::VmmState { cpu: 0, frame: 9 },
            }
            .class(),
            FaultClass::VmmCorrupt
        );
    }
}
