//! # simx86 — a simulated x86-like machine
//!
//! This crate provides the hardware substrate that the Mercury
//! self-virtualization stack runs on.  The real Mercury prototype is a
//! patched Linux kernel on Xen on x86 Xeons; since a ring-deprivileged x86
//! kernel cannot run inside a Rust test process, we simulate the parts of
//! the architecture that virtualization actually manipulates:
//!
//! * **CPUs** with privilege levels (PL0/PL1/PL3), control registers
//!   (CR0/CR3/CR4), descriptor-table registers (IDTR as a swappable gate
//!   table), an interrupt-enable flag and a cycle counter (`RDTSC`).
//! * **Physical memory** as an array of 4 KiB frames, with a frame
//!   allocator.  Page tables are *real data in simulated frames* — the MMU
//!   walks them word by word, so anything that corrupts a page table
//!   faults just as it would on hardware.
//! * A two-level **MMU** (9 + 9 + 12 bit split over a 1 GiB virtual
//!   address space) with a per-CPU TLB.
//! * An **interrupt controller** with per-CPU pending vectors and
//!   inter-processor interrupts (IPIs) — the mechanism Mercury's SMP mode
//!   switch protocol (§5.4 of the paper) is built on.
//! * **Devices**: a programmable timer, a sector-addressed disk, a NIC
//!   attached to a pluggable wire, and a console.
//! * A **cycle cost model** ([`costs`]) calibrated as a 3 GHz CPU
//!   (3000 cycles = 1 µs) so that simulated latencies land in the same
//!   regime as the paper's measurements.
//! * **Idle time** ([`evclock`]): the per-CPU cycle counters are the
//!   only clock, and an idle gap is one `tick` through
//!   [`EvClock::advance`] (DESIGN.md §14).
//!
//! Privilege is enforced: every privileged operation checks the CPU's
//! current privilege level and returns [`Fault::GeneralProtection`] when
//! executed de-privileged.  A hypervisor claims PL0 and installs its own
//! gate table; the guest kernel then runs at PL1 and must either use
//! hypercalls (paravirtualization) or trap.  Each primitive a
//! de-privileged kernel must not reach directly carries
//! `#[doc(alias = "volint-privileged")]` and its paper section at its
//! definition; those markers are the one list of them, and `volint`'s
//! VO-BYPASS rule reads it.
//!
//! With the `fault` feature (off by default, an alias for
//! `faultgen/enabled`) the memory, interrupt and device paths compile in
//! faultgen's injection hooks: memory bit-flips on word reads, a wedged
//! disk in the pump, spurious/stuck interrupt lines at service points,
//! and swallowed gate dispatches for corrupted descriptors.  Without the
//! feature every hook expands to a constant and the hardware model is
//! cycle-identical to this crate built before the hooks existed
//! (`tests/faultgen_overhead.rs` in the workspace root pins this).

#![warn(missing_docs)]

pub mod costs;
pub mod cpu;
pub mod devices;
pub mod evclock;
pub mod fault;
pub mod intc;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod paging;
pub mod sync;
pub mod tlb;
pub mod vmx;

pub use cpu::{Cpu, Gate, IdtTable, InterruptSink, PrivLevel, TrapFrame};
pub use evclock::EvClock;
pub use fault::{AccessKind, Fault};
pub use intc::InterruptController;
pub use machine::{FrameAllocator, Machine, MachineConfig};
pub use mem::{FrameNum, PhysAddr, PhysMemory};
pub use mmu::Mmu;
pub use paging::{Pte, VirtAddr, PAGE_SIZE};
pub use vmx::Ept;
