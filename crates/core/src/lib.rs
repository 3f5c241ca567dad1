//! # mercury — self-virtualization for the nimbus kernel
//!
//! This crate is the reproduction of the paper's contribution: the
//! ability of a running operating system to **attach a full-fledged VMM
//! underneath itself on demand, and detach it when no longer needed**,
//! in sub-millisecond time and without disturbing running applications.
//!
//! The pieces map one-to-one onto the paper's design (§4–§5):
//!
//! * **Virtualization objects** ([`vo`]): the kernel's sensitive
//!   operations behind a swappable, *reference-counted* table.  Mercury
//!   ships a native VO (direct hardware access) and a virtual VO
//!   (hypercalls); relocating the kernel between modes is one pointer
//!   store once the reference count reaches zero (§4.2, §5.3).
//! * **Reference-count gating and the retry timer** ([`refcount`],
//!   §5.1.1): a switch request that finds the VO busy is deferred to a
//!   10 ms kernel timer that retries until safe.
//! * **State transfer** (§5.1.2): page-table pages flip between
//!   writable (native) and read-only (virtual) in the kernel direct
//!   map; per-thread kernel-segment privilege is rewritten; the cached
//!   segment selectors in every saved kernel-stack trap context are
//!   fixed by a stub so the resume path doesn't take a #GP.
//! * **State reload** (§5.1.3): CR3/IDT/GDT are reloaded inside the
//!   dedicated switch interrupt's handler, and the privilege-level
//!   change is committed by editing the interrupt's return frame.
//! * **Frame accounting strategies** ([`pgtrack`], §5.1.2): the paper's
//!   two — recompute-on-attach (dominates the 0.22 ms switch of §7.4)
//!   and active tracking (2~3 % native overhead, faster switch) — and
//!   the default, [`TrackingStrategy::DirtyRecompute`], which
//!   revalidates at attach only the page tables stored to while native.
//!   All three are implemented and compared by the ablation bench.
//! * **SMP rendezvous** ([`rendezvous`], §5.4): the control processor
//!   IPIs its peers and coordinates the mode switch through shared
//!   atomic variables so no core ever runs in the wrong mode.  The
//!   rendezvous rounds are generation-stamped so a late IPI from an
//!   aborted round can never pollute a later one, and the parked peers
//!   double as workers: each charges its stripe of the attach-time
//!   page-frame scan ([`shard`]) while the control processor walks the
//!   tables, turning §7.4's dominant serial cost into a parallel one.
//! * **Usage scenarios** ([`scenarios`], §6): checkpoint/restart,
//!   self-healing, and live kernel update.  (Online hardware
//!   maintenance and HPC failover live in the `mercury-cluster` crate,
//!   which adds multi-node simulation.)
//! * **Hardware assist** ([`switch::AssistMode`], §8 future work):
//!   VT-x/EPT-style switching as an alternative mechanism.
//! * **Bring-up** ([`stack`], §4.1): the one place a whole system —
//!   machine, pre-cached VMM, natively booted kernel, Mercury — is
//!   assembled, in the allocation order every frame number hangs on.
//!
//! # Example
//!
//! ```
//! use mercury::{AssistMode, NodeConfig, Stack, SwitchOutcome, TrackingStrategy};
//! use nimbus::Session;
//!
//! // Power on, pre-cache the VMM (it stays dormant), boot the kernel
//! // natively and make it self-virtualizable.
//! let Stack { machine, kernel, mercury, .. } = Stack::build(
//!     &NodeConfig::default(),
//!     TrackingStrategy::RecomputeOnSwitch,
//!     AssistMode::Software,
//! );
//! let cpu = machine.boot_cpu();
//!
//! // Attach the VMM under a live workload, then detach.
//! let sess = Session::new(kernel, 0);
//! let fd = sess.open("data", true).unwrap();
//! sess.write(fd, b"before").unwrap();
//! assert!(matches!(
//!     mercury.switch_to_virtual(cpu).unwrap(),
//!     SwitchOutcome::Completed { .. }
//! ));
//! sess.write(fd, b" and after").unwrap();
//! mercury.switch_to_native(cpu).unwrap();
//! assert_eq!(sess.stat("data").unwrap().size, 16);
//! ```

#![warn(missing_docs)]

pub mod pgtrack;
pub mod refcount;
pub mod rendezvous;
pub mod scenarios;
pub mod shard;
pub mod stack;
pub mod switch;
pub mod vo;

pub use pgtrack::TrackingStrategy;
pub use refcount::VoRefCount;
pub use stack::{NodeConfig, Stack};
pub use switch::{
    AssistMode, Mercury, ModeDetail, Phase, SwitchCounts, SwitchError, SwitchOutcome, SwitchStats,
    Transition,
};
pub use vo::CountedVo;

pub use nimbus::paravirt::ExecMode;
