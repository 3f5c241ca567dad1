//! # xenon — a Xen-like paravirtualizing hypervisor for simx86
//!
//! Xenon is the "full-fledged VMM" that Mercury pre-caches and attaches
//! underneath a running OS.  It reproduces the Xen 3.0.2 mechanisms the
//! paper's implementation depends on:
//!
//! * **Domains** (privileged domain0 / unprivileged domainU) owning
//!   disjoint sets of physical frames.
//! * **Frame accounting** ([`page_info`]): per-frame owner, type
//!   (`L1`/`L2` page table or writable) and reference counts, with the
//!   validation rules that keep a guest from mapping its own page tables
//!   writable.  Recomputing this table during a mode switch is the
//!   dominant cost of Mercury's native→virtual transition (§5.1.2, §7.4).
//! * **Hypercalls**: `mmu_update` batches, page-table pin/unpin,
//!   `stack_switch`, trap-table registration, TLB-flush and sched ops —
//!   each charging the crossing + validation cycle costs.
//! * **Event channels** and **grant tables**, and on top of them
//!   shared-memory **I/O rings** ([`ring`]) for the split
//!   frontend/backend device model of §5.2.
//! * A round-robin **vCPU scheduler** for hosting multiple domains.
//! * **Save/restore** ([`save`]) and iterative pre-copy **live
//!   migration** ([`migrate`]) — the machinery behind the paper's
//!   online-maintenance and HPC-availability scenarios (§6.3, §6.5).
//!   Its rounds, and Mercury's reads of memory's write stamps, run on
//!   one engine ([`rounds`]).
//!
//! The hypervisor supports Mercury's defining trick: it can sit *warm
//! but dormant* in reserved memory ([`Hypervisor::warm_up`]) and be
//! activated/deactivated in sub-millisecond simulated time.

#![warn(missing_docs)]

pub mod domain;
pub mod error;
pub mod events;
pub mod grants;
pub mod hv;
pub mod liveupdate;
pub mod migrate;
pub mod page_info;
pub mod ring;
pub mod rounds;
pub mod save;
pub mod sched;

pub use domain::{DomId, Domain, GuestState, DOM0};
pub use error::HvError;
pub use hv::{Hypervisor, MmuUpdate, MMU_BATCH};
pub use liveupdate::{UpdateError, UpdateReport};
pub use page_info::{PageInfo, PageInfoTable, PageType};
pub use rounds::Rounds;
