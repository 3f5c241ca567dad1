//! Usage scenarios of self-virtualization (§6).
//!
//! Each submodule implements one of the paper's dependability features
//! as the body of one [`Mercury::on_demand`](crate::Mercury::on_demand)
//! bracket — attach if native, act on the VMM, detach if the bracket
//! attached (DESIGN.md §6):
//!
//! * [`checkpoint`] — §6.1 checkpointing and restarting of operating
//!   systems: snapshot the whole system; restore on a healthy machine
//!   after a failure.
//! * [`healing`] — §6.2 self-healing: detect tainted kernel state,
//!   repair it from PL0, and let the attach's validators confirm.
//! * [`live_update`] — §6.4 live kernel updates: apply the patch under
//!   VMM mediation.
//!
//! §6.3 (online hardware maintenance) and §6.5 (HPC availability) need
//! multiple machines and live in the `mercury-cluster` crate.

pub mod checkpoint;
pub mod healing;
pub mod live_update;
