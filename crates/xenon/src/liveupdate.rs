//! Hypervisor live-update: hand a running machine's domains from one
//! warm xenon instance to a newer one, without detaching to native.
//!
//! Rust-Shyper pairs VM migration with *hypervisor live-update* as its
//! two reliability mechanisms; Mercury's VO indirection is the natural
//! substrate for the second.  A successor instance ("hv-v2") is
//! pre-cached beside the running one with
//! [`Hypervisor::warm_up_versioned`], and [`transfer`] moves every
//! domain across while the guests are held in rendezvous:
//!
//! * **Domain records are adopted, not copied.**  The [`Domain`](crate::Domain)
//!   object is hypervisor-agnostic guest state (frames, pinned tables,
//!   vCPUs, trap gates, event bits, frozen kernel state); backends,
//!   frontends and Mercury itself hold `Arc`s to it, and all of those
//!   stay valid across the swap because it is the *same* object in the
//!   successor's domain table.  This is what makes guest memory and
//!   in-flight I/O rings bit-identical across the update.
//! * **Frame accounting is recomputed, never copied.**  The successor's
//!   [`PageInfoTable`](crate::page_info::PageInfoTable) is rebuilt from
//!   the guest's own page tables via the attach-path machinery
//!   (`recompute_for_at`), so corruption accumulated in the old
//!   instance's table — the very thing a live-update is often
//!   *repairing* — does not propagate.
//! * **Event channels and grant tables transfer bit-for-bit**
//!   ([`EventChannels::transfer_from`](crate::events::EventChannels::transfer_from),
//!   [`GrantTables::transfer_from`](crate::grants::GrantTables::transfer_from)):
//!   port numbers and grant refs are guest-visible handles baked into
//!   ring messages, so they must survive unchanged.
//!
//! On any error the successor must be discarded wholesale
//! ([`Hypervisor::decommission`]) — partial transfer state is never
//! repaired in place.  The old instance is untouched until the caller commits,
//! so rollback is simply "keep using v1".

use crate::domain::DomId;
use crate::error::HvError;
use crate::hv::Hypervisor;
use simx86::Cpu;
use std::sync::Arc;

/// Why a live-update handshake or transfer was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The successor's version is not strictly newer than the running
    /// instance's (DESIGN.md §16 rule #1: updates only move forward).
    VersionOrder {
        /// Running instance's version.
        from: u32,
        /// Proposed successor's version.
        to: u32,
    },
    /// The successor is already active — it is running a machine of its
    /// own and cannot adopt this one's domains.
    TargetActive,
    /// The successor already hosts domains (not pristine): a previous
    /// transfer into it failed half-way, or it was never discarded.
    TargetNotPristine,
    /// The two instances were warmed up on different machines.
    MachineMismatch,
    /// The state transfer itself failed (page-table validation on the
    /// successor's frame-accounting rebuild, typically because the
    /// guest's tables are genuinely inconsistent).
    Transfer(HvError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::VersionOrder { from, to } => {
                write!(
                    f,
                    "live-update refused: v{to} is not newer than running v{from}"
                )
            }
            UpdateError::TargetActive => write!(f, "live-update target is already active"),
            UpdateError::TargetNotPristine => {
                write!(f, "live-update target already hosts domains")
            }
            UpdateError::MachineMismatch => {
                write!(f, "live-update target was warmed up on a different machine")
            }
            UpdateError::Transfer(e) => write!(f, "live-update state transfer failed: {e}"),
        }
    }
}

/// What a completed transfer moved (diagnostics, campaign records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Version of the instance the domains left.
    pub from_version: u32,
    /// Version of the instance that adopted them.
    pub to_version: u32,
    /// Domains adopted.
    pub domains: usize,
    /// Guest frames re-accounted on the successor.
    pub frames: usize,
    /// Event-channel ports carried across.
    pub ports: usize,
}

/// The version handshake, checked before any state moves.
///
/// Rules (DESIGN.md §16): the successor must be strictly newer, must
/// not be active, must be pristine (no adopted domains from an earlier
/// half-failed transfer), and must sit on the same machine.
pub fn handshake(from: &Hypervisor, to: &Hypervisor) -> Result<(), UpdateError> {
    if to.version() <= from.version() {
        return Err(UpdateError::VersionOrder {
            from: from.version(),
            to: to.version(),
        });
    }
    if to.is_active() {
        return Err(UpdateError::TargetActive);
    }
    if !to.domains().is_empty() {
        return Err(UpdateError::TargetNotPristine);
    }
    if !Arc::ptr_eq(&from.machine, &to.machine) {
        return Err(UpdateError::MachineMismatch);
    }
    Ok(())
}

/// Move every domain of `from` onto `to`.
///
/// Runs the handshake, then per domain: re-establish frame ownership in
/// the successor's page-info table, rebuild its type/count state from
/// the guest's pinned base tables (the authoritative record — a
/// corrupted source table is *healed*, not copied), and adopt the same
/// domain record.  Event channels, grant tables and the pCPU→domain
/// routing carry across bit-for-bit.  `per_frame_cost` is the cycle
/// charge per re-accounted frame, exactly as on the attach path (the
/// caller usually ticks the cycles itself and passes 0).
///
/// `from` is not modified: on success the caller commits by activating
/// `to` and [decommissioning](Hypervisor::decommission) `from`; on
/// error it discards `to` and keeps running on `from`.
// volint::root(SWITCH)
pub fn transfer(
    cpu: &Cpu,
    from: &Arc<Hypervisor>,
    to: &Arc<Hypervisor>,
    per_frame_cost: u64,
) -> Result<UpdateReport, UpdateError> {
    handshake(from, to)?;
    let mut frames_moved = 0usize;
    let doms = from.domains();
    // volint::bound(8) — a self-virtualized node hosts a handful of domains (dom0 + guests)
    for dom in &doms {
        let frames = dom.frames();
        frames_moved += frames.len();
        // volint::bound(16384) — ownership pass over one domain's frames (64 MiB pool)
        for f in frames {
            to.page_info.set_owner(f, Some(dom.id));
        }
        let pgds = dom.pgds();
        to.page_info
            .recompute_for_at(
                cpu,
                &to.machine.mem,
                dom.id,
                dom.frame_count(),
                &pgds,
                per_frame_cost,
            )
            .map_err(UpdateError::Transfer)?;
        to.adopt_domain(Arc::clone(dom));
    }
    to.events.transfer_from(&from.events);
    to.grants.transfer_from(&from.grants);
    // volint::bound(64) — one slot per physical CPU
    for pcpu in 0..from.machine.num_cpus() {
        to.set_current(pcpu, from.current(pcpu));
    }
    Ok(UpdateReport {
        from_version: from.version(),
        to_version: to.version(),
        domains: doms.len(),
        frames: frames_moved,
        ports: from.events.allocated(),
    })
}

/// Undo a failed transfer attempt: strip everything [`transfer`] may
/// have put into `to`, returning it to the pristine state [`handshake`]
/// requires — so a later retry (or a different successor build) starts
/// clean.  The domains themselves are untouched; they still belong to
/// `from`.
pub fn discard(cpu: &Cpu, to: &Arc<Hypervisor>) {
    // volint::bound(8) — a self-virtualized node hosts a handful of domains
    for dom in to.domains() {
        to.page_info.clear_types_for(dom.id);
        // volint::bound(16384) — ownership strip over one domain's frames
        for f in dom.frames() {
            to.page_info.set_owner(f, None);
        }
        to.forget_domain(dom.id);
    }
    // Unused, but keeps the borrow shape identical to transfer's.
    let _ = cpu;
    to.events.reset();
    to.grants.reset();
    // volint::bound(64) — one slot per physical CPU
    for pcpu in 0..to.machine.num_cpus() {
        to.set_current(pcpu, None);
    }
}

/// Which domains a fleet-status line should report for a node running
/// this hypervisor: `(version, domain ids)`.
pub fn status(hv: &Hypervisor) -> (u32, Vec<DomId>) {
    (hv.version(), hv.domains().iter().map(|d| d.id).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DOM0;
    use simx86::mem::FrameNum;
    use simx86::paging::Pte;
    use simx86::{Machine, MachineConfig};

    fn rig() -> (Arc<Machine>, Arc<Hypervisor>, Arc<Cpu>) {
        let machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let hv = Hypervisor::warm_up(&machine);
        let cpu = Arc::clone(machine.boot_cpu());
        (machine, hv, cpu)
    }

    fn host_guest(
        machine: &Arc<Machine>,
        hv: &Arc<Hypervisor>,
        cpu: &Arc<Cpu>,
    ) -> Arc<crate::Domain> {
        let frames = machine.allocator.alloc_many(cpu, 64).unwrap();
        let dom = hv.create_domain(cpu, "dom0", frames.clone(), 0).unwrap();
        // A small live page-table tree: pgd -> l1 -> two data frames.
        let pgd = frames[0];
        let l1 = frames[1];
        machine
            .mem
            .write_pte(cpu, l1, 0, Pte::new(frames[2].0, Pte::WRITABLE))
            .unwrap();
        machine
            .mem
            .write_pte(cpu, l1, 1, Pte::new(frames[3].0, 0))
            .unwrap();
        machine
            .mem
            .write_pte(cpu, pgd, 0, Pte::new(l1.0, Pte::WRITABLE))
            .unwrap();
        hv.page_info.pin_l2(cpu, &machine.mem, pgd, dom.id).unwrap();
        dom.add_pgd(pgd);
        dom
    }

    #[test]
    fn handshake_enforces_version_order_and_pristine_target() {
        let (machine, v1, cpu) = rig();
        let same = Hypervisor::warm_up_versioned(&machine, 1);
        assert_eq!(
            handshake(&v1, &same),
            Err(UpdateError::VersionOrder { from: 1, to: 1 })
        );
        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        assert_eq!(handshake(&v1, &v2), Ok(()));
        v2.activate();
        assert_eq!(handshake(&v1, &v2), Err(UpdateError::TargetActive));
        v2.deactivate();
        v2.create_domain(&cpu, "stray", vec![], 0).unwrap();
        assert_eq!(handshake(&v1, &v2), Err(UpdateError::TargetNotPristine));
        let other_machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let foreign = Hypervisor::warm_up_versioned(&other_machine, 2);
        assert_eq!(handshake(&v1, &foreign), Err(UpdateError::MachineMismatch));
    }

    #[test]
    fn transfer_adopts_same_domain_and_recomputes_accounting() {
        let (machine, v1, cpu) = rig();
        let dom = host_guest(&machine, &v1, &cpu);
        let port = v1.events.alloc_unbound(dom.id).unwrap();
        let gref = v1.grants.grant(&cpu, dom.id, DOM0, FrameNum(5), true);
        v1.activate();
        v1.set_current(0, Some(dom.id));

        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        let report = transfer(&cpu, &v1, &v2, 0).unwrap();
        assert_eq!(report.from_version, 1);
        assert_eq!(report.to_version, 2);
        assert_eq!(report.domains, 1);
        assert_eq!(report.frames, 64);
        assert_eq!(report.ports, 1);

        // Same Arc: backends holding the old reference stay bound.
        let adopted = v2.domain(dom.id).unwrap();
        assert!(Arc::ptr_eq(&adopted, &dom));

        // Frame accounting was rebuilt from the live tables, not copied:
        // type state on v2 matches v1's for the whole tree.
        for f in dom.frames() {
            assert_eq!(v2.page_info.owner(f), Some(dom.id), "frame {f:?}");
            assert_eq!(
                v2.page_info.type_of(f),
                v1.page_info.type_of(f),
                "frame {f:?}"
            );
        }
        // Port numbers and grant refs survive verbatim.
        assert_eq!(v2.events.allocated(), 1);
        let _ = port;
        assert_eq!(v2.grants.outstanding(dom.id), 1);
        let (frame, ro) = v2.grants.map(&cpu, DOM0, dom.id, gref).unwrap();
        assert_eq!((frame, ro), (FrameNum(5), true));
        assert_eq!(v2.current(0), Some(dom.id));
    }

    #[test]
    fn transfer_heals_a_corrupted_source_table() {
        let (machine, v1, cpu) = rig();
        let dom = host_guest(&machine, &v1, &cpu);
        v1.activate();
        // Corrupt v1's accounting the way the faultgen VmmState class
        // does: break a type record behind the guest's back.
        let victim = dom.pgds()[0];
        v1.page_info.clear_types_for(dom.id);
        assert_eq!(v1.page_info.type_of(victim).1, 0, "v1 is now corrupt");

        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        transfer(&cpu, &v1, &v2, 0).unwrap();
        // v2 recomputed from the guest's own page tables: the pgd is a
        // pinned L2 again even though v1's record said otherwise.
        let (typ, count) = v2.page_info.type_of(victim);
        assert_eq!(typ, crate::PageType::L2);
        assert!(count > 0);
        assert!(v2.page_info.get(victim).pinned);
    }

    #[test]
    fn discard_restores_pristine_target_for_retry() {
        let (machine, v1, cpu) = rig();
        let dom = host_guest(&machine, &v1, &cpu);
        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        transfer(&cpu, &v1, &v2, 0).unwrap();
        assert_eq!(handshake(&v1, &v2), Err(UpdateError::TargetNotPristine));

        discard(&cpu, &v2);
        assert_eq!(handshake(&v1, &v2), Ok(()));
        assert_eq!(v2.events.allocated(), 0);
        for f in dom.frames() {
            assert_eq!(v2.page_info.owner(f), None);
        }
        // The domain itself was never touched: v1 still runs it.
        assert!(dom.is_alive());
        assert!(v1.domain(dom.id).is_some());
        // And a retry succeeds.
        transfer(&cpu, &v1, &v2, 0).unwrap();
        assert!(v2.domain(dom.id).is_some());
    }

    #[test]
    fn decommission_forgets_domains_without_killing_them() {
        let (machine, v1, cpu) = rig();
        let dom = host_guest(&machine, &v1, &cpu);
        v1.activate();
        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        transfer(&cpu, &v1, &v2, 0).unwrap();

        let reclaimed = v1.decommission();
        assert_eq!(reclaimed.len(), crate::hv::HV_RESERVED_FRAMES);
        assert!(!v1.is_active());
        assert!(v1.domain(dom.id).is_none(), "v1 forgot the domain");
        assert!(dom.is_alive(), "but did not kill it");
        assert!(v2.domain(dom.id).is_some());
        assert_eq!(v1.reserved_frames(), 0);
    }
}
