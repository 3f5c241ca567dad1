//! Self-healing of tainted kernel state (§6.2).
//!
//! "As when activated, a VMM is in full control of the operating system
//! thereon, the VMM is a good candidate to repair the tainted state of
//! operating systems.  Sensors could be added to monitor the anomaly of
//! the operating systems."
//!
//! The taint we model is page-table corruption (a flipped frame number —
//! the bit-flip class the DRAM-error studies cited by the paper
//! motivate): a PTE pointing outside the frames the OS owns.  The
//! *sensor* is a validation walk with the dormant VMM's ownership
//! records; the *healer* runs at PL0 in the switch handler's context and
//! zaps the poisoned entries (the page refaults cleanly afterwards).  An
//! attach over tainted tables would be rejected by the hypervisor's
//! validators, which is itself a detection layer — and what validates
//! the repair.

use crate::switch::{Mercury, SwitchError};
use simx86::mem::FrameNum;
use simx86::paging::{Pte, ENTRIES_PER_TABLE};
use simx86::{costs, Cpu};
use std::convert::Infallible;
use std::sync::Arc;

/// What the sensor + healer did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Base tables scanned.
    pub pgds_scanned: usize,
    /// Leaf tables scanned.
    pub tables_scanned: usize,
    /// Poisoned entries found and zapped.
    pub repaired_entries: usize,
    /// Whether a full attach/detach cycle validated the repair.
    pub validated_by_attach: bool,
}

/// Healing errors.
#[derive(Debug)]
pub enum HealError {
    /// The post-repair validating round trip failed (the state is
    /// still bad) or was refused.
    Switch(SwitchError),
    /// Hardware fault during the scan.
    Hardware(simx86::Fault),
}

impl std::fmt::Display for HealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealError::Switch(e) => write!(f, "repair not validated: {e}"),
            HealError::Hardware(e) => write!(f, "hardware fault while scanning: {e}"),
        }
    }
}

impl std::error::Error for HealError {}

impl From<SwitchError> for HealError {
    fn from(e: SwitchError) -> Self {
        HealError::Switch(e)
    }
}

/// The sensor: count PTEs referencing frames the OS does not own.
/// Cheap enough to run periodically.
pub fn sense(mercury: &Arc<Mercury>, cpu: &Arc<Cpu>) -> Result<usize, HealError> {
    sweep(mercury, cpu, false).map(|r| r.repaired_entries)
}

/// Run the sensor and, if it fires, the VMM-assisted repair followed by
/// a validating round trip (an empty [`Mercury::on_demand`]).
pub fn heal(mercury: &Arc<Mercury>, cpu: &Arc<Cpu>) -> Result<RepairReport, HealError> {
    let mut report = sweep(mercury, cpu, true)?;
    if report.repaired_entries == 0 {
        return Ok(report);
    }
    // Validate: a full self-virtualization round trip re-runs the
    // hypervisor's validators over every table.
    report.validated_by_attach = mercury.on_demand(cpu, Ok::<bool, SwitchError>)?;
    Ok(report)
}

/// Walk every process's page tables checking each present leaf against
/// the ownership records the pre-cached VMM keeps.  With `repair`,
/// poisoned entries are zapped (they demand-fault cleanly afterwards).
fn sweep(mercury: &Arc<Mercury>, cpu: &Arc<Cpu>, repair: bool) -> Result<RepairReport, HealError> {
    let kernel = mercury.kernel();
    let hv = mercury.hypervisor();
    let mem = &kernel.machine.mem;
    let dom = mercury.dom0().id;
    let mut report = RepairReport::default();

    for pgd in kernel.all_pgds() {
        report.pgds_scanned += 1;
        let mut l2 = mem.read_table(cpu, pgd).map_err(HealError::Hardware)?;
        l2.scan(0..ENTRIES_PER_TABLE, |_, _, pde| {
            if !pde.user() {
                return Ok(()); // kernel mappings are shared and checked once
            }
            let l1 = FrameNum(pde.frame());
            report.tables_scanned += 1;
            let mut view = mem.read_table(cpu, l1)?;
            // The ownership compare costs a word per slot on top of
            // the read; every slot of the table is scanned.
            cpu.tick(costs::MEM_WORD * ENTRIES_PER_TABLE as u64);
            let mut zapped = Vec::new();
            let Ok(()) = view.scan(0..ENTRIES_PER_TABLE, |_, l1_idx, pte| {
                let target = FrameNum(pte.frame());
                let owned = hv.page_info.owner(target) == Some(dom);
                if !owned {
                    report.repaired_entries += 1;
                    if repair {
                        zapped.push((l1_idx, Pte::ABSENT));
                    }
                }
                Ok::<_, Infallible>(())
            });
            // The healer runs at PL0 below the VO layer — it repairs
            // tables the VO dispatch itself may be corrupted by (§6.2).
            // volint::allow(VO-BYPASS): sub-VO repair path
            mem.write_ptes(cpu, l1, &zapped)
        })
        .map_err(HealError::Hardware)?;
    }
    if repair && report.repaired_entries > 0 {
        for c in &kernel.machine.cpus {
            // volint::allow(VO-BYPASS): post-repair TLB shootdown, below VO
            c.request_tlb_flush();
        }
    }
    Ok(report)
}

/// Failure injection for tests and the example: corrupt one live PTE of
/// the current address space to point at a frame the OS does not own
/// (the hypervisor's reserved pool — guaranteed foreign).
pub fn inject_taint(mercury: &Arc<Mercury>, cpu: &Arc<Cpu>) -> Result<bool, HealError> {
    let kernel = mercury.kernel();
    let mem = &kernel.machine.mem;
    let foreign = kernel.machine.mem.num_frames() as u32 - 1; // top frame: VMM pool

    // The first present user leaf entry of any address space: both scans
    // stop there and hand it out as `Err(Ok(entry))`; `Err(Err(fault))`
    // is a table the machine does not have.
    let mut victim = None;
    for pgd in kernel.all_pgds() {
        let mut l2 = mem.read_table(cpu, pgd).map_err(HealError::Hardware)?;
        let scanned = l2.scan(0..ENTRIES_PER_TABLE, |_, _, pde| {
            if !pde.user() {
                return Ok(());
            }
            let l1 = FrameNum(pde.frame());
            let mut view = mem.read_table(cpu, l1).map_err(Err)?;
            view.scan(0..ENTRIES_PER_TABLE, |_, l1_idx, pte| {
                Err(Ok((l1, l1_idx, pte)))
            })
        });
        if let Err(found) = scanned {
            victim = Some(found.map_err(HealError::Hardware)?);
            break;
        }
    }
    let Some((l1, l1_idx, pte)) = victim else {
        return Ok(false);
    };
    // Deliberate fault injection: the taint must bypass the VO or it
    // would be validated away.
    // volint::allow(VO-BYPASS): fault injection
    mem.write_pte(cpu, l1, l1_idx, Pte::new(foreign, pte.0 & 0xfff))
        .map_err(HealError::Hardware)?;
    for c in &kernel.machine.cpus {
        // volint::allow(VO-BYPASS): flush of injected taint
        c.request_tlb_flush();
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::tests::rig;
    use crate::TrackingStrategy;
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use nimbus::Session;

    #[test]
    fn clean_system_senses_nothing() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        assert_eq!(sense(&mercury, cpu).unwrap(), 0);
        let r = heal(&mercury, cpu).unwrap();
        assert_eq!(r.repaired_entries, 0);
        assert!(!r.validated_by_attach);
    }

    #[test]
    fn taint_is_detected_blocks_attach_and_heals() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let sess = Session::new(std::sync::Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 5).unwrap();

        assert!(inject_taint(&mercury, cpu).unwrap());
        assert!(sense(&mercury, cpu).unwrap() > 0);

        // Defense in depth: an attach over tainted tables is rejected by
        // the hypervisor's validators.
        let err = mercury.switch_to_virtual(cpu).unwrap_err();
        assert!(matches!(err, crate::SwitchError::Transfer(_)));
        assert_eq!(mercury.mode(), crate::ExecMode::Native);

        // Heal: repair + validating round trip.
        let report = heal(&mercury, cpu).unwrap();
        assert!(report.repaired_entries > 0);
        assert!(report.validated_by_attach);
        assert_eq!(sense(&mercury, cpu).unwrap(), 0);
        assert_eq!(mercury.mode(), crate::ExecMode::Native);

        // The zapped page demand-faults back to life (data lost, but the
        // invariant is restored — §6.2's dependability goal).
        sess.clear_signal();
        sess.poke(va, 6).unwrap();
        assert_eq!(sess.peek(va).unwrap(), 6);
    }
}
