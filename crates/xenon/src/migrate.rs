//! Live migration with iterative pre-copy — the mechanism behind online
//! hardware maintenance (§6.3) and HPC failover (§6.5).
//!
//! Rounds of [`LiveMigration::round`] ship the frames stored to since
//! the previous round while the guest keeps running, each captured
//! through [`crate::save`]'s one frame capture;
//! [`LiveMigration::finalize`] pauses the guest, ships the final dirty
//! set, assembles the domain image from the staged frames and the
//! vCPU/guest state, and lands it on the target hypervisor with
//! [`crate::save::restore_domain`].  The blackout is charged for the
//! frames the stop-and-copy ships, not for the domain's size: the
//! staged frames are not copied again.  What was stored to is memory's
//! write stamps, which every store path sets — through the MMU or not:
//! a backend's copy into a granted page, a ring word, a ballooned
//! frame's zeroing — the log-dirty scheme of Clark et al.'s live
//! migration, read as Xen's `SHADOW_OP_CLEAN` reads its bitmap.  Each round, the stop-and-copy
//! included, is a whole round of the migration's own [`Rounds`], so it
//! takes nothing from any other reader of the stamps, and the guest's
//! page tables are never rewritten.

use crate::domain::Domain;
use crate::error::HvError;
use crate::hv::Hypervisor;
use crate::rounds::Rounds;
use crate::save::{restore_domain, DomainImage, FrameImage};
use simx86::{costs, Cpu};
use std::collections::HashMap;
use std::sync::Arc;

/// Final report for a completed migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Old→new frame relocation (for the guest kernel's thaw).
    pub frame_map: HashMap<u32, u32>,
    /// Frames shipped per round: round 0's full copy first, the
    /// stop-and-copy last.
    pub rounds: Vec<usize>,
    /// Total frames shipped, counting resends.
    pub total_frames: usize,
    /// Guest-observed downtime in cycles (the stop-and-copy phase).
    pub downtime_cycles: u64,
}

impl MigrationReport {
    /// Downtime in microseconds of simulated time.
    pub fn downtime_us(&self) -> f64 {
        costs::cycles_to_us(self.downtime_cycles)
    }
}

/// An in-progress live migration of one domain.
pub struct LiveMigration {
    source: Arc<Hypervisor>,
    dom: Arc<Domain>,
    /// Frames staged at the "target side", keyed by source frame number.
    staged: HashMap<u32, FrameImage>,
    /// The pre-copy over the source's write stamps.
    rounds: Rounds,
    /// Frames shipped by every round run so far, in order.
    shipped: Vec<usize>,
}

/// Cycles to ship one frame: one NIC packet carrying a page.
const SHIP_PER_FRAME: u64 = costs::NIC_PACKET_BASE + simx86::PAGE_SIZE * costs::NIC_PER_BYTE;

impl LiveMigration {
    /// Begin migrating `dom` away from `source`.
    pub fn new(source: Arc<Hypervisor>, dom: Arc<Domain>) -> LiveMigration {
        LiveMigration {
            rounds: Rounds::default(),
            source,
            dom,
            staged: HashMap::new(),
            shipped: Vec::new(),
        }
    }

    /// Run one pre-copy round: round 0 ships every owned frame; later
    /// rounds ship the domain's frames stored to since the one before,
    /// whoever stored and however.  Each round reads the domain's dirty
    /// bitmap, one word per 64 frames.  The guest keeps running between
    /// rounds.  Returns the frames shipped.
    pub fn round(&mut self, cpu: &Cpu) -> Result<usize, HvError> {
        let owned = self.dom.frames();
        cpu.tick(costs::MEM_WORD * owned.len().div_ceil(64) as u64);
        let (source, staged) = (&self.source, &mut self.staged);
        let frames = self.rounds.round(&source.machine.mem, &owned, |f| {
            cpu.tick(SHIP_PER_FRAME);
            staged.insert(f.0, FrameImage::capture(source, f)?);
            Ok::<_, HvError>(())
        })?;
        self.shipped.push(frames);
        Ok(frames)
    }

    /// Stop-and-copy: pause the guest, ship the last dirty set, assemble
    /// the image from the staged frames and the control state,
    /// materialize the domain on `target`, and destroy it at the source.
    /// Returns the new domain and the report.  If the last round, the
    /// image or the restore fails, the guest resumes at the source as it
    /// was paused: each vCPU's `runnable` flag and each run-queue entry
    /// is put back, and the target keeps none of its frames.
    ///
    /// The caller re-wires devices afterwards (§5.2: network frontends
    /// reconnect to the new backend *after* migration completes).
    pub fn finalize(
        mut self,
        cpu: &Cpu,
        target: &Arc<Hypervisor>,
    ) -> Result<(Arc<Domain>, MigrationReport), HvError> {
        if self.shipped.is_empty() {
            self.round(cpu)?;
        }
        let downtime_start = cpu.cycles();

        // Pause: deschedule everywhere.
        let runnable: Vec<bool> = self.dom.vcpus().iter().map(|v| v.runnable).collect();
        for v in 0..runnable.len() {
            self.dom.set_runnable(v, false);
        }
        let mut queued = Vec::new();
        self.source
            .sched
            .remove_domain(self.dom.id, |pcpu, unit| queued.push((pcpu, unit)));

        let (new_dom, frame_map) = match self.stop_and_copy(cpu, target) {
            Ok(landed) => landed,
            Err(e) => {
                for (v, was) in runnable.into_iter().enumerate() {
                    self.dom.set_runnable(v, was);
                }
                for (pcpu, unit) in queued {
                    self.source.sched.enqueue(pcpu, unit);
                }
                return Err(e);
            }
        };
        for v in 0..new_dom.num_vcpus() {
            new_dom.set_runnable(v, true);
        }

        // Tear down at the source.
        let freed = self.source.destroy_domain(cpu, &self.dom)?;
        for f in freed {
            self.source.machine.allocator.free(f);
        }

        let downtime_cycles = cpu.cycles() - downtime_start;
        let total_frames = self.shipped.iter().sum();
        let report = MigrationReport {
            frame_map,
            total_frames,
            downtime_cycles,
            rounds: std::mem::take(&mut self.shipped),
        };
        Ok((new_dom, report))
    }

    /// The paused part of [`Self::finalize`]: the last round, the image
    /// (every frame as the rounds staged it, in the domain's frame
    /// order, and the control state — vCPUs, pgds, guest state — as it
    /// stands), and its restore on `target`.
    fn stop_and_copy(
        &mut self,
        cpu: &Cpu,
        target: &Arc<Hypervisor>,
    ) -> Result<(Arc<Domain>, HashMap<u32, u32>), HvError> {
        self.round(cpu)?;
        let frames = self
            .dom
            .frames()
            .iter()
            .map(|f| {
                self.staged
                    .remove(&f.0)
                    .ok_or_else(|| HvError::BadImage(format!("frame {} never shipped", f.0)))
            })
            .collect::<Result<_, _>>()?;
        let image = DomainImage::assemble(&self.dom, frames);
        restore_domain(target, &image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MmuUpdate;
    use simx86::mem::{FrameNum, PhysAddr};
    use simx86::paging::Pte;
    use simx86::{Machine, MachineConfig};

    pub(super) fn node() -> (Arc<Machine>, Arc<Hypervisor>) {
        let machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        (machine, hv)
    }

    pub(super) fn build_guest(machine: &Arc<Machine>, hv: &Arc<Hypervisor>) -> Arc<Domain> {
        let cpu = machine.boot_cpu();
        let q = machine.allocator.alloc_many(cpu, 16).unwrap();
        let dom = hv.create_domain(cpu, "guest", q, 0).unwrap();
        let f = dom.frames();
        let mem = &machine.mem;
        // pgd = f[0], l1 = f[1], data pages f[2..6] mapped writable.
        mem.write_pte(cpu, f[0], 0, Pte::new(f[1].0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        for i in 0..4 {
            mem.write_pte(
                cpu,
                f[1],
                i,
                Pte::new(f[2 + i].0, Pte::WRITABLE | Pte::USER),
            )
            .unwrap();
            mem.write_word(cpu, f[2 + i].base(), 100 + i as u64)
                .unwrap();
        }
        hv.pin_l2(cpu, &dom, f[0]).unwrap();
        *dom.guest_state.lock() = Some(crate::GuestState::new("token"));
        dom
    }

    /// Simulate guest activity: a write through the MMU, which sets the
    /// PTE's dirty bit and stores the word.
    fn guest_writes(machine: &Arc<Machine>, dom: &Arc<Domain>, page: usize, val: u64) {
        let cpu = machine.boot_cpu();
        let f = dom.frames();
        let l1 = f[1];
        // Hardware-style: set dirty via a direct PTE update + write.
        let pte = machine.mem.read_pte(cpu, l1, page).unwrap();
        machine
            .mem
            .write_pte(cpu, l1, page, pte.with_flags(Pte::DIRTY | Pte::ACCESSED))
            .unwrap();
        machine
            .mem
            .write_word(cpu, PhysAddr(FrameNum(pte.frame()).base().0), val)
            .unwrap();
    }

    #[test]
    fn full_migration_moves_memory_and_state() {
        let (m_src, hv_src) = node();
        let (m_dst, hv_dst) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let src_frames_before = m_src.allocator.available();

        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        let r0 = mig.round(cpu).unwrap();
        assert_eq!(r0, 16);

        // Guest dirties two pages between rounds.
        guest_writes(&m_src, &dom, 1, 999);
        guest_writes(&m_src, &dom, 3, 888);
        let r1 = mig.round(cpu).unwrap();
        assert!((2..16).contains(&r1), "round1 sent {r1}");

        let (new_dom, report) = mig.finalize(cpu, &hv_dst).unwrap();
        assert_eq!(report.rounds.len(), 3);
        assert!(report.downtime_cycles > 0);

        // The data written mid-migration arrived.
        let dst_cpu = m_dst.boot_cpu();
        let pgd = new_dom.pgds()[0];
        let pde = m_dst.mem.read_pte(dst_cpu, pgd, 0).unwrap();
        let pte1 = m_dst
            .mem
            .read_pte(dst_cpu, FrameNum(pde.frame()), 1)
            .unwrap();
        assert_eq!(
            m_dst
                .mem
                .read_word(dst_cpu, FrameNum(pte1.frame()).base())
                .unwrap(),
            999
        );
        let state = new_dom.guest_state.lock().clone().unwrap();
        assert_eq!(state.downcast_ref::<&str>(), Some(&"token"));

        // Source fully released its memory.
        assert!(hv_src.domain(dom.id).is_none());
        assert_eq!(m_src.allocator.available(), src_frames_before + 16);
    }

    #[test]
    fn quiet_guest_converges_to_empty_rounds() {
        let (m_src, hv_src) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        mig.round(cpu).unwrap();
        let r1 = mig.round(cpu).unwrap();
        assert_eq!(r1, 0);
    }

    /// A table the guest writes and then unlinks in one window between
    /// rounds is no longer reachable from its base tables, but its
    /// stamp still names it: the stop-and-copy ships what the guest
    /// wrote, not the copy of round 0.
    #[test]
    fn a_table_written_then_unlinked_is_shipped() {
        let (m_src, hv_src) = node();
        let (m_dst, hv_dst) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let f = dom.frames();
        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        mig.round(cpu).unwrap();

        let write = |table, index, val| {
            let update = MmuUpdate { table, index, val };
            hv_src.mmu_update(cpu, &dom, &[update])
        };
        let entry = Pte::new(f[7].0, Pte::USER);
        write(f[1], 5, entry).unwrap();
        write(f[0], 0, Pte::ABSENT).unwrap();
        let (_, report) = mig.finalize(cpu, &hv_dst).unwrap();

        assert_eq!(report.rounds[1], 2, "pgd and the unlinked L1");
        let l1 = FrameNum(report.frame_map[&f[1].0]);
        assert_eq!(m_dst.mem.read_pte(m_dst.boot_cpu(), l1, 5).unwrap(), entry);
    }

    /// A store that goes through no translation — here a device's
    /// copy into a guest frame — is shipped by the next round: the
    /// destination holds what was stored, not round 0's copy.
    #[test]
    fn a_store_between_rounds_that_bypasses_the_mmu_is_shipped() {
        let (m_src, hv_src) = node();
        let (m_dst, hv_dst) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let f = dom.frames();
        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        mig.round(cpu).unwrap();

        m_src
            .mem
            .write_bytes(f[3].base(), &0xabcd_u64.to_le_bytes())
            .unwrap();
        let (_, report) = mig.finalize(cpu, &hv_dst).unwrap();

        assert_eq!(report.rounds, [16, 1]);
        let moved = FrameNum(report.frame_map[&f[3].0]);
        assert_eq!(
            m_dst.mem.read_word(m_dst.boot_cpu(), moved.base()).unwrap(),
            0xabcd
        );
    }

    /// A frame ballooned in between rounds is one round 0 never saw:
    /// the balloon's scrub stamps it, so the stop-and-copy ships it.
    #[test]
    fn a_frame_ballooned_in_between_rounds_is_shipped() {
        let (m_src, hv_src) = node();
        let (_, hv_dst) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        hv_src.balloon_out(cpu, &dom, &[dom.frames()[11]]).unwrap();
        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        assert_eq!(mig.round(cpu).unwrap(), 15);

        let fresh = hv_src.balloon_in(cpu, &dom, 1).unwrap();
        let (new_dom, report) = mig.finalize(cpu, &hv_dst).unwrap();

        assert_eq!(report.rounds, [15, 1]);
        assert!(report.frame_map.contains_key(&fresh[0].0));
        assert_eq!(new_dom.frame_count(), 16);
    }

    /// A round reads the domain's dirty bitmap — one word per 64 frames
    /// — and ships each frame stored to, and never writes the guest's
    /// page tables.
    #[test]
    fn a_round_charges_the_bitmap_and_leaves_the_tables_alone() {
        let (m_src, hv_src) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let f = dom.frames();
        let tables = |m: &Machine| [f[0], f[1]].map(|t| m.mem.export_frame(t).unwrap());
        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        mig.round(cpu).unwrap();
        guest_writes(&m_src, &dom, 2, 5);
        let before = tables(&m_src);
        let c0 = cpu.cycles();
        assert_eq!(
            mig.round(cpu).unwrap(),
            2,
            "the leaf table and the data frame"
        );
        assert_eq!(cpu.cycles() - c0, costs::MEM_WORD + 2 * SHIP_PER_FRAME);
        assert_eq!(tables(&m_src), before);
    }

    #[test]
    fn busy_guest_keeps_rounds_nonempty() {
        let (m_src, hv_src) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        mig.round(cpu).unwrap();
        for i in 0..3 {
            guest_writes(&m_src, &dom, i % 4, i as u64);
            let r = mig.round(cpu).unwrap();
            assert!(r >= 1);
        }
    }

    /// The stop-and-copy is charged for the frames it ships, not for
    /// the domain's size: two migrations of the same guest that differ
    /// only by `k` frames stored to after the last pre-copy round differ
    /// in downtime by exactly `k` shipped frames, and the clean one
    /// costs less than one copy of every owned frame.
    #[test]
    fn a_stop_and_copy_is_charged_for_what_it_ships() {
        let k = 4;
        let downtime = |stores: usize| {
            let (m_src, hv_src) = node();
            let (_, hv_dst) = node();
            let cpu = m_src.boot_cpu();
            let dom = build_guest(&m_src, &hv_src);
            let f = dom.frames();
            let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
            mig.round(cpu).unwrap();
            for frame in &f[8..8 + stores] {
                m_src
                    .mem
                    .write_bytes(frame.base(), &7u64.to_le_bytes())
                    .unwrap();
            }
            let (_, report) = mig.finalize(cpu, &hv_dst).unwrap();
            assert_eq!(report.rounds, [f.len(), stores]);
            (report.downtime_cycles, f.len() as u64)
        };
        let (clean, owned) = downtime(0);
        let (dirty, _) = downtime(k);
        assert_eq!(dirty - clean, k as u64 * SHIP_PER_FRAME);
        assert!(
            clean < owned * costs::FRAME_COPY,
            "a clean stop-and-copy took {clean} cycles, more than copying all {owned} frames"
        );
    }
}

#[cfg(test)]
mod abort_tests {
    use super::tests::{build_guest, node};
    use super::*;
    use simx86::mem::PhysAddr;

    #[test]
    fn abandoned_migration_leaves_source_untouched() {
        // A target-node failure mid-migration: the session is dropped
        // after pre-copy rounds; the source domain must keep running
        // with nothing leaked or paused.
        let (m_src, hv_src) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let frames_before = dom.frame_count();

        {
            let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
            mig.round(cpu).unwrap();
            mig.round(cpu).unwrap();
            // ... target dies; the migration object is dropped.
        }

        assert!(dom.is_alive());
        assert!(dom.any_runnable(), "source vCPUs must not be left paused");
        assert_eq!(dom.frame_count(), frames_before);
        assert!(hv_src.domain(dom.id).is_some());
        // Guest memory still writable and consistent.
        let f = dom.frames();
        m_src
            .mem
            .write_word(cpu, PhysAddr(f[2].base().0), 4242)
            .unwrap();
        assert_eq!(
            m_src.mem.read_word(cpu, PhysAddr(f[2].base().0)).unwrap(),
            4242
        );
    }

    /// A stop-and-copy whose restore fails — a target with 4 free
    /// frames for a 16-frame guest — resumes the guest at the source:
    /// a vCPU is runnable, the source still hosts the domain, its
    /// pCPU's scheduler picks it, and the target keeps no frame.
    #[test]
    fn a_failed_stop_and_copy_resumes_the_source() {
        let (m_src, hv_src) = node();
        let (m_dst, hv_dst) = node();
        let cpu = m_src.boot_cpu();
        let dom = build_guest(&m_src, &hv_src);
        let spare = m_dst.allocator.available() - 4;
        let _held = m_dst.allocator.alloc_many(m_dst.boot_cpu(), spare).unwrap();
        let free_on_target = m_dst.allocator.available();
        let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
        mig.round(cpu).unwrap();

        let failed = mig.finalize(cpu, &hv_dst);

        assert!(
            matches!(failed, Err(HvError::OutOfMemory)),
            "{:?}",
            failed.err()
        );
        assert!(dom.any_runnable(), "source vCPUs must not be left paused");
        assert!(hv_src.domain(dom.id).is_some());
        let next = hv_src
            .sched
            .pick_next(dom.home_pcpu(), |id| hv_src.domain(id));
        assert_eq!(
            next,
            Some(crate::sched::SchedUnit {
                dom: dom.id,
                vcpu: 0
            })
        );
        assert_eq!(m_dst.allocator.available(), free_on_target);
    }
}
