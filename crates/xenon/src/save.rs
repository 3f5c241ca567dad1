//! Domain images: the one capture and the one restore behind
//! checkpointing (§6.1) and live migration (§6.3).
//!
//! A [`DomainImage`] captures everything a domain is: its frames (with
//! their page-table types), pinned base tables, vCPU state and the
//! guest's frozen logical state.  A frame is captured by
//! `FrameImage::capture` and an image assembled by
//! `DomainImage::assemble`, whoever ships it: [`save_domain`] copies
//! every frame at once, and a live migration assembles the frames its
//! rounds staged (`crate::migrate`).  [`restore_domain`] places the
//! domain in frames the target machine allocates, which may be
//! *different* physical frames — page-table words are rewritten through
//! the old→new frame mapping, the same machine-frame renumbering a real
//! Xen restore performs via the P2M table.

use crate::domain::{DomId, Domain, GuestState, VcpuState};
use crate::error::HvError;
use crate::hv::Hypervisor;
use crate::page_info::PageType;
use simx86::mem::FrameNum;
use simx86::paging::{Pte, ENTRIES_PER_TABLE, WORDS_PER_PAGE};
use simx86::{costs, Cpu};
use std::collections::HashMap;
use std::sync::Arc;

/// One saved frame.
#[derive(Debug, Clone)]
pub struct FrameImage {
    /// The frame number the domain occupied at save time.
    pub old_frame: u32,
    /// Its page-table type at save time (drives PTE rewriting).
    pub typ: PageType,
    /// Raw contents.
    pub words: Vec<u64>,
}

impl FrameImage {
    /// Capture frame `f` of `hv`'s machine as it stands: its contents
    /// and its page-table type.  The caller charges the copy.
    pub(crate) fn capture(hv: &Hypervisor, f: FrameNum) -> Result<FrameImage, HvError> {
        Ok(FrameImage {
            old_frame: f.0,
            typ: hv.page_info.type_of(f).0,
            words: hv.machine.mem.export_frame(f)?,
        })
    }
}

/// A complete domain checkpoint.
#[derive(Debug, Clone)]
pub struct DomainImage {
    /// Domain id at save time (preserved across restore).
    pub id: u16,
    /// Name.
    pub name: String,
    /// Privilege flag.
    pub privileged: bool,
    /// All owned frames.
    pub frames: Vec<FrameImage>,
    /// Pinned base tables (old frame numbers).
    pub pgds: Vec<u32>,
    /// vCPU state.
    pub vcpus: Vec<VcpuState>,
    /// The guest kernel's frozen logical state.
    pub guest_state: Option<GuestState>,
}

impl DomainImage {
    /// The image of `dom`: its control state as it stands, and
    /// `frames`, which the caller captured.
    pub(crate) fn assemble(dom: &Domain, frames: Vec<FrameImage>) -> DomainImage {
        DomainImage {
            id: dom.id.0,
            name: dom.name.clone(),
            privileged: dom.privileged,
            frames,
            pgds: dom.pgds().iter().map(|p| p.0).collect(),
            vcpus: dom.vcpus(),
            guest_state: dom.guest_state.lock().clone(),
        }
    }

    /// Total bytes this image represents on the wire (frames only, as
    /// live migration counts them).
    pub fn wire_bytes(&self) -> u64 {
        self.frames.len() as u64 * simx86::PAGE_SIZE
    }
}

/// Capture a domain, every frame at one [`costs::FRAME_COPY`].  The
/// caller is responsible for having paused the guest (no vCPU running)
/// — checkpointing a running guest tears frames.
pub fn save_domain(hv: &Hypervisor, cpu: &Cpu, dom: &Domain) -> Result<DomainImage, HvError> {
    let frames = dom
        .frames()
        .into_iter()
        .map(|f| {
            cpu.tick(costs::FRAME_COPY);
            FrameImage::capture(hv, f)
        })
        .collect::<Result<_, _>>()?;
    Ok(DomainImage::assemble(dom, frames))
}

/// Rewrite the present entries of a saved page-table frame through the
/// old→new frame mapping.
fn rewrite_table(words: &mut [u64], map: &HashMap<u32, u32>) -> Result<(), HvError> {
    for w in words.iter_mut().take(ENTRIES_PER_TABLE) {
        let pte = Pte(*w);
        if !pte.present() {
            continue;
        }
        let new = map.get(&pte.frame()).ok_or_else(|| {
            HvError::BadImage(format!("PTE references unsaved frame {}", pte.frame()))
        })?;
        *w = Pte::new(*new, pte.0 & !0x0000_00ff_ffff_f000).0;
    }
    Ok(())
}

/// Restore an image into `hv`'s machine: one frame per saved frame from
/// the machine's allocator, any physical location, charged with its
/// copy to the machine's boot CPU, where the domain's vCPUs are placed.
/// Page tables are rewritten, base tables re-pinned, accounting
/// rebuilt.  Returns the domain and the old→new frame relocation map
/// — the guest kernel's thaw path needs it to translate its own frame
/// references.
///
/// The guest's Rust-side kernel object is *not* rebuilt here — the
/// caller thaws it from [`Domain::frozen_state`] (see nimbus' restore
/// path).
///
/// A restore that fails leaves the target as it found it: what it
/// pinned is unpinned, and every frame it took is unowned and back
/// with the allocator.
pub fn restore_domain(
    hv: &Hypervisor,
    image: &DomainImage,
) -> Result<(Arc<Domain>, HashMap<u32, u32>), HvError> {
    let cpu = hv.machine.boot_cpu();
    let new_frames = hv
        .machine
        .allocator
        .alloc_many(cpu, image.frames.len())
        .ok_or(HvError::OutOfMemory)?;
    let id = hv.allocate_domid(DomId(image.id));
    let dom = Domain::new(id, image.name.clone(), image.privileged, 0);
    match place(hv, image, &dom, &new_frames) {
        Ok(map) => {
            hv.adopt_domain(Arc::clone(&dom));
            Ok((dom, map))
        }
        Err(e) => {
            let mem = &hv.machine.mem;
            for pgd in dom.pgds() {
                // Each pin `place` made succeeded whole, so each unpins.
                let _ = hv.page_info.unpin_l2(cpu, mem, pgd, id);
            }
            for frame in dom.frames() {
                hv.page_info.set_owner(frame, None);
            }
            for frame in new_frames {
                hv.machine.allocator.free(frame);
            }
            Err(e)
        }
    }
}

/// Fill `new_frames` with `image`'s frames, owned by `dom`, and re-pin
/// its base tables; `dom` names each frame it gave `dom` and each base
/// table it pinned, also when it fails.  Returns the old→new frame map.
fn place(
    hv: &Hypervisor,
    image: &DomainImage,
    dom: &Domain,
    new_frames: &[FrameNum],
) -> Result<HashMap<u32, u32>, HvError> {
    let cpu = hv.machine.boot_cpu();
    let map: HashMap<u32, u32> = image
        .frames
        .iter()
        .zip(new_frames)
        .map(|(fi, nf)| (fi.old_frame, nf.0))
        .collect();

    let mem = &hv.machine.mem;
    let id = dom.id;
    for (fi, nf) in image.frames.iter().zip(new_frames) {
        cpu.tick(costs::FRAME_COPY);
        if fi.words.len() != WORDS_PER_PAGE {
            return Err(HvError::BadImage("frame image wrong size".into()));
        }
        let mut words = fi.words.clone();
        if matches!(fi.typ, PageType::L1 | PageType::L2) {
            rewrite_table(&mut words, &map)?;
        }
        mem.import_frame(*nf, &words)?;
        hv.page_info.set_owner(*nf, Some(id));
        dom.add_frame(*nf);
    }

    // Re-pin base tables (this re-validates the whole rewritten tree —
    // a malformed image fails here rather than corrupting the machine).
    for old_pgd in &image.pgds {
        let new_pgd = FrameNum(
            *map.get(old_pgd)
                .ok_or_else(|| HvError::BadImage("pgd not among saved frames".into()))?,
        );
        hv.page_info.pin_l2(cpu, mem, new_pgd, id)?;
        dom.add_pgd(new_pgd);
    }

    dom.set_vcpus(
        image
            .vcpus
            .iter()
            .map(|v| VcpuState {
                pcpu: 0,
                ..v.clone()
            })
            .collect(),
    );
    *dom.guest_state.lock() = image.guest_state.clone();
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::{Machine, MachineConfig};

    fn rig() -> (Arc<Machine>, Arc<Hypervisor>) {
        let machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        (machine, hv)
    }

    fn build_guest(machine: &Arc<Machine>, hv: &Arc<Hypervisor>) -> Arc<Domain> {
        let cpu = machine.boot_cpu();
        let q = machine.allocator.alloc_many(cpu, 8).unwrap();
        let dom = hv.create_domain(cpu, "guest", q, 0).unwrap();
        let f = dom.frames();
        let (pgd, l1, data) = (f[0], f[1], f[2]);
        let mem = &machine.mem;
        mem.write_pte(cpu, pgd, 3, Pte::new(l1.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        mem.write_pte(cpu, l1, 7, Pte::new(data.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        mem.write_word(cpu, data.base(), 0xfeed_f00d).unwrap();
        hv.pin_l2(cpu, &dom, pgd).unwrap();
        *dom.guest_state.lock() = Some(GuestState::new(42u64));
        dom
    }

    #[test]
    fn save_restore_roundtrip_with_relocation() {
        let (machine, hv) = rig();
        let cpu = machine.boot_cpu();
        let dom = build_guest(&machine, &hv);
        let image = save_domain(&hv, cpu, &dom).unwrap();
        assert_eq!(image.frames.len(), 8);
        assert_eq!(image.pgds.len(), 1);

        // Destroy, then restore into different frames.
        let old_frames = hv.destroy_domain(cpu, &dom).unwrap();
        for f in old_frames {
            machine.allocator.free(f);
        }
        // Burn a few frames so the restore lands elsewhere.
        let _burn = machine.allocator.alloc_many(cpu, 3).unwrap();
        let (restored, _) = restore_domain(&hv, &image).unwrap();

        assert_eq!(restored.id, DomId(image.id));
        assert_eq!(restored.frame_count(), 8);
        let state = restored.guest_state.lock().clone().unwrap();
        assert_eq!(state.downcast_ref::<u64>(), Some(&42));
        assert!(state.downcast_ref::<String>().is_none());

        // The rewritten tables still map the data page: walk them.
        let pgd = restored.pgds()[0];
        let pde = machine.mem.read_pte(cpu, pgd, 3).unwrap();
        assert!(pde.present());
        let pte = machine.mem.read_pte(cpu, FrameNum(pde.frame()), 7).unwrap();
        assert!(pte.present());
        let word = machine
            .mem
            .read_word(cpu, FrameNum(pte.frame()).base())
            .unwrap();
        assert_eq!(word, 0xfeed_f00d);
    }

    /// Restore `image` expecting a refusal, and check the target is as
    /// it was: every frame the restore took is back with the allocator,
    /// and every record (owner, type, pin) as before.
    fn assert_refused_without_a_trace(machine: &Machine, hv: &Hypervisor, image: &DomainImage) {
        let (free, records) = (machine.allocator.available(), hv.page_info.snapshot());
        assert!(restore_domain(hv, image).is_err());
        assert_eq!(machine.allocator.available(), free, "frames leaked");
        assert!(hv.page_info.snapshot() == records, "records left behind");
    }

    /// A saved guest, destroyed at the source, with its image passed
    /// through `corrupt`.
    fn corrupted_image(
        corrupt: impl FnOnce(&mut DomainImage),
    ) -> (Arc<Machine>, Arc<Hypervisor>, DomainImage) {
        let (machine, hv) = rig();
        let cpu = machine.boot_cpu();
        let dom = build_guest(&machine, &hv);
        let mut image = save_domain(&hv, cpu, &dom).unwrap();
        corrupt(&mut image);
        hv.destroy_domain(cpu, &dom).unwrap();
        (machine, hv, image)
    }

    #[test]
    fn restore_rejects_dangling_pte() {
        let (machine, hv, image) = corrupted_image(|image| {
            // The L1 points at a frame outside the image.
            let l1_img = image
                .frames
                .iter_mut()
                .find(|f| f.typ == PageType::L1)
                .unwrap();
            l1_img.words[7] = Pte::new(9999, Pte::WRITABLE).0;
        });
        assert!(matches!(
            restore_domain(&hv, &image),
            Err(HvError::BadImage(_))
        ));
        assert_refused_without_a_trace(&machine, &hv, &image);
    }

    #[test]
    fn restore_rejects_a_frame_of_the_wrong_size() {
        let (machine, hv, image) = corrupted_image(|image| {
            image.frames.last_mut().unwrap().words.pop();
        });
        assert!(matches!(
            restore_domain(&hv, &image),
            Err(HvError::BadImage(_))
        ));
        assert_refused_without_a_trace(&machine, &hv, &image);
    }

    /// The re-pin refuses after the frames are placed: at the first
    /// base table (its tree maps a table writable), or at the second
    /// (the same table again), with the first pinned and to undo.
    #[test]
    fn restore_rejects_a_tree_the_pin_refuses() {
        let (machine, hv, image) = corrupted_image(|image| {
            let pgd = image.pgds[0];
            let l1_img = image
                .frames
                .iter_mut()
                .find(|f| f.typ == PageType::L1)
                .unwrap();
            l1_img.words[8] = Pte::new(pgd, Pte::WRITABLE | Pte::USER).0;
        });
        assert_refused_without_a_trace(&machine, &hv, &image);
        let (machine, hv, image) = corrupted_image(|image| image.pgds.push(image.pgds[0]));
        assert_refused_without_a_trace(&machine, &hv, &image);
        // Refused twice, the target still restores the good image.
        let (machine, hv, mut image) = corrupted_image(|_| {});
        image.pgds.push(image.pgds[0]);
        let free = machine.allocator.available();
        assert!(restore_domain(&hv, &image).is_err());
        image.pgds.pop();
        let (restored, _) = restore_domain(&hv, &image).unwrap();
        assert_eq!(machine.allocator.available(), free - restored.frame_count());
    }

    #[test]
    fn wire_bytes_accounts_frames() {
        let (machine, hv) = rig();
        let cpu = machine.boot_cpu();
        let dom = build_guest(&machine, &hv);
        let image = save_domain(&hv, cpu, &dom).unwrap();
        assert!(image.wire_bytes() >= 8 * simx86::PAGE_SIZE);
    }
}
