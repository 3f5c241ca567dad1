//! The hypervisor proper: warm-up, activation, hypercalls and trap
//! reflection.
//!
//! Xenon supports Mercury's pre-caching design (§4.1): `warm_up` builds
//! every data structure the VMM needs — frame accounting table, gate
//! table, reserved memory pool — at machine boot, leaving the VMM
//! *dormant*.  Activation is then only a matter of flipping the active
//! flag and reloading per-CPU hardware state, which is what makes the
//! sub-millisecond mode switch possible.
//!
//! While dormant, every hypercall fails with [`HvError::NotActive`]; the
//! kernel's native virtualization object never calls them.

use crate::domain::{DomId, Domain, DOM0};
use crate::error::HvError;
use crate::events::EventChannels;
use crate::grants::GrantTables;
use crate::page_info::{PageInfoTable, PageType, Records};
use crate::sched::{SchedUnit, Scheduler};
use simx86::cpu::{vectors, Gdt, IdtTable, InterruptSink, TrapFrame};
use simx86::mem::FrameNum;
use simx86::paging::{Pte, ENTRIES_PER_TABLE};
use simx86::sync::{owner_store, Mutex, RwLock};
use simx86::{costs, Cpu, Machine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Frames the dormant VMM reserves for itself at warm-up (its text,
/// heap, and per-domain structures).  512 frames = 2 MiB: "a VMM
/// occupies only a reasonably small chunk of memory" (§4.1).
pub const HV_RESERVED_FRAMES: usize = 512;

/// The vectors the VMM's gate table takes: each is reflected into the
/// guest.
const REFLECTED: [u8; 12] = [
    vectors::PAGE_FAULT,
    vectors::GP_FAULT,
    vectors::MACHINE_CHECK,
    vectors::TIMER,
    vectors::DISK,
    vectors::NIC,
    vectors::IPI_CALL,
    vectors::SELF_VIRT_ATTACH,
    vectors::SELF_VIRT_DETACH,
    vectors::SELF_VIRT_RENDEZVOUS,
    vectors::SELF_VIRT_UPDATE,
    vectors::EVTCHN_UPCALL,
];

/// One entry of an `mmu_update` batch: write `val` into slot `index` of
/// the (validated) page table living in `table`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuUpdate {
    /// The page-table frame to update.
    pub table: FrameNum,
    /// Entry index.
    pub index: usize,
    /// New entry value.
    pub val: Pte,
}

/// How many entries of a guest's PTE run ride in one `mmu_update`
/// hypercall ([`Hypervisor::update_table`]).  Xen-Linux 2.6's multicall
/// batching was modest; 2 reproduces the hypercall-dominated fork/exec
/// costs of Table 1 (fork ≈ 5× native).
pub const MMU_BATCH: usize = 2;

/// One running counter: a cache line per physical CPU, each written
/// only by the thread driving that CPU (a load and a store — see
/// [`owner_store`]) and summed on read.
#[derive(Debug)]
pub struct PerCpuCounter {
    slots: Box<[CounterSlot]>,
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterSlot(AtomicU64);

impl PerCpuCounter {
    fn new(num_cpus: usize) -> Self {
        PerCpuCounter {
            slots: (0..num_cpus).map(|_| CounterSlot::default()).collect(),
        }
    }

    /// Count `n` more on `cpu`, from the thread driving it.
    #[inline]
    pub fn add(&self, cpu: &Cpu, n: u64) {
        // volint::allow(SWITCH-PANIC): one slot per CPU of the machine this VMM was warmed up on
        let slot = &self.slots[cpu.id].0;
        let seen = slot.load(Ordering::Relaxed);
        owner_store(slot, seen, seen + n, cpu.id, "hypervisor counter");
    }

    /// The count over all CPUs.
    pub fn load(&self, order: Ordering) -> u64 {
        self.slots.iter().map(|s| s.0.load(order)).sum()
    }
}

/// Running counters (diagnostics and the EXPERIMENTS.md report).
#[derive(Debug)]
pub struct HvStats {
    /// Total hypercalls served.
    pub hypercalls: PerCpuCounter,
    /// Total mmu_update entries validated.
    pub mmu_entries: PerCpuCounter,
    /// Traps reflected into guests.
    pub reflections: PerCpuCounter,
}

impl HvStats {
    fn new(num_cpus: usize) -> Self {
        HvStats {
            hypercalls: PerCpuCounter::new(num_cpus),
            mmu_entries: PerCpuCounter::new(num_cpus),
            reflections: PerCpuCounter::new(num_cpus),
        }
    }
}

/// The Xenon hypervisor.
pub struct Hypervisor {
    /// The machine this VMM controls when active.
    pub machine: Arc<Machine>,
    /// Frame accounting.  Shared (`Arc`) so Mercury's native-mode
    /// dirty tracking can mark table frames from the kernel's VO path
    /// while the VMM is dormant.
    pub page_info: Arc<PageInfoTable>,
    /// Event channels.
    pub events: EventChannels,
    /// Grant tables.
    pub grants: GrantTables,
    /// vCPU scheduler.
    pub sched: Scheduler,
    /// Counters.  Shared with the gate tables, whose sinks count
    /// reflections without reaching the hypervisor.
    pub stats: Arc<HvStats>,
    domains: RwLock<BTreeMap<u16, Arc<Domain>>>,
    active: AtomicBool,
    /// VMM build version.  Live-update only ever moves a node to a
    /// strictly newer version (DESIGN.md §16 handshake rule #1).
    version: u32,
    next_domid: AtomicU16,
    reserved: Mutex<Vec<FrameNum>>,
    routing: Mutex<Routing>,
    /// This hypervisor, for the sinks of the gate tables it builds.
    me: Weak<Hypervisor>,
}

/// Where a trap taken under the VMM goes, resolved when it changes
/// rather than per trap (DESIGN.md §14b).
struct Routing {
    /// Which domain runs on each physical CPU.
    current: Vec<Option<DomId>>,
    /// Per live domain that registered handlers, the gate table that
    /// reflects into them.
    tables: BTreeMap<u16, Arc<IdtTable>>,
    /// The gate table of a CPU whose domain has none: every reflected
    /// trap is charged and goes nowhere.
    unrouted: Arc<IdtTable>,
}

impl Routing {
    /// The gate table a CPU running `dom` loads.
    fn table(&self, dom: Option<DomId>) -> &Arc<IdtTable> {
        dom.and_then(|id| self.tables.get(&id.0))
            .unwrap_or(&self.unrouted)
    }
}

impl Hypervisor {
    /// Build and warm up a dormant hypervisor on `machine`: reserve its
    /// working memory from the top of RAM, build the frame-accounting
    /// table and the VMM's own gate table.  Nothing touches the CPUs —
    /// the machine continues running natively.
    pub fn warm_up(machine: &Arc<Machine>) -> Arc<Hypervisor> {
        Self::warm_up_versioned(machine, 1)
    }

    /// [`Hypervisor::warm_up`] with an explicit build version: how a
    /// *successor* instance ("hv-v2") is pre-cached beside a running
    /// one for live-update.  Both instances share the machine but each
    /// reserves its own frame pool and owns its own page-info table,
    /// gate table, event channels and grant tables — nothing is shared,
    /// so a corrupted v1 cannot poison v2 (the transfer *recomputes*
    /// page_info from the guest's own page tables).
    pub fn warm_up_versioned(machine: &Arc<Machine>, version: u32) -> Arc<Hypervisor> {
        let boot = machine.boot_cpu();
        let reserved = machine
            .allocator
            .alloc_high(boot, HV_RESERVED_FRAMES)
            .expect("machine too small for the VMM reservation");
        let num_cpus = machine.num_cpus();
        let stats = Arc::new(HvStats::new(num_cpus));
        Arc::new_cyclic(|me: &Weak<Hypervisor>| Hypervisor {
            machine: Arc::clone(machine),
            page_info: Arc::new(PageInfoTable::new(machine.mem.num_frames())),
            events: EventChannels::new(),
            grants: GrantTables::new(),
            sched: Scheduler::new(num_cpus),
            domains: RwLock::new(BTreeMap::new()),
            active: AtomicBool::new(false),
            version,
            next_domid: AtomicU16::new(1),
            reserved: Mutex::new(reserved),
            routing: Mutex::new(Routing {
                current: vec![None; num_cpus],
                tables: BTreeMap::new(),
                unrouted: gate_table(me, &stats, None),
            }),
            stats,
            me: me.clone(),
        })
    }

    // -- activation (Mercury attach/detach) -----------------------------

    /// Is the VMM in control of the machine?
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Flip the VMM live.  Per-CPU hardware state is reloaded separately
    /// via [`Hypervisor::install_on_cpu`] (Mercury does it inside the
    /// switch interrupt handler, per §5.1.3).
    pub fn activate(&self) {
        self.active.store(true, Ordering::Release);
    }

    /// Return the VMM to dormancy.
    pub fn deactivate(&self) {
        self.active.store(false, Ordering::Release);
    }

    /// Take over one CPU: install the VMM's gate table for the domain
    /// current on it and the de-privileging GDT.  Must run at PL0
    /// (interrupt context of the switch handler).
    pub fn install_on_cpu(&self, cpu: &Arc<Cpu>) {
        cpu.tick(costs::STATE_RELOAD);
        {
            // Under the lock, so a re-route cannot slip between the
            // read of the table and its installation.
            let routing = self.routing.lock();
            let current = routing.current.get(cpu.id).copied().flatten();
            cpu.set_idt_raw(Arc::clone(routing.table(current)));
        }
        cpu.set_gdt_raw(Gdt::VIRTUALIZED);
    }

    /// Release one CPU back to a native kernel: restore the kernel's own
    /// gate table and the native GDT.
    pub fn remove_from_cpu(&self, cpu: &Arc<Cpu>, kernel_idt: Arc<IdtTable>) {
        cpu.tick(costs::STATE_RELOAD);
        cpu.set_idt_raw(kernel_idt);
        cpu.set_gdt_raw(Gdt::NATIVE);
    }

    /// Frames reserved for the VMM itself.
    pub fn reserved_frames(&self) -> usize {
        self.reserved.lock().len()
    }

    /// This VMM build's version number.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Retire a superseded (or rolled-back) instance after live-update:
    /// deactivate it, forget its domain records (without killing the
    /// domains — they live on under the successor), and drain its
    /// reserved frame pool so the caller can hand the memory back to
    /// the machine allocator.  The husk keeps its (now empty) tables so
    /// late readers see a coherent — merely dormant and memoryless —
    /// hypervisor.
    pub fn decommission(&self) -> Vec<FrameNum> {
        self.deactivate();
        let ids: Vec<u16> = std::mem::take(&mut *self.domains.write())
            .into_keys()
            .collect();
        for id in ids {
            self.sched.remove_domain(DomId(id), |_, _| ());
        }
        {
            let mut routing = self.routing.lock();
            // volint::bound(64) — one slot per physical CPU
            for pcpu in 0..routing.current.len() {
                self.route_cpu(&mut routing, pcpu, None);
            }
            routing.tables.clear();
        }
        std::mem::take(&mut *self.reserved.lock())
    }

    /// Drop a domain record without destroying the domain (live-update
    /// hand-off bookkeeping: the domain now belongs to another
    /// instance, or a failed transfer into this one is being unwound).
    pub fn forget_domain(&self, id: DomId) {
        self.domains.write().remove(&id.0);
        self.sched.remove_domain(id, |_, _| ());
        self.route_domain(id);
    }

    /// Borrow `n` frames from the VMM's reserved pool (ring buffers,
    /// bounce pages).
    pub fn take_reserved(&self, n: usize) -> Result<Vec<FrameNum>, HvError> {
        let mut r = self.reserved.lock();
        if r.len() < n {
            return Err(HvError::OutOfMemory);
        }
        let at = r.len() - n;
        Ok(r.split_off(at))
    }

    /// Return frames to the reserved pool.
    pub fn give_reserved(&self, frames: Vec<FrameNum>) {
        self.reserved.lock().extend(frames);
    }

    fn check_active(&self) -> Result<(), HvError> {
        if self.is_active() {
            Ok(())
        } else {
            Err(HvError::NotActive)
        }
    }

    fn count_hypercall(&self, cpu: &Cpu, probe: &'static str) {
        self.count_hypercall_on(cpu, probe, |frame| self.page_info.corrupt_record(frame));
    }

    /// Charge and count one hypercall.  A planted VMM-state fault wipes
    /// its record through `corrupt`: the table's own lock, or the
    /// records a caller already holds.
    // `probe` is read only by the merctrace probes (compiled out by
    // default), hence the underscore.
    fn count_hypercall_on(&self, cpu: &Cpu, _probe: &'static str, corrupt: impl FnOnce(FrameNum)) {
        cpu.tick(costs::HYPERCALL_BASE);
        // Fault injection (compiled out by default): a transiently
        // failed hypercall is retried by the caller and a slow one takes
        // the hypervisor's long path — either way the guest pays a
        // deterministic cycle penalty on top of the base cost.
        let penalty = faultgen::hypercall_site!(cpu.id, cpu.cycles());
        if penalty != 0 {
            cpu.tick(penalty);
        }
        // A VMM-state fault lands in the accounting tables themselves:
        // the record for the planted frame is wiped behind the guest's
        // back, persisting until a live-update rebuilds it on a
        // pristine successor.
        if let Some(frame) = faultgen::vmm_site!(cpu.id, cpu.cycles()) {
            corrupt(FrameNum(frame));
        }
        self.stats.hypercalls.add(cpu, 1);
        merctrace::counter!(cpu.id, "xenon.hypercall", 1, cpu.cycles());
        merctrace::counter!(cpu.id, _probe, 1, cpu.cycles());
    }

    // -- domain lifecycle -------------------------------------------------

    /// Create a domain owning `quota` frames, with vCPU 0 on `pcpu`.
    /// `DOM0` must be created first and is the only privileged domain.
    pub fn create_domain(
        &self,
        cpu: &Cpu,
        name: &str,
        quota: Vec<FrameNum>,
        pcpu: usize,
    ) -> Result<Arc<Domain>, HvError> {
        let id = if self.domains.read().is_empty() {
            DOM0
        } else {
            DomId(self.next_domid.fetch_add(1, Ordering::Relaxed))
        };
        let dom = Domain::new(id, name, id == DOM0, pcpu);
        for f in &quota {
            self.page_info.set_owner(*f, Some(id));
            dom.add_frame(*f);
        }
        cpu.tick(costs::FRAME_ALLOC * quota.len() as u64 / 8);
        self.domains.write().insert(id.0, Arc::clone(&dom));
        self.sched.enqueue(pcpu, SchedUnit { dom: id, vcpu: 0 });
        Ok(dom)
    }

    /// Destroy a domain: unpin its tables, clear accounting, and return
    /// its frames (the caller decides whether they go back to the
    /// machine allocator or to another domain).
    pub fn destroy_domain(&self, cpu: &Cpu, dom: &Arc<Domain>) -> Result<Vec<FrameNum>, HvError> {
        for pgd in dom.pgds() {
            // Best effort: a half-built domain may not have pins.
            let _ = self.page_info.unpin_l2(cpu, &self.machine.mem, pgd, dom.id);
            dom.remove_pgd(pgd);
        }
        self.page_info.clear_types_for(dom.id);
        let frames = dom.frames();
        for f in &frames {
            self.page_info.set_owner(*f, None);
            dom.remove_frame(*f);
        }
        dom.kill();
        self.sched.remove_domain(dom.id, |_, _| ());
        self.domains.write().remove(&dom.id.0);
        self.route_domain(dom.id);
        Ok(frames)
    }

    /// Pick a domain id for a restore/migration arrival: the preferred
    /// (saved) id if free, otherwise a fresh one.  Prevents a migrated
    /// domain-0 from clobbering the host's own domain-0 record.
    pub fn allocate_domid(&self, preferred: DomId) -> DomId {
        if !self.domains.read().contains_key(&preferred.0) {
            return preferred;
        }
        DomId(self.next_domid.fetch_add(1, Ordering::Relaxed))
    }

    /// Look up a live domain.
    pub fn domain(&self, id: DomId) -> Option<Arc<Domain>> {
        self.domains.read().get(&id.0).cloned()
    }

    /// All live domains.
    pub fn domains(&self) -> Vec<Arc<Domain>> {
        // volint::allow(SWITCH-ALLOC): domain snapshot buffer, ≤ a handful of Arcs; taken before the transfer starts mutating
        self.domains.read().values().cloned().collect()
    }

    /// Adopt an externally-constructed domain record (migration
    /// receive).  The id is preserved.
    pub fn adopt_domain(&self, dom: Arc<Domain>) {
        let id = dom.id;
        let pcpu = dom.home_pcpu();
        // volint::allow(SWITCH-ALLOC): one map node per adopted domain, ≤ a handful per live-update transfer
        self.domains.write().insert(id.0, Arc::clone(&dom));
        self.sched.enqueue(pcpu, SchedUnit { dom: id, vcpu: 0 });
        let next = self.next_domid.load(Ordering::Relaxed).max(id.0 + 1);
        self.next_domid.store(next, Ordering::Relaxed);
        self.route_domain(id);
    }

    /// Record which domain runs on `pcpu` (context switch by the
    /// scheduler/test bed); reflection routes through this.
    pub fn set_current(&self, pcpu: usize, dom: Option<DomId>) {
        self.route_cpu(&mut self.routing.lock(), pcpu, dom);
    }

    /// The domain currently on `pcpu`.
    pub fn current(&self, pcpu: usize) -> Option<DomId> {
        self.routing.lock().current.get(pcpu).copied().flatten()
    }

    // -- reflection routing ---------------------------------------------

    /// Put `dom` on `pcpu`, and its gate table in place of the one the
    /// CPU had if that one is loaded there.
    fn route_cpu(&self, routing: &mut Routing, pcpu: usize, dom: Option<DomId>) {
        let Some(slot) = routing.current.get_mut(pcpu) else {
            return;
        };
        let was = std::mem::replace(slot, dom);
        if let Some(cpu) = self.machine.cpus.get(pcpu) {
            let old = Arc::clone(routing.table(was));
            cpu.replace_idt_raw(&old, Arc::clone(routing.table(dom)));
        }
    }

    /// Re-resolve `id`'s gate table from this hypervisor's record of it
    /// (none once the record is gone), and put it in place on every CPU
    /// running `id` that has the old one loaded.  Every change to what a
    /// domain's traps reach — its record, its handlers — ends here.
    fn route_domain(&self, id: DomId) {
        // The record is read under the lock, so the last of two racing
        // changes is the one that stays.
        let mut routing = self.routing.lock();
        let old = Arc::clone(routing.table(Some(id)));
        match self.domain(id) {
            Some(dom) => {
                let table = gate_table(&self.me, &self.stats, Some(&dom));
                // volint::allow(SWITCH-ALLOC): one map node per domain, ≤ a handful; re-registration replaces it
                routing.tables.insert(id.0, table)
            }
            None => routing.tables.remove(&id.0),
        };
        let new = routing.table(Some(id));
        // volint::bound(64) — one slot per physical CPU
        for (cpu, &dom) in self.machine.cpus.iter().zip(&routing.current) {
            if dom == Some(id) {
                cpu.replace_idt_raw(&old, Arc::clone(new));
            }
        }
    }

    // -- MMU hypercalls -----------------------------------------------------

    /// `HYPERVISOR_mmu_update`: validate and commit a batch of
    /// page-table writes for `dom`.
    ///
    /// Rules (direct paging, §3.2.2):
    /// * the target table must already be validated (typed `L1`/`L2`);
    ///   guests build *new* tables with ordinary writes and then pin;
    /// * a leaf entry may only map a frame the domain owns;
    /// * a writable leaf entry may not target a page-table frame;
    /// * the entry index must lie inside the table;
    /// * a directory entry may only reference a (possibly just-now
    ///   validated) L1 table.
    // volint::root(SWITCH)
    pub fn mmu_update(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        updates: &[MmuUpdate],
    ) -> Result<(), HvError> {
        self.mmu_call(
            cpu,
            &mut self.page_info.records(),
            dom,
            updates.iter().copied(),
        )
    }

    /// A guest's write of `updates` into slots of `table`, issued as
    /// `mmu_update` hypercalls of [`MMU_BATCH`] entries each — what
    /// `XenOps::set_pte`/`set_ptes` make — under one hold of the
    /// accounting lock for the type check and every call.  Each call is
    /// charged and counted as its own hypercall; the first that fails
    /// ends the run with its error, and the calls before it stand.
    ///
    /// `Ok(false)`, with nothing charged, when `table` is not a
    /// validated page table: a table still being built takes the
    /// guest's direct writes, and the pin validates it wholesale.
    // volint::root(SWITCH)
    pub fn update_table(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        table: FrameNum,
        updates: &[(usize, Pte)],
    ) -> Result<bool, HvError> {
        let mut info = self.page_info.records();
        let (typ, count) = info.type_of(table);
        if count == 0 || !matches!(typ, PageType::L1 | PageType::L2) {
            return Ok(false);
        }
        // volint::bound(256) — one call per MMU_BATCH entries of a run ≤ ENTRIES_PER_TABLE
        for call in updates.chunks(MMU_BATCH) {
            let call = call
                .iter()
                .map(|&(index, val)| MmuUpdate { table, index, val });
            self.mmu_call(cpu, &mut info, dom, call)?;
        }
        Ok(true)
    }

    /// One `mmu_update` hypercall on the held records: charged and
    /// counted, then each entry validated and committed in order.
    fn mmu_call(
        &self,
        cpu: &Cpu,
        info: &mut Records,
        dom: &Arc<Domain>,
        updates: impl IntoIterator<Item = MmuUpdate>,
    ) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall_on(cpu, "xenon.hypercall.mmu_update", |frame| {
            info.corrupt_record(frame)
        });
        // volint::bound(512) — one batch ≤ ENTRIES_PER_TABLE updates; callers submit per-table batches
        for u in updates {
            cpu.tick(costs::MMU_UPDATE_PER_ENTRY);
            self.stats.mmu_entries.add(cpu, 1);
            let (typ, count) = info.type_of(u.table);
            if count == 0 {
                return Err(HvError::TypeConflict(
                    "mmu_update on an unvalidated table (write it directly and pin)",
                ));
            }
            if info.owner(u.table) != Some(dom.id) {
                return Err(HvError::BadFrame {
                    frame: u.table.0,
                    why: "table not owned by caller",
                });
            }
            if u.index >= ENTRIES_PER_TABLE {
                return Err(HvError::BadIndex {
                    table: u.table.0,
                    index: u.index,
                });
            }
            match typ {
                PageType::L1 => self.commit_l1_update(cpu, info, dom, &u)?,
                PageType::L2 => self.commit_l2_update(cpu, info, dom, &u)?,
                _ => {
                    return Err(HvError::TypeConflict(
                        "mmu_update target is not a page table",
                    ))
                }
            }
        }
        Ok(())
    }

    fn commit_l1_update(
        &self,
        cpu: &Cpu,
        info: &mut Records,
        dom: &Arc<Domain>,
        u: &MmuUpdate,
    ) -> Result<(), HvError> {
        let mem = &self.machine.mem;
        let old = mem.read_pte(cpu, u.table, u.index)?;
        // Take the new reference first so failure leaves state intact.
        if u.val.present() {
            let target = FrameNum(u.val.frame());
            if info.owner(target) != Some(dom.id) {
                return Err(HvError::BadFrame {
                    frame: target.0,
                    why: "leaf target not owned by caller",
                });
            }
            if u.val.writable() {
                info.get_type_ref(target, PageType::Writable)?;
            }
        }
        if old.present() && old.writable() {
            info.put_type_ref(FrameNum(old.frame()), PageType::Writable);
        }
        mem.write_pte(cpu, u.table, u.index, u.val)?;
        Ok(())
    }

    fn commit_l2_update(
        &self,
        cpu: &Cpu,
        info: &mut Records,
        dom: &Arc<Domain>,
        u: &MmuUpdate,
    ) -> Result<(), HvError> {
        let mem = &self.machine.mem;
        let old = mem.read_pte(cpu, u.table, u.index)?;
        if u.val.present() {
            let l1 = FrameNum(u.val.frame());
            let (typ, count) = info.type_of(l1);
            if typ != PageType::L1 || count == 0 {
                // The ref taken at the end of validate_l1 is this
                // entry's reference.
                info.validate_l1(cpu, mem, l1, dom.id, costs::PT_PIN_PER_ENTRY)?;
            } else {
                info.get_type_ref(l1, PageType::L1)?;
            }
        }
        if old.present() {
            info.put_l1_ref(cpu, mem, FrameNum(old.frame()))?;
        }
        mem.write_pte(cpu, u.table, u.index, u.val)?;
        Ok(())
    }

    /// `MMUEXT_PIN_L2_TABLE`: validate and pin a base table.
    // volint::root(SWITCH)
    pub fn pin_l2(&self, cpu: &Cpu, dom: &Arc<Domain>, pgd: FrameNum) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.pin_l2");
        self.page_info.pin_l2(cpu, &self.machine.mem, pgd, dom.id)?;
        dom.add_pgd(pgd);
        Ok(())
    }

    /// `MMUEXT_UNPIN_TABLE`.
    // volint::root(SWITCH)
    pub fn unpin_l2(&self, cpu: &Cpu, dom: &Arc<Domain>, pgd: FrameNum) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.unpin_l2");
        self.page_info
            .unpin_l2(cpu, &self.machine.mem, pgd, dom.id)?;
        dom.remove_pgd(pgd);
        Ok(())
    }

    /// `MMUEXT_NEW_BASEPTR`: load a new page-directory base on `cpu`.
    /// The table must be pinned (validated) and owned by the caller.
    // volint::root(SWITCH)
    pub fn new_baseptr(
        &self,
        cpu: &Arc<Cpu>,
        dom: &Arc<Domain>,
        pgd: FrameNum,
    ) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.new_baseptr");
        let (typ, count) = self.page_info.type_of(pgd);
        if typ != PageType::L2 || count == 0 {
            return Err(HvError::TypeConflict("baseptr not a validated L2"));
        }
        if self.page_info.owner(pgd) != Some(dom.id) {
            return Err(HvError::BadFrame {
                frame: pgd.0,
                why: "baseptr not owned by caller",
            });
        }
        cpu.set_cr3_raw(pgd.0);
        Ok(())
    }

    /// `MMUEXT_TLB_FLUSH_LOCAL`.
    // volint::root(SWITCH)
    pub fn tlb_flush_local(&self, cpu: &Arc<Cpu>) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.tlb_flush_local");
        cpu.flush_tlb_local();
        Ok(())
    }

    /// `MMUEXT_TLB_FLUSH_ALL`: flush every CPU's TLB (the VMM performs
    /// the shootdown on the guest's behalf).
    // volint::root(SWITCH)
    pub fn tlb_flush_all(&self, cpu: &Arc<Cpu>) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.tlb_flush_all");
        // volint::bound(64) — one IPI per CPU; the machine model tops out well below this
        for c in &self.machine.cpus {
            if c.id == cpu.id {
                cpu.flush_tlb_local();
            } else {
                cpu.tick(costs::IPI_SEND);
                c.request_tlb_flush();
            }
        }
        Ok(())
    }

    /// `MMUEXT_INVLPG_LOCAL`.
    // volint::root(SWITCH)
    pub fn invlpg(&self, cpu: &Arc<Cpu>, vpn: u64) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.invlpg");
        cpu.invlpg(vpn);
        Ok(())
    }

    // -- CPU / trap hypercalls ---------------------------------------------

    /// `HYPERVISOR_set_trap_table`: register the guest's handlers.
    // volint::root(SWITCH)
    pub fn set_trap_table(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        entries: Vec<(u8, Arc<dyn InterruptSink>)>,
    ) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.set_trap_table");
        // volint::bound(32) — one entry per registered trap vector
        for (vector, sink) in entries {
            dom.set_trap_gate(vector, sink);
        }
        self.route_domain(dom.id);
        Ok(())
    }

    /// `HYPERVISOR_stack_switch`: record the guest kernel's stack for
    /// the next user→kernel transition.
    // volint::root(SWITCH)
    pub fn stack_switch(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        vcpu: usize,
        sp: u64,
    ) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.stack_switch");
        dom.set_kernel_sp(vcpu, sp)
    }

    /// `SCHEDOP_yield`.
    pub fn sched_yield(&self, cpu: &Cpu, _dom: &Arc<Domain>) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.sched_yield");
        Ok(())
    }

    /// `SCHEDOP_block`: the vCPU sleeps until an event arrives.
    pub fn sched_block(&self, cpu: &Cpu, dom: &Arc<Domain>, vcpu: usize) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.sched_block");
        dom.set_runnable(vcpu, false);
        Ok(())
    }

    /// `HYPERVISOR_console_io`.
    pub fn console_io(&self, cpu: &Cpu, msg: &str) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.console_io");
        self.machine.console.write_line(msg);
        Ok(())
    }

    // -- memory ballooning ---------------------------------------------------

    /// `XENMEM_decrease_reservation`: the guest relinquishes frames
    /// (its balloon driver inflates).  Frames must be owned by the
    /// caller and untyped (no live page-table or writable references);
    /// they move to the VMM's reserved pool.
    pub fn balloon_out(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        frames: &[FrameNum],
    ) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.balloon_out");
        // Validate everything first: partial balloons are confusing.
        for (i, &f) in frames.iter().enumerate() {
            if frames[..i].contains(&f) {
                return Err(HvError::BadFrame {
                    frame: f.0,
                    why: "ballooning a frame twice in one call",
                });
            }
            if self.page_info.owner(f) != Some(dom.id) {
                return Err(HvError::BadFrame {
                    frame: f.0,
                    why: "ballooning a frame the domain does not own",
                });
            }
            let (_, count) = self.page_info.type_of(f);
            if count != 0 {
                return Err(HvError::TypeConflict(
                    "ballooning a frame with live references",
                ));
            }
        }
        for &f in frames {
            cpu.tick(costs::FRAME_ALLOC / 2);
            self.page_info.set_owner(f, None);
            dom.remove_frame(f);
        }
        self.give_reserved(frames.to_vec());
        Ok(())
    }

    /// `XENMEM_increase_reservation`: grant the domain `n` frames from
    /// the VMM's pool (its balloon deflates).  Returns the frames, now
    /// owned by the domain.
    pub fn balloon_in(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        n: usize,
    ) -> Result<Vec<FrameNum>, HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.balloon_in");
        let frames = self.take_reserved(n)?;
        for &f in &frames {
            cpu.tick(costs::FRAME_ALLOC / 2);
            self.page_info.set_owner(f, Some(dom.id));
            dom.add_frame(f);
            // Scrub: the frame may carry another domain's stale data.
            self.machine.mem.zero_frame(cpu, f)?;
        }
        Ok(frames)
    }

    // -- event channels / grants (thin wrappers charging the crossing) -----

    /// `EVTCHNOP_alloc_unbound`.
    pub fn evtchn_alloc(&self, cpu: &Cpu, dom: &Arc<Domain>) -> Result<u32, HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.evtchn_alloc");
        self.events.alloc_unbound(dom.id)
    }

    /// `EVTCHNOP_bind_interdomain`.
    pub fn evtchn_bind(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        peer: DomId,
        peer_port: u32,
    ) -> Result<u32, HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.evtchn_bind");
        self.events.bind_interdomain(dom.id, peer, peer_port)
    }

    /// `EVTCHNOP_send`.
    pub fn evtchn_send(&self, cpu: &Cpu, dom: &Arc<Domain>, port: u32) -> Result<(), HvError> {
        self.check_active()?;
        self.count_hypercall(cpu, "xenon.hypercall.evtchn_send");
        self.events
            .send(cpu, &self.machine.intc, dom, port, |id| self.domain(id))
    }

    /// `GNTTABOP_grant`.
    pub fn grant(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        to: DomId,
        frame: FrameNum,
        readonly: bool,
    ) -> Result<u32, HvError> {
        self.check_active()?;
        merctrace::counter!(cpu.id, "xenon.hypercall.grant", 1, cpu.cycles());
        if !dom.owns(frame) {
            return Err(HvError::BadFrame {
                frame: frame.0,
                why: "granting a frame the domain does not own",
            });
        }
        Ok(self.grants.grant(cpu, dom.id, to, frame, readonly))
    }

    /// `GNTTABOP_map_grant_ref`.
    pub fn grant_map(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        grantor: DomId,
        gref: u32,
    ) -> Result<(FrameNum, bool), HvError> {
        self.check_active()?;
        merctrace::counter!(cpu.id, "xenon.hypercall.grant_map", 1, cpu.cycles());
        self.grants.map(cpu, dom.id, grantor, gref)
    }

    /// `GNTTABOP_unmap_grant_ref`.
    pub fn grant_unmap(
        &self,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        grantor: DomId,
        gref: u32,
    ) -> Result<(), HvError> {
        self.check_active()?;
        merctrace::counter!(cpu.id, "xenon.hypercall.grant_unmap", 1, cpu.cycles());
        self.grants.unmap(cpu, dom.id, grantor, gref)
    }

    /// Revoke one of the caller's own grants.
    pub fn grant_revoke(&self, cpu: &Cpu, dom: &Arc<Domain>, gref: u32) -> Result<(), HvError> {
        self.check_active()?;
        merctrace::counter!(cpu.id, "xenon.hypercall.grant_revoke", 1, cpu.cycles());
        self.grants.revoke(cpu, dom.id, gref)
    }
}

/// The gate table of a CPU running `dom` (`None`: no domain, or one that
/// registered no handlers): a [`ReflectSink`] on every reflected vector,
/// each holding `dom`'s handler for it.
fn gate_table(hv: &Weak<Hypervisor>, stats: &Arc<HvStats>, dom: Option<&Domain>) -> Arc<IdtTable> {
    let mut idt = IdtTable::new("xenon");
    // volint::bound(12) — the REFLECTED vectors
    for vector in REFLECTED {
        let sink = ReflectSink {
            hv: hv.clone(),
            stats: Arc::clone(stats),
            guest: dom.and_then(|d| d.trap_gate(vector)),
        };
        // volint::allow(SWITCH-ALLOC): twelve gates per registration of a domain's trap table, not per trap
        idt.set_gate(vector, Arc::new(sink));
    }
    // volint::allow(SWITCH-ALLOC): one table per registration of a domain's trap table, not per trap
    Arc::new(idt)
}

/// A gate of the VMM's table: receives a trap while the VMM owns the
/// hardware and reflects it into the guest handler resolved when the
/// route last changed, charging the extra ring crossings (§3.2.1's cost
/// of de-privileging).  It takes no lock and no reference count: the
/// route is in the table the CPU loaded.
struct ReflectSink {
    hv: Weak<Hypervisor>,
    stats: Arc<HvStats>,
    /// The handler the domain current on the CPU registered for this
    /// vector.
    guest: Option<Arc<dyn InterruptSink>>,
}

impl InterruptSink for ReflectSink {
    fn handle(&self, cpu: &Arc<Cpu>, frame: &mut TrapFrame) {
        // A table left loaded by a hypervisor since dropped reflects
        // nothing.  (A load, where `upgrade` would be a locked add.)
        if self.hv.strong_count() == 0 {
            return;
        }
        cpu.tick(costs::TRAP_REFLECT_VIRT);
        self.stats.reflections.add(cpu, 1);
        merctrace::counter!(cpu.id, "xenon.trap.reflect", 1, cpu.cycles());

        if frame.vector == vectors::EVTCHN_UPCALL {
            // Deliver to every domain homed on this CPU with pending
            // events.
            let Some(hv) = self.hv.upgrade() else {
                return;
            };
            for dom in hv.domains() {
                if dom.home_pcpu() == cpu.id && dom.evt_pending.load(Ordering::Acquire) != 0 {
                    if let Some(gate) = dom.trap_gate(vectors::EVTCHN_UPCALL) {
                        gate.handle(cpu, frame);
                    }
                }
            }
            return;
        }

        // Everything else goes to the domain currently on this CPU.
        if let Some(gate) = &self.guest {
            gate.handle(cpu, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::MachineConfig;

    fn small_machine() -> Arc<Machine> {
        Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 64,
        })
    }

    fn quota(machine: &Arc<Machine>, n: usize) -> Vec<FrameNum> {
        machine.allocator.alloc_many(machine.boot_cpu(), n).unwrap()
    }

    #[test]
    fn warm_up_reserves_top_memory_and_stays_dormant() {
        let machine = small_machine();
        let free_before = machine.allocator.available();
        let hv = Hypervisor::warm_up(&machine);
        assert!(!hv.is_active());
        assert_eq!(hv.reserved_frames(), HV_RESERVED_FRAMES);
        assert_eq!(
            machine.allocator.available(),
            free_before - HV_RESERVED_FRAMES
        );
    }

    /// A counter is a slot per CPU written by the thread driving it:
    /// four CPUs making hypercalls from four threads lose no count.
    #[test]
    fn stats_summed_over_cpus_equal_the_calls_made() {
        const CALLS: u64 = 20_000;
        let machine = Machine::new(MachineConfig {
            num_cpus: 4,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        std::thread::scope(|s| {
            for cpu in &machine.cpus {
                let hv = &hv;
                s.spawn(move || {
                    for vpn in 0..CALLS {
                        hv.invlpg(cpu, vpn).unwrap();
                    }
                });
            }
        });
        assert_eq!(hv.stats.hypercalls.load(Ordering::Relaxed), 4 * CALLS);
        assert_eq!(hv.stats.mmu_entries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn hypercalls_fail_while_dormant() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        let cpu = machine.boot_cpu();
        let dom = hv
            .create_domain(cpu, "dom0", quota(&machine, 16), 0)
            .unwrap();
        assert!(matches!(
            hv.mmu_update(cpu, &dom, &[]),
            Err(HvError::NotActive)
        ));
        assert!(matches!(hv.sched_yield(cpu, &dom), Err(HvError::NotActive)));
        hv.activate();
        assert!(hv.mmu_update(cpu, &dom, &[]).is_ok());
    }

    #[test]
    fn dom0_is_first_and_privileged() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        let cpu = machine.boot_cpu();
        let d0 = hv
            .create_domain(cpu, "dom0", quota(&machine, 4), 0)
            .unwrap();
        let d1 = hv
            .create_domain(cpu, "domU", quota(&machine, 4), 0)
            .unwrap();
        assert_eq!(d0.id, DOM0);
        assert!(d0.privileged);
        assert_eq!(d1.id, DomId(1));
        assert!(!d1.privileged);
        assert!(hv.domain(DOM0).is_some());
        assert_eq!(hv.domains().len(), 2);
    }

    /// Build a pinned base table: PGD → one L1 → one writable data page.
    fn pinned_as(
        hv: &Arc<Hypervisor>,
        cpu: &Arc<Cpu>,
        dom: &Arc<Domain>,
    ) -> (FrameNum, FrameNum, FrameNum) {
        let frames = dom.frames();
        let (pgd, l1, data) = (frames[0], frames[1], frames[2]);
        let mem = &hv.machine.mem;
        mem.write_pte(cpu, pgd, 0, Pte::new(l1.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        mem.write_pte(cpu, l1, 0, Pte::new(data.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        hv.pin_l2(cpu, dom, pgd).unwrap();
        (pgd, l1, data)
    }

    #[test]
    fn mmu_update_validates_and_commits() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let dom = hv
            .create_domain(cpu, "dom0", quota(&machine, 8), 0)
            .unwrap();
        let (_pgd, l1, _data) = pinned_as(&hv, cpu, &dom);
        let new_target = dom.frames()[3];

        // Remap slot 0 to another owned frame.
        hv.mmu_update(
            cpu,
            &dom,
            &[MmuUpdate {
                table: l1,
                index: 0,
                val: Pte::new(new_target.0, Pte::WRITABLE | Pte::USER),
            }],
        )
        .unwrap();
        assert_eq!(hv.page_info.type_of(new_target), (PageType::Writable, 1));
        // The old target's writable ref was dropped.
        assert_eq!(hv.page_info.type_of(dom.frames()[2]), (PageType::None, 0));
    }

    #[test]
    fn mmu_update_rejects_mapping_page_table_writable() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let dom = hv
            .create_domain(cpu, "dom0", quota(&machine, 8), 0)
            .unwrap();
        let (_pgd, l1, _) = pinned_as(&hv, cpu, &dom);
        let err = hv
            .mmu_update(
                cpu,
                &dom,
                &[MmuUpdate {
                    table: l1,
                    index: 1,
                    val: Pte::new(l1.0, Pte::WRITABLE),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, HvError::TypeConflict(_)));
    }

    #[test]
    fn mmu_update_rejects_foreign_frames_and_unvalidated_tables() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let d0 = hv
            .create_domain(cpu, "dom0", quota(&machine, 8), 0)
            .unwrap();
        let d1 = hv
            .create_domain(cpu, "domU", quota(&machine, 8), 0)
            .unwrap();
        let (_pgd, l1, _) = pinned_as(&hv, cpu, &d0);

        // Mapping a frame owned by d1 into d0's table: rejected.
        let foreign = d1.frames()[0];
        assert!(matches!(
            hv.mmu_update(
                cpu,
                &d0,
                &[MmuUpdate {
                    table: l1,
                    index: 2,
                    val: Pte::new(foreign.0, Pte::WRITABLE),
                }]
            ),
            Err(HvError::BadFrame { .. })
        ));

        // Updating an unvalidated table: rejected.
        let plain = d0.frames()[5];
        assert!(matches!(
            hv.mmu_update(
                cpu,
                &d0,
                &[MmuUpdate {
                    table: plain,
                    index: 0,
                    val: Pte::ABSENT,
                }]
            ),
            Err(HvError::TypeConflict(_))
        ));
    }

    #[test]
    fn new_baseptr_requires_pinned_l2() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let dom = hv
            .create_domain(cpu, "dom0", quota(&machine, 8), 0)
            .unwrap();
        let plain = dom.frames()[5];
        assert!(hv.new_baseptr(cpu, &dom, plain).is_err());
        let (pgd, _, _) = pinned_as(&hv, cpu, &dom);
        hv.new_baseptr(cpu, &dom, pgd).unwrap();
        assert_eq!(cpu.read_cr3().unwrap(), pgd.0);
    }

    #[test]
    fn destroy_domain_releases_everything() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let dom = hv
            .create_domain(cpu, "dom0", quota(&machine, 8), 0)
            .unwrap();
        let (pgd, l1, data) = pinned_as(&hv, cpu, &dom);
        let frames = hv.destroy_domain(cpu, &dom).unwrap();
        assert_eq!(frames.len(), 8);
        assert!(!dom.is_alive());
        for f in [pgd, l1, data] {
            assert_eq!(hv.page_info.type_of(f), (PageType::None, 0));
            assert_eq!(hv.page_info.owner(f), None);
        }
        assert!(hv.domain(DOM0).is_none());
    }

    #[test]
    fn reflection_reaches_registered_guest_handler() {
        use std::sync::atomic::AtomicUsize;
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let dom = hv
            .create_domain(cpu, "dom0", quota(&machine, 4), 0)
            .unwrap();

        struct Count(AtomicUsize);
        impl InterruptSink for Count {
            fn handle(&self, _c: &Arc<Cpu>, _f: &mut TrapFrame) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let counter = Arc::new(Count(AtomicUsize::new(0)));
        hv.set_trap_table(cpu, &dom, vec![(vectors::TIMER, counter.clone())])
            .unwrap();
        hv.set_current(0, Some(dom.id));
        hv.install_on_cpu(cpu);
        cpu.set_pl_raw(simx86::PrivLevel::Pl0);
        cpu.sti().unwrap();
        cpu.set_pl_raw(simx86::PrivLevel::Pl1);

        cpu.raise(vectors::TIMER);
        cpu.service_pending();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(hv.stats.reflections.load(Ordering::Relaxed), 1);
        // Guest resumed at its de-privileged level.
        assert_eq!(cpu.pl(), simx86::PrivLevel::Pl1);
    }

    /// The gate table a CPU loads stands in for the lookup a reflected
    /// trap used to make — current domain → its record → its handler.
    /// After every change that moves a route, a page fault on each of
    /// two CPUs lands at exactly the handler that lookup names, or at
    /// none, and is charged as a reflection either way.  Any one of
    /// `install_on_cpu`, `set_current`, `set_trap_table`,
    /// `forget_domain`, `adopt_domain`, `destroy_domain` and
    /// `decommission` leaving the table as it was fails a step.
    #[test]
    fn a_reflected_fault_reaches_the_handler_the_route_names() {
        type Log = Arc<Mutex<Vec<usize>>>;
        struct Tagged(usize, Log);
        impl InterruptSink for Tagged {
            fn handle(&self, _c: &Arc<Cpu>, _f: &mut TrapFrame) {
                self.1.lock().push(self.0);
            }
        }
        let machine = Machine::new(MachineConfig {
            num_cpus: 2,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let boot = machine.boot_cpu();
        let d0 = hv
            .create_domain(boot, "dom0", quota(&machine, 4), 0)
            .unwrap();
        let d1 = hv
            .create_domain(boot, "domU", quota(&machine, 4), 1)
            .unwrap();
        let log: Log = Arc::default();
        let handlers: Vec<Arc<dyn InterruptSink>> = (0..3)
            .map(|tag| Arc::new(Tagged(tag, Arc::clone(&log))) as Arc<dyn InterruptSink>)
            .collect();
        let register = |dom: &Arc<Domain>, tag: usize| {
            let entries = vec![(vectors::PAGE_FAULT, Arc::clone(&handlers[tag]))];
            hv.set_trap_table(boot, dom, entries).unwrap();
        };
        // The handler the lookup names for `pcpu`, by tag.
        let named = |hv: &Hypervisor, pcpu: usize| {
            let gate = hv
                .current(pcpu)
                .and_then(|id| hv.domain(id))?
                .trap_gate(vectors::PAGE_FAULT)?;
            let at = |h: &Arc<dyn InterruptSink>| {
                Arc::as_ptr(h) as *const () == Arc::as_ptr(&gate) as *const ()
            };
            handlers.iter().position(at)
        };
        let step = |hv: &Hypervisor, what: &str, want: [Option<usize>; 2]| {
            for (cpu, want) in machine.cpus.iter().zip(want) {
                assert_eq!(
                    named(hv, cpu.id),
                    want,
                    "{what}: the lookup on CPU {}",
                    cpu.id
                );
                let reflections = hv.stats.reflections.load(Ordering::Relaxed);
                cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
                let reached = log.lock().pop();
                assert_eq!(reached, want, "{what}: the fault on CPU {}", cpu.id);
                assert_eq!(
                    hv.stats.reflections.load(Ordering::Relaxed),
                    reflections + 1
                );
            }
        };

        register(&d0, 0);
        register(&d1, 1);
        hv.set_current(0, Some(d0.id));
        for cpu in &machine.cpus {
            hv.install_on_cpu(cpu);
        }
        step(&hv, "install", [Some(0), None]);
        hv.set_current(1, Some(d0.id));
        step(&hv, "set_current", [Some(0), Some(0)]);
        hv.set_current(0, Some(d1.id));
        step(&hv, "set_current to another domain", [Some(1), Some(0)]);
        register(&d1, 2);
        step(&hv, "a re-registered trap table", [Some(2), Some(0)]);
        hv.forget_domain(d1.id);
        step(&hv, "forget_domain", [None, Some(0)]);
        hv.adopt_domain(Arc::clone(&d1));
        step(&hv, "adopt_domain", [Some(2), Some(0)]);
        hv.destroy_domain(boot, &d0).unwrap();
        step(&hv, "destroy_domain", [Some(2), None]);
        hv.set_current(1, Some(d1.id));
        step(&hv, "set_current after a destroy", [Some(2), Some(2)]);
        hv.decommission();
        step(&hv, "decommission", [None, None]);

        // A table left loaded by a hypervisor since dropped charges and
        // reaches nothing.
        hv.set_current(0, Some(d1.id));
        let cpu = &machine.cpus[0];
        let c0 = cpu.cycles();
        cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        let live = cpu.cycles() - c0;
        drop(hv);
        let c0 = cpu.cycles();
        cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        assert_eq!(cpu.cycles() - c0, live - costs::TRAP_REFLECT_VIRT);
        assert!(log.lock().is_empty());
    }

    #[test]
    fn grant_requires_ownership() {
        let machine = small_machine();
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let d0 = hv
            .create_domain(cpu, "dom0", quota(&machine, 4), 0)
            .unwrap();
        let d1 = hv
            .create_domain(cpu, "domU", quota(&machine, 4), 0)
            .unwrap();
        let mine = d1.frames()[0];
        let gref = hv.grant(cpu, &d1, DOM0, mine, false).unwrap();
        let (f, _) = hv.grant_map(cpu, &d0, d1.id, gref).unwrap();
        assert_eq!(f, mine);
        // d1 cannot grant d0's frame.
        let theirs = d0.frames()[0];
        assert!(hv.grant(cpu, &d1, DOM0, theirs, false).is_err());
    }
}

#[cfg(test)]
mod wrapper_tests {
    use super::*;
    use crate::page_info::PageInfo;
    use simx86::MachineConfig;

    fn rig() -> (Arc<Machine>, Arc<Hypervisor>, Arc<Domain>, Arc<Domain>) {
        rig_of(1)
    }

    /// [`rig`] with d0's tree pinned: directory f[0] → leaf tables f[1]
    /// and f[2]; f[3] a leaf table built but not hooked in; f[4..] data.
    fn pinned_rig(num_cpus: usize) -> (Arc<Machine>, Arc<Hypervisor>, Arc<Domain>, Arc<Domain>) {
        let (machine, hv, d0, d1) = rig_of(num_cpus);
        let cpu = machine.boot_cpu();
        let f = d0.frames();
        let mem = &machine.mem;
        for (slot, l1) in [(0, f[1]), (1, f[2])] {
            mem.write_pte(cpu, f[0], slot, Pte::new(l1.0, Pte::WRITABLE | Pte::USER))
                .unwrap();
        }
        for (l1, data) in [(f[1], f[4]), (f[2], f[5]), (f[3], f[6])] {
            mem.write_pte(cpu, l1, 0, Pte::new(data.0, Pte::WRITABLE | Pte::USER))
                .unwrap();
        }
        hv.pin_l2(cpu, &d0, f[0]).unwrap();
        (machine, hv, d0, d1)
    }

    fn rig_of(num_cpus: usize) -> (Arc<Machine>, Arc<Hypervisor>, Arc<Domain>, Arc<Domain>) {
        let machine = Machine::new(MachineConfig {
            num_cpus,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let q0 = machine.allocator.alloc_many(cpu, 8).unwrap();
        let d0 = hv.create_domain(cpu, "dom0", q0, 0).unwrap();
        let q1 = machine.allocator.alloc_many(cpu, 8).unwrap();
        let d1 = hv.create_domain(cpu, "domU", q1, 0).unwrap();
        (machine, hv, d0, d1)
    }

    #[test]
    fn evtchn_hypercall_wrappers_roundtrip() {
        let (machine, hv, d0, d1) = rig();
        let cpu = machine.boot_cpu();
        let p1 = hv.evtchn_alloc(cpu, &d1).unwrap();
        let p0 = hv.evtchn_bind(cpu, &d0, d1.id, p1).unwrap();
        hv.evtchn_send(cpu, &d0, p0).unwrap();
        assert_eq!(crate::events::take_pending(&d1), 1u64 << p1);
        // And the reverse direction through the peer port.
        hv.evtchn_send(cpu, &d1, p1).unwrap();
        assert_eq!(crate::events::take_pending(&d0), 1u64 << p0);
    }

    #[test]
    fn stack_switch_and_sched_ops() {
        let (machine, hv, d0, _d1) = rig();
        let cpu = machine.boot_cpu();
        hv.stack_switch(cpu, &d0, 0, 0xcafe_0000).unwrap();
        assert_eq!(d0.vcpus()[0].kernel_sp, 0xcafe_0000);
        assert!(hv.stack_switch(cpu, &d0, 7, 0).is_err(), "bad vcpu index");

        hv.sched_block(cpu, &d0, 0).unwrap();
        assert!(!d0.any_runnable());
        // An event wakes the blocked vCPU.
        let (machine2, hv2, a, b) = rig();
        let cpu2 = machine2.boot_cpu();
        let pb = hv2.evtchn_alloc(cpu2, &b).unwrap();
        let pa = hv2.evtchn_bind(cpu2, &a, b.id, pb).unwrap();
        hv2.sched_block(cpu2, &b, 0).unwrap();
        assert!(!b.any_runnable());
        hv2.evtchn_send(cpu2, &a, pa).unwrap();
        assert!(b.any_runnable(), "event must wake the blocked vCPU");
        hv.sched_yield(cpu, &d0).unwrap();
    }

    #[test]
    fn console_io_reaches_the_console() {
        let (machine, hv, _d0, _d1) = rig();
        let cpu = machine.boot_cpu();
        hv.console_io(cpu, "from the guest").unwrap();
        assert!(machine.console.contains("from the guest"));
    }

    #[test]
    fn tlb_hypercalls_charge_and_flush() {
        let (machine, hv, _d0, _d1) = rig();
        let cpu = machine.boot_cpu();
        let before = cpu.cycles();
        hv.tlb_flush_local(cpu).unwrap();
        hv.invlpg(cpu, 0x123).unwrap();
        assert!(cpu.cycles() - before >= 2 * costs::HYPERCALL_BASE);
    }

    #[test]
    fn reserved_pool_take_and_give() {
        let (_machine, hv, _d0, _d1) = rig();
        let n0 = hv.reserved_frames();
        let taken = hv.take_reserved(4).unwrap();
        assert_eq!(hv.reserved_frames(), n0 - 4);
        hv.give_reserved(taken);
        assert_eq!(hv.reserved_frames(), n0);
        assert!(hv.take_reserved(100_000).is_err());
    }

    #[test]
    fn ballooning_moves_frames_between_domain_and_vmm() {
        let (machine, hv, d0, d1) = rig();
        let cpu = machine.boot_cpu();
        let reserved0 = hv.reserved_frames();
        let give = vec![d0.frames()[5], d0.frames()[6]];

        hv.balloon_out(cpu, &d0, &give).unwrap();
        assert_eq!(d0.frame_count(), 6);
        assert_eq!(hv.reserved_frames(), reserved0 + 2);
        assert_eq!(hv.page_info.owner(give[0]), None);

        // The other domain can receive them — scrubbed.
        machine.mem.write_word(cpu, give[0].base(), 0xdead).unwrap();
        let got = hv.balloon_in(cpu, &d1, 2).unwrap();
        assert_eq!(d1.frame_count(), 10);
        for f in &got {
            assert_eq!(hv.page_info.owner(*f), Some(d1.id));
            assert_eq!(
                machine.mem.read_word(cpu, f.base()).unwrap(),
                0,
                "not scrubbed"
            );
        }
    }

    #[test]
    fn ballooning_rejects_foreign_or_referenced_frames() {
        let (machine, hv, d0, d1) = rig();
        let cpu = machine.boot_cpu();
        // Foreign frame.
        assert!(matches!(
            hv.balloon_out(cpu, &d0, &[d1.frames()[0]]),
            Err(HvError::BadFrame { .. })
        ));
        // Frame with a live type reference.
        let f = d0.frames()[3];
        hv.page_info.get_type_ref(f, PageType::Writable).unwrap();
        assert!(matches!(
            hv.balloon_out(cpu, &d0, &[f]),
            Err(HvError::TypeConflict(_))
        ));
        // Nothing moved on failure.
        assert_eq!(d0.frame_count(), 8);
    }

    #[test]
    fn ballooning_rejects_a_frame_named_twice() {
        let (machine, hv, d0, d1) = rig();
        let cpu = machine.boot_cpu();
        let reserved0 = hv.reserved_frames();
        let f = d0.frames()[6];
        // Accepted, the frame would sit in the reserved pool twice and
        // two later balloon_in calls would hand it to two domains.
        assert!(matches!(
            hv.balloon_out(cpu, &d0, &[f, d0.frames()[5], f]),
            Err(HvError::BadFrame { frame, .. }) if frame == f.0
        ));
        // Nothing moved.
        assert_eq!(d0.frame_count(), 8);
        assert_eq!(hv.reserved_frames(), reserved0);
        assert_eq!(hv.page_info.owner(f), Some(d0.id));
        // Named once, it goes out once.
        hv.balloon_out(cpu, &d0, &[f]).unwrap();
        assert_eq!(hv.reserved_frames(), reserved0 + 1);
        assert_eq!(hv.balloon_in(cpu, &d1, 1).unwrap(), [f]);
    }

    #[test]
    fn adopted_domain_ids_do_not_collide() {
        let (_machine, hv, d0, _d1) = rig();
        // A migrated-in domain claiming an occupied id gets a fresh one.
        assert_ne!(hv.allocate_domid(d0.id), d0.id);
        assert_eq!(hv.allocate_domid(DomId(77)), DomId(77));
    }

    /// `mmu_update` as it was before a batch held the accounting lock
    /// once: a round-trip through the lock per primitive, and the
    /// per-entry validators of [`crate::page_info::oracle`].
    fn oracle_mmu_update(
        hv: &Hypervisor,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        updates: &[MmuUpdate],
    ) -> Result<(), HvError> {
        use crate::page_info::oracle;
        hv.check_active()?;
        hv.count_hypercall(cpu, "xenon.hypercall.mmu_update");
        let (mem, info) = (&hv.machine.mem, &hv.page_info);
        for u in updates {
            cpu.tick(costs::MMU_UPDATE_PER_ENTRY);
            hv.stats.mmu_entries.add(cpu, 1);
            let (typ, count) = info.type_of(u.table);
            if count == 0 {
                return Err(HvError::TypeConflict(
                    "mmu_update on an unvalidated table (write it directly and pin)",
                ));
            }
            if info.owner(u.table) != Some(dom.id) {
                return Err(HvError::BadFrame {
                    frame: u.table.0,
                    why: "table not owned by caller",
                });
            }
            let new = FrameNum(u.val.frame());
            match typ {
                PageType::L1 => {
                    let old = mem.read_pte(cpu, u.table, u.index)?;
                    if u.val.present() {
                        if info.owner(new) != Some(dom.id) {
                            return Err(HvError::BadFrame {
                                frame: new.0,
                                why: "leaf target not owned by caller",
                            });
                        }
                        if u.val.writable() {
                            info.get_type_ref(new, PageType::Writable)?;
                        }
                    }
                    if old.present() && old.writable() {
                        info.put_type_ref(FrameNum(old.frame()), PageType::Writable);
                    }
                }
                PageType::L2 => {
                    let old = mem.read_pte(cpu, u.table, u.index)?;
                    if u.val.present() {
                        let (typ, count) = info.type_of(new);
                        if typ != PageType::L1 || count == 0 {
                            oracle::validate_l1(
                                info,
                                cpu,
                                mem,
                                new,
                                dom.id,
                                costs::PT_PIN_PER_ENTRY,
                            )?;
                        } else {
                            info.get_type_ref(new, PageType::L1)?;
                        }
                    }
                    if old.present() {
                        oracle::put_l1_ref(info, cpu, mem, FrameNum(old.frame()))?;
                    }
                }
                _ => {
                    return Err(HvError::TypeConflict(
                        "mmu_update target is not a page table",
                    ))
                }
            }
            mem.write_pte(cpu, u.table, u.index, u.val)?;
        }
        Ok(())
    }

    #[test]
    fn mmu_update_batches_match_the_per_entry_oracle() {
        // Twin machines driven by one stream of batches of 1, 2 and 64
        // updates — good ones, and ones that name an unvalidated table,
        // a data frame as a table, a table frame as a writable target,
        // a foreign frame, a frame the machine does not have, an
        // unvalidated leaf table to hook under the directory.  After
        // every batch: same verdict, same accounting, same page-table
        // words, same cycles, same entry count.
        faultgen::rng::check("mmu_update matches the per-entry oracle", 60, |rng| {
            let (new_m, new_hv, new_d0, d1) = pinned_rig(1);
            let (old_m, old_hv, old_d0, _) = pinned_rig(1);
            let f = new_d0.frames();
            assert_eq!(f, old_d0.frames());
            let foreign = d1.frames()[0];
            let missing = FrameNum(new_m.mem.num_frames() as u32 + 9);
            for _ in 0..12 {
                let len = [1, 2, 64][rng.below(3) as usize];
                // Hostile picks are per batch, not per update, or no
                // long batch would ever run to its end.
                let odds = 8 * len as u64;
                let batch = rng.vec(len, |rng| {
                    let table = match rng.below(odds) {
                        0 => f[3], // not validated
                        1 => f[4], // typed Writable, not a table
                        2 => missing,
                        n if n % 8 == 7 => f[0],
                        _ => f[1 + rng.below(2) as usize],
                    };
                    let target = match rng.below(odds) {
                        0 => f[1 + rng.below(3) as usize],
                        1 => foreign,
                        2 => missing,
                        _ => f[4 + rng.below(4) as usize],
                    };
                    let index = rng.below(4) as usize;
                    let val = if table == f[0] {
                        // Directory slots: hook a leaf table in or out
                        // (each slot its own, or a long run of batches
                        // would orphan them all).
                        match rng.below(odds) {
                            0 => Pte::ABSENT,
                            1 => Pte::new(target.0, Pte::WRITABLE | Pte::USER),
                            _ => Pte::new(f[1 + index % 3].0, Pte::WRITABLE | Pte::USER),
                        }
                    } else {
                        let flags = [0, Pte::USER, Pte::WRITABLE | Pte::USER];
                        match rng.below(4) {
                            0 => Pte::ABSENT,
                            _ => Pte::new(target.0, flags[rng.below(3) as usize]),
                        }
                    };
                    MmuUpdate { table, index, val }
                });
                let (new_cpu, old_cpu) = (new_m.boot_cpu(), old_m.boot_cpu());
                let new = new_hv.mmu_update(new_cpu, &new_d0, &batch);
                let old = oracle_mmu_update(&old_hv, old_cpu, &old_d0, &batch);
                assert_eq!(new, old, "same verdict, same error");
                assert_eq!(new_hv.page_info.snapshot(), old_hv.page_info.snapshot());
                assert_eq!(new_cpu.cycles(), old_cpu.cycles());
                assert_eq!(
                    new_hv.stats.mmu_entries.load(Ordering::Relaxed),
                    old_hv.stats.mmu_entries.load(Ordering::Relaxed)
                );
                for &table in &f[..4] {
                    assert_eq!(
                        new_m.mem.export_frame(table).unwrap(),
                        old_m.mem.export_frame(table).unwrap()
                    );
                }
            }
        });
    }

    /// [`Hypervisor::update_table`] as `XenOps` spelled it before one
    /// hold covered the run: the type check, then one `mmu_update` —
    /// one round-trip through the accounting lock — per call.
    fn per_call_updates(
        hv: &Hypervisor,
        cpu: &Cpu,
        dom: &Arc<Domain>,
        table: FrameNum,
        run: &[(usize, Pte)],
    ) -> Result<bool, HvError> {
        let (typ, count) = hv.page_info.type_of(table);
        if count == 0 || !matches!(typ, PageType::L1 | PageType::L2) {
            return Ok(false);
        }
        for call in run.chunks(MMU_BATCH) {
            let call: Vec<MmuUpdate> = call
                .iter()
                .map(|&(index, val)| MmuUpdate { table, index, val })
                .collect();
            hv.mmu_update(cpu, dom, &call)?;
        }
        Ok(true)
    }

    /// What a twin-machine test compares after a run on `cpu`.
    #[allow(clippy::type_complexity)]
    fn observed(
        machine: &Machine,
        hv: &Hypervisor,
        cpu: &Cpu,
        frames: &[FrameNum],
    ) -> (u64, u64, u64, Vec<PageInfo>, Vec<Vec<u64>>) {
        (
            cpu.cycles(),
            hv.stats.hypercalls.load(Ordering::Relaxed),
            hv.stats.mmu_entries.load(Ordering::Relaxed),
            hv.page_info.snapshot(),
            frames
                .iter()
                .map(|&f| machine.mem.export_frame(f).unwrap())
                .collect(),
        )
    }

    #[test]
    fn a_pte_run_matches_one_mmu_update_per_call() {
        // Twin machines: one takes each run through `update_table`'s one
        // hold, the other through a loop of `mmu_update` calls.  Runs of
        // 0–512 entries into the directory, the two leaf tables, a leaf
        // table not yet validated and a data frame; entries present or
        // absent, writable or not; a third of the runs carry one hostile
        // entry somewhere (a foreign, missing or page-table target, or a
        // slot past the table's end), so they fail part way.  After
        // every run: same verdict, cycles, hypercall and entry counts,
        // records and table words.
        faultgen::rng::check("a PTE run matches one mmu_update per call", 40, |rng| {
            let (new_m, new_hv, new_d0, d1) = pinned_rig(1);
            let (old_m, old_hv, old_d0, _) = pinned_rig(1);
            let f = new_d0.frames();
            let foreign = d1.frames()[0];
            let missing = FrameNum(new_m.mem.num_frames() as u32 + 9);
            let flags = [0, Pte::USER, Pte::WRITABLE | Pte::USER];
            for _ in 0..6 {
                let table = [f[0], f[0], f[1], f[2], f[3], f[4]][rng.below(6) as usize];
                let len = rng.below(ENTRIES_PER_TABLE as u64 + 1) as usize;
                let mut run = rng.vec(len, |rng| {
                    let index = rng.below(ENTRIES_PER_TABLE as u64) as usize;
                    let val = match (table == f[0], rng.below(4)) {
                        (_, 0) => Pte::ABSENT,
                        // Directory slots hook a leaf table in.
                        (true, n) => Pte::new(f[n as usize].0, Pte::WRITABLE | Pte::USER),
                        (false, _) => {
                            Pte::new(f[4 + rng.below(4) as usize].0, flags[rng.below(3) as usize])
                        }
                    };
                    (index, val)
                });
                if len > 0 && rng.below(3) == 0 {
                    let (index, val) = &mut run[rng.below(len as u64) as usize];
                    match rng.below(4) {
                        0 => *val = Pte::new(foreign.0, Pte::USER),
                        1 => *val = Pte::new(missing.0, Pte::USER),
                        2 => *val = Pte::new(f[1].0, Pte::WRITABLE | Pte::USER),
                        _ => *index = ENTRIES_PER_TABLE + rng.below(4) as usize,
                    }
                }
                let (new_cpu, old_cpu) = (new_m.boot_cpu(), old_m.boot_cpu());
                let new = new_hv.update_table(new_cpu, &new_d0, table, &run);
                let old = per_call_updates(&old_hv, old_cpu, &old_d0, table, &run);
                assert_eq!(new, old, "same verdict, same error");
                assert_eq!(
                    observed(&new_m, &new_hv, new_cpu, &f[..8]),
                    observed(&old_m, &old_hv, old_cpu, &f[..8])
                );
            }
        });
    }

    #[test]
    fn an_mmu_update_index_past_its_table_is_a_bad_index() {
        // Unchecked, index 512 of a leaf table is word 0 of the next
        // frame: the write would land in a frame never validated.
        let (machine, hv, d0, _d1) = pinned_rig(1);
        let cpu = machine.boot_cpu();
        let f = d0.frames();
        let before = observed(&machine, &hv, cpu, &f[..8]);
        for (table, val) in [
            (f[1], Pte::new(f[7].0, Pte::WRITABLE | Pte::USER)),
            (f[0], Pte::new(f[3].0, Pte::WRITABLE | Pte::USER)),
        ] {
            for index in [ENTRIES_PER_TABLE, ENTRIES_PER_TABLE + 1, usize::MAX] {
                let u = MmuUpdate { table, index, val };
                assert_eq!(
                    hv.mmu_update(cpu, &d0, &[u]),
                    Err(HvError::BadIndex {
                        table: table.0,
                        index
                    })
                );
            }
        }
        let after = observed(&machine, &hv, cpu, &f[..8]);
        assert_eq!((after.3, after.4), (before.3, before.4));
    }

    /// A VMM-state fault due in the middle of a PTE run wipes its
    /// record through the held accounting lock (taking it again would
    /// deadlock), and the calls after it see the wipe exactly as a loop
    /// of `mmu_update` calls does: a wiped table refuses the rest of
    /// the run, a wiped target takes its next reference afresh.
    #[cfg(feature = "faults")]
    #[test]
    fn a_vmm_fault_due_mid_run_lands_as_on_the_per_call_path() {
        use faultgen::{FaultSpec, FaultTarget};
        // The plan is process-wide: CPU 7 keeps it from every other
        // test in this binary, whose machines have at most four.
        const CPU: usize = 7;
        let outcome = |one_hold: bool, wiped: usize| {
            let (machine, hv, d0, _d1) = pinned_rig(CPU + 1);
            let cpu = &machine.cpus[CPU];
            let f = d0.frames();
            let run: Vec<(usize, Pte)> = (8..16)
                .map(|i| (i, Pte::new(f[4 + i % 4].0, Pte::WRITABLE | Pte::USER)))
                .collect();
            faultgen::reset();
            faultgen::arm(vec![FaultSpec {
                id: 1,
                // Past the first call's charge, so the second one fires it.
                due_cycle: cpu.cycles() + costs::HYPERCALL_BASE + 1,
                target: FaultTarget::VmmState {
                    cpu: CPU,
                    frame: f[wiped].0,
                },
            }]);
            let result = if one_hold {
                hv.update_table(cpu, &d0, f[1], &run)
            } else {
                per_call_updates(&hv, cpu, &d0, f[1], &run)
            };
            let fired = faultgen::drain_signals().len();
            faultgen::reset();
            (result, fired, observed(&machine, &hv, cpu, &f[..8]))
        };
        // Wiped: the leaf table being written, then a frame it maps.
        for (wiped, result, calls, entries) in [
            (
                1,
                Err(HvError::TypeConflict(
                    "mmu_update on an unvalidated table (write it directly and pin)",
                )),
                2,
                3,
            ),
            (5, Ok(true), 4, 8),
        ] {
            let one_hold = outcome(true, wiped);
            assert_eq!(one_hold, outcome(false, wiped));
            let (got, fired, (_, hypercalls, mmu_entries, ..)) = one_hold;
            assert_eq!((got, fired), (result, 1));
            // The pin was a hypercall too.
            assert_eq!((hypercalls, mmu_entries), (1 + calls, entries));
        }
    }

    #[test]
    fn pin_and_unpin_of_a_frame_the_machine_lacks_are_bad_frames() {
        let (machine, hv, d0, _d1) = rig();
        let cpu = machine.boot_cpu();
        let missing = FrameNum(machine.mem.num_frames() as u32 + 9);
        let out_of_range = HvError::BadFrame {
            frame: missing.0,
            why: "out of range",
        };
        let before = hv.page_info.snapshot();
        assert_eq!(hv.pin_l2(cpu, &d0, missing), Err(out_of_range.clone()));
        assert_eq!(hv.unpin_l2(cpu, &d0, missing), Err(out_of_range));
        assert_eq!(hv.page_info.snapshot(), before);
    }

    #[test]
    fn a_domain_cannot_unpin_another_domains_base_table() {
        let (machine, hv, d0, d1) = rig();
        let cpu = machine.boot_cpu();
        let f = d0.frames();
        let (pgd, l1, data) = (f[0], f[1], f[2]);
        let mem = &machine.mem;
        mem.write_pte(cpu, pgd, 0, Pte::new(l1.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        mem.write_pte(cpu, l1, 0, Pte::new(data.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        hv.pin_l2(cpu, &d0, pgd).unwrap();
        let pinned = hv.page_info.snapshot();

        assert!(matches!(
            hv.unpin_l2(cpu, &d1, pgd),
            Err(HvError::BadFrame { frame, .. }) if frame == pgd.0
        ));
        assert_eq!(hv.page_info.snapshot(), pinned, "d0's pin and tree stand");
        assert_eq!(hv.page_info.type_of(pgd), (PageType::L2, 1));
        assert_eq!(hv.page_info.type_of(l1), (PageType::L1, 1));

        // The owner still can.
        hv.unpin_l2(cpu, &d0, pgd).unwrap();
        assert_eq!(hv.page_info.type_of(pgd), (PageType::None, 0));
    }
}
