//! The kernel proper: boot, trap handling, scheduling and syscalls.
//!
//! One `Kernel` instance is one booted OS.  It can boot **bare** (native
//! mode, PL0, its own gate table — the paper's N-L) or as a **guest**
//! (de-privileged under Xenon with hypercall paravirt-ops — X-0/X-U).
//! Mercury builds on the same object: it boots bare, swaps in its
//! switchable virtualization objects, and moves the kernel between modes
//! at runtime without the kernel noticing.
//!
//! A kernel object is made in one place: [`Kernel::boot`] (a fresh
//! state on a fresh pool) and [`Kernel::thaw`] (a frozen state that
//! travelled, §6.1) both hand a [`KernelImage`] to the private
//! `assemble` — gate table, object, trap delivery per mode — and then
//! `start` it: each CPU loads the base table of the process it is on
//! and every CPU's timer is armed.  The image is the locked state
//! itself plus the direct map, the kernel PDEs and the live patches, so
//! whatever the state holds is what a checkpoint or a migration
//! carries.  Devices are attached afterwards, by
//! [`crate::drivers::attach_native`] or
//! [`crate::drivers::connect_split`]; a whole system — machine, VMM,
//! kernel, Mercury — is assembled by `mercury::Stack::build`
//! (DESIGN.md §3a).

use crate::drivers::block::BlockDriver;
use crate::drivers::net::NetDriver;
use crate::error::KernelError;
use crate::fs::{Vfs, BLOCK_SIZE};
use crate::mm::{AddressSpace, FramePool, MmCtx, Prot, Vma, VmaKind};
use crate::net::{decode_packet, encode_packet, Socket, SocketTable};
use crate::paravirt::{ExecMode, KernelMap, PvOps};
use crate::process::{BlockOn, Desc, Pid, Pipe, ProcState, Process, SavedTrapContext};
use crate::programs::{layout, ProgramRegistry};
use crate::sched::SchedState;
use simx86::cpu::{vectors, IdtTable, InterruptSink, TrapFrame};
use simx86::fault::AccessKind;
use simx86::mem::FrameNum;
use simx86::paging::{Pte, VirtAddr, PAGE_SIZE};
use simx86::sync::{owner_store, Mutex, RwLock};
use simx86::{costs, Cpu, Machine, Mmu, PrivLevel};
use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use xenon::{Domain, GuestState, Hypervisor};

/// How the kernel is brought up.
#[derive(Clone)]
pub enum BootMode {
    /// Native: bare hardware, PL0.
    Bare,
    /// Guest: de-privileged on a live hypervisor.
    Guest {
        /// The hypervisor.
        hv: Arc<Hypervisor>,
        /// This kernel's domain.
        dom: Arc<Domain>,
    },
}

/// Boot configuration.
pub struct KernelConfig {
    /// Frames this kernel owns.
    pub pool: Vec<FrameNum>,
    /// Boot mode.
    pub mode: BootMode,
    /// Filesystem data blocks (on the disk reached via the block
    /// driver).
    pub fs_blocks: u64,
    /// First disk block the filesystem may use.
    pub fs_first_block: u64,
}

/// Outcome of a potentially blocking read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Bytes delivered (empty = EOF).
    Data(Vec<u8>),
    /// The caller blocked; another process now runs on this CPU (or the
    /// CPU went idle).
    Blocked,
}

/// Outcome of a potentially blocking write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Bytes accepted.
    Wrote(usize),
    /// The caller blocked.
    Blocked,
}

/// Outcome of a receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A datagram: (source port, payload).
    Datagram(u16, Vec<u8>),
    /// The caller blocked.
    Blocked,
}

/// What backs an mmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmapBacking {
    /// Anonymous demand-zero memory.
    Anon,
    /// A file region.
    File {
        /// Inode.
        ino: u32,
        /// Byte offset of the mapping's start.
        offset: u64,
    },
}

/// Timer callback type (Mercury's switch retry timer rides these).
pub type TimerCallback = Arc<dyn Fn(&Arc<Cpu>) + Send + Sync>;

/// Idle-task type: called with `(cpu, budget_cycles)` when a CPU's idle
/// loop finds nothing runnable; must consume at most the budget and
/// return the cycles actually used (Mercury's background frame
/// revalidation donates idle time through this).
pub type IdleTask = Arc<dyn Fn(&Arc<Cpu>, u64) -> u64 + Send + Sync>;

/// Cycle budget handed to the registered [`IdleTask`] per idle pass —
/// small enough that an interrupt-driven wakeup is never delayed by
/// more than a few microseconds of donated work.
pub const IDLE_DONATION_QUANTUM: u64 = 10_000;

/// The process table's size: [`Kernel::fork`] refuses a fork that
/// would make more live processes than this
/// ([`KernelError::ProcessLimit`], Linux's `EAGAIN`).  The switch
/// path's per-process walks are bounded by it.
pub const MAX_PROCESSES: usize = 64;

/// A page-fault verdict cell no handler has set since `user_access`
/// cleared it.
const VERDICT_UNSET: u64 = 0;
/// The handler left the faulting process unsignalled.
const VERDICT_CLEAR: u64 = 1;
/// The handler left the faulting process signalled.
const VERDICT_SIGNALLED: u64 = 2;

const NO_BLOCK_DRIVER: KernelError = KernelError::Invalid("no block driver");
const NO_NET_DRIVER: KernelError = KernelError::Invalid("no net driver");

/// A slot the kernel swaps a few times a second and reads on every
/// syscall and every page fault — the VO, the block driver, the net
/// driver (DESIGN.md §14b).  A writer stores under the lock, then sets
/// a fresh stamp (`Release`); a [`SlotCache`] takes the lock only when
/// the stamp moved.
pub(crate) struct Published<V> {
    value: RwLock<V>,
    stamp: AtomicU64,
}

/// Every [`Published`] stamp comes from this one counter, so a stamp
/// names one value of one slot for the life of the process: a copy
/// kept by its stamp alone (the page-fault path's) cannot be taken for
/// another kernel's.
static STAMPS: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    STAMPS.fetch_add(1, Ordering::Relaxed)
}

impl<V: Clone> Published<V> {
    fn new(value: V) -> Self {
        Published {
            value: RwLock::new(value),
            stamp: AtomicU64::new(next_stamp()),
        }
    }

    /// The value now: a lock and a clone (the cold readers' path).
    fn get(&self) -> V {
        self.value.read().clone()
    }

    fn publish(&self, value: V) {
        *self.value.write() = value;
        self.stamp.store(next_stamp(), Ordering::Release);
    }
}

/// The reader's half of a [`Published`] slot, for the one host thread
/// that drives a [`crate::Session`]: the value as of the stamp it was
/// read at.  A reader that sees the new stamp then reads at least that
/// value; one that sees the old stamp uses what it would have read a
/// moment earlier.
pub(crate) struct SlotCache<V>(RefCell<(u64, V)>);

impl<V: Clone> SlotCache<V> {
    pub(crate) fn new(slot: &Published<V>) -> Self {
        let stamp = slot.stamp.load(Ordering::Acquire);
        SlotCache(RefCell::new((stamp, slot.get())))
    }

    /// The slot's value: one `Acquire` load, and the lock only when
    /// the stamp moved since the last read.
    pub(crate) fn read(&self, slot: &Published<V>) -> Ref<'_, V> {
        let stamp = slot.stamp.load(Ordering::Acquire);
        if self.0.borrow().0 != stamp {
            *self.0.borrow_mut() = (stamp, slot.get());
        }
        Ref::map(self.0.borrow(), |(_, value)| value)
    }
}

/// The VO a host thread's last page fault ran under, as of `stamp`
/// ([`Kernel::fault_pv`]).
struct FaultPv {
    stamp: u64,
    pv: Arc<dyn PvOps>,
}

thread_local! {
    /// This host thread's [`FaultPv`].  A kernel's drop empties the
    /// dropping thread's: a VO holds its machine.
    static FAULT_PV: RefCell<Option<Rc<FaultPv>>> = const { RefCell::new(None) };
}

/// Everything behind the kernel lock — and, cloned whole, everything a
/// checkpoint or a migration carries (§6.1).
#[derive(Clone)]
pub(crate) struct KState {
    pub pool: FramePool,
    pub procs: BTreeMap<u32, Process>,
    pub zombies: BTreeMap<u32, (Pid, i32)>,
    pub sched: SchedState,
    pub pipes: HashMap<u32, Pipe>,
    pub next_pipe: u32,
    pub socks: SocketTable,
    pub vfs: Vfs,
    pub programs: ProgramRegistry,
    pub next_pid: u32,
}

/// The kernel's logical state for checkpoint / migration (§6.1): the
/// locked state as it stood at the freeze, plus the three things a
/// kernel object holds outside the lock that must survive the move.
#[derive(Clone)]
pub struct KernelImage {
    kmap: KernelMap,
    kernel_pdes: Vec<(usize, Pte)>,
    patches: HashMap<String, u64>,
    state: KState,
}

impl KState {
    /// The process running on `cpu`, and the pool its address space
    /// draws on.
    fn current_and_pool(
        &mut self,
        cpu: &Cpu,
    ) -> Result<(&mut Process, &mut FramePool), KernelError> {
        let pid = self.sched.current(cpu.id).ok_or(KernelError::NoProcess)?;
        let proc = self.procs.get_mut(&pid.0).ok_or(KernelError::NoProcess)?;
        Ok((proc, &mut self.pool))
    }

    /// The process running on `cpu`.
    fn current(&mut self, cpu: &Cpu) -> Result<&mut Process, KernelError> {
        Ok(self.current_and_pool(cpu)?.0)
    }

    /// Descriptor `fd` of the process running on `cpu`.
    fn current_fd(&mut self, cpu: &Cpu, fd: usize) -> Result<Desc, KernelError> {
        self.current(cpu)?.fd(fd).ok_or(KernelError::BadFd)
    }

    /// The socket behind descriptor `fd` of the process running on `cpu`.
    fn current_sock(&mut self, cpu: &Cpu, fd: usize) -> Result<&mut Socket, KernelError> {
        let Desc::Sock(id) = self.current_fd(cpu, fd)? else {
            return Err(KernelError::BadFd);
        };
        self.socks.get(id).ok_or(KernelError::BadFd)
    }

    /// One more holder of `desc`: a forked child inherits it.
    fn dup_desc(&mut self, desc: Desc) {
        match desc {
            Desc::PipeR(id) => {
                if let Some(p) = self.pipes.get_mut(&id) {
                    p.readers += 1;
                }
            }
            Desc::PipeW(id) => {
                if let Some(p) = self.pipes.get_mut(&id) {
                    p.writers += 1;
                }
            }
            Desc::Sock(id) => self.socks.dup(id),
            Desc::File { .. } => {}
        }
    }

    /// One holder of `desc` fewer: a `close`, or the holder's `exit`.
    fn release_desc(&mut self, desc: Desc) {
        match desc {
            Desc::PipeR(id) => {
                if let Some(p) = self.pipes.get_mut(&id) {
                    p.readers = p.readers.saturating_sub(1);
                }
            }
            Desc::PipeW(id) => {
                if let Some(p) = self.pipes.get_mut(&id) {
                    p.writers = p.writers.saturating_sub(1);
                }
            }
            Desc::Sock(id) => self.socks.close(id),
            Desc::File { .. } => {}
        }
    }
}

/// The kernel.
pub struct Kernel {
    /// The machine this kernel runs on.
    pub machine: Arc<Machine>,
    pub(crate) pv: Published<Arc<dyn PvOps>>,
    state: Mutex<KState>,
    idt: Arc<IdtTable>,
    kmap: KernelMap,
    kernel_pdes: Vec<(usize, Pte)>,
    pub(crate) block: Published<Option<Arc<dyn BlockDriver>>>,
    pub(crate) net: Published<Option<Arc<dyn NetDriver>>>,
    timer_callbacks: Mutex<Vec<TimerCallback>>,
    self_virt: RwLock<Option<Arc<dyn InterruptSink>>>,
    mode: BootMode,
    smp: bool,
    /// A machine-check was observed (cluster failure injection, §6.5).
    pub mce_seen: AtomicBool,
    /// Applied live patches: name → version (§6.4's live kernel update
    /// target state; patched "code" is modelled as versioned behaviour
    /// flags the workloads can observe).
    patches: RwLock<HashMap<String, u64>>,
    /// Work the idle loop donates spare cycles to (background frame
    /// revalidation while Mercury is dormant); `None` means idle CPUs
    /// just wait for interrupts.
    idle_task: RwLock<Option<IdleTask>>,
    /// Per CPU, a `VERDICT_*`: the faulting process's signal flag as
    /// the page-fault handler left it, so [`Kernel::user_access`] reads
    /// it back without the lock.  Owner-written: the thread driving the
    /// CPU clears it before a fault, and the handler it runs sets it.
    verdicts: Box<[AtomicU64]>,
}

impl Drop for Kernel {
    /// Empty this thread's fault-path copy of a VO: it may be this
    /// kernel's, and a VO holds its machine.
    fn drop(&mut self) {
        // The copy drops after the borrow ends, as in `fault_pv`.
        let _old = FAULT_PV.try_with(|pv| pv.try_borrow_mut().ok().and_then(|mut pv| pv.take()));
    }
}

// ---------------------------------------------------------------------------
// Trap sinks
// ---------------------------------------------------------------------------

struct PageFaultSink(Weak<Kernel>);
impl InterruptSink for PageFaultSink {
    fn handle(&self, cpu: &Arc<Cpu>, frame: &mut TrapFrame) {
        let Some(k) = self.0.upgrade() else { return };
        let va = VirtAddr(frame.error & 0x3fff_ffff);
        let access = if frame.error >> 62 & 1 == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        k.handle_page_fault(cpu, va, access);
    }
}

struct GpSink(Weak<Kernel>);
impl InterruptSink for GpSink {
    fn handle(&self, cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
        let Some(k) = self.0.upgrade() else { return };
        let mut st = k.state.lock();
        if let Ok(p) = st.current(cpu) {
            p.signalled = true;
        }
    }
}

struct TimerSink(Weak<Kernel>);
impl InterruptSink for TimerSink {
    fn handle(&self, cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
        let Some(k) = self.0.upgrade() else { return };
        {
            let mut st = k.state.lock();
            st.sched.jiffies += 1;
        }
        let callbacks: Vec<TimerCallback> = k.timer_callbacks.lock().clone();
        for cb in callbacks {
            cb(cpu);
        }
    }
}

struct NicSink(Weak<Kernel>);
impl InterruptSink for NicSink {
    fn handle(&self, cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
        let Some(k) = self.0.upgrade() else { return };
        k.net_rx_pump(cpu, k.net.get().as_deref());
    }
}

struct DiskSink;
impl InterruptSink for DiskSink {
    fn handle(&self, _cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
        // Block I/O is synchronous in the drivers; the completion IRQ
        // needs no bottom half.
    }
}

struct MceSink(Weak<Kernel>);
impl InterruptSink for MceSink {
    fn handle(&self, cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
        let Some(k) = self.0.upgrade() else { return };
        k.mce_seen.store(true, Ordering::Release);
        k.pv().console_write(cpu, "MCE: hardware error reported");
    }
}

/// Forwards the dedicated self-virtualization vectors (§4.1: "the
/// interrupt handler dedicated to self-virtualization") to whatever
/// Mercury registered via [`Kernel::set_self_virt_sink`].
struct SelfVirtSink(Weak<Kernel>);
impl InterruptSink for SelfVirtSink {
    fn handle(&self, cpu: &Arc<Cpu>, frame: &mut TrapFrame) {
        let Some(k) = self.0.upgrade() else { return };
        let hook = k.self_virt.read().clone();
        if let Some(sink) = hook {
            sink.handle(cpu, frame);
        }
    }
}

struct EvtchnSink(Weak<Kernel>);
impl InterruptSink for EvtchnSink {
    fn handle(&self, _cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
        let Some(k) = self.0.upgrade() else { return };
        // Drain pending bits; device channels are serviced synchronously
        // in this model, so the upcall is a wakeup only.
        if let BootMode::Guest { dom, .. } = &k.mode {
            let _ = xenon::events::take_pending(dom);
        }
    }
}

impl Kernel {
    // -----------------------------------------------------------------
    // Boot
    // -----------------------------------------------------------------

    /// Boot a kernel on `machine` with the given configuration.
    ///
    /// Builds the kernel direct map (page tables in real frames),
    /// initializes the filesystem and program registry, installs trap
    /// handlers through the mode's paravirt object, and starts `init`
    /// (pid 1) on CPU 0.
    ///
    /// The pool is consumed in a fixed order — direct-map L1 tables,
    /// program images, then `init`'s address space — and that order is
    /// load-bearing: it decides every frame number the kernel ever
    /// maps, hence the direct map and every archived cycle count.
    pub fn boot(machine: Arc<Machine>, config: KernelConfig) -> Result<Arc<Kernel>, KernelError> {
        let cpu = Arc::clone(machine.boot_cpu());
        let mut pool = FramePool::new(config.pool);
        let (kmap, kernel_pdes) = Self::build_direct_map(&machine, &cpu, &mut pool)?;
        let mut programs = ProgramRegistry::default();
        programs.install_standard(&cpu, &machine.mem, &mut pool)?;
        let state = KState {
            pool,
            procs: BTreeMap::new(),
            zombies: BTreeMap::new(),
            sched: SchedState::new(machine.num_cpus()),
            pipes: HashMap::new(),
            next_pipe: 0,
            socks: SocketTable::default(),
            vfs: Vfs::mkfs(config.fs_first_block, config.fs_blocks),
            programs,
            next_pid: 1,
        };
        let image = KernelImage {
            kmap,
            kernel_pdes,
            patches: HashMap::new(),
            state,
        };
        let kernel = Self::assemble(machine, config.mode, image)?;
        {
            let mut st = kernel.state.lock();
            let mut init = kernel.build_process(&mut st, &cpu, Pid(0), "init")?;
            init.state = ProcState::Running;
            st.sched.current[0] = Some(init.pid);
            st.procs.insert(init.pid.0, init);
        }
        kernel.start()?;
        Ok(kernel)
    }

    /// The one place a kernel object is made, under [`Kernel::boot`]
    /// (a fresh image) and [`Kernel::thaw`] (a travelled one): the gate
    /// table, the object itself, and trap delivery per mode.
    fn assemble(
        machine: Arc<Machine>,
        mode: BootMode,
        image: KernelImage,
    ) -> Result<Arc<Kernel>, KernelError> {
        let pv: Arc<dyn PvOps> = match &mode {
            BootMode::Bare => crate::paravirt::BareOps::new(Arc::clone(&machine)),
            BootMode::Guest { hv, dom } => {
                crate::paravirt::XenOps::new(Arc::clone(hv), Arc::clone(dom))
            }
        };
        let kernel = Arc::new_cyclic(|weak: &Weak<Kernel>| {
            let self_virt = || Arc::new(SelfVirtSink(weak.clone()));
            let mut idt = IdtTable::new("nimbus");
            idt.set_gate(vectors::PAGE_FAULT, Arc::new(PageFaultSink(weak.clone())));
            idt.set_gate(vectors::GP_FAULT, Arc::new(GpSink(weak.clone())));
            idt.set_gate(vectors::TIMER, Arc::new(TimerSink(weak.clone())));
            idt.set_gate(vectors::NIC, Arc::new(NicSink(weak.clone())));
            idt.set_gate(vectors::DISK, Arc::new(DiskSink));
            idt.set_gate(vectors::MACHINE_CHECK, Arc::new(MceSink(weak.clone())));
            idt.set_gate(vectors::EVTCHN_UPCALL, Arc::new(EvtchnSink(weak.clone())));
            idt.set_gate(vectors::SELF_VIRT_ATTACH, self_virt());
            idt.set_gate(vectors::SELF_VIRT_DETACH, self_virt());
            idt.set_gate(vectors::SELF_VIRT_RENDEZVOUS, self_virt());
            idt.set_gate(vectors::SELF_VIRT_UPDATE, self_virt());
            Kernel {
                smp: machine.num_cpus() > 1,
                verdicts: (0..machine.num_cpus())
                    .map(|_| AtomicU64::new(VERDICT_UNSET))
                    .collect(),
                machine,
                pv: Published::new(pv),
                state: Mutex::new(image.state),
                idt: Arc::new(idt),
                kmap: image.kmap,
                kernel_pdes: image.kernel_pdes,
                block: Published::new(None),
                net: Published::new(None),
                timer_callbacks: Mutex::new(Vec::new()),
                self_virt: RwLock::new(None),
                patches: RwLock::new(image.patches),
                idle_task: RwLock::new(None),
                mode,
                mce_seen: AtomicBool::new(false),
            }
        });
        kernel.install_traps_and_privilege()?;
        Ok(kernel)
    }

    /// Let an assembled kernel run: every CPU loads the base table of
    /// the process it is on, and every CPU's periodic timer is armed.
    fn start(&self) -> Result<(), KernelError> {
        for cpu in &self.machine.cpus {
            if let Some(pgd) = self.current_pgd(cpu) {
                self.pv().load_base_table(cpu, pgd)?;
            }
            self.machine
                .timer
                .start(cpu, simx86::devices::timer::DEFAULT_PERIOD_CYCLES);
        }
        Ok(())
    }

    /// Build the direct map: one kernel L1 table per 2 MiB slice of the
    /// pool, each pool frame mapped writable at `KERNEL_BASE + pa`.
    fn build_direct_map(
        machine: &Arc<Machine>,
        cpu: &Arc<Cpu>,
        pool: &mut FramePool,
    ) -> Result<(KernelMap, Vec<(usize, Pte)>), KernelError> {
        // Which L2 slots do we need?  Computed over the *entire* pool,
        // including the L1 frames we're about to allocate from it.
        let mut l2_indices: Vec<usize> = pool
            .all_frames()
            .iter()
            .map(|f| KernelMap::boot_va_of(*f).l2_index())
            .collect();
        l2_indices.sort_unstable();
        l2_indices.dedup();

        let mut kmap = KernelMap::default();
        for &l2 in &l2_indices {
            let l1 = pool.alloc(cpu).ok_or(KernelError::NoMem)?;
            machine.mem.zero_frame(cpu, l1)?;
            kmap.l1s.push((l2, l1));
        }
        // Map every pool frame (free or in use — in-use ones are the L1
        // frames themselves and the program pages installed later),
        // recording the slot assignment for later relocation.
        for f in pool.all_frames() {
            let va = KernelMap::boot_va_of(f);
            let l1 = kmap
                .l1s
                .iter()
                .find(|(l2, _)| *l2 == va.l2_index())
                .map(|(_, t)| *t)
                .expect("pool frame outside the computed direct map");
            // volint::allow(VO-BYPASS): boot direct-map build predates the VO
            machine.mem.write_pte(
                cpu,
                l1,
                va.l1_index(),
                Pte::new(f.0, Pte::WRITABLE | Pte::GLOBAL),
            )?;
            kmap.record(f, l1, va.l1_index(), va);
        }
        let pdes: Vec<(usize, Pte)> = kmap
            .l1s
            .iter()
            .map(|&(l2, l1)| (l2, Pte::new(l1.0, Pte::WRITABLE)))
            .collect();
        Ok((kmap, pdes))
    }

    /// Install trap delivery and set CPU privilege per mode.
    fn install_traps_and_privilege(self: &Arc<Self>) -> Result<(), KernelError> {
        match &self.mode {
            BootMode::Bare => {
                for cpu in &self.machine.cpus {
                    // volint::allow(VO-BYPASS): pre-VO bootstrap privilege set
                    cpu.set_pl_raw(PrivLevel::Pl0);
                    self.pv().load_trap_table(cpu, Arc::clone(&self.idt))?;
                    self.pv().irq_enable(cpu);
                }
            }
            BootMode::Guest { hv, dom } => {
                // The hypervisor owns the hardware tables; this kernel's
                // page-table frames must go read-only in the direct map
                // before anything can be pinned.
                let cpu = self.machine.boot_cpu();
                for &(_, l1) in &self.kmap.l1s {
                    let (holder, idx) = self
                        .kmap
                        .locate(l1)
                        .expect("kernel L1 must be direct-mapped");
                    let cur = self.machine.mem.read_pte(cpu, holder, idx)?;
                    // volint::allow(VO-BYPASS): guest boot RO-flip precedes pinning
                    self.machine.mem.write_pte(
                        cpu,
                        holder,
                        idx,
                        cur.without_flags(Pte::WRITABLE),
                    )?;
                }
                for cpu in &self.machine.cpus {
                    hv.install_on_cpu(cpu);
                    hv.set_current(cpu.id, Some(dom.id));
                    // volint::allow(VO-BYPASS): pre-VO bootstrap privilege set
                    cpu.set_pl_raw(PrivLevel::Pl1);
                }
                let cpu = self.machine.boot_cpu();
                self.pv().load_trap_table(cpu, Arc::clone(&self.idt))?;
                for cpu in &self.machine.cpus {
                    self.pv().irq_enable(cpu);
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Accessors / plumbing
    // -----------------------------------------------------------------

    /// The active paravirt object.
    pub fn pv(&self) -> Arc<dyn PvOps> {
        self.pv.get()
    }

    /// The active paravirt object for the page-fault path, which runs
    /// on the thread driving the faulting CPU: one `Acquire` load of the
    /// slot's stamp, and the lock only when it moved since this thread's
    /// last fault.
    fn fault_pv(&self) -> Rc<FaultPv> {
        let stamp = self.pv.stamp.load(Ordering::Acquire);
        let hit =
            FAULT_PV.with_borrow(|pv| pv.as_ref().filter(|pv| pv.stamp == stamp).map(Rc::clone));
        if let Some(pv) = hit {
            return pv;
        }
        let fresh = Rc::new(FaultPv {
            stamp,
            pv: self.pv.get(),
        });
        // The old copy drops after the borrow ends: it may hold the
        // last reference to a machine.
        let _old = FAULT_PV.with_borrow_mut(|pv| pv.replace(Rc::clone(&fresh)));
        fresh
    }

    /// Set `cpu`'s page-fault verdict: the faulting process's signal
    /// flag, or `None` to clear it.
    fn set_fault_verdict(&self, cpu: &Cpu, signalled: Option<bool>) {
        let verdict = match signalled {
            None => VERDICT_UNSET,
            Some(false) => VERDICT_CLEAR,
            Some(true) => VERDICT_SIGNALLED,
        };
        if let Some(cell) = self.verdicts.get(cpu.id) {
            let seen = cell.load(Ordering::Relaxed);
            owner_store(cell, seen, verdict, cpu.id, "page-fault verdict");
        }
    }

    /// The signal flag the page-fault handler left in `cpu`'s verdict
    /// cell, if one of this kernel's set it since it was cleared.
    fn fault_verdict(&self, cpu: &Cpu) -> Option<bool> {
        match self.verdicts.get(cpu.id)?.load(Ordering::Relaxed) {
            VERDICT_CLEAR => Some(false),
            VERDICT_SIGNALLED => Some(true),
            _ => None,
        }
    }

    /// Swap the paravirt object (Mercury's VO relocation, §4.2).
    pub fn set_pv(&self, pv: Arc<dyn PvOps>) {
        self.pv.publish(pv);
    }

    /// Current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.pv.value.read().mode()
    }

    /// The kernel's own gate table (Mercury restores it on detach).
    pub fn idt(&self) -> Arc<IdtTable> {
        Arc::clone(&self.idt)
    }

    /// Rewrite `cpu`'s trap table from the kernel's pristine copy.
    ///
    /// This is the descriptor-repair path a dependability watchdog takes
    /// when it detects a corrupted IDT gate (DESIGN.md §12): the known
    /// good table is reinstalled through the active paravirt object, so
    /// the write is mediated by whatever layer currently owns the
    /// hardware — `lidt` natively, a hypercall when virtualized.
    pub fn reinstall_idt(self: &Arc<Self>, cpu: &Arc<Cpu>) -> Result<(), KernelError> {
        self.pv().load_trap_table(cpu, Arc::clone(&self.idt))
    }

    /// The direct-map locator.
    pub fn kmap(&self) -> &KernelMap {
        &self.kmap
    }

    /// Kernel page-directory template entries.
    pub fn kernel_pdes(&self) -> &[(usize, Pte)] {
        &self.kernel_pdes
    }

    /// Attach the block driver (done by the test bed after boot, since
    /// driver shape depends on the system configuration).
    pub fn set_block_driver(&self, d: Arc<dyn BlockDriver>) {
        self.block.publish(Some(d));
    }

    /// Attach the network driver.
    pub fn set_net_driver(&self, d: Arc<dyn NetDriver>) {
        self.net.publish(Some(d));
    }

    /// The block driver.
    pub fn block_driver(&self) -> Result<Arc<dyn BlockDriver>, KernelError> {
        self.block.get().ok_or(NO_BLOCK_DRIVER)
    }

    /// The network driver.
    pub fn net_driver(&self) -> Result<Arc<dyn NetDriver>, KernelError> {
        self.net.get().ok_or(NO_NET_DRIVER)
    }

    /// Register a periodic timer callback (Mercury's retry timer,
    /// §5.1.1).
    pub fn register_timer_callback(&self, cb: TimerCallback) {
        self.timer_callbacks.lock().push(cb);
    }

    /// Register the handler behind the dedicated self-virtualization
    /// vectors (`SELF_VIRT_ATTACH`/`DETACH`/`RENDEZVOUS`).  Mercury
    /// installs its mode-switch routines here.
    pub fn set_self_virt_sink(&self, sink: Arc<dyn InterruptSink>) {
        *self.self_virt.write() = Some(sink);
    }

    fn lock_state(&self, cpu: &Arc<Cpu>) -> simx86::sync::MutexGuard<'_, KState> {
        if self.smp {
            cpu.tick(costs::SMP_LOCK);
        }
        self.state.lock()
    }

    /// An [`MmCtx`] charging `cpu`, through `pv`, over `pool`.
    fn mm_ctx<'a>(
        &'a self,
        cpu: &'a Arc<Cpu>,
        pv: &'a Arc<dyn PvOps>,
        pool: &'a mut FramePool,
    ) -> MmCtx<'a> {
        MmCtx {
            cpu,
            pv,
            mem: &self.machine.mem,
            pool,
            kmap: &self.kmap,
        }
    }

    /// The process running on `cpu` and an [`MmCtx`] over the pool:
    /// what every address-space syscall starts from.
    fn current_mm<'a>(
        &'a self,
        st: &'a mut KState,
        cpu: &'a Arc<Cpu>,
        pv: &'a Arc<dyn PvOps>,
    ) -> Result<(&'a mut Process, MmCtx<'a>), KernelError> {
        let (proc, pool) = st.current_and_pool(cpu)?;
        Ok((proc, self.mm_ctx(cpu, pv, pool)))
    }

    // -----------------------------------------------------------------
    // Process construction / exec
    // -----------------------------------------------------------------

    /// Build a fresh process running `prog` (used for init and exec).
    fn build_process(
        &self,
        st: &mut KState,
        cpu: &Arc<Cpu>,
        parent: Pid,
        prog: &str,
    ) -> Result<Process, KernelError> {
        let pid = Pid(st.next_pid);
        st.next_pid += 1;
        let aspace = self.build_image_aspace(st, cpu, prog)?;
        Ok(Process {
            pid,
            parent,
            state: ProcState::Ready,
            aspace,
            fds: Vec::new(),
            kstack: Vec::new(),
            prog: prog.to_string(),
            mmap_cursor: layout::MMAP_BASE,
            signalled: false,
        })
    }

    /// Build and populate an address space for `prog`: text shared
    /// read-only, data copied, bss/heap/stack demand-zero.
    fn build_image_aspace(
        &self,
        st: &mut KState,
        cpu: &Arc<Cpu>,
        prog: &str,
    ) -> Result<AddressSpace, KernelError> {
        let pv = self.pv();
        let image = st.programs.get(prog)?.clone();
        let mut ctx = self.mm_ctx(cpu, &pv, &mut st.pool);
        let mut asp = AddressSpace::new(&mut ctx, &self.kernel_pdes)?;

        // Text: shared RO.
        let text_start = layout::TEXT_BASE;
        for (i, frame) in image.text.iter().enumerate() {
            ctx.pool.incref(*frame);
            asp.map_page(
                &mut ctx,
                VirtAddr(text_start + i as u64 * PAGE_SIZE),
                *frame,
                Pte::ACCESSED,
            )?;
        }
        asp.add_vma(Vma {
            start: text_start,
            end: text_start + image.text.len() as u64 * PAGE_SIZE,
            prot: Prot::RO,
            kind: VmaKind::Image {
                prog: prog.to_string(),
                page_off: 0,
                private: false,
            },
        });

        // Data: private copies.
        let data_start = text_start + image.text.len() as u64 * PAGE_SIZE;
        for (i, src) in image.data.iter().enumerate() {
            let copy = ctx.pool.alloc(cpu).ok_or(KernelError::NoMem)?;
            ctx.mem.copy_frame(cpu, *src, copy)?;
            asp.map_page(
                &mut ctx,
                VirtAddr(data_start + i as u64 * PAGE_SIZE),
                copy,
                Pte::WRITABLE | Pte::ACCESSED | Pte::DIRTY,
            )?;
        }
        asp.add_vma(Vma {
            start: data_start,
            end: data_start + image.data.len() as u64 * PAGE_SIZE,
            prot: Prot::RW,
            kind: VmaKind::Anon,
        });

        // bss, heap, stack: demand zero.
        let bss_start = data_start + image.data.len() as u64 * PAGE_SIZE;
        asp.add_vma(Vma {
            start: bss_start,
            end: bss_start + image.bss_pages as u64 * PAGE_SIZE,
            prot: Prot::RW,
            kind: VmaKind::Anon,
        });
        asp.add_vma(Vma {
            start: layout::HEAP_BASE,
            end: layout::HEAP_BASE + image.heap_pages as u64 * PAGE_SIZE,
            prot: Prot::RW,
            kind: VmaKind::Anon,
        });
        asp.add_vma(Vma {
            start: layout::STACK_TOP - layout::STACK_PAGES * PAGE_SIZE,
            end: layout::STACK_TOP,
            prot: Prot::RW,
            kind: VmaKind::Anon,
        });

        asp.pin(&mut ctx)?;
        Ok(asp)
    }

    // -----------------------------------------------------------------
    // Scheduling / context switch
    // -----------------------------------------------------------------

    /// Switch `cpu` to `next`.  The previous process's trap context is
    /// pushed to its kernel stack; the next one's is popped and its
    /// cached segment selectors are checked against the current GDT —
    /// the exact mechanism whose staleness across a mode switch §5.1.2
    /// fixes with a stack stub.
    fn do_switch(&self, st: &mut KState, cpu: &Arc<Cpu>, next: Pid) -> Result<(), KernelError> {
        let pv = self.pv();
        cpu.tick(costs::CTX_SWITCH_BASE);
        pv.context_switch_extra(cpu);
        let gdt = cpu.current_gdt();

        if let Some(prev) = st.sched.current(cpu.id) {
            if let Some(p) = st.procs.get_mut(&prev.0) {
                p.kstack.push(SavedTrapContext {
                    cs: gdt.kernel_cs(),
                    ss: gdt.kernel_ss(),
                });
                if p.state == ProcState::Running {
                    p.state = ProcState::Ready;
                    st.sched.enqueue(prev);
                }
            }
        }

        let nextp = st.procs.get_mut(&next.0).ok_or(KernelError::NoProcess)?;
        pv.load_base_table(cpu, nextp.aspace.pgd)?;
        pv.set_kernel_stack(cpu, layout::STACK_TOP)?;
        if let Some(saved) = nextp.kstack.pop() {
            cpu.tick(costs::MEM_WORD * 4);
            // Popping a stale selector raises #GP, as on hardware.
            gdt.check_selector(saved.cs)?;
            gdt.check_selector(saved.ss)?;
        }
        nextp.state = ProcState::Running;
        st.sched.current[cpu.id] = Some(next);
        Ok(())
    }

    /// Block the current process and run something else.  Returns the
    /// new current pid, or None if the CPU went idle.
    fn block_current(
        &self,
        st: &mut KState,
        cpu: &Arc<Cpu>,
        on: BlockOn,
    ) -> Result<Option<Pid>, KernelError> {
        st.current(cpu)?.state = ProcState::Blocked(on);
        let next = self.run_next(st, cpu)?;
        if next.is_none() {
            // Idle: push the blocked process's context and park.
            let gdt = cpu.current_gdt();
            st.current(cpu)?.kstack.push(SavedTrapContext {
                cs: gdt.kernel_cs(),
                ss: gdt.kernel_ss(),
            });
            st.sched.current[cpu.id] = None;
        }
        Ok(next)
    }

    /// Switch `cpu` to the next ready process, if there is one.
    fn run_next(&self, st: &mut KState, cpu: &Arc<Cpu>) -> Result<Option<Pid>, KernelError> {
        let next = st.sched.pick_next();
        if let Some(next) = next {
            self.do_switch(st, cpu, next)?;
        }
        Ok(next)
    }

    fn wake_matching(st: &mut KState, pred: impl Fn(BlockOn) -> bool) {
        let to_wake: Vec<Pid> = st
            .procs
            .values()
            .filter_map(|p| match p.state {
                ProcState::Blocked(on) if pred(on) => Some(p.pid),
                _ => None,
            })
            .collect();
        for pid in to_wake {
            if let Some(p) = st.procs.get_mut(&pid.0) {
                p.state = ProcState::Ready;
            }
            st.sched.enqueue(pid);
        }
    }

    /// If this CPU is idle and something is runnable, run it.  Returns
    /// the new current pid.
    pub fn resume_if_idle(&self, cpu: &Arc<Cpu>) -> Result<Option<Pid>, KernelError> {
        let mut st = self.lock_state(cpu);
        if st.sched.current(cpu.id).is_some() {
            return Ok(st.sched.current(cpu.id));
        }
        let next = self.run_next(&mut st, cpu)?;
        if next.is_none() {
            // Truly idle: donate a bounded quantum to the registered
            // idle task (background frame revalidation) instead of
            // spinning the cycles away.  The state lock is dropped
            // first — the task may call back into kernel services.
            drop(st);
            let task = self.idle_task.read().clone();
            if let Some(task) = task {
                let used = task(cpu, IDLE_DONATION_QUANTUM);
                debug_assert!(
                    used <= IDLE_DONATION_QUANTUM,
                    "idle task overran its {IDLE_DONATION_QUANTUM}-cycle budget: {used}"
                );
            }
        }
        Ok(next)
    }

    /// Register (or clear, with `None`) the idle-loop donation task.
    ///
    /// The task runs whenever a CPU's idle loop finds nothing runnable,
    /// with a budget of [`IDLE_DONATION_QUANTUM`] cycles per pass; it
    /// returns the cycles it actually consumed.  Mercury's idle-time
    /// revalidation rides this to retire written frames while native,
    /// so the next attach finds a shorter work-list.
    pub fn set_idle_task(&self, task: Option<IdleTask>) {
        *self.idle_task.write() = task;
    }

    /// Voluntarily yield the CPU round-robin.
    pub fn sched_yield(&self, cpu: &Arc<Cpu>) -> Result<Pid, KernelError> {
        let mut st = self.lock_state(cpu);
        let cur = st.sched.current(cpu.id).ok_or(KernelError::NoProcess)?;
        match st.sched.pick_next() {
            Some(next) if next != cur => {
                self.do_switch(&mut st, cpu, next)?;
                Ok(next)
            }
            _ => Ok(cur),
        }
    }

    /// Directed yield: switch `cpu` to `pid` if it is ready (or already
    /// current).  Lets multi-process drivers act for a specific process
    /// deterministically.
    pub fn yield_to(&self, cpu: &Arc<Cpu>, pid: Pid) -> Result<(), KernelError> {
        let mut st = self.lock_state(cpu);
        if st.sched.current(cpu.id) == Some(pid) {
            return Ok(());
        }
        let ready = st
            .procs
            .get(&pid.0)
            .map(|p| p.state == ProcState::Ready)
            .unwrap_or(false);
        if !ready {
            return Err(KernelError::Invalid("yield_to target not ready"));
        }
        st.sched.remove(pid);
        self.do_switch(&mut st, cpu, pid)
    }

    /// The process currently on `cpu`.
    pub fn current_pid(&self, cpu: &Arc<Cpu>) -> Option<Pid> {
        self.state.lock().sched.current(cpu.id)
    }

    // -----------------------------------------------------------------
    // Syscalls: processes
    // -----------------------------------------------------------------

    /// `fork`: copy the current process with a COW address space.  A
    /// full process table ([`MAX_PROCESSES`]) refuses the fork before
    /// it is charged or spends a pid.
    pub fn fork(&self, cpu: &Arc<Cpu>) -> Result<Pid, KernelError> {
        let pv = self.pv();
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        if st.procs.len() >= MAX_PROCESSES {
            return Err(KernelError::ProcessLimit);
        }
        cpu.tick(costs::FORK_BASE);
        st.current(cpu)?; // an idle CPU forks nothing: no pid is spent
        let child_pid = Pid(st.next_pid);
        st.next_pid += 1;

        let (parent, mut ctx) = self.current_mm(st, cpu, &pv)?;
        let child_as = parent.aspace.fork_from(&mut ctx, &self.kernel_pdes)?;
        let child = Process {
            pid: child_pid,
            parent: parent.pid,
            state: ProcState::Ready,
            aspace: child_as,
            fds: parent.fds.clone(),
            kstack: vec![SavedTrapContext {
                cs: cpu.current_gdt().kernel_cs(),
                ss: cpu.current_gdt().kernel_ss(),
            }],
            prog: parent.prog.clone(),
            mmap_cursor: parent.mmap_cursor,
            signalled: false,
        };
        // The child holds every pipe end and socket its parent does.
        for &d in child.fds.iter().flatten() {
            st.dup_desc(d);
        }
        st.procs.insert(child_pid.0, child);
        st.sched.enqueue(child_pid);
        Ok(child_pid)
    }

    /// `execve`: replace the current image with `prog`.
    pub fn exec(&self, cpu: &Arc<Cpu>, prog: &str) -> Result<(), KernelError> {
        let pv = self.pv();
        cpu.tick(costs::EXEC_BASE);
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        st.current(cpu)?; // an idle CPU has nothing to exec into: build nothing
        let new_as = self.build_image_aspace(st, cpu, prog)?;
        let proc = st.current(cpu)?;
        let old = std::mem::replace(&mut proc.aspace, new_as);
        proc.prog = prog.to_string();
        proc.mmap_cursor = layout::MMAP_BASE;
        let pgd = proc.aspace.pgd;
        old.destroy(&mut self.mm_ctx(cpu, &pv, &mut st.pool))?;
        pv.load_base_table(cpu, pgd)?;
        Ok(())
    }

    /// `exit`: terminate the current process.  Returns the pid now
    /// running on this CPU (None = idle).
    pub fn exit(&self, cpu: &Arc<Cpu>, code: i32) -> Result<Option<Pid>, KernelError> {
        let pv = self.pv();
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        let cur = st.sched.current(cpu.id).ok_or(KernelError::NoProcess)?;
        let proc = st.procs.remove(&cur.0).ok_or(KernelError::NoProcess)?;

        // Close descriptors (dropping pipe end counts wakes peers).
        for &d in proc.fds.iter().flatten() {
            st.release_desc(d);
        }
        // Pipe peers may be unblocked by the closed descriptors; the
        // parent wakes only if it is actually waiting (a broadcast here
        // lets the wrong waiter win the run queue and mis-reap).
        Self::wake_matching(st, |on| {
            matches!(on, BlockOn::PipeRead(_) | BlockOn::PipeWrite(_))
        });
        let parent = proc.parent;
        if let Some(p) = st.procs.get_mut(&parent.0) {
            if p.state == ProcState::Blocked(BlockOn::Wait) {
                p.state = ProcState::Ready;
                st.sched.enqueue(parent);
            }
        }

        proc.aspace
            .destroy(&mut self.mm_ctx(cpu, &pv, &mut st.pool))?;
        st.zombies.insert(cur.0, (proc.parent, code));
        st.sched.current[cpu.id] = None;
        st.sched.remove(cur);
        self.run_next(st, cpu)
    }

    /// `waitpid(-1)`: reap any zombie child, or block.
    pub fn waitpid(&self, cpu: &Arc<Cpu>) -> Result<Option<(Pid, i32)>, KernelError> {
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        let cur = st.sched.current(cpu.id).ok_or(KernelError::NoProcess)?;
        let child = st
            .zombies
            .iter()
            .find(|(_, (parent, _))| *parent == cur)
            .map(|(&pid, &(_, code))| (Pid(pid), code));
        match child {
            Some((pid, code)) => {
                st.zombies.remove(&pid.0);
                cpu.tick(800); // reap bookkeeping
                Ok(Some((pid, code)))
            }
            None => {
                self.block_current(st, cpu, BlockOn::Wait)?;
                Ok(None)
            }
        }
    }

    // -----------------------------------------------------------------
    // Syscalls: pipes and file descriptors
    // -----------------------------------------------------------------

    /// `pipe`: returns (read fd, write fd).
    pub fn pipe(&self, cpu: &Arc<Cpu>) -> Result<(usize, usize), KernelError> {
        let mut st = self.lock_state(cpu);
        let id = st.next_pipe;
        let proc = st.current(cpu)?;
        cpu.tick(1_200);
        let fds = (
            proc.alloc_fd(Desc::PipeR(id)),
            proc.alloc_fd(Desc::PipeW(id)),
        );
        st.next_pipe += 1;
        st.pipes.insert(
            id,
            Pipe {
                buf: Default::default(),
                readers: 1,
                writers: 1,
            },
        );
        Ok(fds)
    }

    /// `read`: pipes block when empty; files read at the descriptor
    /// cursor, through `block` (the caller's copy of the block driver).
    pub fn read(
        &self,
        cpu: &Arc<Cpu>,
        fd: usize,
        len: usize,
        block: Option<&dyn BlockDriver>,
    ) -> Result<ReadOutcome, KernelError> {
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        match st.current_fd(cpu, fd)? {
            Desc::PipeR(id) => {
                let pipe = st.pipes.get_mut(&id).ok_or(KernelError::BadFd)?;
                if pipe.buf.is_empty() {
                    if pipe.writers == 0 {
                        return Ok(ReadOutcome::Data(Vec::new())); // EOF
                    }
                    self.block_current(st, cpu, BlockOn::PipeRead(id))?;
                    return Ok(ReadOutcome::Blocked);
                }
                let n = len.min(pipe.buf.len());
                let data: Vec<u8> = pipe.buf.drain(..n).collect();
                cpu.tick(600 + (n as u64) / 4);
                Self::wake_matching(st, |on| on == BlockOn::PipeWrite(id));
                Ok(ReadOutcome::Data(data))
            }
            Desc::File { ino, pos } => {
                let driver = block.ok_or(NO_BLOCK_DRIVER)?;
                let data = st.vfs.read(cpu, driver, ino, pos, len)?;
                st.current(cpu)?.fds[fd] = Some(Desc::File {
                    ino,
                    pos: pos + data.len() as u64,
                });
                Ok(ReadOutcome::Data(data))
            }
            _ => Err(KernelError::BadFd),
        }
    }

    /// `write`: pipes block when full; files write at the cursor,
    /// through `block`.
    pub fn write(
        &self,
        cpu: &Arc<Cpu>,
        fd: usize,
        data: &[u8],
        block: Option<&dyn BlockDriver>,
    ) -> Result<WriteOutcome, KernelError> {
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        match st.current_fd(cpu, fd)? {
            Desc::PipeW(id) => {
                let pipe = st.pipes.get_mut(&id).ok_or(KernelError::BadFd)?;
                if pipe.space() < data.len() {
                    if pipe.readers == 0 {
                        return Err(KernelError::Invalid("broken pipe"));
                    }
                    self.block_current(st, cpu, BlockOn::PipeWrite(id))?;
                    return Ok(WriteOutcome::Blocked);
                }
                pipe.buf.extend(data.iter().copied());
                cpu.tick(600 + (data.len() as u64) / 4);
                Self::wake_matching(st, |on| on == BlockOn::PipeRead(id));
                Ok(WriteOutcome::Wrote(data.len()))
            }
            Desc::File { ino, pos } => {
                let driver = block.ok_or(NO_BLOCK_DRIVER)?;
                let n = st.vfs.write(cpu, driver, ino, pos, data)?;
                st.current(cpu)?.fds[fd] = Some(Desc::File {
                    ino,
                    pos: pos + n as u64,
                });
                Ok(WriteOutcome::Wrote(n))
            }
            _ => Err(KernelError::BadFd),
        }
    }

    /// `close`.
    pub fn close(&self, cpu: &Arc<Cpu>, fd: usize) -> Result<(), KernelError> {
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        let desc = st.current(cpu)?.close_fd(fd).ok_or(KernelError::BadFd)?;
        st.release_desc(desc);
        // A pipe end gone may be what the other end's waiters wait for.
        match desc {
            Desc::PipeR(id) => Self::wake_matching(st, |on| on == BlockOn::PipeWrite(id)),
            Desc::PipeW(id) => Self::wake_matching(st, |on| on == BlockOn::PipeRead(id)),
            Desc::Sock(_) | Desc::File { .. } => {}
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Syscalls: filesystem
    // -----------------------------------------------------------------

    /// `open` (optionally creating).
    pub fn open(&self, cpu: &Arc<Cpu>, name: &str, create: bool) -> Result<usize, KernelError> {
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        st.current(cpu)?; // an idle CPU opens nothing: no file is created
        let ino = match st.vfs.lookup(cpu, name) {
            Ok(ino) => ino,
            Err(KernelError::NoEnt) if create => st.vfs.create(cpu, name)?,
            Err(e) => return Err(e),
        };
        Ok(st.current(cpu)?.alloc_fd(Desc::File { ino, pos: 0 }))
    }

    /// `unlink`.
    pub fn unlink(&self, cpu: &Arc<Cpu>, name: &str) -> Result<(), KernelError> {
        let mut st = self.lock_state(cpu);
        st.vfs.unlink(cpu, name)
    }

    /// `stat` by name.
    pub fn stat(&self, cpu: &Arc<Cpu>, name: &str) -> Result<crate::fs::Stat, KernelError> {
        let st = self.lock_state(cpu);
        let ino = st.vfs.lookup(cpu, name)?;
        st.vfs.stat(cpu, ino)
    }

    /// Flush the filesystem (fsync-everything).
    pub fn sync(&self, cpu: &Arc<Cpu>) -> Result<usize, KernelError> {
        let driver = self.block_driver()?;
        let mut st = self.lock_state(cpu);
        let n = st.vfs.sync(cpu, driver.as_ref())?;
        driver.flush(cpu)?;
        Ok(n)
    }

    /// Reposition a file descriptor.
    pub fn lseek(&self, cpu: &Arc<Cpu>, fd: usize, pos: u64) -> Result<(), KernelError> {
        let mut st = self.lock_state(cpu);
        match st.current(cpu)?.fds.get_mut(fd) {
            Some(Some(Desc::File { pos: fpos, .. })) => {
                *fpos = pos;
                Ok(())
            }
            _ => Err(KernelError::BadFd),
        }
    }

    // -----------------------------------------------------------------
    // Syscalls: memory
    // -----------------------------------------------------------------

    /// `mmap`: reserve `pages` of virtual memory.  Returns the base VA.
    pub fn mmap(
        &self,
        cpu: &Arc<Cpu>,
        pages: u64,
        prot: Prot,
        backing: MmapBacking,
    ) -> Result<VirtAddr, KernelError> {
        let mut st = self.lock_state(cpu);
        let proc = st.current(cpu)?;
        let base = proc.mmap_cursor;
        proc.mmap_cursor += pages * PAGE_SIZE;
        cpu.tick(1_500); // vma bookkeeping
        let kind = match backing {
            MmapBacking::Anon => VmaKind::Anon,
            MmapBacking::File { ino, offset } => VmaKind::File { inode: ino, offset },
        };
        proc.aspace.add_vma(Vma {
            start: base,
            end: base + pages * PAGE_SIZE,
            prot,
            kind,
        });
        Ok(VirtAddr(base))
    }

    /// `munmap`.
    pub fn munmap(&self, cpu: &Arc<Cpu>, va: VirtAddr, pages: u64) -> Result<u64, KernelError> {
        let pv = self.pv();
        let mut st = self.lock_state(cpu);
        let (proc, mut ctx) = self.current_mm(&mut st, cpu, &pv)?;
        let freed = proc.aspace.unmap_range(&mut ctx, va, pages)?;
        // LIFO address reuse: unmapping the most recent mapping winds
        // the placement cursor back, so mmap/munmap loops do not march
        // through the whole user region.
        if proc.mmap_cursor == va.0 + pages * PAGE_SIZE {
            proc.mmap_cursor = va.0;
        }
        Ok(freed)
    }

    /// `mprotect`.
    pub fn mprotect(
        &self,
        cpu: &Arc<Cpu>,
        va: VirtAddr,
        pages: u64,
        prot: Prot,
    ) -> Result<(), KernelError> {
        let pv = self.pv();
        let mut st = self.lock_state(cpu);
        let (proc, mut ctx) = self.current_mm(&mut st, cpu, &pv)?;
        proc.aspace.protect_range(&mut ctx, va, pages, prot)
    }

    // -----------------------------------------------------------------
    // Page faults and user memory
    // -----------------------------------------------------------------

    /// The page-fault handler (runs in interrupt context via the gate).
    /// It leaves the faulting process's signal flag in `cpu`'s verdict
    /// cell for [`Kernel::user_access`].
    pub fn handle_page_fault(&self, cpu: &Arc<Cpu>, va: VirtAddr, access: AccessKind) {
        let pv = self.fault_pv();
        let mut st = self.lock_state(cpu);
        let KState {
            procs,
            pool,
            programs,
            vfs,
            sched,
            ..
        } = &mut *st;
        let Some(proc) = sched.current(cpu.id).and_then(|cur| procs.get_mut(&cur.0)) else {
            return;
        };
        let mut ctx = self.mm_ctx(cpu, &pv.pv, pool);
        if self
            .fault_in(&mut ctx, proc, programs, vfs, va, access)
            .is_err()
        {
            proc.signalled = true;
        }
        self.set_fault_verdict(cpu, Some(proc.signalled));
    }

    /// Map the page `proc`'s fault at `va` needs; an error is a signal.
    fn fault_in(
        &self,
        ctx: &mut MmCtx<'_>,
        proc: &mut Process,
        programs: &ProgramRegistry,
        vfs: &mut Vfs,
        va: VirtAddr,
        access: AccessKind,
    ) -> Result<(), KernelError> {
        use crate::mm::FaultFix;
        let cpu = ctx.cpu;
        let fix = proc
            .aspace
            .handle_anon_fault(ctx, va, access)
            .unwrap_or(FaultFix::Signal);
        if fix != FaultFix::Signal {
            return Ok(());
        }
        // Backed kinds need data the address space can't reach; the
        // VMA is cloned because mapping the page borrows the space.
        let vma = proc
            .aspace
            .vma_at(va)
            .cloned()
            .ok_or(KernelError::BadAddress)?;
        if access == AccessKind::Write && !vma.prot.write {
            return Err(KernelError::BadAddress);
        }
        let page = (va.page_base().0 - vma.start) / PAGE_SIZE;
        match &vma.kind {
            VmaKind::Image {
                prog,
                page_off,
                private,
            } => {
                let image = programs.get(prog)?.clone();
                let idx = *page_off + page as usize;
                let src = *image.text.get(idx).ok_or(KernelError::BadAddress)?;
                if *private {
                    let copy = ctx.pool.alloc(cpu).ok_or(KernelError::NoMem)?;
                    ctx.mem.copy_frame(cpu, src, copy)?;
                    proc.aspace.map_page(
                        ctx,
                        va.page_base(),
                        copy,
                        Pte::WRITABLE | Pte::ACCESSED,
                    )?;
                } else {
                    ctx.pool.incref(src);
                    proc.aspace
                        .map_page(ctx, va.page_base(), src, Pte::ACCESSED)?;
                }
                Ok(())
            }
            VmaKind::File { inode, offset } => {
                let driver = self.block_driver()?;
                let file_off = offset + page * PAGE_SIZE;
                let data = vfs.read(cpu, driver.as_ref(), *inode, file_off, BLOCK_SIZE)?;
                let frame = ctx.pool.alloc(cpu).ok_or(KernelError::NoMem)?;
                ctx.mem.zero_frame(cpu, frame)?;
                if !data.is_empty() {
                    ctx.mem.write_bytes(frame.base(), &data)?;
                    cpu.tick(data.len() as u64 / 4);
                }
                let flags = if vma.prot.write {
                    Pte::WRITABLE | Pte::ACCESSED
                } else {
                    Pte::ACCESSED
                };
                proc.aspace.map_page(ctx, va.page_base(), frame, flags)?;
                Ok(())
            }
            VmaKind::Anon => Err(KernelError::BadAddress),
        }
    }

    /// Perform a user-mode memory access at `va` (the workload's "touch
    /// a byte").  Faults are delivered through the gate table and
    /// resolved by the handler, exactly as user code would experience.
    pub fn user_access(
        &self,
        cpu: &Arc<Cpu>,
        va: VirtAddr,
        write: bool,
    ) -> Result<simx86::mem::PhysAddr, KernelError> {
        let access = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        for _attempt in 0..3 {
            match Mmu::translate(&self.machine.mem, cpu, va, access, true) {
                Ok(pa) => return Ok(pa),
                Err(fault) if fault.is_page_fault() => {
                    cpu.tick(costs::TRAP_ENTER_NATIVE);
                    let error = va.0 | ((write as u64) << 62);
                    self.set_fault_verdict(cpu, None);
                    cpu.deliver_exception(vectors::PAGE_FAULT, error)?;
                    // A dispatch that ran no handler of this kernel's
                    // leaves the cell unset: ask under the lock.
                    let signalled = self
                        .fault_verdict(cpu)
                        .unwrap_or_else(|| self.current_signalled(cpu));
                    if signalled {
                        return Err(KernelError::BadAddress);
                    }
                }
                Err(fault) => return Err(KernelError::Oops(fault)),
            }
        }
        Err(KernelError::BadAddress)
    }

    /// Is the current process of `cpu` signalled?
    pub fn current_signalled(&self, cpu: &Arc<Cpu>) -> bool {
        self.state.lock().current(cpu).is_ok_and(|p| p.signalled)
    }

    /// Clear the current process's pending signal (a benchmark's SIGSEGV
    /// handler).
    pub fn clear_signal(&self, cpu: &Arc<Cpu>) {
        if let Ok(p) = self.state.lock().current(cpu) {
            p.signalled = false;
        }
    }

    /// Write a word to user memory (through the MMU, faulting as
    /// needed).
    pub fn poke(&self, cpu: &Arc<Cpu>, va: VirtAddr, value: u64) -> Result<(), KernelError> {
        let pa = self.user_access(cpu, va, true)?;
        self.machine.mem.write_word(cpu, pa, value)?;
        Ok(())
    }

    /// Read a word from user memory.
    pub fn peek(&self, cpu: &Arc<Cpu>, va: VirtAddr) -> Result<u64, KernelError> {
        let pa = self.user_access(cpu, va, false)?;
        Ok(self.machine.mem.read_word(cpu, pa)?)
    }

    // -----------------------------------------------------------------
    // Syscalls: network
    // -----------------------------------------------------------------

    /// `socket` + `bind(port)`.
    pub fn socket(&self, cpu: &Arc<Cpu>, port: u16) -> Result<usize, KernelError> {
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        st.current(cpu)?; // an idle CPU binds nothing: the port stays free
        let id = st
            .socks
            .bind(port)
            .ok_or(KernelError::Invalid("port in use"))?;
        cpu.tick(1_000);
        Ok(st.current(cpu)?.alloc_fd(Desc::Sock(id)))
    }

    /// `sendto`, through `net` (the caller's copy of the net driver).
    pub fn sendto(
        &self,
        cpu: &Arc<Cpu>,
        fd: usize,
        dst_port: u16,
        payload: &[u8],
        net: Option<&dyn NetDriver>,
    ) -> Result<(), KernelError> {
        let driver = net.ok_or(NO_NET_DRIVER)?;
        let src_port = self.lock_state(cpu).current_sock(cpu, fd)?.port;
        let pkt = encode_packet(dst_port, src_port, payload);
        driver.send(cpu, &pkt)
    }

    /// Drain the network driver `net` into socket receive queues.
    pub fn net_rx_pump(&self, cpu: &Arc<Cpu>, net: Option<&dyn NetDriver>) -> usize {
        let Some(driver) = net else {
            return 0;
        };
        let mut delivered = 0;
        while let Some(pkt) = driver.recv(cpu) {
            let mut st = self.lock_state(cpu);
            if let Some((dst, src, payload)) = decode_packet(&pkt) {
                if st.socks.deliver(dst, src, payload.to_vec()) {
                    delivered += 1;
                    Self::wake_matching(&mut st, |on| matches!(on, BlockOn::SockRead(_)));
                }
            }
        }
        delivered
    }

    /// Non-blocking receive: drain `net`, then pop a datagram if one is
    /// queued.
    pub fn recvfrom_nonblock(
        &self,
        cpu: &Arc<Cpu>,
        fd: usize,
        net: Option<&dyn NetDriver>,
    ) -> Result<Option<(u16, Vec<u8>)>, KernelError> {
        self.net_rx_pump(cpu, net);
        let mut st = self.lock_state(cpu);
        let sock = st.current_sock(cpu, fd)?;
        Ok(sock.rx.pop_front().inspect(|(_, data)| {
            cpu.tick(500 + data.len() as u64 / 4);
        }))
    }

    /// `recvfrom`: drain `net`, then pop a datagram or block.
    pub fn recvfrom(
        &self,
        cpu: &Arc<Cpu>,
        fd: usize,
        net: Option<&dyn NetDriver>,
    ) -> Result<RecvOutcome, KernelError> {
        self.net_rx_pump(cpu, net);
        let mut st = self.lock_state(cpu);
        let st = &mut *st;
        let sock = st.current_sock(cpu, fd)?;
        let id = sock.id;
        match sock.rx.pop_front() {
            Some((src, data)) => {
                cpu.tick(500 + data.len() as u64 / 4);
                Ok(RecvOutcome::Datagram(src, data))
            }
            None => {
                self.block_current(st, cpu, BlockOn::SockRead(id))?;
                Ok(RecvOutcome::Blocked)
            }
        }
    }

    // -----------------------------------------------------------------
    // Checkpoint / restore (§6.1)
    // -----------------------------------------------------------------

    /// Capture the kernel's logical state.  The caller should have
    /// quiesced the workload; the filesystem is flushed so disk state is
    /// consistent with the image.
    pub fn freeze(&self, cpu: &Arc<Cpu>) -> Result<GuestState, KernelError> {
        self.sync(cpu)?;
        let state = self.lock_state(cpu).clone();
        Ok(GuestState::new(KernelImage {
            kmap: self.kmap.clone(),
            kernel_pdes: self.kernel_pdes.clone(),
            patches: self.patches.read().clone(),
            state,
        }))
    }

    /// Rebuild a kernel from a frozen image on `machine`, translating
    /// frame references through `frame_map` (old → new physical frames;
    /// identity for an in-place restore).
    ///
    /// The page tables themselves arrived with the domain's frames; this
    /// reconstructs only the host-side kernel object around them.
    pub fn thaw(
        machine: Arc<Machine>,
        mode: BootMode,
        state: &GuestState,
        frame_map: &HashMap<u32, u32>,
    ) -> Result<Arc<Kernel>, KernelError> {
        let mut image = state
            .downcast_ref::<KernelImage>()
            .ok_or(KernelError::Invalid("malformed kernel image"))?
            .clone();
        let tr = |f: u32| -> u32 { *frame_map.get(&f).unwrap_or(&f) };

        image.kmap.translate(frame_map);
        for (_, pde) in &mut image.kernel_pdes {
            *pde = Pte::new(tr(pde.frame()), pde.0 & !0x0000_00ff_ffff_f000);
        }
        let st = &mut image.state;
        st.pool.translate(frame_map);
        st.programs.translate(frame_map);
        for p in st.procs.values_mut() {
            p.aspace.translate(frame_map);
        }
        // The disk travelled separately (storage pre-copy); clean cache
        // entries must be re-read from the migrated platter so any
        // storage-level divergence surfaces instead of being masked by
        // stale cached copies.  Dirty blocks are the guest's unsynced
        // data and travel with the image.
        st.vfs.cache.drop_clean();
        st.sched.current.resize(machine.num_cpus(), None);

        let kernel = Self::assemble(machine, mode, image)?;
        kernel.start()?;
        Ok(kernel)
    }

    // -----------------------------------------------------------------
    // Introspection for Mercury and tests
    // -----------------------------------------------------------------

    /// All page-table frames of all live processes plus the kernel's own
    /// tables — the set whose direct-map writability Mercury's state
    /// transfer flips (§5.1.2 item 1).  Sorted, without duplicates.
    pub fn all_table_frames(&self) -> Vec<FrameNum> {
        let st = self.state.lock();
        // volint::allow(SWITCH-ALLOC): table-frame enumeration buffer; built on the CP before the flip loop touches any PTE, §5.1.2 accepts it
        let mut v: Vec<FrameNum> = self.kmap.l1s.iter().map(|&(_, f)| f).collect();
        // volint::bound(64) — one aspace per live process, capped by the process table (MAX_PROCESSES)
        for p in st.procs.values() {
            // volint::allow(SWITCH-ALLOC): extends the same enumeration buffer
            v.extend(p.aspace.table_frames());
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All pinned base tables (every live process's pgd).
    pub fn all_pgds(&self) -> Vec<FrameNum> {
        let st = self.state.lock();
        // volint::allow(SWITCH-ALLOC): pgd list, one entry per live process, built before the transfer mutates anything
        st.procs.values().map(|p| p.aspace.pgd).collect()
    }

    /// Every frame the kernel's pool manages.
    pub fn pool_frames(&self) -> Vec<FrameNum> {
        self.state.lock().pool.all_frames()
    }

    /// How many frames the kernel's pool manages, free or not — the
    /// length of [`Kernel::pool_frames`] without building it.
    pub fn pool_size(&self) -> usize {
        self.state.lock().pool.total()
    }

    /// Take a frame out of the pool for a driver's payload buffer.  The
    /// pool counts it in use — it is never handed to a mapping — and
    /// the count travels through freeze/thaw with the rest of the pool.
    pub fn alloc_driver_frame(&self, cpu: &Arc<Cpu>) -> Result<FrameNum, KernelError> {
        self.state.lock().pool.alloc(cpu).ok_or(KernelError::NoMem)
    }

    /// Return a frame taken with [`Kernel::alloc_driver_frame`].
    pub fn free_driver_frame(&self, frame: FrameNum) {
        self.state.lock().pool.decref(frame);
    }

    /// Total saved trap contexts across all kernel stacks (what the
    /// §5.1.2 selector fixup must rewrite).
    pub fn kstack_contexts(&self) -> usize {
        let st = self.state.lock();
        st.procs.values().map(|p| p.kstack.len()).sum()
    }

    /// Visit every saved trap context mutably (Mercury's stack fixup).
    pub fn fix_kstack_selectors(&self, cpu: &Arc<Cpu>, f: impl Fn(&mut SavedTrapContext)) -> usize {
        let mut st = self.state.lock();
        let mut n = 0;
        // volint::bound(64) — one kstack walk per live process
        for p in st.procs.values_mut() {
            // volint::bound(8) — saved trap contexts per kernel stack, capped by nesting depth
            for ctx in p.kstack.iter_mut() {
                cpu.tick(costs::STACK_SELECTOR_FIX);
                f(ctx);
                n += 1;
            }
        }
        n
    }

    /// Buffer-cache statistics: (hits, misses, writebacks, dirty now).
    pub fn cache_stats(&self) -> (u64, u64, u64, usize) {
        let st = self.state.lock();
        let (h, m, w) = st.vfs.cache.stats;
        (h, m, w, st.vfs.cache.dirty_count())
    }

    /// The page-directory of the process currently on `cpu` (what a
    /// world switch into this kernel must load into CR3).
    pub fn current_pgd(&self, cpu: &Arc<Cpu>) -> Option<FrameNum> {
        let mut st = self.state.lock();
        st.current(cpu).ok().map(|p| p.aspace.pgd)
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.state.lock().procs.len()
    }

    /// Jiffies elapsed.
    pub fn jiffies(&self) -> u64 {
        self.state.lock().sched.jiffies
    }

    /// The boot mode this kernel was brought up in.
    pub fn boot_mode(&self) -> &BootMode {
        &self.mode
    }

    /// Apply a live kernel patch (§6.4).  Returns the previous version.
    /// Patching is only safe while a VMM mediates execution — callers
    /// (Mercury's live-update scenario) enforce that.
    pub fn apply_patch(&self, name: &str, version: u64) -> Option<u64> {
        self.patches.write().insert(name.to_string(), version)
    }

    /// Version of an applied patch, if any.
    pub fn patch_version(&self, name: &str) -> Option<u64> {
        self.patches.read().get(name).copied()
    }

    /// All applied patches.
    pub fn patches(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .patches
            .read()
            .iter()
            .map(|(k, &ver)| (k.clone(), ver))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::drivers::attach_native;
    use crate::session::Session;
    use simx86::devices::EchoWire;
    use simx86::MachineConfig;

    pub(crate) fn machine(cpus: usize) -> Arc<Machine> {
        Machine::new(MachineConfig {
            num_cpus: cpus,
            mem_frames: 16 * 1024,
            disk_sectors: 64 * 1024,
        })
    }

    /// Boot a bare (native) kernel on `pool_frames` frames, with
    /// drivers attached.
    pub(crate) fn boot_sized(
        machine: &Arc<Machine>,
        pool_frames: usize,
        fs_blocks: u64,
    ) -> Arc<Kernel> {
        let cpu = machine.boot_cpu();
        let pool = machine.allocator.alloc_many(cpu, pool_frames).unwrap();
        let kernel = Kernel::boot(
            Arc::clone(machine),
            KernelConfig {
                pool,
                mode: BootMode::Bare,
                fs_blocks,
                fs_first_block: 1,
            },
        )
        .unwrap();
        attach_native(machine, &kernel).unwrap();
        kernel
    }

    pub(crate) fn boot_bare(machine: &Arc<Machine>) -> Arc<Kernel> {
        boot_sized(machine, 8 * 1024, 4096)
    }

    /// Boot a guest kernel on an always-on hypervisor (the X-0 shape).
    pub(crate) fn boot_guest(machine: &Arc<Machine>) -> (Arc<Hypervisor>, Arc<Kernel>) {
        let hv = Hypervisor::warm_up(machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let quota = machine.allocator.alloc_many(cpu, 8 * 1024).unwrap();
        let dom = hv.create_domain(cpu, "dom0", quota.clone(), 0).unwrap();
        let kernel = Kernel::boot(
            Arc::clone(machine),
            KernelConfig {
                pool: quota,
                mode: BootMode::Guest {
                    hv: Arc::clone(&hv),
                    dom,
                },
                fs_blocks: 4096,
                fs_first_block: 1,
            },
        )
        .unwrap();
        attach_native(machine, &kernel).unwrap();
        (hv, kernel)
    }

    #[test]
    fn bare_boot_starts_init_at_pl0() {
        let m = machine(1);
        let k = boot_bare(&m);
        assert_eq!(k.exec_mode(), ExecMode::Native);
        assert_eq!(k.process_count(), 1);
        let cpu = m.boot_cpu();
        assert_eq!(cpu.pl(), PrivLevel::Pl0);
        assert_eq!(k.current_pid(cpu), Some(Pid(1)));
        assert!(cpu.interrupts_enabled());
        // The init address space is live in CR3.
        let pgd = k.all_pgds()[0];
        assert_eq!(cpu.read_cr3().unwrap(), pgd.0);
    }

    #[test]
    fn guest_boot_is_deprivileged_and_pinned() {
        let m = machine(1);
        let (hv, k) = boot_guest(&m);
        assert_eq!(k.exec_mode(), ExecMode::Virtual);
        let cpu = m.boot_cpu();
        assert_eq!(cpu.pl(), PrivLevel::Pl1);
        // init's pgd is a validated, pinned L2 in the hypervisor's eyes.
        let pgd = k.all_pgds()[0];
        let (typ, count) = hv.page_info.type_of(pgd);
        assert_eq!(typ, xenon::PageType::L2);
        assert!(count > 0);
        assert!(hv.page_info.get(pgd).pinned);
        // The hardware gate table is the hypervisor's.
        assert_eq!(cpu.current_idt().unwrap().owner, "xenon");
    }

    #[test]
    fn fork_exec_wait_exit_roundtrip() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let child = sess.fork().unwrap();
        assert_eq!(k.process_count(), 2);
        // Parent waits: blocks, child runs.
        assert_eq!(sess.waitpid().unwrap(), None);
        assert_eq!(sess.current_pid(), Some(child));
        sess.exec("hello").unwrap();
        let next = sess.exit(42).unwrap();
        // Parent was woken and rescheduled.
        assert_eq!(next, Some(Pid(1)));
        let (pid, code) = sess.waitpid().unwrap().unwrap();
        assert_eq!(pid, child);
        assert_eq!(code, 42);
        assert_eq!(k.process_count(), 1);
    }

    #[test]
    fn pool_size_is_the_length_of_pool_frames() {
        // `pool_size` stands in for `pool_frames().len()` on the switch
        // path; the two must agree whatever the pool has been through.
        let m = machine(1);
        let k = boot_bare(&m);
        let size = k.pool_size();
        let agree = |when: &str| {
            assert_eq!(k.pool_size(), k.pool_frames().len(), "{when}");
            assert_eq!(
                k.pool_size(),
                size,
                "{when}: the pool neither grows nor shrinks"
            );
        };
        agree("after boot");
        let sess = Session::new(Arc::clone(&k), 0);
        let child = sess.fork().unwrap();
        agree("with a forked child sharing COW frames");
        assert_eq!(sess.waitpid().unwrap(), None);
        sess.exec("hello").unwrap();
        sess.exit(0).unwrap();
        assert_eq!(sess.waitpid().unwrap().unwrap().0, child);
        agree("after the child's exit");
        let frame = k.alloc_driver_frame(m.boot_cpu()).unwrap();
        agree("with a driver frame out");
        k.free_driver_frame(frame);
        agree("with it back");
    }

    #[test]
    fn pipe_roundtrip_with_blocking() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let (rfd, wfd) = sess.pipe().unwrap();
        let child = sess.fork().unwrap();

        // Parent reads an empty pipe: blocks, child becomes current.
        match sess.read(rfd, 4).unwrap() {
            ReadOutcome::Blocked => {}
            other => panic!("expected block, got {other:?}"),
        }
        assert_eq!(sess.current_pid(), Some(child));
        // Child writes, which wakes the parent.
        assert_eq!(sess.write(wfd, b"ping").unwrap(), WriteOutcome::Wrote(4));
        // Child yields; parent resumes and reads.
        sess.sched_yield().unwrap();
        assert_eq!(sess.current_pid(), Some(Pid(1)));
        match sess.read(rfd, 4).unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"ping"),
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn mmap_demand_zero_and_peek_poke() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 0xfeed).unwrap();
        assert_eq!(sess.peek(va).unwrap(), 0xfeed);
        // Unmapped-beyond-vma access signals.
        let bad = VirtAddr(va.0 + 64 * PAGE_SIZE);
        assert!(sess.touch(bad, true).is_err());
        sess.clear_signal();
        // munmap drops the mapping.
        sess.munmap(va, 4).unwrap();
        assert!(sess.touch(va, false).is_err());
    }

    #[test]
    fn mprotect_write_protection_signals() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 1).unwrap();
        sess.mprotect(va, 2, Prot::RO).unwrap();
        assert!(sess.touch(va, true).is_err());
        sess.clear_signal();
        // Reads still work.
        assert_eq!(sess.peek(va).unwrap(), 1);
    }

    #[test]
    fn file_backed_mmap_reads_file_contents() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let fd = sess.open("data.bin", true).unwrap();
        let mut block = vec![0u8; BLOCK_SIZE];
        block[0] = 0xaa;
        block[1] = 0xbb;
        sess.write(fd, &block).unwrap();
        let ino = sess.stat("data.bin").unwrap().ino;
        let va = sess
            .mmap(1, Prot::RO, MmapBacking::File { ino, offset: 0 })
            .unwrap();
        let w = sess.peek(va).unwrap();
        assert_eq!(w & 0xffff, 0xbbaa);
    }

    #[test]
    fn cow_after_fork_is_isolated_between_processes() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let va = sess.mmap(1, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 111).unwrap();
        let _child = sess.fork().unwrap();
        // Parent writes (COW break).
        sess.poke(va, 222).unwrap();
        assert_eq!(sess.peek(va).unwrap(), 222);
        // Switch to the child: it still sees the original value.
        sess.sched_yield().unwrap();
        assert_eq!(sess.peek(va).unwrap(), 111);
    }

    #[test]
    fn fs_syscalls_roundtrip() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let fd = sess.open("f.txt", true).unwrap();
        sess.write(fd, b"hello world").unwrap();
        sess.lseek(fd, 6).unwrap();
        match sess.read(fd, 5).unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"world"),
            other => panic!("{other:?}"),
        }
        assert_eq!(sess.stat("f.txt").unwrap().size, 11);
        sess.sync().unwrap();
        sess.unlink("f.txt").unwrap();
        assert!(sess.open("f.txt", false).is_err());
    }

    /// A bare kernel whose NIC echoes every datagram back with the
    /// ports swapped, so it lands on the socket that sent it.
    fn echo_session() -> Session {
        let m = machine(1);
        m.nic.connect(Arc::new(EchoWire::port_swapping(
            Arc::clone(&m.nic),
            Arc::clone(&m.intc),
        )));
        Session::new(boot_bare(&m), 0)
    }

    fn echo_roundtrip(sess: &Session, fd: usize, payload: &[u8]) {
        sess.sendto(fd, 7000, payload).unwrap();
        match sess.recvfrom(fd).unwrap() {
            RecvOutcome::Datagram(src, data) => {
                assert_eq!(src, 7000);
                assert_eq!(data, payload);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sockets_over_echo_wire() {
        let sess = echo_session();
        let fd = sess.socket(5000).unwrap();
        echo_roundtrip(&sess, fd, b"marco");
    }

    /// A driver that counts the calls reaching it on their way to the
    /// driver it wraps.
    struct Counting<D: ?Sized>(AtomicU64, Arc<D>);

    impl<D: ?Sized> Counting<D> {
        fn wrap(inner: Arc<D>) -> Arc<Self> {
            Arc::new(Counting(AtomicU64::new(0), inner))
        }
        fn hit(&self) -> &D {
            self.0.fetch_add(1, Ordering::Relaxed);
            &self.1
        }
        fn calls(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    impl BlockDriver for Counting<dyn BlockDriver> {
        fn read_block(
            &self,
            cpu: &Arc<Cpu>,
            block: u64,
            out: &mut [u8],
        ) -> Result<(), KernelError> {
            self.hit().read_block(cpu, block, out)
        }
        fn write_block(&self, cpu: &Arc<Cpu>, block: u64, data: &[u8]) -> Result<(), KernelError> {
            self.hit().write_block(cpu, block, data)
        }
        fn flush(&self, cpu: &Arc<Cpu>) -> Result<(), KernelError> {
            self.hit().flush(cpu)
        }
        fn kind(&self) -> &'static str {
            self.1.kind()
        }
    }

    impl NetDriver for Counting<dyn NetDriver> {
        fn send(&self, cpu: &Arc<Cpu>, pkt: &[u8]) -> Result<(), KernelError> {
            self.hit().send(cpu, pkt)
        }
        fn recv(&self, cpu: &Arc<Cpu>) -> Option<Vec<u8>> {
            self.hit().recv(cpu)
        }
        fn kind(&self) -> &'static str {
            self.1.kind()
        }
    }

    #[test]
    fn a_driver_replaced_between_syscalls_is_the_one_the_next_syscall_uses() {
        let sess = echo_session();
        let k = Arc::clone(sess.kernel());
        let fd = sess.open("f.bin", true).unwrap();
        sess.write(fd, b"on disk").unwrap();
        sess.sync().unwrap();
        k.state.lock().vfs.cache.drop_clean();

        let block = Counting::wrap(k.block_driver().unwrap());
        k.set_block_driver(block.clone());
        sess.lseek(fd, 0).unwrap();
        let data = sess.read(fd, 7).unwrap();
        assert_eq!(data, ReadOutcome::Data(b"on disk".to_vec()));
        assert_eq!(block.calls(), 1, "the cache miss went to the new driver");

        let net = Counting::wrap(k.net_driver().unwrap());
        k.set_net_driver(net.clone());
        let sock = sess.socket(5000).unwrap();
        sess.sendto(sock, 7000, b"marco").unwrap();
        assert_eq!(net.calls(), 1, "the datagram left through the new driver");
        match sess.recvfrom(sock).unwrap() {
            RecvOutcome::Datagram(7000, data) => assert_eq!(data, b"marco"),
            other => panic!("{other:?}"),
        }
        assert!(net.calls() > 1, "and came back through it");
    }

    #[test]
    fn forked_child_exit_keeps_the_parents_socket_open() {
        let sess = echo_session();
        let fd = sess.socket(5000).unwrap();
        let child = sess.fork().unwrap();
        assert_eq!(sess.waitpid().unwrap(), None); // parent blocks; child runs
        sess.exit(0).unwrap(); // the child closes *its* inherited descriptor
        assert_eq!(sess.waitpid().unwrap().unwrap().0, child);
        echo_roundtrip(&sess, fd, b"polo");
        // The parent's close is the last one: the port is free again.
        sess.close(fd).unwrap();
        assert!(sess.socket(5000).is_ok());
    }

    #[test]
    fn guest_kernel_runs_the_same_workload() {
        // Behaviour consistency (§4.3): the same operations produce the
        // same results in virtual mode, just at different cost.
        let m = machine(1);
        let (_hv, k) = boot_guest(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 31337).unwrap();
        assert_eq!(sess.peek(va).unwrap(), 31337);
        let child = sess.fork().unwrap();
        assert!(child.0 > 1);
        sess.poke(va, 999).unwrap();
        sess.sched_yield().unwrap();
        assert_eq!(sess.peek(va).unwrap(), 31337, "child sees pre-fork value");
        let fd = sess.open("g.txt", true).unwrap();
        sess.write(fd, b"guest").unwrap();
        assert_eq!(sess.stat("g.txt").unwrap().size, 5);
    }

    #[test]
    fn virtual_fork_costs_more_than_native_fork() {
        let m_native = machine(1);
        let k = boot_bare(&m_native);
        let sess = Session::new(Arc::clone(&k), 0);
        // Dirty some heap so fork has PTEs to copy.
        let va = sess.mmap(64, Prot::RW, MmapBacking::Anon).unwrap();
        for p in 0..64 {
            sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
        }
        let t0 = sess.cpu().cycles();
        sess.fork().unwrap();
        let native_fork = sess.cpu().cycles() - t0;

        let m_virt = machine(1);
        let (_hv, k) = boot_guest(&m_virt);
        let sess = Session::new(Arc::clone(&k), 0);
        let va = sess.mmap(64, Prot::RW, MmapBacking::Anon).unwrap();
        for p in 0..64 {
            sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
        }
        let t0 = sess.cpu().cycles();
        sess.fork().unwrap();
        let virtual_fork = sess.cpu().cycles() - t0;

        // With only 64 dirty pages the fixed FORK_BASE still dominates;
        // the full lmbench-calibrated ratio (≈5×) is asserted in the
        // workloads crate where fork copies a realistic working set.
        assert!(
            virtual_fork > native_fork * 3 / 2,
            "virtual fork ({virtual_fork}) must clearly exceed native ({native_fork})"
        );
    }

    #[test]
    fn timer_ticks_advance_jiffies() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let j0 = k.jiffies();
        // Burn past one timer period.
        sess.compute(simx86::devices::timer::DEFAULT_PERIOD_CYCLES + 1000);
        sess.service();
        assert!(k.jiffies() > j0);
    }

    #[test]
    fn freeze_thaw_preserves_logical_state() {
        let m = machine(1);
        let k = boot_bare(&m);
        let sess = Session::new(Arc::clone(&k), 0);
        let fd = sess.open("keep.txt", true).unwrap();
        sess.write(fd, b"survives").unwrap();
        let va = sess.mmap(1, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 424242).unwrap();
        // Every table of the state holds something: a pipe with bytes
        // in flight, a bound socket, an unreaped zombie, a live child.
        let (rfd, wfd) = sess.pipe().unwrap();
        sess.write(wfd, b"in flight").unwrap();
        sess.socket(5000).unwrap();
        sess.fork().unwrap();
        assert_eq!(sess.waitpid().unwrap(), None); // the child runs ...
        sess.exit(7).unwrap(); // ... and is left a zombie
        sess.fork().unwrap();
        let image = k.freeze(m.boot_cpu()).unwrap();

        // In-place thaw (identity frame map): same machine, same frames.
        let k2 = Kernel::thaw(Arc::clone(&m), BootMode::Bare, &image, &HashMap::new()).unwrap();
        attach_native(&m, &k2).unwrap();

        // The image *is* the state: every field comes back as it was
        // (less the clean cache blocks a thaw drops on purpose).  The
        // pattern names each field, so one added later cannot be left
        // out of this list.
        let mut want = k.state.lock().clone();
        want.vfs.cache.drop_clean();
        {
            let got = k2.state.lock();
            let KState {
                pool,
                procs,
                zombies,
                sched,
                pipes,
                next_pipe,
                socks,
                vfs,
                programs,
                next_pid,
            } = &*got;
            assert!(*pool == want.pool, "pool");
            assert!(*procs == want.procs && procs.len() == 2, "procs");
            assert!(*zombies == want.zombies && zombies.len() == 1, "zombies");
            assert!(*sched == want.sched, "sched");
            assert!(*pipes == want.pipes && pipes[&0].buf.len() == 9, "pipes");
            assert_eq!(*next_pipe, want.next_pipe);
            assert!(*socks == want.socks, "socks");
            assert!(*vfs == want.vfs, "vfs");
            assert!(*programs == want.programs, "programs");
            assert_eq!(*next_pid, want.next_pid);
        }

        let sess2 = Session::new(Arc::clone(&k2), 0);
        assert_eq!(sess2.current_pid(), Some(Pid(1)));
        assert_eq!(sess2.stat("keep.txt").unwrap().size, 8);
        assert_eq!(sess2.peek(va).unwrap(), 424242);
        assert_eq!(
            sess2.read(rfd, 16).unwrap(),
            ReadOutcome::Data(b"in flight".to_vec())
        );
    }

    /// §6.4 then §6.3: an OS patched live and then evacuated must come
    /// home still patched.
    #[test]
    fn thawed_kernel_keeps_its_live_patches() {
        let m = machine(1);
        let k = boot_bare(&m);
        k.apply_patch("p", 3);
        let image = k.freeze(m.boot_cpu()).unwrap();
        let k2 = Kernel::thaw(Arc::clone(&m), BootMode::Bare, &image, &HashMap::new()).unwrap();
        assert_eq!(k2.patch_version("p"), Some(3));
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::tests::{boot_sized, machine};
    use super::*;
    use crate::session::Session;

    fn boot_small(pool_frames: usize) -> (Arc<Machine>, Arc<Kernel>) {
        let machine = machine(1);
        let kernel = boot_sized(&machine, pool_frames, 128);
        (machine, kernel)
    }

    #[test]
    fn exec_of_unknown_program_fails_cleanly() {
        let (_m, k) = boot_small(2048);
        let sess = Session::new(Arc::clone(&k), 0);
        assert!(matches!(
            sess.exec("no-such-binary"),
            Err(KernelError::NoProgram)
        ));
        // The process kept its old image and still works.
        assert_eq!(sess.current_pid(), Some(Pid(1)));
        let fd = sess.open("ok.txt", true).unwrap();
        sess.write(fd, b"fine").unwrap();
    }

    #[test]
    fn bad_fd_operations_are_rejected() {
        let (_m, k) = boot_small(2048);
        let sess = Session::new(Arc::clone(&k), 0);
        assert!(matches!(sess.read(42, 1), Err(KernelError::BadFd)));
        assert!(matches!(sess.write(42, b"x"), Err(KernelError::BadFd)));
        assert!(matches!(sess.close(42), Err(KernelError::BadFd)));
        assert!(matches!(sess.lseek(42, 0), Err(KernelError::BadFd)));
        // Type confusion: reading a socket with file semantics etc.
        let sfd = sess.socket(1000).unwrap();
        assert!(matches!(sess.read(sfd, 1), Err(KernelError::BadFd)));
        let (r, _w) = sess.pipe().unwrap();
        assert!(matches!(sess.lseek(r, 0), Err(KernelError::BadFd)));
    }

    #[test]
    fn pipe_eof_and_broken_pipe() {
        let (_m, k) = boot_small(2048);
        let sess = Session::new(Arc::clone(&k), 0);
        let (r, w) = sess.pipe().unwrap();
        sess.write(w, b"tail").unwrap();
        sess.close(w).unwrap();
        // Buffered data still readable, then EOF.
        assert_eq!(
            sess.read(r, 16).unwrap(),
            ReadOutcome::Data(b"tail".to_vec())
        );
        assert_eq!(sess.read(r, 16).unwrap(), ReadOutcome::Data(Vec::new()));
        // Writing with no readers is a broken pipe once the buffer is
        // full (our writers only fail on a full pipe with zero readers).
        let (r2, w2) = sess.pipe().unwrap();
        sess.close(r2).unwrap();
        let big = vec![0u8; crate::process::PIPE_CAPACITY + 1];
        assert!(matches!(
            sess.write(w2, &big),
            Err(KernelError::Invalid("broken pipe"))
        ));
    }

    #[test]
    fn frame_exhaustion_surfaces_as_nomem_and_kernel_survives() {
        // A pool just big enough to boot, too small for a big mapping.
        let (_m, k) = boot_small(700);
        let sess = Session::new(Arc::clone(&k), 0);
        let va = sess.mmap(4096, Prot::RW, MmapBacking::Anon).unwrap();
        let mut seen_nomem = false;
        for p in 0..4096u64 {
            match sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p) {
                Ok(()) => {}
                Err(_) => {
                    seen_nomem = true;
                    sess.clear_signal();
                    break;
                }
            }
        }
        assert!(seen_nomem, "pool should have run dry");
        // The kernel is still functional.
        let fd = sess.open("still-alive", true).unwrap();
        sess.write(fd, b"yes").unwrap();
        assert_eq!(sess.stat("still-alive").unwrap().size, 3);
    }

    #[test]
    fn fs_out_of_space_is_reported() {
        let (_m, k) = boot_small(2048); // fs has only 128 blocks
        let sess = Session::new(Arc::clone(&k), 0);
        let fd = sess.open("huge", true).unwrap();
        let chunk = vec![0u8; 4096];
        let mut failed = false;
        for _ in 0..256 {
            match sess.write(fd, &chunk) {
                Ok(_) => {}
                Err(KernelError::NoSpace) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed, "128-block fs cannot absorb 1 MiB");
        // Deleting frees space again.
        sess.unlink("huge").unwrap();
        let fd = sess.open("next", true).unwrap();
        sess.write(fd, &chunk).unwrap();
    }

    #[test]
    fn double_port_bind_rejected() {
        let (_m, k) = boot_small(2048);
        let sess = Session::new(Arc::clone(&k), 0);
        sess.socket(5555).unwrap();
        assert!(matches!(
            sess.socket(5555),
            Err(KernelError::Invalid("port in use"))
        ));
    }

    #[test]
    fn fork_past_the_process_table_is_refused_and_spends_nothing() {
        let (m, k) = boot_small(4096);
        let sess = Session::new(Arc::clone(&k), 0);
        let mut last = None;
        while k.process_count() < MAX_PROCESSES {
            last = Some(sess.fork().unwrap());
        }
        let cpu = m.boot_cpu();
        let next_pid = k.state.lock().next_pid;
        let cycles = cpu.cycles();
        assert!(matches!(k.fork(cpu), Err(KernelError::ProcessLimit)));
        assert_eq!(cpu.cycles(), cycles, "a refused fork is not charged");
        assert_eq!(k.state.lock().next_pid, next_pid, "no pid is spent");
        assert_eq!(k.process_count(), MAX_PROCESSES);

        // One child exits and is reaped: the table has room again.
        let child = last.unwrap();
        sess.run_as(child).unwrap();
        sess.exit(0).unwrap();
        sess.run_as(Pid(1)).unwrap();
        assert_eq!(sess.waitpid().unwrap(), Some((child, 0)));
        assert_eq!(k.process_count(), MAX_PROCESSES - 1);
        assert_eq!(sess.fork().unwrap(), Pid(next_pid));
        assert_eq!(k.process_count(), MAX_PROCESSES);
    }

    #[test]
    fn waitpid_without_children_blocks_to_idle() {
        let (_m, k) = boot_small(2048);
        let sess = Session::new(Arc::clone(&k), 0);
        assert_eq!(sess.waitpid().unwrap(), None);
        // Sole process blocked on Wait: CPU idles.
        assert_eq!(sess.current_pid(), None);
        assert_eq!(sess.idle().unwrap(), None);
    }
}

#[cfg(test)]
mod yield_to_tests {
    use super::tests::{boot_sized, machine};
    use super::*;
    use crate::session::Session;

    #[test]
    fn directed_yield_targets_a_specific_process() {
        let kernel = boot_sized(&machine(1), 4096, 256);
        let sess = Session::new(Arc::clone(&kernel), 0);

        let root = sess.current_pid().unwrap();
        let c1 = sess.fork().unwrap();
        let c2 = sess.fork().unwrap();
        // Jump straight to c2, skipping c1's queue position.
        sess.run_as(c2).unwrap();
        assert_eq!(sess.current_pid(), Some(c2));
        // Already current: idempotent.
        sess.run_as(c2).unwrap();
        // Back to the root, then c1.
        sess.run_as(root).unwrap();
        sess.run_as(c1).unwrap();
        assert_eq!(sess.current_pid(), Some(c1));
        // A blocked process is not a valid target.
        sess.run_as(root).unwrap();
        let (r, _w) = sess.pipe().unwrap();
        sess.run_as(c1).unwrap();
        // root reads c1's... build: make c2 block on the pipe.
        sess.run_as(c2).unwrap();
        // c2 has no fd for the pipe (forked before pipe creation), so
        // use waitpid to block it instead.
        assert_eq!(sess.waitpid().unwrap(), None);
        assert_ne!(sess.current_pid(), Some(c2));
        assert!(matches!(
            sess.run_as(c2),
            Err(KernelError::Invalid("yield_to target not ready"))
        ));
        let _ = r;
    }
}

/// A user access reads the page-fault handler's verdict from a per-CPU
/// cell instead of re-locking the kernel, and the handler reads the VO
/// from the faulting thread's copy.
#[cfg(test)]
mod fault_path_tests {
    use super::tests::{boot_bare, boot_guest, machine};
    use super::*;
    use crate::session::Session;

    /// Every way a fault can end in a signal, each op's result, the
    /// signal flag after it and the cycles it took: a write to a
    /// read-only VMA, a touch outside every VMA, an access with a
    /// signal already pending (set by `GpSink` before it) and then the
    /// page it mapped, a clean fault, and a fault whose gate runs no
    /// handler of this kernel (the cell stays unset).
    fn signal_cases(k: &Arc<Kernel>) -> Vec<(String, bool, u64)> {
        let sess = Session::new(Arc::clone(k), 0);
        let cpu = Arc::clone(sess.cpu());
        let ro = sess.mmap(2, Prot::RO, MmapBacking::Anon).unwrap();
        let rw = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
        let mut got = Vec::new();
        let mut op = |what: &dyn Fn() -> Result<u64, KernelError>| {
            let c0 = cpu.cycles();
            let r = what();
            got.push((
                format!("{r:?}"),
                k.current_signalled(&cpu),
                cpu.cycles() - c0,
            ));
            sess.clear_signal();
        };
        op(&|| sess.poke(ro, 1).map(|_| 0));
        op(&|| sess.peek(VirtAddr(rw.0 + 64 * PAGE_SIZE)));
        op(&|| {
            cpu.deliver_exception(vectors::GP_FAULT, 0)?;
            sess.poke(rw, 7).map(|_| 0)
        });
        op(&|| sess.peek(rw));
        op(&|| {
            sess.poke(page_of(rw, 1), 9)
                .and_then(|_| sess.peek(page_of(rw, 1)))
        });
        let mut idt = IdtTable::new("test");
        idt.set_gate(vectors::PAGE_FAULT, Arc::new(GpSink(Arc::downgrade(k))));
        let loaded = cpu.current_idt().unwrap();
        cpu.set_idt_raw(Arc::new(idt));
        op(&|| sess.poke(page_of(rw, 2), 3).map(|_| 0));
        cpu.set_idt_raw(loaded);
        op(&|| {
            sess.poke(page_of(rw, 2), 3)
                .and_then(|_| sess.peek(page_of(rw, 2)))
        });
        got
    }

    fn page_of(va: VirtAddr, page: u64) -> VirtAddr {
        VirtAddr(va.0 + page * PAGE_SIZE)
    }

    /// A fault runs under the VO its own kernel published last, with two
    /// kernels faulting in turn on one thread and one of them
    /// publishing a new VO between faults: a copy kept by a stamp that
    /// two slots could share would hand one kernel the other's.
    #[test]
    fn a_fault_runs_under_the_vo_its_kernel_published_last() {
        use crate::session::tests::Marked;
        let kernels = [machine(1), machine(1)].map(|m| boot_bare(&m));
        let sessions = kernels.each_ref().map(|k| Session::new(Arc::clone(k), 0));
        let vas = sessions
            .each_ref()
            .map(|s| s.mmap(8, Prot::RW, MmapBacking::Anon).unwrap());
        let fault = |i: usize, page| {
            let cpu = sessions[i].cpu();
            let c0 = cpu.cycles();
            sessions[i].poke(page_of(vas[i], page), 1).unwrap();
            cpu.cycles() - c0
        };
        let mark = |i: usize, pte| {
            let inner = kernels[i].pv();
            kernels[i].set_pv(Arc::new(Marked {
                inner,
                entry: 0,
                exit: 0,
                pte,
            }));
        };
        // The first fault of each maps its L1 as well; after it, a
        // fault is one PTE store.
        let plain = [fault(0, 0), fault(1, 0), fault(0, 1)][2];
        assert_eq!(fault(1, 1), plain);
        mark(0, 1_000);
        mark(1, 70_000);
        assert_eq!(fault(0, 2), plain + 1_000);
        assert_eq!(fault(1, 2), plain + 70_000);
        mark(0, 5_000_000);
        assert_eq!(fault(0, 3), plain + 5_001_000, "the new VO wraps the old");
        assert_eq!(fault(1, 3), plain + 70_000);
    }

    /// Each case's result, flag and cycles, natively and under the
    /// VMM.  The unset cell is the last `BadAddress`: read as "not
    /// signalled" it would retry, and take two more traps.
    #[test]
    fn a_signalling_fault_returns_bad_address_as_the_locked_read_did() {
        let case = |r: &str, signalled, cycles| (r.to_string(), signalled, cycles);
        let bad = "Err(BadAddress)";
        let m = machine(1);
        let k = boot_bare(&m);
        assert_eq!(
            signal_cases(&k),
            [
                case(bad, true, 2592),
                case(bad, true, 2332),
                case(bad, true, 5166),
                case("Ok(0)", false, 66),
                case("Ok(9)", false, 3464),
                case(bad, true, 1334),
                case("Ok(3)", false, 3464),
            ]
        );
        let m = machine(1);
        let (_hv, k) = boot_guest(&m);
        assert_eq!(
            signal_cases(&k),
            [
                case(bad, true, 4092),
                case(bad, true, 3832),
                case(bad, true, 146834),
                case("Ok(0)", false, 66),
                case("Ok(9)", false, 7431),
                case(bad, true, 1334),
                case("Ok(3)", false, 7431),
            ]
        );
    }
}
