//! The simulated CPU: privilege levels, control registers, descriptor
//! tables, interrupt dispatch and the cycle counter.
//!
//! An SMP machine is driven by one host thread per virtual CPU (the
//! §5.4 IPI rendezvous protocol runs on real atomics), and a CPU's state
//! is split by who may write it (DESIGN.md "Who may write a CPU"):
//!
//! * **owner-written** — the cycle counter, the TLB and `in_service` are
//!   written only by the thread driving this CPU, as a relaxed load and
//!   a store with no `lock` prefix; any thread may read them;
//! * **mailboxes** — what another thread wants of this CPU is a request
//!   the owner honours: `pending` vectors ([`Cpu::raise`]), cycles
//!   charged to it from outside and TLB shootdowns
//!   ([`Cpu::request_tlb_flush`]);
//! * **shared** — everything else is an atomic or behind a lock, and
//!   any thread at PL0 may write it.

use crate::costs;
use crate::fault::Fault;
use crate::sync::{owner_store, RwLock};
use crate::tlb::Tlb;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

/// Number of interrupt vectors in a gate table.
pub const N_VECTORS: usize = 64;

/// Well-known vector assignments.
pub mod vectors {
    /// Page fault (synchronous).
    pub const PAGE_FAULT: u8 = 14;
    /// General protection fault (synchronous).
    pub const GP_FAULT: u8 = 13;
    /// Machine check (failure injection).
    pub const MACHINE_CHECK: u8 = 18;
    /// Periodic timer.
    pub const TIMER: u8 = 32;
    /// Disk completion.
    pub const DISK: u8 = 33;
    /// NIC receive.
    pub const NIC: u8 = 34;
    /// Cross-CPU reschedule / function-call IPI.
    pub const IPI_CALL: u8 = 48;
    /// Mercury: attach the pre-cached VMM (switch to virtual mode).
    pub const SELF_VIRT_ATTACH: u8 = 50;
    /// Mercury: detach the VMM (switch back to native mode).
    pub const SELF_VIRT_DETACH: u8 = 51;
    /// Mercury: rendezvous IPI used by the SMP switch protocol.
    pub const SELF_VIRT_RENDEZVOUS: u8 = 52;
    /// Mercury: live-update the running VMM to a pre-cached successor.
    pub const SELF_VIRT_UPDATE: u8 = 53;
    /// Event-channel upcall (xenon → guest virtual IRQ).
    pub const EVTCHN_UPCALL: u8 = 54;
}

/// Hardware privilege level.  Lower is more privileged.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum PrivLevel {
    /// Most privileged: the bare-metal kernel, or the VMM.
    Pl0 = 0,
    /// De-privileged guest kernel (virtual mode).
    Pl1 = 1,
    /// User mode.
    Pl3 = 3,
}

impl PrivLevel {
    /// Decode from the numeric ring value.
    pub fn from_u8(v: u8) -> PrivLevel {
        match v {
            0 => PrivLevel::Pl0,
            1 => PrivLevel::Pl1,
            _ => PrivLevel::Pl3,
        }
    }
}

/// A segment selector as saved in trap frames: descriptor index plus the
/// requested privilege level (RPL) — the piece of state §5.1.2 has to fix
/// up on kernel stacks during a mode switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Selector {
    /// Descriptor table index (we only model a handful of descriptors).
    pub index: u16,
    /// Requested privilege level encoded in the selector's low bits.
    pub rpl: PrivLevel,
}

/// Descriptor indices used by the kernel's flat segmentation model.
pub mod selectors {
    /// Kernel code segment descriptor index.
    pub const KERNEL_CS: u16 = 1;
    /// Kernel stack/data segment descriptor index.
    pub const KERNEL_SS: u16 = 2;
    /// User code segment descriptor index.
    pub const USER_CS: u16 = 3;
    /// User stack/data segment descriptor index.
    pub const USER_SS: u16 = 4;
}

/// A (deliberately tiny) global descriptor table: what matters for
/// Mercury is the *privilege level of the kernel segments*, which is 0 in
/// native mode and 1 in virtual mode (§5.1.2 item 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gdt {
    /// DPL of the kernel code/stack descriptors.
    pub kernel_dpl: PrivLevel,
}

impl Gdt {
    /// The GDT a bare-metal kernel loads.
    pub const NATIVE: Gdt = Gdt {
        kernel_dpl: PrivLevel::Pl0,
    };
    /// The GDT the hypervisor installs for a de-privileged guest.
    pub const VIRTUALIZED: Gdt = Gdt {
        kernel_dpl: PrivLevel::Pl1,
    };

    /// Check a selector against this table, as the hardware does when a
    /// saved selector is popped on the return path.  A selector whose RPL
    /// disagrees with the descriptor's DPL raises `#GP` — exactly the
    /// fault §5.1.2 describes for stale stack-cached selectors.
    pub fn check_selector(&self, sel: Selector) -> Result<(), Fault> {
        let expect = match sel.index {
            selectors::KERNEL_CS | selectors::KERNEL_SS => self.kernel_dpl,
            _ => PrivLevel::Pl3,
        };
        if sel.rpl == expect {
            Ok(())
        } else {
            Err(Fault::GeneralProtection {
                what: "segment selector RPL does not match descriptor DPL",
            })
        }
    }

    /// The kernel code selector under this table.
    pub fn kernel_cs(&self) -> Selector {
        Selector {
            index: selectors::KERNEL_CS,
            rpl: self.kernel_dpl,
        }
    }

    /// The kernel stack selector under this table.
    pub fn kernel_ss(&self) -> Selector {
        Selector {
            index: selectors::KERNEL_SS,
            rpl: self.kernel_dpl,
        }
    }
}

/// The stack image pushed by the hardware when an interrupt or trap is
/// taken.  Handlers may *edit* `return_pl` — that is how Mercury commits
/// the privilege-level change on the interrupt return path (§5.1.3:
/// "accomplished by modifying the privileged level in the return stack of
/// the interrupt").
#[derive(Clone, Copy, Debug)]
pub struct TrapFrame {
    /// Vector being delivered.
    pub vector: u8,
    /// Hardware error code (fault-dependent).
    pub error: u64,
    /// Privilege level the CPU will return to on `iret`.
    pub return_pl: PrivLevel,
    /// Saved code-segment selector.
    pub cs: Selector,
    /// Saved stack-segment selector.
    pub ss: Selector,
    /// Interrupt-enable flag to restore on `iret`.
    pub saved_if: bool,
}

/// An installed interrupt/trap handler.
///
/// Sinks are invoked on the thread driving the CPU, at PL0, with
/// interrupts disabled — the "interrupt context" §5.1.3 requires for the
/// state-reload functions.
pub trait InterruptSink: Send + Sync {
    /// Handle the trap described by `frame` on `cpu`.
    fn handle(&self, cpu: &Arc<Cpu>, frame: &mut TrapFrame);
}

/// One IDT slot.
#[derive(Clone)]
pub struct Gate {
    /// The handler.
    pub sink: Arc<dyn InterruptSink>,
}

/// A gate table (IDT).  `lidt` swaps the whole table atomically, which is
/// how the hypervisor takes over interrupt delivery on attach and hands
/// it back on detach.
pub struct IdtTable {
    gates: Vec<Option<Gate>>,
    /// Human-readable owner tag, for diagnostics ("nimbus", "xenon").
    pub owner: &'static str,
}

impl IdtTable {
    /// An empty table owned by `owner`.
    pub fn new(owner: &'static str) -> Self {
        IdtTable {
            // volint::allow(SWITCH-ALLOC): a VMM builds a gate table when a route changes (a trap table registered or adopted), never per trap
            gates: vec![None; N_VECTORS],
            owner,
        }
    }

    /// Install a handler for `vector`.
    pub fn set_gate(&mut self, vector: u8, sink: Arc<dyn InterruptSink>) {
        // volint::allow(SWITCH-PANIC): API-misuse guard; the VMM's gate tables name only its reflected vectors, all < N_VECTORS
        self.gates[vector as usize] = Some(Gate { sink });
    }

    /// Look up the gate for `vector`.
    pub fn gate(&self, vector: u8) -> Option<&Gate> {
        self.gates.get(vector as usize).and_then(|g| g.as_ref())
    }
}

/// What the thread driving a CPU last read of its gate table
/// ([`Cpu::loaded_idt`]): the table as of `stamp`.  `cpu` is weak, so a
/// snapshot keeps no CPU alive, and it keeps the CPU's allocation, so
/// no CPU made later can be taken for it.
struct IdtSnap {
    cpu: Weak<Cpu>,
    stamp: u64,
    idt: Option<Arc<IdtTable>>,
}

thread_local! {
    /// This host thread's [`IdtSnap`]: one, for the CPU it drives (a
    /// thread that drives several re-reads on each change of CPU).
    static IDT_SNAP: RefCell<Option<Rc<IdtSnap>>> = const { RefCell::new(None) };
}

/// A simulated CPU core.
pub struct Cpu {
    /// Core id (APIC id).
    pub id: usize,
    /// Cycles this CPU charged itself; written by its driving thread.
    cycles: AtomicU64,
    /// Cycles other threads charged it (a shootdown's flush).
    foreign_cycles: AtomicU64,
    pl: AtomicU8,
    cr3: AtomicU64,
    if_flag: AtomicBool,
    pending: AtomicU64,
    in_service: AtomicBool,
    halted: AtomicBool,
    idt: RwLock<Option<Arc<IdtTable>>>,
    /// Moves with every swap of `idt`, as a load and a store under its
    /// write lock: how a driving thread's [`IdtSnap`] knows it is stale.
    idt_stamp: AtomicU64,
    /// The loaded descriptor table, as its one field.
    gdt_kernel_dpl: AtomicU8,
    /// Is an EPT installed?  Read in place of `ept` while it is `None`.
    non_root: AtomicBool,
    ept: RwLock<Option<Arc<crate::vmx::Ept>>>,
    /// The TLB; the MMU uses it during translations.
    pub(crate) tlb: Tlb,
}

impl Cpu {
    /// A fresh CPU at PL0 with interrupts disabled and no IDT.
    pub fn new(id: usize) -> Cpu {
        Cpu {
            id,
            cycles: AtomicU64::new(0),
            foreign_cycles: AtomicU64::new(0),
            pl: AtomicU8::new(PrivLevel::Pl0 as u8),
            cr3: AtomicU64::new(0),
            if_flag: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            in_service: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            idt: RwLock::new(None),
            idt_stamp: AtomicU64::new(0),
            gdt_kernel_dpl: AtomicU8::new(Gdt::NATIVE.kernel_dpl as u8),
            non_root: AtomicBool::new(false),
            ept: RwLock::new(None),
            tlb: Tlb::new(id),
        }
    }

    // -- time ---------------------------------------------------------

    /// Advance this core's clock by `n` cycles.  Only the thread
    /// driving this CPU may call it: the update is a load and a store,
    /// not an atomic addition, and a second writer would lose cycles
    /// (debug builds panic on one — [`owner_store`]).
    ///
    /// The cost does not depend on `n`, so an idle gap of `N` cycles is
    /// one tick of `N` (see [`crate::evclock`]).  The counter is the
    /// **only** source of simulated time.
    #[inline]
    pub fn tick(&self, n: u64) {
        let c = self.cycles.load(Ordering::Relaxed);
        owner_store(&self.cycles, c, c.wrapping_add(n), self.id, "cycle counter");
    }

    /// Current cycle count: what this CPU charged itself plus what
    /// other threads charged it.  Any thread may read it.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
            .load(Ordering::Relaxed)
            .wrapping_add(self.foreign_cycles.load(Ordering::Relaxed))
    }

    /// `RDTSC`: read the time-stamp counter (readable at any privilege,
    /// like the paper's measurement methodology in §7.4).
    #[inline]
    pub fn rdtsc(&self) -> u64 {
        self.tick(20);
        self.cycles()
    }

    // -- privilege ----------------------------------------------------

    /// Current privilege level.
    #[inline]
    pub fn pl(&self) -> PrivLevel {
        PrivLevel::from_u8(self.pl.load(Ordering::Acquire))
    }

    /// Hardware-internal privilege update.  Only trap dispatch, `iret`
    /// and the state-reload path may call this; ordinary code changes
    /// privilege exclusively through gates.
    /// Virtualization-sensitive (paper §4.2).
    #[inline]
    #[doc(alias = "volint-privileged")]
    pub fn set_pl_raw(&self, pl: PrivLevel) {
        self.pl.store(pl as u8, Ordering::Release);
    }

    /// Fail with `#GP` unless running at PL0.
    #[inline]
    pub fn require_pl0(&self, what: &'static str) -> Result<(), Fault> {
        if self.pl() == PrivLevel::Pl0 {
            Ok(())
        } else {
            Err(Fault::GeneralProtection { what })
        }
    }

    // -- control registers -------------------------------------------

    /// Load CR3 with the page-directory frame number.  Privileged;
    /// flushes the TLB (non-global entries) and charges the reload cost.
    /// Virtualization-sensitive (paper §5.3): executed de-privileged it
    /// takes a `#GP`, as the paper's de-privileged kernel traps into the
    /// VMM.
    ///
    /// ```
    /// use simx86::cpu::{Cpu, PrivLevel};
    ///
    /// let cpu = Cpu::new(0);
    /// cpu.write_cr3(1).expect("PL0 may load CR3");
    ///
    /// // De-privilege the CPU, as Mercury's attach does to the kernel …
    /// cpu.set_pl_raw(PrivLevel::Pl1);
    /// // … and the same instruction now takes a #GP.
    /// assert!(cpu.write_cr3(2).is_err());
    /// ```
    #[doc(alias = "volint-privileged")]
    pub fn write_cr3(&self, pgd_frame: u32) -> Result<(), Fault> {
        self.require_pl0("mov cr3")?;
        self.tick(costs::CR3_LOAD_NATIVE);
        self.cr3.store(pgd_frame as u64, Ordering::Release);
        self.flush_tlb_local();
        merctrace::counter!(self.id, "simx86.privop.write_cr3", 1, self.cycles());
        Ok(())
    }

    /// Read CR3.  Privileged, as on x86.
    /// Virtualization-sensitive (paper §5.3).
    #[doc(alias = "volint-privileged")]
    pub fn read_cr3(&self) -> Result<u32, Fault> {
        self.require_pl0("mov from cr3")?;
        Ok(self.cr3.load(Ordering::Acquire) as u32)
    }

    /// The MMU's view of CR3 (hardware-internal, no privilege check —
    /// the MMU *is* the hardware; also used by PL0 reload paths).
    #[inline]
    pub fn cr3_raw(&self) -> u32 {
        self.cr3.load(Ordering::Acquire) as u32
    }

    /// Hardware-internal CR3 restore used by state reloading; does not
    /// charge the privileged-instruction path.
    /// Virtualization-sensitive (paper §5.1.3).
    #[doc(alias = "volint-privileged")]
    pub fn set_cr3_raw(&self, pgd_frame: u32) {
        self.cr3.store(pgd_frame as u64, Ordering::Release);
        self.flush_tlb_local();
    }

    /// Flush this CPU's entire TLB (privilege enforced by callers via
    /// `invlpg`/CR3 paths; exposed for the paravirt layer).  For the
    /// thread driving this CPU; a peer's TLB is flushed with
    /// [`Cpu::request_tlb_flush`].
    /// Virtualization-sensitive (paper §5.3).
    #[doc(alias = "volint-privileged")]
    pub fn flush_tlb_local(&self) {
        self.tick(costs::TLB_FLUSH);
        self.tlb.flush();
        merctrace::counter!(self.id, "simx86.tlb.flush", 1, self.cycles());
    }

    /// The target's half of a TLB shootdown, callable from any thread
    /// (on x86 the initiator sends an IPI and the target flushes).  The
    /// flush is charged to this CPU now and applied by its driving
    /// thread before its next use of the TLB, so a translation it starts
    /// after this returns sees the page tables as the caller left them.
    /// Virtualization-sensitive (paper §5.3).
    #[doc(alias = "volint-privileged")]
    pub fn request_tlb_flush(&self) {
        self.foreign_cycles
            // volint::allow(FORBIDDEN): the foreign cycle charge is a mailbox other CPUs add to
            .fetch_add(costs::TLB_FLUSH, Ordering::Relaxed);
        self.tlb.request_shootdown();
        merctrace::counter!(self.id, "simx86.tlb.flush", 1, self.cycles());
    }

    /// (hits, misses, flushes) of this CPU's TLB.
    pub fn tlb_stats(&self) -> (u64, u64, u64) {
        self.tlb.stats()
    }

    /// Invalidate a single page translation.
    /// Virtualization-sensitive (paper §5.3).
    #[doc(alias = "volint-privileged")]
    pub fn invlpg(&self, vpn: u64) {
        self.tick(4);
        self.tlb.invalidate(vpn);
        merctrace::counter!(self.id, "simx86.tlb.invlpg", 1, self.cycles());
    }

    // -- interrupt flag -----------------------------------------------

    /// `cli`: disable interrupts.  Privileged.
    /// Virtualization-sensitive (paper §5.4).
    #[doc(alias = "volint-privileged")]
    pub fn cli(&self) -> Result<(), Fault> {
        self.require_pl0("cli")?;
        self.if_flag.store(false, Ordering::Release);
        Ok(())
    }

    /// `sti`: enable interrupts.  Privileged.
    /// Virtualization-sensitive (paper §5.4).
    #[doc(alias = "volint-privileged")]
    pub fn sti(&self) -> Result<(), Fault> {
        self.require_pl0("sti")?;
        self.if_flag.store(true, Ordering::Release);
        Ok(())
    }

    /// Hardware-internal IF manipulation for trap entry/exit.
    /// Virtualization-sensitive (paper §5.4).
    #[doc(alias = "volint-privileged")]
    pub fn set_if_raw(&self, enabled: bool) {
        self.if_flag.store(enabled, Ordering::Release);
    }

    /// Are interrupts enabled?
    #[inline]
    pub fn interrupts_enabled(&self) -> bool {
        self.if_flag.load(Ordering::Acquire)
    }

    // -- descriptor tables --------------------------------------------

    /// `lidt`: install a gate table.  Privileged.
    /// Virtualization-sensitive (paper §5.1.2).
    #[doc(alias = "volint-privileged")]
    pub fn lidt(&self, table: Arc<IdtTable>) -> Result<(), Fault> {
        self.require_pl0("lidt")?;
        self.tick(60);
        self.load_idt(&mut self.idt.write(), table);
        merctrace::counter!(self.id, "simx86.privop.lidt", 1, self.cycles());
        Ok(())
    }

    /// Hardware-internal IDT swap for the state-reload path.
    /// Virtualization-sensitive (paper §5.1.3).
    #[doc(alias = "volint-privileged")]
    pub fn set_idt_raw(&self, table: Arc<IdtTable>) {
        self.load_idt(&mut self.idt.write(), table);
    }

    /// Hardware-internal IDT swap that happens only while `loaded` is
    /// the table in place: how a VMM re-routes its own gate table
    /// without taking back a CPU that has since loaded another.
    /// Virtualization-sensitive (paper §3.2.1).
    #[doc(alias = "volint-privileged")]
    pub fn replace_idt_raw(&self, loaded: &Arc<IdtTable>, table: Arc<IdtTable>) {
        let mut idt = self.idt.write();
        if idt.as_ref().is_some_and(|t| Arc::ptr_eq(t, loaded)) {
            self.load_idt(&mut idt, table);
        }
    }

    /// Put `table` in `idt`, this CPU's slot under its write lock, and
    /// move the stamp.  The lock orders the writers, so the bump is a
    /// load and a store.
    fn load_idt(&self, idt: &mut Option<Arc<IdtTable>>, table: Arc<IdtTable>) {
        *idt = Some(table);
        let stamp = self.idt_stamp.load(Ordering::Relaxed);
        self.idt_stamp.store(stamp + 1, Ordering::Release);
    }

    /// The currently loaded gate table, if any.
    pub fn current_idt(&self) -> Option<Arc<IdtTable>> {
        self.idt.read().clone()
    }

    /// The gate table this CPU has loaded, read by the thread driving
    /// it for a dispatch: one `Acquire` load of the stamp, and the lock
    /// only when the stamp moved or the thread last read another CPU.
    /// The `Rc` keeps the table for the dispatch even if its handler
    /// loads another.
    fn loaded_idt(self: &Arc<Self>) -> Rc<IdtSnap> {
        let stamp = self.idt_stamp.load(Ordering::Acquire);
        let hit = IDT_SNAP.with_borrow(|snap| {
            snap.as_ref()
                .filter(|s| s.stamp == stamp && std::ptr::eq(s.cpu.as_ptr(), Arc::as_ptr(self)))
                .map(Rc::clone)
        });
        if let Some(snap) = hit {
            return snap;
        }
        let fresh = {
            let idt = self.idt.read();
            Rc::new(IdtSnap {
                cpu: Arc::downgrade(self),
                stamp: self.idt_stamp.load(Ordering::Relaxed),
                idt: idt.clone(),
            })
        };
        // The old snapshot drops after the borrow ends: its table's
        // handlers are arbitrary code.
        let _old = IDT_SNAP.with_borrow_mut(|snap| snap.replace(Rc::clone(&fresh)));
        fresh
    }

    /// `lgdt`: install a descriptor table.  Privileged.
    /// Virtualization-sensitive (paper §5.1.2).
    #[doc(alias = "volint-privileged")]
    pub fn lgdt(&self, gdt: Gdt) -> Result<(), Fault> {
        self.require_pl0("lgdt")?;
        self.tick(60);
        self.set_gdt_raw(gdt);
        merctrace::counter!(self.id, "simx86.privop.lgdt", 1, self.cycles());
        Ok(())
    }

    /// Hardware-internal GDT swap for the state-reload path.
    /// Virtualization-sensitive (paper §5.1.3).
    #[doc(alias = "volint-privileged")]
    pub fn set_gdt_raw(&self, gdt: Gdt) {
        self.gdt_kernel_dpl
            .store(gdt.kernel_dpl as u8, Ordering::Release);
    }

    /// The currently loaded descriptor table.
    pub fn current_gdt(&self) -> Gdt {
        Gdt {
            kernel_dpl: PrivLevel::from_u8(self.gdt_kernel_dpl.load(Ordering::Acquire)),
        }
    }

    // -- hardware virtualization assist (§8 extension) -------------------

    /// Enter or leave VT-x-style non-root execution with the given EPT.
    /// In non-root mode the kernel keeps PL0 (no de-privileging); the
    /// EPT filters every translation.
    /// Virtualization-sensitive (paper §8).
    #[doc(alias = "volint-privileged")]
    pub fn set_non_root(&self, ept: Option<Arc<crate::vmx::Ept>>) {
        let present = ept.is_some();
        {
            // The flag moves under the lock, so it never disagrees with
            // the slot for longer than this block.
            let mut slot = self.ept.write();
            *slot = ept;
            self.non_root.store(present, Ordering::Release);
        }
        // Address-space view changed: flush.
        self.flush_tlb_local();
    }

    /// Is the CPU executing in non-root (guest) mode?
    pub fn in_non_root(&self) -> bool {
        self.non_root.load(Ordering::Acquire)
    }

    /// The active EPT, if any (the MMU consults this on every walk).
    pub fn active_ept(&self) -> Option<Arc<crate::vmx::Ept>> {
        if !self.in_non_root() {
            return None;
        }
        self.ept.read().clone()
    }

    // -- halting --------------------------------------------------------

    /// `hlt`: privileged; parks the CPU until the next interrupt.
    pub fn hlt(&self) -> Result<(), Fault> {
        self.require_pl0("hlt")?;
        self.halted.store(true, Ordering::Release);
        Ok(())
    }

    /// Is the CPU halted?
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::Acquire)
    }

    // -- interrupt delivery ---------------------------------------------

    /// Mark `vector` pending on this CPU (called by the interrupt
    /// controller and devices, possibly from other threads).
    pub fn raise(&self, vector: u8) {
        debug_assert!((vector as usize) < N_VECTORS);
        self.pending.fetch_or(1 << vector, Ordering::AcqRel);
        self.halted.store(false, Ordering::Release);
    }

    /// Is `vector` pending?
    pub fn is_pending(&self, vector: u8) -> bool {
        self.pending.load(Ordering::Acquire) & (1 << vector) != 0
    }

    /// Any vector pending?
    pub fn has_pending(&self) -> bool {
        self.pending.load(Ordering::Acquire) != 0
    }

    /// Service pending interrupts, lowest vector first, while interrupts
    /// are enabled.  Returns the number of interrupts dispatched.
    ///
    /// This is the simulation's stand-in for "interrupts are recognized
    /// at instruction boundaries": the kernel calls it at syscall
    /// entry/exit, in its idle loop, and inside long-running operations.
    pub fn service_pending(self: &Arc<Self>) -> usize {
        let mut n = 0;
        // Don't recurse into interrupt servicing from inside a handler.
        // Only the driving thread services a CPU, so the flag is its own.
        if self.in_service.load(Ordering::Relaxed) {
            return 0;
        }
        self.in_service.store(true, Ordering::Relaxed);
        // Fault injection (compiled out by default): a due spurious
        // interrupt fires once; a stuck line re-asserts its vector at
        // every service point until the fault is resolved.
        if let Some(vector) = faultgen::irq_site!(self.id, self.cycles()) {
            self.raise(vector);
        }
        while self.interrupts_enabled() {
            let bits = self.pending.load(Ordering::Acquire);
            if bits == 0 {
                break;
            }
            let vector = bits.trailing_zeros() as u8;
            self.pending.fetch_and(!(1 << vector), Ordering::AcqRel);
            // A handler may load another gate table; read it per vector.
            if let Some(idt) = &self.loaded_idt().idt {
                self.dispatch(idt, vector, 0);
            }
            n += 1;
        }
        self.in_service.store(false, Ordering::Relaxed);
        n
    }

    /// Deliver a synchronous exception (page fault, #GP).  Unlike
    /// asynchronous interrupts, exceptions fire regardless of IF.
    ///
    /// Returns the fault back to the caller if no handler is installed
    /// (double fault).
    pub fn deliver_exception(self: &Arc<Self>, vector: u8, error: u64) -> Result<(), Fault> {
        match &self.loaded_idt().idt {
            Some(idt) if idt.gate(vector).is_some() => {
                merctrace::counter!(self.id, "simx86.fault", 1, self.cycles());
                merctrace::hist!(self.id, "simx86.fault.vector", vector, self.cycles());
                self.dispatch(idt, vector, error);
                Ok(())
            }
            _ => Err(Fault::DoubleFault),
        }
    }

    /// Core gate dispatch through the loaded table `idt`: push a trap
    /// frame, raise to PL0, run the handler, and `iret` to whatever
    /// privilege level the handler left in the frame.
    fn dispatch(self: &Arc<Self>, idt: &IdtTable, vector: u8, error: u64) {
        // Fault injection (compiled out by default): a corrupted
        // descriptor makes the gate unreadable — the dispatch is
        // swallowed until the descriptor is rewritten and the fault
        // resolved, exactly like a latent IDT corruption on hardware.
        if faultgen::gate_site!(self.id, self.cycles(), vector) {
            return;
        }
        let Some(gate) = idt.gate(vector) else {
            return;
        };
        let gdt = self.current_gdt();
        let prev_pl = self.pl();
        let prev_if = self.interrupts_enabled();
        let mut frame = TrapFrame {
            vector,
            error,
            return_pl: prev_pl,
            cs: Selector {
                index: selectors::KERNEL_CS,
                rpl: if prev_pl == PrivLevel::Pl3 {
                    PrivLevel::Pl3
                } else {
                    gdt.kernel_dpl
                },
            },
            ss: Selector {
                index: selectors::KERNEL_SS,
                rpl: if prev_pl == PrivLevel::Pl3 {
                    PrivLevel::Pl3
                } else {
                    gdt.kernel_dpl
                },
            },
            saved_if: prev_if,
        };
        self.tick(costs::IRQ_DISPATCH);
        merctrace::counter!(self.id, "simx86.irq.dispatch", 1, self.cycles());
        // In non-root mode an external interrupt forces a VM exit; the
        // VMM re-injects it and re-enters the guest.
        if self.in_non_root() {
            self.tick(costs::VMEXIT + costs::VMENTRY);
            merctrace::counter!(self.id, "simx86.vmexit.irq", 1, self.cycles());
        }
        // Interrupt gates disable interrupts and enter at PL0.
        self.set_if_raw(false);
        self.set_pl_raw(PrivLevel::Pl0);
        gate.sink.handle(self, &mut frame);
        // `iret`: restore (possibly handler-edited) privilege and IF.
        self.set_pl_raw(frame.return_pl);
        self.set_if_raw(frame.saved_if);
        self.tick(costs::TRAP_EXIT_NATIVE);
    }
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("id", &self.id)
            .field("cycles", &self.cycles())
            .field("pl", &self.pl())
            .field("if", &self.interrupts_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct CountSink(AtomicUsize);
    impl InterruptSink for CountSink {
        fn handle(&self, _cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn privilege_enforced_on_privileged_ops() {
        let cpu = Cpu::new(0);
        cpu.set_pl_raw(PrivLevel::Pl1);
        assert!(matches!(
            cpu.write_cr3(1),
            Err(Fault::GeneralProtection { .. })
        ));
        assert!(cpu.cli().is_err());
        assert!(cpu.sti().is_err());
        assert!(cpu.hlt().is_err());
        assert!(cpu.read_cr3().is_err());
        cpu.set_pl_raw(PrivLevel::Pl0);
        assert!(cpu.write_cr3(1).is_ok());
        assert_eq!(cpu.read_cr3().unwrap(), 1);
    }

    #[test]
    fn pending_bits_and_service() {
        let cpu = Arc::new(Cpu::new(0));
        let sink = Arc::new(CountSink(AtomicUsize::new(0)));
        let mut idt = IdtTable::new("test");
        idt.set_gate(vectors::TIMER, sink.clone());
        cpu.lidt(Arc::new(idt)).unwrap();

        cpu.raise(vectors::TIMER);
        assert!(cpu.is_pending(vectors::TIMER));
        // IF clear: nothing serviced.
        assert_eq!(cpu.service_pending(), 0);
        cpu.sti().unwrap();
        assert_eq!(cpu.service_pending(), 1);
        assert_eq!(sink.0.load(Ordering::SeqCst), 1);
        assert!(!cpu.has_pending());
    }

    #[test]
    fn dispatch_restores_privilege_and_if() {
        let cpu = Arc::new(Cpu::new(0));
        struct Checker;
        impl InterruptSink for Checker {
            fn handle(&self, cpu: &Arc<Cpu>, frame: &mut TrapFrame) {
                // Handler runs at PL0 with interrupts off.
                assert_eq!(cpu.pl(), PrivLevel::Pl0);
                assert!(!cpu.interrupts_enabled());
                assert_eq!(frame.return_pl, PrivLevel::Pl1);
            }
        }
        let mut idt = IdtTable::new("test");
        idt.set_gate(vectors::TIMER, Arc::new(Checker));
        cpu.lidt(Arc::new(idt)).unwrap();
        cpu.sti().unwrap();
        cpu.set_pl_raw(PrivLevel::Pl1);
        cpu.raise(vectors::TIMER);
        cpu.service_pending();
        assert_eq!(cpu.pl(), PrivLevel::Pl1);
        assert!(cpu.interrupts_enabled());
    }

    #[test]
    fn handler_can_change_return_privilege() {
        // The Mercury state-reload mechanism: edit return_pl in the frame.
        let cpu = Arc::new(Cpu::new(0));
        struct Deprivilege;
        impl InterruptSink for Deprivilege {
            fn handle(&self, _cpu: &Arc<Cpu>, frame: &mut TrapFrame) {
                frame.return_pl = PrivLevel::Pl1;
            }
        }
        let mut idt = IdtTable::new("test");
        idt.set_gate(vectors::SELF_VIRT_ATTACH, Arc::new(Deprivilege));
        cpu.lidt(Arc::new(idt)).unwrap();
        cpu.sti().unwrap();
        assert_eq!(cpu.pl(), PrivLevel::Pl0);
        cpu.raise(vectors::SELF_VIRT_ATTACH);
        cpu.service_pending();
        assert_eq!(cpu.pl(), PrivLevel::Pl1);
    }

    #[test]
    fn exception_without_handler_is_double_fault() {
        let cpu = Arc::new(Cpu::new(0));
        let err = cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap_err();
        assert_eq!(err, Fault::DoubleFault);
    }

    #[test]
    fn gdt_selector_checks() {
        let native = Gdt::NATIVE;
        let virt = Gdt::VIRTUALIZED;
        let ksel_native = native.kernel_cs();
        assert!(native.check_selector(ksel_native).is_ok());
        // A selector cached under the native GDT faults under the
        // virtualized one — the §5.1.2 stack-fixup scenario.
        assert!(virt.check_selector(ksel_native).is_err());
        assert!(virt.check_selector(virt.kernel_cs()).is_ok());
    }

    #[test]
    fn hlt_cleared_by_interrupt() {
        let cpu = Cpu::new(0);
        cpu.hlt().unwrap();
        assert!(cpu.is_halted());
        cpu.raise(vectors::TIMER);
        assert!(!cpu.is_halted());
    }

    #[test]
    fn rdtsc_monotonic() {
        let cpu = Cpu::new(0);
        let a = cpu.rdtsc();
        cpu.tick(100);
        let b = cpu.rdtsc();
        assert!(b > a);
    }

    #[test]
    fn requested_flush_is_charged_at_once_and_counted_once() {
        let cpu = Cpu::new(0);
        cpu.tick(100);
        let (_, _, flushes) = cpu.tlb_stats();
        cpu.request_tlb_flush();
        assert_eq!(cpu.cycles(), 100 + costs::TLB_FLUSH);
        assert_eq!(cpu.tlb_stats().2, flushes + 1);
        // The owner's own ticks and the foreign charge add up.
        cpu.tick(5);
        assert_eq!(cpu.cycles(), 105 + costs::TLB_FLUSH);
    }

    /// The debug build's ownership check names the CPU whose clock a
    /// second writer moved between the owner's load and its store.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CPU 2: cycle counter moved from 10 to 17")]
    fn second_writer_of_the_clock_panics_in_debug_builds() {
        let cpu = Cpu::new(2);
        cpu.tick(17);
        // What `tick` does when its load saw 10 and a foreign tick of 7 landed.
        owner_store(&cpu.cycles, 10, 11, cpu.id, "cycle counter");
    }

    /// A sink that counts its calls and, on its first, loads `next` as
    /// the table of the CPU it runs on.
    struct Relinker {
        calls: AtomicUsize,
        next: std::sync::Mutex<Option<Arc<IdtTable>>>,
    }
    impl InterruptSink for Relinker {
        fn handle(&self, cpu: &Arc<Cpu>, _frame: &mut TrapFrame) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if let Some(next) = self.next.lock().unwrap().take() {
                cpu.lidt(next).unwrap();
            }
        }
    }

    fn table(vector: u8, sink: Arc<dyn InterruptSink>) -> Arc<IdtTable> {
        let mut idt = IdtTable::new("test");
        idt.set_gate(vector, sink);
        Arc::new(idt)
    }

    fn counter() -> Arc<CountSink> {
        Arc::new(CountSink(AtomicUsize::new(0)))
    }

    /// A table a handler loads with `lidt` is dispatched through from
    /// the next exception on, and the table it replaced lives until its
    /// handler has returned (only the CPU held it).
    #[test]
    fn a_table_loaded_by_a_handler_takes_the_next_exception() {
        let cpu = Arc::new(Cpu::new(0));
        let after = counter();
        let first = Arc::new(Relinker {
            calls: AtomicUsize::new(0),
            next: std::sync::Mutex::new(Some(table(vectors::PAGE_FAULT, after.clone()))),
        });
        cpu.lidt(table(vectors::PAGE_FAULT, first.clone())).unwrap();
        for _ in 0..3 {
            cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        }
        assert_eq!(first.calls.load(Ordering::SeqCst), 1);
        assert_eq!(after.0.load(Ordering::SeqCst), 2);
        // The same through the interrupt path.
        let late = counter();
        let timer = Arc::new(Relinker {
            calls: AtomicUsize::new(0),
            next: std::sync::Mutex::new(Some(table(vectors::TIMER, late.clone()))),
        });
        cpu.lidt(table(vectors::TIMER, timer.clone())).unwrap();
        cpu.sti().unwrap();
        for _ in 0..3 {
            cpu.raise(vectors::TIMER);
            assert_eq!(cpu.service_pending(), 1);
        }
        assert_eq!(timer.calls.load(Ordering::SeqCst), 1);
        assert_eq!(late.0.load(Ordering::SeqCst), 2);
    }

    /// A table another thread swaps in with `replace_idt_raw` takes
    /// the exceptions the driving thread delivers after the swap; a
    /// replace naming a table that is not loaded swaps nothing.
    #[test]
    fn a_table_replaced_from_another_thread_takes_the_next_exception() {
        let cpu = Arc::new(Cpu::new(0));
        let (old, new, stray) = (counter(), counter(), counter());
        let loaded = table(vectors::PAGE_FAULT, old.clone());
        cpu.lidt(Arc::clone(&loaded)).unwrap();
        cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let unloaded = table(vectors::PAGE_FAULT, stray.clone());
                cpu.replace_idt_raw(&unloaded, table(vectors::PAGE_FAULT, stray.clone()));
                cpu.replace_idt_raw(&loaded, table(vectors::PAGE_FAULT, new.clone()));
            });
        });
        cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        let calls = [&old, &new, &stray].map(|c| c.0.load(Ordering::SeqCst));
        assert_eq!(calls, [1, 2, 0]);
    }

    /// One thread driving several CPUs in turn dispatches each through
    /// its own table, and a CPU made after another was dropped, with
    /// the same number of table loads, is not taken for it.
    #[test]
    fn each_cpu_a_thread_drives_dispatches_through_its_own_table() {
        let (a, b) = (counter(), counter());
        let cpus = [Arc::new(Cpu::new(0)), Arc::new(Cpu::new(1))];
        cpus[0].lidt(table(vectors::PAGE_FAULT, a.clone())).unwrap();
        cpus[1].lidt(table(vectors::PAGE_FAULT, b.clone())).unwrap();
        for cpu in cpus.iter().chain(&cpus) {
            cpu.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        }
        assert_eq!([&a, &b].map(|c| c.0.load(Ordering::SeqCst)), [2, 2]);
        // The thread last drove CPU 1; drop it and make another.
        let [_, gone] = cpus;
        drop(gone);
        let c = counter();
        let fresh = Arc::new(Cpu::new(1));
        fresh.lidt(table(vectors::PAGE_FAULT, c.clone())).unwrap();
        fresh.deliver_exception(vectors::PAGE_FAULT, 0).unwrap();
        assert_eq!([&b, &c].map(|c| c.0.load(Ordering::SeqCst)), [2, 1]);
    }
}
