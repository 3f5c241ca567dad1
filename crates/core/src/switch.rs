//! The mode switcher: attaching, detaching and live-updating the
//! pre-cached VMM.
//!
//! [`Mercury::install`] prepares everything ahead of time (§4.1's
//! pre-caching): the VMM is warmed, a domain-0 record for the kernel is
//! created, both virtualization objects are built, and the dedicated
//! switch interrupt vectors are wired up.  A [`Transition`] is then
//! triggered by raising `SELF_VIRT_ATTACH`/`SELF_VIRT_DETACH`/
//! `SELF_VIRT_UPDATE`; all the work happens inside the interrupt
//! handler at PL0 (§5.1.3), and the privilege change is committed by
//! editing the handler's return frame.
//!
//! The paper's switch is "a pointer swap plus a set of state-transfer
//! and state-reload functions" (§5.1), and is written down as that:
//! every transition is a static table of [`Phase`] rows — probe name,
//! `run`, `undo` — and one driver, `run_transition`, walks whichever
//! table the system calls for ([`Mercury::phases`]).  Rollback, abort
//! injection, the timeline legs and volint's budget and lint coverage
//! all read the same rows (DESIGN.md §7).  This module is the engine;
//! the frame-accounting rows' bodies live beside the strategy lattice
//! they charge from ([`crate::pgtrack`]) and the SMP attach's shared
//! scan in [`crate::shard`].
//!
//! Switch phases are **tick-exact**: no cycle inside the handler is
//! charged as idle time (`simx86::evclock`) — the phases are what
//! `switch_timeline` measures and what the static budget in
//! `volint_budget.json` prices, so they must cost exactly what their
//! priced operations add up to in every run.  Only time *between*
//! switches (retry backoffs, serving gaps) is idle (DESIGN.md §14).
//!
//! The reference-count gate and the sub-millisecond commit, end to end:
//!
//! ```
//! use mercury::{AssistMode, NodeConfig, Stack, SwitchOutcome, TrackingStrategy};
//! use simx86::costs;
//!
//! let Stack { machine, mercury, .. } = Stack::build(
//!     &NodeConfig::default(),
//!     TrackingStrategy::RecomputeOnSwitch,
//!     AssistMode::Software,
//! );
//! let cpu = machine.boot_cpu();
//!
//! // A busy VO defers the switch to the retry timer (§5.1.1) …
//! let guard = mercury.vo_refcount().enter();
//! assert!(matches!(
//!     mercury.switch_to_virtual(cpu).unwrap(),
//!     SwitchOutcome::Deferred { refcount: 1 }
//! ));
//! drop(guard);
//!
//! // … while an idle one commits in sub-millisecond simulated time (§7.4).
//! let SwitchOutcome::Completed { cycles } = mercury.switch_to_virtual(cpu).unwrap() else {
//!     unreachable!()
//! };
//! assert!(costs::cycles_to_us(cycles) < 1000.0);
//! ```

use crate::pgtrack::TrackingStrategy;
use crate::refcount::VoRefCount;
use crate::rendezvous::{Rendezvous, RendezvousError};
use crate::shard::ScanJob;
use crate::vo::CountedVo;
use nimbus::paravirt::{BareOps, ExecMode, PvOps, XenOps};
use nimbus::Kernel;
use simx86::cpu::{vectors, InterruptSink, PrivLevel, TrapFrame};
use simx86::paging::Pte;
use simx86::sync::{Mutex, RwLock};
use simx86::vmx::Ept;
use simx86::{costs, Cpu, Machine};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use xenon::{Domain, Hypervisor, Rounds};

/// Which switching mechanism Mercury uses (the paper's §8 extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssistMode {
    /// The paper's implemented design: paravirtual de-privileging,
    /// page-table writability flips, selector fixups, frame-accounting
    /// recompute.
    #[default]
    Software,
    /// VT-x/EPT style (§8 future work): virtual mode runs the kernel in
    /// non-root PL0 behind an EPT built at install time; the switch is
    /// a VMCS load per CPU — no transfer functions at all.
    HardwareAssisted,
}

/// Fine-grained mode classification using the paper's §6 terminology:
/// *partial-virtual* mode hosts other operating systems (the machine is
/// a driver domain); *full-virtual* mode means the OS is the sole
/// domain and therefore live-migratable as a unit (§6.3's "switch the
/// machine to be maintained to the full-virtual mode").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeDetail {
    /// On bare hardware.
    Native,
    /// On the VMM, hosting `guests` other domains.
    PartialVirtual {
        /// Number of hosted guest domains.
        guests: usize,
    },
    /// On the VMM, alone — ready to be migrated.
    FullVirtual,
}

/// Result of a switch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// Switch committed; cycles spent inside the switch handler (the
    /// §7.4 "mode switch time").
    Completed {
        /// Cycles between handler entry and commit.
        cycles: u64,
    },
    /// The kernel was already in the requested mode.
    AlreadyInMode,
    /// Virtualization-sensitive code was in flight; the switch was
    /// deferred to the retry timer (§5.1.1).
    Deferred {
        /// The offending reference count.
        refcount: usize,
    },
}

/// Why a switch failed outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// The SMP rendezvous timed out (a CPU is not servicing interrupts).
    Rendezvous(RendezvousError),
    /// Cannot detach while hosting other domains — migrate or destroy
    /// them first.
    GuestsPresent(usize),
    /// A row of the transition's table failed, or was aborted by
    /// [`Mercury::inject_abort`]; the rows already entered were undone
    /// and the kernel continues in the mode it was in (the paper's
    /// future-work "failure-resistant mode switch").
    Transfer(String),
    /// No switch has been requested on this CPU.
    NothingPending,
    /// Live-update was requested but no successor VMM has been staged
    /// with [`Mercury::stage_update`].
    NoUpdateStaged,
    /// Live-update only applies while the node runs *on* the VMM being
    /// replaced; in native mode the dormant VMM can simply be swapped
    /// wholesale.
    NotVirtual,
    /// [`SwitchError::Transfer`] during a live-update: the node rolled
    /// back to the incumbent VMM (guest state untouched — DESIGN.md §16
    /// rule #3) and the staged successor was consumed.
    UpdateRolledBack(String),
    /// The §5.1.1 gate refused a caller that wanted the switch now or
    /// not at all ([`Mercury::reach`]): virtualization-sensitive code
    /// was in flight (the offending reference count), nothing was left
    /// for the retry timer, and the caller may simply try again.
    Busy(usize),
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::Rendezvous(e) => write!(f, "SMP rendezvous failed: {e:?}"),
            SwitchError::GuestsPresent(n) => {
                write!(f, "cannot detach while hosting {n} guest domain(s)")
            }
            SwitchError::Transfer(e) => write!(f, "state transfer failed: {e}"),
            SwitchError::NothingPending => write!(f, "no switch outcome recorded"),
            SwitchError::NoUpdateStaged => write!(f, "no successor VMM staged for live-update"),
            SwitchError::NotVirtual => {
                write!(
                    f,
                    "live-update requires virtual mode (the incumbent VMM must be live)"
                )
            }
            SwitchError::UpdateRolledBack(e) => {
                write!(f, "live-update rolled back to the incumbent VMM: {e}")
            }
            SwitchError::Busy(rc) => {
                write!(f, "virtualization object busy ({rc} in flight); retry")
            }
        }
    }
}

impl std::error::Error for SwitchError {}

/// Running switch statistics.
#[derive(Debug, Default)]
pub struct SwitchStats {
    /// Completed native→virtual switches.
    pub attaches: AtomicU64,
    /// Completed virtual→native switches.
    pub detaches: AtomicU64,
    /// Requests deferred by the reference-count gate.
    pub deferrals: AtomicU64,
    /// Cycles of the most recent attach.
    pub last_attach_cycles: AtomicU64,
    /// Cycles of the most recent detach.
    pub last_detach_cycles: AtomicU64,
    /// Switch attempts abandoned because the SMP rendezvous failed (a
    /// peer CPU never reached its service point), and transitions whose
    /// released peers did not all report back in time.  A dependability
    /// watchdog reads this to decide when to fall back to native-mode
    /// recovery (DESIGN.md §12).
    pub rendezvous_failures: AtomicU64,
    /// Wall-clock (makespan) cycles of the most recent attach-time
    /// frame-accounting phase — the §7.4 recompute, serial or sharded.
    pub last_pginfo_cycles: AtomicU64,
    /// Cumulative cycles spent inside completed native→virtual
    /// switches.  Serving-layer reports subtract two snapshots of this
    /// to charge exactly the switch cost incurred during a traffic
    /// window (the `serving_tail` bench's per-scenario accounting).
    pub total_attach_cycles: AtomicU64,
    /// Cumulative cycles spent inside completed virtual→native
    /// switches (see [`SwitchStats::total_attach_cycles`]).
    pub total_detach_cycles: AtomicU64,
    /// Completed hv-to-hv live-updates (DESIGN.md §16).
    pub live_updates: AtomicU64,
    /// Live-update attempts that failed the handshake or transfer and
    /// rolled back to the incumbent VMM.
    pub live_update_rollbacks: AtomicU64,
    /// Cycles of the most recent completed live-update (handler entry
    /// to commit, the same accounting as attach/detach).
    pub last_update_cycles: AtomicU64,
    /// Cumulative cycles spent inside completed live-updates.
    pub total_update_cycles: AtomicU64,
    /// Written frames revalidated out of donated idle cycles
    /// ([`Mercury::donate_idle`]) — each one off the next attach's
    /// work-list.
    pub idle_revalidated: AtomicU64,
    /// Idle cycles [`Mercury::donate_idle`] consumed doing so.
    pub idle_cycles_donated: AtomicU64,
    /// Attaches whose accounting the detach's retained records served,
    /// patched by what changed while native, instead of a whole walk
    /// ([`xenon::PageInfoTable::reattach`]).
    pub delta_attaches: AtomicU64,
}

/// The cumulative counters of [`SwitchStats`] as plain numbers: what a
/// report subtracts to charge a window (`now - base`) and adds to sum
/// windows over several engines.  The `last_*` gauges are not counters
/// and have no difference, so they are not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCounts {
    /// [`SwitchStats::attaches`].
    pub attaches: u64,
    /// [`SwitchStats::detaches`].
    pub detaches: u64,
    /// [`SwitchStats::deferrals`].
    pub deferrals: u64,
    /// [`SwitchStats::rendezvous_failures`].
    pub rendezvous_failures: u64,
    /// [`SwitchStats::total_attach_cycles`].
    pub attach_cycles: u64,
    /// [`SwitchStats::total_detach_cycles`].
    pub detach_cycles: u64,
    /// [`SwitchStats::live_updates`].
    pub live_updates: u64,
    /// [`SwitchStats::live_update_rollbacks`].
    pub live_update_rollbacks: u64,
    /// [`SwitchStats::total_update_cycles`].
    pub update_cycles: u64,
    /// [`SwitchStats::idle_revalidated`].
    pub idle_revalidated: u64,
    /// [`SwitchStats::idle_cycles_donated`].
    pub idle_cycles_donated: u64,
}

impl SwitchStats {
    /// The counters as they stand.
    pub fn snapshot(&self) -> SwitchCounts {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        SwitchCounts {
            attaches: load(&self.attaches),
            detaches: load(&self.detaches),
            deferrals: load(&self.deferrals),
            rendezvous_failures: load(&self.rendezvous_failures),
            attach_cycles: load(&self.total_attach_cycles),
            detach_cycles: load(&self.total_detach_cycles),
            live_updates: load(&self.live_updates),
            live_update_rollbacks: load(&self.live_update_rollbacks),
            update_cycles: load(&self.total_update_cycles),
            idle_revalidated: load(&self.idle_revalidated),
            idle_cycles_donated: load(&self.idle_cycles_donated),
        }
    }
}

impl SwitchCounts {
    fn zip(self, o: SwitchCounts, f: fn(u64, u64) -> u64) -> SwitchCounts {
        SwitchCounts {
            attaches: f(self.attaches, o.attaches),
            detaches: f(self.detaches, o.detaches),
            deferrals: f(self.deferrals, o.deferrals),
            rendezvous_failures: f(self.rendezvous_failures, o.rendezvous_failures),
            attach_cycles: f(self.attach_cycles, o.attach_cycles),
            detach_cycles: f(self.detach_cycles, o.detach_cycles),
            live_updates: f(self.live_updates, o.live_updates),
            live_update_rollbacks: f(self.live_update_rollbacks, o.live_update_rollbacks),
            update_cycles: f(self.update_cycles, o.update_cycles),
            idle_revalidated: f(self.idle_revalidated, o.idle_revalidated),
            idle_cycles_donated: f(self.idle_cycles_donated, o.idle_cycles_donated),
        }
    }
}

/// What happened since `base`: `stats.snapshot() - base`.
impl std::ops::Sub for SwitchCounts {
    type Output = SwitchCounts;
    fn sub(self, base: SwitchCounts) -> SwitchCounts {
        self.zip(base, |now, base| now - base)
    }
}

impl std::ops::Add for SwitchCounts {
    type Output = SwitchCounts;
    fn add(self, other: SwitchCounts) -> SwitchCounts {
        self.zip(other, |a, b| a + b)
    }
}

/// A VMM with both virtualization objects pre-built against it (§4.1
/// pre-caching: nothing on the switch-critical path allocates) — what
/// is double-buffered under the kernel, and what a live-update stages
/// to replace it wholesale.
struct VmmSet {
    hv: Arc<Hypervisor>,
    /// Under a dirty baseline its sink binds `hv`'s page_info table, so
    /// a retained table's pre-image is kept at its first write while
    /// the VMM is dormant.
    native_vo: Arc<CountedVo>,
    /// Mercury's rounds over memory's stamps: the native window (what
    /// an attach must revalidate was stored to inside it) and the
    /// idle-time sweep over it.  Beside the sink, so a live-update
    /// replaces table, sink and rounds in the one store.
    rounds: Mutex<Rounds>,
    /// `XenOps` binds `hv`; under hardware assist it is `BareOps::hvm`
    /// instead (non-root PL0 needs no hypercalls, §8).
    virtual_vo: Arc<CountedVo>,
}

impl VmmSet {
    fn build(
        machine: &Arc<Machine>,
        refcount: &Arc<VoRefCount>,
        strategy: TrackingStrategy,
        assist: AssistMode,
        hv: Arc<Hypervisor>,
        dom: &Arc<Domain>,
    ) -> VmmSet {
        let row = strategy.row();
        let sink = row
            .dirty_baseline
            .then(|| (Arc::clone(&hv.page_info), Arc::clone(machine)));
        let native_vo = CountedVo::new(
            BareOps::new(Arc::clone(machine)) as Arc<dyn PvOps>,
            Arc::clone(refcount),
            Some((row.native_per_pte, sink)),
        );
        let virtual_ops = match assist {
            AssistMode::Software => XenOps::new(Arc::clone(&hv), Arc::clone(dom)) as Arc<dyn PvOps>,
            AssistMode::HardwareAssisted => BareOps::hvm(Arc::clone(machine)) as Arc<dyn PvOps>,
        };
        let virtual_vo = CountedVo::new(virtual_ops, Arc::clone(refcount), None);
        VmmSet {
            hv,
            native_vo,
            rounds: Mutex::new(Rounds::default()),
            virtual_vo,
        }
    }
}

/// A transition the switch handler can be asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Native → virtual: attach the pre-cached VMM.
    Attach,
    /// Virtual → native: detach it.
    Detach,
    /// Virtual → virtual: replace the VMM under the running kernel
    /// (DESIGN.md §16).
    Update,
}

/// What a round's rows share: the control processor, for an update the
/// staged successor the round consumed, and for an SMP attach the scan
/// the CP dealt, which rides here until go.
pub(crate) struct Round<'a> {
    pub(crate) cpu: &'a Arc<Cpu>,
    staged: Option<VmmSet>,
    pub(crate) scan: Cell<Option<ScanJob>>,
}

impl Round<'_> {
    fn successor(&self) -> Result<&Arc<Hypervisor>, SwitchError> {
        self.staged
            .as_ref()
            .map(|s| &s.hv)
            .ok_or(SwitchError::NoUpdateStaged)
    }
}

type PhaseFn = fn(&Mercury, &Round<'_>) -> Result<(), SwitchError>;

/// One row of a transition table: a state-transfer function, how to
/// take it back, and the probe it is measured under.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Probe name: the driver opens this span around `run`, volint
    /// prices `run` under it, [`Mercury::inject_abort`] names the row by it.
    pub name: &'static str,
    run: PhaseFn,
    undo: PhaseFn,
}

impl Phase {
    const fn new(name: &'static str, run: PhaseFn, undo: PhaseFn) -> Phase {
        Phase { name, run, undo }
    }

    /// The same row walked the other way: what one direction undoes is
    /// what the other direction does.
    const fn reversed(self) -> Phase {
        Phase {
            run: self.undo,
            undo: self.run,
            ..self
        }
    }
}

const FLIP: Phase = Phase::new(
    "switch.transfer.flip_tables",
    Mercury::flip_tables::<true>,
    Mercury::flip_tables::<false>,
);
const SELECTORS: Phase = Phase::new(
    "switch.transfer.fix_selectors",
    Mercury::fix_selectors::<true>,
    Mercury::fix_selectors::<false>,
);
const ACCOUNT_DIRTY: Phase = Phase::new(
    "switch.transfer.pginfo_recompute",
    Mercury::account_dirty,
    Mercury::drop_accounting,
);
const ACCOUNT_FULL: Phase = Phase::new(
    "switch.transfer.pginfo_full",
    Mercury::account_full,
    Mercury::drop_accounting,
);
const TRAP_TABLE: Phase = Phase::new(
    "switch.transfer.trap_table",
    Mercury::arm_vmm,
    Mercury::vmm::<false>,
);
const RETAIN: Phase = Phase::new(
    "switch.transfer.pginfo_retain",
    Mercury::retain_accounting,
    Mercury::rearm_accounting,
);
const CLEAR: Phase = Phase::new(
    "switch.transfer.pginfo_clear",
    Mercury::clear_accounting,
    Mercury::rearm_accounting,
);
const VMCS: Phase = Phase::new(
    "switch.transfer.vmcs",
    Mercury::vmm::<true>,
    Mercury::vmm::<false>,
);
const HANDSHAKE: Phase = Phase::new(
    "switch.liveupdate.handshake",
    Mercury::update_handshake,
    Mercury::nothing,
);
const TRANSFER: Phase = Phase::new(
    "switch.liveupdate.transfer",
    Mercury::update_transfer,
    Mercury::update_discard,
);

// The tables: walked top to bottom; if a row fails, the rows entered
// are undone bottom to top.
const ATTACH_DIRTY: &[Phase] = &[FLIP, SELECTORS, ACCOUNT_DIRTY, TRAP_TABLE];
const ATTACH_FULL: &[Phase] = &[FLIP, SELECTORS, ACCOUNT_FULL, TRAP_TABLE];
const DETACH_RETAIN: &[Phase] = &[RETAIN, FLIP.reversed(), SELECTORS.reversed()];
const DETACH_CLEAR: &[Phase] = &[CLEAR, FLIP.reversed(), SELECTORS.reversed()];
const ATTACH_HVM: &[Phase] = &[VMCS];
const DETACH_HVM: &[Phase] = &[VMCS.reversed()];
const LIVE_UPDATE: &[Phase] = &[HANDSHAKE, TRANSFER];

/// The self-virtualization engine for one kernel.
pub struct Mercury {
    kernel: Arc<Kernel>,
    /// The VMM currently double-buffered under the kernel, with its
    /// VOs.  A slot (not bare fields) because a live-update replaces it
    /// wholesale, in one store.
    vmm: RwLock<VmmSet>,
    machine: Arc<Machine>,
    dom0: Arc<Domain>,
    refcount: Arc<VoRefCount>,
    strategy: TrackingStrategy,
    assist: AssistMode,
    /// EPT for hardware-assisted mode (built at install).
    ept: Option<Arc<Ept>>,
    /// The §5.4 rendezvous.  The control processor hands its peers
    /// with go the mode to reload for and the attach's scan, if it
    /// dealt one (each peer charges its stripe; see `crate::shard`).
    rendezvous: Rendezvous<(ExecMode, Option<ScanJob>)>,
    /// Deferred switch target for the retry timer.
    pending: Mutex<Option<ExecMode>>,
    /// The staged successor VMM awaiting [`Mercury::live_update`], if
    /// any.  Deliberately *not* rendezvous-guarded: staging happens off
    /// the switch path ([`Mercury::stage_update`] pre-builds the VOs
    /// there), and only the consume inside the update round races the
    /// protocol — a plain mutex covers both.
    pending_update: Mutex<Option<VmmSet>>,
    /// Fault-injection hook: abort the next transition before the row
    /// of this name (the interruption property tests and faultgen
    /// campaigns set it).
    abort: Mutex<Option<&'static str>>,
    /// The VMM that lost the last update round — the incumbent of a
    /// committed update, the successor of a rolled-back one — parked
    /// here by the critical section (a pointer move: freeing its
    /// 512-frame reservation is allocator work that must not extend
    /// the stop-the-world window).  [`Mercury::live_update`] drains it
    /// off the critical path.
    retired_update: Mutex<Option<VmmSet>>,
    last_outcome: Mutex<Option<Result<SwitchOutcome, SwitchError>>>,
    /// Statistics.
    pub stats: SwitchStats,
}

struct SwitchSink(Weak<Mercury>);

impl InterruptSink for SwitchSink {
    fn handle(&self, cpu: &Arc<Cpu>, frame: &mut TrapFrame) {
        let Some(m) = self.0.upgrade() else { return };
        match frame.vector {
            vectors::SELF_VIRT_ATTACH => m.handle_transition(cpu, frame, Transition::Attach),
            vectors::SELF_VIRT_DETACH => m.handle_transition(cpu, frame, Transition::Detach),
            vectors::SELF_VIRT_UPDATE => m.handle_transition(cpu, frame, Transition::Update),
            vectors::SELF_VIRT_RENDEZVOUS => m.handle_rendezvous_peer(cpu, frame),
            _ => {}
        }
    }
}

impl Mercury {
    /// Install self-virtualization onto a bare-booted kernel.
    ///
    /// Pre-caches everything a switch needs: the (already warm)
    /// hypervisor gets a domain-0 record covering the kernel's frames,
    /// the two virtualization objects are built around a shared
    /// reference count, the kernel's paravirt pointer is relocated to
    /// the native VO, and the dedicated interrupt vectors plus the
    /// retry timer are wired up.
    pub fn install(
        kernel: Arc<Kernel>,
        hv: Arc<Hypervisor>,
        strategy: TrackingStrategy,
    ) -> Result<Arc<Mercury>, SwitchError> {
        Self::install_with_assist(kernel, hv, strategy, AssistMode::Software)
    }

    /// [`Mercury::install`] with an explicit switching mechanism.  With
    /// [`AssistMode::HardwareAssisted`], the EPT over the kernel's
    /// frames is built here (warm-up, off the switch path), realizing
    /// §8's "nested page table ... could ease the tracking of the
    /// states of each page".
    pub fn install_with_assist(
        kernel: Arc<Kernel>,
        hv: Arc<Hypervisor>,
        strategy: TrackingStrategy,
        assist: AssistMode,
    ) -> Result<Arc<Mercury>, SwitchError> {
        assert_eq!(
            kernel.exec_mode(),
            ExecMode::Native,
            "Mercury installs onto a native-booted kernel"
        );
        let machine = Arc::clone(&kernel.machine);
        let cpu = machine.boot_cpu();

        // Pre-create the kernel's dom0 record while the VMM is dormant:
        // ownership of every pool frame is established once, not per
        // switch.
        let dom0 = hv
            .create_domain(cpu, "mercury-os", kernel.pool_frames(), 0)
            .map_err(|e| SwitchError::Transfer(e.to_string()))?;

        let refcount = VoRefCount::new();
        let vmm = VmmSet::build(&machine, &refcount, strategy, assist, hv, &dom0);
        kernel.set_pv(Arc::clone(&vmm.native_vo) as Arc<dyn PvOps>);

        let ept = (assist == AssistMode::HardwareAssisted).then(|| {
            let frames = kernel.pool_frames();
            cpu.tick(costs::EPT_BUILD_PER_FRAME * frames.len() as u64);
            let ept = Ept::new(machine.mem.num_frames());
            ept.allow_all(&frames);
            ept
        });

        Ok(Self::finish_install(
            kernel, dom0, refcount, vmm, strategy, assist, ept,
        ))
    }

    /// Install Mercury onto a kernel already running in **virtual mode**
    /// as `dom` on `hv` — the shape of a system restored from a
    /// checkpoint or freshly live-migrated in.  Once adopted, the
    /// kernel can `switch_to_native` and run at full speed (§6.3's
    /// "migrated back and the machine is returned to the native mode").
    pub fn adopt(
        kernel: Arc<Kernel>,
        hv: Arc<Hypervisor>,
        dom: Arc<Domain>,
        strategy: TrackingStrategy,
    ) -> Result<Arc<Mercury>, SwitchError> {
        assert_eq!(
            kernel.exec_mode(),
            ExecMode::Virtual,
            "Mercury adopts a kernel currently running as a guest"
        );
        let machine = Arc::clone(&kernel.machine);
        let refcount = VoRefCount::new();
        let assist = AssistMode::Software;
        let vmm = VmmSet::build(&machine, &refcount, strategy, assist, hv, &dom);
        kernel.set_pv(Arc::clone(&vmm.virtual_vo) as Arc<dyn PvOps>);
        Ok(Self::finish_install(
            kernel, dom, refcount, vmm, strategy, assist, None,
        ))
    }

    fn finish_install(
        kernel: Arc<Kernel>,
        dom0: Arc<Domain>,
        refcount: Arc<VoRefCount>,
        vmm: VmmSet,
        strategy: TrackingStrategy,
        assist: AssistMode,
        ept: Option<Arc<Ept>>,
    ) -> Arc<Mercury> {
        let mercury = Arc::new(Mercury {
            kernel: Arc::clone(&kernel),
            vmm: RwLock::new(vmm),
            machine: Arc::clone(&kernel.machine),
            dom0,
            refcount,
            strategy,
            assist,
            ept,
            rendezvous: Rendezvous::new(),
            pending: Mutex::new(None),
            pending_update: Mutex::new(None),
            abort: Mutex::new(None),
            retired_update: Mutex::new(None),
            last_outcome: Mutex::new(None),
            stats: SwitchStats::default(),
        });

        // Boot-time pre-cache (the always-on dirty-tracking default):
        // under a dirty baseline on a native-booted kernel, compute
        // the page_info snapshot *now*, on the boot CPU, off the switch
        // path — one full-rate scan at install time buys every future
        // attach (including the first) the O(dirty) path.  An adopted
        // kernel is live in virtual mode: its table is already correct
        // and the baseline is established by the first detach.
        if strategy.row().dirty_baseline && kernel.exec_mode() == ExecMode::Native {
            let cpu = mercury.machine.boot_cpu();
            let owned = kernel.pool_size() as u64;
            cpu.tick(costs::PGINFO_RECOMPUTE_PER_FRAME * owned);
            merctrace::counter!(cpu.id, "switch.precache.frames", owned, cpu.cycles());
            mercury.open_native_window(kernel.all_table_frames());
        }

        kernel.set_self_virt_sink(Arc::new(SwitchSink(Arc::downgrade(&mercury))));

        // Retry timer (§5.1.1): every kernel timer tick (10 ms), re-raise
        // a deferred switch once the VO is idle.
        let weak = Arc::downgrade(&mercury);
        kernel.register_timer_callback(Arc::new(move |cpu: &Arc<Cpu>| {
            let Some(m) = weak.upgrade() else { return };
            let target = *m.pending.lock();
            if let Some(target) = target {
                if m.refcount.is_idle() {
                    cpu.raise(match target {
                        ExecMode::Virtual => vectors::SELF_VIRT_ATTACH,
                        ExecMode::Native => vectors::SELF_VIRT_DETACH,
                    });
                }
            }
        }));
        mercury
    }

    // ---- public API -------------------------------------------------------

    /// Current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.kernel.exec_mode()
    }

    /// Current mode in the paper's partial/full-virtual terminology.
    pub fn mode_detail(&self) -> ModeDetail {
        match self.mode() {
            ExecMode::Native => ModeDetail::Native,
            ExecMode::Virtual => {
                let guests = self.hypervisor().domains().len().saturating_sub(1);
                if guests == 0 {
                    ModeDetail::FullVirtual
                } else {
                    ModeDetail::PartialVirtual { guests }
                }
            }
        }
    }

    /// The kernel under management.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The VMM currently double-buffered under the kernel.  Returns an
    /// owned snapshot: a concurrent live-update can replace the slot,
    /// and holders of the old `Arc` keep a consistent (if outdated)
    /// view rather than a dangling reference.
    pub fn hypervisor(&self) -> Arc<Hypervisor> {
        Arc::clone(&self.vmm.read().hv)
    }

    /// Version of the VMM currently in the slot.
    pub fn hv_version(&self) -> u32 {
        self.hypervisor().version()
    }

    fn native_vo(&self) -> Arc<CountedVo> {
        Arc::clone(&self.vmm.read().native_vo)
    }

    fn virtual_vo(&self) -> Arc<CountedVo> {
        Arc::clone(&self.vmm.read().virtual_vo)
    }

    /// The kernel's domain record (dom0 once attached).
    pub fn dom0(&self) -> &Arc<Domain> {
        &self.dom0
    }

    /// The shared VO reference count (a long-running sensitive section
    /// can be marked by holding a guard from it).
    pub fn vo_refcount(&self) -> &Arc<VoRefCount> {
        &self.refcount
    }

    /// The frame-accounting strategy in force.
    pub fn strategy(&self) -> TrackingStrategy {
        self.strategy
    }

    /// The switching mechanism in force.
    pub fn assist(&self) -> AssistMode {
        self.assist
    }

    /// A switch target deferred by the reference-count gate, if any.
    pub fn pending_target(&self) -> Option<ExecMode> {
        *self.pending.lock()
    }

    // ---- the native window's rounds (DESIGN.md §7b) --------------------------

    /// The state just validated *is* the snapshot: open the native
    /// window at a checkpoint, which the rounds and the records the
    /// detach retained both count from, following the kernel's page
    /// tables as they are now.
    fn open_native_window(&self, tables: Vec<simx86::FrameNum>) {
        let vmm = self.vmm.read();
        let since = vmm.rounds.lock().rebase(&self.machine.mem, tables);
        vmm.hv.page_info.open_native_window(since);
    }

    /// The kernel's page-table frames — at the native window's open
    /// and now — stored to in the window and not yet revalidated by
    /// donated idle time: the next attach's work-list.
    pub fn revalidation_backlog(&self) -> Vec<simx86::FrameNum> {
        let tables = self.kernel.all_table_frames();
        let vmm = self.vmm.read();
        let rounds = vmm.rounds.lock();
        rounds.pending(&self.machine.mem, &tables)
    }

    /// Donate up to `budget` idle cycles on `cpu` (a serving node's
    /// open-loop gap, the kernel's idle loop) to revalidating written
    /// frames while still native: each
    /// [`costs::PGINFO_RECOMPUTE_PER_FRAME`] retires one frame from
    /// [`revalidation_backlog`](Mercury::revalidation_backlog), so it
    /// re-attaches at the snapshot-restore rate instead of the scan
    /// rate.  Returns the cycles consumed (ticked on `cpu`), never more
    /// than `budget`; the caller idles away the rest (DESIGN.md §14).
    ///
    /// Nothing is donated in virtual mode (the accounting is live) or
    /// without a dirty baseline (nothing is revalidated at attach).
    /// Sound because the attach rebuilds the accounting from the live
    /// tables whatever the sweep retired: a retired frame only moves
    /// its charge off the switch, and a later store puts it back.
    pub fn donate_idle(&self, cpu: &Arc<Cpu>, budget: u64) -> u64 {
        if self.mode() != ExecMode::Native || !self.strategy.row().dirty_baseline {
            return 0;
        }
        let per_frame = costs::PGINFO_RECOMPUTE_PER_FRAME;
        let tables = self.kernel.all_table_frames();
        let vmm = self.vmm.read();
        let mut rounds = vmm.rounds.lock();
        let max = (budget / per_frame) as usize;
        let frames = rounds.sweep(&self.machine.mem, &tables, max, |_| {
            cpu.tick(per_frame);
            merctrace::counter!(cpu.id, "switch.idle.revalidate", 1, cpu.cycles());
        }) as u64;
        let used = frames * per_frame;
        let stats = &self.stats;
        stats.idle_revalidated.fetch_add(frames, Ordering::Relaxed);
        stats.idle_cycles_donated.fetch_add(used, Ordering::Relaxed);
        used
    }

    /// Request native→virtual (attach the VMM).  Triggers the dedicated
    /// interrupt on `cpu` (the control processor) and services it.
    pub fn switch_to_virtual(&self, cpu: &Arc<Cpu>) -> Result<SwitchOutcome, SwitchError> {
        self.request(cpu, vectors::SELF_VIRT_ATTACH)
    }

    /// Request virtual→native (detach the VMM).
    pub fn switch_to_native(&self, cpu: &Arc<Cpu>) -> Result<SwitchOutcome, SwitchError> {
        self.request(cpu, vectors::SELF_VIRT_DETACH)
    }

    // ---- the on-demand bracket (DESIGN.md §6) ------------------------------

    /// Reach `target` now or not at all.  Where
    /// [`switch_to_virtual`](Mercury::switch_to_virtual) leaves a
    /// deferred request with the §5.1.1 retry timer, this withdraws it:
    /// a caller that gave up must not find the VMM attached (or gone) a
    /// timer period later with nobody left to switch back.  Returns
    /// whether this call switched; a refusal is
    /// [`SwitchError::Busy`].  Charges no cycle of its own.
    pub fn reach(&self, target: ExecMode, cpu: &Arc<Cpu>) -> Result<bool, SwitchError> {
        if self.mode() == target {
            // No request is raised, so none of its interrupt cost is paid.
            return Ok(false);
        }
        let out = match target {
            ExecMode::Virtual => self.switch_to_virtual(cpu),
            ExecMode::Native => self.switch_to_native(cpu),
        }?;
        match out {
            SwitchOutcome::Completed { .. } => Ok(true),
            SwitchOutcome::AlreadyInMode => Ok(false),
            SwitchOutcome::Deferred { refcount } => {
                *self.pending.lock() = None;
                Err(SwitchError::Busy(refcount))
            }
        }
    }

    /// Virtualize on demand (PAPER.md §1): attach the VMM if the kernel
    /// is native, run `body` on it, and detach again if — and only if —
    /// this call attached.  `body` is told whether it did.  The bracket
    /// undoes what it did on `body`'s error path too, so a failed
    /// freeze or save leaves the node in the mode it was found in; a
    /// node that was already virtual stays virtual either way.  When
    /// both `body` and the detach fail, `body`'s error is the one
    /// returned.
    pub fn on_demand<T, E: From<SwitchError>>(
        &self,
        cpu: &Arc<Cpu>,
        body: impl FnOnce(bool) -> Result<T, E>,
    ) -> Result<T, E> {
        let was_native = self.reach(ExecMode::Virtual, cpu)?;
        let out = body(was_native);
        if was_native {
            let back = self.reach(ExecMode::Native, cpu);
            if out.is_ok() {
                back?;
            }
        }
        out
    }

    // ---- hypervisor live-update (DESIGN.md §16) -----------------------------

    /// Stage `successor` for a hypervisor live-update: validate the
    /// version handshake *now* and pre-build both virtualization
    /// objects against the successor, so the switch-critical handler
    /// allocates nothing (§4.1 pre-caching applied to the update).
    ///
    /// The successor must be strictly newer, dormant, pristine and on
    /// the same machine ([`xenon::liveupdate::handshake`]); staging an
    /// unacceptable successor fails here, not mid-rendezvous.
    pub fn stage_update(&self, successor: Arc<Hypervisor>) -> Result<(), SwitchError> {
        xenon::liveupdate::handshake(&self.hypervisor(), &successor)
            .map_err(|e| SwitchError::Transfer(e.to_string()))?;
        *self.pending_update.lock() = Some(VmmSet::build(
            &self.machine,
            &self.refcount,
            self.strategy,
            self.assist,
            successor,
            &self.dom0,
        ));
        Ok(())
    }

    /// Version of the staged successor VMM, if one is pending.
    pub fn staged_update_version(&self) -> Option<u32> {
        self.pending_update.lock().as_ref().map(|s| s.hv.version())
    }

    /// Drop a staged successor without applying it, handing its
    /// reserved frame pool back to the machine allocator (repeatedly
    /// staging and abandoning updates must not bleed memory).
    pub fn clear_staged_update(&self) {
        if let Some(staged) = self.pending_update.lock().take() {
            for f in staged.hv.decommission() {
                self.machine.allocator.free(f);
            }
        }
    }

    /// Live-update the running VMM to the staged successor: rendezvous
    /// every CPU, transfer hypervisor state v1 → v2 (the guest's
    /// domain record is *adopted*, never copied — guest memory and
    /// in-flight I/O rings are bit-identical across the swap by
    /// construction), commit the VMM/VO slots, and release the peers
    /// onto the successor.  No detach to native happens in between.
    ///
    /// The block rings are quiesced here, *before* the switch-critical
    /// handler runs, so the flush's disk I/O never extends the
    /// stop-the-world window.  After a committed update the incumbent
    /// is decommissioned and its reserved frames returned to the
    /// allocator (the successor holds its own reservation), so
    /// repeated updates do not leak the 512-frame warm-up pool.
    pub fn live_update(&self, cpu: &Arc<Cpu>) -> Result<SwitchOutcome, SwitchError> {
        if self.pending_update.lock().is_none() {
            return Err(SwitchError::NoUpdateStaged);
        }
        self.kernel
            .sync(cpu)
            .map_err(|e| SwitchError::Transfer(e.to_string()))?;
        let out = self.request(cpu, vectors::SELF_VIRT_UPDATE);
        // Off the critical path: whichever VMM lost the round — the
        // incumbent of a committed update, the discarded successor of a
        // rolled-back one — was parked for us; its reservation goes
        // back to the machine allocator.
        if let Some(husk) = self.retired_update.lock().take() {
            let reclaimed = husk.hv.decommission();
            let _n = reclaimed.len() as u64;
            for f in reclaimed {
                self.machine.allocator.free(f);
            }
            merctrace::counter!(cpu.id, "switch.liveupdate.reclaimed", _n, cpu.cycles());
        }
        out
    }

    /// Roll the running VMM forward one version: warm up a pristine
    /// successor, stage it, live-update onto it.  Anything short of a
    /// committed update — a refused stage, a deferral, a rollback —
    /// drops the staging and its reserved frames before the error is
    /// returned, so a caller cannot leak the successor's pool.
    pub fn roll_forward(&self, cpu: &Arc<Cpu>) -> Result<(), SwitchError> {
        if self.mode() != ExecMode::Virtual {
            return Err(SwitchError::NotVirtual);
        }
        let successor = Hypervisor::warm_up_versioned(&self.machine, self.hv_version() + 1);
        let out = self
            .stage_update(successor)
            .and_then(|()| self.live_update(cpu))
            .and_then(|out| match out {
                SwitchOutcome::Deferred { refcount } => Err(SwitchError::Busy(refcount)),
                _ => Ok(()),
            });
        if out.is_err() {
            self.clear_staged_update();
        }
        out
    }

    fn request(&self, cpu: &Arc<Cpu>, vector: u8) -> Result<SwitchOutcome, SwitchError> {
        *self.last_outcome.lock() = None;
        // The requester is this OS, on this CPU: while its request is
        // serviced the VMM must reflect to its domain, whichever hosted
        // guest the CPU was last focused on.
        let hv = self.hypervisor();
        let focus = hv.current(cpu.id);
        if self.mode() == ExecMode::Virtual {
            hv.set_current(cpu.id, Some(self.dom0.id));
        }
        cpu.raise(vector);
        // The switch executes at the next interrupt-service point; for
        // the requester that is right here.
        cpu.service_pending();
        let out = self
            .last_outcome
            .lock()
            .take()
            .unwrap_or(Err(SwitchError::NothingPending));
        // A completed switch reloaded the CPU for this OS; anything
        // else leaves the CPU where it was.
        if !matches!(out, Ok(SwitchOutcome::Completed { .. })) {
            hv.set_current(cpu.id, focus);
        }
        out
    }

    // ---- the transition driver (§5.1, §5.4) -----------------------------------

    /// The table the driver runs for `t` on this system (DESIGN.md §7).
    pub fn phases(&self, t: Transition) -> &'static [Phase] {
        let dirty = self.strategy.row().dirty_baseline;
        match (t, self.assist) {
            (Transition::Update, _) => LIVE_UPDATE,
            (Transition::Attach, AssistMode::HardwareAssisted) => ATTACH_HVM,
            (Transition::Detach, AssistMode::HardwareAssisted) => DETACH_HVM,
            (Transition::Attach, _) if dirty => ATTACH_DIRTY,
            (Transition::Attach, _) => ATTACH_FULL,
            (Transition::Detach, _) if dirty => DETACH_RETAIN,
            (Transition::Detach, _) => DETACH_CLEAR,
        }
    }

    /// The probes a completed `t` emits on the control processor, in
    /// order: each row, then the driver's fixed commit and per-CPU
    /// reload.
    pub fn timeline(&self, t: Transition) -> Vec<&'static str> {
        let rows = self.phases(t).iter().map(|row| row.name);
        rows.chain(["switch.vo_swap", "switch.reload_cpu"])
            .collect()
    }

    /// Abort the next transition just before the row named `row` (fault
    /// injection for tests and campaigns).  One-shot: consumed on firing.
    pub fn inject_abort(&self, row: Option<&'static str>) {
        *self.abort.lock() = row;
    }

    // volint::root(SWITCH)
    fn handle_transition(self: &Arc<Self>, cpu: &Arc<Cpu>, frame: &mut TrapFrame, t: Transition) {
        let result = self.run_transition(cpu, frame, t);
        let s = &self.stats;
        let bump = |counter: &AtomicU64| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        match &result {
            Ok(SwitchOutcome::Completed { cycles }) => {
                let (count, last, total) = match t {
                    Transition::Attach => {
                        (&s.attaches, &s.last_attach_cycles, &s.total_attach_cycles)
                    }
                    Transition::Detach => {
                        (&s.detaches, &s.last_detach_cycles, &s.total_detach_cycles)
                    }
                    Transition::Update => (
                        &s.live_updates,
                        &s.last_update_cycles,
                        &s.total_update_cycles,
                    ),
                };
                bump(count);
                last.store(*cycles, Ordering::Relaxed);
                total.fetch_add(*cycles, Ordering::Relaxed);
                if t != Transition::Update {
                    *self.pending.lock() = None;
                }
            }
            Err(SwitchError::Rendezvous(_)) => bump(&s.rendezvous_failures),
            Err(SwitchError::UpdateRolledBack(_)) => bump(&s.live_update_rollbacks),
            _ => {}
        }
        *self.last_outcome.lock() = Some(result);
    }

    /// Every transition is this one walk over a different table:
    /// refusals, the §5.1.1 gate, the §5.4 gather, the rows, then the
    /// commit or the derived rollback, the release, the per-CPU reload.
    fn run_transition(
        self: &Arc<Self>,
        cpu: &Arc<Cpu>,
        frame: &mut TrapFrame,
        t: Transition,
    ) -> Result<SwitchOutcome, SwitchError> {
        // The mode the kernel runs in once `t` has committed.
        let target = match t {
            Transition::Detach => ExecMode::Native,
            Transition::Attach | Transition::Update => ExecMode::Virtual,
        };
        if t == Transition::Update {
            // Only the VMM under the (unchanged) mode is replaced.
            if self.mode() != ExecMode::Virtual {
                return Err(SwitchError::NotVirtual);
            }
            if self.assist != AssistMode::Software {
                return Err(SwitchError::Transfer(
                    // volint::allow(SWITCH-ALLOC): message materializes only on the refused path, before any transfer starts
                    "live-update requires the software switching mechanism".to_string(),
                ));
            }
        } else {
            if self.mode() == target {
                return Ok(SwitchOutcome::AlreadyInMode);
            }
            if let ModeDetail::PartialVirtual { guests } = self.mode_detail() {
                return Err(SwitchError::GuestsPresent(guests));
            }
        }
        // §5.1.1: only switch when no virtualization-sensitive code is
        // in flight; otherwise defer (a mode switch to the retry timer).
        let rc = self.refcount.current();
        if rc != 0 {
            if t != Transition::Update {
                *self.pending.lock() = Some(target);
            }
            self.stats.deferrals.fetch_add(1, Ordering::Relaxed);
            merctrace::counter!(cpu.id, "switch.deferred", 1, cpu.cycles());
            return Ok(SwitchOutcome::Deferred { refcount: rc });
        }
        let t0 = cpu.rdtsc();
        // Probe name for the whole-transition span; only read when
        // tracing is compiled in, hence the underscore.
        let _span = match t {
            Transition::Attach => "switch.attach",
            Transition::Detach => "switch.detach",
            Transition::Update => "switch.update",
        };
        merctrace::span_begin!(cpu.id, _span, cpu.cycles());

        // §5.4: rendezvous the other CPUs.  A failed wait closes the
        // round, so no peer of it reloads.
        let peers = self.machine.num_cpus() - 1;
        if peers > 0 {
            merctrace::span_begin!(cpu.id, "switch.rendezvous.gather", cpu.cycles());
            self.rendezvous.begin().map_err(SwitchError::Rendezvous)?;
            self.machine
                .intc
                .broadcast_ipi(cpu, vectors::SELF_VIRT_RENDEZVOUS);
            let _w0 = cpu.cycles();
            self.rendezvous
                .wait_ready(peers)
                .map_err(SwitchError::Rendezvous)?;
            merctrace::hist!(
                cpu.id,
                "switch.rendezvous.wait",
                cpu.cycles() - _w0,
                cpu.cycles()
            );
            merctrace::span_end!(cpu.id, "switch.rendezvous.gather", cpu.cycles());
        }

        // An update consumes its staged successor here, inside the
        // round, whatever the outcome.
        let mut round = Round {
            cpu,
            staged: match t {
                Transition::Update => self.pending_update.lock().take(),
                _ => None,
            },
            scan: Cell::new(None),
        };
        let rows = self.phases(t);
        let mut entered = 0;
        let mut outcome = Ok(());
        // volint::bound(4) — the longest table has four rows
        for row in rows {
            if self
                .abort
                .lock()
                .take_if(|name| *name == row.name)
                .is_some()
            {
                outcome = Err(SwitchError::Transfer(
                    // volint::allow(SWITCH-ALLOC): message materializes only on the injected-fault path
                    format!("injected abort before {}", row.name),
                ));
                break;
            }
            entered += 1;
            merctrace::span_begin!(cpu.id, row.name, cpu.cycles());
            outcome = (row.run)(self, &round);
            merctrace::span_end!(cpu.id, row.name, cpu.cycles());
            if outcome.is_err() {
                break;
            }
        }

        if outcome.is_err() {
            // Failure-resistant transition (the paper's §8 future
            // work): a half-applied transfer would leave the kernel in
            // the "undefined state" of §4.2.  Undo every row entered,
            // newest first.
            // volint::bound(4) — at most every row of the table
            for row in rows.iter().take(entered).rev() {
                let _ = (row.undo)(self, &round);
            }
            // A rolled-back update parks its successor (see
            // `retired_update`) and says so in its error.
            if let Some(staged) = round.staged.take() {
                *self.retired_update.lock() = Some(staged);
                outcome = outcome.map_err(|e| match e {
                    SwitchError::Transfer(why) => SwitchError::UpdateRolledBack(why),
                    e => e,
                });
            }
        } else {
            // The commit, which has no row: it cannot fail or be
            // undone.  One pointer store relocates the kernel's
            // sensitive code (for an update, after the slots it is read
            // from), made while every other CPU is still parked (§5.4)
            // — a peer released first would reload for `target` and
            // then call through the other mode's VO.
            merctrace::span_begin!(cpu.id, "switch.vo_swap", cpu.cycles());
            if let Some(staged) = round.staged.take() {
                staged.hv.activate();
                let incumbent = std::mem::replace(&mut *self.vmm.write(), staged);
                *self.retired_update.lock() = Some(incumbent);
            }
            // volint::cost(256) — one pointer store plus the trace probes
            self.kernel.set_pv(match target {
                ExecMode::Virtual => self.virtual_vo() as Arc<dyn PvOps>,
                ExecMode::Native => self.native_vo() as Arc<dyn PvOps>,
            });
            merctrace::span_end!(cpu.id, "switch.vo_swap", cpu.cycles());
        }

        if peers > 0 {
            // Release the peers to do their per-CPU reload for the mode
            // now in force — the target, or after a rollback the
            // unchanged mode — with any scan stripe they were dealt.
            merctrace::span_begin!(cpu.id, "switch.rendezvous.release", cpu.cycles());
            self.rendezvous.signal_go((self.mode(), round.scan.get()));
            // A released peer that does not report back in time does not
            // undo the commit: the CP still reloads for the mode now in
            // force, and the late peer counts as a rendezvous failure.
            if self.rendezvous.wait_done(peers).is_err() {
                self.stats
                    .rendezvous_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
            merctrace::span_end!(cpu.id, "switch.rendezvous.release", cpu.cycles());
        }
        outcome?;

        self.reload_and_return(cpu, frame, target);
        merctrace::span_end!(cpu.id, _span, cpu.cycles());
        Ok(SwitchOutcome::Completed {
            cycles: cpu.rdtsc() - t0,
        })
    }

    // volint::root(SWITCH)
    fn handle_rendezvous_peer(self: &Arc<Self>, cpu: &Arc<Cpu>, frame: &mut TrapFrame) {
        // Check in pinned to the round in the word, and receive what
        // the CP released it with.  An error means no round was open —
        // a stale interrupt left over from an aborted rendezvous — or it
        // closed before the check-in landed or before go.
        let round = self.rendezvous.state();
        let Ok((target, scan)) = self.rendezvous.check_in_and_wait(round.epoch) else {
            return;
        };
        if let Some(scan) = scan {
            scan.charge_stripe(cpu);
        }
        self.reload_and_return(cpu, frame, target);
        self.rendezvous.complete_for(round.epoch);
    }

    /// What every CPU does once released (§5.1.3): reload gate table,
    /// descriptor table and CR3 (flushing stale translations) — or, with
    /// hardware assist, the VMCS — then commit the mode on this CPU by
    /// editing the return-stack privilege.  Non-root guests keep PL0.
    fn reload_and_return(&self, cpu: &Arc<Cpu>, frame: &mut TrapFrame, target: ExecMode) {
        merctrace::span_begin!(cpu.id, "switch.reload_cpu", cpu.cycles());
        // Read the slot fresh: a peer parked across a live-update must
        // install the successor the commit published, not the VMM that
        // was live when it checked in.
        let hv = self.hypervisor();
        let hvm = self.assist == AssistMode::HardwareAssisted;
        // volint::cost(8192) — STATE_RELOAD + gate/GDT swap + CR3 reload, flat per-CPU work
        if hvm {
            cpu.tick(costs::VMCS_SWITCH);
        }
        match (target, hvm) {
            (ExecMode::Virtual, true) => {
                cpu.set_non_root(self.ept.clone());
                cpu.tick(costs::VMENTRY);
            }
            (ExecMode::Native, true) => {
                cpu.set_non_root(None);
                cpu.tick(costs::VMEXIT);
            }
            (ExecMode::Virtual, false) => hv.install_on_cpu(cpu),
            (ExecMode::Native, false) => hv.remove_from_cpu(cpu, self.kernel.idt()),
        }
        hv.set_current(
            cpu.id,
            (target == ExecMode::Virtual).then_some(self.dom0.id),
        );
        if !hvm {
            // Reload the (unchanged) base pointer: flushes the TLB so
            // writability flips take effect.
            cpu.set_cr3_raw(cpu.cr3_raw());
        }
        merctrace::span_end!(cpu.id, "switch.reload_cpu", cpu.cycles());
        frame.return_pl = match (target, hvm) {
            (ExecMode::Virtual, false) => PrivLevel::Pl1,
            _ => PrivLevel::Pl0,
        };
    }

    // ---- phase bodies: state transfer (§5.1.2) --------------------------------
    //
    // An `undo` must tolerate its row's `run` having stopped half way;
    // its result is ignored.

    /// Flip the direct-map writability of every page-table frame:
    /// read-only under the VMM, writable again without it.  These are
    /// the VMM's own stores to the kernel's tables (the direct-map L1s
    /// are kernel tables too), and they cancel out across a native
    /// window; the window opens after the detach's flip and closes
    /// before the attach's, so a table stamped in between is one the
    /// kernel wrote.  An attach rolled back past this row reopens the
    /// window it closed.
    fn flip_tables<const READ_ONLY: bool>(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        let cpu = r.cpu;
        let kmap = self.kernel.kmap();
        let mem = &self.machine.mem;
        let tables = self.kernel.all_table_frames();
        if READ_ONLY {
            let vmm = self.vmm.read();
            vmm.rounds.lock().close(mem, &tables);
            vmm.hv.page_info.close_native_window(mem);
        }
        // volint::bound(256) — kernel table frames: one L2 root plus L1 tables for a 64 MiB pool, ≤ 256 by construction
        for &f in &tables {
            // volint::cost(12) — per-frame PTE read + writability flip
            let Some((l1, idx)) = kmap.locate(f) else {
                continue;
            };
            let pte = mem
                .read_pte(cpu, l1, idx)
                // volint::allow(SWITCH-ALLOC): map_err string materializes only on the failure path, after the transfer has already aborted
                .map_err(|e| SwitchError::Transfer(e.to_string()))?;
            if !pte.present() {
                continue;
            }
            let new = if READ_ONLY {
                pte.without_flags(Pte::WRITABLE)
            } else {
                pte.with_flags(Pte::WRITABLE)
            };
            mem.write_pte(cpu, l1, idx, new)
                // volint::allow(SWITCH-ALLOC): map_err string materializes only on the failure path, after the transfer has already aborted
                .map_err(|e| SwitchError::Transfer(e.to_string()))?;
        }
        if !READ_ONLY {
            if self.mode() == ExecMode::Virtual {
                self.open_native_window(tables);
            } else {
                self.vmm.read().rounds.lock().reopen();
            }
        }
        Ok(())
    }

    /// Rewrite cached kernel-segment selectors on every saved kernel
    /// stack (the §5.1.2 stack stub) — PL1 for a de-privileged kernel,
    /// PL0 otherwise — and charge the per-thread segment transfer.
    fn fix_selectors<const DEPRIVILEGED: bool>(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        let dpl = if DEPRIVILEGED {
            PrivLevel::Pl1
        } else {
            PrivLevel::Pl0
        };
        // volint::cost(4480) — ≤ 64 processes × THREAD_SEG_TRANSFER(70) selector rewrites
        self.kernel.fix_kstack_selectors(r.cpu, |ctx| {
            ctx.cs.rpl = dpl;
            ctx.ss.rpl = dpl;
        });
        r.cpu
            .tick(costs::THREAD_SEG_TRANSFER * self.kernel.process_count() as u64);
        Ok(())
    }

    /// Activate the pre-cached VMM and register the kernel's trap table
    /// with it (the VO-assistant step of §4.4).
    fn arm_vmm(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        // volint::cost(8192) — VMM activation flag flip + trap-table registration (≤ 32 gates)
        self.hypervisor().activate();
        self.virtual_vo()
            .load_trap_table(r.cpu, self.kernel.idt())
            // volint::allow(SWITCH-ALLOC): map_err string materializes only on the failure path, after the transfer has already aborted
            .map_err(|e| SwitchError::Transfer(e.to_string()))
    }

    /// Flip the VMM live or back to dormancy.  This is the whole
    /// hardware-assisted transfer: the VMCS/EPT carry all the state
    /// (§8); per-CPU work happens in the reload.
    fn vmm<const ACTIVE: bool>(&self, _: &Round<'_>) -> Result<(), SwitchError> {
        if ACTIVE {
            self.hypervisor().activate();
        } else {
            self.hypervisor().deactivate();
        }
        Ok(())
    }

    // ---- phase bodies: hypervisor live-update (DESIGN.md §16) -----------------

    /// The handshake, re-checked inside the critical section: the world
    /// may have moved since staging (a guest created, a successor corrupted).
    fn update_handshake(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        let successor = r.successor()?;
        // volint::cost(2048) — LIVE_UPDATE_HANDSHAKE: flat version-order/pristine/machine checks plus the ring-flush bookkeeping
        r.cpu.tick(costs::LIVE_UPDATE_HANDSHAKE);
        xenon::liveupdate::handshake(&self.hypervisor(), successor)
            // volint::allow(SWITCH-ALLOC): map_err string materializes only on the failure path, after the update has already aborted
            .map_err(|e| SwitchError::Transfer(e.to_string()))
    }

    /// State transfer.  The successor's frame accounting is recomputed
    /// from the authoritative guest page tables (cold — the successor
    /// has no dirty baseline to lean on), which also heals any
    /// corruption the incumbent's table may carry; ports, grants and
    /// the domain records themselves carry over adopted, not copied.
    fn update_transfer(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        // volint::cost(1638400) — cold successor rebuild: ≤ 16384 pool frames × PGINFO_RECOMPUTE_PER_FRAME(100)
        let _report = xenon::liveupdate::transfer(
            r.cpu,
            &self.hypervisor(),
            r.successor()?,
            costs::PGINFO_RECOMPUTE_PER_FRAME,
        )
        // volint::allow(SWITCH-ALLOC): map_err string materializes only on the failure path, after the update has already aborted
        .map_err(|e| SwitchError::Transfer(e.to_string()))?;
        merctrace::counter!(
            r.cpu.id,
            "switch.liveupdate.frames",
            _report.frames as u64,
            r.cpu.cycles()
        );
        Ok(())
    }

    /// Discard the successor back to pristine; the incumbent stays
    /// committed (DESIGN.md §16 rule #3).
    fn update_discard(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        xenon::liveupdate::discard(r.cpu, r.successor()?);
        Ok(())
    }

    /// The `undo` of a row whose `run` changes nothing.
    fn nothing(&self, _: &Round<'_>) -> Result<(), SwitchError> {
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stack::{NodeConfig, Stack};
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use nimbus::Session;
    use simx86::paging::{VirtAddr, PAGE_SIZE};

    /// The unit-test system: the default node with an 8 Ki-frame pool.
    pub(crate) fn rig_with(
        cpus: usize,
        strategy: TrackingStrategy,
        assist: AssistMode,
    ) -> (Arc<Machine>, Arc<Hypervisor>, Arc<Mercury>) {
        let config = NodeConfig {
            num_cpus: cpus,
            pool_frames: 8 * 1024,
            ..NodeConfig::default()
        };
        let Stack {
            machine,
            hv,
            mercury,
            ..
        } = Stack::build(&config, strategy, assist);
        (machine, hv, mercury)
    }

    pub(crate) fn rig(
        cpus: usize,
        strategy: TrackingStrategy,
    ) -> (Arc<Machine>, Arc<Hypervisor>, Arc<Mercury>) {
        rig_with(cpus, strategy, AssistMode::Software)
    }

    /// The serial reference walk: rebuild a scratch `page_info` for the
    /// *attached* kernel (detached, its tables are writable and fail
    /// validation) on the boot CPU at `per_frame` cycles per owned
    /// frame.  Returns the cycles it cost and the table.
    pub(crate) fn scratch_walk(mercury: &Mercury, per_frame: u64) -> (u64, Vec<xenon::PageInfo>) {
        let machine = &mercury.machine;
        let cpu = machine.boot_cpu();
        let dom = mercury.dom0().id;
        let pool = mercury.kernel().pool_frames();
        let scratch = xenon::PageInfoTable::new(machine.mem.num_frames());
        for &f in &pool {
            scratch.set_owner(f, Some(dom));
        }
        let t0 = cpu.cycles();
        scratch
            .recompute_for_at(
                cpu,
                &machine.mem,
                dom,
                pool.len(),
                &mercury.kernel().all_pgds(),
                per_frame,
            )
            .unwrap();
        (cpu.cycles() - t0, scratch.snapshot())
    }

    #[test]
    fn install_keeps_native_mode_with_counted_vo() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        assert_eq!(mercury.mode(), ExecMode::Native);
        assert_eq!(mercury.kernel().pv().name(), "mercury-native-vo");
        assert!(!hv.is_active());
        assert_eq!(machine.boot_cpu().pl(), PrivLevel::Pl0);
        // dom0 record pre-created, owning the kernel's frames.
        assert!(mercury.dom0().frame_count() > 4000);
    }

    #[test]
    fn attach_enters_virtual_mode_correctly() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let outcome = mercury.switch_to_virtual(cpu).unwrap();
        let SwitchOutcome::Completed { cycles } = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        assert!(cycles > 0);
        assert_eq!(mercury.mode(), ExecMode::Virtual);
        assert_eq!(
            cpu.pl(),
            PrivLevel::Pl1,
            "privilege dropped via return stack"
        );
        assert!(hv.is_active());
        assert_eq!(cpu.current_idt().unwrap().owner, "xenon");
        assert_eq!(cpu.current_gdt(), simx86::cpu::Gdt::VIRTUALIZED);
        // Every live pgd is pinned & typed.
        for pgd in mercury.kernel().all_pgds() {
            let (typ, count) = hv.page_info.type_of(pgd);
            assert_eq!(typ, xenon::PageType::L2);
            assert!(count > 0);
            assert!(hv.page_info.get(pgd).pinned);
        }
        // Table frames are read-only in the direct map (§5.1.2 item 1).
        let kmap = mercury.kernel().kmap();
        for f in mercury.kernel().all_table_frames() {
            if let Some((l1, idx)) = kmap.locate(f) {
                let pte = machine.mem.read_pte(cpu, l1, idx).unwrap();
                assert!(!pte.writable(), "table frame {f:?} still writable");
            }
        }
    }

    #[test]
    fn detach_restores_native_exactly() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        mercury.switch_to_virtual(cpu).unwrap();
        let outcome = mercury.switch_to_native(cpu).unwrap();
        assert!(matches!(outcome, SwitchOutcome::Completed { .. }));
        assert_eq!(mercury.mode(), ExecMode::Native);
        assert_eq!(cpu.pl(), PrivLevel::Pl0);
        assert!(!hv.is_active());
        assert_eq!(cpu.current_idt().unwrap().owner, "nimbus");
        assert_eq!(cpu.current_gdt(), simx86::cpu::Gdt::NATIVE);
        // Accounting wiped, tables writable again.
        for pgd in mercury.kernel().all_pgds() {
            assert_eq!(hv.page_info.type_of(pgd), (xenon::PageType::None, 0));
        }
        let kmap = mercury.kernel().kmap();
        for f in mercury.kernel().all_table_frames() {
            if let Some((l1, idx)) = kmap.locate(f) {
                assert!(machine.mem.read_pte(cpu, l1, idx).unwrap().writable());
            }
        }
    }

    #[test]
    fn workload_runs_identically_across_switches() {
        // §4.3 behaviour consistency: a workload spanning mode switches
        // sees no difference.
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 100).unwrap();

        mercury.switch_to_virtual(cpu).unwrap();
        // Memory contents and mappings survived; new work proceeds.
        assert_eq!(sess.peek(va).unwrap(), 100);
        sess.poke(VirtAddr(va.0 + PAGE_SIZE), 200).unwrap();
        let child = sess.fork().unwrap();
        assert!(child.0 > 1);
        let fd = sess.open("cross.txt", true).unwrap();
        sess.write(fd, b"written virtual").unwrap();

        mercury.switch_to_native(cpu).unwrap();
        assert_eq!(sess.peek(va).unwrap(), 100);
        assert_eq!(sess.peek(VirtAddr(va.0 + PAGE_SIZE)).unwrap(), 200);
        assert_eq!(sess.stat("cross.txt").unwrap().size, 15);
        // And a process forked in virtual mode is still schedulable.
        sess.sched_yield().unwrap();
        assert_eq!(sess.current_pid(), Some(child));
    }

    #[test]
    fn busy_vo_defers_and_retry_timer_commits() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let guard = mercury.vo_refcount().enter();
        let outcome = mercury.switch_to_virtual(cpu).unwrap();
        assert_eq!(outcome, SwitchOutcome::Deferred { refcount: 1 });
        assert_eq!(mercury.mode(), ExecMode::Native);
        assert_eq!(mercury.pending_target(), Some(ExecMode::Virtual));
        assert_eq!(mercury.stats.deferrals.load(Ordering::Relaxed), 1);

        // Still busy at the next tick: stays native.
        let_the_retry_timer_fire(&machine, cpu);
        assert_eq!(mercury.mode(), ExecMode::Native);

        // Release and let the retry timer fire (§5.1.1).
        drop(guard);
        let_the_retry_timer_fire(&machine, cpu);
        assert_eq!(mercury.mode(), ExecMode::Virtual);
        assert_eq!(mercury.pending_target(), None);
    }

    /// One retry period passes and its timer tick is serviced: what
    /// §5.1.1 does with whatever a deferred or refused caller left.
    pub(crate) fn let_the_retry_timer_fire(machine: &Machine, cpu: &Arc<Cpu>) {
        cpu.tick(costs::SWITCH_RETRY_PERIOD + 1000);
        machine.timer.poll(cpu);
        cpu.service_pending();
    }

    #[test]
    fn refused_bracket_leaves_nothing_for_the_retry_timer() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let guard = mercury.vo_refcount().enter();
        let ran = std::cell::Cell::new(false);
        let out = mercury.on_demand(cpu, |_| {
            ran.set(true);
            Ok::<_, SwitchError>(())
        });
        assert_eq!(out, Err(SwitchError::Busy(1)));
        assert!(!ran.get(), "the body runs on the VMM or not at all");
        assert_eq!(mercury.pending_target(), None);

        drop(guard);
        let_the_retry_timer_fire(&machine, cpu);
        assert_eq!(mercury.mode(), ExecMode::Native);
        assert!(!hv.is_active());
    }

    #[test]
    fn bracket_undoes_its_attach_when_the_body_fails() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let out = mercury.on_demand(cpu, |attached| {
            assert!(attached && hv.is_active());
            Err::<(), _>(SwitchError::NothingPending)
        });
        assert_eq!(out, Err(SwitchError::NothingPending));
        assert_eq!(mercury.mode(), ExecMode::Native);
        assert!(!hv.is_active());
        assert_eq!(mercury.stats.snapshot().detaches, 1);
    }

    #[test]
    fn bracket_leaves_an_already_virtual_node_virtual() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        mercury.switch_to_virtual(cpu).unwrap();
        let before = (cpu.cycles(), mercury.stats.snapshot());
        let out = mercury.on_demand(cpu, |attached| {
            assert!(!attached);
            Err::<(), _>(SwitchError::NothingPending)
        });
        assert_eq!(out, Err(SwitchError::NothingPending));
        assert_eq!(mercury.mode(), ExecMode::Virtual);
        assert!(hv.is_active());
        // It only undoes what it did, and asking cost nothing.
        assert_eq!((cpu.cycles(), mercury.stats.snapshot()), before);
    }

    #[test]
    fn switch_times_match_paper_shape() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let SwitchOutcome::Completed { cycles: attach } = mercury.switch_to_virtual(cpu).unwrap()
        else {
            panic!()
        };
        let SwitchOutcome::Completed { cycles: detach } = mercury.switch_to_native(cpu).unwrap()
        else {
            panic!()
        };
        let attach_us = costs::cycles_to_us(attach);
        let detach_us = costs::cycles_to_us(detach);
        // §7.4: "about 0.22 ms to do a switch from native mode to
        // virtual mode, and 0.06 ms to a switch back".
        assert!(
            (60.0..600.0).contains(&attach_us),
            "attach {attach_us} µs out of band"
        );
        assert!(
            detach_us < attach_us / 2.0,
            "detach {detach_us} µs not ≪ attach"
        );
        assert!(detach_us > 1.0);
    }

    #[test]
    fn active_tracking_attaches_faster() {
        let (m1, _h1, recompute) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let (m2, _h2, tracking) = rig(1, TrackingStrategy::ActiveTracking);
        let SwitchOutcome::Completed { cycles: slow } =
            recompute.switch_to_virtual(m1.boot_cpu()).unwrap()
        else {
            panic!()
        };
        let SwitchOutcome::Completed { cycles: fast } =
            tracking.switch_to_virtual(m2.boot_cpu()).unwrap()
        else {
            panic!()
        };
        assert!(
            fast < slow / 2,
            "active tracking attach ({fast}) should be well under recompute ({slow})"
        );
    }

    #[test]
    fn repeated_round_trips_are_stable() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();

        let mut snapshots = Vec::new();
        for i in 0..5u64 {
            sess.poke(va, i).unwrap();
            mercury.switch_to_virtual(cpu).unwrap();
            snapshots.push(hv.page_info.snapshot());
            assert_eq!(sess.peek(va).unwrap(), i);
            mercury.switch_to_native(cpu).unwrap();
        }
        // Idempotence: every attach rebuilt identical accounting.
        for w in snapshots.windows(2) {
            assert_eq!(w[0], w[1], "page_info differs between attaches");
        }
        assert_eq!(mercury.stats.attaches.load(Ordering::Relaxed), 5);
        assert_eq!(mercury.stats.detaches.load(Ordering::Relaxed), 5);
    }

    /// The snapshot's difference is the hand-loaded atomics' difference.
    #[test]
    fn counts_since_a_base_match_the_atomics_after_one_round_trip() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::default());
        let cpu = machine.boot_cpu();
        mercury.switch_to_virtual(cpu).unwrap();
        mercury.switch_to_native(cpu).unwrap();
        let stats = &mercury.stats;
        let by_hand = || {
            [
                &stats.attaches,
                &stats.detaches,
                &stats.total_attach_cycles,
                &stats.total_detach_cycles,
                &stats.deferrals,
            ]
            .map(|counter| counter.load(Ordering::Relaxed))
        };
        let (base, base_by_hand) = (stats.snapshot(), by_hand());
        mercury.switch_to_virtual(cpu).unwrap();
        mercury.switch_to_native(cpu).unwrap();
        let since = stats.snapshot() - base;
        let since_by_hand: Vec<u64> = by_hand()
            .iter()
            .zip(base_by_hand)
            .map(|(now, base)| now - base)
            .collect();
        assert_eq!(
            vec![
                since.attaches,
                since.detaches,
                since.attach_cycles,
                since.detach_cycles,
                since.deferrals
            ],
            since_by_hand
        );
        assert_eq!((since.attaches, since.detaches), (1, 1));
        assert!(since.attach_cycles > 0 && since.detach_cycles > 0);
        assert_eq!(base + since, stats.snapshot());
    }

    #[test]
    fn detach_refused_while_hosting_guests() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        mercury.switch_to_virtual(cpu).unwrap();
        // Host a guest (the M-U shape).
        let quota = machine.allocator.alloc_many(cpu, 64).unwrap();
        let domu = hv.create_domain(cpu, "domU", quota, 0).unwrap();
        let err = mercury.switch_to_native(cpu).unwrap_err();
        assert_eq!(err, SwitchError::GuestsPresent(1));
        assert_eq!(mercury.mode(), ExecMode::Virtual);
        // Destroy the guest: detach proceeds.
        let frames = hv.destroy_domain(cpu, &domu).unwrap();
        for f in frames {
            machine.allocator.free(f);
        }
        assert!(matches!(
            mercury.switch_to_native(cpu).unwrap(),
            SwitchOutcome::Completed { .. }
        ));
    }

    #[test]
    fn mode_detail_follows_hosted_guests() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        assert_eq!(mercury.mode_detail(), ModeDetail::Native);
        mercury.switch_to_virtual(cpu).unwrap();
        // Alone on the VMM: migratable (§6.3's full-virtual mode).
        assert_eq!(mercury.mode_detail(), ModeDetail::FullVirtual);
        let quota = machine.allocator.alloc_many(cpu, 16).unwrap();
        let dom = hv.create_domain(cpu, "tenant", quota, 0).unwrap();
        // Hosting: partial-virtual mode.
        assert_eq!(
            mercury.mode_detail(),
            ModeDetail::PartialVirtual { guests: 1 }
        );
        let frames = hv.destroy_domain(cpu, &dom).unwrap();
        for f in frames {
            machine.allocator.free(f);
        }
        assert_eq!(mercury.mode_detail(), ModeDetail::FullVirtual);
        mercury.switch_to_native(cpu).unwrap();
        assert_eq!(mercury.mode_detail(), ModeDetail::Native);
    }

    #[test]
    fn already_in_mode_is_a_noop() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        assert_eq!(
            mercury.switch_to_native(cpu).unwrap(),
            SwitchOutcome::AlreadyInMode
        );
        mercury.switch_to_virtual(cpu).unwrap();
        assert_eq!(
            mercury.switch_to_virtual(cpu).unwrap(),
            SwitchOutcome::AlreadyInMode
        );
    }

    #[test]
    fn smp_switch_coordinates_both_cpus() {
        use std::sync::atomic::AtomicBool as StopFlag;
        let (machine, _hv, mercury) = rig(2, TrackingStrategy::RecomputeOnSwitch);
        let cpu0 = Arc::clone(&machine.cpus[0]);
        let cpu1 = Arc::clone(&machine.cpus[1]);

        // CPU 1 runs a service loop on its own thread (as a real second
        // core would execute code with interrupts enabled).
        let stop = Arc::new(StopFlag::new(false));
        let peer = {
            let stop = Arc::clone(&stop);
            let cpu1 = Arc::clone(&cpu1);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    cpu1.tick(50);
                    cpu1.service_pending();
                    std::thread::yield_now();
                }
            })
        };

        let out = mercury.switch_to_virtual(&cpu0).unwrap();
        assert!(matches!(out, SwitchOutcome::Completed { .. }));
        assert_eq!(cpu0.pl(), PrivLevel::Pl1);
        // Wait for CPU1's handler to have run its reload step.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while cpu1.pl() != PrivLevel::Pl1 {
            assert!(std::time::Instant::now() < deadline, "cpu1 never switched");
            std::thread::yield_now();
        }
        assert_eq!(cpu1.current_idt().unwrap().owner, "xenon");

        let out = mercury.switch_to_native(&cpu0).unwrap();
        assert!(matches!(out, SwitchOutcome::Completed { .. }));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while cpu1.pl() != PrivLevel::Pl0 {
            assert!(
                std::time::Instant::now() < deadline,
                "cpu1 never switched back"
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        peer.join().unwrap();
        assert_eq!(cpu1.current_idt().unwrap().owner, "nimbus");
    }

    #[test]
    fn failed_rendezvous_leaves_no_stale_round() {
        // Regression for the stale rv_target bug: the round descriptor
        // used to be published *before* begin() and left set on the
        // Busy/timeout error paths, so a later peer could read a stale
        // target and reload into the wrong mode (split brain).
        let (machine, _hv, mercury) = rig(2, TrackingStrategy::RecomputeOnSwitch);
        let cpu0 = Arc::clone(&machine.cpus[0]);

        // Busy: another CPU owns a round, so begin() fails — the
        // owning round must not be disturbed.
        let held = mercury.rendezvous.begin().unwrap();
        let owned = mercury.rendezvous.state();
        let err = mercury.switch_to_virtual(&cpu0).unwrap_err();
        assert_eq!(err, SwitchError::Rendezvous(RendezvousError::Busy));
        assert_eq!(
            mercury.rendezvous.state(),
            owned,
            "a Busy switch attempt must leave the owning round as it was"
        );
        // Retire the held round (zero peers → the waits are trivial).
        mercury.rendezvous.signal_go((ExecMode::Native, None));
        mercury.rendezvous.wait_done(0).unwrap();

        // Timeout: the peer never services, wait_ready aborts — the
        // round must be closed, and the CP stays native.
        let err = mercury.switch_to_virtual(&cpu0).unwrap_err();
        assert_eq!(err, SwitchError::Rendezvous(RendezvousError::Timeout));
        assert_eq!(cpu0.pl(), PrivLevel::Pl0);
        let closed = mercury.rendezvous.state();
        assert!(
            !closed.open && closed.epoch == held + 1,
            "a timed-out switch must close its round: {closed:?}"
        );
        // The rendezvous IPI is still pending on CPU1.  Servicing it
        // now must find no open round and leave the CPU untouched.
        let cpu1 = Arc::clone(&machine.cpus[1]);
        cpu1.tick(50);
        cpu1.service_pending();
        assert_eq!(mercury.rendezvous.state(), closed, "the ghost was counted");
        assert_eq!(cpu1.pl(), PrivLevel::Pl0);
        assert_eq!(cpu1.current_idt().unwrap().owner, "nimbus");
        assert_eq!(mercury.mode(), ExecMode::Native);
    }

    #[test]
    fn a_late_completion_keeps_the_committed_reload() {
        // A released peer that never reports done times `wait_done` out
        // after the VO swap and the go: the attach has committed, so
        // the CP reloads for it all the same, and the mode, the CP's
        // privilege, its gate table and the VMM's focus agree.
        let (machine, _hv, mercury) = rig(2, TrackingStrategy::RecomputeOnSwitch);
        let cpu0 = Arc::clone(&machine.cpus[0]);
        // Stands in for CPU 1, whose IPI stays pending: checks in to
        // the round, takes the release and never completes.
        let straggler = {
            let mercury = Arc::clone(&mercury);
            std::thread::spawn(move || {
                let rv = &mercury.rendezvous;
                let deadline = std::time::Instant::now() + crate::rendezvous::RENDEZVOUS_TIMEOUT;
                while !rv.state().open {
                    assert!(std::time::Instant::now() < deadline, "no round opened");
                    std::thread::yield_now();
                }
                rv.check_in_and_wait(rv.state().epoch)
            })
        };
        let out = mercury.switch_to_virtual(&cpu0);
        let released = straggler.join().unwrap();
        assert!(released.is_ok(), "the straggler was not released");
        let virt = mercury.mode() == ExecMode::Virtual;
        assert_eq!(
            (
                cpu0.pl() == PrivLevel::Pl1,
                cpu0.current_idt().unwrap().owner == "xenon",
                mercury.hypervisor().current(0) == Some(mercury.dom0.id),
            ),
            (virt, virt, virt),
            "the CP disagrees with mode() = {:?} after {out:?}",
            mercury.mode()
        );
        assert!(virt && matches!(out, Ok(SwitchOutcome::Completed { .. })));
        assert_eq!(mercury.stats.rendezvous_failures.load(Ordering::Relaxed), 1);
    }

    /// Run `f` on the boot CPU while every other CPU of `machine` only
    /// services its interrupts, on a host thread of its own; the peers
    /// are joined before this returns, so their clocks have settled.
    fn with_serving_peers<R>(machine: &Machine, f: impl FnOnce() -> R) -> R {
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for cpu in &machine.cpus[1..] {
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        cpu.service_pending();
                        std::thread::yield_now();
                    }
                });
            }
            let out = f();
            stop.store(true, Ordering::Release);
            out
        })
    }

    #[test]
    fn sharded_recompute_beats_serial_on_smp() {
        let (machine, hv, mercury) = rig(4, TrackingStrategy::RecomputeOnSwitch);
        let cpu0 = &machine.cpus[0];
        with_serving_peers(&machine, || mercury.switch_to_virtual(cpu0).unwrap());
        let sharded = mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed);
        let snap_sharded = hv.page_info.snapshot();
        // The serial reference: the same walk over a scratch table, on
        // the CP alone.
        let (serial, snap_serial) = scratch_walk(&mercury, costs::PGINFO_RECOMPUTE_PER_FRAME);
        with_serving_peers(&machine, || mercury.switch_to_native(cpu0).unwrap());
        assert_eq!(
            snap_sharded, snap_serial,
            "sharded validation must rebuild the exact serial accounting"
        );
        assert!(
            serial >= sharded * 2,
            "4-CPU sharded recompute phase ({sharded}) must be ≥2× faster than serial ({serial})"
        );
    }

    #[test]
    fn an_smp_attach_costs_its_stripe_arithmetic_on_every_run() {
        // Each attach's accounting phase and every CPU's clock delta
        // over it, on a fresh rig; and the rate-0 walk's cycles.
        fn attaches(strategy: TrackingStrategy) -> (Vec<u64>, Vec<Vec<u64>>, u64, usize) {
            let (machine, _hv, mercury) = rig(4, strategy);
            let cpu0 = &machine.cpus[0];
            let clocks = || machine.cpus.iter().map(|c| c.cycles()).collect::<Vec<_>>();
            let (mut pginfo, mut deltas) = (Vec::new(), Vec::new());
            for round in 0..3 {
                if round > 0 {
                    with_serving_peers(&machine, || mercury.switch_to_native(cpu0).unwrap());
                }
                let before = clocks();
                with_serving_peers(&machine, || mercury.switch_to_virtual(cpu0).unwrap());
                pginfo.push(mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed));
                deltas.push(clocks().iter().zip(before).map(|(a, b)| a - b).collect());
            }
            let (walk, _) = scratch_walk(&mercury, 0);
            (pginfo, deltas, walk, mercury.kernel().pool_size())
        }
        let first = attaches(TrackingStrategy::RecomputeOnSwitch);
        let second = attaches(TrackingStrategy::RecomputeOnSwitch);
        assert_eq!(first, second, "two rigs, same cycles");
        let (pginfo, deltas, walk, owned) = first;
        // 32 chunks on 4 CPUs: eight each.  The CP's stripe is as long
        // as any, so the phase costs exactly that stripe plus the walk.
        assert_eq!(owned, 32 * crate::shard::SHARD_CHUNK_FRAMES);
        let chunk = costs::PGINFO_RECOMPUTE_PER_FRAME * owned as u64 / 32;
        let stripe = 8 * (chunk + costs::SHARD_CHUNK_DISPATCH);
        assert_eq!(pginfo, [walk + stripe; 3]);
        // A peer's attach is its reload, which a dirty attach (no
        // whole-pool walk) makes alone, plus its stripe.
        let (_, reloads, _, _) = attaches(TrackingStrategy::DirtyRecompute);
        for (d, r) in deltas.iter().zip(&reloads) {
            assert_eq!(d[0], deltas[0][0]);
            let paid: Vec<u64> = r[1..].iter().map(|r| r + stripe).collect();
            assert_eq!(d[1..], paid);
        }
    }

    /// Map the boot CPU's base table writable behind a fresh page, so
    /// the next whole-pool walk fails validation.
    fn plant_writable_base_table(machine: &Machine, mercury: &Mercury) {
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(1, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 1).unwrap();
        plant_over(machine, va);
    }

    /// The leaf table mapping `va` and the entry that does.
    fn leaf_of(machine: &Machine, va: VirtAddr) -> (Pte, simx86::FrameNum, usize) {
        let cpu0 = &machine.cpus[0];
        let pgd = simx86::FrameNum(cpu0.cr3_raw());
        simx86::Mmu::walk_leaf(&machine.mem, cpu0, pgd, va)
            .unwrap()
            .unwrap()
    }

    /// Turn the mapping of `va` into a writable mapping of the base
    /// table with a raw store, past every VO.
    fn plant_over(machine: &Machine, va: VirtAddr) {
        let cpu0 = &machine.cpus[0];
        let (pte, table, index) = leaf_of(machine, va);
        let pgd = cpu0.cr3_raw();
        let planted = Pte::new(pgd, (pte.0 & 0xfff) | Pte::WRITABLE);
        machine.mem.write_pte(cpu0, table, index, planted).unwrap();
        cpu0.flush_tlb_local();
    }

    /// A table written while native with a store no VO saw is read
    /// from memory at the attach, under every strategy: the attach
    /// rolls back as the walk does, whether the write is the table's
    /// first since the detach or follows a tracked one that left the
    /// retained records a pre-image to diff against.
    #[test]
    fn an_attach_over_an_untracked_table_write_rolls_back() {
        for strategy in TrackingStrategy::ALL {
            for tracked_first in [false, true] {
                let (machine, hv, mercury) = rig(1, strategy);
                let cpu = machine.boot_cpu();
                let sess = Session::new(Arc::clone(mercury.kernel()), 0);
                // A leaf table the detach retains, mapping a page.
                let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
                sess.poke(va, 1).unwrap();
                mercury.switch_to_virtual(cpu).unwrap();
                mercury.switch_to_native(cpu).unwrap();
                let (_, table, index) = leaf_of(&machine, va);
                if tracked_first {
                    let next = (index + 1) % simx86::paging::ENTRIES_PER_TABLE;
                    mercury
                        .kernel()
                        .pv()
                        .set_pte(cpu, table, next, Pte::ABSENT)
                        .unwrap();
                }
                plant_over(&machine, va);
                let before = hv.page_info.snapshot();

                let err = mercury.switch_to_virtual(cpu).unwrap_err();
                let case = format!("{strategy:?}, tracked write first: {tracked_first}");
                assert!(matches!(err, SwitchError::Transfer(_)), "{case}: {err:?}");
                assert_eq!(mercury.mode(), ExecMode::Native, "{case}");
                assert_eq!(hv.page_info.snapshot(), before, "{case}");
            }
        }
    }

    #[test]
    fn an_smp_attach_over_a_writable_page_table_rolls_back() {
        let (machine, hv, mercury) = rig(4, TrackingStrategy::RecomputeOnSwitch);
        let cpu0 = &machine.cpus[0];
        plant_writable_base_table(&machine, &mercury);
        let before = hv.page_info.snapshot();

        let err = with_serving_peers(&machine, || mercury.switch_to_virtual(cpu0).unwrap_err());
        assert!(matches!(err, SwitchError::Transfer(_)), "{err:?}");
        assert_eq!(mercury.mode(), ExecMode::Native);
        let closed = mercury.rendezvous.state();
        assert!(
            !closed.open,
            "the failed attach left its round open: {closed:?}"
        );
        for cpu in &machine.cpus {
            assert_eq!(cpu.pl(), PrivLevel::Pl0, "cpu{} left virtual", cpu.id);
            assert_eq!(cpu.current_idt().unwrap().owner, "nimbus");
        }
        assert_eq!(hv.page_info.snapshot(), before);
    }

    #[test]
    fn a_failed_smp_attach_charges_the_peers_stripes_once_the_scan_is_dealt() {
        // Every peer's clock delta over one failed attach on a fresh rig.
        fn peer_deltas(fail: impl FnOnce(&Machine, &Mercury)) -> (Vec<u64>, usize) {
            let (machine, _hv, mercury) = rig(4, TrackingStrategy::RecomputeOnSwitch);
            fail(&machine, &mercury);
            let clocks = || machine.cpus.iter().map(|c| c.cycles()).collect::<Vec<_>>();
            let before = clocks();
            let cpu0 = &machine.cpus[0];
            let err = with_serving_peers(&machine, || mercury.switch_to_virtual(cpu0).unwrap_err());
            assert!(matches!(err, SwitchError::Transfer(_)), "{err:?}");
            let deltas = clocks().into_iter().zip(before).map(|(a, b)| a - b);
            (deltas.skip(1).collect(), mercury.kernel().pool_size())
        }
        // The walk fails inside the row, after the CP dealt the scan …
        let (walked, owned) = peer_deltas(plant_writable_base_table);
        // … and an abort before the row deals none.
        let (aborted, _) =
            peer_deltas(|_, mercury| mercury.inject_abort(Some("switch.transfer.pginfo_full")));
        let chunk = costs::PGINFO_RECOMPUTE_PER_FRAME * owned as u64 / 32;
        let stripe = 8 * (chunk + costs::SHARD_CHUNK_DISPATCH);
        let paid: Vec<u64> = aborted.iter().map(|d| d + stripe).collect();
        assert_eq!(walked, paid);
    }

    #[test]
    fn dirty_recompute_attaches_cheap_from_the_boot_precache() {
        let (m_dirty, h_dirty, dirty) = rig(1, TrackingStrategy::DirtyRecompute);
        let (m_full, _h2, full) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu_d = m_dirty.boot_cpu();
        let cpu_f = m_full.boot_cpu();

        // Install pre-computed the accounting and armed the dirty
        // baseline, so even the FIRST attach runs at the cheap
        // snapshot-restore rate — no full-rate cold scan remains on the
        // switch path.
        let SwitchOutcome::Completed {
            cycles: cold_attach,
        } = dirty.switch_to_virtual(cpu_d).unwrap()
        else {
            panic!()
        };
        let cold = dirty.stats.last_pginfo_cycles.load(Ordering::Relaxed);
        dirty.switch_to_native(cpu_d).unwrap();
        // Idle native window: nothing dirtied, so the re-attach merely
        // restores clean frames from the detach snapshot.
        let SwitchOutcome::Completed {
            cycles: warm_attach,
        } = dirty.switch_to_virtual(cpu_d).unwrap()
        else {
            panic!()
        };
        let warm = dirty.stats.last_pginfo_cycles.load(Ordering::Relaxed);

        full.switch_to_virtual(cpu_f).unwrap();
        full.switch_to_native(cpu_f).unwrap();
        let SwitchOutcome::Completed {
            cycles: full_attach,
        } = full.switch_to_virtual(cpu_f).unwrap()
        else {
            panic!()
        };
        let full_pginfo = full.stats.last_pginfo_cycles.load(Ordering::Relaxed);

        assert!(
            cold * 5 <= full_pginfo,
            "boot-precached cold attach ({cold}) must already run ≥5× under full recompute ({full_pginfo})"
        );
        assert!(
            warm * 5 <= full_pginfo,
            "warm pginfo phase ({warm}) not ≥5× under full recompute ({full_pginfo})"
        );
        assert!(
            full_attach >= warm_attach * 5,
            "warm re-attach ({warm_attach}) must be ≥5× cheaper than recompute ({full_attach})"
        );
        assert!(
            full_attach >= cold_attach * 5,
            "cold attach ({cold_attach}) must also be ≥5× cheaper than recompute ({full_attach})"
        );
        // The cheap path still rebuilt correct accounting.
        for pgd in dirty.kernel().all_pgds() {
            let (typ, count) = h_dirty.page_info.type_of(pgd);
            assert_eq!(typ, xenon::PageType::L2);
            assert!(count > 0);
            assert!(h_dirty.page_info.get(pgd).pinned);
        }
    }

    /// An adopted OS must detach before it can attach, so even its
    /// first attach has a snapshot: the dirty table, never the full scan.
    #[test]
    fn adopted_os_attaches_on_the_dirty_table() {
        // The adopted shape §6.1 makes: an OS checkpointed on one
        // machine and restored, as a guest, onto another.
        let (source, _hv, installed) = rig(1, TrackingStrategy::default());
        let ckpt = crate::scenarios::checkpoint::take(&installed, source.boot_cpu()).unwrap();
        let machine = Machine::new(simx86::MachineConfig {
            num_cpus: 1,
            mem_frames: 16 * 1024,
            disk_sectors: 64 * 1024,
        });
        let cpu = machine.boot_cpu();
        let restored = crate::scenarios::checkpoint::restore(&machine, &ckpt).unwrap();
        let nimbus::BootMode::Guest { dom, .. } = restored.kernel.boot_mode().clone() else {
            panic!("a restored OS runs as a guest")
        };
        let mercury = Mercury::adopt(
            restored.kernel,
            restored.hv,
            dom,
            TrackingStrategy::default(),
        )
        .unwrap();

        let completed = |out| matches!(out, Ok(SwitchOutcome::Completed { .. }));
        assert!(completed(mercury.switch_to_native(cpu)));
        assert!(completed(mercury.switch_to_virtual(cpu)));
        let attach = mercury.timeline(Transition::Attach);
        assert_eq!(attach, installed.timeline(Transition::Attach));
        assert!(attach.contains(&ACCOUNT_DIRTY.name) && !attach.contains(&ACCOUNT_FULL.name));
        let owned = mercury.kernel().pool_frames().len() as u64;
        let pginfo = mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed);
        assert!(
            pginfo * 5 <= costs::PGINFO_RECOMPUTE_PER_FRAME * owned,
            "{pginfo}"
        );
    }

    #[test]
    fn dirty_writes_raise_the_warm_reattach_price() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::DirtyRecompute);
        let cpu = machine.boot_cpu();
        mercury.switch_to_virtual(cpu).unwrap();
        mercury.switch_to_native(cpu).unwrap();
        assert_eq!(mercury.revalidation_backlog(), []);

        // Native-mode page-table mutations mark their table frames
        // dirty through the VO sink.
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
        for p in 0..8u64 {
            sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
        }
        let dirtied = mercury.revalidation_backlog().len();
        assert!(dirtied > 0, "faulted-in pages must dirty their tables");

        mercury.switch_to_virtual(cpu).unwrap();
        let warm = mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed);
        let clean = mercury.kernel().pool_frames().len() - dirtied;
        let floor = dirtied as u64 * costs::PGINFO_RECOMPUTE_PER_FRAME
            + clean as u64 * crate::pgtrack::RESTORE_PER_FRAME;
        assert!(
            warm >= floor,
            "re-attach ({warm}) must pay the blended rate for {dirtied} dirty frames ({floor})"
        );
        assert_eq!(sess.peek(va).unwrap(), 0);
    }

    #[test]
    fn kstack_selectors_are_rewritten_across_switch() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        // Park a process with a saved context on its kernel stack.
        let child = sess.fork().unwrap();
        assert_eq!(sess.waitpid().unwrap(), None); // parent blocks; child runs
        assert_eq!(sess.current_pid(), Some(child));
        assert!(mercury.kernel().kstack_contexts() > 0);

        // Switch modes, then resume the parked process: without the
        // §5.1.2 selector fixup this pops a stale PL0 selector under the
        // PL1 GDT and faults.
        mercury.switch_to_virtual(cpu).unwrap();
        sess.exit(0).unwrap(); // child exits; parent is rescheduled
        assert_eq!(sess.current_pid(), Some(nimbus::Pid(1)));
        let reaped = sess.waitpid().unwrap().unwrap();
        assert_eq!(reaped.0, child);
    }
}

#[cfg(test)]
mod hw_tests {
    use super::tests::{rig, rig_with};
    use super::*;
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use nimbus::Session;
    use simx86::paging::{VirtAddr, PAGE_SIZE};

    fn hw_rig() -> (Arc<Machine>, Arc<Hypervisor>, Arc<Mercury>) {
        rig_with(
            1,
            TrackingStrategy::RecomputeOnSwitch,
            AssistMode::HardwareAssisted,
        )
    }

    #[test]
    fn hardware_attach_enters_non_root_at_pl0() {
        let (machine, hv, mercury) = hw_rig();
        let cpu = machine.boot_cpu();
        assert_eq!(mercury.assist(), AssistMode::HardwareAssisted);
        let SwitchOutcome::Completed { cycles } = mercury.switch_to_virtual(cpu).unwrap() else {
            panic!()
        };
        assert_eq!(mercury.mode(), ExecMode::Virtual);
        // The §8 story: no de-privileging, guest keeps its gate table.
        assert_eq!(cpu.pl(), PrivLevel::Pl0);
        assert!(cpu.in_non_root());
        assert_eq!(cpu.current_idt().unwrap().owner, "nimbus");
        assert!(hv.is_active());
        assert_eq!(mercury.kernel().pv().name(), "mercury-virtual-vo");
        // ... and it is fast: no recompute, no flips, no fixups.
        let us = costs::cycles_to_us(cycles);
        assert!(us < 20.0, "hardware attach took {us} µs");

        mercury.switch_to_native(cpu).unwrap();
        assert!(!cpu.in_non_root());
        assert_eq!(cpu.pl(), PrivLevel::Pl0);
        assert!(!hv.is_active());
    }

    #[test]
    fn hardware_attach_is_much_faster_than_software() {
        let (m_hw, _h1, hw) = hw_rig();
        let (m_sw, _h2, sw) = super::tests::rig(1, TrackingStrategy::RecomputeOnSwitch);
        let SwitchOutcome::Completed { cycles: hw_cycles } =
            hw.switch_to_virtual(m_hw.boot_cpu()).unwrap()
        else {
            panic!()
        };
        let SwitchOutcome::Completed { cycles: sw_cycles } =
            sw.switch_to_virtual(m_sw.boot_cpu()).unwrap()
        else {
            panic!()
        };
        assert!(
            hw_cycles * 10 < sw_cycles,
            "VMCS switch ({hw_cycles}) should be ≫10× faster than software ({sw_cycles})"
        );
    }

    #[test]
    fn workload_runs_identically_in_hvm_mode() {
        let (machine, _hv, mercury) = hw_rig();
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 41).unwrap();

        mercury.switch_to_virtual(cpu).unwrap();
        assert_eq!(sess.peek(va).unwrap(), 41);
        sess.poke(VirtAddr(va.0 + PAGE_SIZE), 42).unwrap();
        let child = sess.fork().unwrap();
        assert!(child.0 > 1);
        let fd = sess.open("hvm.txt", true).unwrap();
        sess.write(fd, b"non-root").unwrap();

        mercury.switch_to_native(cpu).unwrap();
        assert_eq!(sess.peek(VirtAddr(va.0 + PAGE_SIZE)).unwrap(), 42);
        assert_eq!(sess.stat("hvm.txt").unwrap().size, 8);
    }

    #[test]
    fn hvm_mmu_ops_cost_near_native_while_io_costs_exits() {
        // The §8 trade-off: MMU-heavy ops (fork) get cheap, device I/O
        // pays VM exits.
        let (machine, _hv, mercury) = hw_rig();
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(64, Prot::RW, MmapBacking::Anon).unwrap();
        for p in 0..64u64 {
            sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
        }
        let t0 = cpu.cycles();
        sess.fork().unwrap();
        let native_fork = cpu.cycles() - t0;

        mercury.switch_to_virtual(cpu).unwrap();
        let t0 = cpu.cycles();
        sess.fork().unwrap();
        let hvm_fork = cpu.cycles() - t0;
        // Within ~15% of native (vs several-fold for paravirtual mode).
        assert!(
            hvm_fork < native_fork * 115 / 100,
            "HVM fork {hvm_fork} vs native {native_fork}"
        );

        // Disk I/O pays the exit tax.
        let fd = sess.open("io.dat", true).unwrap();
        sess.write(fd, &vec![1u8; 4096]).unwrap();
        let t0 = cpu.cycles();
        sess.sync().unwrap();
        let hvm_sync = cpu.cycles() - t0;
        mercury.switch_to_native(cpu).unwrap();
        sess.write(fd, &vec![2u8; 4096]).unwrap();
        let t0 = cpu.cycles();
        sess.sync().unwrap();
        let native_sync = cpu.cycles() - t0;
        assert!(
            hvm_sync > native_sync + costs::VMEXIT,
            "HVM sync {hvm_sync} must pay exits over native {native_sync}"
        );
    }

    #[test]
    fn ept_confines_the_guest() {
        let (machine, _hv, mercury) = hw_rig();
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(1, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 1).unwrap();
        mercury.switch_to_virtual(cpu).unwrap();

        // Corrupt the PTE behind `va` to point at the VMM's reserved
        // memory (the §6.2-style bit flip).  In software mode the
        // validators would have rejected this at attach; in hardware
        // mode the EPT stops the access itself.
        let foreign = machine.mem.num_frames() as u32 - 1;
        let pgd = simx86::FrameNum(cpu.cr3_raw());
        let (pte, table, index) = simx86::Mmu::walk_leaf(&machine.mem, cpu, pgd, va)
            .unwrap()
            .unwrap();
        machine
            .mem
            .write_pte(cpu, table, index, simx86::Pte::new(foreign, pte.0 & 0xfff))
            .unwrap();
        cpu.flush_tlb_local();

        let err = sess.touch(va, false).unwrap_err();
        assert!(
            matches!(
                err,
                nimbus::KernelError::Oops(simx86::Fault::EptViolation { .. })
            ),
            "expected an EPT violation, got {err:?}"
        );
        assert!(mercury.ept.as_ref().unwrap().violations() > 0);
    }

    // ---- hypervisor live-update (DESIGN.md §16) -----------------------------

    #[test]
    fn live_update_swaps_vmm_without_detach() {
        let (machine, v1, mercury) = rig(1, TrackingStrategy::default());
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 7).unwrap();
        let fd = sess.open("across.txt", true).unwrap();
        sess.write(fd, b"pre-update").unwrap();

        mercury.switch_to_virtual(cpu).unwrap();
        assert_eq!(mercury.hv_version(), 1);

        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        mercury.stage_update(Arc::clone(&v2)).unwrap();
        assert_eq!(mercury.staged_update_version(), Some(2));

        let outcome = mercury.live_update(cpu).unwrap();
        assert!(matches!(outcome, SwitchOutcome::Completed { .. }));

        // Still virtual — no detach to native happened in between — but
        // the VMM underneath is now v2 and the incumbent is drained.
        assert_eq!(mercury.mode(), ExecMode::Virtual);
        assert_eq!(mercury.hv_version(), 2);
        assert!(Arc::ptr_eq(&mercury.hypervisor(), &v2));
        assert!(v2.is_active());
        assert!(!v1.is_active());
        assert_eq!(mercury.staged_update_version(), None);
        assert_eq!(mercury.stats.live_updates.load(Ordering::Relaxed), 1);
        assert!(mercury.stats.last_update_cycles.load(Ordering::Relaxed) > 0);

        // The guest's domain record was adopted, not copied: v2 hosts
        // the *same* Arc, and v1 forgot it without killing it.
        let adopted = v2.domain(mercury.dom0().id).unwrap();
        assert!(Arc::ptr_eq(&adopted, mercury.dom0()));
        assert!(v1.domain(adopted.id).is_none());
        assert!(adopted.is_alive());

        // Guest memory and files are bit-identical across the swap, and
        // new work proceeds under v2.
        assert_eq!(sess.peek(va).unwrap(), 7);
        assert_eq!(sess.stat("across.txt").unwrap().size, 10);
        sess.poke(VirtAddr(va.0 + PAGE_SIZE), 9).unwrap();
        assert_eq!(sess.peek(VirtAddr(va.0 + PAGE_SIZE)).unwrap(), 9);

        // The updated system still detaches cleanly.
        assert!(matches!(
            mercury.switch_to_native(cpu).unwrap(),
            SwitchOutcome::Completed { .. }
        ));
        assert!(!v2.is_active());
    }

    #[test]
    fn live_update_requires_staging_and_virtual_mode() {
        let (machine, _v1, mercury) = rig(1, TrackingStrategy::default());
        let cpu = machine.boot_cpu();
        // Nothing staged.
        assert!(matches!(
            mercury.live_update(cpu),
            Err(SwitchError::NoUpdateStaged)
        ));
        // A same-version successor fails the handshake at staging time.
        let same = Hypervisor::warm_up_versioned(&machine, 1);
        assert!(matches!(
            mercury.stage_update(same),
            Err(SwitchError::Transfer(_))
        ));
        // A valid successor stages fine, but updating from native mode
        // is refused (live-update never detaches).
        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        mercury.stage_update(v2).unwrap();
        assert!(matches!(
            mercury.live_update(cpu),
            Err(SwitchError::NotVirtual)
        ));
        // The staged successor survives the refusal for a later retry.
        assert_eq!(mercury.staged_update_version(), Some(2));
        mercury.clear_staged_update();
        assert_eq!(mercury.staged_update_version(), None);
    }

    #[test]
    fn failed_roll_forward_keeps_no_staging_and_no_frames() {
        let (machine, _v1, mercury) = rig(1, TrackingStrategy::default());
        let cpu = machine.boot_cpu();
        let free = machine.allocator.available();
        // Native: refused before a successor is warmed up.
        assert_eq!(mercury.roll_forward(cpu), Err(SwitchError::NotVirtual));
        // Deferred and rolled back: the staging goes with the error.
        mercury.switch_to_virtual(cpu).unwrap();
        let guard = mercury.vo_refcount().enter();
        assert_eq!(mercury.roll_forward(cpu), Err(SwitchError::Busy(1)));
        drop(guard);
        mercury.inject_abort(Some(mercury.phases(Transition::Update)[0].name));
        let err = mercury.roll_forward(cpu).unwrap_err();
        assert!(matches!(err, SwitchError::UpdateRolledBack(_)), "{err}");
        assert_eq!(mercury.staged_update_version(), None);
        assert_eq!(machine.allocator.available(), free);
        assert_eq!(mercury.hv_version(), 1);

        mercury.roll_forward(cpu).unwrap();
        assert_eq!(mercury.hv_version(), 2);
        assert_eq!(machine.allocator.available(), free);
    }

    #[test]
    fn live_update_rolls_back_on_injected_faults() {
        let (machine, v1, mercury) = rig(1, TrackingStrategy::default());
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(1, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 42).unwrap();
        mercury.switch_to_virtual(cpu).unwrap();

        // Every row of the update table, named from the table itself.
        let rows = mercury.phases(Transition::Update);
        for row in rows {
            let phase = row.name;
            let v2 = Hypervisor::warm_up_versioned(&machine, 2);
            mercury.stage_update(Arc::clone(&v2)).unwrap();
            mercury.inject_abort(Some(phase));
            let err = mercury.live_update(cpu).unwrap_err();
            assert!(
                matches!(err, SwitchError::UpdateRolledBack(_)),
                "{phase}: {err:?}"
            );
            // Rolled back: the incumbent still runs the machine, the
            // failed successor was discarded back to pristine, and the
            // staged update was consumed.
            assert_eq!(mercury.hv_version(), 1);
            assert!(Arc::ptr_eq(&mercury.hypervisor(), &v1));
            assert!(v1.is_active());
            assert!(!v2.is_active());
            assert!(v2.domains().is_empty(), "{phase}: successor not pristine");
            assert_eq!(
                v2.reserved_frames(),
                0,
                "{phase}: husk reservation reclaimed"
            );
            assert_eq!(mercury.staged_update_version(), None);
            assert_eq!(sess.peek(va).unwrap(), 42);
        }
        assert_eq!(
            mercury.stats.live_update_rollbacks.load(Ordering::Relaxed),
            rows.len() as u64
        );

        // The commit has no row to abort at: with the injector spent,
        // the next update completes on v2.
        let v2 = Hypervisor::warm_up_versioned(&machine, 2);
        mercury.stage_update(Arc::clone(&v2)).unwrap();
        assert!(matches!(
            mercury.live_update(cpu).unwrap(),
            SwitchOutcome::Completed { .. }
        ));
        assert_eq!(mercury.hv_version(), 2);
        assert_eq!(sess.peek(va).unwrap(), 42);
    }
}
