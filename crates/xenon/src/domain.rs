//! Domains: the hypervisor's unit of isolation.
//!
//! Domain 0 is the privileged driver domain with direct device access
//! (§5.2: in Mercury's virtual mode, the self-virtualized OS *is* the
//! driver domain).  Unprivileged domains (domU) reach devices through
//! frontend drivers connected to dom0's backends.

use crate::error::HvError;
use simx86::cpu::InterruptSink;
use simx86::mem::FrameNum;
use simx86::sync::{Mutex, RwLock};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Domain identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DomId(pub u16);

/// The privileged control/driver domain.
pub const DOM0: DomId = DomId(0);

/// State of one virtual CPU.
#[derive(Debug, Clone)]
pub struct VcpuState {
    /// Physical CPU this vCPU is currently bound to.
    pub pcpu: usize,
    /// Guest-registered kernel stack top (the `stack_switch` hypercall's
    /// operand; carried through save/restore).
    pub kernel_sp: u64,
    /// Is this vCPU runnable (vs blocked in `sched_block`)?
    pub runnable: bool,
}

/// The guest kernel's logical state as the hypervisor carries it
/// through save, checkpoint and migration: an opaque typed value that
/// only the guest that froze it can read back.  Cloning shares the
/// value; it is never mutated once wrapped.
#[derive(Clone)]
pub struct GuestState(Arc<dyn Any + Send + Sync>);

impl GuestState {
    /// Wrap a frozen guest state.
    pub fn new<T: Any + Send + Sync>(state: T) -> GuestState {
        GuestState(Arc::new(state))
    }

    /// The state as a `T`, or `None` when another kind of guest froze it.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref()
    }
}

impl fmt::Debug for GuestState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GuestState(..)")
    }
}

/// A guest domain.
pub struct Domain {
    /// Identifier.
    pub id: DomId,
    /// Privileged domains may issue control hypercalls and own devices.
    pub privileged: bool,
    /// Human-readable name (diagnostics).
    pub name: String,
    frames: Mutex<BTreeSet<u32>>,
    pgds: Mutex<Vec<FrameNum>>,
    vcpus: Mutex<Vec<VcpuState>>,
    trap_table: RwLock<HashMap<u8, Arc<dyn InterruptSink>>>,
    /// Event-channel pending bits (the shared-info page equivalent).
    pub(crate) evt_pending: AtomicU64,
    /// Event delivery mask.
    pub(crate) evt_masked: AtomicU64,
    alive: AtomicBool,
    /// Opaque guest-kernel state, populated by the guest's freeze path
    /// during save/checkpoint and consumed on restore.  In a real system
    /// this state lives in the guest's frames; the simulated kernel
    /// keeps its logical state host-side, so save/restore carries it
    /// explicitly.
    pub guest_state: Mutex<Option<GuestState>>,
}

impl Domain {
    /// Create a domain with no frames and one vCPU on `pcpu`.
    pub fn new(id: DomId, name: impl Into<String>, privileged: bool, pcpu: usize) -> Arc<Domain> {
        Arc::new(Domain {
            id,
            privileged,
            name: name.into(),
            frames: Mutex::new(BTreeSet::new()),
            pgds: Mutex::new(Vec::new()),
            vcpus: Mutex::new(vec![VcpuState {
                pcpu,
                kernel_sp: 0,
                runnable: true,
            }]),
            trap_table: RwLock::new(HashMap::new()),
            evt_pending: AtomicU64::new(0),
            evt_masked: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            guest_state: Mutex::new(None),
        })
    }

    /// The guest kernel's frozen state, as a save or a migration left
    /// it.  A domain without one is a malformed image: an error the
    /// caller can act on, not a panic.
    pub fn frozen_state(&self) -> Result<GuestState, HvError> {
        self.guest_state
            .lock()
            .clone()
            .ok_or_else(|| HvError::BadImage("frozen guest state missing from the domain".into()))
    }

    /// Is the domain still alive?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Mark the domain destroyed.
    pub(crate) fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    // -- frame ownership -------------------------------------------------

    /// Grant this domain ownership of `frame` (bookkeeping only; the
    /// page_info table is the authoritative record and is updated by the
    /// hypervisor alongside this).
    pub(crate) fn add_frame(&self, frame: FrameNum) {
        self.frames.lock().insert(frame.0);
    }

    /// Remove `frame` from this domain.
    pub(crate) fn remove_frame(&self, frame: FrameNum) -> bool {
        self.frames.lock().remove(&frame.0)
    }

    /// Does the domain own `frame`?
    pub fn owns(&self, frame: FrameNum) -> bool {
        self.frames.lock().contains(&frame.0)
    }

    /// Number of frames owned.
    pub fn frame_count(&self) -> usize {
        self.frames.lock().len()
    }

    /// Snapshot of owned frames (ascending).
    pub fn frames(&self) -> Vec<FrameNum> {
        // volint::allow(SWITCH-ALLOC): owned-frame snapshot buffer, built once per domain before the live-update ownership pass mutates anything
        self.frames.lock().iter().map(|&f| FrameNum(f)).collect()
    }

    // -- page tables -------------------------------------------------------

    /// Record a pinned base table.  Public for Mercury's VO-assistant,
    /// which rebuilds this list during an attach.
    pub fn add_pgd(&self, pgd: FrameNum) {
        // volint::allow(SWITCH-ALLOC): pinned-pgd registry push; pinning happens at guest setup, and the attach-path rebuild pre-clears then re-adds ≤ one entry per process
        self.pgds.lock().push(pgd);
    }

    /// Forget a base table.
    pub fn remove_pgd(&self, pgd: FrameNum) {
        self.pgds.lock().retain(|&p| p != pgd);
    }

    /// The domain's pinned base tables.
    pub fn pgds(&self) -> Vec<FrameNum> {
        self.pgds.lock().clone()
    }

    /// Replace the pinned-base-table list wholesale (Mercury rebuilds it
    /// from the kernel's live processes at attach, and empties it at
    /// detach).
    pub fn reset_pgds(&self, pgds: Vec<FrameNum>) {
        *self.pgds.lock() = pgds;
    }

    // -- vCPUs ------------------------------------------------------------

    /// Number of vCPUs.
    pub fn num_vcpus(&self) -> usize {
        self.vcpus.lock().len()
    }

    /// Add a vCPU bound to `pcpu` (SMP guests).
    pub fn add_vcpu(&self, pcpu: usize) {
        self.vcpus.lock().push(VcpuState {
            pcpu,
            kernel_sp: 0,
            runnable: true,
        });
    }

    /// Snapshot vCPU state.
    pub fn vcpus(&self) -> Vec<VcpuState> {
        self.vcpus.lock().clone()
    }

    /// Restore vCPU state (migration/restore).
    pub fn set_vcpus(&self, v: Vec<VcpuState>) {
        *self.vcpus.lock() = v;
    }

    /// Update a vCPU's kernel stack pointer (`stack_switch`).
    pub(crate) fn set_kernel_sp(&self, vcpu: usize, sp: u64) -> Result<(), HvError> {
        let mut vcpus = self.vcpus.lock();
        let v = vcpus.get_mut(vcpu).ok_or(HvError::BadDomain)?;
        v.kernel_sp = sp;
        Ok(())
    }

    /// Mark a vCPU blocked/runnable (`sched_block` / event wakeup).
    pub(crate) fn set_runnable(&self, vcpu: usize, runnable: bool) {
        if let Some(v) = self.vcpus.lock().get_mut(vcpu) {
            v.runnable = runnable;
        }
    }

    /// Is any vCPU runnable?
    pub fn any_runnable(&self) -> bool {
        self.vcpus.lock().iter().any(|v| v.runnable)
    }

    /// Physical CPU of vCPU 0 (interrupt routing).
    pub fn home_pcpu(&self) -> usize {
        // volint::allow(SWITCH-PANIC): vCPU 0 is created with the domain and never removed
        self.vcpus.lock()[0].pcpu
    }

    // -- trap table ---------------------------------------------------------

    /// Register the guest's trap handlers (the `set_trap_table`
    /// hypercall's effect).  The hypervisor reflects faults and virtual
    /// IRQs into these.
    pub(crate) fn set_trap_gate(&self, vector: u8, sink: Arc<dyn InterruptSink>) {
        // volint::allow(SWITCH-ALLOC): gate-table map holds ≤ 32 vectors; registration happens under the trap-table span, accepted by §4.4
        self.trap_table.write().insert(vector, sink);
    }

    /// Look up a registered guest handler.
    pub fn trap_gate(&self, vector: u8) -> Option<Arc<dyn InterruptSink>> {
        self.trap_table.read().get(&vector).cloned()
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("privileged", &self.privileged)
            .field("frames", &self.frame_count())
            .field("alive", &self.is_alive())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::cpu::TrapFrame;
    use simx86::Cpu;

    #[test]
    fn frame_ownership_bookkeeping() {
        let d = Domain::new(DomId(1), "test", false, 0);
        d.add_frame(FrameNum(5));
        d.add_frame(FrameNum(3));
        assert!(d.owns(FrameNum(5)));
        assert_eq!(d.frame_count(), 2);
        assert_eq!(d.frames(), vec![FrameNum(3), FrameNum(5)]);
        assert!(d.remove_frame(FrameNum(5)));
        assert!(!d.remove_frame(FrameNum(5)));
        assert_eq!(d.frame_count(), 1);
    }

    #[test]
    fn vcpu_management() {
        let d = Domain::new(DOM0, "dom0", true, 0);
        assert_eq!(d.num_vcpus(), 1);
        d.add_vcpu(1);
        assert_eq!(d.num_vcpus(), 2);
        d.set_kernel_sp(1, 0xdead).unwrap();
        assert_eq!(d.vcpus()[1].kernel_sp, 0xdead);
        assert!(d.set_kernel_sp(9, 0).is_err());
        d.set_runnable(0, false);
        d.set_runnable(1, false);
        assert!(!d.any_runnable());
    }

    #[test]
    fn trap_table_registration() {
        struct Nop;
        impl InterruptSink for Nop {
            fn handle(&self, _c: &std::sync::Arc<Cpu>, _f: &mut TrapFrame) {}
        }
        let d = Domain::new(DomId(2), "u", false, 0);
        assert!(d.trap_gate(14).is_none());
        d.set_trap_gate(14, Arc::new(Nop));
        d.set_trap_gate(13, Arc::new(Nop));
        assert!(d.trap_gate(14).is_some());
        assert!(d.trap_gate(13).is_some());
    }

    #[test]
    fn lifecycle() {
        let d = Domain::new(DomId(3), "x", false, 0);
        assert!(d.is_alive());
        d.kill();
        assert!(!d.is_alive());
    }
}
