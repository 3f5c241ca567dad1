//! The process-wide injector: armed plan, fired-fault state, and the
//! signal queue the watchdog drains.
//!
//! Mirrors the merctrace layout: one global, lock-protected state block
//! behind an atomic `armed` fast-path flag.  The *control plane*
//! ([`arm`], [`drain_signals`], [`resolve`], …) is always compiled so
//! consumers like the cluster watchdog build identically with or
//! without the `enabled` feature; only the [`hooks`] *call sites*
//! inside simx86/xenon are feature-gated macros.

use crate::plan::{FaultClass, FaultSpec, FaultTarget};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A fired fault, as observed by the simulated hardware's error
/// reporting (ECC syndrome register, MCE bank, device status): what
/// fired, where, and on which simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSignal {
    /// The plan id of the fault that fired.
    pub fault_id: u64,
    /// Its class.
    pub class: FaultClass,
    /// Simulated cycle at which the fault was applied.  For clock-less
    /// sites (the disk pump) this is the spec's `due_cycle`.
    pub injected_cycle: u64,
    /// The full target, so a recovery agent can undo the damage (for a
    /// bit flip this plays the role of the ECC syndrome: frame, word
    /// and flipped bit are enough to scrub the cell).
    pub target: FaultTarget,
}

/// Injector bookkeeping counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectorStats {
    /// Faults armed and not yet fired.
    pub pending: usize,
    /// Faults fired and still perturbing state (stuck lines, wedged
    /// devices, corrupted descriptors).
    pub active: usize,
    /// Signals fired and not yet drained.
    pub signals_waiting: usize,
    /// Total faults fired since the last [`reset`].
    pub fired: u64,
    /// Faults explicitly resolved by a recovery agent.
    pub resolved: u64,
}

#[derive(Default)]
struct State {
    pending: Vec<FaultSpec>,
    active: Vec<FaultSpec>,
    signals: VecDeque<FaultSignal>,
    fired_ids: BTreeSet<u64>,
    fired: u64,
    resolved: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn state() -> MutexGuard<'static, State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn fire(st: &mut State, spec: FaultSpec, injected_cycle: u64, stays_active: bool) {
    st.signals.push_back(FaultSignal {
        fault_id: spec.id,
        class: spec.class(),
        injected_cycle,
        target: spec.target,
    });
    st.fired_ids.insert(spec.id);
    st.fired += 1;
    if stays_active {
        st.active.push(spec);
    }
}

/// Arm `plan` (appending to any already-armed faults) and enable the
/// hooks.  With the `enabled` feature off this records the plan but no
/// hook ever consults it, so execution is unchanged — the property
/// `tests/faultgen_overhead.rs` pins down.
pub fn arm(plan: Vec<FaultSpec>) {
    let mut st = state();
    st.pending.extend(plan);
    ARMED.store(true, Ordering::Release);
}

/// Disable the hooks without discarding state.  Wedged devices and
/// stuck lines stop perturbing immediately.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Are the hooks currently live?
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Drop every pending fault, active perturbation, queued signal and
/// counter, and disarm.  Campaign runs call this between scenarios so
/// each scenario is a pure function of its own plan.
pub fn reset() {
    ARMED.store(false, Ordering::Release);
    *state() = State::default();
}

/// Take every signal fired since the last drain, oldest first.  This is
/// the watchdog's detection point: latency is measured from the
/// signal's `injected_cycle` to the drain-time cycle counter.
pub fn drain_signals() -> Vec<FaultSignal> {
    state().signals.drain(..).collect()
}

/// Resolve a fired fault: clear its lingering perturbation (unwedge the
/// device, unstick the line, mark the descriptor rewritten).  Returns
/// `true` if `fault_id` had actually fired — transient faults
/// (bit flips, spurious interrupts, hypercall faults) have nothing to
/// clear but still acknowledge resolution.
pub fn resolve(fault_id: u64) -> bool {
    let mut st = state();
    st.active.retain(|s| s.id != fault_id);
    if st.fired_ids.remove(&fault_id) {
        st.resolved += 1;
        true
    } else {
        false
    }
}

/// Faults that have not yet fired plus perturbations still active.
pub fn outstanding() -> usize {
    let st = state();
    st.pending.len() + st.active.len()
}

/// Current bookkeeping counters.
pub fn stats() -> InjectorStats {
    let st = state();
    InjectorStats {
        pending: st.pending.len(),
        active: st.active.len(),
        signals_waiting: st.signals.len(),
        fired: st.fired,
        resolved: st.resolved,
    }
}

/// The hardware-side hook entry points.
///
/// These are what the [hook macros](crate) expand to when the `enabled`
/// feature is on.  They are ordinary functions so faultgen's own tests
/// (and curious callers) can exercise the engine without the feature,
/// but production call sites must go through the macros — that is what
/// keeps the disabled build zero-cost and what the volint `FAULT-MASK`
/// rule audits for reachability from the switch critical section.
pub mod hooks {
    use super::*;

    /// Memory-read site (`PhysMemory::read_word`).  Returns the XOR
    /// mask to apply (and persist) to the word just read, or 0.
    pub fn mem_read_site(_cpu: usize, cycles: u64, frame: u32, word: u64) -> u64 {
        if !is_armed() {
            return 0;
        }
        let mut st = state();
        let idx = st.pending.iter().position(|s| {
            s.due_cycle <= cycles
                && matches!(s.target, FaultTarget::MemWord { frame: f, word: w, .. }
                    if f == frame && w as u64 == word)
        });
        let Some(idx) = idx else { return 0 };
        let spec = st.pending.remove(idx);
        fire(&mut st, spec, cycles, false);
        match spec.target {
            FaultTarget::MemWord { bit, .. } => 1u64 << bit,
            _ => 0,
        }
    }

    /// Disk-pump site.  Returns `true` if the device is wedged on this
    /// request (the pump must stall instead of servicing it).
    pub fn disk_site(req_id: u64) -> bool {
        if !is_armed() {
            return false;
        }
        let mut st = state();
        if st
            .active
            .iter()
            .any(|s| matches!(s.target, FaultTarget::DiskRequest { req_id: r } if r == req_id))
        {
            return true;
        }
        let idx = st.pending.iter().position(
            |s| matches!(s.target, FaultTarget::DiskRequest { req_id: r } if r == req_id),
        );
        let Some(idx) = idx else { return false };
        let spec = st.pending.remove(idx);
        fire(&mut st, spec, spec.due_cycle, true);
        true
    }

    /// Interrupt-service site (`Cpu::service_pending`).  Returns a
    /// vector to assert on this CPU: a due spurious interrupt fires
    /// once; a stuck line re-asserts on every call until resolved.
    pub fn irq_site(cpu: usize, cycles: u64) -> Option<u8> {
        if !is_armed() {
            return None;
        }
        let mut st = state();
        if let Some(idx) = st.pending.iter().position(|s| {
            s.due_cycle <= cycles
                && matches!(s.target, FaultTarget::Spurious { cpu: c, .. } if c == cpu)
        }) {
            let spec = st.pending.remove(idx);
            fire(&mut st, spec, cycles, false);
            return match spec.target {
                FaultTarget::Spurious { vector, .. } => Some(vector),
                _ => None,
            };
        }
        if let Some(idx) = st.pending.iter().position(|s| {
            s.due_cycle <= cycles
                && matches!(s.target, FaultTarget::IrqLine { cpu: c, .. } if c == cpu)
        }) {
            let spec = st.pending.remove(idx);
            fire(&mut st, spec, cycles, true);
            return match spec.target {
                FaultTarget::IrqLine { vector, .. } => Some(vector),
                _ => None,
            };
        }
        st.active.iter().find_map(|s| match s.target {
            FaultTarget::IrqLine { cpu: c, vector } if c == cpu => Some(vector),
            _ => None,
        })
    }

    /// Gate-dispatch site (`Cpu::dispatch`).  Returns `true` if the
    /// descriptor for `vector` on this CPU is corrupted — the dispatch
    /// must be swallowed, as on hardware where an unreadable gate
    /// cannot deliver.
    pub fn gate_site(cpu: usize, cycles: u64, vector: u8) -> bool {
        if !is_armed() {
            return false;
        }
        let mut st = state();
        if st.active.iter().any(
            |s| matches!(s.target, FaultTarget::IdtGate { cpu: c, vector: v } if c == cpu && v == vector),
        ) {
            return true;
        }
        let idx = st.pending.iter().position(|s| {
            s.due_cycle <= cycles
                && matches!(s.target, FaultTarget::IdtGate { cpu: c, vector: v }
                    if c == cpu && v == vector)
        });
        let Some(idx) = idx else { return false };
        let spec = st.pending.remove(idx);
        fire(&mut st, spec, cycles, true);
        true
    }

    /// VMM-state site (`Hypervisor::count_hypercall` — the hypervisor's
    /// common service point).  Returns the frame whose accounting
    /// record the VMM must wipe, or `None`.  The perturbation stays
    /// active until resolved: the damage lives in the incumbent's
    /// tables, and only a live-update (or explicit repair) clears it.
    pub fn vmm_site(cpu: usize, cycles: u64) -> Option<u32> {
        if !is_armed() {
            return None;
        }
        let mut st = state();
        let idx = st.pending.iter().position(|s| {
            s.due_cycle <= cycles
                && matches!(s.target, FaultTarget::VmmState { cpu: c, .. } if c == cpu)
        })?;
        let spec = st.pending.remove(idx);
        fire(&mut st, spec, cycles, true);
        match spec.target {
            FaultTarget::VmmState { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// Hypercall site (`Hypervisor::count_hypercall`).  Returns the
    /// penalty in cycles to charge the calling CPU (retry after a
    /// transient failure, or the slow service path), or 0.
    pub fn hypercall_site(cpu: usize, cycles: u64) -> u64 {
        if !is_armed() {
            return 0;
        }
        let mut st = state();
        let idx = st.pending.iter().position(|s| {
            s.due_cycle <= cycles
                && matches!(s.target, FaultTarget::Hypercall { cpu: c, .. } if c == cpu)
        });
        let Some(idx) = idx else { return 0 };
        let spec = st.pending.remove(idx);
        fire(&mut st, spec, cycles, false);
        match spec.target {
            FaultTarget::Hypercall { penalty_cycles, .. } => penalty_cycles,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::hooks::*;
    use super::*;

    // The injector is process-global state; every test serializes on
    // this lock and resets around itself so they compose.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spec(id: u64, due_cycle: u64, target: FaultTarget) -> FaultSpec {
        FaultSpec {
            id,
            due_cycle,
            target,
        }
    }

    #[test]
    fn mem_flip_fires_once_when_due() {
        let _g = serial();
        reset();
        arm(vec![spec(
            1,
            100,
            FaultTarget::MemWord {
                frame: 7,
                word: 3,
                bit: 5,
            },
        )]);
        // Not due yet; wrong word; wrong frame.
        assert_eq!(mem_read_site(0, 50, 7, 3), 0);
        assert_eq!(mem_read_site(0, 200, 7, 4), 0);
        assert_eq!(mem_read_site(0, 200, 8, 3), 0);
        // Due and matching: fires exactly once.
        assert_eq!(mem_read_site(0, 200, 7, 3), 1 << 5);
        assert_eq!(mem_read_site(0, 300, 7, 3), 0);
        let sig = drain_signals();
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].fault_id, 1);
        assert_eq!(sig[0].class, FaultClass::MemBitFlip);
        assert_eq!(sig[0].injected_cycle, 200);
        assert!(resolve(1));
        assert!(!resolve(1), "second resolve is a no-op");
        reset();
    }

    #[test]
    fn disk_wedges_until_resolved() {
        let _g = serial();
        reset();
        arm(vec![spec(2, 0, FaultTarget::DiskRequest { req_id: 42 })]);
        assert!(!disk_site(41));
        assert!(disk_site(42));
        assert!(disk_site(42), "stays wedged");
        assert_eq!(drain_signals().len(), 1);
        assert_eq!(stats().active, 1);
        assert!(resolve(2));
        assert!(!disk_site(42), "unwedged after resolve");
        reset();
    }

    #[test]
    fn stuck_line_reasserts_and_spurious_fires_once() {
        let _g = serial();
        reset();
        arm(vec![
            spec(3, 10, FaultTarget::Spurious { cpu: 0, vector: 32 }),
            spec(4, 20, FaultTarget::IrqLine { cpu: 0, vector: 33 }),
        ]);
        assert_eq!(irq_site(1, 100), None, "other cpu untouched");
        assert_eq!(irq_site(0, 15), Some(32), "spurious first");
        assert_eq!(irq_site(0, 25), Some(33), "then the stuck line");
        assert_eq!(irq_site(0, 30), Some(33), "which re-asserts");
        assert!(resolve(4));
        assert_eq!(irq_site(0, 40), None);
        assert_eq!(drain_signals().len(), 2);
        reset();
    }

    #[test]
    fn gate_swallows_until_resolved_and_hypercall_charges_penalty() {
        let _g = serial();
        reset();
        arm(vec![
            spec(5, 0, FaultTarget::IdtGate { cpu: 0, vector: 34 }),
            spec(
                6,
                50,
                FaultTarget::Hypercall {
                    cpu: 0,
                    penalty_cycles: 900,
                    slow: false,
                },
            ),
        ]);
        assert!(!gate_site(0, 10, 33), "wrong vector");
        assert!(gate_site(0, 10, 34));
        assert!(gate_site(0, 20, 34), "still corrupted");
        assert!(resolve(5));
        assert!(!gate_site(0, 30, 34), "repaired");
        assert_eq!(hypercall_site(0, 10), 0, "not due");
        assert_eq!(hypercall_site(0, 60), 900);
        assert_eq!(hypercall_site(0, 70), 0, "one-shot");
        assert_eq!(drain_signals().len(), 2);
        reset();
    }

    #[test]
    fn vmm_state_fires_once_and_stays_active_until_resolved() {
        let _g = serial();
        reset();
        arm(vec![spec(
            8,
            100,
            FaultTarget::VmmState { cpu: 0, frame: 77 },
        )]);
        assert_eq!(vmm_site(0, 50), None, "not due");
        assert_eq!(vmm_site(1, 200), None, "other cpu untouched");
        assert_eq!(vmm_site(0, 200), Some(77));
        assert_eq!(vmm_site(0, 300), None, "the wipe itself is one-shot");
        // ... but the damage lingers as an active perturbation until a
        // recovery agent (the live-update path) resolves it.
        assert_eq!(stats().active, 1);
        let sig = drain_signals();
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].class, FaultClass::VmmCorrupt);
        assert!(resolve(8));
        assert_eq!(stats().active, 0);
        reset();
    }

    #[test]
    fn disarm_freezes_hooks_and_reset_clears() {
        let _g = serial();
        reset();
        arm(vec![spec(7, 0, FaultTarget::DiskRequest { req_id: 1 })]);
        disarm();
        assert!(!is_armed());
        assert!(!disk_site(1), "disarmed hooks are inert");
        assert_eq!(outstanding(), 1, "plan survives disarm");
        reset();
        assert_eq!(outstanding(), 0);
        assert_eq!(stats(), InjectorStats::default());
    }
}
