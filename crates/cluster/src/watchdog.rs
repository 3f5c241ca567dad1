//! Reactive dependability watchdog: detection → attach → recover →
//! detach (DESIGN.md §12).
//!
//! The paper's dependability scenarios (§2, §6.2/§6.3) all follow the
//! same shape: the machine runs *native* for performance; when hardware
//! misbehaves, the VMM is attached underneath the running OS so the
//! fault can be isolated and repaired behind the virtualization layer;
//! once the danger passes the VMM detaches and the machine is native
//! again.  [`Watchdog`] is that loop.  It consumes detection signals
//! from [`faultgen`]'s injector (the simulated stand-in for ECC
//! machine-check reports, device timeouts and IDT sanity checks),
//! requests an on-demand attach through [`Mercury`], applies a
//! class-specific [`RecoveryAction`], and detaches at the end of the
//! campaign window.
//!
//! One class gets special treatment: [`FaultClass::VmmCorrupt`] means
//! the *hypervisor's own state* is damaged, so no in-place repair can
//! be trusted — the watchdog's `update-on-suspicion` policy live-
//! updates the node onto a pristine, newer-versioned VMM instance
//! ([`RecoveryAction::LiveUpdate`], DESIGN.md §16) without detaching
//! or disturbing the guest.
//!
//! Two imperfect-world paths are modelled explicitly:
//!
//! * **`Busy`/deferred switches** — if the attach is deferred by the VO
//!   reference-count gate or the rendezvous block is busy, the watchdog
//!   backs off [`Watchdog::BACKOFF_CYCLES`] and retries, up to
//!   [`Watchdog::MAX_ATTACH_ATTEMPTS`] times.
//! * **Rendezvous timeout** — if a peer CPU never reaches a rendezvous
//!   service point, the attach is abandoned and the watchdog goes
//!   *sticky degraded*: it stops requesting attaches (each timeout
//!   costs real wall-clock in the rendezvous spin) and recovers
//!   natively instead.  [`FaultReport::degraded`] records this, and
//!   [`mercury::SwitchStats::rendezvous_failures`] counts it.

use faultgen::{FaultClass, FaultSignal, FaultTarget};
use mercury::rendezvous::RendezvousError;
use mercury::{ExecMode, Mercury, SwitchError, SwitchOutcome};
use nimbus::Kernel;
use simx86::{Cpu, Machine, PhysAddr};
use std::sync::Arc;

/// The watchdog's one deployment choice.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogPolicy {
    /// `false` = never attach: recover natively (the paper's
    /// always-native baseline; also what a pure-virtual deployment
    /// uses, where the VMM is already attached).
    pub attach_on_fault: bool,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            attach_on_fault: true,
        }
    }
}

/// What the watchdog did about one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Read the flipped word back and rewrote the corrected value
    /// (ECC scrub).
    MemoryScrub,
    /// Reset the wedged device and re-pumped its queue.
    DeviceReset,
    /// Masked the stuck interrupt line.
    IrqMask,
    /// Acknowledged and dropped a spurious interrupt.
    SpuriousAck,
    /// Reinstalled the kernel's pristine trap table over the corrupted
    /// descriptor ([`Kernel::reinstall_idt`]).
    IdtRepair,
    /// Cleared a transient/slow hypercall (the caller already paid the
    /// retry penalty).
    HypercallRetry,
    /// Replaced the running hypervisor with a pristine, newer-versioned
    /// successor via live-update (DESIGN.md §16) — the
    /// `update-on-suspicion` policy for faults *inside* the VMM, where
    /// no in-place scrub can be trusted.
    LiveUpdate,
}

impl RecoveryAction {
    /// Stable identifier used in reports and `faultgen_results.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryAction::MemoryScrub => "memory-scrub",
            RecoveryAction::DeviceReset => "device-reset",
            RecoveryAction::IrqMask => "irq-mask",
            RecoveryAction::SpuriousAck => "spurious-ack",
            RecoveryAction::IdtRepair => "idt-repair",
            RecoveryAction::HypercallRetry => "hypercall-retry",
            RecoveryAction::LiveUpdate => "live-update",
        }
    }
}

/// The audit record for one handled fault.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The fault's campaign id.
    pub fault_id: u64,
    /// Its class.
    pub class: FaultClass,
    /// Simulated cycle at which the hardware hook fired it.
    pub injected_cycle: u64,
    /// Simulated cycle at which the watchdog drained its signal.
    pub detected_cycle: u64,
    /// The recovery applied.
    pub action: RecoveryAction,
    /// Attach attempts made while handling it (0 when already virtual
    /// or when attaching is disabled/degraded).
    pub attach_attempts: u32,
    /// `true` if this fault was recovered on the degraded native path
    /// because the attach rendezvous failed.
    pub degraded: bool,
    /// Whether the recovery action succeeded.
    pub recovered: bool,
}

/// The reactive watchdog for one node.
///
/// Polling is explicit (like every service point in the simulation):
/// the campaign driver calls [`poll`](Watchdog::poll) at its service
/// points and [`end_window`](Watchdog::end_window) when the campaign
/// window closes.
///
/// ```
/// use mercury_cluster::{Node, NodeConfig, Watchdog, WatchdogPolicy};
///
/// let node = Node::launch("n0", &NodeConfig::default());
/// let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());
/// let cpu = node.machine.boot_cpu();
/// // Nothing armed: nothing detected, nothing attached.
/// assert_eq!(dog.poll(cpu), 0);
/// dog.end_window(cpu);
/// assert!(dog.reports().is_empty());
/// assert!(!dog.degraded());
/// ```
pub struct Watchdog {
    mercury: Arc<Mercury>,
    machine: Arc<Machine>,
    kernel: Arc<Kernel>,
    policy: WatchdogPolicy,
    /// We attached for isolation and owe a detach at window end.
    attached_by_us: bool,
    /// Sticky, with the reason: a rendezvous timed out (or a caller saw
    /// a health signal); stop requesting attaches.
    degraded: Option<String>,
    reports: Vec<FaultReport>,
    /// `VmmCorrupt` faults whose update attempt rolled back.  They stay
    /// outstanding in the injector (the damage lives in the incumbent's
    /// tables), and the next *completed* update resolves them wholesale
    /// — one pristine successor heals the entire table, not just the
    /// record named by the triggering signal.
    suspected: Vec<u64>,
}

impl Watchdog {
    /// A watchdog for the node `mercury` manages: the kernel and the
    /// machine it recovers on are that engine's own, so the three
    /// handles cannot disagree.
    pub fn new(mercury: Arc<Mercury>, policy: WatchdogPolicy) -> Watchdog {
        let kernel = Arc::clone(mercury.kernel());
        let machine = Arc::clone(&kernel.machine);
        Watchdog {
            mercury,
            machine,
            kernel,
            policy,
            attached_by_us: false,
            degraded: None,
            reports: Vec::new(),
            suspected: Vec::new(),
        }
    }

    /// Degrade this node: sticky native-only recovery, with the reason
    /// kept for whoever routes traffic (a fleet's run hook hands
    /// [`degraded_reason`](Watchdog::degraded_reason) to its balancer).
    /// Called internally on rendezvous timeouts; callers use it for
    /// health-signal degradations (rising temperature trend, fault
    /// storms) that the watchdog itself cannot see.
    pub fn mark_degraded(&mut self, reason: &str) {
        self.degraded = Some(reason.to_string());
    }

    /// Drain and handle every pending fault signal.  Returns the number
    /// of faults handled this poll.
    pub fn poll(&mut self, cpu: &Arc<Cpu>) -> usize {
        let signals = faultgen::drain_signals();
        if signals.is_empty() {
            return 0;
        }
        merctrace::counter!(
            cpu.id,
            "watchdog.fault.detected",
            signals.len() as u64,
            cpu.cycles()
        );
        // Isolation first (§6.2: get the virtualization layer between
        // the fault and the OS), then per-fault recovery.
        let attach_attempts = if self.policy.attach_on_fault {
            self.ensure_attached(cpu)
        } else {
            0
        };
        let n = signals.len();
        for signal in signals {
            let detected_cycle = cpu.cycles();
            let (action, recovered) = self.recover(cpu, &signal);
            if recovered {
                merctrace::counter!(cpu.id, "watchdog.fault.recovered", 1, cpu.cycles());
            }
            self.reports.push(FaultReport {
                fault_id: signal.fault_id,
                class: signal.class,
                injected_cycle: signal.injected_cycle,
                detected_cycle,
                action,
                attach_attempts,
                degraded: self.degraded(),
                recovered,
            });
        }
        n
    }

    /// The campaign window closed: detach if this watchdog attached.
    pub fn end_window(&mut self, cpu: &Arc<Cpu>) {
        if !self.attached_by_us {
            return;
        }
        // A deferred detach is retried on the next window end via the
        // same path; for campaign runs the refcount is quiescent here.
        if let Ok(SwitchOutcome::Completed { .. }) = self.mercury.switch_to_native(cpu) {
            self.attached_by_us = false;
            merctrace::counter!(cpu.id, "watchdog.detach", 1, cpu.cycles());
        }
    }

    /// Everything handled so far, in handling order.
    pub fn reports(&self) -> &[FaultReport] {
        &self.reports
    }

    /// Has the watchdog fallen back to native-only recovery?
    pub fn degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Why the watchdog degraded, when it has.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Is the watchdog currently holding an attach it made?
    pub fn holding_attach(&self) -> bool {
        self.attached_by_us
    }

    /// Attach attempts per poll before giving up on virtualization for
    /// this batch of faults (covers deferred and busy outcomes).
    pub const MAX_ATTACH_ATTEMPTS: u32 = 3;
    /// Simulated cycles to back off between attach attempts.
    pub const BACKOFF_CYCLES: u64 = 20_000;

    /// Request an attach, retrying deferred/busy outcomes with backoff.
    /// Returns the number of attempts made.
    fn ensure_attached(&mut self, cpu: &Arc<Cpu>) -> u32 {
        if self.degraded() || self.mercury.mode() == ExecMode::Virtual {
            return 0;
        }
        let mut attempts = 0;
        while attempts < Self::MAX_ATTACH_ATTEMPTS {
            attempts += 1;
            match self.mercury.switch_to_virtual(cpu) {
                Ok(SwitchOutcome::Completed { .. }) => {
                    self.attached_by_us = true;
                    merctrace::counter!(cpu.id, "watchdog.attach", 1, cpu.cycles());
                    break;
                }
                Ok(SwitchOutcome::AlreadyInMode) => break,
                // VO refcount gate or an in-flight rendezvous: idle the
                // backoff away (DESIGN.md §14) and retry.
                Ok(SwitchOutcome::Deferred { .. })
                | Err(SwitchError::Rendezvous(RendezvousError::Busy)) => {
                    let retry_at = cpu.cycles() + Self::BACKOFF_CYCLES;
                    self.machine.evclock.advance(cpu, retry_at);
                }
                // A peer CPU never reached its service point.  Each
                // timeout burns the full rendezvous wait, so go sticky:
                // recover natively from here on (documented degradation
                // path, DESIGN.md §12.4).
                Err(SwitchError::Rendezvous(RendezvousError::Timeout)) => {
                    self.mark_degraded("attach rendezvous timeout");
                    merctrace::counter!(cpu.id, "watchdog.degraded", 1, cpu.cycles());
                    break;
                }
                Err(_) => {
                    self.mark_degraded("attach failed");
                    merctrace::counter!(cpu.id, "watchdog.degraded", 1, cpu.cycles());
                    break;
                }
            }
        }
        attempts
    }

    /// Apply the class-specific recovery for one signal.
    fn recover(&mut self, cpu: &Arc<Cpu>, signal: &FaultSignal) -> (RecoveryAction, bool) {
        match signal.target {
            // ECC scrub: the signal carries the syndrome (frame, word,
            // bit), so flip the bit back and rewrite the word.
            FaultTarget::MemWord { frame, word, bit } => {
                let pa = PhysAddr(((frame as u64) << 12) + (word as u64) * 8);
                let ok = match self.machine.mem.read_word(cpu, pa) {
                    Ok(v) => self
                        .machine
                        .mem
                        .write_word(cpu, pa, v ^ (1u64 << bit))
                        .is_ok(),
                    Err(_) => false,
                };
                faultgen::resolve(signal.fault_id);
                (RecoveryAction::MemoryScrub, ok)
            }
            // Device reset: clear the wedge, then re-pump so queued
            // requests (the stalled one first) complete.
            FaultTarget::DiskRequest { .. } => {
                let ok = faultgen::resolve(signal.fault_id);
                self.machine.pump_devices();
                (RecoveryAction::DeviceReset, ok)
            }
            // Mask the stuck line: resolving stops the re-assertion;
            // one final service drains whatever is still pending.
            FaultTarget::IrqLine { .. } => {
                let ok = faultgen::resolve(signal.fault_id);
                cpu.service_pending();
                (RecoveryAction::IrqMask, ok)
            }
            FaultTarget::Spurious { .. } => {
                let ok = faultgen::resolve(signal.fault_id);
                (RecoveryAction::SpuriousAck, ok)
            }
            // Descriptor repair: reinstall the pristine trap table
            // through the active paravirt object, then clear the fault
            // so dispatches of the vector flow again.
            FaultTarget::IdtGate { .. } => {
                let repaired = self.kernel.reinstall_idt(cpu).is_ok();
                let ok = faultgen::resolve(signal.fault_id) && repaired;
                (RecoveryAction::IdtRepair, ok)
            }
            FaultTarget::Hypercall { .. } => {
                let ok = faultgen::resolve(signal.fault_id);
                (RecoveryAction::HypercallRetry, ok)
            }
            // Update-on-suspicion: the damaged component is the
            // hypervisor's own frame accounting, so no in-place scrub
            // can be trusted — the incumbent's ledger is the thing
            // under suspicion.  Live-update to a pristine successor
            // whose accounting is *recomputed* from the guest's own
            // page tables; only a completed update resolves the fault,
            // so a rollback leaves it outstanding for the next poll.
            FaultTarget::VmmState { .. } => {
                let updated = self.live_update_recover(cpu);
                let ok = updated && faultgen::resolve(signal.fault_id);
                if updated {
                    // The successor's table was rebuilt wholesale, so
                    // every earlier rolled-back suspicion is healed too.
                    for id in self.suspected.drain(..) {
                        faultgen::resolve(id);
                    }
                } else {
                    self.suspected.push(signal.fault_id);
                }
                (RecoveryAction::LiveUpdate, ok)
            }
        }
    }

    /// Recover from VMM-state corruption by live-updating onto a
    /// freshly warmed, strictly-newer-versioned hypervisor (DESIGN.md
    /// §16).  Returns `true` only if the node completed the update on
    /// the successor; a rollback or refusal leaves the incumbent
    /// running (guest untouched) and reports failure.
    fn live_update_recover(&mut self, cpu: &Arc<Cpu>) -> bool {
        // The corruption hook fires at hypervisor service points, so
        // the node is virtual when the fault lands; if it detached
        // before this poll, `ensure_attached` has already re-attached
        // (and the attach recompute would *mask* the damage — but the
        // fault stays armed until an update actually resolves it).
        // A failed roll-forward has dropped its staging, so the next
        // poll stages a fresh instance.
        if self.mercury.roll_forward(cpu).is_ok() {
            merctrace::counter!(cpu.id, "watchdog.live_update", 1, cpu.cycles());
            return true;
        }
        merctrace::counter!(cpu.id, "watchdog.live_update_failed", 1, cpu.cycles());
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeConfig};
    use faultgen::FaultSpec;

    #[test]
    fn quiet_system_means_quiet_watchdog() {
        let node = Node::launch("n0", &NodeConfig::default());
        let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());
        let cpu = node.machine.boot_cpu();
        assert_eq!(dog.poll(cpu), 0);
        assert!(dog.reports().is_empty());
        assert!(!dog.holding_attach());
    }

    // The full injected-fault → attach → recover → detach loop is
    // exercised by the `fault_campaign` bench binary and the
    // workspace-level regression tests: hooks are compiled out in this
    // crate's default test build, so unit tests here cover the
    // no-signal and policy paths only.
    #[test]
    fn armed_but_unfired_faults_do_not_trigger_recovery() {
        let node = Node::launch("n0", &NodeConfig::default());
        let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());
        let cpu = node.machine.boot_cpu();
        faultgen::reset();
        faultgen::arm(vec![FaultSpec {
            id: 1,
            due_cycle: 0,
            target: FaultTarget::MemWord {
                frame: 1,
                word: 0,
                bit: 0,
            },
        }]);
        // Default build: hooks are compiled out, so the armed fault
        // never fires and the watchdog never acts.
        assert_eq!(dog.poll(cpu), 0);
        assert_eq!(faultgen::outstanding(), 1);
        dog.end_window(cpu);
        assert_eq!(node.mercury().mode(), ExecMode::Native);
        faultgen::reset();
    }

    #[test]
    fn degradation_keeps_its_reason() {
        let node = Node::launch("n0", &NodeConfig::default());
        let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());
        assert_eq!(dog.degraded_reason(), None);
        dog.mark_degraded("temperature trend rising");
        assert!(dog.degraded());
        assert_eq!(dog.degraded_reason(), Some("temperature trend rising"));
    }
}
