//! # faultgen — deterministic fault injection for the Mercury suite
//!
//! Mercury's dependability story (paper §2, §6.2/§6.3) is *reactive*:
//! when hardware misbehaves, the VMM is attached underneath the running
//! OS to isolate and recover, then detached once the danger passes.
//! faultgen supplies the misbehaviour: a seeded, deterministic engine
//! that injects
//!
//! * memory bit-flips in simulated DRAM frames,
//! * device timeouts (a wedged disk) and stuck interrupt lines,
//! * spurious interrupts,
//! * corrupted descriptor-table entries, and
//! * failed / slow hypercalls,
//!
//! through hook macros compiled into `simx86` and `xenon`.  The hooks
//! are feature-gated exactly like merctrace's probes: `enabled` is
//! turned on by the `faults` feature of the umbrella crate, simx86 and
//! xenon-hv; with it off (the default, and what `cargo test
//! --workspace` builds) every hook macro expands to its no-fault
//! constant *without evaluating its arguments*, so the instrumented
//! crates carry no injection code at all — `tests/faultgen_overhead.rs` pins that down by asserting
//! cycle- and state-identical execution.
//!
//! ## Determinism by seed
//!
//! A campaign plan is a list of [`FaultSpec`]s generated from a
//! [`SplitMix64`](rng::SplitMix64) seed; each fault fires the first
//! time its matching hardware hook runs at or after `due_cycle` on the
//! *simulated* cycle clock.  No host time, no host randomness: two runs
//! with the same seed produce bit-identical fault timings, which the
//! `fault_campaign` binary verifies by running every campaign twice.
//!
//! ## Control plane
//!
//! Arming, draining detection signals and resolving perturbations are
//! always compiled (only the hook call sites are gated), so a watchdog
//! builds the same way in every configuration:
//!
//! ```
//! use faultgen::{FaultSpec, FaultTarget};
//!
//! faultgen::reset();
//! faultgen::arm(vec![FaultSpec {
//!     id: 1,
//!     due_cycle: 1_000,
//!     target: FaultTarget::MemWord { frame: 40, word: 12, bit: 9 },
//! }]);
//! assert!(faultgen::is_armed());
//! assert_eq!(faultgen::outstanding(), 1);
//! // Hardware hooks fire the fault when its site runs; the watchdog
//! // then drains the signal and scrubs the flipped bit.
//! for signal in faultgen::drain_signals() {
//!     faultgen::resolve(signal.fault_id);
//! }
//! faultgen::reset();
//! ```
//!
//! The detection → attach → recover → detach lifecycle built on top of
//! this, and the full fault taxonomy, are documented in DESIGN.md §12.

#![deny(missing_docs)]

pub mod injector;
pub mod plan;
pub mod rng;

pub use injector::{arm, disarm, drain_signals, is_armed, outstanding, reset, resolve, stats};
pub use injector::{FaultSignal, InjectorStats};
pub use plan::{FaultClass, FaultSpec, FaultTarget};

/// `true` when the `enabled` feature compiled the injection hooks in.
///
/// Tier-1 builds assert this is `false`: fault hooks must be
/// unreachable (not merely disarmed) in default builds.
pub const ENABLED: bool = cfg!(feature = "enabled");

// ---------------------------------------------------------------------------
// Hook macros, live variants: expand to the runtime entry points.
// ---------------------------------------------------------------------------

/// Memory-read injection site: `mem_read_site!(cpu_index, now_cycles,
/// frame_u32, word_index_u64)` → XOR mask to apply to the word (0 = no
/// fault).
///
/// Expands to `0u64` — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! mem_read_site {
    ($cpu:expr, $cycles:expr, $frame:expr, $word:expr) => {
        $crate::injector::hooks::mem_read_site(
            $cpu as usize,
            $cycles as u64,
            $frame as u32,
            $word as u64,
        )
    };
}

/// Disk-pump injection site: `disk_site!(request_id)` → `true` if the
/// device is wedged on this request and the pump must stall.
///
/// Expands to `false` — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! disk_site {
    ($req:expr) => {
        $crate::injector::hooks::disk_site($req as u64)
    };
}

/// Interrupt-service injection site: `irq_site!(cpu_index,
/// now_cycles)` → `Some(vector)` to assert (spurious one-shot or stuck
/// re-assert), else `None`.
///
/// Expands to `None` — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! irq_site {
    ($cpu:expr, $cycles:expr) => {
        $crate::injector::hooks::irq_site($cpu as usize, $cycles as u64)
    };
}

/// Gate-dispatch injection site: `gate_site!(cpu_index, now_cycles,
/// vector)` → `true` if the descriptor is corrupted and the dispatch
/// must be swallowed.
///
/// Expands to `false` — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! gate_site {
    ($cpu:expr, $cycles:expr, $vector:expr) => {
        $crate::injector::hooks::gate_site($cpu as usize, $cycles as u64, $vector as u8)
    };
}

/// Hypercall injection site: `hypercall_site!(cpu_index, now_cycles)`
/// → penalty cycles to charge the caller (0 = no fault).
///
/// Expands to `0u64` — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! hypercall_site {
    ($cpu:expr, $cycles:expr) => {
        $crate::injector::hooks::hypercall_site($cpu as usize, $cycles as u64)
    };
}

/// VMM-state injection site: `vmm_site!(cpu_index, now_cycles)` →
/// `Some(frame)` whose accounting record the hypervisor must wipe
/// (the `VmmCorrupt` class), else `None`.
///
/// Expands to `None` — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! vmm_site {
    ($cpu:expr, $cycles:expr) => {
        $crate::injector::hooks::vmm_site($cpu as usize, $cycles as u64)
    };
}

// ---------------------------------------------------------------------------
// Hook macros, compiled-out variants: constant results, arguments
// dropped unevaluated (the trailing empty repetition swallows them).
// ---------------------------------------------------------------------------

/// Compiled-out [`mem_read_site!`]: `0u64`, arguments unevaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! mem_read_site {
    ($($args:expr),* $(,)?) => {
        0u64
    };
}

/// Compiled-out [`disk_site!`]: `false`, arguments unevaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! disk_site {
    ($($args:expr),* $(,)?) => {
        false
    };
}

/// Compiled-out [`irq_site!`]: `None`, arguments unevaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! irq_site {
    ($($args:expr),* $(,)?) => {
        ::core::option::Option::<u8>::None
    };
}

/// Compiled-out [`gate_site!`]: `false`, arguments unevaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! gate_site {
    ($($args:expr),* $(,)?) => {
        false
    };
}

/// Compiled-out [`hypercall_site!`]: `0u64`, arguments unevaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! hypercall_site {
    ($($args:expr),* $(,)?) => {
        0u64
    };
}

/// Compiled-out [`vmm_site!`]: `None`, arguments unevaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! vmm_site {
    ($($args:expr),* $(,)?) => {
        ::core::option::Option::<u32>::None
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_tracks_feature() {
        assert_eq!(crate::ENABLED, cfg!(feature = "enabled"));
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_macros_yield_no_fault_constants_without_evaluating() {
        let evaluated = std::cell::Cell::new(0u32);
        let _bump = || {
            evaluated.set(evaluated.get() + 1);
            0u64
        };
        assert_eq!(mem_read_site!(_bump(), _bump(), _bump(), _bump()), 0);
        assert_eq!(
            (disk_site!(_bump()), gate_site!(_bump(), _bump(), _bump())),
            (false, false)
        );
        assert_eq!(irq_site!(_bump(), _bump()), None);
        assert_eq!(hypercall_site!(_bump(), _bump()), 0);
        assert_eq!(vmm_site!(_bump(), _bump()), None);
        assert_eq!(
            evaluated.get(),
            0,
            "a disabled hook evaluated its arguments"
        );
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn live_macros_route_to_the_injector() {
        use crate::{FaultSpec, FaultTarget};
        crate::reset();
        crate::arm(vec![FaultSpec {
            id: 9,
            due_cycle: 0,
            target: FaultTarget::MemWord {
                frame: 3,
                word: 1,
                bit: 0,
            },
        }]);
        assert_eq!(mem_read_site!(0usize, 10u64, 3u32, 1u64), 1);
        assert_eq!(crate::drain_signals().len(), 1);
        crate::reset();
    }
}
