//! Live kernel update under a temporarily attached VMM (§6.4).
//!
//! LUCOS showed VMM-mediated live updating of Linux but "requires a VMM
//! permanently underneath the operating system"; self-virtualization
//! removes exactly that cost: "when there is a need to perform a live
//! update, a VMM could be dynamically attached ... the attached VMM then
//! applies the live update and is detached when the live update is
//! completed."

use crate::switch::{Mercury, SwitchError};
use simx86::{costs, Cpu};
use std::sync::Arc;

/// Per-patch application cost charged while the VMM mediates (code
/// rewriting, quiescence checks).
pub const PATCH_APPLY_COST: u64 = 40_000;

/// Result of a completed live update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// Patch name.
    pub name: String,
    /// Previously installed version, if any.
    pub old_version: Option<u64>,
    /// Version now live.
    pub new_version: u64,
    /// Cycles the whole operation took (attach + patch + detach).
    pub total_cycles: u64,
    /// Whether the kernel was returned to native mode afterwards.
    pub returned_native: bool,
}

/// Apply a live patch under the VMM's mediation, on demand
/// ([`Mercury::on_demand`]).  Running applications never stop.
pub fn apply(
    mercury: &Arc<Mercury>,
    cpu: &Arc<Cpu>,
    name: &str,
    version: u64,
) -> Result<UpdateReport, SwitchError> {
    let t0 = cpu.cycles();
    let (old_version, returned_native) = mercury.on_demand(cpu, |attached| {
        // The VMM is in full control; apply the patch atomically with
        // respect to guest execution.
        cpu.tick(PATCH_APPLY_COST);
        let old = mercury.kernel().apply_patch(name, version);
        Ok::<_, SwitchError>((old, attached))
    })?;
    Ok(UpdateReport {
        name: name.to_string(),
        old_version,
        new_version: version,
        total_cycles: cpu.cycles() - t0,
        returned_native,
    })
}

/// Rough upper bound on the update's service disruption: both mode
/// switches plus the patch window, in microseconds.
pub fn estimated_disruption_us(report: &UpdateReport) -> f64 {
    costs::cycles_to_us(report.total_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::tests::{let_the_retry_timer_fire, rig};
    use crate::TrackingStrategy;

    #[test]
    fn patch_applies_and_returns_native() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        assert_eq!(mercury.kernel().patch_version("cve-fix"), None);
        let report = apply(&mercury, cpu, "cve-fix", 2).unwrap();
        assert_eq!(report.old_version, None);
        assert_eq!(report.new_version, 2);
        assert!(report.returned_native);
        assert_eq!(mercury.kernel().patch_version("cve-fix"), Some(2));
        assert!(!hv.is_active(), "VMM dormant again after the update");
        // The whole disruption is far below a reboot.
        assert!(estimated_disruption_us(&report) < 2_000.0);
    }

    #[test]
    fn repeated_patches_supersede() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        apply(&mercury, cpu, "sched", 1).unwrap();
        let r = apply(&mercury, cpu, "sched", 3).unwrap();
        assert_eq!(r.old_version, Some(1));
        assert_eq!(mercury.kernel().patches(), vec![("sched".to_string(), 3)]);
    }

    #[test]
    fn update_in_virtual_mode_needs_no_switch() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        mercury.switch_to_virtual(cpu).unwrap();
        let report = apply(&mercury, cpu, "hotfix", 1).unwrap();
        assert!(!report.returned_native);
        assert!(hv.is_active());
    }

    #[test]
    fn busy_vo_rejects_update() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let guard = mercury.vo_refcount().enter();
        assert_eq!(apply(&mercury, cpu, "x", 1), Err(SwitchError::Busy(1)));
        assert_eq!(mercury.kernel().patch_version("x"), None);
        // A refused update is over: the retry timer must not attach the
        // VMM later on behalf of a caller that already gave up.
        assert_eq!(mercury.pending_target(), None);
        drop(guard);
        let_the_retry_timer_fire(&machine, cpu);
        assert_eq!(mercury.mode(), crate::ExecMode::Native);
        assert!(!hv.is_active());
    }
}
