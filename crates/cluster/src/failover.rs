//! Predictive failover for HPC clusters (§6.5).
//!
//! "When hardware errors are reported by the monitors, the operating
//! system immediately virtualizes itself to the full-virtual mode and
//! migrates itself to another healthy node, which in turn virtualizes
//! itself simultaneously to the partial-virtual mode to accommodate the
//! migrated operating system.  With this approach, the running programs
//! are completely shielded from the system failures, with no need to
//! stop and restart."

use crate::health::HealthStatus;
use crate::maintenance::{evacuate, EvacuatedGuest, MaintenanceError};
use crate::node::Node;
use simx86::cpu::vectors;
use std::sync::Arc;

/// Result of an automatic failover.
pub struct FailoverReport {
    /// Why the monitor triggered.
    pub trigger: String,
    /// The evacuated OS, alive on the target node.
    pub guest: EvacuatedGuest,
    /// Guest-observed downtime in microseconds.
    pub downtime_us: f64,
}

/// Failover errors.
#[derive(Debug)]
pub enum FailoverError {
    /// The monitor did not predict a failure — nothing to do.
    NoPrediction(HealthStatus),
    /// Evacuation failed.
    Evacuation(MaintenanceError),
}

impl std::fmt::Display for FailoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailoverError::NoPrediction(s) => write!(f, "no failure predicted: {s:?}"),
            FailoverError::Evacuation(e) => write!(f, "evacuation failed: {e}"),
        }
    }
}

impl std::error::Error for FailoverError {}

/// Consult the failing node's monitor and, on a failure prediction,
/// evacuate its OS to `healthy`.  Also raises a machine-check on the
/// failing node so the kernel's own view agrees something is wrong.
pub fn auto_failover(
    failing: &Arc<Node>,
    healthy: &Arc<Node>,
) -> Result<FailoverReport, FailoverError> {
    let status = failing.health.assess();
    let HealthStatus::FailurePredicted(reason) = status else {
        return Err(FailoverError::NoPrediction(status));
    };

    // The platform reports the error to the OS as well.
    failing.machine.intc.raise(0, vectors::MACHINE_CHECK);
    failing.session().service();
    debug_assert!(failing
        .kernel()
        .mce_seen
        .load(std::sync::atomic::Ordering::Acquire));

    let guest = evacuate(failing, healthy).map_err(FailoverError::Evacuation)?;
    let downtime_us = guest.report.downtime_us();
    Ok(FailoverReport {
        trigger: reason,
        guest,
        downtime_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::SensorReading;
    use crate::node::{Cluster, NodeConfig};
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use nimbus::Session;

    #[test]
    fn healthy_node_does_not_fail_over() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let Err(err) = auto_failover(cluster.node(0), cluster.node(1)) else {
            panic!("healthy node must not fail over");
        };
        assert!(matches!(
            err,
            FailoverError::NoPrediction(HealthStatus::Healthy)
        ));
        assert_eq!(cluster.node(0).mercury().mode(), mercury::ExecMode::Native);
    }

    #[test]
    fn predicted_failure_evacuates_with_live_state() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let failing = cluster.node(0);
        let healthy = cluster.node(1);

        // Long-running "HPC job".
        let sess = failing.session();
        let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
        for p in 0..4u64 {
            sess.poke(simx86::VirtAddr(va.0 + p * 4096), p * 11)
                .unwrap();
        }

        // Overheating trend.
        for t in [68.0, 73.0, 79.0] {
            failing.health.inject(SensorReading {
                temp_c: t,
                ..Default::default()
            });
        }
        let report = auto_failover(failing, healthy).unwrap();
        assert!(report.trigger.contains("temperature"));
        assert!(report.downtime_us > 0.0);

        // The job's memory survived, on the other node's hardware.
        healthy.hv().set_current(0, Some(report.guest.dom.id));
        let gsess = Session::new(std::sync::Arc::clone(&report.guest.kernel), 0);
        for p in 0..4u64 {
            assert_eq!(
                gsess.peek(simx86::VirtAddr(va.0 + p * 4096)).unwrap(),
                p * 11
            );
        }
        // And the machine-check was observed by the (old) kernel.
        assert!(failing
            .kernel()
            .mce_seen
            .load(std::sync::atomic::Ordering::Acquire));
    }
}
