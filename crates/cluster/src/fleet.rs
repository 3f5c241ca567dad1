//! The shared fleet-state view: one place where the balancer, the
//! watchdog, and the migration policy meet.
//!
//! Before this module each of those components special-cased the
//! others (the balancer asked the watchdog, the watchdog poked the
//! balancer's node list).  Now every component reads and writes one
//! [`FleetState`]: the watchdog *marks* a node degraded, the migration
//! policy *selects* targets from the same view, and the balancer folds
//! the view into its dispatch key — a node mid-stop-and-copy must not
//! win the least-loaded tiebreak (DESIGN.md §15).
//!
//! Nodes are grouped into racks of [`FleetState::rack_size`] by index;
//! the rolling "patch Tuesday" maintenance wave virtualizes, evacuates,
//! maintains and re-homes one rack at a time, always evacuating to a
//! peer *outside* the rack under maintenance.

use simx86::sync::Mutex;
use std::sync::Arc;

/// Where a node stands in the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeStatus {
    /// Serving normally; a valid dispatch and migration target.
    Healthy,
    /// The watchdog or health monitor flagged it (reason attached):
    /// route away and drain, but its OS still runs.
    Degraded(String),
    /// Being drained ahead of evacuation: serves its queue, takes no
    /// new work.
    Draining,
    /// Its OS lives on a peer; there is nothing here to dispatch to.
    Evacuated,
    /// Under maintenance (rolling wave); not dispatchable.
    Maintenance,
}

/// Migration activity on a node, as the balancer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// No migration in flight.
    Idle,
    /// Iterative pre-copy rounds: the node serves, but every round
    /// steals cycles — deprioritize it.
    PreCopy,
    /// Paused for the final copy.  Dispatching here parks the request
    /// behind the whole stop-and-copy downtime.
    StopAndCopy,
}

#[derive(Clone)]
struct Entry {
    status: NodeStatus,
    phase: MigrationPhase,
    /// The VMM build version the node last reported
    /// ([`xenon::Hypervisor::version`]); rolling live-update waves
    /// bump it rack by rack, and the fleet is "converged" when every
    /// node reports the same one.
    hv_version: u32,
}

/// Shared, mutex-guarded per-node status + migration phase, plus the
/// static rack layout.  Cheap to clone the handle (`Arc`); all methods
/// take `&self`.
///
/// ```
/// use mercury_cluster::fleet::{FleetState, MigrationPhase, NodeStatus};
///
/// let fleet = FleetState::new(6, 3);
/// assert_eq!(fleet.racks(), 2);
/// assert_eq!(fleet.rack_of(4), 1);
/// fleet.set_phase(2, MigrationPhase::StopAndCopy);
/// // Stop-and-copy ranks behind every healthy idle node.
/// assert!(fleet.balance_class(2).unwrap() > fleet.balance_class(0).unwrap());
/// fleet.set_status(5, NodeStatus::Evacuated);
/// assert_eq!(fleet.balance_class(5), None); // nothing there to serve
/// ```
pub struct FleetState {
    entries: Mutex<Vec<Entry>>,
    rack_size: usize,
}

impl FleetState {
    /// A fleet of `nodes` healthy, idle nodes in racks of `rack_size`.
    pub fn new(nodes: usize, rack_size: usize) -> Arc<FleetState> {
        assert!(rack_size > 0, "rack size must be positive");
        Arc::new(FleetState {
            entries: Mutex::new(vec![
                Entry {
                    status: NodeStatus::Healthy,
                    phase: MigrationPhase::Idle,
                    hv_version: 1,
                };
                nodes
            ]),
            rack_size,
        })
    }

    /// Number of nodes in the view.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Is the fleet empty?
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Nodes per rack.
    pub fn rack_size(&self) -> usize {
        self.rack_size
    }

    /// Number of racks (last one may be partial).
    pub fn racks(&self) -> usize {
        self.len().div_ceil(self.rack_size)
    }

    /// The rack `node` belongs to.
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.rack_size
    }

    /// Node indices in `rack`.
    pub fn rack_members(&self, rack: usize) -> Vec<usize> {
        let n = self.len();
        (rack * self.rack_size..((rack + 1) * self.rack_size).min(n)).collect()
    }

    /// Current status of `node`.
    pub fn status(&self, node: usize) -> NodeStatus {
        self.entries.lock()[node].status.clone()
    }

    /// Set the status of `node`.
    pub fn set_status(&self, node: usize, status: NodeStatus) {
        self.entries.lock()[node].status = status;
    }

    /// Current migration phase of `node`.
    pub fn phase(&self, node: usize) -> MigrationPhase {
        self.entries.lock()[node].phase
    }

    /// Set the migration phase of `node`.
    pub fn set_phase(&self, node: usize, phase: MigrationPhase) {
        self.entries.lock()[node].phase = phase;
    }

    /// The VMM build version `node` last published.
    pub fn hv_version(&self, node: usize) -> u32 {
        self.entries.lock()[node].hv_version
    }

    /// Publish `node`'s VMM build version (read off the node with
    /// [`xenon::liveupdate::status`] after launch, a live-update, or a
    /// rolling maintenance wave).
    pub fn set_hv_version(&self, node: usize, version: u32) {
        self.entries.lock()[node].hv_version = version;
    }

    /// The lowest VMM version any node still runs — the fleet's
    /// effective (weakest-link) hypervisor version.  A rolling
    /// live-update wave is done when this reaches the wave's target.
    pub fn min_hv_version(&self) -> u32 {
        self.entries
            .lock()
            .iter()
            .map(|e| e.hv_version)
            .min()
            .unwrap_or(0)
    }

    /// The balancer's first-order dispatch key for `node`:
    /// `None` when there is nothing running there to dispatch to
    /// (evacuated / under maintenance); otherwise a penalty class,
    /// lower is better.  Queue depth and busy cycles break ties
    /// *within* a class, so a node mid-stop-and-copy can never win the
    /// least-loaded tiebreak against a healthy idle peer.
    pub fn balance_class(&self, node: usize) -> Option<u64> {
        let e = &self.entries.lock()[node];
        match e.status {
            NodeStatus::Evacuated | NodeStatus::Maintenance => return None,
            NodeStatus::Healthy => {}
            // Draining and degraded nodes still run an OS, but only
            // take new work when nothing healthier exists.
            NodeStatus::Degraded(_) => return Some(3),
            NodeStatus::Draining => return Some(4),
        }
        Some(match e.phase {
            MigrationPhase::Idle => 0,
            MigrationPhase::PreCopy => 1,
            MigrationPhase::StopAndCopy => 2,
        })
    }

    /// Is `node` a valid *migration target* right now?  Stricter than
    /// dispatchability: only a healthy node with no migration of its
    /// own in flight may receive an evacuated OS.
    pub fn migration_target_ok(&self, node: usize) -> bool {
        let e = &self.entries.lock()[node];
        e.status == NodeStatus::Healthy && e.phase == MigrationPhase::Idle
    }

    /// Indices of currently healthy nodes.
    pub fn healthy_nodes(&self) -> Vec<usize> {
        self.entries
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.status == NodeStatus::Healthy)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_layout_partitions_the_fleet() {
        let fleet = FleetState::new(10, 4);
        assert_eq!(fleet.racks(), 3);
        assert_eq!(fleet.rack_members(0), vec![0, 1, 2, 3]);
        assert_eq!(fleet.rack_members(2), vec![8, 9]);
        for i in 0..10 {
            assert!(fleet.rack_members(fleet.rack_of(i)).contains(&i));
        }
    }

    #[test]
    fn balance_classes_order_the_fleet() {
        let fleet = FleetState::new(5, 5);
        fleet.set_phase(1, MigrationPhase::PreCopy);
        fleet.set_phase(2, MigrationPhase::StopAndCopy);
        fleet.set_status(3, NodeStatus::Degraded("hot".into()));
        fleet.set_status(4, NodeStatus::Evacuated);
        let c = |i: usize| fleet.balance_class(i);
        assert!(c(0) < c(1), "healthy idle beats pre-copy");
        assert!(c(1) < c(2), "pre-copy beats stop-and-copy");
        assert!(c(2) < c(3), "stop-and-copy beats degraded");
        assert_eq!(c(4), None, "evacuated nodes are not dispatchable");
    }

    #[test]
    fn hv_versions_track_the_weakest_link() {
        let fleet = FleetState::new(4, 2);
        assert_eq!(fleet.min_hv_version(), 1);
        fleet.set_hv_version(0, 2);
        fleet.set_hv_version(1, 2);
        fleet.set_hv_version(3, 2);
        assert_eq!(fleet.hv_version(0), 2);
        assert_eq!(fleet.min_hv_version(), 1, "node 2 still on v1");
        fleet.set_hv_version(2, 2);
        assert_eq!(fleet.min_hv_version(), 2);
    }

    #[test]
    fn migration_targets_are_healthy_and_idle() {
        let fleet = FleetState::new(3, 3);
        assert!(fleet.migration_target_ok(0));
        fleet.set_phase(0, MigrationPhase::PreCopy);
        assert!(!fleet.migration_target_ok(0));
        fleet.set_status(1, NodeStatus::Draining);
        assert!(!fleet.migration_target_ok(1));
        assert!(fleet.migration_target_ok(2));
    }
}
