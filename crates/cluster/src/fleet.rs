//! The shared fleet-state view: one place where the balancer, the
//! watchdog, and evacuation-target selection meet.
//!
//! Every component reads and writes one [`FleetState`]: the watchdog
//! *marks* a node degraded, [`FleetState::select_target`] picks
//! evacuation targets from the same view, and the balancer folds the
//! view into its dispatch key — a degraded node must not win the
//! least-loaded tiebreak (DESIGN.md §15).
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
    /// Its OS lives on a peer; there is nothing here to dispatch to.
    Evacuated,
    /// Under maintenance (rolling wave); not dispatchable.
    Maintenance,
}

#[derive(Clone)]
struct Entry {
    status: NodeStatus,
    /// The VMM build version the node last reported
    /// ([`xenon::Hypervisor::version`]); rolling live-update waves
    /// bump it rack by rack, and the fleet is "converged" when every
    /// node reports the same one.
    hv_version: u32,
}

/// Shared, mutex-guarded per-node status, plus the static rack
/// layout.  Cheap to clone the handle (`Arc`); all methods
/// take `&self`.
///
/// ```
/// use mercury_cluster::fleet::{FleetState, NodeStatus};
///
/// let fleet = FleetState::new(6, 3);
/// assert_eq!(fleet.racks(), 2);
/// assert_eq!(fleet.rack_of(4), 1);
/// fleet.set_status(2, NodeStatus::Degraded("hot".into()));
/// // A degraded node ranks behind every healthy one.
/// assert!(fleet.balance_class(2).unwrap() > fleet.balance_class(0).unwrap());
/// fleet.set_status(5, NodeStatus::Evacuated);
/// assert_eq!(fleet.balance_class(5), None); // nothing there to serve
/// ```
pub struct FleetState {
    entries: Mutex<Vec<Entry>>,
    rack_size: usize,
}

impl FleetState {
    /// A fleet of `nodes` healthy nodes in racks of `rack_size`.
    pub fn new(nodes: usize, rack_size: usize) -> Arc<FleetState> {
        assert!(rack_size > 0, "rack size must be positive");
        Arc::new(FleetState {
            entries: Mutex::new(vec![
                Entry {
                    status: NodeStatus::Healthy,
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
    /// *within* a class, so a degraded node can never win the
    /// least-loaded tiebreak against a healthy peer.
    pub fn balance_class(&self, node: usize) -> Option<u64> {
        match self.entries.lock()[node].status {
            NodeStatus::Evacuated | NodeStatus::Maintenance => None,
            NodeStatus::Healthy => Some(0),
            // A degraded node still runs an OS, but only takes new
            // work when nothing healthier exists.
            NodeStatus::Degraded(_) => Some(1),
        }
    }

    /// Is `node` a valid *migration target* right now?  Stricter than
    /// dispatchability: only a healthy node may receive an evacuated
    /// OS.
    pub fn migration_target_ok(&self, node: usize) -> bool {
        self.entries.lock()[node].status == NodeStatus::Healthy
    }

    /// Pick the evacuation target for `source`: the least-loaded node
    /// that [`migration_target_ok`](FleetState::migration_target_ok)
    /// admits, excluding `source` itself and, when `exclude_rack` is
    /// given, every node in that rack (the rolling wave never evacuates
    /// into the rack it is about to take down).  `load` supplies the
    /// balancer's `(queued, busy_cycles)` signal per node; ties break
    /// to the lowest index, keeping selection deterministic.
    pub fn select_target(
        &self,
        source: usize,
        exclude_rack: Option<usize>,
        load: impl Fn(usize) -> (usize, u64),
    ) -> Option<usize> {
        (0..self.len())
            .filter(|&i| i != source && self.migration_target_ok(i))
            .filter(|&i| exclude_rack != Some(self.rack_of(i)))
            .min_by_key(|&i| {
                let (queued, busy) = load(i);
                (queued, busy, i)
            })
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
        fleet.set_status(3, NodeStatus::Degraded("hot".into()));
        fleet.set_status(4, NodeStatus::Evacuated);
        let c = |i: usize| fleet.balance_class(i);
        assert!(c(0).is_some());
        assert!(c(0) < c(3), "healthy beats degraded");
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
    fn migration_targets_are_healthy() {
        let fleet = FleetState::new(3, 3);
        assert!(fleet.migration_target_ok(0));
        fleet.set_status(1, NodeStatus::Degraded("hot".into()));
        assert!(!fleet.migration_target_ok(1));
        assert!(fleet.migration_target_ok(2));
    }

    #[test]
    fn target_selection_prefers_least_loaded_healthy_peers() {
        let fleet = FleetState::new(6, 3);
        // Node 1 is busy, node 3 degraded.
        fleet.set_status(3, NodeStatus::Degraded("hot".into()));
        let load = |i: usize| if i == 1 { (5, 1_000) } else { (0, 0) };

        // Least-loaded healthy peer wins, lowest index on a tie.
        assert_eq!(fleet.select_target(0, None, load), Some(2));
        // Excluding rack 0 (nodes 0..=2) skips the degraded node 3 too.
        assert_eq!(fleet.select_target(0, Some(0), load), Some(4));
        // Excluding rack 1 (nodes 3..=5) leaves the busy node 1 behind 2.
        fleet.set_status(2, NodeStatus::Evacuated);
        assert_eq!(fleet.select_target(0, Some(1), load), Some(1));
        // No healthy peer leaves nothing.
        fleet.set_status(1, NodeStatus::Degraded("hot".into()));
        fleet.set_status(4, NodeStatus::Evacuated);
        fleet.set_status(5, NodeStatus::Maintenance);
        assert_eq!(fleet.select_target(0, None, load), None);
    }
}
