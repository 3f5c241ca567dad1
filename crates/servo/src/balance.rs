//! Cluster-wide least-loaded balancing.
//!
//! A [`ClusterServer`] fronts several [`NodeServer`]s with one arrival
//! stream, dispatching each request to the least-loaded node at its
//! arrival instant.  "Least loaded" is a lexicographic key: fewest
//! queued requests first, then least remaining busy work, then lowest
//! node index — the final tiebreak is what keeps the decision
//! deterministic when nodes are exactly level.
//!
//! Each node keeps its own simulated clock (nodes boot independently,
//! so their absolute cycle counts differ); the balancer works in
//! stream *offsets* and converts per node.  This mirrors a fleet
//! behind a load balancer: the balancer sees one wall clock, each node
//! its own uptime.

use crate::loadgen::Arrival;
use crate::sched::{NodeServer, RequestRecord};

/// A least-loaded dispatcher over a set of node servers.
///
/// ```
/// use mercury_cluster::{Cluster, NodeConfig};
/// use mercury_servo::balance::ClusterServer;
/// use mercury_servo::loadgen::{generate, LoadConfig};
/// use mercury_servo::sched::{NodeServer, Outcome, ServerConfig};
/// use mercury_workloads::mix::CostMix;
///
/// let cluster = Cluster::launch(2, &NodeConfig::default());
/// let cfg = ServerConfig { attach_echo_host: false, ..ServerConfig::default() };
/// let mut lb = ClusterServer::new(
///     cluster.nodes.iter().enumerate()
///         .map(|(i, n)| NodeServer::new(n, i as u32, cfg))
///         .collect(),
/// );
/// let traffic = generate(&LoadConfig {
///     seed: 3, mean_gap_cycles: 12_000, requests: 60, mix: CostMix::web(),
/// });
/// lb.run(&traffic, |_, _| {});
/// let records = lb.records();
/// assert_eq!(records.len(), 60);
/// // Under load, a two-node fleet actually spreads the work.
/// assert!(records.iter().any(|r| r.node == 0));
/// assert!(records.iter().any(|r| r.node == 1));
/// ```
pub struct ClusterServer {
    nodes: Vec<NodeServer>,
}

impl ClusterServer {
    /// Wrap the given node servers (dispatch order = vector order).
    pub fn new(nodes: Vec<NodeServer>) -> ClusterServer {
        assert!(!nodes.is_empty(), "balancer needs at least one node");
        ClusterServer { nodes }
    }

    /// The node servers, for per-node inspection.
    pub fn nodes(&self) -> &[NodeServer] {
        &self.nodes
    }

    /// Mutable access to one node server (e.g. for a hook driving a
    /// switch on a specific node).
    pub fn node_mut(&mut self, i: usize) -> &mut NodeServer {
        &mut self.nodes[i]
    }

    /// All request records across nodes, merged in arrival-offset order
    /// (ties by request id — unique, so the order is total).
    pub fn records(&self) -> Vec<RequestRecord> {
        let mut all: Vec<RequestRecord> = self
            .nodes
            .iter()
            .flat_map(|n| n.records().iter().copied())
            .collect();
        all.sort_by_key(|r| (r.arrival, r.id));
        all
    }

    /// Serve a whole arrival stream across the fleet.  `hook` runs
    /// before each dispatch with `(self, offset)`, after every node has
    /// been advanced to `offset`.
    pub fn run(&mut self, traffic: &[Arrival], mut hook: impl FnMut(&mut ClusterServer, u64)) {
        for a in traffic {
            for n in &mut self.nodes {
                let t = n.abs(a.offset);
                n.advance_to(t);
            }
            hook(self, a.offset);
            let pick = self.least_loaded(a.offset);
            let n = &mut self.nodes[pick];
            let t = n.abs(a.offset);
            n.advance_to(t);
            n.offer(a.id, &a.shape, t);
        }
        for n in &mut self.nodes {
            n.drain();
        }
    }

    /// Index of the least-loaded node at stream offset `offset`: the
    /// `(queued, busy, index)` key.
    fn least_loaded(&self, offset: u64) -> usize {
        (0..self.nodes.len())
            .min_by_key(|&i| {
                let n = &self.nodes[i];
                (n.queued(), n.busy_cycles(n.abs(offset)), i)
            })
            .expect("balancer has at least one node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, LoadConfig};
    use crate::sched::{Outcome, ServerConfig};
    use mercury_cluster::{Cluster, NodeConfig};
    use mercury_workloads::mix::CostMix;

    fn fleet(n: usize) -> ClusterServer {
        let cluster = Cluster::launch(n, &NodeConfig::default());
        let cfg = ServerConfig {
            attach_echo_host: false,
            ..ServerConfig::default()
        };
        ClusterServer::new(
            cluster
                .nodes
                .iter()
                .enumerate()
                .map(|(i, node)| NodeServer::new(node, i as u32, cfg))
                .collect(),
        )
    }

    #[test]
    fn spreads_load_and_accounts_everything() {
        let mut lb = fleet(3);
        let traffic = generate(&LoadConfig {
            seed: 17,
            mean_gap_cycles: 8_000,
            requests: 400,
            mix: CostMix::oltp(),
        });
        lb.run(&traffic, |_, _| {});
        let records = lb.records();
        assert_eq!(records.len(), 400);
        for node in 0..3u32 {
            assert!(
                records.iter().any(|r| r.node == node),
                "node {node} got no traffic under sustained load"
            );
        }
    }

    #[test]
    fn fleet_runs_are_seed_deterministic() {
        let run = || {
            let mut lb = fleet(2);
            let traffic = generate(&LoadConfig {
                seed: 29,
                mean_gap_cycles: 10_000,
                requests: 200,
                mix: CostMix::web(),
            });
            lb.run(&traffic, |_, _| {});
            lb.records()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_nodes_shed_less_than_one() {
        let overload = |n| {
            let mut lb = fleet(n);
            let traffic = generate(&LoadConfig {
                seed: 41,
                mean_gap_cycles: 2_000,
                requests: 300,
                mix: CostMix::analytics(),
            });
            lb.run(&traffic, |_, _| {});
            lb.records()
                .iter()
                .filter(|r| r.outcome == Outcome::Shed)
                .count()
        };
        assert!(
            overload(2) <= overload(1),
            "adding a node must not increase shedding at fixed load"
        );
    }
}
