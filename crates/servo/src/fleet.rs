//! One arrival stream over many nodes, and the one place that knows
//! each node's condition (DESIGN.md §13.3, §15).
//!
//! The paper's §6.3 maintenance / §6.5 failover arrangement says a
//! node's OS is in exactly one place: serving at home, or parked on a
//! partial-virtual peer.  [`FleetServer`] states that once, as one
//! [`NodeState`] per node:
//!
//! ```text
//!             drain_node ok                    rehome_node ok
//!   Serving ────────────────▶ Parked{host} ────────────────▶ Serving
//!   │  ▲  │                     │   (maintain_rack holds       (fresh server,
//!   │  │  │ drain_node err      │    its rack here)             degraded cleared)
//!   │  │  └──────────────────┐  │ rehome_node err
//!   │  └ degrade / failed    ▼  ▼
//!   │    update_rack       Failed(reason)      (terminal: the OS is gone)
//!   └─ (sets `degraded`)
//! ```
//!
//! Everything else reads that vector:
//!
//! * **Dispatch** keys on `(class, queued, busy, index)` over the
//!   `Serving` nodes, class 0 healthy / 1 degraded, so a degraded node
//!   cannot win the least-loaded tiebreak and a parked or failed node
//!   is not there to pick.  A fleet whose nodes are all `Serving` *is*
//!   the plain least-loaded cluster balancer.
//! * **Evacuation** ([`FleetServer::drain_node`]) drains a node's
//!   admission queue, retires its server, and live-migrates its OS to
//!   the least-loaded healthy peer while the rest of the fleet keeps
//!   serving.  The peer keeps serving its *own* traffic too — it hosts
//!   the parked guest in partial-virtual mode, exactly §6.3.
//! * **Re-homing** ([`FleetServer::rehome_node`]) migrates the OS back
//!   and rebuilds the node's server; its clock restarts, so `Serving`
//!   carries the stream *origin* that rebases its records onto the
//!   single fleet-wide stream.
//! * **The rolling wave** ([`FleetServer::maintain_rack`] /
//!   [`FleetServer::patch_tuesday`]) evacuates, maintains and re-homes
//!   one rack (`rack_size` consecutive indices) at a time, always
//!   evacuating *outside* the rack under maintenance.
//! * **The live-update wave** ([`FleetServer::update_rack`] /
//!   [`FleetServer::patch_tuesday_live_update`]) rolls every serving
//!   node's hypervisor forward rack by rack *without draining a single
//!   guest* (DESIGN.md §16).  Versions are read off the nodes
//!   ([`FleetServer::min_hv_version`]), never cached.
//!
//! A transition that fails ends in `Failed`, never in a dispatchable
//! state, and no transition can remove the last `Serving` node: a drain
//! needs a healthy `Serving` target, which stays `Serving` (a host is
//! pinned while it hosts).  So every arrival lands on some node and
//! gets that node's completed/shed record; `offered == records` is the
//! zero-lost-requests invariant `benchgate.py --fleet` enforces.

use crate::loadgen::Arrival;
use crate::sched::{NodeServer, RequestRecord, ServerConfig};
use mercury::SwitchError;
use mercury_cluster::maintenance::{evacuate, return_home, EvacuatedGuest, MaintenanceError};
use mercury_cluster::{Cluster, Node};
use mercury_workloads::mix::RequestShape;
use std::ops::Range;
use std::sync::Arc;

/// Where one node's OS is.
pub enum NodeState {
    /// At home behind a live server.
    Serving {
        /// The node's run-to-completion server.
        server: NodeServer,
        /// Stream offset the server was (re)built at.  A re-homed
        /// node's server starts a fresh clock; `origin` rebases its
        /// relative record times onto the fleet-wide stream.
        origin: u64,
        /// Why the balancer should route away and no peer should park
        /// a guest here (watchdog or health-monitor verdict, a rolled
        /// back live-update); its OS still runs.
        degraded: Option<String>,
    },
    /// Parked on a peer; there is nothing here to dispatch to.
    Parked {
        /// The OS, running as a guest.
        guest: EvacuatedGuest,
        /// The partial-virtual peer hosting it (always `Serving`).
        host: usize,
    },
    /// A migration failed part-way and consumed the OS.  Terminal.
    Failed(String),
}

/// The fleet: N simulated nodes behind one migration-aware balancer.
///
/// With every node `Serving` this is the least-loaded cluster
/// balancer: fewest queued requests first, then least remaining busy
/// work, then lowest node index — the final tiebreak is what keeps the
/// decision deterministic when nodes are exactly level.  Each node
/// keeps its own simulated clock (nodes boot independently); the
/// balancer works in stream *offsets* and converts per node.
///
/// ```
/// use mercury_cluster::{Cluster, NodeConfig};
/// use mercury_servo::loadgen::{generate, LoadConfig};
/// use mercury_servo::{FleetServer, ServerConfig};
/// use mercury_workloads::mix::CostMix;
///
/// let cluster = Cluster::launch(2, &NodeConfig::default());
/// let cfg = ServerConfig { attach_echo_host: false, ..ServerConfig::default() };
/// let mut lb = FleetServer::new(&cluster, 2, cfg);
/// let traffic = generate(&LoadConfig {
///     seed: 3, mean_gap_cycles: 12_000, requests: 60, mix: CostMix::web(),
/// });
/// lb.run(&traffic, |_, _| {});
/// let records = lb.finish();
/// assert_eq!(records.len(), 60);
/// // Under load, a two-node fleet actually spreads the work.
/// assert!(records.iter().any(|r| r.node == 0));
/// assert!(records.iter().any(|r| r.node == 1));
/// ```
pub struct FleetServer {
    nodes: Vec<Arc<Node>>,
    /// One entry per node, same order.
    state: Vec<NodeState>,
    rack_size: usize,
    cfg: ServerConfig,
    /// Harvested (rebased) records from retired servers; live servers'
    /// records are merged in [`FleetServer::finish`].
    records: Vec<RequestRecord>,
    offered: u64,
    downtimes: Vec<u64>,
    evac_makespans: Vec<u64>,
    wave_spans: Vec<u64>,
}

impl FleetServer {
    /// Stand up one server per cluster node (fleet index = cluster
    /// index), all `Serving`, in racks of `rack_size` consecutive
    /// indices.
    ///
    /// `cfg.attach_echo_host` must be off: the NICs carry the
    /// inter-node links, and fleet nodes are rebuilt after re-homing —
    /// a per-node echo host would be attached twice.
    pub fn new(cluster: &Cluster, rack_size: usize, cfg: ServerConfig) -> FleetServer {
        assert!(
            !cfg.attach_echo_host,
            "fleet nodes must not attach per-node echo hosts"
        );
        assert!(rack_size > 0, "rack size must be positive");
        let nodes: Vec<Arc<Node>> = cluster.nodes.iter().map(Arc::clone).collect();
        assert!(!nodes.is_empty(), "fleet needs at least one node");
        let state = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeState::Serving {
                server: NodeServer::new(n, i as u32, cfg),
                origin: 0,
                degraded: None,
            })
            .collect();
        FleetServer {
            nodes,
            state,
            rack_size,
            cfg,
            records: Vec::new(),
            offered: 0,
            downtimes: Vec::new(),
            evac_makespans: Vec::new(),
            wave_spans: Vec::new(),
        }
    }

    /// The underlying cluster nodes, fleet order.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// Node `i`'s condition.
    pub fn state(&self, i: usize) -> &NodeState {
        &self.state[i]
    }

    /// Is every node serving at home with no degradation flagged?
    pub fn healed(&self) -> bool {
        self.state
            .iter()
            .all(|s| matches!(s, NodeState::Serving { degraded: None, .. }))
    }

    /// Number of racks (the last one may be partial).
    pub fn racks(&self) -> usize {
        self.nodes.len().div_ceil(self.rack_size)
    }

    /// The rack node `i` belongs to.
    pub fn rack_of(&self, i: usize) -> usize {
        i / self.rack_size
    }

    /// Node indices in `rack`.
    pub fn rack_members(&self, rack: usize) -> Range<usize> {
        rack * self.rack_size..((rack + 1) * self.rack_size).min(self.nodes.len())
    }

    /// The lowest VMM version any node runs, read off the nodes — the
    /// fleet's effective (weakest-link) hypervisor version.  A rolling
    /// live-update wave is done when this reaches the wave's target.
    pub fn min_hv_version(&self) -> u32 {
        self.nodes
            .iter()
            .map(|n| n.hv().version())
            .min()
            .expect("fleet has at least one node")
    }

    /// Arrivals offered so far (the zero-lost denominator).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Guest-observed downtime of every migration so far (evacuations
    /// and re-homings), in cycles.
    pub fn downtimes(&self) -> &[u64] {
        &self.downtimes
    }

    /// Wall (source-clock) makespan of every evacuation so far, in
    /// cycles: drain start to guest parked on the peer.
    pub fn evac_makespans(&self) -> &[u64] {
        &self.evac_makespans
    }

    /// Wall span of every completed rack-maintenance wave, in cycles.
    pub fn wave_spans(&self) -> &[u64] {
        &self.wave_spans
    }

    /// Flag serving node `i` degraded: it loses every least-loaded
    /// tiebreak to a healthy peer and stops being an evacuation target,
    /// but its OS still runs and it still takes work when nothing
    /// healthier exists.  The one entry point for watchdog verdicts
    /// and health predictions; a node whose OS is elsewhere has
    /// nothing here to degrade.
    pub fn degrade(&mut self, i: usize, reason: &str) {
        if let NodeState::Serving { degraded, .. } = &mut self.state[i] {
            *degraded = Some(reason.to_string());
        }
    }

    fn rebased(r: &RequestRecord, origin: u64) -> RequestRecord {
        RequestRecord {
            arrival: r.arrival + origin,
            start: r.start + origin,
            finish: r.finish + origin,
            ..*r
        }
    }

    /// Node `i`'s dispatch key at stream offset `offset`, when it is
    /// serving: `(class, queued, busy, index)`, class `false` healthy <
    /// `true` degraded.  Queue depth and busy cycles break ties
    /// *within* a class, so a degraded node can never win the
    /// least-loaded tiebreak against a healthy peer.
    fn key(&self, i: usize, offset: u64) -> Option<(bool, usize, u64, usize)> {
        let NodeState::Serving {
            server,
            origin,
            degraded,
        } = &self.state[i]
        else {
            return None;
        };
        let t = server.abs(offset.saturating_sub(*origin));
        Some((
            degraded.is_some(),
            server.queued(),
            server.busy_cycles(t),
            i,
        ))
    }

    /// Replay completions up to stream offset `offset` on every
    /// serving node (which also folds hook-charged cycles back into
    /// worker availability, so the pick sees a stalled node as busy).
    fn advance_all(&mut self, offset: u64) {
        for s in &mut self.state {
            if let NodeState::Serving { server, origin, .. } = s {
                let t = server.abs(offset.saturating_sub(*origin));
                server.advance_to(t);
            }
        }
    }

    /// The dispatch pick: the least key over the serving nodes.
    fn pick(&self, offset: u64) -> usize {
        (0..self.nodes.len())
            .filter_map(|i| self.key(i, offset))
            .min()
            .expect("no transition removes the last serving node")
            .3
    }

    /// The evacuation target for `source`: the least-loaded healthy
    /// serving peer, never `source` itself and never inside
    /// `exclude_rack` (the rolling wave does not evacuate into the rack
    /// it is about to take down).  The load key is hosting-aware: a
    /// peer already hosting guests ranks behind an empty one regardless
    /// of serving load.  Without this, level serving loads tie toward
    /// the lowest index and a whole rack's guests pile onto one host
    /// until its frame allocator runs dry mid-migration.
    fn select_target(
        &self,
        source: usize,
        offset: u64,
        exclude_rack: Option<usize>,
    ) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&j| j != source && exclude_rack != Some(self.rack_of(j)))
            .filter_map(|j| self.key(j, offset))
            .filter(|&(degraded, ..)| !degraded)
            .map(|(_, queued, busy, j)| (self.hosted(j) * 1_000_000 + queued, busy, j))
            .min()
            .map(|(_, _, j)| j)
    }

    /// Guest domains riding on node `i`'s hypervisor beside its own
    /// OS, read off the node: parked peers, and whatever a failed
    /// migration left behind.
    fn hosted(&self, i: usize) -> usize {
        self.nodes[i].hv().domains().len().saturating_sub(1)
    }

    /// Offer one arrival at stream offset `offset` to the best serving
    /// node.
    pub fn offer(&mut self, id: u64, shape: &RequestShape, offset: u64) {
        self.offered += 1;
        let i = self.pick(offset);
        let NodeState::Serving { server, origin, .. } = &mut self.state[i] else {
            unreachable!("pick returns a serving node")
        };
        let t = server.abs(offset.saturating_sub(*origin));
        server.advance_to(t);
        server.offer(id, shape, t);
    }

    /// Serve a whole arrival stream.  `hook` runs before each dispatch
    /// with `(self, offset)` — the place to poll watchdogs, switch a
    /// node's mode, trigger evacuations, or roll a maintenance wave.
    /// Call [`finish`](FleetServer::finish) afterwards to drain and
    /// collect.
    pub fn run(&mut self, traffic: &[Arrival], mut hook: impl FnMut(&mut FleetServer, u64)) {
        for a in traffic {
            self.advance_all(a.offset);
            hook(self, a.offset);
            self.advance_all(a.offset);
            self.offer(a.id, &a.shape, a.offset);
        }
    }

    /// Drain every serving node and return all records — harvested and
    /// live — rebased onto the fleet stream and merged in
    /// `(arrival, id)` order (ids are unique, so the order is total).
    pub fn finish(&mut self) -> Vec<RequestRecord> {
        let mut all = self.records.clone();
        for s in &mut self.state {
            if let NodeState::Serving { server, origin, .. } = s {
                server.drain();
                all.extend(server.records().iter().map(|r| Self::rebased(r, *origin)));
            }
        }
        all.sort_by_key(|r| (r.arrival, r.id));
        all
    }

    /// Drain serving node `i` at stream offset `offset` and evacuate
    /// its OS to the selected peer (never inside `exclude_rack`).
    ///
    /// Returns `Ok(Some(target))` on success, `Ok(None)` when the node
    /// must not move right now: no valid target exists, or the node is
    /// itself hosting a parked guest (migrating its dom0 would strand
    /// the guest domain riding on its hypervisor).  In both cases the
    /// node keeps serving — dropping its OS with nowhere to put it
    /// would be worse than riding out the degradation.  On a migration
    /// error the node is `Failed` — its server is already retired and
    /// the OS may be gone — the fleet keeps serving around it, and the
    /// error is returned for the caller's report.
    pub fn drain_node(
        &mut self,
        i: usize,
        offset: u64,
        exclude_rack: Option<usize>,
    ) -> Result<Option<usize>, MaintenanceError> {
        assert!(
            matches!(self.state[i], NodeState::Serving { .. }),
            "node {i} is not serving"
        );
        if self.hosted(i) > 0 {
            return Ok(None);
        }
        // Pick the target before tearing anything down.
        let Some(target) = self.select_target(i, offset, exclude_rack) else {
            return Ok(None);
        };

        // Drain the admission queue, harvest the records, retire the
        // server: its sessions die with the OS about to migrate.
        let retired = std::mem::replace(
            &mut self.state[i],
            NodeState::Failed("evacuation in flight".to_string()),
        );
        let NodeState::Serving {
            mut server, origin, ..
        } = retired
        else {
            unreachable!("asserted serving above")
        };
        let t = server.abs(offset.saturating_sub(origin));
        server.advance_to(t);
        server.drain();
        self.records
            .extend(server.records().iter().map(|r| Self::rebased(r, origin)));
        drop(server);

        let start_cycles = self.nodes[i].machine.boot_cpu().cycles();
        match evacuate(&self.nodes[i], &self.nodes[target]) {
            Ok(guest) => {
                let end_cycles = self.nodes[i].machine.boot_cpu().cycles();
                self.downtimes.push(guest.report.downtime_cycles);
                self.evac_makespans
                    .push(end_cycles.saturating_sub(start_cycles));
                self.state[i] = NodeState::Parked {
                    guest,
                    host: target,
                };
                Ok(Some(target))
            }
            Err(e) => {
                self.state[i] = NodeState::Failed(format!("evacuation failed: {e}"));
                Err(e)
            }
        }
    }

    /// Migrate parked node `i`'s OS back home and rebuild its server
    /// with records rebased from `offset`.  On a migration error the
    /// OS went down with the attempt: the node is `Failed`.
    pub fn rehome_node(&mut self, i: usize, offset: u64) -> Result<(), MaintenanceError> {
        let parked = std::mem::replace(
            &mut self.state[i],
            NodeState::Failed("rehome in flight".to_string()),
        );
        let NodeState::Parked { guest, host, .. } = parked else {
            panic!("rehoming node {i}, which is not parked");
        };
        match return_home(guest, &self.nodes[host], &self.nodes[i]) {
            Ok(report) => {
                self.downtimes.push(report.downtime_cycles);
                self.state[i] = NodeState::Serving {
                    server: NodeServer::new(&self.nodes[i], i as u32, self.cfg),
                    origin: offset,
                    degraded: None,
                };
                Ok(())
            }
            Err(e) => {
                self.state[i] = NodeState::Failed(format!("rehome failed: {e}"));
                Err(e)
            }
        }
    }

    /// One step of the rolling wave: evacuate every serving node of
    /// `rack` to peers outside it, hold the rack in maintenance for
    /// `maintenance_cycles`, then re-home and rebuild.  A member with no
    /// evacuation target is skipped (it keeps serving) rather than
    /// risking the fleet.  A migration error aborts the wave but never
    /// strands it: no further member is taken down, every member
    /// already parked is still re-homed (a healthy OS must not sit out
    /// of dispatch because a rack-mate's migration failed), and the
    /// first error is returned once the rack has settled.
    pub fn maintain_rack(
        &mut self,
        rack: usize,
        offset: u64,
        maintenance_cycles: u64,
    ) -> Result<(), MaintenanceError> {
        let members = self.rack_members(rack);
        let clock = |fs: &FleetServer| {
            let first = fs.nodes.get(members.start);
            first.map_or(0, |n| n.machine.boot_cpu().cycles())
        };
        let span_start = clock(self);
        let mut first_err = None;
        for m in members.clone() {
            if matches!(self.state[m], NodeState::Serving { .. }) {
                if let Err(e) = self.drain_node(m, offset, Some(rack)) {
                    first_err = Some(e);
                    break;
                }
            }
        }
        for m in members.clone() {
            if matches!(self.state[m], NodeState::Parked { .. }) {
                self.nodes[m].machine.boot_cpu().tick(maintenance_cycles);
            }
        }
        for m in members.clone() {
            if matches!(self.state[m], NodeState::Parked { .. }) {
                if let Err(e) = self.rehome_node(m, offset) {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.wave_spans.push(clock(self).saturating_sub(span_start));
        first_err.map_or(Ok(()), Err)
    }

    /// The whole "patch Tuesday" wave at one offset: every rack in
    /// turn.  Benches roll racks across distinct offsets instead, via
    /// [`maintain_rack`](FleetServer::maintain_rack) from the run hook.
    pub fn patch_tuesday(
        &mut self,
        offset: u64,
        maintenance_cycles: u64,
    ) -> Result<usize, MaintenanceError> {
        let racks = self.racks();
        for rack in 0..racks {
            self.maintain_rack(rack, offset, maintenance_cycles)?;
        }
        Ok(racks)
    }

    /// One step of the rolling hypervisor live-update wave (DESIGN.md
    /// §16): every serving node of `rack` rolls its VMM forward to
    /// `target_version` **in place** — no drain, no evacuation; guests
    /// keep running and the node keeps serving between updates.  A
    /// native node is attached for the duration of its updates and
    /// detached again; a node already virtual (e.g. hosting a parked
    /// guest) updates under its live domains.  Returns how many nodes
    /// rolled forward; a node whose update rolls back (its incumbent
    /// VMM keeps running), or that cannot attach for it or return
    /// native after it, is degraded and not counted.
    pub fn update_rack(&mut self, rack: usize, target_version: u32) -> usize {
        let mut updated = 0;
        for m in self.rack_members(rack) {
            if !matches!(self.state[m], NodeState::Serving { .. }) {
                // Its OS lives on a peer (or nowhere); nothing runs
                // here to update under.  A parked node picks up the new
                // version when its OS re-homes and the next wave
                // reaches it.
                continue;
            }
            let node = &self.nodes[m];
            let mercury = node.mercury();
            if mercury.hv_version() >= target_version {
                continue;
            }
            let cpu = node.machine.boot_cpu();
            let rolled = mercury.on_demand(cpu, |_| {
                while mercury.hv_version() < target_version {
                    let guests = node.hv().domains().len();
                    mercury.roll_forward(cpu)?;
                    debug_assert_eq!(
                        node.hv().domains().len(),
                        guests,
                        "an update must carry every domain across"
                    );
                }
                Ok::<_, SwitchError>(())
            });
            match rolled {
                Ok(()) => updated += 1,
                Err(e) => self.degrade(m, &format!("live-update failed: {e}")),
            }
        }
        updated
    }

    /// The whole live-update wave at one instant: every rack in turn
    /// rolls to `target_version` in place.  Unlike
    /// [`patch_tuesday`](FleetServer::patch_tuesday) nothing is
    /// drained — this is the DESIGN.md §16 alternative for
    /// hypervisor-only fixes, where the fleet converges
    /// ([`min_hv_version`](FleetServer::min_hv_version)) without a
    /// single migration.  Returns how many nodes rolled forward.
    pub fn patch_tuesday_live_update(&mut self, target_version: u32) -> usize {
        (0..self.racks())
            .map(|rack| self.update_rack(rack, target_version))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, LoadConfig};
    use crate::sched::Outcome;
    use faultgen::rng::{check, SplitMix64};
    use mercury::ExecMode;
    use mercury_cluster::NodeConfig;
    use mercury_workloads::mix::CostMix;

    fn fleet_of(n: usize, rack_size: usize, node: &NodeConfig) -> FleetServer {
        let cluster = Cluster::launch(n, node);
        let cfg = ServerConfig {
            attach_echo_host: false,
            ..ServerConfig::default()
        };
        FleetServer::new(&cluster, rack_size, cfg)
    }

    fn small_fleet(n: usize, rack_size: usize) -> FleetServer {
        fleet_of(n, rack_size, &NodeConfig::default())
    }

    fn stream(seed: u64, gap: u64, n: u32, mix: CostMix) -> Vec<Arrival> {
        generate(&LoadConfig {
            seed,
            mean_gap_cycles: gap,
            requests: n,
            mix,
        })
    }

    fn traffic(seed: u64, gap: u64, n: u32) -> Vec<Arrival> {
        stream(seed, gap, n, CostMix::web())
    }

    /// An all-serving fleet with no hook: the plain cluster balancer.
    fn balanced(n: usize, t: &[Arrival]) -> Vec<RequestRecord> {
        let mut lb = small_fleet(n, n);
        lb.run(t, |_, _| {});
        lb.finish()
    }

    fn parked_on(fs: &FleetServer, i: usize) -> Option<usize> {
        match fs.state(i) {
            NodeState::Parked { host, .. } => Some(*host),
            _ => None,
        }
    }

    #[test]
    fn spreads_load_and_accounts_everything() {
        let records = balanced(3, &stream(17, 8_000, 400, CostMix::oltp()));
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
        let run = || balanced(2, &traffic(29, 10_000, 200));
        assert_eq!(run(), run());
    }

    #[test]
    fn two_nodes_shed_less_than_one() {
        let overload = |n| {
            balanced(n, &stream(41, 2_000, 300, CostMix::analytics()))
                .iter()
                .filter(|r| r.outcome == Outcome::Shed)
                .count()
        };
        assert!(
            overload(2) <= overload(1),
            "adding a node must not increase shedding at fixed load"
        );
    }

    /// The fix the fold carried over from the fleet dispatcher: worker
    /// clocks are re-synced after the run hook, so cycles the hook
    /// charged to a node (a mode switch) count as busy work at the pick.
    #[test]
    fn a_node_stalled_by_the_hook_loses_the_pick() {
        let mut lb = small_fleet(2, 2);
        let t = traffic(3, 200_000, 40);
        lb.run(&t, |fs, offset| {
            // Node 0 would win every level tiebreak by index; stall it
            // past the arrival instant on every dispatch.
            let NodeState::Serving { server, .. } = fs.state(0) else {
                unreachable!("nothing drains node 0")
            };
            let cpu = fs.nodes()[0].machine.boot_cpu();
            cpu.tick((server.abs(offset) + 50_000).saturating_sub(cpu.cycles()));
        });
        let records = lb.finish();
        assert_eq!(records.len(), 40);
        assert!(
            records.iter().all(|r| r.node == 1),
            "the balancer must route around the stalled node"
        );
    }

    #[test]
    fn racks_partition_the_fleet() {
        let fs = fleet_of(5, 2, &NodeConfig::small());
        assert_eq!(fs.racks(), 3);
        assert_eq!(fs.rack_members(0), 0..2);
        assert_eq!(fs.rack_members(2), 4..5, "the last rack is partial");
        for i in 0..5 {
            assert!(fs.rack_members(fs.rack_of(i)).contains(&i));
        }
    }

    #[test]
    fn target_selection_prefers_healthy_peers_outside_the_rack() {
        let mut fs = fleet_of(6, 3, &NodeConfig::small());
        fs.degrade(3, "hot");
        // Level loads: lowest healthy index wins, never the source.
        assert_eq!(fs.select_target(0, 0, None), Some(1));
        // Excluding rack 0 (nodes 0..=2) skips the degraded node 3 too.
        assert_eq!(fs.select_target(0, 0, Some(0)), Some(4));
        // A peer already hosting ranks behind an empty one.
        assert_eq!(fs.drain_node(0, 0, None).unwrap(), Some(1));
        assert_eq!(fs.select_target(2, 0, None), Some(4));
        // A busier peer loses to an idle one: on busy cycles alone
        // while its first request is in service, then with a queue
        // building behind it.
        for (queued, a) in traffic(5, 1, 3).iter().enumerate() {
            let NodeState::Serving { server, .. } = &mut fs.state[4] else {
                unreachable!("nothing drained node 4")
            };
            server.offer(a.id, &a.shape, server.abs(0));
            assert_eq!(server.queued(), queued);
            assert_eq!(fs.select_target(2, 0, None), Some(5));
        }
        // ... and is still chosen once it is the only empty host left:
        // hosting outranks any serving load.
        fs.degrade(5, "hot");
        assert_eq!(fs.select_target(2, 0, None), Some(4));
        // No healthy peer leaves nothing.
        for i in [1, 4] {
            fs.degrade(i, "hot");
        }
        assert_eq!(fs.select_target(2, 0, None), None);
    }

    #[test]
    fn evacuation_mid_stream_loses_no_requests() {
        let mut fs = small_fleet(3, 3);
        let t = traffic(19, 30_000, 120);
        let mid = t[60].offset;
        let mut done = false;
        fs.run(&t, |fs, offset| {
            if !done && offset >= mid {
                done = true;
                let target = fs.drain_node(0, offset, None).unwrap();
                assert!(target.is_some(), "two healthy peers must yield a target");
            }
        });
        assert!(parked_on(&fs, 0).is_some());
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
        assert_eq!(records.len(), 120);
        // Post-evacuation arrivals all land on the surviving nodes.
        assert!(records
            .iter()
            .filter(|r| r.arrival > mid)
            .all(|r| r.node != 0));
        assert_eq!(fs.downtimes().len(), 1);
        assert!(fs.downtimes()[0] > 0);
        assert_eq!(fs.evac_makespans().len(), 1);
    }

    #[test]
    fn rehomed_node_serves_again_with_rebased_records() {
        let mut fs = small_fleet(2, 2);
        let t = traffic(31, 40_000, 90);
        let third = t[30].offset;
        let two_thirds = t[60].offset;
        let mut stage = 0;
        fs.run(&t, |fs, offset| {
            if stage == 0 && offset >= third {
                stage = 1;
                fs.degrade(0, "about to move");
                fs.drain_node(0, offset, None).unwrap().unwrap();
            } else if stage == 1 && offset >= two_thirds {
                stage = 2;
                fs.rehome_node(0, offset).unwrap();
            }
        });
        assert!(
            fs.healed(),
            "a re-homed node is serving, degradation cleared"
        );
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
        // The re-homed node takes traffic again, and its rebased record
        // times stay on the fleet stream (arrival can never precede the
        // rebuild offset).
        let back: Vec<_> = records
            .iter()
            .filter(|r| r.node == 0 && r.arrival >= two_thirds)
            .collect();
        assert!(!back.is_empty(), "re-homed node must serve again");
        for r in &records {
            assert!(r.start >= r.arrival && r.finish >= r.start);
        }
        // Evacuation + re-homing: two migrations, two downtimes.
        assert_eq!(fs.downtimes().len(), 2);
    }

    #[test]
    fn patch_tuesday_rolls_every_rack_and_heals() {
        let mut fs = small_fleet(4, 2);
        let t = traffic(43, 35_000, 80);
        let mid = t[40].offset;
        let mut done = false;
        fs.run(&t, |fs, offset| {
            if !done && offset >= mid {
                done = true;
                let racks = fs.patch_tuesday(offset, 50_000).unwrap();
                assert_eq!(racks, 2);
            }
        });
        assert!(fs.healed());
        assert_eq!(fs.wave_spans().len(), 2);
        assert!(fs.wave_spans().iter().all(|&s| s >= 50_000));
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
    }

    #[test]
    fn an_aborted_wave_still_rehomes_the_rest_of_the_rack() {
        let mut fs = small_fleet(4, 2);
        // Node 0 is already parked outside its rack, and its return is
        // doomed: no frame left at home.
        fs.drain_node(0, 0, Some(0)).unwrap().unwrap();
        exhaust_frames(&fs, 0);
        let err = fs.maintain_rack(0, 0, 10_000);
        assert!(err.is_err(), "node 0's failed return is reported");
        assert!(matches!(fs.state(0), NodeState::Failed(_)));
        assert!(
            matches!(fs.state(1), NodeState::Serving { degraded: None, .. }),
            "the healthy rack-mate drained by the same wave is back in dispatch"
        );
        assert_eq!(fs.wave_spans().len(), 1, "an aborted wave still has a span");
    }

    #[test]
    fn evacuations_spread_across_hosts_and_hosts_are_pinned() {
        let mut fs = small_fleet(4, 4);
        let t = traffic(11, 40_000, 60);
        let mid = t[20].offset;
        // The second node to drain: any node that is not hosting the
        // first one's guest (that one is pinned, asserted below).
        let mut second = None;
        fs.run(&t, |fs, offset| {
            if second.is_none() && offset >= mid {
                let h0 = fs.drain_node(0, offset, None).unwrap().unwrap();
                let next = (1..4).find(|n| *n != h0).unwrap();
                second = Some(next);
                let h1 = fs.drain_node(next, offset, None).unwrap().unwrap();
                assert_ne!(h0, h1, "level-load guests must spread across hosts");
                // A node hosting a parked guest must refuse to move:
                // migrating its dom0 would strand the guest.
                assert_eq!(fs.drain_node(h0, offset, None).unwrap(), None);
            }
        });
        let second = second.expect("the drains ran");
        assert_eq!(
            parked_on(&fs, 0)
                .zip(parked_on(&fs, second))
                .map(|(a, b)| a == b),
            Some(false)
        );
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
    }

    #[test]
    fn live_update_wave_rolls_versions_without_draining() {
        let mut fs = small_fleet(4, 2);
        let t = traffic(7, 35_000, 80);
        let mid = t[40].offset;
        let mut done = false;
        fs.run(&t, |fs, offset| {
            if !done && offset >= mid {
                done = true;
                let updated = fs.patch_tuesday_live_update(2);
                assert_eq!(updated, 4, "every node rolls in place");
                assert_eq!(fs.min_hv_version(), 2, "fleet converged");
            }
        });
        // No drain happened: every node is healthy, home, and back in
        // native mode with a v2 hypervisor warm underneath.
        assert!(fs.healed());
        for node in fs.nodes() {
            assert_eq!(node.hv().version(), 2);
            assert_eq!(node.mercury().mode(), ExecMode::Native);
        }
        assert!(
            fs.downtimes().is_empty(),
            "a live-update wave migrates nothing"
        );
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
    }

    /// A node the §5.1.1 gate refuses is degraded with the reason and
    /// left as it was found: native, and with nothing pending that the
    /// retry timer would attach after the wave has moved on.
    #[test]
    fn live_update_wave_degrades_a_refused_node_and_leaves_it_native() {
        let mut fs = small_fleet(2, 2);
        let busy = fs.nodes()[0].mercury();
        let guard = busy.vo_refcount().enter();
        assert_eq!(fs.update_rack(0, 2), 1, "only the idle node rolls");
        drop(guard);
        let NodeState::Serving { degraded, .. } = fs.state(0) else {
            panic!("node 0 stopped serving");
        };
        let reason = degraded.as_deref().expect("refused node is degraded");
        assert!(reason.contains("busy"), "{reason}");
        assert_eq!(busy.pending_target(), None);
        assert_eq!(busy.mode(), ExecMode::Native);
        assert_eq!(busy.staged_update_version(), None);
        assert_eq!(fs.min_hv_version(), 1);
    }

    #[test]
    fn live_update_wave_updates_under_a_hosted_guest() {
        let mut fs = small_fleet(3, 3);
        let t = traffic(13, 40_000, 60);
        let mid = t[20].offset;
        let late = t[40].offset;
        let mut stage = 0;
        fs.run(&t, |fs, offset| {
            if stage == 0 && offset >= mid {
                stage = 1;
                let host = fs.drain_node(0, offset, None).unwrap().unwrap();
                // The host is virtual with a parked guest riding on its
                // hypervisor; the wave must update it in place, guest
                // and all.  The evacuated node has no OS to update
                // under and keeps its old version.
                let guests = fs.nodes()[host].hv().domains().len();
                assert!(guests > 1, "host carries the parked guest");
                let updated = fs.patch_tuesday_live_update(2);
                assert_eq!(updated, 2, "both live nodes roll; the husk waits");
                assert_eq!(fs.nodes()[host].hv().version(), 2);
                assert_eq!(fs.nodes()[host].hv().domains().len(), guests);
                assert_eq!(
                    fs.nodes()[host].mercury().mode(),
                    ExecMode::Virtual,
                    "a hosting node must stay virtual through the update"
                );
                assert_eq!(fs.min_hv_version(), 1, "the evacuee lags");
            } else if stage == 1 && offset >= late {
                stage = 2;
                fs.rehome_node(0, offset).unwrap();
                // The next wave step catches the straggler.
                assert_eq!(fs.patch_tuesday_live_update(2), 1);
                assert_eq!(fs.min_hv_version(), 2);
            }
        });
        assert_eq!(stage, 2);
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
    }

    #[test]
    fn degraded_node_loses_the_level_tiebreak() {
        let mut fs = small_fleet(2, 2);
        // Node 0 would win every level tiebreak by index; flag it
        // degraded and the key must route around it.
        fs.degrade(0, "hot");
        fs.run(&traffic(7, 50_000, 30), |_, _| {});
        let records = fs.finish();
        assert_eq!(records.len(), 30);
        assert!(
            records.iter().all(|r| r.node == 1),
            "a degraded node must not win the least-loaded tiebreak"
        );
    }

    /// Take every free frame of node `i`'s machine, so the stop-and-copy
    /// of a `return_home` onto it fails with `OutOfMemory`.
    fn exhaust_frames(fs: &FleetServer, i: usize) {
        let machine = &fs.nodes()[i].machine;
        let free = machine.allocator.available();
        machine
            .allocator
            .alloc_many(machine.boot_cpu(), free)
            .expect("every free frame");
    }

    /// Requests that have a record, or are admitted and waiting for one.
    fn accounted(fs: &FleetServer) -> u64 {
        let live: usize = fs
            .state
            .iter()
            .map(|s| match s {
                NodeState::Serving { server, .. } => server.records().len() + server.queued(),
                _ => 0,
            })
            .sum();
        (fs.records.len() + live) as u64
    }

    /// One random transition on a random node, from the run hook.
    /// Refusals (`Ok(None)`) and migration errors (a host out of
    /// frames) are part of the space; [`check_invariants`] judges the
    /// outcome.
    fn random_step(fs: &mut FleetServer, rng: &mut SplitMix64, offset: u64) {
        let i = rng.below(fs.nodes().len() as u64) as usize;
        let roll = rng.below(4);
        match fs.state(i) {
            NodeState::Serving { .. } => match roll {
                0 => fs.degrade(i, "flagged by the property"),
                1 => {
                    let exclude = (rng.below(2) == 0).then(|| fs.rack_of(i));
                    let _ = fs.drain_node(i, offset, exclude);
                }
                2 => {
                    let rack = fs.rack_of(i);
                    let _ = fs.maintain_rack(rack, offset, 10_000);
                    assert!(
                        !fs.rack_members(rack)
                            .any(|m| matches!(fs.state(m), NodeState::Parked { .. })),
                        "a wave, aborted or not, must leave no member parked"
                    );
                }
                _ => {
                    let target = fs.min_hv_version() + 1;
                    fs.update_rack(fs.rack_of(i), target);
                }
            },
            NodeState::Parked { .. } if roll < 2 => {
                exhaust_frames(fs, i);
                fs.rehome_node(i, offset)
                    .expect_err("no frames at home: the return must fail");
                assert!(
                    matches!(fs.state(i), NodeState::Failed(_)),
                    "a failed return_home must land in Failed"
                );
            }
            NodeState::Parked { .. } => {
                if fs.rehome_node(i, offset).is_ok() {
                    assert!(matches!(
                        fs.state(i),
                        NodeState::Serving { degraded: None, .. }
                    ));
                }
            }
            NodeState::Failed(_) => {}
        }
    }

    fn check_invariants(fs: &FleetServer) {
        for (i, s) in fs.state.iter().enumerate() {
            if let NodeState::Parked { host, .. } = s {
                assert!(
                    matches!(fs.state[*host], NodeState::Serving { .. }),
                    "node {i} is parked on {host}, which is not serving"
                );
            }
        }
        assert_eq!(accounted(fs), fs.offered(), "an arrival went missing");
    }

    #[test]
    fn random_transitions_keep_one_state_per_node() {
        check("random_transitions_keep_one_state_per_node", 6, |rng| {
            // Small kernels migrate fast; twice the fleet bench's RAM
            // leaves a host room for two guests and a staged successor.
            let node = NodeConfig {
                mem_frames: 8 * 1024,
                ..NodeConfig::small()
            };
            let mut fs = fleet_of(4, 2, &node);
            let t = traffic(rng.next_u64(), 30_000, 80);
            // When each node was seen `Failed` first (stream offset).
            let mut failed_at = [None; 4];
            fs.run(&t, |fs, offset| {
                if rng.below(4) == 0 {
                    random_step(fs, rng, offset);
                }
                check_invariants(fs);
                for (i, at) in failed_at.iter_mut().enumerate() {
                    if at.is_none() && matches!(fs.state(i), NodeState::Failed(_)) {
                        *at = Some(offset);
                    }
                }
            });
            let records = fs.finish();
            assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
            let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
            ids.dedup();
            assert_eq!(ids.len(), records.len(), "one record per arrival");
            for (i, at) in failed_at.iter().enumerate() {
                let Some(at) = at else { continue };
                assert!(
                    matches!(fs.state(i), NodeState::Failed(_)),
                    "Failed is terminal"
                );
                assert!(
                    !records
                        .iter()
                        .any(|r| r.node == i as u32 && r.arrival >= *at),
                    "failed node {i} was dispatched to"
                );
            }
        });
    }
}
