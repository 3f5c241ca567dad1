//! Fleet-scale serving: hundreds of nodes behind one balancer, with
//! live migration as a first-class balancing action (DESIGN.md §15).
//!
//! [`FleetServer`] composes the pieces the smaller layers provide —
//! per-node [`NodeServer`]s and the shared [`FleetState`] view — into
//! one serving surface:
//!
//! * **Dispatch** keys on `(balance_class, queued, busy, index)`, so a
//!   node flagged degraded cannot win the least-loaded tiebreak, and
//!   evacuated/maintenance nodes are skipped.
//! * **Evacuation** ([`FleetServer::drain_node`]) drains a node's
//!   admission queue, retires its server, and live-migrates its OS to
//!   the selected peer while the rest of the fleet keeps
//!   serving.  The peer keeps serving its *own* traffic too — it hosts
//!   the parked guest in partial-virtual mode, exactly the paper's
//!   §6.3 arrangement.
//! * **Re-homing** ([`FleetServer::rehome_node`]) migrates the OS back
//!   after maintenance and rebuilds the node's server; its clock
//!   restarts, so records carry a per-slot *origin* offset that rebases
//!   them onto the single fleet-wide stream.
//! * **The rolling wave** ([`FleetServer::maintain_rack`] /
//!   [`FleetServer::patch_tuesday`]) virtualizes, evacuates, maintains
//!   and re-homes one rack at a time, always evacuating *outside* the
//!   rack under maintenance.
//! * **The live-update wave** ([`FleetServer::update_rack`] /
//!   [`FleetServer::patch_tuesday_live_update`]) rolls every node's
//!   hypervisor forward rack by rack *without draining a single
//!   guest* (DESIGN.md §16): each node hv-to-hv live-updates in
//!   place and publishes its new version in the fleet view, whose
//!   [`FleetState::min_hv_version`] tells the wave when the fleet
//!   converged.
//!
//! Accounting is total: every arrival either lands on a node (and gets
//! that node's completed/shed record) or, when the view rules out every
//! node, becomes a fleet-level shed record with node id
//! [`FLEET_SHED_NODE`].  `offered == records` is the zero-lost-requests
//! invariant `benchgate.py --fleet` enforces.

use crate::loadgen::Arrival;
use crate::sched::{NodeServer, Outcome, RequestRecord, ServerConfig};
use mercury::{ExecMode, SwitchOutcome};
use mercury_cluster::fleet::{FleetState, NodeStatus};
use mercury_cluster::maintenance::{
    evacuate_converging, return_home, EvacuatedGuest, MaintenanceError,
};
use mercury_cluster::{Cluster, Node};
use mercury_workloads::mix::RequestShape;
use std::sync::Arc;
use xenon::Hypervisor;

/// Sentinel node id on fleet-level shed records: the balancer had no
/// routable node at the arrival instant (every node evacuated, under
/// maintenance, or otherwise ruled out by the fleet view).
pub const FLEET_SHED_NODE: u32 = u32::MAX;

/// One live node server plus the stream offset it was (re)built at.
/// A re-homed node's server starts a fresh clock; `origin` rebases its
/// relative record times onto the fleet-wide stream.
struct Slot {
    server: NodeServer,
    origin: u64,
}

/// The fleet: N simulated nodes behind one migration-aware balancer.
pub struct FleetServer {
    nodes: Vec<Arc<Node>>,
    fleet: Arc<FleetState>,
    cfg: ServerConfig,
    /// `None` while the node's OS is parked on a peer.
    slots: Vec<Option<Slot>>,
    /// The parked OS and the index of the peer hosting it.
    parked: Vec<Option<(EvacuatedGuest, usize)>>,
    /// Harvested (rebased) records from retired servers plus fleet-level
    /// sheds; live-slot records are merged in [`FleetServer::finish`].
    records: Vec<RequestRecord>,
    offered: u64,
    downtimes: Vec<u64>,
    evac_makespans: Vec<u64>,
    wave_spans: Vec<u64>,
}

impl FleetServer {
    /// Stand up one server per cluster node (fleet index = cluster
    /// index) over a fresh all-healthy fleet view with racks of
    /// `rack_size`.
    ///
    /// `cfg.attach_echo_host` must be off: fleet nodes are rebuilt
    /// after re-homing, and a per-node echo host would be attached
    /// twice.
    pub fn new(cluster: &Cluster, rack_size: usize, cfg: ServerConfig) -> FleetServer {
        assert!(
            !cfg.attach_echo_host,
            "fleet nodes must not attach per-node echo hosts"
        );
        let nodes: Vec<Arc<Node>> = cluster.nodes.iter().map(Arc::clone).collect();
        assert!(!nodes.is_empty(), "fleet needs at least one node");
        let fleet = FleetState::new(nodes.len(), rack_size);
        let slots = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Some(Slot {
                    server: NodeServer::new(n, i as u32, cfg),
                    origin: 0,
                })
            })
            .collect();
        let parked = nodes.iter().map(|_| None).collect();
        FleetServer {
            nodes,
            fleet,
            cfg,
            slots,
            parked,
            records: Vec::new(),
            offered: 0,
            downtimes: Vec::new(),
            evac_makespans: Vec::new(),
            wave_spans: Vec::new(),
        }
    }

    /// The shared fleet-state view (bind watchdogs and health monitors
    /// here).
    pub fn fleet(&self) -> &Arc<FleetState> {
        &self.fleet
    }

    /// The underlying cluster nodes, fleet order.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
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

    /// Is node `i` currently parked on a peer?
    pub fn is_evacuated(&self, i: usize) -> bool {
        self.parked[i].is_some()
    }

    /// The peer hosting node `i`'s parked OS, when evacuated.
    pub fn host_of(&self, i: usize) -> Option<usize> {
        self.parked[i].as_ref().map(|(_, host)| *host)
    }

    fn rebased(r: &RequestRecord, origin: u64) -> RequestRecord {
        RequestRecord {
            arrival: r.arrival + origin,
            start: r.start + origin,
            finish: r.finish + origin,
            ..*r
        }
    }

    /// Replay completions up to stream offset `offset` on every live
    /// node.
    fn advance_all(&mut self, offset: u64) {
        for slot in self.slots.iter_mut().flatten() {
            let t = slot.server.abs(offset.saturating_sub(slot.origin));
            slot.server.advance_to(t);
        }
    }

    /// Migration-aware pick: `(balance_class, queued, busy, index)`
    /// over live, dispatchable nodes; `None` when the fleet has no
    /// routable node.
    fn pick(&self, offset: u64) -> Option<usize> {
        let mut best: Option<(u64, usize, u64, usize)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let Some(class) = self.fleet.balance_class(i) else {
                continue;
            };
            let t = slot.server.abs(offset.saturating_sub(slot.origin));
            let key = (class, slot.server.queued(), slot.server.busy_cycles(t), i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, _, i)| i)
    }

    /// Offer one arrival at stream offset `offset`: dispatch to the
    /// best routable node, or record a fleet-level shed when there is
    /// none.
    pub fn offer(&mut self, id: u64, shape: &RequestShape, offset: u64) {
        self.offered += 1;
        match self.pick(offset) {
            Some(i) => {
                let slot = self.slots[i].as_mut().expect("picked slot is live");
                let t = slot.server.abs(offset.saturating_sub(slot.origin));
                slot.server.advance_to(t);
                slot.server.offer(id, shape, t);
            }
            None => {
                merctrace::counter!(0usize, "servo.fleet_shed", 1, offset);
                self.records.push(RequestRecord {
                    id,
                    shape: shape.name,
                    node: FLEET_SHED_NODE,
                    worker: 0,
                    arrival: offset,
                    start: offset,
                    finish: offset,
                    outcome: Outcome::Shed,
                });
            }
        }
    }

    /// Serve a whole arrival stream.  `hook` runs before each dispatch
    /// with `(self, offset)` — the place to poll watchdogs, trigger
    /// evacuations, or roll a maintenance wave.  Call
    /// [`finish`](FleetServer::finish) afterwards to drain and collect.
    pub fn run(&mut self, traffic: &[Arrival], mut hook: impl FnMut(&mut FleetServer, u64)) {
        for a in traffic {
            self.advance_all(a.offset);
            hook(self, a.offset);
            self.advance_all(a.offset);
            self.offer(a.id, &a.shape, a.offset);
        }
    }

    /// Drain every live node and return all records — harvested,
    /// fleet-level and live — rebased onto the fleet stream and merged
    /// in `(arrival, id)` order.
    pub fn finish(&mut self) -> Vec<RequestRecord> {
        for slot in self.slots.iter_mut().flatten() {
            slot.server.drain();
        }
        let mut all = self.records.clone();
        for slot in self.slots.iter().flatten() {
            for r in slot.server.records() {
                all.push(Self::rebased(r, slot.origin));
            }
        }
        all.sort_by_key(|r| (r.arrival, r.id));
        all
    }

    /// Drain node `i` at stream offset `offset` and evacuate its OS to
    /// the selected peer (never inside `exclude_rack`).
    ///
    /// Returns `Ok(Some(target))` on success, `Ok(None)` when the node
    /// must not move right now: no valid target exists, or the node is
    /// itself hosting a parked guest (migrating its dom0 would strand
    /// the guest domain riding on its hypervisor).  In both cases the
    /// node keeps serving — dropping its OS with nowhere to put it
    /// would be worse than riding out the degradation.  On a migration
    /// error the node is marked degraded in the fleet view — the
    /// balancer routes away and the fleet keeps serving — and the
    /// error is returned for the caller's report.
    pub fn drain_node(
        &mut self,
        i: usize,
        offset: u64,
        exclude_rack: Option<usize>,
    ) -> Result<Option<usize>, MaintenanceError> {
        assert!(self.parked[i].is_none(), "node {i} is already evacuated");
        assert!(self.slots[i].is_some(), "node {i} has no live server");
        if self.parked.iter().flatten().any(|(_, host)| *host == i) {
            return Ok(None);
        }
        // Pick the target before tearing anything down.  The load key
        // is hosting-aware: a peer already hosting parked guests ranks
        // behind an empty one regardless of serving load.  Without
        // this, level serving loads tie toward the lowest index and a
        // whole rack's guests pile onto one host until its frame
        // allocator runs dry mid-migration.
        let mut hosted = vec![0usize; self.nodes.len()];
        for (_, host) in self.parked.iter().flatten() {
            hosted[*host] += 1;
        }
        let target = self
            .fleet
            .select_target(i, exclude_rack, |j| match &self.slots[j] {
                Some(s) => {
                    let t = s.server.abs(offset.saturating_sub(s.origin));
                    (
                        hosted[j] * 1_000_000 + s.server.queued(),
                        s.server.busy_cycles(t),
                    )
                }
                None => (usize::MAX, u64::MAX),
            });
        let Some(target) = target else {
            return Ok(None);
        };

        // Drain the admission queue, harvest the records, retire the
        // server: its sessions die with the OS about to migrate.
        let slot = self.slots[i].take().expect("draining a live node");
        let mut slot = slot;
        let t = slot.server.abs(offset.saturating_sub(slot.origin));
        slot.server.advance_to(t);
        slot.server.drain();
        let origin = slot.origin;
        for r in slot.server.records() {
            self.records.push(Self::rebased(r, origin));
        }
        drop(slot);

        let start_cycles = self.nodes[i].machine.boot_cpu().cycles();
        match evacuate_converging(&self.nodes[i], &self.nodes[target]) {
            Ok(guest) => {
                let end_cycles = self.nodes[i].machine.boot_cpu().cycles();
                self.downtimes.push(guest.report.downtime_cycles);
                self.evac_makespans.push(end_cycles.saturating_sub(start_cycles));
                self.parked[i] = Some((guest, target));
                self.fleet.set_status(i, NodeStatus::Evacuated);
                Ok(Some(target))
            }
            Err(e) => {
                self.fleet
                    .set_status(i, NodeStatus::Degraded(format!("evacuation failed: {e}")));
                Err(e)
            }
        }
    }

    /// Migrate node `i`'s parked OS back home and rebuild its server
    /// with records rebased from `offset`.
    pub fn rehome_node(&mut self, i: usize, offset: u64) -> Result<(), MaintenanceError> {
        let (guest, host) = self.parked[i]
            .take()
            .expect("rehoming a node that is not evacuated");
        match return_home(guest, &self.nodes[host], &self.nodes[i]) {
            Ok(report) => {
                self.downtimes.push(report.downtime_cycles);
                self.fleet.set_status(i, NodeStatus::Healthy);
                self.slots[i] = Some(Slot {
                    server: NodeServer::new(&self.nodes[i], i as u32, self.cfg),
                    origin: offset,
                });
                Ok(())
            }
            Err(e) => {
                self.fleet
                    .set_status(i, NodeStatus::Degraded(format!("rehome failed: {e}")));
                Err(e)
            }
        }
    }

    /// One step of the rolling wave: evacuate every live node of `rack`
    /// to peers outside it, hold the rack in maintenance for
    /// `maintenance_cycles`, then re-home and rebuild.  A member with no
    /// evacuation target is skipped (it keeps serving) rather than
    /// risking the fleet.
    pub fn maintain_rack(
        &mut self,
        rack: usize,
        offset: u64,
        maintenance_cycles: u64,
    ) -> Result<(), MaintenanceError> {
        let members = self.fleet.rack_members(rack);
        let span_start = members
            .first()
            .map(|&m| self.nodes[m].machine.boot_cpu().cycles())
            .unwrap_or(0);
        for &m in &members {
            if self.slots[m].is_some() && self.parked[m].is_none() {
                self.drain_node(m, offset, Some(rack))?;
            }
        }
        for &m in &members {
            if self.parked[m].is_some() {
                self.fleet.set_status(m, NodeStatus::Maintenance);
                self.nodes[m].machine.boot_cpu().tick(maintenance_cycles);
            }
        }
        for &m in &members {
            if self.parked[m].is_some() {
                self.rehome_node(m, offset)?;
            }
        }
        let span_end = members
            .first()
            .map(|&m| self.nodes[m].machine.boot_cpu().cycles())
            .unwrap_or(0);
        self.wave_spans.push(span_end.saturating_sub(span_start));
        Ok(())
    }

    /// The whole "patch Tuesday" wave at one offset: every rack in
    /// turn.  Benches roll racks across distinct offsets instead, via
    /// [`maintain_rack`](FleetServer::maintain_rack) from the run hook.
    pub fn patch_tuesday(
        &mut self,
        offset: u64,
        maintenance_cycles: u64,
    ) -> Result<usize, MaintenanceError> {
        let racks = self.fleet.racks();
        for rack in 0..racks {
            self.maintain_rack(rack, offset, maintenance_cycles)?;
        }
        Ok(racks)
    }

    /// One step of the rolling hypervisor live-update wave (DESIGN.md
    /// §16): every live node of `rack` rolls its VMM forward to
    /// `target_version` **in place** — no drain, no evacuation; guests
    /// keep running and the node keeps serving between updates.  A
    /// native node is attached for the duration of its updates and
    /// detached again; a node already virtual (e.g. hosting a parked
    /// guest) updates under its live domains.  Each node's resulting
    /// version is read back with [`xenon::liveupdate::status`] and
    /// published in the fleet view.  Returns how many nodes rolled
    /// forward; a node whose update rolls back is marked degraded (its
    /// incumbent VMM keeps running) and skipped.
    pub fn update_rack(&mut self, rack: usize, target_version: u32) -> usize {
        let members = self.fleet.rack_members(rack);
        let mut updated = 0;
        for &m in &members {
            if self.slots[m].is_none() || self.parked[m].is_some() {
                // Its OS lives on a peer; nothing runs here to update
                // under.  The node picks up the new version when its
                // OS re-homes and the next wave reaches it.
                continue;
            }
            let node = &self.nodes[m];
            let mercury = node.mercury();
            if mercury.hv_version() >= target_version {
                let (version, _) = xenon::liveupdate::status(&node.hv());
                self.fleet.set_hv_version(m, version);
                continue;
            }
            let cpu = node.machine.boot_cpu();
            let was_native = mercury.mode() == ExecMode::Native;
            if was_native {
                let out = mercury.switch_to_virtual(cpu);
                if !matches!(out, Ok(SwitchOutcome::Completed { .. })) {
                    self.fleet.set_status(
                        m,
                        NodeStatus::Degraded(format!("live-update attach failed: {out:?}")),
                    );
                    continue;
                }
            }
            let mut ok = true;
            while ok && mercury.hv_version() < target_version {
                let guests = node.hv().domains().len();
                let succ = Hypervisor::warm_up_versioned(&node.machine, mercury.hv_version() + 1);
                ok = mercury.stage_update(succ).is_ok()
                    && matches!(
                        mercury.live_update(cpu),
                        Ok(SwitchOutcome::Completed { .. })
                    );
                if ok {
                    debug_assert_eq!(
                        node.hv().domains().len(),
                        guests,
                        "an update must carry every domain across"
                    );
                } else {
                    // A rollback consumes the staged successor; drop
                    // anything a refused stage left behind too.
                    mercury.clear_staged_update();
                }
            }
            if was_native {
                // Back to native serving; a failure here leaves the
                // node virtual, which still serves.
                let _ = mercury.switch_to_native(cpu);
            }
            let (version, _doms) = xenon::liveupdate::status(&node.hv());
            self.fleet.set_hv_version(m, version);
            if ok {
                updated += 1;
            } else {
                self.fleet.set_status(
                    m,
                    NodeStatus::Degraded("live-update rolled back".to_string()),
                );
            }
        }
        updated
    }

    /// The whole live-update wave at one instant: every rack in turn
    /// rolls to `target_version` in place.  Unlike
    /// [`patch_tuesday`](FleetServer::patch_tuesday) nothing is
    /// drained — this is the DESIGN.md §16 alternative for
    /// hypervisor-only fixes, where the fleet converges
    /// ([`FleetState::min_hv_version`]) without a single migration.
    /// Returns how many nodes rolled forward.
    pub fn patch_tuesday_live_update(&mut self, target_version: u32) -> usize {
        let racks = self.fleet.racks();
        let mut updated = 0;
        for rack in 0..racks {
            updated += self.update_rack(rack, target_version);
        }
        updated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, LoadConfig};
    use mercury_cluster::NodeConfig;
    use mercury_workloads::mix::CostMix;

    fn small_fleet(n: usize, rack_size: usize) -> FleetServer {
        let cluster = Cluster::launch(n, &NodeConfig::default());
        let cfg = ServerConfig {
            attach_echo_host: false,
            ..ServerConfig::default()
        };
        FleetServer::new(&cluster, rack_size, cfg)
    }

    fn traffic(seed: u64, gap: u64, n: u32) -> Vec<Arrival> {
        generate(&LoadConfig {
            seed,
            mean_gap_cycles: gap,
            requests: n,
            mix: CostMix::web(),
        })
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
        assert!(fs.is_evacuated(0));
        assert_eq!(fs.fleet().status(0), NodeStatus::Evacuated);
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
                fs.drain_node(0, offset, None).unwrap().unwrap();
            } else if stage == 1 && offset >= two_thirds {
                stage = 2;
                fs.rehome_node(0, offset).unwrap();
            }
        });
        assert!(!fs.is_evacuated(0));
        assert_eq!(fs.fleet().status(0), NodeStatus::Healthy);
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
        for i in 0..4 {
            assert_eq!(fs.fleet().status(i), NodeStatus::Healthy, "node {i}");
            assert!(!fs.is_evacuated(i));
        }
        assert_eq!(fs.wave_spans().len(), 2);
        assert!(fs.wave_spans().iter().all(|&s| s >= 50_000));
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
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
            fs.host_of(0).zip(fs.host_of(second)).map(|(a, b)| a == b),
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
                assert_eq!(fs.fleet().min_hv_version(), 2, "fleet converged");
            }
        });
        for i in 0..4 {
            // No drain happened: every node is healthy, home, and back
            // in native mode with a v2 hypervisor warm underneath.
            assert_eq!(fs.fleet().status(i), NodeStatus::Healthy, "node {i}");
            assert!(!fs.is_evacuated(i));
            assert_eq!(fs.nodes()[i].hv().version(), 2);
            assert_eq!(fs.nodes()[i].mercury().mode(), ExecMode::Native);
        }
        assert!(fs.downtimes().is_empty(), "a live-update wave migrates nothing");
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered(), "zero lost requests");
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
                // under and keeps its old version in the view.
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
                assert_eq!(fs.fleet().min_hv_version(), 1, "the evacuee lags");
            } else if stage == 1 && offset >= late {
                stage = 2;
                fs.rehome_node(0, offset).unwrap();
                // The next wave step catches the straggler.
                assert_eq!(fs.patch_tuesday_live_update(2), 1);
                assert_eq!(fs.fleet().min_hv_version(), 2);
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
        // degraded and the fleet-aware key must route around it.
        fs.fleet().set_status(0, NodeStatus::Degraded("hot".into()));
        fs.run(&traffic(7, 50_000, 30), |_, _| {});
        let records = fs.finish();
        assert_eq!(records.len(), 30);
        assert!(
            records.iter().all(|r| r.node == 1),
            "a degraded node must not win the least-loaded tiebreak"
        );
    }

    #[test]
    fn fleet_with_no_routable_node_sheds_at_fleet_level() {
        let mut fs = small_fleet(2, 2);
        // Rule out both nodes without touching their servers.
        fs.fleet().set_status(0, NodeStatus::Maintenance);
        fs.fleet().set_status(1, NodeStatus::Maintenance);
        let t = traffic(5, 50_000, 10);
        fs.run(&t, |_, _| {});
        let records = fs.finish();
        assert_eq!(records.len() as u64, fs.offered());
        assert!(records
            .iter()
            .all(|r| r.outcome == Outcome::Shed && r.node == FLEET_SHED_NODE));
    }
}
