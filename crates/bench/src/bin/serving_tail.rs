//! Tail latency under self-virtualization (DESIGN.md §13, EXPERIMENTS.md
//! "Serving tail latency").
//!
//! The paper argues a mode switch is invisible to running applications
//! (§7.4: ~0.22 ms attach, ~0.06 ms detach).  This binary asks the
//! operator's version of that question: *what happens to request
//! p50/p99/p999 when the machine self-virtualizes under live load?*
//!
//! Scenarios (all on the simulated cycle clock, via `mercury-servo`):
//!
//! * **steady-native / steady-virtual** at 1, 2 and 4 CPUs — the two
//!   anchors, no switching;
//! * **switch-under-load** — a uniprocessor node attaching/detaching on
//!   a fixed cadence while open-loop traffic keeps arriving (arrivals do
//!   not pause for the switch; the pause shows up as queueing);
//! * **cluster-steady / cluster-switch** — two nodes behind the
//!   least-loaded balancer, with node 0 switching on cadence in the
//!   second variant;
//! * **fault-campaign-under-load** — seeded memory bit-flips injected
//!   beneath live traffic, detected by sweep reads, answered by the
//!   watchdog's reactive attach (and detach at window end);
//! * **update-under-load** (with `--live-update`) — a uniprocessor
//!   node held virtual, rolling its hypervisor v1→v2→… on the switch
//!   cadence while traffic keeps arriving (DESIGN.md §16): the update
//!   cost lands as queueing, and the `update_under_load_p99` inflation
//!   ratio is gated by `tools/benchgate.py` against a hard 2.0x
//!   ceiling, same as a mode switch.
//!
//! Every server donates its open-loop gaps to the node's background
//! scrubber (`NodeServer::donate_gaps_to_scrubber`): while the node is
//! native, worker idle time revalidates dirty frames so the attaches in
//! the switching scenarios pay only for what the gaps didn't reach.
//! The per-scenario `scrub_revalidated` field counts those frames.
//!
//! Determinism: the whole suite runs **twice in-process** and every
//! request record (arrival/start/finish cycles, shape, worker, outcome)
//! plus every switch counter must be bit-identical before anything is
//! archived.  Switch-during-load scenarios run on uniprocessor nodes
//! only: SMP rendezvous spin cycles depend on host thread timing, so
//! multi-CPU beds are measured steady-state (their one setup switch
//! lands before the traffic-start base the records are relative to).
//!
//! Pass 1 is wall-clock timed; outside `--quick` its
//! simulated-Mcycles-per-host-second throughput is merged into
//! `sim_speed.json` under the `"serving"` key, which
//! `tools/benchgate.py --sim-speed` gates against the archived copy.
//! `--campaign` raises the request counts ~100x for the nightly
//! campaigns (EXPERIMENTS.md "Campaign scale").
//!
//! Emits `serving_results.json`: per-scenario tail stats (cycles and
//! µs), switch counts and cycles charged during the traffic window
//! (from `SwitchStats::total_{attach,detach}_cycles` deltas), and the
//! headline p99/p999 inflation ratios against the steady-native anchor.
//!
//! **`--fleet`** runs the fleet-scale scenario instead (DESIGN.md §15):
//! N simulated nodes (100 full/campaign, 24 quick) behind the
//! migration-aware `FleetServer`, with live migration as a balancing
//! action.  The timeline exercises every fleet path under live
//! traffic: a faultgen ECC storm degrades one node through its
//! fleet-bound watchdog and the fleet drains it to a healthy peer; a
//! rising-temperature trend trips a health monitor's failure
//! prediction and evacuates a second node; both re-home; then a
//! rolling "patch Tuesday" wave virtualizes, evacuates, maintains and
//! re-homes one rack at a time.  With `--live-update` a rolling
//! hypervisor live-update wave
//! (`FleetServer::patch_tuesday_live_update`) follows: every node
//! rolls v1→v2 in place, no guest drained, and the run fails unless
//! the fleet's weakest-link version converges on 2.  The same two
//! same-seed passes gate determinism, and `fleet_results.json` archives fleet-level
//! p50/p99/p999, shed counts, the migration downtime distribution,
//! evacuation makespans and wave spans — gated by
//! `tools/benchgate.py --fleet` (zero lost requests hard).
//!
//! Exits non-zero if the suite was non-deterministic, any scenario lost
//! a request, a switching scenario failed to switch, or a fault went
//! unrecovered.

use faultgen::{FaultSpec, FaultTarget};
use mercury_cluster::fleet::NodeStatus;
use mercury_cluster::{
    Cluster, HealthStatus, Node, NodeConfig, SensorReading, Watchdog, WatchdogPolicy,
};
use mercury_servo::{
    generate, tail_stats, ClusterServer, FleetServer, LoadConfig, NodeServer, RequestRecord,
    ServerConfig, TailStats, FLEET_SHED_NODE,
};
use mercury_workloads::configs::switch_with_peers;
use mercury_workloads::mix::CostMix;
use simx86::costs::cycles_to_us;
use simx86::PhysAddr;
use std::sync::Arc;

/// Toggle the VMM every this many cycles of stream time (1 ms: long
/// enough to amortize, short enough that a 4 000-request run sees tens
/// of switches).
const SWITCH_PERIOD: u64 = 3_000_000;

/// Inject one fault every this many cycles in the fault scenario.
const FAULT_PERIOD: u64 = 1_500_000;

/// Roll the hypervisor forward every this many cycles in the
/// live-update scenario (same cadence as the mode switches, so the two
/// tails are directly comparable).
const UPDATE_PERIOD: u64 = 3_000_000;

/// Detach (end the watchdog's holding window) every this many cycles.
const WINDOW_PERIOD: u64 = 6_000_000;

/// Scenario sizing.
struct Sizing {
    steady_requests: u32,
    switch_requests: u32,
    cluster_requests: u32,
    fault_requests: u32,
    steady_cpus: &'static [usize],
}

impl Sizing {
    fn full() -> Sizing {
        Sizing {
            steady_requests: 4_000,
            switch_requests: 4_000,
            cluster_requests: 3_000,
            fault_requests: 2_500,
            steady_cpus: &[1, 2, 4],
        }
    }

    /// CI smoke: same scenario shape, a few times cheaper.
    fn quick() -> Sizing {
        Sizing {
            steady_requests: 800,
            switch_requests: 800,
            cluster_requests: 600,
            fault_requests: 500,
            steady_cpus: &[1, 2],
        }
    }

    /// Nightly campaign: ~100x the full sizing.  Same scenario shapes
    /// and CPU ladder, so the tails are directly comparable to the
    /// full run (EXPERIMENTS.md "Campaign scale").
    fn campaign() -> Sizing {
        Sizing {
            steady_requests: 400_000,
            switch_requests: 400_000,
            cluster_requests: 300_000,
            fault_requests: 250_000,
            steady_cpus: &[1, 2, 4],
        }
    }
}

/// Switch-engine counters relevant to serving windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SwitchSnap {
    attaches: u64,
    detaches: u64,
    attach_cycles: u64,
    detach_cycles: u64,
    /// Completed hv-to-hv live-updates (DESIGN.md §16).
    updates: u64,
    update_cycles: u64,
    /// Frames the background scrubber revalidated out of open-loop
    /// serving gaps (native mode only) — each one shaved off the next
    /// attach's dirty set.
    scrubbed: u64,
}

fn snap(node: &Node) -> SwitchSnap {
    use std::sync::atomic::Ordering::Relaxed;
    let s = &node.mercury().stats;
    SwitchSnap {
        attaches: s.attaches.load(Relaxed),
        detaches: s.detaches.load(Relaxed),
        attach_cycles: s.total_attach_cycles.load(Relaxed),
        detach_cycles: s.total_detach_cycles.load(Relaxed),
        updates: s.live_updates.load(Relaxed),
        update_cycles: s.total_update_cycles.load(Relaxed),
        scrubbed: node.scrubber().revalidated(),
    }
}

fn delta(node: &Node, base: SwitchSnap) -> SwitchSnap {
    let s = snap(node);
    SwitchSnap {
        attaches: s.attaches - base.attaches,
        detaches: s.detaches - base.detaches,
        attach_cycles: s.attach_cycles - base.attach_cycles,
        detach_cycles: s.detach_cycles - base.detach_cycles,
        updates: s.updates - base.updates,
        update_cycles: s.update_cycles - base.update_cycles,
        scrubbed: s.scrubbed - base.scrubbed,
    }
}

/// Everything one scenario produced.  `PartialEq` is the determinism
/// gate: two same-seed passes must compare equal, record for record.
#[derive(Clone, PartialEq)]
struct ScenarioRun {
    name: String,
    mode: &'static str,
    cpus: usize,
    nodes: usize,
    mix: &'static str,
    records: Vec<RequestRecord>,
    switches: SwitchSnap,
    faults_recovered: u64,
}

fn node_config(cpus: usize) -> NodeConfig {
    NodeConfig {
        num_cpus: cpus,
        ..NodeConfig::default()
    }
}

fn oltp_traffic(seed: u64, workers: usize, requests: u32) -> Vec<mercury_servo::Arrival> {
    generate(&LoadConfig {
        seed,
        // Fixed per-worker offered rate: ~0.1 ms between arrivals per
        // CPU, well under saturation but busy enough to queue.
        mean_gap_cycles: 300_000 / workers as u64,
        requests,
        mix: CostMix::oltp(),
    })
}

/// Steady-state node, native or virtual, no switching during traffic.
fn scenario_steady(seed: u64, cpus: usize, virtual_mode: bool, requests: u32) -> ScenarioRun {
    let node = Node::launch("bench", &node_config(cpus));
    if virtual_mode {
        // The one setup switch; on SMP beds the rendezvous spin cycles
        // are host-timing dependent, which is why it happens *before*
        // the traffic-start base that records are measured against.
        switch_with_peers(&node.machine, &node.mercury(), true);
    }
    let mut server = NodeServer::new(
        &node,
        0,
        ServerConfig {
            workers: cpus,
            ..ServerConfig::default()
        },
    );
    server.donate_gaps_to_scrubber();
    let traffic = oltp_traffic(seed, cpus, requests);
    let base = snap(&node);
    server.run(&traffic, |_, _| {});
    let mode = if virtual_mode { "virtual" } else { "native" };
    ScenarioRun {
        name: format!("steady-{mode}-{cpus}cpu"),
        mode,
        cpus,
        nodes: 1,
        mix: "oltp",
        records: server.records().to_vec(),
        switches: delta(&node, base),
        faults_recovered: 0,
    }
}

/// Uniprocessor node toggling attach/detach on a fixed cadence while
/// open-loop traffic keeps arriving.
fn scenario_switch_under_load(seed: u64, requests: u32) -> ScenarioRun {
    let node = Node::launch("bench", &node_config(1));
    let mercury = node.mercury();
    let mut server = NodeServer::new(&node, 0, ServerConfig::default());
    // Native-phase serving gaps feed the scrubber, so every attach on
    // the cadence revalidates only the frames the gaps didn't reach.
    server.donate_gaps_to_scrubber();
    let traffic = oltp_traffic(seed, 1, requests);
    let base = snap(&node);
    let mut next = SWITCH_PERIOD;
    let mut to_virtual = true;
    server.run(&traffic, |srv, off| {
        while off >= next {
            let cpu = srv.node().machine.boot_cpu();
            let out = if to_virtual {
                mercury.switch_to_virtual(cpu)
            } else {
                mercury.switch_to_native(cpu)
            }
            .expect("mode switch under load");
            assert!(
                matches!(out, mercury::SwitchOutcome::Completed { .. }),
                "UP switch must complete: {out:?}"
            );
            to_virtual = !to_virtual;
            next += SWITCH_PERIOD;
        }
    });
    ScenarioRun {
        name: "switch-under-load-1cpu".to_string(),
        mode: "switching",
        cpus: 1,
        nodes: 1,
        mix: "oltp",
        records: server.records().to_vec(),
        switches: delta(&node, base),
        faults_recovered: 0,
    }
}

/// Uniprocessor node held virtual, rolling its hypervisor forward on a
/// fixed cadence while open-loop traffic keeps arriving (DESIGN.md
/// §16): the kernel never leaves virtual mode, so the whole update —
/// handshake, cold successor rebuild, commit — lands as queueing in
/// the tail, never as downtime.
fn scenario_update_under_load(seed: u64, requests: u32) -> ScenarioRun {
    let node = Node::launch("bench", &node_config(1));
    let mercury = node.mercury();
    // The one setup switch, before the traffic-start base.
    switch_with_peers(&node.machine, &mercury, true);
    let mut server = NodeServer::new(&node, 0, ServerConfig::default());
    server.donate_gaps_to_scrubber();
    let traffic = oltp_traffic(seed, 1, requests);
    let base = snap(&node);
    let mut next = UPDATE_PERIOD;
    server.run(&traffic, |srv, off| {
        while off >= next {
            let cpu = srv.node().machine.boot_cpu();
            let succ = xenon::Hypervisor::warm_up_versioned(
                &srv.node().machine,
                mercury.hv_version() + 1,
            );
            mercury.stage_update(succ).expect("stage update under load");
            let out = mercury.live_update(cpu).expect("live-update under load");
            assert!(
                matches!(out, mercury::SwitchOutcome::Completed { .. }),
                "UP live-update must complete: {out:?}"
            );
            next += UPDATE_PERIOD;
        }
    });
    assert!(mercury.hv_version() > 1, "the cadence must roll versions");
    ScenarioRun {
        name: "update-under-load-1cpu".to_string(),
        mode: "updating",
        cpus: 1,
        nodes: 1,
        mix: "oltp",
        records: server.records().to_vec(),
        switches: delta(&node, base),
        faults_recovered: 0,
    }
}

fn cluster_fleet(n: usize) -> (Cluster, ClusterServer) {
    let cluster = Cluster::launch(n, &NodeConfig::default());
    let cfg = ServerConfig {
        // The NICs carry the inter-node links; leave them wired.
        attach_echo_host: false,
        ..ServerConfig::default()
    };
    let servers = cluster
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let mut s = NodeServer::new(node, i as u32, cfg);
            s.donate_gaps_to_scrubber();
            s
        })
        .collect();
    (cluster, ClusterServer::new(servers))
}

fn web_traffic(seed: u64, nodes: usize, requests: u32) -> Vec<mercury_servo::Arrival> {
    generate(&LoadConfig {
        seed,
        mean_gap_cycles: 200_000 / nodes as u64,
        requests,
        mix: CostMix::web(),
    })
}

/// Two uniprocessor nodes behind the least-loaded balancer; in the
/// switching variant node 0 toggles on cadence and the balancer routes
/// around its stall.
fn scenario_cluster(seed: u64, requests: u32, switching: bool) -> ScenarioRun {
    let (cluster, mut lb) = cluster_fleet(2);
    let traffic = web_traffic(seed, 2, requests);
    let bases: Vec<SwitchSnap> = cluster.nodes.iter().map(|n| snap(n)).collect();
    if switching {
        let mercury = cluster.node(0).mercury();
        let mut next = SWITCH_PERIOD;
        let mut to_virtual = true;
        lb.run(&traffic, |srv, off| {
            while off >= next {
                let cpu = srv.nodes()[0].node().machine.boot_cpu();
                let out = if to_virtual {
                    mercury.switch_to_virtual(cpu)
                } else {
                    mercury.switch_to_native(cpu)
                }
                .expect("node0 switch under load");
                assert!(matches!(out, mercury::SwitchOutcome::Completed { .. }));
                to_virtual = !to_virtual;
                next += SWITCH_PERIOD;
            }
        });
    } else {
        lb.run(&traffic, |_, _| {});
    }
    let mut switches = SwitchSnap::default();
    for (node, base) in cluster.nodes.iter().zip(bases) {
        let d = delta(node, base);
        switches.attaches += d.attaches;
        switches.detaches += d.detaches;
        switches.attach_cycles += d.attach_cycles;
        switches.detach_cycles += d.detach_cycles;
        switches.scrubbed += d.scrubbed;
    }
    ScenarioRun {
        name: if switching {
            "cluster-switch-2node".to_string()
        } else {
            "cluster-steady-2node".to_string()
        },
        mode: if switching { "switching" } else { "native" },
        cpus: 1,
        nodes: 2,
        mix: "web",
        records: lb.records(),
        switches,
        faults_recovered: 0,
    }
}

/// Seeded memory bit-flips injected beneath live traffic on a
/// uniprocessor node: sweep reads detect them between requests, the
/// watchdog answers with reactive attach, and `end_window` detaches on
/// cadence — all of it charged to the serving CPU's clock.
fn scenario_fault_under_load(seed: u64, requests: u32) -> ScenarioRun {
    let node = Node::launch("bench", &node_config(1));
    let mut server = NodeServer::new(&node, 0, ServerConfig::default());
    server.donate_gaps_to_scrubber();
    let traffic = oltp_traffic(seed.wrapping_add(1), 1, requests);
    let base = snap(&node);

    faultgen::reset();
    let mut rng = faultgen::rng::SplitMix64::new(seed ^ 0xfa01);
    let mut dog = Watchdog::new(
        node.mercury(),
        Arc::clone(&node.machine),
        node.kernel(),
        WatchdogPolicy {
            attach_on_fault: true,
            ..WatchdogPolicy::default()
        },
    );
    // Pre-plan the flips (high frames, one per word) so both passes
    // draw the identical fault sequence.
    let span = traffic.last().map(|a| a.offset).unwrap_or(0);
    let planned = (span / FAULT_PERIOD) as usize;
    let mut used = std::collections::BTreeSet::new();
    let mut plan = Vec::new();
    for i in 0..planned {
        let (frame, word) = loop {
            let f = 15_000 + rng.below(1_000) as u32;
            let w = rng.below(512) as u16;
            if used.insert((f, w)) {
                break (f, w);
            }
        };
        plan.push(FaultSpec {
            id: 9_000 + i as u64,
            due_cycle: 0,
            target: FaultTarget::MemWord {
                frame,
                word,
                bit: rng.below(64) as u8,
            },
        });
    }

    let mut next_fault = FAULT_PERIOD;
    let mut next_window = WINDOW_PERIOD;
    let mut cursor = 0usize;
    server.run(&traffic, |srv, off| {
        let machine = Arc::clone(&srv.node().machine);
        let cpu = machine.boot_cpu();
        while off >= next_fault && cursor < plan.len() {
            let spec = plan[cursor];
            cursor += 1;
            let FaultTarget::MemWord { frame, word, .. } = spec.target else {
                unreachable!("plan holds MemWord faults only")
            };
            faultgen::arm(vec![spec]);
            // The scrubber sweep read that trips the planted flip.
            let pa = PhysAddr(((frame as u64) << 12) + (word as u64) * 8);
            machine.mem.read_word(cpu, pa).expect("sweep read");
            dog.poll(cpu);
            next_fault += FAULT_PERIOD;
        }
        while off >= next_window {
            // End the holding window: reactive attach pays its detach.
            dog.end_window(cpu);
            next_window += WINDOW_PERIOD;
        }
    });
    {
        let cpu = node.machine.boot_cpu();
        dog.end_window(cpu);
    }
    faultgen::reset();

    let recovered = dog.reports().iter().filter(|r| r.recovered).count() as u64;
    assert_eq!(
        recovered,
        dog.reports().len() as u64,
        "every injected fault must be recovered"
    );
    ScenarioRun {
        name: "fault-campaign-under-load-1cpu".to_string(),
        mode: "reactive",
        cpus: 1,
        nodes: 1,
        mix: "oltp",
        records: server.records().to_vec(),
        switches: delta(&node, base),
        faults_recovered: recovered,
    }
}

/// One full suite pass: a pure function of `(seed, live_update)`.
fn run_suite(seed: u64, sizing: &Sizing, live_update: bool) -> Vec<ScenarioRun> {
    let mut out = Vec::new();
    for &cpus in sizing.steady_cpus {
        out.push(scenario_steady(seed, cpus, false, sizing.steady_requests));
    }
    for &cpus in sizing.steady_cpus {
        out.push(scenario_steady(seed, cpus, true, sizing.steady_requests));
    }
    out.push(scenario_switch_under_load(seed, sizing.switch_requests));
    if live_update {
        out.push(scenario_update_under_load(seed, sizing.switch_requests));
    }
    out.push(scenario_cluster(seed, sizing.cluster_requests, false));
    out.push(scenario_cluster(seed, sizing.cluster_requests, true));
    out.push(scenario_fault_under_load(seed, sizing.fault_requests));
    out
}

// --- fleet mode (DESIGN.md §15) --------------------------------------

/// Fleet sizing: node count, rack width, request count.
struct FleetSizing {
    nodes: usize,
    rack_size: usize,
    requests: u32,
}

impl FleetSizing {
    fn full() -> FleetSizing {
        FleetSizing {
            nodes: 100,
            rack_size: 10,
            requests: 20_000,
        }
    }

    fn quick() -> FleetSizing {
        FleetSizing {
            nodes: 24,
            rack_size: 6,
            requests: 3_000,
        }
    }

    fn campaign() -> FleetSizing {
        FleetSizing {
            nodes: 100,
            rack_size: 10,
            requests: 200_000,
        }
    }
}

/// Hold a rack in maintenance this long (cycles) during the wave.
const MAINT_CYCLES: u64 = 200_000;

/// Small nodes so a 100-node fleet stays within a CI runner's memory:
/// 16 MB of simulated RAM each (the default node is 64 MB).
fn fleet_node_config() -> NodeConfig {
    NodeConfig {
        num_cpus: 1,
        mem_frames: 4 * 1024,
        pool_frames: 1536,
        disk_sectors: 8 * 1024,
        fs_blocks: 512,
        ..NodeConfig::default()
    }
}

/// Everything one fleet pass produced; `PartialEq` is the same-seed
/// determinism gate.
#[derive(Clone, PartialEq)]
struct FleetRun {
    records: Vec<RequestRecord>,
    offered: u64,
    downtimes: Vec<u64>,
    evac_makespans: Vec<u64>,
    wave_spans: Vec<u64>,
    /// Reason strings from the two triggered degradations, in order.
    degrade_reasons: Vec<String>,
    /// Every node healthy and home again at the end?
    healed: bool,
    /// The fleet's weakest-link hypervisor version at the end: 1
    /// normally, 2 after a `--live-update` rolling wave converged.
    hv_version_min: u32,
}

/// One fleet pass: traffic over N nodes with a watchdog-degraded
/// evacuation, a health-predicted evacuation, both re-homings, and the
/// rolling rack wave — all at deterministic stream offsets.  With
/// `live_update` a hypervisor live-update wave
/// ([`FleetServer::patch_tuesday_live_update`]) follows the
/// maintenance wave: every node rolls v1→v2 in place, no guest
/// drained.
fn run_fleet(seed: u64, sizing: &FleetSizing, live_update: bool) -> FleetRun {
    let cluster = Cluster::launch(sizing.nodes, &fleet_node_config());
    let cfg = ServerConfig {
        attach_echo_host: false,
        ..ServerConfig::default()
    };
    let mut fs = FleetServer::new(&cluster, sizing.rack_size, cfg);
    let racks = fs.fleet().racks();

    let traffic = generate(&LoadConfig {
        seed,
        mean_gap_cycles: 400_000 / sizing.nodes as u64,
        requests: sizing.requests,
        mix: CostMix::web(),
    });
    let span = traffic.last().map(|a| a.offset).unwrap_or(0);

    // The two degradation victims: one by fault storm, one by health
    // prediction.  Distinct nodes, both clear of index 0 so the
    // least-loaded tiebreak still has its favorite.
    let fault_node = 2usize;
    let health_node = sizing.nodes / 2 + 1;
    assert_ne!(fault_node, health_node);

    // The watchdog for the fault-storm node, bound to the fleet view so
    // its degradation is what routes traffic away.
    let mut dog = Watchdog::new(
        cluster.node(fault_node).mercury(),
        Arc::clone(&cluster.node(fault_node).machine),
        cluster.node(fault_node).kernel(),
        WatchdogPolicy::default(),
    );
    dog.bind_fleet(Arc::clone(fs.fleet()), fault_node);

    // Deterministic event offsets across the stream.
    let fault_off = span * 15 / 100;
    let health_off = span * 25 / 100;
    let rehome_off = span * 45 / 100;
    let wave_start = span * 55 / 100;
    let wave_step = (span * 35 / 100) / racks as u64;
    let update_off = span * 95 / 100;

    faultgen::reset();
    let mut degrade_reasons = Vec::new();
    let mut stage = 0usize;
    let mut next_rack = 0usize;
    fs.run(&traffic, |fs, off| {
        if stage == 0 && off >= fault_off {
            stage = 1;
            // An ECC storm on the fault node: three planted bit-flips,
            // each tripped by a sweep read and recovered through the
            // watchdog's reactive attach.  Three scrubs in one window
            // is the storm threshold — the watchdog degrades the node
            // and the fleet drains it.
            let machine = Arc::clone(&fs.nodes()[fault_node].machine);
            let cpu = machine.boot_cpu();
            for k in 0..3u64 {
                faultgen::arm(vec![FaultSpec {
                    id: 7_000 + k,
                    due_cycle: 0,
                    target: FaultTarget::MemWord {
                        frame: 3_000 + k as u32,
                        word: 17,
                        bit: (k % 64) as u8,
                    },
                }]);
                let pa = PhysAddr(((3_000 + k) << 12) + 17 * 8);
                machine.mem.read_word(cpu, pa).expect("sweep read");
                dog.poll(cpu);
            }
            assert_eq!(dog.reports().len(), 3, "storm must be detected");
            assert!(dog.reports().iter().all(|r| r.recovered));
            dog.mark_degraded("ECC scrub storm: 3 corrected flips in one window");
            degrade_reasons.push(match fs.fleet().status(fault_node) {
                NodeStatus::Degraded(r) => r,
                other => panic!("watchdog must publish degradation, got {other:?}"),
            });
            let target = fs
                .drain_node(fault_node, off, None)
                .expect("fault-node evacuation");
            assert!(target.is_some(), "healthy peers must absorb the drain");
        } else if stage == 1 && off >= health_off {
            stage = 2;
            // A rising temperature trend past the warning line: the
            // health monitor predicts failure (§6.5) and the fleet
            // evacuates before the hardware dies.
            let health = &fs.nodes()[health_node].health;
            for temp in [72.0, 78.0, 84.0] {
                health.inject(SensorReading {
                    temp_c: temp,
                    ..SensorReading::default()
                });
            }
            let reason = match health.assess() {
                HealthStatus::FailurePredicted(r) => r,
                other => panic!("rising trend must predict failure, got {other:?}"),
            };
            fs.fleet()
                .set_status(health_node, NodeStatus::Degraded(reason.clone()));
            degrade_reasons.push(reason);
            let target = fs
                .drain_node(health_node, off, None)
                .expect("health-node evacuation");
            assert!(target.is_some());
        } else if stage == 2 && off >= rehome_off {
            stage = 3;
            fs.rehome_node(fault_node, off).expect("fault-node rehome");
            fs.rehome_node(health_node, off)
                .expect("health-node rehome");
        } else if stage == 3 && next_rack < racks && off >= wave_start + next_rack as u64 * wave_step
        {
            // The rolling wave: one rack per step across the stream.
            fs.maintain_rack(next_rack, off, MAINT_CYCLES)
                .expect("rack maintenance");
            next_rack += 1;
            if next_rack == racks {
                stage = 4;
            }
        } else if stage == 4 && live_update && off >= update_off {
            stage = 5;
            // The live-update wave (DESIGN.md §16): every rack rolls
            // its hypervisors v1→v2 in place.  Unlike the maintenance
            // wave no guest is drained — nodes keep serving and the
            // fleet view converges on the new version.
            let updated = fs.patch_tuesday_live_update(2);
            assert_eq!(updated, sizing.nodes, "every node must roll to v2");
            assert_eq!(
                fs.fleet().min_hv_version(),
                2,
                "the fleet must converge on v2"
            );
        }
    });
    faultgen::reset();
    assert_eq!(
        stage,
        if live_update { 5 } else { 4 },
        "every fleet event must fire within the stream"
    );
    assert_eq!(next_rack, racks, "the wave must reach every rack");

    let healed = (0..sizing.nodes)
        .all(|i| fs.fleet().status(i) == NodeStatus::Healthy && !fs.is_evacuated(i));
    let records = fs.finish();
    FleetRun {
        records,
        offered: fs.offered(),
        downtimes: fs.downtimes().to_vec(),
        evac_makespans: fs.evac_makespans().to_vec(),
        wave_spans: fs.wave_spans().to_vec(),
        degrade_reasons,
        healed,
        hv_version_min: fs.fleet().min_hv_version(),
    }
}

/// `(min, p50, max)` of a cycle-count sample.
fn dist(xs: &[u64]) -> (u64, u64, u64) {
    if xs.is_empty() {
        return (0, 0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    (v[0], v[v.len() / 2], v[v.len() - 1])
}

/// The whole `--fleet` mode: two same-seed passes, gates, and the
/// `fleet_results.json` archive.  Returns the process exit code.
fn fleet_main(seed: u64, sizing: &FleetSizing, label: &str, live_update: bool) -> i32 {
    eprintln!(
        "serving_tail --fleet: seed {seed} ({label}), {} nodes in racks of {}{}",
        sizing.nodes,
        sizing.rack_size,
        if live_update { ", live-update wave" } else { "" }
    );
    let pass1 = run_fleet(seed, sizing, live_update);
    let pass2 = run_fleet(seed, sizing, live_update);
    let deterministic = pass1 == pass2;

    let t = tail_stats(&pass1.records);
    let fleet_sheds = pass1
        .records
        .iter()
        .filter(|r| r.node == FLEET_SHED_NODE)
        .count() as u64;
    let lost = pass1.offered - pass1.records.len() as u64;
    let evacuations = pass1.evac_makespans.len() as u64;
    let (dt_min, dt_p50, dt_max) = dist(&pass1.downtimes);
    let (mk_min, mk_p50, mk_max) = dist(&pass1.evac_makespans);

    println!(
        "fleet: {} nodes | offered {} | completed {} | shed {} (fleet-level {}) | lost {}",
        sizing.nodes, t.offered, t.completed, t.shed, fleet_sheds, lost
    );
    println!(
        "tails: p50 {:.1} µs | p99 {:.1} µs | p999 {:.1} µs",
        cycles_to_us(t.p50_cycles),
        cycles_to_us(t.p99_cycles),
        cycles_to_us(t.p999_cycles),
    );
    println!(
        "migrations: {} ({} evacuations) | downtime min/p50/max {:.1}/{:.1}/{:.1} µs | evac makespan p50 {:.1} µs",
        pass1.downtimes.len(),
        evacuations,
        cycles_to_us(dt_min),
        cycles_to_us(dt_p50),
        cycles_to_us(dt_max),
        cycles_to_us(mk_p50),
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"mode\": \"{label}\",\n"));
    json.push_str(&format!(
        "  \"determinism\": \"{}\",\n",
        if deterministic { "verified" } else { "FAILED" }
    ));
    json.push_str(&format!("  \"nodes\": {},\n", sizing.nodes));
    json.push_str(&format!("  \"rack_size\": {},\n", sizing.rack_size));
    json.push_str(&format!("  \"live_update_wave\": {live_update},\n"));
    json.push_str(&format!(
        "  \"hv_version_min\": {},\n",
        pass1.hv_version_min
    ));
    json.push_str(&format!("  \"offered\": {},\n", t.offered));
    json.push_str(&format!("  \"completed\": {},\n", t.completed));
    json.push_str(&format!("  \"shed\": {},\n", t.shed));
    json.push_str(&format!("  \"fleet_sheds\": {fleet_sheds},\n"));
    json.push_str(&format!("  \"lost\": {lost},\n"));
    json.push_str(&format!("  \"p50_cycles\": {},\n", t.p50_cycles));
    json.push_str(&format!("  \"p99_cycles\": {},\n", t.p99_cycles));
    json.push_str(&format!("  \"p999_cycles\": {},\n", t.p999_cycles));
    json.push_str(&format!("  \"p50_us\": {:.3},\n", cycles_to_us(t.p50_cycles)));
    json.push_str(&format!("  \"p99_us\": {:.3},\n", cycles_to_us(t.p99_cycles)));
    json.push_str(&format!(
        "  \"p999_us\": {:.3},\n",
        cycles_to_us(t.p999_cycles)
    ));
    json.push_str(&format!("  \"evacuations\": {evacuations},\n"));
    json.push_str(&format!("  \"migrations\": {},\n", pass1.downtimes.len()));
    json.push_str(&format!(
        "  \"downtime_cycles\": {{\"min\": {dt_min}, \"p50\": {dt_p50}, \"max\": {dt_max}}},\n"
    ));
    json.push_str(&format!(
        "  \"downtime_us\": {{\"min\": {:.3}, \"p50\": {:.3}, \"max\": {:.3}}},\n",
        cycles_to_us(dt_min),
        cycles_to_us(dt_p50),
        cycles_to_us(dt_max),
    ));
    json.push_str(&format!(
        "  \"evac_makespan_cycles\": {{\"min\": {mk_min}, \"p50\": {mk_p50}, \"max\": {mk_max}}},\n"
    ));
    json.push_str(&format!(
        "  \"wave_spans_cycles\": [{}],\n",
        pass1
            .wave_spans
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"degrade_reasons\": [{}]\n",
        pass1
            .degrade_reasons
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("}\n");
    std::fs::write("fleet_results.json", &json).expect("write fleet_results.json");
    eprintln!("wrote fleet_results.json");

    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        ok = false;
    };
    if !deterministic {
        fail("two same-seed fleet passes diverged".to_string());
    }
    if lost != 0 {
        fail(format!("{lost} requests lost (offered vs recorded)"));
    }
    if t.offered != t.completed + t.shed {
        fail("offered != completed + shed".to_string());
    }
    if t.completed == 0 {
        fail("no request completed".to_string());
    }
    if evacuations != 2 + sizing.nodes as u64 {
        fail(format!(
            "expected {} evacuations (2 triggered + full wave), saw {evacuations}",
            2 + sizing.nodes
        ));
    }
    if pass1.downtimes.len() != 2 * evacuations as usize {
        fail(format!(
            "every evacuation re-homes: expected {} migrations, saw {}",
            2 * evacuations,
            pass1.downtimes.len()
        ));
    }
    if pass1.downtimes.contains(&0) {
        fail("a migration reported zero downtime".to_string());
    }
    if pass1.wave_spans.iter().any(|&s| s < MAINT_CYCLES) {
        fail("a wave span shorter than its maintenance window".to_string());
    }
    if pass1.degrade_reasons.len() != 2 {
        fail("both degradations must publish a reason".to_string());
    }
    if !pass1.healed {
        fail("fleet did not heal: some node not healthy and home".to_string());
    }
    if live_update && pass1.hv_version_min != 2 {
        fail(format!(
            "live-update wave did not converge: weakest-link hv version {} != 2",
            pass1.hv_version_min
        ));
    }
    if ok {
        0
    } else {
        1
    }
}

fn json_scenario(s: &ScenarioRun, t: &TailStats) -> String {
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"cpus\": {}, \"nodes\": {}, ",
            "\"mix\": \"{}\", \"offered\": {}, \"completed\": {}, \"shed\": {}, ",
            "\"p50_cycles\": {}, \"p99_cycles\": {}, \"p999_cycles\": {}, \"max_cycles\": {}, ",
            "\"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, ",
            "\"mean_us\": {:.3}, \"mean_queue_us\": {:.3}, ",
            "\"attaches\": {}, \"detaches\": {}, ",
            "\"attach_cycles\": {}, \"detach_cycles\": {}, ",
            "\"live_updates\": {}, \"update_cycles\": {}, ",
            "\"scrub_revalidated\": {}, \"faults_recovered\": {}}}"
        ),
        s.name,
        s.mode,
        s.cpus,
        s.nodes,
        s.mix,
        t.offered,
        t.completed,
        t.shed,
        t.p50_cycles,
        t.p99_cycles,
        t.p999_cycles,
        t.max_cycles,
        cycles_to_us(t.p50_cycles),
        cycles_to_us(t.p99_cycles),
        cycles_to_us(t.p999_cycles),
        t.mean_cycles / simx86::costs::CYCLES_PER_US as f64,
        t.mean_queue_cycles / simx86::costs::CYCLES_PER_US as f64,
        s.switches.attaches,
        s.switches.detaches,
        s.switches.attach_cycles,
        s.switches.detach_cycles,
        s.switches.updates,
        s.switches.update_cycles,
        s.switches.scrubbed,
        s.faults_recovered,
    )
}

fn main() {
    const {
        assert!(
            faultgen::ENABLED,
            "serving_tail needs the faultgen hooks compiled in (feature `enabled`)"
        )
    };

    let mut seed = 11u64;
    let mut quick = false;
    let mut campaign = false;
    let mut fleet = false;
    let mut live_update = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--quick" => quick = true,
            "--campaign" => campaign = true,
            "--fleet" => fleet = true,
            "--live-update" => live_update = true,
            other => {
                panic!("unknown argument {other:?} (use --seed N / --quick / --campaign / --fleet / --live-update)")
            }
        }
    }
    assert!(
        !(quick && campaign),
        "--quick and --campaign are mutually exclusive"
    );
    if fleet {
        let sizing = if quick {
            FleetSizing::quick()
        } else if campaign {
            FleetSizing::campaign()
        } else {
            FleetSizing::full()
        };
        let label = if quick {
            "quick"
        } else if campaign {
            "campaign"
        } else {
            "full"
        };
        std::process::exit(fleet_main(seed, &sizing, label, live_update));
    }
    let sizing = if quick {
        Sizing::quick()
    } else if campaign {
        Sizing::campaign()
    } else {
        Sizing::full()
    };
    let label = if quick {
        "quick"
    } else if campaign {
        "campaign"
    } else {
        "full"
    };

    // Two same-seed passes: bit-identical results are the determinism
    // gate (DESIGN.md §14).
    eprintln!("serving_tail: seed {seed} ({label}), two same-seed passes");
    let t1 = std::time::Instant::now();
    let pass1 = run_suite(seed, &sizing, live_update);
    let host_seconds = t1.elapsed().as_secs_f64();
    let pass2 = run_suite(seed, &sizing, live_update);
    let deterministic = pass1 == pass2;

    let stats: Vec<TailStats> = pass1.iter().map(|s| tail_stats(&s.records)).collect();

    // -- report ----------------------------------------------------------
    println!("Serving tail latency (seed {seed})");
    println!("| scenario | cpus×nodes | offered | shed | p50 µs | p99 µs | p999 µs | switches | switch µs |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|");
    for (s, t) in pass1.iter().zip(&stats) {
        println!(
            "| {} | {}×{} | {} | {} | {:.1} | {:.1} | {:.1} | {} | {:.1} |",
            s.name,
            s.cpus,
            s.nodes,
            t.offered,
            t.shed,
            cycles_to_us(t.p50_cycles),
            cycles_to_us(t.p99_cycles),
            cycles_to_us(t.p999_cycles),
            s.switches.attaches + s.switches.detaches,
            cycles_to_us(s.switches.attach_cycles + s.switches.detach_cycles),
        );
    }

    // Headline inflation ratios against the steady-native UP anchor.
    let anchor = |name: &str| -> &TailStats {
        pass1
            .iter()
            .position(|s| s.name == name)
            .map(|i| &stats[i])
            .unwrap_or_else(|| panic!("missing scenario {name}"))
    };
    let native = anchor("steady-native-1cpu");
    let virt = anchor("steady-virtual-1cpu");
    let switching = anchor("switch-under-load-1cpu");
    let faulting = anchor("fault-campaign-under-load-1cpu");
    let updating = live_update.then(|| anchor("update-under-load-1cpu"));
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    println!(
        "\nvs steady native (UP): virtual p99 {:.2}x | switching p99 {:.2}x p999 {:.2}x | faults p99 {:.2}x p999 {:.2}x",
        ratio(virt.p99_cycles, native.p99_cycles),
        ratio(switching.p99_cycles, native.p99_cycles),
        ratio(switching.p999_cycles, native.p999_cycles),
        ratio(faulting.p99_cycles, native.p99_cycles),
        ratio(faulting.p999_cycles, native.p999_cycles),
    );
    if let Some(u) = updating {
        println!(
            "live-update p99 {:.2}x p999 {:.2}x vs steady native (UP)",
            ratio(u.p99_cycles, native.p99_cycles),
            ratio(u.p999_cycles, native.p999_cycles),
        );
    }

    // -- archive ---------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"determinism\": \"{}\",\n",
        if deterministic { "verified" } else { "FAILED" }
    ));
    json.push_str("  \"inflation_vs_steady_native_1cpu\": {\n");
    json.push_str(&format!(
        "    \"steady_virtual_p99\": {:.4},\n",
        ratio(virt.p99_cycles, native.p99_cycles)
    ));
    json.push_str(&format!(
        "    \"switch_under_load_p99\": {:.4},\n",
        ratio(switching.p99_cycles, native.p99_cycles)
    ));
    json.push_str(&format!(
        "    \"switch_under_load_p999\": {:.4},\n",
        ratio(switching.p999_cycles, native.p999_cycles)
    ));
    json.push_str(&format!(
        "    \"fault_campaign_p99\": {:.4},\n",
        ratio(faulting.p99_cycles, native.p99_cycles)
    ));
    match updating {
        Some(u) => {
            json.push_str(&format!(
                "    \"fault_campaign_p999\": {:.4},\n",
                ratio(faulting.p999_cycles, native.p999_cycles)
            ));
            json.push_str(&format!(
                "    \"update_under_load_p99\": {:.4},\n",
                ratio(u.p99_cycles, native.p99_cycles)
            ));
            json.push_str(&format!(
                "    \"update_under_load_p999\": {:.4}\n",
                ratio(u.p999_cycles, native.p999_cycles)
            ));
        }
        None => {
            json.push_str(&format!(
                "    \"fault_campaign_p999\": {:.4}\n",
                ratio(faulting.p999_cycles, native.p999_cycles)
            ));
        }
    }
    json.push_str("  },\n");
    json.push_str("  \"scenarios\": [\n");
    let rows: Vec<String> = pass1
        .iter()
        .zip(&stats)
        .map(|(s, t)| json_scenario(s, t))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("serving_results.json", &json).expect("write serving_results.json");
    eprintln!("wrote serving_results.json");

    // Simulated throughput: stream time covered per scenario is the
    // last record's finish offset — a deterministic, archived quantity
    // (machine clocks would fold in host-timing-dependent SMP
    // rendezvous spin).  Quick runs are too short to be meaningful.
    if !quick {
        let sim_cycles: u64 = pass1
            .iter()
            .map(|s| s.records.iter().map(|r| r.finish).max().unwrap_or(0))
            .sum();
        let sim_mcycles = sim_cycles as f64 / 1e6;
        mercury_bench::record_sim_speed(
            "serving",
            &mercury_bench::SimSpeed {
                sim_mcycles,
                host_seconds,
            },
        );
    }

    // -- gates -----------------------------------------------------------
    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        ok = false;
    };
    if !deterministic {
        fail("two same-seed passes diverged".to_string());
    }
    for (s, t) in pass1.iter().zip(&stats) {
        if t.offered != t.completed + t.shed {
            fail(format!("{}: offered {} != completed+shed", s.name, t.offered));
        }
        if t.completed == 0 {
            fail(format!("{}: no request completed", s.name));
        }
        match s.mode {
            "switching" => {
                if s.switches.attaches == 0 || s.switches.detaches == 0 {
                    fail(format!("{}: switching scenario never switched", s.name));
                }
                if s.switches.attach_cycles == 0 {
                    fail(format!("{}: no attach cycles charged", s.name));
                }
            }
            "reactive" => {
                if s.faults_recovered == 0 {
                    fail(format!("{}: no fault recovered", s.name));
                }
                if s.switches.attaches == 0 {
                    fail(format!("{}: reactive scenario never attached", s.name));
                }
            }
            "updating" => {
                if s.switches.updates == 0 || s.switches.update_cycles == 0 {
                    fail(format!("{}: live-update scenario never updated", s.name));
                }
                if s.switches.attaches != 0 || s.switches.detaches != 0 {
                    fail(format!(
                        "{}: live-update scenario must never leave virtual mode",
                        s.name
                    ));
                }
            }
            _ => {
                if s.switches.attaches != 0 || s.switches.detaches != 0 {
                    fail(format!(
                        "{}: steady scenario switched during traffic",
                        s.name
                    ));
                }
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
