//! Tail latency under self-virtualization (DESIGN.md §13, §15, §16;
//! EXPERIMENTS.md "Serving tail latency" and "Fleet scale").
//!
//! The paper argues a mode switch is invisible to running applications
//! (§7.4: ~0.22 ms attach, ~0.06 ms detach).  This binary asks the
//! operator's version of that question: *what happens to request
//! p50/p99/p999 when the machine self-virtualizes under live load?*
//!
//! It is one static table, [`SCENARIOS`], walked by one `main` on the
//! shared campaign harness (`mercury_suite::campaign`): every
//! run executes every row (rows on more CPUs than the sizing allows are
//! the only ones left out), on the simulated cycle clock via
//! `mercury-servo` — the steady native/virtual anchors at 1, 2 and 4
//! CPUs; a uniprocessor node attaching/detaching, or rolling its
//! hypervisor forward (DESIGN.md §16), on a fixed cadence while
//! open-loop traffic keeps arriving, so the pause shows up as queueing;
//! two nodes behind the least-loaded balancer, steady and with node 0
//! switching; seeded bit-flips answered by the watchdog's reactive
//! attach; and the fleet (DESIGN.md §15): 100 nodes (24 under
//! `--quick`) whose every migration path fires from a
//! `(stream fraction, event)` timeline under live traffic.
//!
//! Every server donates its open-loop gaps to Mercury's revalidation
//! (`Mercury::donate_idle`): while the node is native, worker idle time
//! revalidates written frames so the attaches in the switching
//! scenarios pay only for what the gaps didn't reach
//! (`scrub_revalidated` counts them).
//!
//! Determinism: the serving rows, and then the fleet row, run **twice
//! in-process** and every request record, switch counter and fleet fact
//! must be bit-identical before anything is archived; a divergence
//! names the scenario and the first record that differs.
//! Switch-during-load scenarios run on
//! uniprocessor nodes only: SMP rendezvous spin cycles depend on host
//! thread timing, so multi-CPU beds are measured steady-state (their
//! one setup switch lands before the traffic-start base the records are
//! relative to).
//!
//! Every run writes `serving_results.json` (per-row tail stats, switch
//! counts and cycles charged during the traffic window, and the
//! [`INFLATION`] ratios; gated by `tools/benchgate.py --serving`) and
//! `fleet_results.json` (fleet tails, the migration downtime
//! distribution, evacuation makespans, wave spans, weakest-link
//! hypervisor version; gated by `tools/benchgate.py --fleet`, zero lost
//! requests hard).  Pass 1 of the serving rows is wall-clock timed;
//! outside `--quick`, and only when every gate passed, its
//! simulated-Mcycles-per-host-second lands in
//! `sim_speed.json["serving"]` for `tools/benchgate.py --sim-speed`.
//! `--quick` / `--campaign` are the only sizing choice (EXPERIMENTS.md
//! "Campaign scale").
//!
//! Exits non-zero if the two passes diverged, any row lost a request,
//! or a row did not show the [`Shape`] its table entry expects.

use faultgen::{FaultSpec, FaultTarget};
use mercury::{SwitchCounts, SwitchOutcome};
use mercury_cluster::{
    Cluster, HealthStatus, Node, NodeConfig, SensorReading, Watchdog, WatchdogPolicy,
};
use mercury_servo::{
    generate, tail_stats, Arrival, FleetServer, LoadConfig, NodeServer, RequestRecord,
    ServerConfig, TailStats,
};
use mercury_suite::campaign::{
    first_difference, flip_plan, plant_and_sweep, two_pass, Cli, Gates, Size,
};
use mercury_suite::{json_block, json_list, json_object, json_str, SimSpeed};
use mercury_workloads::configs::switch_with_peers;
use mercury_workloads::mix::CostMix;
use simx86::costs::cycles_to_us;
use std::process::ExitCode;
use std::sync::Arc;

/// Toggle the VMM — or, in the live-update row, roll it forward: one
/// cadence, so the two tails are directly comparable — every this many
/// cycles of stream time (1 ms: long enough to amortize, short enough
/// that a 4 000-request run sees tens of switches).
const SWITCH_PERIOD: u64 = 3_000_000;

/// Inject one fault every this many cycles in the fault scenario.
const FAULT_PERIOD: u64 = 1_500_000;

/// Detach (end the watchdog's holding window) every this many cycles.
const WINDOW_PERIOD: u64 = 6_000_000;

/// Hold a rack in maintenance this long (cycles) during the fleet wave.
const MAINT_CYCLES: u64 = 200_000;

/// The request-count column a row is sized by.
#[derive(Clone, Copy)]
enum Column {
    Steady,
    Switching,
    Cluster,
    Fault,
    Fleet,
}

/// Run sizing.
struct Sizing {
    /// Requests per row, indexed by [`Column`].
    requests: [u32; 5],
    /// Rows on more CPUs than this are left out.
    max_cpus: usize,
    fleet_nodes: usize,
    rack_size: usize,
}

const FULL: Sizing = Sizing {
    requests: [4_000, 4_000, 3_000, 2_500, 20_000],
    max_cpus: 4,
    fleet_nodes: 100,
    rack_size: 10,
};

/// CI smoke: same scenario shapes, a few times cheaper.
const QUICK: Sizing = Sizing {
    requests: [800, 800, 600, 500, 3_000],
    max_cpus: 2,
    fleet_nodes: 24,
    rack_size: 6,
};

/// Nightly campaign: ~100x the full sizing (fleet: 10x).  Same
/// scenario shapes and CPU ladder, so the tails are directly comparable
/// to the full run (EXPERIMENTS.md "Campaign scale").
const CAMPAIGN: Sizing = Sizing {
    requests: [400_000, 400_000, 300_000, 250_000, 200_000],
    ..FULL
};

/// What the fleet row reports beyond its records.
#[derive(Debug, Clone, PartialEq)]
struct FleetFacts {
    nodes: usize,
    offered: u64,
    downtimes: Vec<u64>,
    evac_makespans: Vec<u64>,
    wave_spans: Vec<u64>,
    /// Reason strings from the two triggered degradations, in order.
    degrade_reasons: Vec<String>,
    /// Every node serving at home, undegraded, at the end?
    healed: bool,
    /// The fleet's weakest-link hypervisor version at the end.
    hv_version_min: u32,
}

/// Everything one row produced: what two same-seed passes must agree
/// on, record for record ([`first_divergence`]).
struct Ran {
    records: Vec<RequestRecord>,
    /// What the row's engines did during its traffic window.
    switches: SwitchCounts,
    faults_recovered: u64,
    fleet: Option<FleetFacts>,
}

/// One row of the table.
struct Scenario {
    name: &'static str,
    /// Archived label only; behaviour comes from `shape`.
    mode: &'static str,
    cpus: usize,
    /// Nodes behind the balancer (the fleet row is sized by
    /// [`Sizing::fleet_nodes`] instead).
    nodes: usize,
    mix: &'static str,
    column: Column,
    run: fn(&Scenario, u64, &Sizing) -> Ran,
    /// The switch shape the row must show during its traffic window.
    shape: Shape,
}

impl Scenario {
    fn requests(&self, sizing: &Sizing) -> u32 {
        sizing.requests[self.column as usize]
    }
}

#[rustfmt::skip]
static SCENARIOS: [Scenario; 12] = [
    Scenario { name: "steady-native-1cpu",  mode: "native",  cpus: 1, nodes: 1, mix: "oltp", column: Column::Steady, run: run_node, shape: Shape::Steady },
    Scenario { name: "steady-native-2cpu",  mode: "native",  cpus: 2, nodes: 1, mix: "oltp", column: Column::Steady, run: run_node, shape: Shape::Steady },
    Scenario { name: "steady-native-4cpu",  mode: "native",  cpus: 4, nodes: 1, mix: "oltp", column: Column::Steady, run: run_node, shape: Shape::Steady },
    Scenario { name: "steady-virtual-1cpu", mode: "virtual", cpus: 1, nodes: 1, mix: "oltp", column: Column::Steady, run: run_node, shape: Shape::SteadyVirtual },
    Scenario { name: "steady-virtual-2cpu", mode: "virtual", cpus: 2, nodes: 1, mix: "oltp", column: Column::Steady, run: run_node, shape: Shape::SteadyVirtual },
    Scenario { name: "steady-virtual-4cpu", mode: "virtual", cpus: 4, nodes: 1, mix: "oltp", column: Column::Steady, run: run_node, shape: Shape::SteadyVirtual },
    Scenario { name: "switch-under-load-1cpu", mode: "switching", cpus: 1, nodes: 1, mix: "oltp", column: Column::Switching, run: run_node, shape: Shape::Switching },
    Scenario { name: "update-under-load-1cpu", mode: "updating",  cpus: 1, nodes: 1, mix: "oltp", column: Column::Switching, run: run_node, shape: Shape::Updating },
    Scenario { name: "cluster-steady-2node", mode: "native",    cpus: 1, nodes: 2, mix: "web", column: Column::Cluster, run: run_cluster, shape: Shape::Steady },
    Scenario { name: "cluster-switch-2node", mode: "switching", cpus: 1, nodes: 2, mix: "web", column: Column::Cluster, run: run_cluster, shape: Shape::Switching },
    Scenario { name: "fault-campaign-under-load-1cpu", mode: "reactive", cpus: 1, nodes: 1, mix: "oltp", column: Column::Fault, run: run_fault_under_load, shape: Shape::Reactive },
    Scenario { name: "fleet", mode: "fleet", cpus: 1, nodes: 0, mix: "web", column: Column::Fleet, run: run_fleet, shape: Shape::Fleet },
];

/// The headline ratios of `serving_results.json`, in archive order:
/// `(key, scenario, percentile)` is that scenario's percentile over the
/// same percentile of [`ANCHOR`].
#[rustfmt::skip]
const INFLATION: [(&str, &str, Percentile); 7] = [
    ("steady_virtual_p99",     "steady-virtual-1cpu",            P99),
    ("switch_under_load_p99",  "switch-under-load-1cpu",         P99),
    ("switch_under_load_p999", "switch-under-load-1cpu",         P999),
    ("fault_campaign_p99",     "fault-campaign-under-load-1cpu", P99),
    ("fault_campaign_p999",    "fault-campaign-under-load-1cpu", P999),
    ("update_under_load_p99",  "update-under-load-1cpu",         P99),
    ("update_under_load_p999", "update-under-load-1cpu",         P999),
];
type Percentile = fn(&TailStats) -> u64;
const P99: Percentile = |t| t.p99_cycles;
const P999: Percentile = |t| t.p999_cycles;

/// The scenario every inflation ratio is taken against.
const ANCHOR: &str = "steady-native-1cpu";

fn node_config(cpus: usize) -> NodeConfig {
    NodeConfig {
        num_cpus: cpus,
        ..NodeConfig::default()
    }
}

fn oltp_traffic(seed: u64, workers: usize, requests: u32) -> Vec<Arrival> {
    generate(&LoadConfig {
        seed,
        // Fixed per-worker offered rate: ~0.1 ms between arrivals per
        // CPU, well under saturation but busy enough to queue.
        mean_gap_cycles: 300_000 / workers as u64,
        requests,
        mix: CostMix::oltp(),
    })
}

/// A single-node row's result: the server's records plus what the node
/// did since `base`.
fn single_node(server: &NodeServer, base: SwitchCounts, faults_recovered: u64) -> Ran {
    Ran {
        records: server.records().to_vec(),
        switches: server.node().mercury().stats.snapshot() - base,
        faults_recovered,
        fleet: None,
    }
}

/// The run-hook body a row's shape calls for, acting on `node` every
/// [`SWITCH_PERIOD`] of stream offset: toggle attach/detach, roll the
/// hypervisor forward one version, or nothing.
fn cadence(shape: Shape, node: &Arc<Node>) -> impl FnMut(u64) {
    let node = Arc::clone(node);
    let mercury = node.mercury();
    let (mut next, mut to_virtual) = (SWITCH_PERIOD, true);
    move |off| {
        while off >= next {
            let cpu = node.machine.boot_cpu();
            let out = match shape {
                Shape::Switching if to_virtual => mercury.switch_to_virtual(cpu),
                Shape::Switching => mercury.switch_to_native(cpu),
                Shape::Updating => {
                    let v = mercury.hv_version() + 1;
                    let succ = xenon::Hypervisor::warm_up_versioned(&node.machine, v);
                    mercury.stage_update(succ).expect("stage update under load");
                    mercury.live_update(cpu)
                }
                _ => return,
            };
            assert!(
                matches!(out, Ok(SwitchOutcome::Completed { .. })),
                "a UP transition under load must complete: {out:?}"
            );
            to_virtual = !to_virtual;
            next += SWITCH_PERIOD;
        }
    }
}

/// One node under open-loop oltp traffic: steady native or virtual, or
/// — uniprocessor only — switching or live-updating on the cadence, the
/// kernel in the latter case never leaving virtual mode (DESIGN.md
/// §16), so the whole update lands as queueing, never as downtime.
/// The row's [`Shape`] decides all of it.
fn run_node(row: &Scenario, seed: u64, sizing: &Sizing) -> Ran {
    let node = Node::launch("bench", &node_config(row.cpus));
    if matches!(row.shape, Shape::SteadyVirtual | Shape::Updating) {
        // The one setup switch; on SMP beds the rendezvous spin cycles
        // are host-timing dependent, which is why it happens *before*
        // the traffic-start base that records are measured against.
        switch_with_peers(&node.machine, &node.mercury(), true);
    }
    let mut server = NodeServer::new(
        &node,
        0,
        ServerConfig {
            workers: row.cpus,
            ..ServerConfig::default()
        },
    );
    let traffic = oltp_traffic(seed, row.cpus, row.requests(sizing));
    let base = node.mercury().stats.snapshot();
    let mut hook = cadence(row.shape, &node);
    server.run(&traffic, |_, off| hook(off));
    single_node(&server, base, 0)
}

/// The fleet-shaped rows' server config: the NICs carry the inter-node
/// links, so no per-node echo host.
fn wired_config() -> ServerConfig {
    ServerConfig {
        attach_echo_host: false,
        ..ServerConfig::default()
    }
}

fn web_traffic(seed: u64, nodes: usize, gap: u64, requests: u32) -> Vec<Arrival> {
    generate(&LoadConfig {
        seed,
        mean_gap_cycles: gap / nodes as u64,
        requests,
        mix: CostMix::web(),
    })
}

/// Uniprocessor nodes behind the least-loaded balancer; in the
/// switching variant node 0 toggles on cadence and the balancer routes
/// around its stall.
fn run_cluster(row: &Scenario, seed: u64, sizing: &Sizing) -> Ran {
    let cluster = Cluster::launch(row.nodes, &NodeConfig::default());
    let mut lb = FleetServer::new(&cluster, row.nodes, wired_config());
    let traffic = web_traffic(seed, row.nodes, 200_000, row.requests(sizing));
    let counts = || cluster.nodes.iter().map(|n| n.mercury().stats.snapshot());
    let bases: Vec<SwitchCounts> = counts().collect();
    let mut hook = cadence(row.shape, cluster.node(0));
    lb.run(&traffic, |_, off| hook(off));
    let switches = counts()
        .zip(bases)
        .fold(SwitchCounts::default(), |sum, (now, base)| {
            sum + (now - base)
        });
    Ran {
        records: lb.finish(),
        switches,
        faults_recovered: 0,
        fleet: None,
    }
}

/// Seeded memory bit-flips injected beneath live traffic on a
/// uniprocessor node: sweep reads detect them between requests, the
/// watchdog answers with reactive attach, and `end_window` detaches on
/// cadence — all of it charged to the serving CPU's clock.
fn run_fault_under_load(row: &Scenario, seed: u64, sizing: &Sizing) -> Ran {
    let node = Node::launch("bench", &node_config(1));
    let mut server = NodeServer::new(&node, 0, ServerConfig::default());
    let traffic = oltp_traffic(seed.wrapping_add(1), 1, row.requests(sizing));
    let base = node.mercury().stats.snapshot();

    faultgen::reset();
    let mut rng = faultgen::rng::SplitMix64::new(seed ^ 0xfa01);
    let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());
    // Pre-plan the flips so both passes draw the identical fault
    // sequence.
    let span = traffic.last().map(|a| a.offset).unwrap_or(0);
    let plan = flip_plan(&mut rng, 9_000, span / FAULT_PERIOD);

    let mut next_fault = FAULT_PERIOD;
    let mut next_window = WINDOW_PERIOD;
    let mut planned = plan.iter();
    server.run(&traffic, |srv, off| {
        while off >= next_fault {
            let Some(&spec) = planned.next() else { break };
            plant_and_sweep(&srv.node().machine, &mut dog, spec);
            next_fault += FAULT_PERIOD;
        }
        while off >= next_window {
            // End the holding window: reactive attach pays its detach.
            dog.end_window(srv.node().machine.boot_cpu());
            next_window += WINDOW_PERIOD;
        }
    });
    dog.end_window(node.machine.boot_cpu());
    faultgen::reset();

    let recovered = dog.reports().iter().filter(|r| r.recovered).count() as u64;
    assert_eq!(
        recovered,
        dog.reports().len() as u64,
        "every injected fault must be recovered"
    );
    single_node(&server, base, recovered)
}

/// What the fleet timeline fires.
#[derive(Clone, Copy)]
enum FleetEvent {
    /// Three planted bit-flips on the fault node, each tripped by a
    /// sweep read and recovered through the watchdog's reactive attach:
    /// the storm threshold, so the watchdog degrades the node and the
    /// fleet drains it.
    EccStorm,
    /// A temperature trend past the warning line: the health monitor
    /// predicts failure (§6.5) and the fleet evacuates ahead of it.
    HealthDrain,
    /// Both victims migrate back home.
    Rehome,
    /// One step of the rolling maintenance wave.
    MaintainRack(usize),
    /// Every rack rolls its hypervisors v1→v2 in place (DESIGN.md §16):
    /// no guest is drained and the nodes keep serving.
    UpdateWave,
}

/// The fleet row: traffic over N nodes with a watchdog-degraded
/// evacuation, a health-predicted evacuation, both re-homings, the
/// rolling rack wave and the live-update wave — all at deterministic
/// stream offsets.
fn run_fleet(row: &Scenario, seed: u64, sizing: &Sizing) -> Ran {
    let nodes = sizing.fleet_nodes;
    // Small nodes, so a hundred stay within a CI runner's memory.
    let cluster = Cluster::launch(nodes, &NodeConfig::small());
    let mut fs = FleetServer::new(&cluster, sizing.rack_size, wired_config());
    let racks = fs.racks();
    let traffic = web_traffic(seed, nodes, 400_000, row.requests(sizing));
    let span = traffic.last().map(|a| a.offset).unwrap_or(0);

    // The two degradation victims: one by fault storm, one by health
    // prediction.  Distinct nodes, both clear of index 0 so the
    // least-loaded tiebreak still has its favorite.
    let fault_node = 2usize;
    let health_node = nodes / 2 + 1;
    assert_ne!(fault_node, health_node);
    let mut dog = Watchdog::new(
        cluster.node(fault_node).mercury(),
        WatchdogPolicy::default(),
    );

    // (stream fraction, event): the wave spreads its racks over 55–90 %.
    let at = |percent: u64| span * percent / 100;
    let wave_step = at(35) / racks as u64;
    let mut timeline = vec![
        (at(15), FleetEvent::EccStorm),
        (at(25), FleetEvent::HealthDrain),
        (at(45), FleetEvent::Rehome),
    ];
    timeline
        .extend((0..racks).map(|r| (at(55) + r as u64 * wave_step, FleetEvent::MaintainRack(r))));
    timeline.push((at(95), FleetEvent::UpdateWave));

    faultgen::reset();
    let mut degrade_reasons = Vec::new();
    let mut due = timeline.iter().peekable();
    fs.run(&traffic, |fs, off| {
        // At most one event per arrival, in timeline order.
        let Some(&(_, event)) = due.next_if(|&&(at, _)| off >= at) else {
            return;
        };
        match event {
            FleetEvent::EccStorm => {
                for k in 0..3u64 {
                    let spec = FaultSpec {
                        id: 7_000 + k,
                        due_cycle: 0,
                        target: FaultTarget::MemWord {
                            frame: 3_000 + k as u32,
                            word: 17,
                            bit: k as u8,
                        },
                    };
                    plant_and_sweep(&fs.nodes()[fault_node].machine, &mut dog, spec);
                }
                assert_eq!(dog.reports().len(), 3, "storm must be detected");
                assert!(dog.reports().iter().all(|r| r.recovered));
                dog.mark_degraded("ECC scrub storm: 3 corrected flips in one window");
                let reason = dog.degraded_reason().expect("just marked");
                fs.degrade(fault_node, reason);
                degrade_reasons.push(reason.to_string());
                let target = fs
                    .drain_node(fault_node, off, None)
                    .expect("fault-node evacuation");
                assert!(target.is_some(), "healthy peers must absorb the drain");
            }
            FleetEvent::HealthDrain => {
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
                fs.degrade(health_node, &reason);
                degrade_reasons.push(reason);
                let target = fs
                    .drain_node(health_node, off, None)
                    .expect("health-node evacuation");
                assert!(target.is_some());
            }
            FleetEvent::Rehome => {
                fs.rehome_node(fault_node, off).expect("fault-node rehome");
                fs.rehome_node(health_node, off)
                    .expect("health-node rehome");
            }
            FleetEvent::MaintainRack(rack) => {
                fs.maintain_rack(rack, off, MAINT_CYCLES)
                    .expect("rack maintenance");
            }
            FleetEvent::UpdateWave => {
                let updated = fs.patch_tuesday_live_update(2);
                assert_eq!(updated, nodes, "every node must roll to v2");
            }
        }
    });
    faultgen::reset();
    assert!(
        due.next().is_none(),
        "every fleet event must fire within the stream"
    );

    let faults_recovered = dog.reports().len() as u64;
    Ran {
        records: fs.finish(),
        switches: SwitchCounts::default(),
        faults_recovered,
        fleet: Some(FleetFacts {
            nodes,
            offered: fs.offered(),
            downtimes: fs.downtimes().to_vec(),
            evac_makespans: fs.evac_makespans().to_vec(),
            wave_spans: fs.wave_spans().to_vec(),
            degrade_reasons,
            healed: fs.healed(),
            hv_version_min: fs.min_hv_version(),
        }),
    }
}

// --- expected switch shapes -------------------------------------------

/// The switch shape a row must show during its traffic window.
#[derive(Clone, Copy)]
enum Shape {
    /// No attach, no detach.
    Steady,
    /// The same, after one setup attach ahead of the traffic window.
    SteadyVirtual,
    /// Attaches and detaches, with cycles charged.
    Switching,
    /// Faults recovered behind a reactive attach.
    Reactive,
    /// Live-updates only: the kernel never leaves virtual mode.
    Updating,
    /// The fleet timeline ran to the end: everything evacuated once and
    /// re-homed, nothing lost, healed, converged on hv v2.
    Fleet,
}

/// What is wrong with `r` for a row of this shape (empty = nothing).
fn wrong_shape(shape: Shape, r: &Ran) -> Vec<String> {
    let s = r.switches;
    let switched = s.attaches != 0 || s.detaches != 0;
    let mut wrong = Vec::new();
    let mut expect = |ok: bool, msg: &str| {
        if !ok {
            wrong.push(msg.to_string());
        }
    };
    match shape {
        Shape::Steady | Shape::SteadyVirtual => expect(!switched, "switched during traffic"),
        Shape::Switching => {
            expect(s.attaches != 0 && s.detaches != 0, "never switched");
            expect(s.attach_cycles != 0, "no attach cycles charged");
        }
        Shape::Reactive => {
            expect(r.faults_recovered != 0, "no fault recovered");
            expect(s.attaches != 0, "never attached");
        }
        Shape::Updating => {
            expect(s.live_updates != 0 && s.update_cycles != 0, "never updated");
            expect(!switched, "left virtual mode");
        }
        Shape::Fleet => {
            let f = r.fleet.as_ref().expect("the fleet row reports fleet facts");
            let (evacs, moves) = (f.evac_makespans.len(), f.downtimes.len());
            expect(f.offered == r.records.len() as u64, "requests lost");
            let all = 2 + f.nodes;
            expect(evacs == all, &format!("{evacs} evacuations, not {all}"));
            expect(moves == 2 * evacs, "an evacuation never re-homed");
            expect(!f.downtimes.contains(&0), "a zero-downtime migration");
            let held = f.wave_spans.iter().all(|&s| s >= MAINT_CYCLES);
            expect(held, "a wave span under its maintenance window");
            expect(f.degrade_reasons.len() == 2, "a degradation gave no reason");
            expect(f.healed, "did not heal: some node not serving at home");
            expect(f.hv_version_min == 2, "live-update wave did not converge");
        }
    }
    wrong
}

// --- archives -----------------------------------------------------------

/// The tail statistics both archives carry, as JSON fields.
fn tail_fields(t: &TailStats) -> Vec<(&'static str, String)> {
    let us = |cycles: f64| format!("{:.3}", cycles / simx86::costs::CYCLES_PER_US as f64);
    vec![
        ("offered", t.offered.to_string()),
        ("completed", t.completed.to_string()),
        ("shed", t.shed.to_string()),
        ("p50_cycles", t.p50_cycles.to_string()),
        ("p99_cycles", t.p99_cycles.to_string()),
        ("p999_cycles", t.p999_cycles.to_string()),
        ("max_cycles", t.max_cycles.to_string()),
        ("p50_us", us(t.p50_cycles as f64)),
        ("p99_us", us(t.p99_cycles as f64)),
        ("p999_us", us(t.p999_cycles as f64)),
        ("mean_us", us(t.mean_cycles)),
        ("mean_queue_us", us(t.mean_queue_cycles)),
    ]
}

/// One `scenarios` entry of `serving_results.json`.
fn json_scenario(s: &Scenario, r: &Ran, t: &TailStats) -> String {
    let sw = r.switches;
    let mut fields = vec![
        ("name", json_str(s.name)),
        ("mode", json_str(s.mode)),
        ("cpus", s.cpus.to_string()),
        ("nodes", s.nodes.to_string()),
        ("mix", json_str(s.mix)),
    ];
    fields.extend(tail_fields(t));
    let counters = [
        ("attaches", sw.attaches),
        ("detaches", sw.detaches),
        ("attach_cycles", sw.attach_cycles),
        ("detach_cycles", sw.detach_cycles),
        ("live_updates", sw.live_updates),
        ("update_cycles", sw.update_cycles),
        ("scrub_revalidated", sw.idle_revalidated),
        ("faults_recovered", r.faults_recovered),
    ];
    fields.extend(counters.map(|(k, v)| (k, v.to_string())));
    json_object(fields)
}

/// `{"min": …, "p50": …, "max": …}` of a cycle-count sample, in cycles
/// and in µs.
fn dist(xs: &[u64]) -> (String, String) {
    let mut v = xs.to_vec();
    v.sort_unstable();
    let picks = [
        ("min", 0),
        ("p50", v.len() / 2),
        ("max", v.len().saturating_sub(1)),
    ]
    .map(|(k, i)| (k, v.get(i).copied().unwrap_or(0)));
    (
        json_object(picks.map(|(k, c)| (k, c.to_string()))),
        json_object(picks.map(|(k, c)| (k, format!("{:.3}", cycles_to_us(c))))),
    )
}

/// Print the fleet row's summary and render `fleet_results.json`.
fn fleet_json(cli: Cli, sizing: &Sizing, determinism: &str, r: &Ran, t: &TailStats) -> String {
    let f = r.fleet.as_ref().expect("the fleet row reports fleet facts");
    let lost = f.offered - r.records.len() as u64;
    let (downtime_cycles, downtime_us) = dist(&f.downtimes);
    let (evac_makespan_cycles, _) = dist(&f.evac_makespans);
    println!(
        "\nfleet: {} nodes | lost {lost} | p50/p99/p999 {:.1}/{:.1}/{:.1} µs | {} migrations | hv ≥ v{}",
        f.nodes,
        cycles_to_us(t.p50_cycles),
        cycles_to_us(t.p99_cycles),
        cycles_to_us(t.p999_cycles),
        f.downtimes.len(),
        f.hv_version_min,
    );
    let list = |xs: Vec<String>| format!("[{}]", xs.join(", "));
    let mut fields = vec![
        ("seed", cli.seed.to_string()),
        ("mode", json_str(cli.size.label())),
        ("determinism", json_str(determinism)),
        ("nodes", f.nodes.to_string()),
        ("rack_size", sizing.rack_size.to_string()),
        ("hv_version_min", f.hv_version_min.to_string()),
        ("lost", lost.to_string()),
    ];
    fields.extend(tail_fields(t));
    fields.extend([
        ("evacuations", f.evac_makespans.len().to_string()),
        ("migrations", f.downtimes.len().to_string()),
        ("downtime_cycles", downtime_cycles),
        ("downtime_us", downtime_us),
        ("evac_makespan_cycles", evac_makespan_cycles),
        (
            "wave_spans_cycles",
            list(f.wave_spans.iter().map(|s| s.to_string()).collect()),
        ),
        (
            "degrade_reasons",
            list(f.degrade_reasons.iter().map(|r| json_str(r)).collect()),
        ),
    ]);
    json_block(0, fields) + "\n"
}

/// What a pass produced, in table order.
type Table = Vec<(&'static Scenario, Ran)>;

/// One pass over the serving rows of the table, or over its fleet row:
/// a pure function of `(seed, sizing)`.  The two are passed apart
/// because `sim_speed.json` times the serving rows alone — the fleet's
/// node boots would swamp them.
fn run_table(seed: u64, sizing: &Sizing, fleet: bool) -> Table {
    SCENARIOS
        .iter()
        .filter(|s| s.cpus <= sizing.max_cpus && matches!(s.shape, Shape::Fleet) == fleet)
        .map(|s| (s, (s.run)(s, seed, sizing)))
        .collect()
}

/// The first row in which two passes over the same rows differ.
fn first_divergence(a: &Table, b: &Table) -> Option<String> {
    a.iter().zip(b).find_map(|((s, x), (_, y))| {
        let of = |what: &str| format!("{} {what}", s.name);
        let (fx, fy) = ([x.faults_recovered], [y.faults_recovered]);
        first_difference(&of("records"), &x.records, &y.records)
            .or_else(|| first_difference(&of("switches"), &[x.switches], &[y.switches]))
            .or_else(|| first_difference(&of("faults_recovered"), &fx, &fy))
            .or_else(|| first_difference(&of("facts"), x.fleet.as_slice(), y.fleet.as_slice()))
    })
}

/// A pass's rows with their tail statistics.
fn with_tails(table: &Table) -> Vec<(&'static Scenario, &Ran, TailStats)> {
    let tails = table.iter().map(|(s, r)| (*s, r, tail_stats(&r.records)));
    tails.collect()
}

fn main() -> ExitCode {
    let cli = Cli::from_env(env!("CARGO_BIN_NAME"), 11);
    let Cli { seed, size } = cli;
    let sizing = match size {
        Size::Quick => &QUICK,
        Size::Full => &FULL,
        Size::Campaign => &CAMPAIGN,
    };
    let quick = size == Size::Quick;

    eprintln!(
        "serving_tail: seed {seed} ({}), two same-seed passes, fleet of {} in racks of {}",
        size.label(),
        sizing.fleet_nodes,
        sizing.rack_size
    );
    let pass = |fleet| two_pass(|| run_table(seed, sizing, fleet), first_divergence);
    let (serving, fleet) = (pass(false), pass(true));
    let (tails, fleet_rows) = (with_tails(&serving.first), with_tails(&fleet.first));

    // -- report ----------------------------------------------------------
    println!("Serving tail latency (seed {seed})");
    println!("| scenario | cpus×nodes | offered | shed | p50 µs | p99 µs | p999 µs | switches | switch µs |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|");
    for (s, r, t) in &tails {
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
            r.switches.attaches + r.switches.detaches,
            cycles_to_us(r.switches.attach_cycles + r.switches.detach_cycles),
        );
    }

    // Headline inflation ratios against the steady-native UP anchor.
    let stats = |name: &str| -> &TailStats {
        let found = tails.iter().find(|(s, _, _)| s.name == name);
        &found.unwrap_or_else(|| panic!("missing scenario {name}")).2
    };
    println!("\nvs {ANCHOR}:");
    let ratios = INFLATION.map(|(key, scenario, percentile)| {
        let ratio = percentile(stats(scenario)) as f64 / percentile(stats(ANCHOR)).max(1) as f64;
        println!("  {key} {ratio:.2}x");
        (key, format!("{ratio:.4}"))
    });

    // -- archives --------------------------------------------------------
    let scenarios = tails.iter().map(|(s, r, t)| json_scenario(s, r, t));
    let archive = [
        ("seed", seed.to_string()),
        ("quick", quick.to_string()),
        ("determinism", json_str(serving.determinism())),
        ("inflation_vs_steady_native_1cpu", json_block(2, ratios)),
        ("scenarios", json_list(2, scenarios)),
    ];
    std::fs::write("serving_results.json", json_block(0, archive) + "\n")
        .expect("write serving_results.json");
    eprintln!("wrote serving_results.json");
    for (_, r, t) in &fleet_rows {
        let json = fleet_json(cli, sizing, fleet.determinism(), r, t);
        std::fs::write("fleet_results.json", json).expect("write fleet_results.json");
        eprintln!("wrote fleet_results.json");
    }

    // -- gates -----------------------------------------------------------
    let mut gates = Gates::default();
    gates.determinism(&serving);
    gates.determinism(&fleet);
    for (s, r, t) in tails.iter().chain(&fleet_rows) {
        let mut wrong = wrong_shape(s.shape, r);
        if t.offered != t.completed + t.shed {
            wrong.push(format!("offered {} != completed+shed", t.offered));
        }
        if t.completed == 0 {
            wrong.push("no request completed".to_string());
        }
        for w in wrong {
            gates.fail(format!("{}: {w}", s.name));
        }
    }

    // Simulated throughput: stream time covered per scenario is the
    // last record's finish offset — a deterministic, archived quantity
    // (machine clocks would fold in host-timing-dependent SMP
    // rendezvous spin).  Quick runs are too short to be meaningful.
    let speed = (!quick).then(|| {
        let last_finish = |r: &Ran| r.records.iter().map(|r| r.finish).max().unwrap_or(0);
        let sim_cycles: u64 = tails.iter().map(|(_, r, _)| last_finish(r)).sum();
        let speed = SimSpeed {
            sim_mcycles: sim_cycles as f64 / 1e6,
            host_seconds: serving.host_seconds,
        };
        ("serving", speed)
    });
    gates.finish(speed)
}
