//! Watchdog-under-load regression tests (DESIGN.md §13.4).
//!
//! The serving layer and the health watchdog share one CPU: the
//! watchdog's detect → attach → recover → detach cycle runs in the
//! scheduler's dispatch hook, charged to the same simulated clock the
//! requests run on.  These tests pin the contract of that interleaving:
//!
//! * no admitted request is ever dropped — the watchdog's switches show
//!   up as queueing delay, never as loss;
//! * a single run-to-completion worker never reorders requests, switch
//!   or no switch;
//! * the sticky-degradation path (peer CPU never reaches the
//!   rendezvous, attach abandoned) still answers both the faults and
//!   the traffic.
//!
//! The watchdog needs live fault hooks, so this test needs the
//! umbrella `faults` feature (`required-features` in the root
//! `Cargo.toml`), as the campaign binaries do.

use faultgen::rng::SplitMix64;
use mercury_cluster::{Node, NodeConfig, Watchdog, WatchdogPolicy};
use mercury_servo::{generate, LoadConfig, NodeServer, Outcome, ServerConfig};
use mercury_suite::campaign::{flip_plan, plant_and_sweep};
use mercury_workloads::mix::CostMix;

fn traffic(seed: u64, requests: u32) -> Vec<mercury_servo::Arrival> {
    generate(&LoadConfig {
        seed,
        mean_gap_cycles: 250_000,
        requests,
        mix: CostMix::oltp(),
    })
}

/// Requests keep flowing while the watchdog detects faults, attaches
/// the VMM, recovers, and detaches at window end: nothing dropped,
/// nothing reordered, every fault answered.
#[test]
fn watchdog_cycle_under_live_traffic_drops_nothing() {
    let node = Node::launch("wd", &NodeConfig::default());
    let mut server = NodeServer::new(
        &node,
        0,
        ServerConfig {
            // Deep queue: this test is about loss/order, not shedding.
            queue_capacity: 4_096,
            ..ServerConfig::default()
        },
    );
    let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());

    faultgen::reset();
    let stream = traffic(101, 400);
    let mut flips = flip_plan(&mut SplitMix64::new(909), 7_000, 6).into_iter();
    // Fault every 60 arrivals; end the holding window (detach) every
    // 120, so the run exercises attach *and* detach mid-traffic.
    server.run(&stream, |srv, _off| {
        let n = srv.records().len();
        if n > 0 && n % 60 == 0 {
            if let Some(spec) = flips.next() {
                plant_and_sweep(&srv.node().machine, &mut dog, spec);
            }
        }
        if n > 0 && n % 120 == 0 {
            let cpu = srv.node().machine.boot_cpu();
            dog.end_window(cpu);
        }
    });
    {
        let cpu = node.machine.boot_cpu();
        dog.end_window(cpu);
    }
    faultgen::reset();

    // Every offered request completed — the switches cost time, not
    // requests.
    assert_eq!(server.records().len(), 400);
    assert!(server
        .records()
        .iter()
        .all(|r| r.outcome == Outcome::Completed));

    // Run-to-completion on one worker: completion order == arrival
    // order, switches notwithstanding.
    let ids: Vec<u64> = server.records().iter().map(|r| r.id).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted, "watchdog activity must not reorder requests");

    // The watchdog actually cycled: detected faults, recovered all of
    // them, attached reactively and detached at window end.
    let reports = dog.reports();
    assert_eq!(reports.len(), 6, "all six injected faults detected");
    assert!(reports.iter().all(|r| r.recovered));
    let switches = node.mercury().stats.snapshot();
    assert!(switches.attaches >= 1, "reactive attach happened");
    assert!(switches.detaches >= 1, "window-end detach happened");
    assert_eq!(switches.rendezvous_failures, 0);
}

/// The documented degradation path under live traffic: a 2-CPU node
/// whose peer never reaches a rendezvous service point.  The reactive
/// attach times out once (~5 s wall clock, by design), the watchdog
/// goes sticky-degraded, and both the traffic and the faults are still
/// answered natively.
#[test]
fn sticky_degradation_still_answers_traffic() {
    let node = Node::launch(
        "wd-smp",
        &NodeConfig {
            num_cpus: 2,
            ..NodeConfig::default()
        },
    );
    // One worker on CPU 0; CPU 1 exists but nobody services it, so any
    // rendezvous must time out.
    let mut server = NodeServer::new(
        &node,
        0,
        ServerConfig {
            queue_capacity: 4_096,
            ..ServerConfig::default()
        },
    );
    let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());

    faultgen::reset();
    let stream = traffic(202, 120);
    let mut flips = flip_plan(&mut SplitMix64::new(808), 7_000, 3).into_iter();
    let mut warned = false;
    server.run(&stream, |srv, _off| {
        let n = srv.records().len();
        // Every 30 completions (the hook runs before dispatches, so the
        // final completion count is never observed — keep all three
        // injection points strictly inside the run).
        if n > 0 && n % 30 == 0 {
            if let Some(spec) = flips.next() {
                if !warned {
                    eprintln!("expecting one ~5 s rendezvous timeout (degradation path) …");
                    warned = true;
                }
                plant_and_sweep(&srv.node().machine, &mut dog, spec);
            }
        }
    });
    {
        let cpu = node.machine.boot_cpu();
        dog.end_window(cpu);
    }
    faultgen::reset();

    assert!(dog.degraded(), "peer never rendezvoused: must go sticky");
    // Degraded, not dead: every request and every fault still answered.
    assert_eq!(server.records().len(), 120);
    assert!(server
        .records()
        .iter()
        .all(|r| r.outcome == Outcome::Completed));
    let reports = dog.reports();
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().all(|r| r.recovered));
    let switches = node.mercury().stats.snapshot();
    assert!(
        switches.rendezvous_failures >= 1,
        "the degradation was caused by a rendezvous timeout"
    );
    assert_eq!(switches.attaches, 0, "attach never completed");
}
