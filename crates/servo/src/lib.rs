//! # mercury-servo — a deterministic request-serving layer on the
//! simulated cycle clock
//!
//! The paper's headline claim — attaching and detaching the VMM is
//! invisible to running applications (§5, ~0.2 ms per switch) — has so
//! far only been measured as raw switch cycles.  A production operator
//! would measure it differently: *what happens to request tail latency
//! while the machine self-virtualizes under load?*  This crate provides
//! the serving machinery to ask exactly that question (DESIGN.md §13):
//!
//! * [`loadgen`] — an **open-loop load generator**: a seeded SplitMix64
//!   arrival process with exponential inter-arrival gaps and request
//!   shapes drawn from the weighted cost mixes in
//!   [`mercury_workloads::mix`].  Open-loop means arrivals do not slow
//!   down when the server stalls — a switch pause turns directly into
//!   queueing, as it would with real users.
//! * [`sched`] — a **per-node run-to-completion scheduler**: one worker
//!   per CPU, a bounded FIFO admission queue, and tail-drop load
//!   shedding when the queue is full.  Every request records its
//!   arrival/start/finish cycles exactly, on the simulated clock.
//! * [`fleet`] — the **least-loaded balancer** dispatching one arrival
//!   stream across the [`mercury_cluster::Node`]s of a cluster, and
//!   the per-node state machine (serving at home / parked on a peer /
//!   failed) that makes live migration a balancing action.
//! * [`stats`] — **exact tail percentiles** (p50/p99/p999, nearest
//!   rank) over the recorded latencies; no sampling, no sketching.
//!
//! Everything runs on simulated cycles and a single host thread, so a
//! serving run is a pure function of its seed: the `serving_tail`
//! bench runs every scenario twice in-process and requires
//! bit-identical request records before archiving
//! `serving_results.json`.
//!
//! The scheduler interoperates with the rest of the suite: the run
//! hooks let a [`mercury_cluster::Watchdog`] poll (and attach/detach)
//! between requests, `faultgen` campaigns fire underneath live
//! traffic, and `merctrace` probes (`servo.request` spans,
//! `servo.sojourn` histograms, `servo.{offered,completed,shed}`
//! counters) span the request lifecycle.
//!
//! ```
//! use mercury_cluster::{Node, NodeConfig};
//! use mercury_servo::{generate, LoadConfig, NodeServer, ServerConfig, tail_stats};
//! use mercury_workloads::mix::CostMix;
//!
//! let node = Node::launch("n0", &NodeConfig::default());
//! let mut server = NodeServer::new(&node, 0, ServerConfig::default());
//! let traffic = generate(&LoadConfig {
//!     seed: 42,
//!     mean_gap_cycles: 60_000,
//!     requests: 40,
//!     mix: CostMix::web(),
//! });
//! server.run(&traffic, |_, _| {});
//! let stats = tail_stats(server.records());
//! assert_eq!(stats.offered, 40);
//! assert_eq!(stats.completed + stats.shed, 40);
//! assert!(stats.p999_cycles >= stats.p50_cycles);
//! ```

#![deny(missing_docs)]

pub mod fleet;
pub mod loadgen;
pub mod sched;
pub mod stats;

pub use fleet::{FleetServer, NodeState};
pub use loadgen::{generate, Arrival, LoadConfig};
pub use sched::{NodeServer, Outcome, RequestRecord, ServerConfig};
pub use stats::{tail_stats, TailStats};
