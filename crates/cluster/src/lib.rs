//! # mercury-cluster — multi-node simulation for Mercury's cluster
//! scenarios
//!
//! The paper's remaining usage scenarios need more than one machine:
//!
//! * **§6.3 online hardware maintenance** — switch the machine under
//!   maintenance to full-virtual mode, live-migrate its execution
//!   environment to a peer that self-virtualized into partial-virtual
//!   mode, maintain, migrate back, return to native speed.
//! * **§6.5 HPC cluster availability** — hardware health monitors
//!   predict failures; on a prediction the node self-virtualizes and
//!   evacuates itself to a healthy peer before dying.
//!
//! This crate provides [`Node`] (a full machine + warm hypervisor +
//! Mercury-enabled kernel), [`Cluster`] (nodes wired together with
//! simulated network links), the [`health`] monitors, the reactive
//! [`watchdog`] driving on-demand attach for fault isolation and
//! recovery (§6.2's device-driver-isolation use case, DESIGN.md §12),
//! and the [`maintenance`]/[`failover`] orchestrations.
//!
//! This crate stops at the machine pair: it moves one OS between two
//! nodes and says nothing about *which* nodes.  Who is serving at home,
//! who is parked on which peer, rack layout and evacuation-target
//! selection are `mercury_servo::fleet`'s one per-node state machine
//! (DESIGN.md §15).

#![deny(missing_docs)]

pub mod failover;
pub mod health;
pub mod maintenance;
pub mod node;
pub mod watchdog;

pub use failover::{auto_failover, FailoverReport};
pub use health::{HealthMonitor, HealthStatus, SensorReading};
pub use maintenance::{evacuate, return_home, EvacuatedGuest, MaintenanceError, SplitDevices};
pub use node::{Cluster, Node, NodeConfig};
pub use watchdog::{FaultReport, RecoveryAction, Watchdog, WatchdogPolicy};
