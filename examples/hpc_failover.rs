//! §6.5 — HPC cluster availability: hardware monitors predict a
//! failure; the node self-virtualizes and evacuates its OS to a healthy
//! peer before dying.  The running job never stops.
//!
//! ```text
//! cargo run --example hpc_failover
//! ```

use mercury_cluster::failover::auto_failover;
use mercury_cluster::health::SensorReading;
use mercury_cluster::node::{Cluster, NodeConfig};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::VirtAddr;
use std::sync::Arc;

fn main() {
    let cluster = Cluster::launch(2, &NodeConfig::default());
    let failing = cluster.node(0);
    let healthy = cluster.node(1);

    // A long-running MPI-style job on node0 (native speed — no VMM tax).
    let sess = failing.session();
    let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
    for i in 0..8u64 {
        sess.poke(VirtAddr(va.0 + i * 4096), i * 31).unwrap();
        sess.compute(500_000);
    }
    println!(
        "job running natively on {} (mode {:?})",
        failing.name,
        failing.mercury().mode()
    );

    // The platform sensors see trouble brewing.
    for temp in [66.0, 72.0, 78.0] {
        failing.health.inject(SensorReading {
            temp_c: temp,
            ..Default::default()
        });
    }
    println!(
        "sensor trend: 66 °C -> 72 °C -> 78 °C; predictor: {:?}",
        failing.health.assess()
    );

    // Policy engine reacts: self-virtualize + evacuate.
    let report = auto_failover(failing, healthy).unwrap();
    println!(
        "failover triggered by '{}': {} frames migrated, downtime {:.1} us",
        report.trigger, report.guest.report.total_frames, report.downtime_us
    );

    // The job continues on the healthy node, mid-iteration state intact.
    healthy.hv().set_current(0, Some(report.guest.dom.id));
    let gsess = Session::new(Arc::clone(&report.guest.kernel), 0);
    for i in 0..8u64 {
        assert_eq!(gsess.peek(VirtAddr(va.0 + i * 4096)).unwrap(), i * 31);
    }
    gsess.compute(500_000);
    println!(
        "job resumed on {} — shielded from the failure, no restart",
        healthy.name
    );
}
