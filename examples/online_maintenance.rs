//! §6.3 — online hardware maintenance: evacuate a node's OS to a peer
//! via live migration, maintain the hardware, bring the OS home, and
//! return to native speed.
//!
//! ```text
//! cargo run --example online_maintenance
//! ```

use mercury_cluster::maintenance::{evacuate, return_home};
use mercury_cluster::node::{Cluster, NodeConfig};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::VirtAddr;
use std::sync::Arc;

fn main() {
    let cluster = Cluster::launch(2, &NodeConfig::default());
    let home = cluster.node(0);
    let host = cluster.node(1);
    println!("cluster up: {} and {}", home.name, host.name);

    // A service with live state runs on the home node.
    let sess = home.session();
    let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
    sess.poke(va, 0xfeed).unwrap();
    let fd = sess.open("journal.log", true).unwrap();
    sess.write(fd, b"before maintenance\n").unwrap();
    sess.sync().unwrap();

    // Operator: evacuate node0 for a RAM swap.
    println!("evacuating {} -> {} ...", home.name, host.name);
    let guest = evacuate(home, host).unwrap();
    println!(
        "live migration done: {} frames over {} rounds, downtime {:.1} us",
        guest.report.total_frames,
        guest.report.rounds.len(),
        guest.report.downtime_us()
    );

    // The service keeps running on the host while node0 is on the bench.
    host.hv().set_current(0, Some(guest.dom.id));
    let gsess = Session::new(Arc::clone(&guest.kernel), 0);
    assert_eq!(gsess.peek(va).unwrap(), 0xfeed);
    gsess.poke(VirtAddr(va.0 + 4096), 0xbeef).unwrap();
    println!(
        "service alive on {} (split I/O through its driver domain)",
        host.name
    );

    // ... RAM swapped, node0 healthy again ...

    println!("migrating home ...");
    let report = return_home(guest, host, home).unwrap();
    println!(
        "home again: downtime {:.1} us; {} back in {:?} mode at {:?}",
        report.downtime_us(),
        home.name,
        home.mercury().mode(),
        home.machine.boot_cpu().pl()
    );
    let sess = home.session();
    assert_eq!(sess.peek(va).unwrap(), 0xfeed);
    assert_eq!(sess.peek(VirtAddr(va.0 + 4096)).unwrap(), 0xbeef);
    println!("state modified while evacuated came home; applications never stopped");
}
