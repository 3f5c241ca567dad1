//! The watchdog answers VMM-state corruption by live-updating the node
//! onto a successor hypervisor (DESIGN.md §16).  Whoever replaces the
//! VMM — a fleet's update wave or this recovery — the native kernel's
//! page-table writes afterwards are the *successor's* work-list, and
//! idle-time revalidation must read them there: Mercury keeps its
//! rounds beside the table they serve, so no caller has anything to
//! re-point.  (One test, its own process: faultgen's injector is
//! process-global.)

use faultgen::injector::hooks::vmm_site;
use faultgen::{FaultSpec, FaultTarget};
use mercury::ExecMode;
use mercury_cluster::{Node, NodeConfig, RecoveryAction, Watchdog, WatchdogPolicy};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use simx86::{costs, FrameNum, VirtAddr, PAGE_SIZE};

#[test]
fn writes_after_a_watchdog_live_update_are_backlog_a_donated_gap_retires() {
    let node = Node::launch("n0", &NodeConfig::default());
    let cpu = node.machine.boot_cpu();
    let mercury = node.mercury();
    let mut dog = Watchdog::new(node.mercury(), WatchdogPolicy::default());

    // The corruption lands at a hypervisor service point, so the node
    // is virtual.  Hooks are compiled out of this build: fire the armed
    // fault by hand, exactly as `Hypervisor::count_hypercall` would.
    mercury.switch_to_virtual(cpu).unwrap();
    let victim = node.kernel().all_pgds()[0];
    faultgen::reset();
    faultgen::arm(vec![FaultSpec {
        id: 1,
        due_cycle: 0,
        target: FaultTarget::VmmState {
            cpu: cpu.id,
            frame: victim.0,
        },
    }]);
    let hit = vmm_site(cpu.id, cpu.cycles()).expect("the armed fault fires");
    node.hv().page_info.corrupt_record(FrameNum(hit));

    assert_eq!(dog.poll(cpu), 1);
    let report = &dog.reports()[0];
    assert_eq!(report.action, RecoveryAction::LiveUpdate);
    assert!(report.recovered, "the update must complete");
    assert_eq!(node.hv().version(), 2, "the node runs on the successor");
    assert_eq!(faultgen::outstanding(), 0);
    faultgen::reset();

    mercury.switch_to_native(cpu).unwrap();
    assert_eq!(mercury.mode(), ExecMode::Native);
    assert_eq!(mercury.revalidation_backlog(), [], "detach is the baseline");

    // Native page-table writes: the VO logs them in the successor's
    // table, and that is the table the backlog is read from.
    let sess = node.session();
    let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
    for p in 0..8u64 {
        sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
    }
    let backlog = mercury.revalidation_backlog().len() as u64;
    assert!(backlog > 0, "revalidating a retired table");

    // A donated gap retires them, one scan each.
    let scan = costs::PGINFO_RECOMPUTE_PER_FRAME;
    assert_eq!(mercury.donate_idle(cpu, 1_000_000), backlog * scan);
    assert_eq!(mercury.revalidation_backlog(), []);
}
