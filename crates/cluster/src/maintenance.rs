//! Online hardware maintenance by evacuation (§6.3).
//!
//! "An operator could switch the machine to be maintained to the
//! full-virtual mode dynamically.  The execution environment of the
//! machine can then be live migrated to another machine that has been
//! virtualized and is in the partial-virtual mode to accommodate
//! multiple operating systems.  After the maintenance work is
//! completed, the execution environment is migrated back and the
//! machine is returned to the native mode for full speed."

use crate::node::Node;
use mercury::{ExecMode, Mercury, SwitchError, TrackingStrategy};
use nimbus::drivers::{attach_native, connect_split};
use nimbus::kernel::BootMode;
use nimbus::{Kernel, KernelError};
use simx86::costs;
use std::sync::Arc;
use xenon::migrate::{LiveMigration, MigrationReport};
use xenon::{Domain, HvError};

/// Errors from the evacuation orchestration.
#[derive(Debug)]
pub enum MaintenanceError {
    /// A mode switch failed or was refused.
    Switch(SwitchError),
    /// The hypervisor-level migration failed.
    Migration(HvError),
    /// The guest kernel failed to freeze/thaw.
    Kernel(KernelError),
}

/// A device-wiring failure: the hypervisor's half (rings, event
/// channels, host frames) reads as a migration failure, the guest's
/// half (its pool) as a kernel one.
impl From<KernelError> for MaintenanceError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::Hypervisor(e) => MaintenanceError::Migration(e),
            e => MaintenanceError::Kernel(e),
        }
    }
}

impl From<SwitchError> for MaintenanceError {
    fn from(e: SwitchError) -> Self {
        MaintenanceError::Switch(e)
    }
}

impl std::fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintenanceError::Switch(e) => write!(f, "mode switch failed: {e}"),
            MaintenanceError::Migration(e) => write!(f, "live migration failed: {e}"),
            MaintenanceError::Kernel(e) => write!(f, "guest kernel error: {e}"),
        }
    }
}

impl std::error::Error for MaintenanceError {}

/// The evacuated OS, now running as a guest on the host node.
pub struct EvacuatedGuest {
    /// The guest's kernel object (rebuilt on the host machine).
    pub kernel: Arc<Kernel>,
    /// Its domain on the host's hypervisor.
    pub dom: Arc<Domain>,
    /// A Mercury engine adopted onto the guest (usable if it migrates
    /// home and wants to go native).
    pub mercury: Arc<Mercury>,
    /// Migration statistics.
    pub report: MigrationReport,
    /// Backend handles and host resources for the guest's split
    /// devices, kept so the departure path can quiesce the backends
    /// and return the resources to the host.
    pub devices: SplitDevices,
}

/// The host-side half of a migrated guest's split devices.
/// [`return_home`] uses the handles to drain early-acked block writes
/// before the storage copy and reclaims the frames once the guest has
/// left.
pub use nimbus::drivers::SplitDevices;

/// Copy the source disk image to the target ("networked file system"
/// stand-in: the paper's migratable disks assume shared storage; we
/// model it as a storage pre-copy over the link, charged to `cpu`).
fn migrate_storage(source: &Arc<Node>, target: &Arc<Node>) {
    let cpu = source.machine.boot_cpu();
    let sectors = source
        .machine
        .disk
        .sectors()
        .min(target.machine.disk.sectors());
    let bytes = sectors * 512;
    cpu.tick(bytes * costs::NIC_PER_BYTE + (sectors / 8) * costs::NIC_PACKET_BASE / 64);
    let image = source.machine.disk.read_raw(0, bytes as usize);
    target.machine.disk.write_raw(0, &image);
}

/// Pre-copy round cap before forcing stop-and-copy (Clark et al. bound
/// the iterations; an unconverging guest must not migrate forever).
pub const MAX_PRECOPY_ROUNDS: usize = 4;

/// A dirty-set round shipping at most this many frames counts as
/// converged: stop-and-copy immediately while downtime is small.
pub const CONVERGENCE_FRAMES: usize = 8;

/// Evacuate `source`'s operating system onto `target`:
///
/// 1. both nodes self-virtualize (`source` full-virtual, `target`
///    partial-virtual);
/// 2. iterative pre-copy live migration run to convergence: up to
///    [`MAX_PRECOPY_ROUNDS`] rounds, stopping early once a dirty-set
///    round ships at most [`CONVERGENCE_FRAMES`] frames;
/// 3. freeze, then copy storage (shared-storage stand-in) — the freeze
///    syncs the buffer cache through the still-native driver first, so
///    the shipped platter contains every acknowledged write;
/// 4. stop-and-copy, thaw on the target, and reconnect device
///    frontends to backends in the target's driver domain (§5.2).
pub fn evacuate(
    source: &Arc<Node>,
    target: &Arc<Node>,
) -> Result<EvacuatedGuest, MaintenanceError> {
    let src_m = source.mercury();
    let dst_m = target.mercury();
    for m in [&src_m, &dst_m] {
        m.reach(ExecMode::Virtual, m.kernel().machine.boot_cpu())?;
    }

    let cpu = source.machine.boot_cpu();

    let mut migration = LiveMigration::new(source.hv(), Arc::clone(src_m.dom0()));
    for i in 0..MAX_PRECOPY_ROUNDS {
        let shipped = migration.round(cpu).map_err(MaintenanceError::Migration)?;
        // Round 0 ships everything; convergence is judged on the
        // dirty-set rounds after it.
        if i > 0 && shipped <= CONVERGENCE_FRAMES {
            break;
        }
    }

    // Freeze the guest's logical state right before stop-and-copy.
    let state = src_m
        .kernel()
        .freeze(cpu)
        .map_err(MaintenanceError::Kernel)?;
    *src_m.dom0().guest_state.lock() = Some(state);

    // Storage ships only after the freeze: freeze→sync wrote back every
    // dirty buffer-cache block, so copying earlier would ship a platter
    // missing acknowledged (but unsynced) file writes — pinned by
    // `unsynced_writes_survive_evacuation`.
    migrate_storage(source, target);

    let (dom, report) = migration
        .finalize(cpu, &target.hv())
        .map_err(MaintenanceError::Migration)?;

    // Thaw the kernel on the target machine.
    let guest_state = dom.frozen_state().map_err(MaintenanceError::Migration)?;
    let kernel = Kernel::thaw(
        Arc::clone(&target.machine),
        BootMode::Guest {
            hv: target.hv(),
            dom: Arc::clone(&dom),
        },
        &guest_state,
        &report.frame_map,
    )
    .map_err(MaintenanceError::Kernel)?;

    // §5.2: reconnect device frontends to the new driver domain's
    // backends after the migration completes.
    let devices = connect_split(&target.machine, &target.hv(), dst_m.dom0(), &kernel, &dom)?;

    let mercury = Mercury::adopt(
        Arc::clone(&kernel),
        target.hv(),
        Arc::clone(&dom),
        TrackingStrategy::default(),
    )?;

    Ok(EvacuatedGuest {
        kernel,
        dom,
        mercury,
        report,
        devices,
    })
}

/// Migrate an evacuated guest back to its (maintained) home node and
/// return the node to native mode.  The home node adopts the returned
/// OS as its own.
pub fn return_home(
    guest: EvacuatedGuest,
    host: &Arc<Node>,
    home: &Arc<Node>,
) -> Result<MigrationReport, MaintenanceError> {
    let cpu = host.machine.boot_cpu();

    // Re-freeze on the host side before the move back.
    let state = guest.kernel.freeze(cpu).map_err(MaintenanceError::Kernel)?;
    *guest.dom.guest_state.lock() = Some(state);

    // Quiesce the split block device before the storage copy: a write
    // early-acked into the backend queue but not yet flushed would miss
    // the shipped platter and be silently lost.  The freeze's sync
    // drains the queue on the normal path; this makes the invariant
    // hold even for writes issued outside the guest's own sync
    // discipline (pinned by `backend_queue_drained_before_storage_copy`).
    guest
        .devices
        .blk
        .flush(cpu)
        .map_err(MaintenanceError::Kernel)?;
    debug_assert_eq!(guest.devices.blk.queued_writes(), 0);

    let mut migration = LiveMigration::new(host.hv(), Arc::clone(&guest.dom));
    migration.round(cpu).map_err(MaintenanceError::Migration)?;
    migrate_storage(host, home);
    let (dom, report) = migration
        .finalize(cpu, &home.hv())
        .map_err(MaintenanceError::Migration)?;

    let guest_state = dom.frozen_state().map_err(MaintenanceError::Migration)?;
    let kernel = Kernel::thaw(
        Arc::clone(&home.machine),
        BootMode::Guest {
            hv: home.hv(),
            dom: Arc::clone(&dom),
        },
        &guest_state,
        &report.frame_map,
    )
    .map_err(MaintenanceError::Kernel)?;

    // Back home the OS is the driver domain again: native drivers, and
    // the frontends' payload frames go back to the pool.
    for buf in guest.devices.guest_bufs() {
        let at_home = report.frame_map.get(&buf.0).copied().unwrap_or(buf.0);
        kernel.free_driver_frame(simx86::mem::FrameNum(at_home));
    }
    let home_cpu = home.machine.boot_cpu();
    attach_native(&home.machine, &kernel)?;

    let mercury = Mercury::adopt(
        Arc::clone(&kernel),
        home.hv(),
        dom,
        TrackingStrategy::default(),
    )?;

    // "the machine is returned to the native mode for full speed."
    mercury.reach(ExecMode::Native, home_cpu)?;
    home.adopt_os(kernel, mercury);

    // The host may return to native speed too, now that its guest left.
    // Reflection must route to the host's own OS again first (the test
    // bed may have focused the CPU on the departed guest).
    let host_m = host.mercury();
    if host.hv().domains().len() == 1 {
        for c in &host.machine.cpus {
            host.hv().set_current(c.id, Some(host_m.dom0().id));
        }
        let _ = host_m.switch_to_native(cpu);
    }

    // The guest is gone; return its split-device resources to the host.
    // Without this every evacuate/return cycle leaked two reserved ring
    // frames and a bounce frame, exhausting the pools over a rolling
    // maintenance wave (pinned by `repeated_cycles_do_not_leak_host_frames`).
    guest.devices.reclaim(&host.machine, &host.hv());

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Cluster, NodeConfig};
    use nimbus::kernel::{MmapBacking, ReadOutcome};
    use nimbus::mm::Prot;
    use nimbus::Session;
    use xenon::GuestState;

    #[test]
    fn full_maintenance_cycle_preserves_workload_state() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let home = cluster.node(0);
        let host = cluster.node(1);

        // Workload on the home node before maintenance.
        let sess = home.session();
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 0xabcd).unwrap();
        let fd = sess.open("state.txt", true).unwrap();
        sess.write(fd, b"pre-maintenance").unwrap();
        sess.sync().unwrap();

        // Evacuate.
        let guest = evacuate(home, host).unwrap();
        assert!(guest.report.total_frames > 0);
        assert_eq!(guest.kernel.exec_mode(), ExecMode::Virtual);
        assert_eq!(
            host.hv().domains().len(),
            2,
            "host hosts its OS + the guest"
        );

        // The evacuated OS keeps running on the host.
        let gsess = Session::new(Arc::clone(&guest.kernel), 0);
        host.hv().set_current(0, Some(guest.dom.id));
        assert_eq!(gsess.peek(va).unwrap(), 0xabcd);
        gsess.poke(va, 0xbeef).unwrap();
        // Its filesystem works through the split block driver.
        let fd2 = gsess.open("state.txt", false).unwrap();
        match gsess.read(fd2, 15).unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"pre-maintenance"),
            other => panic!("{other:?}"),
        }

        // ... hardware maintenance happens on `home` here ...

        // Migrate back; home returns to native mode.
        let report = return_home(guest, host, home).unwrap();
        assert!(report.downtime_cycles > 0);
        assert_eq!(home.mercury().mode(), ExecMode::Native);
        assert_eq!(home.machine.boot_cpu().pl(), simx86::PrivLevel::Pl0);

        // State modified while evacuated came back.
        let sess = home.session();
        assert_eq!(sess.peek(va).unwrap(), 0xbeef);
        assert_eq!(sess.stat("state.txt").unwrap().size, 15);

        // The host went back to native speed as well.
        assert_eq!(host.mercury().mode(), ExecMode::Native);
        assert_eq!(host.hv().domains().len(), 1);
    }

    /// The bug the fleet bench shook out: `evacuate` used to copy the
    /// disk *before* the freeze's sync wrote back dirty buffer-cache
    /// blocks, so acknowledged-but-unsynced file writes landed on the
    /// source platter after the copy and the migrated guest read stale
    /// data once its (clean) cached copies were dropped on thaw.
    #[test]
    fn unsynced_writes_survive_evacuation() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let home = cluster.node(0);
        let host = cluster.node(1);

        let sess = home.session();
        let fd = sess.open("dirty.txt", true).unwrap();
        sess.write(fd, b"acknowledged, never synced").unwrap();
        // No sess.sync(): the write lives only in the buffer cache.

        let guest = evacuate(home, host).unwrap();

        let gsess = Session::new(Arc::clone(&guest.kernel), 0);
        host.hv().set_current(0, Some(guest.dom.id));
        let fd2 = gsess.open("dirty.txt", false).unwrap();
        match gsess.read(fd2, 26).unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"acknowledged, never synced"),
            other => panic!("unsynced write lost in migration: {other:?}"),
        }
    }

    #[test]
    fn converging_evacuation_stops_within_the_round_cap() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let guest = evacuate(cluster.node(0), cluster.node(1)).unwrap();
        // Convergence: a quiet guest never needs the full round cap.
        assert!(guest.report.rounds.len() <= MAX_PRECOPY_ROUNDS + 1);
        assert!(guest.report.total_frames > 0);
    }

    /// Writes early-acked by the split block backend must be on the
    /// host platter before `return_home` ships it.
    #[test]
    fn backend_queue_drained_before_storage_copy() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let home = cluster.node(0);
        let host = cluster.node(1);

        let sess = home.session();
        let fd = sess.open("ring.txt", true).unwrap();
        sess.write(fd, b"homeward").unwrap();
        sess.sync().unwrap();

        let guest = evacuate(home, host).unwrap();
        let gsess = Session::new(Arc::clone(&guest.kernel), 0);
        host.hv().set_current(0, Some(guest.dom.id));

        // Mutate the file through the split device and *sync the vfs*
        // so the blocks reach the backend, where they sit early-acked.
        let fd2 = gsess.open("ring.txt", false).unwrap();
        gsess.write(fd2, b"mutated!").unwrap();
        gsess.sync().unwrap();

        return_home(guest, host, home).unwrap();

        let sess = home.session();
        let fd3 = sess.open("ring.txt", false).unwrap();
        match sess.read(fd3, 8).unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"mutated!"),
            other => panic!("{other:?}"),
        }
    }

    /// Every evacuate/return cycle used to leak two reserved ring
    /// frames and a bounce frame on the host — fatal over a rolling
    /// maintenance wave.
    #[test]
    fn repeated_cycles_do_not_leak_host_frames() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let home = cluster.node(0);
        let host = cluster.node(1);

        // One warm-up cycle so lazy first-switch allocations don't
        // pollute the baseline; the leak was per-cycle.
        let guest = evacuate(home, host).unwrap();
        host.hv().set_current(0, Some(guest.dom.id));
        return_home(guest, host, home).unwrap();

        let reserved_before = host.hv().reserved_frames();
        let avail_before = host.machine.allocator.available();

        for _ in 0..3 {
            let guest = evacuate(home, host).unwrap();
            host.hv().set_current(0, Some(guest.dom.id));
            return_home(guest, host, home).unwrap();
        }

        assert_eq!(
            host.hv().reserved_frames(),
            reserved_before,
            "ring frames must return to the reserved pool"
        );
        assert_eq!(
            host.machine.allocator.available(),
            avail_before,
            "bounce + guest frames must return to the allocator"
        );
    }

    /// A re-homed OS comes back as a new domain under a new engine: it
    /// must still be on the O(dirty) attach, with idle time
    /// revalidating what it writes.
    #[test]
    fn rehomed_os_keeps_dirty_tracking_and_idle_revalidation() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let home = cluster.node(0);
        let host = cluster.node(1);

        let guest = evacuate(home, host).unwrap();
        host.hv().set_current(0, Some(guest.dom.id));
        return_home(guest, host, home).unwrap();
        let mercury = home.mercury();
        assert_eq!(mercury.strategy(), TrackingStrategy::default());

        // Native PTE writes dirty the returned domain's table frames…
        let sess = home.session();
        let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
        for p in 0..8u64 {
            sess.poke(simx86::VirtAddr(va.0 + p * simx86::PAGE_SIZE), p)
                .unwrap();
        }
        let dirty = mercury.revalidation_backlog().len();
        assert!(dirty > 0, "pokes must dirty tables");

        // …and an idle donation retires them.
        let cpu = home.machine.boot_cpu();
        let used = mercury.donate_idle(cpu, 1_000_000);
        assert!(used > 0, "idle time must see the new domain's writes");
        assert!(mercury.revalidation_backlog().len() < dirty);
    }

    /// An evacuation the §5.1.1 gate refuses is over: nothing stays
    /// pending for the retry timer to attach under a node nobody is
    /// evacuating any more.
    #[test]
    fn refused_evacuation_leaves_the_source_native() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let (home, host) = (cluster.node(0), cluster.node(1));
        let mercury = home.mercury();
        let guard = mercury.vo_refcount().enter();
        let err = evacuate(home, host).err().expect("the gate refuses");
        assert!(
            matches!(err, MaintenanceError::Switch(SwitchError::Busy(1))),
            "{err}"
        );
        drop(guard);
        assert_eq!(mercury.pending_target(), None);
        assert_eq!(mercury.mode(), ExecMode::Native);
        assert_eq!(host.mercury().mode(), ExecMode::Native);
    }

    /// A malformed image (no frozen state on the domain, or a state
    /// some other kind of guest froze) must surface as an error the
    /// watchdog can act on, not a panic.
    #[test]
    fn missing_frozen_state_is_an_error_not_a_panic() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let home = cluster.node(0);
        let host = cluster.node(1);

        let guest = evacuate(home, host).unwrap();
        host.hv().set_current(0, Some(guest.dom.id));

        // Corrupt the image in the way a buggy migration would: the
        // domain arrives without its frozen kernel state.  return_home
        // re-freezes, so clearing *after* the freeze requires failing
        // at the thaw site; instead exercise the accessor directly plus
        // the full path with a stripped domain.
        *guest.dom.guest_state.lock() = None;
        let err = guest
            .dom
            .frozen_state()
            .map_err(MaintenanceError::Migration)
            .unwrap_err();
        assert!(
            matches!(err, MaintenanceError::Migration(HvError::BadImage(_))),
            "{err}"
        );

        // A state of the wrong type gets as far as the thaw and is
        // refused there.
        *guest.dom.guest_state.lock() = Some(GuestState::new("not a kernel image"));
        let foreign = guest.dom.frozen_state().unwrap();
        let thawed = Kernel::thaw(
            Arc::clone(&host.machine),
            BootMode::Guest {
                hv: host.hv(),
                dom: Arc::clone(&guest.dom),
            },
            &foreign,
            &std::collections::HashMap::new(),
        );
        assert!(matches!(
            thawed,
            Err(nimbus::KernelError::Invalid("malformed kernel image"))
        ));
    }
}

#[cfg(test)]
mod rolling_tests {
    use super::*;
    use crate::node::{Cluster, NodeConfig};
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use simx86::VirtAddr;

    /// Rolling maintenance across a three-node cluster: each node is
    /// evacuated to its neighbour, "maintained", and repopulated — the
    /// fleet-wide version of §6.3 that motivates the paper's 99.999 %
    /// availability discussion.
    #[test]
    fn rolling_maintenance_over_three_nodes() {
        let cluster = Cluster::launch(3, &NodeConfig::default());

        // Independent state on every node.
        let mut vas = Vec::new();
        for (i, node) in cluster.nodes.iter().enumerate() {
            let sess = node.session();
            let va = sess.mmap(1, Prot::RW, MmapBacking::Anon).unwrap();
            sess.poke(va, 1000 + i as u64).unwrap();
            vas.push(va);
        }

        #[allow(clippy::needless_range_loop)] // i also selects the host node
        for i in 0..3 {
            let home = cluster.node(i);
            let host = cluster.node((i + 1) % 3);
            let guest = evacuate(home, host).unwrap();

            // The evacuated OS keeps mutating while its home is down.
            host.hv().set_current(0, Some(guest.dom.id));
            let gsess = nimbus::Session::new(std::sync::Arc::clone(&guest.kernel), 0);
            gsess.poke(VirtAddr(vas[i].0), 2000 + i as u64).unwrap();

            return_home(guest, host, home).unwrap();
            assert_eq!(home.mercury().mode(), mercury::ExecMode::Native);
            let sess = home.session();
            assert_eq!(sess.peek(vas[i]).unwrap(), 2000 + i as u64);
        }

        // Every node native, every hypervisor hosting nothing foreign.
        for node in &cluster.nodes {
            assert_eq!(node.mercury().mode(), mercury::ExecMode::Native);
            assert!(node.hv().domains().len() <= 1);
        }
    }
}
