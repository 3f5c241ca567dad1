//! Nodes and clusters: whole machines running Mercury-enabled kernels.
//!
//! A node is [`mercury::Stack::build`] — machine, dormant VMM, natively
//! booted kernel with its drivers, Mercury, in the allocation order
//! every frame number hangs on (DESIGN.md §3a) — at the default
//! tracking strategy, plus what only a cluster needs: an idle loop that
//! donates its time to Mercury's revalidation
//! ([`Mercury::donate_idle`]) and hardware health sensors.  Its sizing
//! record, [`NodeConfig`], is the builder's own.

use crate::health::HealthMonitor;
use mercury::{AssistMode, Mercury, Stack, TrackingStrategy};
use nimbus::{Kernel, Session};
use simx86::devices::LinkWire;
use simx86::sync::RwLock;
use simx86::Machine;
use std::sync::Arc;
use xenon::Hypervisor;

/// Node sizing: the one sizing record of the stack builder.
pub use mercury::NodeConfig;

/// One cluster node: machine + warm hypervisor + Mercury-enabled
/// kernel + health monitor.
pub struct Node {
    /// Node name.
    pub name: String,
    /// The machine.
    pub machine: Arc<Machine>,
    /// The operating system currently running this node.  Replaced when
    /// the node's OS is evacuated and later returns.
    kernel: RwLock<Arc<Kernel>>,
    /// The Mercury engine for the current kernel.
    mercury: RwLock<Arc<Mercury>>,
    /// Hardware health sensors.
    pub health: HealthMonitor,
}

impl Node {
    /// Build and boot a node — machine powered on, VMM warmed (dormant),
    /// kernel booted natively, native drivers attached, Mercury
    /// installed: [`Stack::build`] at the default strategy — and give
    /// it its idle task and health sensors.
    pub fn launch(name: &str, config: &NodeConfig) -> Arc<Node> {
        let Stack {
            machine,
            kernel,
            mercury,
            ..
        } = Stack::build(config, TrackingStrategy::default(), AssistMode::Software);
        Self::wire_idle_task(&kernel, &mercury);
        Arc::new(Node {
            name: name.to_string(),
            machine,
            kernel: RwLock::new(kernel),
            mercury: RwLock::new(mercury),
            health: HealthMonitor::new(),
        })
    }

    /// An idle CPU of `kernel` donates its quantum to `mercury`'s
    /// revalidation of written frames.
    fn wire_idle_task(kernel: &Arc<Kernel>, mercury: &Arc<Mercury>) {
        let mercury = Arc::downgrade(mercury);
        kernel.set_idle_task(Some(Arc::new(move |cpu, budget| {
            mercury.upgrade().map_or(0, |m| m.donate_idle(cpu, budget))
        })));
    }

    /// The node's current kernel.
    pub fn kernel(&self) -> Arc<Kernel> {
        Arc::clone(&self.kernel.read())
    }

    /// The node's Mercury engine.
    pub fn mercury(&self) -> Arc<Mercury> {
        Arc::clone(&self.mercury.read())
    }

    /// The node's *current* hypervisor.  Read through Mercury's slot
    /// rather than cached at launch: a live-update (DESIGN.md §16)
    /// replaces the instance, and everything the cluster layer does
    /// with a hypervisor — migration rings, failover bookkeeping,
    /// health checks — must see the successor, never a decommissioned
    /// husk.
    pub fn hv(&self) -> Arc<Hypervisor> {
        self.mercury().hypervisor()
    }

    /// Replace the node's OS (after an evacuated kernel returns home):
    /// the new kernel's idle loop donates to the new engine.
    pub fn adopt_os(&self, kernel: Arc<Kernel>, mercury: Arc<Mercury>) {
        Self::wire_idle_task(&kernel, &mercury);
        *self.kernel.write() = kernel;
        *self.mercury.write() = mercury;
    }

    /// A session on the node's boot CPU.
    pub fn session(&self) -> Session {
        Session::new(self.kernel(), 0)
    }
}

/// A set of nodes with pairwise network links.
pub struct Cluster {
    /// The nodes.
    pub nodes: Vec<Arc<Node>>,
}

impl Cluster {
    /// Launch `n` identically configured nodes and wire node 0's NIC to
    /// node 1's, etc. (pairwise links between consecutive nodes; enough
    /// for evacuation flows).
    pub fn launch(n: usize, config: &NodeConfig) -> Cluster {
        let nodes: Vec<Arc<Node>> = (0..n)
            .map(|i| Node::launch(&format!("node{i}"), config))
            .collect();
        for pair in nodes.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            a.machine.nic.connect(Arc::new(LinkWire::new(
                Arc::clone(&b.machine.nic),
                Arc::clone(&b.machine.intc),
            )));
            b.machine.nic.connect(Arc::new(LinkWire::new(
                Arc::clone(&a.machine.nic),
                Arc::clone(&a.machine.intc),
            )));
        }
        Cluster { nodes }
    }

    /// Node by index.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        &self.nodes[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury::ExecMode;

    #[test]
    fn node_launches_native_with_dormant_vmm() {
        let node = Node::launch("n0", &NodeConfig::default());
        assert_eq!(node.mercury().mode(), ExecMode::Native);
        assert!(!node.hv().is_active());
        let sess = node.session();
        let fd = sess.open("boot.log", true).unwrap();
        sess.write(fd, b"up").unwrap();
        assert_eq!(sess.stat("boot.log").unwrap().size, 2);
    }

    #[test]
    fn cluster_links_carry_packets() {
        let cluster = Cluster::launch(2, &NodeConfig::default());
        let a = cluster.node(0).session();
        let b = cluster.node(1).session();
        let fa = a.socket(100).unwrap();
        let fb = b.socket(200).unwrap();
        a.sendto(fa, 200, b"hello b").unwrap();
        match b.recvfrom(fb).unwrap() {
            nimbus::kernel::RecvOutcome::Datagram(src, data) => {
                assert_eq!(src, 100);
                assert_eq!(data, b"hello b");
            }
            other => panic!("{other:?}"),
        }
        // And the reverse direction.
        b.sendto(fb, 100, b"hello a").unwrap();
        match a.recvfrom(fa).unwrap() {
            nimbus::kernel::RecvOutcome::Datagram(src, data) => {
                assert_eq!(src, 200);
                assert_eq!(data, b"hello a");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_cpu_donates_to_revalidation() {
        let node = Node::launch(
            "n0",
            &NodeConfig {
                num_cpus: 2,
                ..NodeConfig::default()
            },
        );
        // Fault in pages on CPU 0: the PTE writes log their table
        // frames in the dormant VMM's accounting.
        let sess = node.session();
        let va = sess
            .mmap(8, nimbus::mm::Prot::RW, nimbus::kernel::MmapBacking::Anon)
            .unwrap();
        for p in 0..8u64 {
            sess.poke(
                simx86::paging::VirtAddr(va.0 + p * simx86::paging::PAGE_SIZE),
                p,
            )
            .unwrap();
        }
        let mercury = node.mercury();
        let backlog = mercury.revalidation_backlog().len() as u64;
        assert!(backlog > 0, "pokes must dirty tables");

        // CPU 1 has nothing to run: its idle pass donates cycles to
        // revalidation, shrinking the work-list the next attach pays for.
        let idle = Session::new(node.kernel(), 1);
        while !mercury.revalidation_backlog().is_empty() {
            idle.idle().unwrap();
        }
        let donated = mercury.stats.snapshot();
        assert_eq!(donated.idle_revalidated, backlog);
        assert!(donated.idle_cycles_donated > 0);
    }

    #[test]
    fn node_hv_accessor_tracks_a_live_update() {
        let node = Node::launch("n0", &NodeConfig::default());
        let cpu = node.machine.boot_cpu();
        let m = node.mercury();
        let v1 = node.hv();
        assert_eq!(v1.version(), 1);
        m.switch_to_virtual(cpu).unwrap();
        let v2 = Hypervisor::warm_up_versioned(&node.machine, 2);
        m.stage_update(Arc::clone(&v2)).unwrap();
        assert!(matches!(
            m.live_update(cpu).unwrap(),
            mercury::SwitchOutcome::Completed { .. }
        ));
        // The accessor reads Mercury's slot, so it sees the successor;
        // a launch-time cached handle would still point at the husk.
        assert!(Arc::ptr_eq(&node.hv(), &v2));
        assert_eq!(node.hv().version(), 2);
        assert!(!v1.is_active(), "incumbent decommissioned");
        m.switch_to_native(cpu).unwrap();
    }

    #[test]
    fn node_can_switch_modes() {
        let node = Node::launch("n0", &NodeConfig::default());
        let cpu = node.machine.boot_cpu();
        let m = node.mercury();
        assert!(matches!(
            m.switch_to_virtual(cpu).unwrap(),
            mercury::SwitchOutcome::Completed { .. }
        ));
        assert!(matches!(
            m.switch_to_native(cpu).unwrap(),
            mercury::SwitchOutcome::Completed { .. }
        ));
    }
}
