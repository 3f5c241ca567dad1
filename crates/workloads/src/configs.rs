//! Building the six measured system configurations (§7).
//!
//! Six recipes over the same parts.  The three Mercury systems are
//! [`Stack::build`] — M-V then attaches, M-U attaches and hosts a domU;
//! N-L is a bare kernel with no VMM under it; X-0 and X-U boot guest
//! kernels on an always-on VMM ([`boot_guest`]), X-U's and M-U's domU
//! wired to its driver domain by [`nimbus::drivers::connect_split`].
//! Every bed is the same machine — 64 MiB, a 96 Ki-sector disk, an
//! 8 Ki-block filesystem, an echo host on the LAN.

use mercury::{AssistMode, Mercury, NodeConfig, Stack, SwitchOutcome, TrackingStrategy};
use nimbus::drivers::{attach_native, connect_split};
use nimbus::kernel::{BootMode, KernelConfig};
use nimbus::{Kernel, Session};
use simx86::devices::EchoWire;
use simx86::{Machine, MachineConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xenon::{Domain, Hypervisor};

/// The six measured systems (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysKind {
    /// Native Linux.
    NL,
    /// Mercury-Linux, native mode.
    MN,
    /// Xen-Linux domain0.
    X0,
    /// Mercury-Linux, virtual mode.
    MV,
    /// Xen-Linux domainU.
    XU,
    /// Unmodified guest hosted by the self-virtualized OS.
    MU,
}

/// All six, in the paper's column order.
pub const ALL_SYSTEMS: [SysKind; 6] = [
    SysKind::NL,
    SysKind::MN,
    SysKind::X0,
    SysKind::MV,
    SysKind::XU,
    SysKind::MU,
];

impl SysKind {
    /// The paper's column label.
    pub fn label(&self) -> &'static str {
        match self {
            SysKind::NL => "N-L",
            SysKind::MN => "M-N",
            SysKind::X0 => "X-0",
            SysKind::MV => "M-V",
            SysKind::XU => "X-U",
            SysKind::MU => "M-U",
        }
    }
}

/// Frames given to the measured kernel.  The paper gives each Linux
/// 900 000 KB and domainU 870 000 KB ("to even this unfairness");
/// scaled to our 64 MiB machines that is ~6.1k vs ~5.9k frames.
const POOL_FRAMES: usize = 6 * 1024;
const DOMU_POOL_FRAMES: usize = POOL_FRAMES - 208;
/// Driver-domain pool when hosting a domU.
const DRIVER_POOL_FRAMES: usize = 4 * 1024;

/// One booted system configuration.
pub struct TestBed {
    /// Which system this is.
    pub kind: SysKind,
    /// The machine.
    pub machine: Arc<Machine>,
    /// The *measured* kernel (domU's for X-U/M-U).
    pub kernel: Arc<Kernel>,
    /// The hypervisor, when one exists.
    pub hv: Option<Arc<Hypervisor>>,
    /// Mercury, for the M-* configurations.
    pub mercury: Option<Arc<Mercury>>,
    /// The driver-domain kernel, for split-I/O configurations.
    pub driver_kernel: Option<Arc<Kernel>>,
    /// The measured kernel's domain, when it is a guest.
    pub dom: Option<Arc<Domain>>,
}

/// Every bed's machine: 64 MiB of memory and a 48 MiB disk whose first
/// 8 Ki blocks hold the measured kernel's filesystem.
const MEM_FRAMES: usize = 16 * 1024;
const DISK_SECTORS: u64 = 96 * 1024;
const FS_BLOCKS: u64 = 8 * 1024;

/// Benchmarks that need a peer (ping/Iperf) get an echo host that
/// swaps the port header so replies land on the sender's socket.
fn attach_echo_host(machine: &Machine) {
    machine.nic.connect(Arc::new(EchoWire::port_swapping(
        Arc::clone(&machine.nic),
        Arc::clone(&machine.intc),
    )));
}

/// A bed's machine with nothing on it yet (N-L and the Xen beds, whose
/// VMM — if any — is always on rather than pre-cached).
fn machine(cpus: usize) -> Arc<Machine> {
    let machine = Machine::new(MachineConfig {
        num_cpus: cpus,
        mem_frames: MEM_FRAMES,
        disk_sectors: DISK_SECTORS,
    });
    attach_echo_host(&machine);
    machine
}

/// Take `pool_frames` frames off `machine`, make them domain `name` of
/// `hv`, and boot a guest kernel in it whose filesystem is `fs_blocks`
/// long from disk block `fs_first_block`.
pub fn boot_guest(
    machine: &Arc<Machine>,
    hv: &Arc<Hypervisor>,
    name: &str,
    pool_frames: usize,
    fs_blocks: u64,
    fs_first_block: u64,
) -> (Arc<Kernel>, Arc<Domain>) {
    let cpu = machine.boot_cpu();
    let pool = machine
        .allocator
        .alloc_many(cpu, pool_frames)
        .expect("machine too small");
    let dom = hv
        .create_domain(cpu, name, pool.clone(), 0)
        .expect("domain creation failed");
    let config = KernelConfig {
        pool,
        mode: BootMode::Guest {
            hv: Arc::clone(hv),
            dom: Arc::clone(&dom),
        },
        fs_blocks,
        fs_first_block,
    };
    let kernel = Kernel::boot(Arc::clone(machine), config).expect("guest kernel boot failed");
    (kernel, dom)
}

/// Boot a domU kernel with frontend drivers connected to backends in
/// `driver_dom` (the driver domain).
fn host_domu(
    machine: &Arc<Machine>,
    hv: &Arc<Hypervisor>,
    driver_dom: &Arc<Domain>,
) -> (Arc<Kernel>, Arc<Domain>) {
    let (kernel, domu) = boot_guest(machine, hv, "domU", DOMU_POOL_FRAMES, FS_BLOCKS, 1);
    connect_split(machine, hv, driver_dom, &kernel, &domu).expect("split devices");
    // Reflection routes to the measured guest.
    for c in &machine.cpus {
        hv.set_current(c.id, Some(domu.id));
    }
    (kernel, domu)
}

/// Run a Mercury mode switch on a testbed machine, servicing peer CPUs
/// from temporary threads so the §5.4 rendezvous can complete.
pub fn switch_with_peers(
    machine: &Arc<Machine>,
    mercury: &Arc<Mercury>,
    to_virtual: bool,
) -> SwitchOutcome {
    let stop = Arc::new(AtomicBool::new(false));
    let helpers: Vec<_> = machine
        .cpus
        .iter()
        .skip(1)
        .map(|c| {
            let c = Arc::clone(c);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    c.tick(50);
                    c.service_pending();
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    let cpu = machine.boot_cpu();
    let out = if to_virtual {
        mercury.switch_to_virtual(cpu)
    } else {
        mercury.switch_to_native(cpu)
    }
    .expect("testbed mode switch failed");
    stop.store(true, Ordering::Release);
    for h in helpers {
        h.join().unwrap();
    }
    out
}

impl TestBed {
    /// Build the system configuration with `cpus` processors (the paper
    /// tests UP = 1 and SMP = 2).
    pub fn build(kind: SysKind, cpus: usize) -> TestBed {
        // The paper's Mercury: recompute on switch.
        let paper = TrackingStrategy::RecomputeOnSwitch;
        match kind {
            SysKind::NL => {
                let machine = machine(cpus);
                let pool = machine
                    .allocator
                    .alloc_many(machine.boot_cpu(), POOL_FRAMES)
                    .expect("machine too small");
                let config = KernelConfig {
                    pool,
                    mode: BootMode::Bare,
                    fs_blocks: FS_BLOCKS,
                    fs_first_block: 1,
                };
                let kernel =
                    Kernel::boot(Arc::clone(&machine), config).expect("kernel boot failed");
                attach_native(&machine, &kernel).expect("bounce frame");
                TestBed::bare(kind, machine, kernel)
            }
            SysKind::MN => TestBed::build_mn_with_strategy(cpus, paper),
            SysKind::MV => {
                let bed = TestBed::mercury(kind, cpus, POOL_FRAMES, paper);
                let mercury = bed.mercury.as_ref().expect("a Mercury bed");
                switch_with_peers(&bed.machine, mercury, true);
                bed
            }
            SysKind::X0 => {
                let machine = machine(cpus);
                let hv = Hypervisor::warm_up(&machine);
                hv.activate();
                let (kernel, dom0) = boot_guest(&machine, &hv, "dom0", POOL_FRAMES, FS_BLOCKS, 1);
                attach_native(&machine, &kernel).expect("bounce frame");
                TestBed {
                    hv: Some(hv),
                    dom: Some(dom0),
                    ..TestBed::bare(kind, machine, kernel)
                }
            }
            SysKind::XU => {
                let machine = machine(cpus);
                let hv = Hypervisor::warm_up(&machine);
                hv.activate();
                // dom0's own filesystem sits at the disk tail.
                let (driver_kernel, dom0) =
                    boot_guest(&machine, &hv, "dom0", DRIVER_POOL_FRAMES, 1024, 10_000);
                attach_native(&machine, &driver_kernel).expect("bounce frame");
                let (kernel, domu) = host_domu(&machine, &hv, &dom0);
                TestBed {
                    hv: Some(hv),
                    driver_kernel: Some(driver_kernel),
                    dom: Some(domu),
                    ..TestBed::bare(kind, machine, kernel)
                }
            }
            SysKind::MU => {
                let host = TestBed::mercury(kind, cpus, DRIVER_POOL_FRAMES, paper);
                let mercury = host.mercury.as_ref().expect("a Mercury bed");
                // Self-virtualize (partial-virtual mode) to host a guest.
                switch_with_peers(&host.machine, mercury, true);
                let (kernel, domu) =
                    host_domu(&host.machine, &mercury.hypervisor(), mercury.dom0());
                TestBed {
                    driver_kernel: Some(Arc::clone(&host.kernel)),
                    dom: Some(domu),
                    kernel,
                    ..host
                }
            }
        }
    }

    /// An M-N testbed with an explicit frame-accounting strategy (the
    /// tracking-ablation and strategy-equivalence studies).
    pub fn build_mn_with_strategy(cpus: usize, strategy: TrackingStrategy) -> TestBed {
        TestBed::mercury(SysKind::MN, cpus, POOL_FRAMES, strategy)
    }

    /// A bed with nothing but a machine and the measured kernel on it.
    fn bare(kind: SysKind, machine: Arc<Machine>, kernel: Arc<Kernel>) -> TestBed {
        TestBed {
            kind,
            machine,
            kernel,
            hv: None,
            mercury: None,
            driver_kernel: None,
            dom: None,
        }
    }

    /// A Mercury bed, native: [`Stack::build`] at the beds' sizing.
    fn mercury(
        kind: SysKind,
        cpus: usize,
        pool_frames: usize,
        strategy: TrackingStrategy,
    ) -> TestBed {
        let config = NodeConfig {
            num_cpus: cpus,
            mem_frames: MEM_FRAMES,
            pool_frames,
            disk_sectors: DISK_SECTORS,
            fs_blocks: FS_BLOCKS,
        };
        let stack = Stack::build(&config, strategy, AssistMode::Software);
        attach_echo_host(&stack.machine);
        TestBed {
            hv: Some(stack.hv),
            mercury: Some(stack.mercury),
            ..TestBed::bare(kind, stack.machine, stack.kernel)
        }
    }

    /// A session on the measured kernel, CPU `cpu_id`.
    pub fn session(&self, cpu_id: usize) -> Session {
        Session::new(Arc::clone(&self.kernel), cpu_id)
    }

    /// Label for reports.
    pub fn label(&self) -> &'static str {
        self.kind.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus::kernel::{MmapBacking, ReadOutcome, RecvOutcome};
    use nimbus::mm::Prot;
    use nimbus::paravirt::ExecMode;

    /// Every configuration must run the same smoke workload and produce
    /// identical observable results — the cross-system behaviour
    /// consistency on which all relative measurements rest (§4.3).
    fn smoke(bed: &TestBed) -> (u64, usize, Vec<u8>) {
        let sess = bed.session(0);
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 42).unwrap();
        let child = sess.fork().unwrap();
        sess.poke(va, 43).unwrap();
        sess.sched_yield().unwrap();
        // In the child now: sees the pre-fork value.
        let child_view = sess.peek(va).unwrap();
        assert_eq!(sess.current_pid(), Some(child));
        let fd = sess.open("smoke.dat", true).unwrap();
        sess.write(fd, b"abcdef").unwrap();
        sess.lseek(fd, 2).unwrap();
        let data = match sess.read(fd, 3).unwrap() {
            ReadOutcome::Data(d) => d,
            other => panic!("{other:?}"),
        };
        let nfiles = sess.kernel().process_count();
        (child_view, nfiles, data)
    }

    #[test]
    fn all_six_systems_run_the_same_workload() {
        let mut results = Vec::new();
        for kind in ALL_SYSTEMS {
            let bed = TestBed::build(kind, 1);
            results.push((kind, smoke(&bed)));
        }
        let baseline = &results[0].1;
        for (kind, r) in &results {
            assert_eq!(r, baseline, "behaviour differs on {kind:?}");
        }
    }

    #[test]
    fn modes_are_as_expected() {
        assert_eq!(
            TestBed::build(SysKind::NL, 1).kernel.exec_mode(),
            ExecMode::Native
        );
        assert_eq!(
            TestBed::build(SysKind::MN, 1).kernel.exec_mode(),
            ExecMode::Native
        );
        let mv = TestBed::build(SysKind::MV, 1);
        assert_eq!(mv.kernel.exec_mode(), ExecMode::Virtual);
        assert!(mv.hv.as_ref().unwrap().is_active());
        let xu = TestBed::build(SysKind::XU, 1);
        assert_eq!(xu.kernel.exec_mode(), ExecMode::Virtual);
        assert!(xu
            .kernel
            .block_driver()
            .unwrap()
            .kind()
            .starts_with("frontend"));
        let mu = TestBed::build(SysKind::MU, 1);
        assert_eq!(mu.kernel.exec_mode(), ExecMode::Virtual);
        assert!(mu.mercury.is_some());
        assert_eq!(mu.hv.as_ref().unwrap().domains().len(), 2);
    }

    #[test]
    fn network_echo_works_on_split_io() {
        let bed = TestBed::build(SysKind::XU, 1);
        let sess = bed.session(0);
        let fd = sess.socket(4000).unwrap();
        sess.sendto(fd, 5000, b"probe").unwrap();
        match sess.recvfrom(fd).unwrap() {
            RecvOutcome::Datagram(src, data) => {
                assert_eq!(src, 5000);
                assert_eq!(data, b"probe");
            }
            other => panic!("{other:?}"),
        }
    }

    /// The frontends' payload buffers come out of the guest's pool: with
    /// the pool allocated dry, no mapping shares a frame with them.
    /// (They used to be the domain's last two frames, which the pool
    /// still had on its free list.)
    #[test]
    fn domu_payload_buffers_are_never_handed_to_a_mapping() {
        let bed = TestBed::build(SysKind::XU, 1);
        let sess = bed.session(0);
        let page = |p: u64| simx86::VirtAddr(p * simx86::PAGE_SIZE);
        let pages = DOMU_POOL_FRAMES as u64;
        let base = sess.mmap(pages, Prot::RW, MmapBacking::Anon).unwrap().0 / simx86::PAGE_SIZE;
        let mut touched = 0;
        while sess.poke(page(base + touched), touched + 1).is_ok() {
            touched += 1;
        }
        assert!(
            0 < touched && touched < pages,
            "pool not dry after {touched} pages"
        );
        sess.clear_signal();

        // A payload through each frontend lands in its buffer frame.
        let sock = sess.socket(4000).unwrap();
        sess.sendto(sock, 5000, &[0xAB; 512]).unwrap();
        let fd = sess.open("dry.dat", true).unwrap();
        sess.write(fd, &[0xCD; 4096]).unwrap();
        sess.sync().unwrap();
        for p in 0..touched {
            assert_eq!(
                sess.peek(page(base + p)).unwrap(),
                p + 1,
                "page {p} of {touched}"
            );
        }
    }

    #[test]
    fn smp_beds_have_two_cpus() {
        let bed = TestBed::build(SysKind::MV, 2);
        assert_eq!(bed.machine.num_cpus(), 2);
        assert_eq!(bed.kernel.exec_mode(), ExecMode::Virtual);
    }
}
