//! Building the six measured system configurations.

use mercury::{Mercury, SwitchOutcome, TrackingStrategy};
use nimbus::drivers::blkback::BlkBackend;
use nimbus::drivers::block::{FrontendBlockDriver, NativeBlockDriver};
use nimbus::drivers::net::{FrontendNetDriver, NativeNetDriver};
use nimbus::drivers::netback::NetBackend;
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

    /// Does this configuration use split (frontend/backend) I/O?
    pub fn split_io(&self) -> bool {
        matches!(self, SysKind::XU | SysKind::MU)
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

fn machine(cpus: usize) -> Arc<Machine> {
    let m = Machine::new(MachineConfig {
        num_cpus: cpus,
        mem_frames: 16 * 1024,
        disk_sectors: 96 * 1024,
    });
    // Benchmarks that need a peer (ping/Iperf) get an echo host that
    // swaps the port header so replies land on the sender's socket.
    m.nic.connect(Arc::new(EchoWire::with_transform(
        Arc::clone(&m.nic),
        Arc::clone(&m.intc),
        |pkt| {
            let mut out = pkt.to_vec();
            if out.len() >= 4 {
                out.swap(0, 2);
                out.swap(1, 3);
            }
            out
        },
    )));
    m
}

fn boot_kernel(machine: &Arc<Machine>, pool_frames: usize, mode: BootMode) -> Arc<Kernel> {
    let cpu = machine.boot_cpu();
    let pool = machine
        .allocator
        .alloc_many(cpu, pool_frames)
        .expect("machine too small");
    Kernel::boot(
        Arc::clone(machine),
        KernelConfig {
            pool,
            mode,
            fs_blocks: 8 * 1024,
            fs_first_block: 1,
        },
    )
    .expect("kernel boot failed")
}

fn attach_native_drivers(machine: &Arc<Machine>, kernel: &Arc<Kernel>) {
    let cpu = machine.boot_cpu();
    let bounce = machine.allocator.alloc(cpu).expect("bounce frame");
    kernel.set_block_driver(NativeBlockDriver::new(Arc::clone(machine), bounce));
    kernel.set_net_driver(NativeNetDriver::new(Arc::clone(machine)));
}

/// Boot a domU kernel with frontend drivers connected to backends in
/// `driver_kernel` (the driver domain).
fn host_domu(
    machine: &Arc<Machine>,
    hv: &Arc<Hypervisor>,
    driver_dom: &Arc<Domain>,
) -> (Arc<Kernel>, Arc<Domain>) {
    let cpu = machine.boot_cpu();
    let quota = machine
        .allocator
        .alloc_many(cpu, DOMU_POOL_FRAMES)
        .expect("machine too small for domU");
    let domu = hv
        .create_domain(cpu, "domU", quota.clone(), 0)
        .expect("domU creation failed");
    let kernel = Kernel::boot(
        Arc::clone(machine),
        KernelConfig {
            pool: quota,
            mode: BootMode::Guest {
                hv: Arc::clone(hv),
                dom: Arc::clone(&domu),
            },
            fs_blocks: 8 * 1024,
            fs_first_block: 1,
        },
    )
    .expect("domU kernel boot failed");

    // Split devices (§5.2): rings in shared VMM memory, payload frames
    // granted per request from the domU's own pool.
    let ring_frames = hv.take_reserved(2).expect("ring frames");
    for f in &ring_frames {
        machine.mem.zero_frame(cpu, *f).expect("zero ring");
    }
    let host_bounce = machine.allocator.alloc(cpu).expect("backend bounce");
    let blk_lower = NativeBlockDriver::new(Arc::clone(machine), host_bounce);
    let blk_back = BlkBackend::new(
        Arc::clone(hv),
        Arc::clone(driver_dom),
        domu.id,
        blk_lower,
        ring_frames[0],
    );
    let p = hv.evtchn_alloc(cpu, driver_dom).expect("evtchn");
    let pf = hv.evtchn_bind(cpu, &domu, driver_dom.id, p).expect("bind");
    // Payload buffers come from the domU's own memory, through its pool.
    let blk_buf = kernel.alloc_driver_frame(cpu).expect("blk payload frame");
    let net_buf = kernel.alloc_driver_frame(cpu).expect("net payload frame");
    kernel.set_block_driver(FrontendBlockDriver::new(
        Arc::clone(hv),
        Arc::clone(&domu),
        blk_back,
        blk_buf,
        pf,
    ));

    let net_lower = NativeNetDriver::new(Arc::clone(machine));
    let net_back = NetBackend::new(
        Arc::clone(hv),
        Arc::clone(driver_dom),
        domu.id,
        net_lower,
        ring_frames[1],
    );
    let p = hv.evtchn_alloc(cpu, driver_dom).expect("evtchn");
    let pf = hv.evtchn_bind(cpu, &domu, driver_dom.id, p).expect("bind");
    kernel.set_net_driver(FrontendNetDriver::new(
        Arc::clone(hv),
        Arc::clone(&domu),
        net_back,
        net_buf,
        pf,
    ));

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
        match kind {
            SysKind::NL => {
                let machine = machine(cpus);
                let kernel = boot_kernel(&machine, POOL_FRAMES, BootMode::Bare);
                attach_native_drivers(&machine, &kernel);
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
            // The paper's Mercury: recompute on switch.
            SysKind::MN | SysKind::MV => {
                let bed =
                    TestBed::build_mn_with_strategy(cpus, TrackingStrategy::RecomputeOnSwitch);
                if kind == SysKind::MV {
                    let mercury = bed.mercury.as_ref().expect("M-N testbed has mercury");
                    switch_with_peers(&bed.machine, mercury, true);
                }
                TestBed { kind, ..bed }
            }
            SysKind::X0 => {
                let machine = machine(cpus);
                let hv = Hypervisor::warm_up(&machine);
                hv.activate();
                let cpu = machine.boot_cpu();
                let quota = machine
                    .allocator
                    .alloc_many(cpu, POOL_FRAMES)
                    .expect("machine too small");
                let dom0 = hv
                    .create_domain(cpu, "dom0", quota.clone(), 0)
                    .expect("dom0 creation failed");
                let kernel = Kernel::boot(
                    Arc::clone(&machine),
                    KernelConfig {
                        pool: quota,
                        mode: BootMode::Guest {
                            hv: Arc::clone(&hv),
                            dom: Arc::clone(&dom0),
                        },
                        fs_blocks: 8 * 1024,
                        fs_first_block: 1,
                    },
                )
                .expect("dom0 kernel boot failed");
                attach_native_drivers(&machine, &kernel);
                TestBed {
                    kind,
                    machine,
                    kernel,
                    hv: Some(hv),
                    mercury: None,
                    driver_kernel: None,
                    dom: Some(dom0),
                }
            }
            SysKind::XU => {
                let machine = machine(cpus);
                let hv = Hypervisor::warm_up(&machine);
                hv.activate();
                let cpu = machine.boot_cpu();
                let quota = machine
                    .allocator
                    .alloc_many(cpu, DRIVER_POOL_FRAMES)
                    .expect("machine too small");
                let dom0 = hv
                    .create_domain(cpu, "dom0", quota.clone(), 0)
                    .expect("dom0 creation failed");
                let driver_kernel = Kernel::boot(
                    Arc::clone(&machine),
                    KernelConfig {
                        pool: quota,
                        mode: BootMode::Guest {
                            hv: Arc::clone(&hv),
                            dom: Arc::clone(&dom0),
                        },
                        fs_blocks: 1024,
                        fs_first_block: 10_000, // dom0's own fs at the disk tail
                    },
                )
                .expect("dom0 kernel boot failed");
                attach_native_drivers(&machine, &driver_kernel);
                let (kernel, domu) = host_domu(&machine, &hv, &dom0);
                TestBed {
                    kind,
                    machine,
                    kernel,
                    hv: Some(hv),
                    mercury: None,
                    driver_kernel: Some(driver_kernel),
                    dom: Some(domu),
                }
            }
            SysKind::MU => {
                let machine = machine(cpus);
                let hv = Hypervisor::warm_up(&machine);
                let host_kernel = boot_kernel(&machine, DRIVER_POOL_FRAMES, BootMode::Bare);
                attach_native_drivers(&machine, &host_kernel);
                let mercury = Mercury::install(
                    Arc::clone(&host_kernel),
                    Arc::clone(&hv),
                    TrackingStrategy::RecomputeOnSwitch,
                )
                .expect("mercury install failed");
                // Self-virtualize (partial-virtual mode) to host a guest.
                switch_with_peers(&machine, &mercury, true);
                let (kernel, domu) = host_domu(&machine, &hv, mercury.dom0());
                TestBed {
                    kind,
                    machine,
                    kernel,
                    hv: Some(hv),
                    mercury: Some(mercury),
                    driver_kernel: Some(host_kernel),
                    dom: Some(domu),
                }
            }
        }
    }

    /// An M-N testbed with an explicit frame-accounting strategy (the
    /// tracking-ablation and strategy-equivalence studies).
    pub fn build_mn_with_strategy(cpus: usize, strategy: TrackingStrategy) -> TestBed {
        let machine = machine(cpus);
        let hv = Hypervisor::warm_up(&machine);
        let kernel = boot_kernel(&machine, POOL_FRAMES, BootMode::Bare);
        attach_native_drivers(&machine, &kernel);
        let mercury = Mercury::install(Arc::clone(&kernel), Arc::clone(&hv), strategy)
            .expect("mercury install failed");
        TestBed {
            kind: SysKind::MN,
            machine,
            kernel,
            hv: Some(hv),
            mercury: Some(mercury),
            driver_kernel: None,
            dom: None,
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
        assert!(0 < touched && touched < pages, "pool not dry after {touched} pages");
        sess.clear_signal();

        // A payload through each frontend lands in its buffer frame.
        let sock = sess.socket(4000).unwrap();
        sess.sendto(sock, 5000, &[0xAB; 512]).unwrap();
        let fd = sess.open("dry.dat", true).unwrap();
        sess.write(fd, &[0xCD; 4096]).unwrap();
        sess.sync().unwrap();
        for p in 0..touched {
            assert_eq!(sess.peek(page(base + p)).unwrap(), p + 1, "page {p} of {touched}");
        }
    }

    #[test]
    fn smp_beds_have_two_cpus() {
        let bed = TestBed::build(SysKind::MV, 2);
        assert_eq!(bed.machine.num_cpus(), 2);
        assert_eq!(bed.kernel.exec_mode(), ExecMode::Virtual);
    }
}
