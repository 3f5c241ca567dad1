//! One simulated node: machine, warm hypervisor, Mercury-enabled
//! kernel, and a session on its only CPU.  Sized like the cluster
//! crate's default node so numbers line up with the serving layer.

use mercury::{ExecMode, Mercury, SwitchOutcome, TrackingStrategy};
use nimbus::drivers::block::NativeBlockDriver;
use nimbus::drivers::net::NativeNetDriver;
use nimbus::kernel::{BootMode, KernelConfig, MmapBacking};
use nimbus::mm::Prot;
use nimbus::{Kernel, Session};
use simx86::devices::EchoWire;
use simx86::paging::{VirtAddr, PAGE_SIZE};
use simx86::{Cpu, Machine, MachineConfig};
use std::sync::Arc;
use xenon::Hypervisor;

const MEM_FRAMES: usize = 16 * 1024;
const POOL_FRAMES: usize = 6 * 1024;
const DISK_SECTORS: u64 = 64 * 1024;
const FS_BLOCKS: u64 = 4096;
/// The echo host's port: datagrams sent there come straight back.
pub const ECHO_PORT: u16 = 50_000;
/// lmbench `lat_proc`'s dirtied heap: what a fork has to duplicate.
pub const WORKING_SET_PAGES: u64 = 380;

pub fn page(va: VirtAddr, index: u64) -> VirtAddr {
    VirtAddr(va.0 + index * PAGE_SIZE)
}

pub struct Rig {
    pub machine: Arc<Machine>,
    pub mercury: Arc<Mercury>,
    pub sess: Session,
}

impl Rig {
    /// Power on, warm the dormant VMM, boot natively, install Mercury,
    /// and wire the NIC to an in-process echo host whose reply swaps
    /// the port header so it lands on the sender.
    pub fn build(strategy: TrackingStrategy) -> Rig {
        let machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: MEM_FRAMES,
            disk_sectors: DISK_SECTORS,
        });
        let hv = Hypervisor::warm_up(&machine);
        let cpu = machine.boot_cpu();
        let pool = machine
            .allocator
            .alloc_many(cpu, POOL_FRAMES)
            .expect("machine sized for the kernel pool");
        let kernel = Kernel::boot(
            Arc::clone(&machine),
            KernelConfig {
                pool,
                mode: BootMode::Bare,
                fs_blocks: FS_BLOCKS,
                fs_first_block: 1,
            },
        )
        .expect("kernel boot");
        let bounce = machine.allocator.alloc(cpu).expect("bounce frame");
        kernel.set_block_driver(NativeBlockDriver::new(Arc::clone(&machine), bounce));
        kernel.set_net_driver(NativeNetDriver::new(Arc::clone(&machine)));
        let mercury = Mercury::install(Arc::clone(&kernel), hv, strategy).expect("mercury install");
        machine.nic.connect(Arc::new(EchoWire::with_transform(
            Arc::clone(&machine.nic),
            Arc::clone(&machine.intc),
            |pkt| {
                let mut out = pkt.to_vec();
                if out.len() >= 4 {
                    out.swap(0, 2);
                    out.swap(1, 3);
                }
                out
            },
        )));
        let sess = Session::new(kernel, 0);
        Rig {
            machine,
            mercury,
            sess,
        }
    }

    pub fn cpu(&self) -> &Arc<Cpu> {
        self.sess.cpu()
    }

    /// Map `pages` anonymous pages and write page `p`'s number into it.
    pub fn map_dirty(&self, pages: u64) -> VirtAddr {
        let va = self
            .sess
            .mmap(pages, Prot::RW, MmapBacking::Anon)
            .expect("map pages");
        for p in 0..pages {
            self.sess.poke(page(va, p), p).expect("dirty page");
        }
        va
    }

    /// Request a switch and return the cycles it took.  Anything but a
    /// completed switch (already there, deferred, error) is an error:
    /// on one host thread nothing can hold the VO busy.
    pub fn switch_to(&self, target: ExecMode) -> Result<u64, String> {
        let cpu = self.cpu();
        let outcome = match target {
            ExecMode::Virtual => self.mercury.switch_to_virtual(cpu),
            ExecMode::Native => self.mercury.switch_to_native(cpu),
        };
        match outcome {
            Ok(SwitchOutcome::Completed { cycles }) if self.mercury.mode() == target => Ok(cycles),
            other => Err(format!("switch to {target:?}: {other:?}")),
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // The echo wire holds the NIC that holds the wire; a rig is
        // built several times per run, so break the cycle.
        self.machine.nic.disconnect();
    }
}
