//! Device drivers, in both shapes of the paper's §5.2:
//!
//! * **Native** drivers touch the simulated hardware directly — what a
//!   bare kernel or the driver domain (domain0) uses.
//! * **Frontend** drivers forward requests to a **backend** in the
//!   driver domain over grant-backed shared-memory rings — what a
//!   production domain (domainU) uses.
//!
//! Each shape is wired to a kernel in one place: [`attach_native`]
//! after a boot, a restore or a return home, [`connect_split`] for a
//! domU, a migrated-in guest or a hosted tenant — with the
//! [`SplitDevices`] handles the departure path drains and reclaims.

pub mod blkback;
pub mod block;
pub mod net;
pub mod netback;

pub use blkback::BlkBackend;
pub use block::{BlockDriver, FrontendBlockDriver, NativeBlockDriver};
pub use net::{FrontendNetDriver, NativeNetDriver, NetDriver};
pub use netback::NetBackend;

use crate::error::KernelError;
use crate::Kernel;
use simx86::mem::FrameNum;
use simx86::Machine;
use std::sync::Arc;
use xenon::{Domain, HvError, Hypervisor};

/// Give `kernel` the native drivers of the machine it runs on — the
/// shape of a bare kernel or a driver domain.  The block driver's
/// bounce frame comes off the machine's allocator (not the kernel's
/// pool) and is returned, so the caller can give it back.
pub fn attach_native(machine: &Arc<Machine>, kernel: &Kernel) -> Result<FrameNum, KernelError> {
    let bounce = machine
        .allocator
        .alloc(machine.boot_cpu())
        .ok_or(KernelError::NoMem)?;
    kernel.set_block_driver(NativeBlockDriver::new(Arc::clone(machine), bounce));
    kernel.set_net_driver(NativeNetDriver::new(Arc::clone(machine)));
    Ok(bounce)
}

/// The host-side half of a guest's split devices: the backends (shared
/// with the guest's frontends) plus the host resources they sit on,
/// kept so a departure can quiesce the backends and reclaim the frames.
pub struct SplitDevices {
    /// The block backend in the host's driver domain.
    pub blk: Arc<BlkBackend>,
    /// The network backend in the host's driver domain.
    pub net: Arc<NetBackend>,
    /// Ring frames taken from the host hypervisor's reserved pool.
    ring_frames: Vec<FrameNum>,
    /// Bounce frame the block backend's lower native driver DMAs through.
    host_bounce: FrameNum,
    /// Payload frames the frontends grant per request (block, then
    /// network), out of the guest kernel's own pool.
    guest_bufs: [FrameNum; 2],
}

impl SplitDevices {
    /// The frontends' payload frames (block, then network) — the
    /// guest's to free once it drives its devices some other way.
    pub fn guest_bufs(&self) -> [FrameNum; 2] {
        self.guest_bufs
    }

    /// The guest has left `host`: the ring frames go back to `hv`'s
    /// reserve and the bounce frame to the machine's allocator.
    pub fn reclaim(self, host: &Machine, hv: &Hypervisor) {
        hv.give_reserved(self.ring_frames);
        host.allocator.free(self.host_bounce);
    }
}

/// Wire `guest_kernel` (running as `guest_dom`) to fresh backends in
/// `host_dom`, the driver domain of `host` (§5.2): one ring frame per
/// device from `hv`'s reserve, an event channel each, a bounce frame
/// for the block backend's native lower half, and — always — payload
/// buffers out of the guest's own pool.  (A domain's highest frames are
/// not free memory: after a migration they are whatever the relocation
/// put there.)
pub fn connect_split(
    host: &Arc<Machine>,
    hv: &Arc<Hypervisor>,
    host_dom: &Arc<Domain>,
    guest_kernel: &Kernel,
    guest_dom: &Arc<Domain>,
) -> Result<SplitDevices, KernelError> {
    let cpu = host.boot_cpu();
    let ring_frames = hv.take_reserved(2)?;
    for f in &ring_frames {
        host.mem.zero_frame(cpu, *f).map_err(HvError::from)?;
    }
    let blk_buf = guest_kernel.alloc_driver_frame(cpu)?;
    let net_buf = guest_kernel.alloc_driver_frame(cpu)?;
    let host_bounce = host.allocator.alloc(cpu).ok_or(HvError::OutOfMemory)?;
    // One event channel per device: allocated in the host's domain,
    // bound from the guest's; the frontend keeps the guest-side port.
    let channel = || {
        let port = hv.evtchn_alloc(cpu, host_dom)?;
        hv.evtchn_bind(cpu, guest_dom, host_dom.id, port)
    };

    let blk = BlkBackend::new(
        Arc::clone(hv),
        Arc::clone(host_dom),
        guest_dom.id,
        NativeBlockDriver::new(Arc::clone(host), host_bounce),
        ring_frames[0],
    );
    guest_kernel.set_block_driver(FrontendBlockDriver::new(
        Arc::clone(hv),
        Arc::clone(guest_dom),
        Arc::clone(&blk),
        blk_buf,
        channel()?,
    ));

    let net = NetBackend::new(
        Arc::clone(hv),
        Arc::clone(host_dom),
        guest_dom.id,
        NativeNetDriver::new(Arc::clone(host)),
        ring_frames[1],
    );
    guest_kernel.set_net_driver(FrontendNetDriver::new(
        Arc::clone(hv),
        Arc::clone(guest_dom),
        Arc::clone(&net),
        net_buf,
        channel()?,
    ));
    Ok(SplitDevices {
        blk,
        net,
        ring_frames,
        host_bounce,
        guest_bufs: [blk_buf, net_buf],
    })
}
