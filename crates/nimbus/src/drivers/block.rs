//! Block drivers: the native driver and the split-model frontend.

use crate::drivers::blkback::BlkBackend;
use crate::error::KernelError;
use crate::fs::BLOCK_SIZE;
use simx86::devices::{DiskOp, DiskRequest};
use simx86::mem::FrameNum;
use simx86::{costs, Cpu, Machine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xenon::ring::{BlkOp, BlkRequest, BlkResponse, Ring};
use xenon::{Domain, Hypervisor};

/// Sectors per filesystem block.
pub const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / 512) as u64;

/// The kernel's view of a block device.
pub trait BlockDriver: Send + Sync {
    /// Read one filesystem block into `out` (must be `BLOCK_SIZE`).
    fn read_block(&self, cpu: &Arc<Cpu>, block: u64, out: &mut [u8]) -> Result<(), KernelError>;
    /// Write one filesystem block.
    fn write_block(&self, cpu: &Arc<Cpu>, block: u64, data: &[u8]) -> Result<(), KernelError>;
    /// Make all completed writes durable.
    fn flush(&self, cpu: &Arc<Cpu>) -> Result<(), KernelError>;
    /// Driver flavour (diagnostics).
    fn kind(&self) -> &'static str;
}

// ===========================================================================
// Native driver
// ===========================================================================

/// Direct driver over the machine's disk.  Requests are synchronous:
/// the full device service cost lands on the calling CPU — which is why
/// write-heavy workloads behave differently here than behind the
/// early-acking split driver.
pub struct NativeBlockDriver {
    machine: Arc<Machine>,
    bounce: FrameNum,
    next_id: AtomicU64,
}

impl NativeBlockDriver {
    /// A driver using `bounce` as its DMA buffer (one frame, owned by
    /// the kernel that creates the driver).
    pub fn new(machine: Arc<Machine>, bounce: FrameNum) -> Arc<NativeBlockDriver> {
        Arc::new(NativeBlockDriver {
            machine,
            bounce,
            next_id: AtomicU64::new(1),
        })
    }

    fn do_io(&self, cpu: &Arc<Cpu>, op: DiskOp, block: u64) -> Result<(), KernelError> {
        // A de-privileged driver domain's doorbell/port accesses trap
        // into the VMM (§3.2.4): the cost behind domain0's I/O losses.
        // In non-root (hardware-assisted) mode the same accesses cost a
        // VM exit + re-entry instead.
        if cpu.in_non_root() {
            cpu.tick(costs::VMEXIT + costs::VMENTRY);
        } else if cpu.pl() != simx86::PrivLevel::Pl0 {
            cpu.tick(costs::IO_PRIV_TRAP);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.machine.disk.submit(DiskRequest {
            id,
            op,
            sector: block * SECTORS_PER_BLOCK,
            count: SECTORS_PER_BLOCK as u32,
            pa: self.bounce.base(),
        });
        self.machine
            .disk
            .pump(&self.machine.mem, &self.machine.intc);
        loop {
            match self.machine.disk.reap() {
                Some(c) if c.id == id => {
                    cpu.tick(c.cost);
                    return if c.ok {
                        Ok(())
                    } else {
                        Err(KernelError::BadAddress)
                    };
                }
                Some(_) => continue, // someone else's completion: drop (single-owner disk)
                None => return Err(KernelError::Invalid("disk lost a request")),
            }
        }
    }
}

impl BlockDriver for NativeBlockDriver {
    fn read_block(&self, cpu: &Arc<Cpu>, block: u64, out: &mut [u8]) -> Result<(), KernelError> {
        debug_assert_eq!(out.len(), BLOCK_SIZE);
        self.do_io(cpu, DiskOp::Read, block)?;
        self.machine.mem.read_bytes(self.bounce.base(), out)?;
        Ok(())
    }

    fn write_block(&self, cpu: &Arc<Cpu>, block: u64, data: &[u8]) -> Result<(), KernelError> {
        debug_assert_eq!(data.len(), BLOCK_SIZE);
        self.machine.mem.write_bytes(self.bounce.base(), data)?;
        self.do_io(cpu, DiskOp::Write, block)
    }

    fn flush(&self, _cpu: &Arc<Cpu>) -> Result<(), KernelError> {
        Ok(()) // writes are synchronous at this layer
    }

    fn kind(&self) -> &'static str {
        "native-blk"
    }
}

// ===========================================================================
// Frontend driver
// ===========================================================================

/// The split-model frontend: forwards block I/O to a [`BlkBackend`] in
/// the driver domain through a shared-memory ring, granting the payload
/// frame per request (§5.2).
pub struct FrontendBlockDriver {
    hv: Arc<Hypervisor>,
    dom: Arc<Domain>,
    backend: Arc<BlkBackend>,
    ring: Ring,
    /// Payload frame, owned by the frontend's domain.
    buf: FrameNum,
    evtchn_port: u32,
    next_id: AtomicU64,
}

impl FrontendBlockDriver {
    /// Connect a frontend for `dom` to `backend`.  `buf` must be a frame
    /// owned by `dom`; the ring lives in the backend's shared frame.
    pub fn new(
        hv: Arc<Hypervisor>,
        dom: Arc<Domain>,
        backend: Arc<BlkBackend>,
        buf: FrameNum,
        evtchn_port: u32,
    ) -> Arc<FrontendBlockDriver> {
        Arc::new(FrontendBlockDriver {
            ring: backend.ring(),
            hv,
            dom,
            backend,
            buf,
            evtchn_port,
            next_id: AtomicU64::new(1),
        })
    }

    fn roundtrip(&self, cpu: &Arc<Cpu>, op: BlkOp, block: u64) -> Result<BlkResponse, KernelError> {
        let backend = &self.backend;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let gref = self
            .hv
            .grant(cpu, &self.dom, backend.backend_dom_id(), self.buf, false)?;
        let req = BlkRequest {
            id,
            op,
            sector: block * SECTORS_PER_BLOCK,
            count: SECTORS_PER_BLOCK as u32,
            gref,
        };
        self.ring
            .push_request(cpu, &self.hv.machine.mem, &req.encode())?;
        let _ = self.hv.evtchn_send(cpu, &self.dom, self.evtchn_port);
        // The backend runs in the driver domain; on the paper's testbed
        // both share the physical CPU, so its work is charged here.
        backend.process(cpu)?;
        let rsp = self
            .ring
            .pop_response(cpu, &self.hv.machine.mem)?
            .ok_or(KernelError::Invalid("backend produced no response"))?;
        let rsp = BlkResponse::decode(&rsp);
        self.hv
            .grant_revoke(cpu, &self.dom, gref)
            .map_err(KernelError::from)?;
        if rsp.ok {
            Ok(rsp)
        } else {
            Err(KernelError::BadAddress)
        }
    }
}

impl BlockDriver for FrontendBlockDriver {
    fn read_block(&self, cpu: &Arc<Cpu>, block: u64, out: &mut [u8]) -> Result<(), KernelError> {
        debug_assert_eq!(out.len(), BLOCK_SIZE);
        let rsp = self.roundtrip(cpu, BlkOp::Read, block)?;
        // Reads are synchronous end to end: the device cost is real.
        cpu.tick(rsp.cost);
        self.hv.machine.mem.read_bytes(self.buf.base(), out)?;
        cpu.tick(400); // copy out of the shared buffer
        Ok(())
    }

    fn write_block(&self, cpu: &Arc<Cpu>, block: u64, data: &[u8]) -> Result<(), KernelError> {
        debug_assert_eq!(data.len(), BLOCK_SIZE);
        self.hv.machine.mem.write_bytes(self.buf.base(), data)?;
        cpu.tick(400); // copy into the shared buffer
        let rsp = self.roundtrip(cpu, BlkOp::Write, block)?;
        // Writes are acked by the backend before hitting the platter:
        // rsp.cost is zero here and the flush pays later.  This is the
        // §7.3 dbench effect.
        cpu.tick(rsp.cost);
        Ok(())
    }

    fn flush(&self, cpu: &Arc<Cpu>) -> Result<(), KernelError> {
        self.backend.flush(cpu)
    }

    fn kind(&self) -> &'static str {
        "frontend-blk"
    }
}
