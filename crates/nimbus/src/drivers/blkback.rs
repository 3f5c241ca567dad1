//! The block backend: the driver-domain half of the split block device.
//!
//! Pops requests from the shared ring, maps the granted payload frame,
//! and services reads synchronously against the real disk.  Writes are
//! **early-acked**: the payload is captured into a host-side queue and
//! flushed later, off the request's latency path — the write-behind the
//! paper credits for domainU's dbench advantage, "though at the cost of
//! possible inconsistency during crash".

use crate::drivers::block::{BlockDriver, NativeBlockDriver};
use crate::error::KernelError;
use crate::fs::BLOCK_SIZE;
use simx86::mem::FrameNum;
use simx86::sync::Mutex;
use simx86::{costs, Cpu};
use std::sync::Arc;
use xenon::ring::{BlkOp, BlkRequest, BlkResponse, Ring};
use xenon::{DomId, Domain, Hypervisor};

/// Writes queued before the backend forces a flush itself.
pub const WRITE_QUEUE_LIMIT: usize = 256;

/// The backend.
pub struct BlkBackend {
    hv: Arc<Hypervisor>,
    /// The driver domain (domain0 / the self-virtualized OS).
    dom: Arc<Domain>,
    /// Frontend domain this backend serves.
    frontend: DomId,
    /// The real driver underneath.
    lower: Arc<NativeBlockDriver>,
    ring: Ring,
    write_queue: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl BlkBackend {
    /// Build a backend for `frontend`, running in `dom`, over `lower`.
    /// `ring_frame` must be zeroed shared memory both sides can reach.
    pub fn new(
        hv: Arc<Hypervisor>,
        dom: Arc<Domain>,
        frontend: DomId,
        lower: Arc<NativeBlockDriver>,
        ring_frame: FrameNum,
    ) -> Arc<BlkBackend> {
        Arc::new(BlkBackend {
            hv,
            dom,
            frontend,
            lower,
            ring: Ring::attach(ring_frame),
            write_queue: Mutex::new(Vec::new()),
        })
    }

    /// The shared ring (the frontend attaches to the same frame).
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// The backend's domain id (grant target for frontends).
    pub fn backend_dom_id(&self) -> DomId {
        self.dom.id
    }

    /// Writes captured but not yet flushed to the device.
    pub fn queued_writes(&self) -> usize {
        self.write_queue.lock().len()
    }

    /// Service every pending ring request.  Runs in driver-domain
    /// context; costs charge to `cpu`.
    pub fn process(&self, cpu: &Arc<Cpu>) -> Result<usize, KernelError> {
        let mem = &self.hv.machine.mem;
        let mut served = 0;
        while let Some(slot) = self.ring.pop_request(cpu, mem)? {
            let req = BlkRequest::decode(&slot).map_err(KernelError::from)?;
            let rsp = match self.serve(cpu, &req) {
                Ok(cost) => BlkResponse {
                    id: req.id,
                    ok: true,
                    cost,
                },
                Err(_) => BlkResponse {
                    id: req.id,
                    ok: false,
                    cost: 0,
                },
            };
            self.ring.push_response(cpu, mem, &rsp.encode())?;
            let _ = &self.hv; // evtchn notify back is implicit in the
                              // synchronous model; costs covered below.
            cpu.tick(costs::EVTCHN_NOTIFY);
            served += 1;
        }
        Ok(served)
    }

    /// Serve one request through its mapped grant.  The grant is
    /// unmapped whatever the request's outcome: a failed request that
    /// left it mapped would fail the frontend's revoke for good.
    fn serve(&self, cpu: &Arc<Cpu>, req: &BlkRequest) -> Result<u64, KernelError> {
        let (payload, _ro) = self.hv.grant_map(cpu, &self.dom, self.frontend, req.gref)?;
        let result = self.serve_mapped(cpu, req, payload);
        self.hv
            .grant_unmap(cpu, &self.dom, self.frontend, req.gref)?;
        result
    }

    fn serve_mapped(
        &self,
        cpu: &Arc<Cpu>,
        req: &BlkRequest,
        payload: FrameNum,
    ) -> Result<u64, KernelError> {
        let mem = &self.hv.machine.mem;
        let block = req.sector / (BLOCK_SIZE as u64 / 512);
        match req.op {
            BlkOp::Read => {
                // Check the write queue first (read-after-write must see
                // queued data).
                let queued = self
                    .write_queue
                    .lock()
                    .iter()
                    .rev()
                    .find(|(b, _)| *b == block)
                    .map(|(_, d)| d.clone());
                let mut buf = vec![0u8; BLOCK_SIZE];
                match queued {
                    Some(d) => {
                        cpu.tick(500);
                        buf.copy_from_slice(&d);
                    }
                    None => self.lower.read_block(cpu, block, &mut buf)?,
                }
                mem.write_bytes(payload.base(), &buf)?;
                cpu.tick(400); // copy into the granted frame
                Ok(0)
            }
            BlkOp::Write => {
                let mut buf = vec![0u8; BLOCK_SIZE];
                mem.read_bytes(payload.base(), &mut buf)?;
                cpu.tick(400); // copy out of the granted frame
                let mut q = self.write_queue.lock();
                q.push((block, buf));
                let over = q.len() > WRITE_QUEUE_LIMIT;
                drop(q);
                if over {
                    // pdflush-style: drain half, keep absorbing bursts.
                    self.flush_some(cpu, WRITE_QUEUE_LIMIT / 2)?;
                }
                Ok(0) // early ack: no device cost on the latency path
            }
            BlkOp::Flush => {
                self.flush(cpu)?;
                Ok(0)
            }
        }
    }

    /// Drain the write queue to the device (cost lands here).
    pub fn flush(&self, cpu: &Arc<Cpu>) -> Result<(), KernelError> {
        let n = self.write_queue.lock().len();
        self.flush_some(cpu, n)?;
        self.lower.flush(cpu)
    }

    /// Drain up to `n` oldest queued writes.
    pub fn flush_some(&self, cpu: &Arc<Cpu>, n: usize) -> Result<(), KernelError> {
        let drained: Vec<(u64, Vec<u8>)> = {
            let mut q = self.write_queue.lock();
            let n = n.min(q.len());
            q.drain(..n).collect()
        };
        for (block, data) in drained {
            self.lower.write_block(cpu, block, &data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::block::FrontendBlockDriver;
    use simx86::{Machine, MachineConfig};

    /// Full split-stack rig: dom0 with the native driver + backend,
    /// domU with a frontend.
    pub(super) fn rig() -> (
        Arc<Machine>,
        Arc<Hypervisor>,
        Arc<FrontendBlockDriver>,
        Arc<BlkBackend>,
    ) {
        let machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 4096,
        });
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();

        let q0 = machine.allocator.alloc_many(cpu, 8).unwrap();
        let dom0 = hv.create_domain(cpu, "dom0", q0, 0).unwrap();
        let qu = machine.allocator.alloc_many(cpu, 8).unwrap();
        let domu = hv.create_domain(cpu, "domU", qu, 0).unwrap();

        let bounce = dom0.frames()[0];
        let lower = NativeBlockDriver::new(Arc::clone(&machine), bounce);
        let ring_frame = hv.take_reserved(1).unwrap()[0];
        machine.mem.zero_frame(cpu, ring_frame).unwrap();
        let backend = BlkBackend::new(
            Arc::clone(&hv),
            Arc::clone(&dom0),
            domu.id,
            lower,
            ring_frame,
        );

        let port_b = hv.evtchn_alloc(cpu, &dom0).unwrap();
        let port_f = hv.evtchn_bind(cpu, &domu, dom0.id, port_b).unwrap();
        let buf = domu.frames()[0];
        let frontend = FrontendBlockDriver::new(
            Arc::clone(&hv),
            Arc::clone(&domu),
            Arc::clone(&backend),
            buf,
            port_f,
        );
        (machine, hv, frontend, backend)
    }

    #[test]
    fn split_stack_read_write_roundtrip() {
        let (machine, _hv, frontend, backend) = rig();
        let cpu = machine.boot_cpu();
        let data = vec![0xabu8; BLOCK_SIZE];
        frontend.write_block(cpu, 7, &data).unwrap();
        // Early ack: nothing on the platter yet.
        assert_eq!(backend.queued_writes(), 1);
        assert_ne!(machine.disk.read_raw(7 * 8, 4), vec![0xab; 4]);

        // Read-after-write sees the queued data.
        let mut out = vec![0u8; BLOCK_SIZE];
        frontend.read_block(cpu, 7, &mut out).unwrap();
        assert_eq!(out, data);

        // Flush makes it durable.
        frontend.flush(cpu).unwrap();
        assert_eq!(backend.queued_writes(), 0);
        assert_eq!(machine.disk.read_raw(7 * 8, 4), vec![0xab; 4]);
    }

    /// A read the backend serves between two pre-copy rounds lands in
    /// the frontend's granted frame by a copy no translation sees; the
    /// frame's stamp ships it, so the migrated frame holds the block.
    #[test]
    fn a_blkback_read_between_rounds_is_shipped() {
        let (machine, hv, frontend, backend) = rig();
        let (target, target_hv) = {
            let m = Machine::new(MachineConfig {
                num_cpus: 1,
                mem_frames: 2048,
                disk_sectors: 64,
            });
            let hv = Hypervisor::warm_up(&m);
            hv.activate();
            (m, hv)
        };
        let cpu = machine.boot_cpu();
        let block = vec![0x5a_u8; BLOCK_SIZE];
        machine.disk.write_raw(7 * 8, &block);
        let domu = hv.domain(backend.frontend).unwrap();
        let buf = domu.frames()[0];
        let mut migration = xenon::migrate::LiveMigration::new(Arc::clone(&hv), domu);
        migration.round(cpu).unwrap();

        let mut out = vec![0u8; BLOCK_SIZE];
        frontend.read_block(cpu, 7, &mut out).unwrap();
        assert_eq!(out, block);
        let (_, report) = migration.finalize(cpu, &target_hv).unwrap();

        let moved = FrameNum(report.frame_map[&buf.0]);
        let mut landed = vec![0u8; BLOCK_SIZE];
        target.mem.read_bytes(moved.base(), &mut landed).unwrap();
        assert!(
            landed == block,
            "the target holds round 0's copy of the frame"
        );
    }

    #[test]
    fn frontend_write_is_cheaper_than_native_write() {
        let (machine, _hv, frontend, _backend) = rig();
        let cpu = machine.boot_cpu();
        let data = vec![1u8; BLOCK_SIZE];

        let t0 = cpu.cycles();
        frontend.write_block(cpu, 3, &data).unwrap();
        let frontend_cost = cpu.cycles() - t0;

        let bounce = machine.allocator.alloc(cpu).unwrap();
        let native = NativeBlockDriver::new(Arc::clone(&machine), bounce);
        let t0 = cpu.cycles();
        native.write_block(cpu, 4, &data).unwrap();
        let native_cost = cpu.cycles() - t0;

        assert!(
            frontend_cost < native_cost,
            "early-acked split write ({frontend_cost}) must beat synchronous native write ({native_cost})"
        );
    }

    #[test]
    fn grants_are_returned_after_each_request() {
        let (machine, hv, frontend, _backend) = rig();
        let cpu = machine.boot_cpu();
        let mut out = vec![0u8; BLOCK_SIZE];
        frontend.read_block(cpu, 1, &mut out).unwrap();
        frontend.read_block(cpu, 2, &mut out).unwrap();
        // All grants revoked: none outstanding for the frontend domain.
        assert_eq!(hv.grants.outstanding(xenon::DomId(1)), 0);
    }

    /// A request the disk refuses comes back `BadAddress`, and its grant
    /// is unmapped as a served one's is: the frontend's revoke succeeds,
    /// so the ref is gone for a later map.
    #[test]
    fn a_failed_request_returns_its_grant() {
        let (machine, hv, frontend, backend) = rig();
        let cpu = machine.boot_cpu();
        let mut out = vec![0u8; BLOCK_SIZE];
        // Block 1 000 starts past the rig's 4 096-sector disk.
        assert_eq!(
            frontend.read_block(cpu, 1_000, &mut out),
            Err(KernelError::BadAddress)
        );
        frontend.read_block(cpu, 1, &mut out).unwrap();
        assert_eq!(hv.grants.outstanding(backend.frontend), 0);
        for gref in [0, 1] {
            assert_eq!(
                hv.grant_map(cpu, &backend.dom, backend.frontend, gref),
                Err(xenon::HvError::BadGrant("no such grant"))
            );
        }
    }

    #[test]
    fn queue_limit_forces_flush() {
        let (machine, _hv, frontend, backend) = rig();
        let cpu = machine.boot_cpu();
        let data = vec![2u8; BLOCK_SIZE];
        for b in 0..(WRITE_QUEUE_LIMIT as u64 + 2) {
            frontend.write_block(cpu, b % 256, &data).unwrap();
        }
        assert!(backend.queued_writes() <= WRITE_QUEUE_LIMIT);
    }
}

#[cfg(test)]
mod crash_window_tests {
    use super::tests::rig;
    use super::*;

    /// The paper's caveat about the split model's write-behind: "though
    /// at the cost of possible inconsistency during crash."  Model the
    /// crash window at the device level: data a native driver has
    /// written is on the platter; data the backend early-acked is not —
    /// until a flush closes the window.
    #[test]
    fn early_acked_writes_are_lost_in_the_crash_window() {
        let (machine, _hv, frontend, backend) = rig();
        let cpu = machine.boot_cpu();

        // Native path (what domain0/native Linux does): durable at ack.
        let bounce = machine.allocator.alloc(cpu).unwrap();
        let native = NativeBlockDriver::new(Arc::clone(&machine), bounce);
        native
            .write_block(cpu, 10, &vec![0xAAu8; BLOCK_SIZE])
            .unwrap();
        assert_eq!(machine.disk.read_raw(10 * 8, 2), vec![0xAA, 0xAA]);

        // Split path: acked but NOT durable.
        frontend
            .write_block(cpu, 11, &vec![0xBBu8; BLOCK_SIZE])
            .unwrap();
        assert_ne!(machine.disk.read_raw(11 * 8, 2), vec![0xBB, 0xBB]);
        assert_eq!(backend.queued_writes(), 1);

        // Power loss now would lose block 11 but keep block 10: that is
        // the inconsistency window.  A flush closes it.
        frontend.flush(cpu).unwrap();
        assert_eq!(machine.disk.read_raw(11 * 8, 2), vec![0xBB, 0xBB]);
    }
}
