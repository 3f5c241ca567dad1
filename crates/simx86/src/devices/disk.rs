//! A sector-addressed disk with DMA into simulated physical memory.
//!
//! Requests are queued by a driver and completed by `pump`, which
//! performs the DMA, computes the request's service cost, and raises the
//! DISK vector.  The *driver* decides whom to charge the cost to — a
//! synchronous native driver charges the waiting CPU, while Xenon's
//! backend can complete writes early and absorb the flush cost off the
//! latency path (this asymmetry is what lets domU beat domain0 on dbench
//! in Fig. 3, as the paper notes).

use crate::costs;
use crate::cpu::vectors;
use crate::intc::InterruptController;
use crate::mem::{PhysAddr, PhysMemory};
use crate::sync::Mutex;
use std::collections::VecDeque;

/// Bytes per sector.
pub const SECTOR_SIZE: usize = 512;

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Device → memory.
    Read,
    /// Memory → device.
    Write,
}

/// A queued disk request.
#[derive(Debug, Clone)]
pub struct DiskRequest {
    /// Driver-chosen identifier, echoed in the completion.
    pub id: u64,
    /// Direction.
    pub op: DiskOp,
    /// First sector.
    pub sector: u64,
    /// Number of sectors.
    pub count: u32,
    /// DMA target/source in physical memory.
    pub pa: PhysAddr,
}

/// A completed request.
#[derive(Debug, Clone)]
pub struct DiskCompletion {
    /// The request id.
    pub id: u64,
    /// Cycles the device spent servicing it (seek + transfer).  Charged
    /// by whoever reaps the completion.
    pub cost: u64,
    /// Whether the DMA succeeded.
    pub ok: bool,
}

/// The disk device.
pub struct SimDisk {
    data: Mutex<Vec<u8>>,
    queue: Mutex<VecDeque<DiskRequest>>,
    completions: Mutex<VecDeque<DiskCompletion>>,
    /// CPU whose line the completion interrupt is routed to.
    irq_cpu: usize,
}

impl SimDisk {
    /// A zero-filled disk with `sectors` sectors, interrupting `irq_cpu`.
    pub fn new(sectors: u64, irq_cpu: usize) -> Self {
        SimDisk {
            data: Mutex::new(vec![0u8; sectors as usize * SECTOR_SIZE]),
            queue: Mutex::new(VecDeque::new()),
            completions: Mutex::new(VecDeque::new()),
            irq_cpu,
        }
    }

    /// Capacity in sectors.
    pub fn sectors(&self) -> u64 {
        (self.data.lock().len() / SECTOR_SIZE) as u64
    }

    /// Queue a request (the controller doorbell).
    pub fn submit(&self, req: DiskRequest) {
        self.queue.lock().push_back(req);
    }

    /// Number of requests waiting for the device.
    pub fn queued(&self) -> usize {
        self.queue.lock().len()
    }

    /// Service every queued request: perform the DMA, post completions,
    /// and assert the DISK interrupt line once if anything completed.
    pub fn pump(&self, mem: &PhysMemory, intc: &InterruptController) -> usize {
        let mut done = 0;
        loop {
            let Some(req) = self.queue.lock().pop_front() else {
                break;
            };
            // Fault injection (compiled out by default): a wedged device
            // stalls on this request — it goes back to the head of the
            // queue and the pump stops, so nothing behind it completes
            // until the fault is resolved (a device timeout).
            if faultgen::disk_site!(req.id) {
                self.queue.lock().push_front(req);
                break;
            }
            let n_bytes = req.count as usize * SECTOR_SIZE;
            let off = req.sector as usize * SECTOR_SIZE;
            let cost = costs::DISK_REQUEST_BASE + costs::DISK_PER_SECTOR * req.count as u64;
            let ok = {
                let mut data = self.data.lock();
                if off + n_bytes > data.len() {
                    false
                } else {
                    match req.op {
                        DiskOp::Read => mem.write_bytes(req.pa, &data[off..off + n_bytes]).is_ok(),
                        DiskOp::Write => {
                            let mut buf = vec![0u8; n_bytes];
                            let r = mem.read_bytes(req.pa, &mut buf);
                            if r.is_ok() {
                                data[off..off + n_bytes].copy_from_slice(&buf);
                                true
                            } else {
                                false
                            }
                        }
                    }
                }
            };
            self.completions.lock().push_back(DiskCompletion {
                id: req.id,
                cost,
                ok,
            });
            done += 1;
        }
        if done > 0 {
            intc.raise(self.irq_cpu, vectors::DISK);
        }
        done
    }

    /// Reap one completion, if any.
    pub fn reap(&self) -> Option<DiskCompletion> {
        self.completions.lock().pop_front()
    }

    /// Direct backdoor access for formatting a filesystem image before
    /// boot (mkfs-style tooling, not a runtime path).
    pub fn write_raw(&self, sector: u64, bytes: &[u8]) {
        let off = sector as usize * SECTOR_SIZE;
        let mut data = self.data.lock();
        data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Direct backdoor read (test assertions).
    pub fn read_raw(&self, sector: u64, len: usize) -> Vec<u8> {
        let off = sector as usize * SECTOR_SIZE;
        self.data.lock()[off..off + len].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;
    use std::sync::Arc;

    fn rig() -> (SimDisk, PhysMemory, InterruptController, Arc<Cpu>) {
        let cpu = Arc::new(Cpu::new(0));
        let intc = InterruptController::new(vec![cpu.clone()]);
        (SimDisk::new(64, 0), PhysMemory::new(4), intc, cpu)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (disk, mem, intc, cpu) = rig();
        // Put a pattern in frame 1 and write it to sector 3.
        mem.write_bytes(PhysAddr(0x1000), &[7u8; SECTOR_SIZE])
            .unwrap();
        disk.submit(DiskRequest {
            id: 1,
            op: DiskOp::Write,
            sector: 3,
            count: 1,
            pa: PhysAddr(0x1000),
        });
        assert_eq!(disk.pump(&mem, &intc), 1);
        assert!(cpu.is_pending(vectors::DISK));
        let c = disk.reap().unwrap();
        assert!(c.ok && c.id == 1);
        assert_eq!(c.cost, costs::DISK_REQUEST_BASE + costs::DISK_PER_SECTOR);

        // Read it back into frame 2.
        disk.submit(DiskRequest {
            id: 2,
            op: DiskOp::Read,
            sector: 3,
            count: 1,
            pa: PhysAddr(0x2000),
        });
        disk.pump(&mem, &intc);
        assert!(disk.reap().unwrap().ok);
        let mut buf = vec![0u8; SECTOR_SIZE];
        mem.read_bytes(PhysAddr(0x2000), &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; SECTOR_SIZE]);
    }

    #[test]
    fn out_of_range_request_fails_cleanly() {
        let (disk, mem, intc, _cpu) = rig();
        disk.submit(DiskRequest {
            id: 9,
            op: DiskOp::Read,
            sector: 1_000_000,
            count: 1,
            pa: PhysAddr(0),
        });
        disk.pump(&mem, &intc);
        assert!(!disk.reap().unwrap().ok);
    }

    #[test]
    fn raw_backdoor() {
        let (disk, _, _, _) = rig();
        disk.write_raw(5, &[1, 2, 3]);
        assert_eq!(disk.read_raw(5, 3), vec![1, 2, 3]);
    }

    #[test]
    fn multiple_requests_complete_in_order() {
        let (disk, mem, intc, _) = rig();
        for i in 0..3 {
            disk.submit(DiskRequest {
                id: i,
                op: DiskOp::Read,
                sector: i,
                count: 1,
                pa: PhysAddr(0x1000),
            });
        }
        assert_eq!(disk.queued(), 3);
        disk.pump(&mem, &intc);
        for i in 0..3 {
            assert_eq!(disk.reap().unwrap().id, i);
        }
        assert!(disk.reap().is_none());
    }
}
