//! The machine: CPUs + memory + interrupt controller + devices, plus the
//! physical frame allocator.

use crate::costs;
use crate::cpu::Cpu;
use crate::devices::{Console, SimDisk, SimNic, SimTimer};
use crate::evclock::EvClock;
use crate::intc::InterruptController;
use crate::mem::{FrameNum, PhysMemory};
use crate::sync::Mutex;
use std::sync::Arc;

/// Configuration for a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of CPU cores (the paper tests UP = 1 and SMP = 2).
    pub num_cpus: usize,
    /// Installed physical memory in 4 KiB frames.  The default 16 Ki
    /// frames = 64 MiB stands in for the paper's 900 000 KB per guest
    /// (scaled down; see DESIGN.md §2).
    pub mem_frames: usize,
    /// Disk capacity in 512-byte sectors.
    pub disk_sectors: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cpus: 1,
            mem_frames: 16 * 1024,
            disk_sectors: 128 * 1024, // 64 MiB disk
        }
    }
}

impl MachineConfig {
    /// The paper's uniprocessor configuration.
    pub fn up() -> Self {
        MachineConfig::default()
    }

    /// The paper's SMP (two-processor) configuration.
    pub fn smp() -> Self {
        MachineConfig {
            num_cpus: 2,
            ..Default::default()
        }
    }
}

/// A physical frame allocator over the machine's memory.
///
/// Frame 0 is never handed out (null-frame guard).  `alloc_high` carves
/// frames from the top of memory — the hypervisor reserves its own
/// working memory there at warm-up so the reservation survives in both
/// execution modes.
pub struct FrameAllocator {
    inner: Mutex<AllocInner>,
}

struct AllocInner {
    /// Free frames, popped from the back; kept sorted ascending so low
    /// frames are handed out last-in-first... we pop the *front* via
    /// swap-less index tracking instead: see `alloc`.
    free: Vec<u32>,
    total: usize,
}

impl FrameAllocator {
    /// All frames of `mem` free except frame 0.
    pub fn new(num_frames: usize) -> Self {
        // Descending order so `pop()` yields the lowest frame first.
        let free: Vec<u32> = (1..num_frames as u32).rev().collect();
        FrameAllocator {
            inner: Mutex::new(AllocInner {
                free,
                total: num_frames,
            }),
        }
    }

    /// Allocate the lowest available frame.
    pub fn alloc(&self, cpu: &Cpu) -> Option<FrameNum> {
        cpu.tick(costs::FRAME_ALLOC);
        self.inner.lock().free.pop().map(FrameNum)
    }

    /// Allocate `n` frames (not necessarily contiguous).
    pub fn alloc_many(&self, cpu: &Cpu, n: usize) -> Option<Vec<FrameNum>> {
        cpu.tick(costs::FRAME_ALLOC * n as u64);
        let mut inner = self.inner.lock();
        if inner.free.len() < n {
            return None;
        }
        let at = inner.free.len() - n;
        Some(inner.free.split_off(at).into_iter().map(FrameNum).collect())
    }

    /// Allocate `n` frames from the *top* of memory (highest numbers).
    /// Used for the hypervisor's reserved pool.
    pub fn alloc_high(&self, cpu: &Cpu, n: usize) -> Option<Vec<FrameNum>> {
        cpu.tick(costs::FRAME_ALLOC * n as u64);
        let mut inner = self.inner.lock();
        if inner.free.len() < n {
            return None;
        }
        // `free` is descending, so the highest frames sit at the front.
        let taken: Vec<FrameNum> = inner.free.drain(..n).map(FrameNum).collect();
        Some(taken)
    }

    /// Return a frame to the pool.
    pub fn free(&self, frame: FrameNum) {
        debug_assert_ne!(frame.0, 0, "freeing the null frame");
        let mut inner = self.inner.lock();
        debug_assert!(
            !inner.free.contains(&frame.0),
            "double free of frame {}",
            frame.0
        );
        // Keep descending order with a binary insertion.
        let pos = inner
            .free
            .binary_search_by(|x| frame.0.cmp(x))
            .unwrap_or_else(|p| p);
        inner.free.insert(pos, frame.0);
    }

    /// Free frames remaining.
    pub fn available(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// Total frames managed (including frame 0).
    pub fn total(&self) -> usize {
        self.inner.lock().total
    }
}

/// A complete simulated machine.
pub struct Machine {
    /// Physical memory.
    pub mem: PhysMemory,
    /// CPU cores.
    pub cpus: Vec<Arc<Cpu>>,
    /// Interrupt controller.
    pub intc: Arc<InterruptController>,
    /// Frame allocator.
    pub allocator: FrameAllocator,
    /// Periodic timer.
    pub timer: SimTimer,
    /// Disk.
    pub disk: SimDisk,
    /// Network interface.
    pub nic: Arc<SimNic>,
    /// Console.
    pub console: Console,
    /// Charges idle gaps to a CPU's cycle counter (see
    /// [`crate::evclock`]).
    pub evclock: EvClock,
    config: MachineConfig,
}

impl Machine {
    /// Power on a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Arc<Machine> {
        let cpus: Vec<Arc<Cpu>> = (0..config.num_cpus)
            .map(|i| Arc::new(Cpu::new(i)))
            .collect();
        let intc = Arc::new(InterruptController::new(cpus.clone()));
        Arc::new(Machine {
            mem: PhysMemory::new(config.mem_frames),
            cpus: cpus.clone(),
            intc,
            allocator: FrameAllocator::new(config.mem_frames),
            timer: SimTimer::new(config.num_cpus),
            disk: SimDisk::new(config.disk_sectors, 0),
            nic: Arc::new(SimNic::new(0)),
            console: Console::new(),
            evclock: EvClock,
            config,
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of CPUs.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// The boot CPU.
    pub fn boot_cpu(&self) -> &Arc<Cpu> {
        &self.cpus[0]
    }

    /// Pump all passive devices (disk completions, timers) once.  Called
    /// by the test bed at service points.
    pub fn pump_devices(&self) {
        self.disk.pump(&self.mem, &self.intc);
        for cpu in &self.cpus {
            self.timer.poll(cpu);
        }
    }

    /// Maximum cycle count across CPUs — the machine's wall clock.
    pub fn now(&self) -> u64 {
        self.cpus.iter().map(|c| c.cycles()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_hands_out_low_frames_first() {
        let m = Machine::new(MachineConfig {
            mem_frames: 16,
            ..MachineConfig::up()
        });
        let cpu = m.boot_cpu();
        let a = m.allocator.alloc(cpu).unwrap();
        let b = m.allocator.alloc(cpu).unwrap();
        assert_eq!(a, FrameNum(1));
        assert_eq!(b, FrameNum(2));
    }

    #[test]
    fn alloc_high_takes_top_frames() {
        let m = Machine::new(MachineConfig {
            mem_frames: 16,
            ..MachineConfig::up()
        });
        let cpu = m.boot_cpu();
        let top = m.allocator.alloc_high(cpu, 3).unwrap();
        assert_eq!(top, vec![FrameNum(15), FrameNum(14), FrameNum(13)]);
        // Low allocation unaffected.
        assert_eq!(m.allocator.alloc(cpu).unwrap(), FrameNum(1));
    }

    #[test]
    fn free_returns_frames_for_reuse() {
        let m = Machine::new(MachineConfig {
            mem_frames: 8,
            ..MachineConfig::up()
        });
        let cpu = m.boot_cpu();
        let before = m.allocator.available();
        let f = m.allocator.alloc(cpu).unwrap();
        assert_eq!(m.allocator.available(), before - 1);
        m.allocator.free(f);
        assert_eq!(m.allocator.available(), before);
        // Lowest-first means we get the same frame back.
        assert_eq!(m.allocator.alloc(cpu).unwrap(), f);
    }

    #[test]
    fn alloc_many_exhaustion() {
        let m = Machine::new(MachineConfig {
            mem_frames: 4,
            ..MachineConfig::up()
        });
        let cpu = m.boot_cpu();
        assert!(m.allocator.alloc_many(cpu, 10).is_none());
        let got = m.allocator.alloc_many(cpu, 3).unwrap();
        assert_eq!(got.len(), 3);
        assert!(m.allocator.alloc(cpu).is_none());
    }

    #[test]
    fn smp_config_has_two_cpus() {
        let m = Machine::new(MachineConfig::smp());
        assert_eq!(m.num_cpus(), 2);
        assert_eq!(m.cpus[1].id, 1);
    }

    #[test]
    fn machine_clock_is_max_over_cpus() {
        let m = Machine::new(MachineConfig::smp());
        m.cpus[0].tick(100);
        m.cpus[1].tick(250);
        assert_eq!(m.now(), 250);
    }
}

#[cfg(test)]
mod pump_tests {
    use super::*;
    use crate::cpu::vectors;
    use crate::devices::{DiskOp, DiskRequest};
    use crate::mem::PhysAddr;

    #[test]
    fn pump_devices_completes_disk_and_fires_timers() {
        let m = Machine::new(MachineConfig::up());
        let cpu = m.boot_cpu();
        m.timer.start(cpu, 1_000);
        m.disk.submit(DiskRequest {
            id: 1,
            op: DiskOp::Read,
            sector: 0,
            count: 1,
            pa: PhysAddr(0x1000),
        });
        cpu.tick(2_000);
        m.pump_devices();
        assert!(cpu.is_pending(vectors::DISK));
        assert!(cpu.is_pending(vectors::TIMER));
        assert!(m.disk.reap().unwrap().ok);
    }
}
