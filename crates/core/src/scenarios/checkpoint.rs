//! Checkpoint/restart of the whole operating system (§6.1).
//!
//! "To perform checkpointing, the pre-cached VMM is activated and makes
//! a snapshot of the whole system, then the VMM is detached and remains
//! inactive.  If a software failure occurs, the VMM could be
//! automatically reactivated to restore the failed system into a recent
//! checkpoint.  For hardware failures, the snapshot could be manually
//! restored to another healthy machine."

use crate::switch::{Mercury, SwitchError};
use nimbus::{BootMode, Kernel};
use simx86::{Cpu, Machine};
use std::collections::HashMap;
use std::sync::Arc;
use xenon::save::{restore_domain, save_domain, DomainImage};
use xenon::{Domain, HvError, Hypervisor};

/// A whole-system checkpoint: every frame, the page tables, and the
/// kernel's frozen logical state.
#[derive(Clone)]
pub struct Checkpoint {
    /// The domain image (frames + control state).
    pub image: DomainImage,
}

impl Checkpoint {
    /// Checkpoint size on the wire.
    pub fn bytes(&self) -> u64 {
        self.image.wire_bytes()
    }
}

/// Errors from checkpoint/restore orchestration.
#[derive(Debug)]
pub enum CheckpointError {
    /// The on-demand bracket's attach or detach failed or was refused.
    Switch(SwitchError),
    /// The hypervisor rejected the image.
    Hv(HvError),
    /// The kernel failed to freeze/thaw.
    Kernel(nimbus::KernelError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Switch(e) => write!(f, "mode switch failed: {e}"),
            CheckpointError::Hv(e) => write!(f, "hypervisor error: {e}"),
            CheckpointError::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SwitchError> for CheckpointError {
    fn from(e: SwitchError) -> Self {
        CheckpointError::Switch(e)
    }
}

/// Take a checkpoint on demand ([`Mercury::on_demand`]): freeze and
/// snapshot on the VMM.  Applications resume unaware.
pub fn take(mercury: &Arc<Mercury>, cpu: &Arc<Cpu>) -> Result<Checkpoint, CheckpointError> {
    let image = mercury.on_demand(cpu, |_| {
        // Freeze the kernel's logical state into the domain record, then
        // snapshot the domain (frames + tables + control state).
        let state = mercury
            .kernel()
            .freeze(cpu)
            .map_err(CheckpointError::Kernel)?;
        *mercury.dom0().guest_state.lock() = Some(state);
        save_domain(&mercury.hypervisor(), cpu, mercury.dom0()).map_err(CheckpointError::Hv)
    })?;
    Ok(Checkpoint { image })
}

/// A system restored from a checkpoint.
pub struct RestoredSystem {
    /// The (new) machine's hypervisor hosting the restored OS.
    pub hv: Arc<Hypervisor>,
    /// The restored kernel, running in virtual mode as dom0.
    pub kernel: Arc<Kernel>,
}

/// Restore a checkpoint onto `machine` (a healthy machine after a
/// hardware failure, or the same machine after a software failure).
///
/// The restored system comes up in **virtual mode** — the VMM that
/// performed the restore is underneath it — exactly as §6.1 describes.
/// The caller may install Mercury afterwards to regain native speed.
///
/// An image the VMM refuses, or a kernel that does not thaw, hands the
/// machine's allocator back every frame the restore took: the domain's
/// and the VMM's reservation.
pub fn restore(
    machine: &Arc<Machine>,
    checkpoint: &Checkpoint,
) -> Result<RestoredSystem, CheckpointError> {
    let hv = Hypervisor::warm_up(machine);
    hv.activate();
    let kernel = restore_domain(&hv, &checkpoint.image)
        .map_err(CheckpointError::Hv)
        .and_then(|(dom, frame_map)| {
            thaw(machine, &hv, &dom, &frame_map).inspect_err(|_| {
                let frames = hv.destroy_domain(machine.boot_cpu(), &dom);
                let frames = frames.unwrap_or_default();
                frames.into_iter().for_each(|f| machine.allocator.free(f));
            })
        })
        .inspect_err(|_| {
            let frames = hv.decommission();
            frames.into_iter().for_each(|f| machine.allocator.free(f));
        })?;
    // Reattach drivers on the new machine (native shape: the restored
    // OS is the driver domain).
    nimbus::drivers::attach_native(machine, &kernel).map_err(CheckpointError::Kernel)?;
    Ok(RestoredSystem { hv, kernel })
}

/// Thaw the kernel frozen in `dom`'s guest state, as a guest of `hv`.
fn thaw(
    machine: &Arc<Machine>,
    hv: &Arc<Hypervisor>,
    dom: &Arc<Domain>,
    frame_map: &HashMap<u32, u32>,
) -> Result<Arc<Kernel>, CheckpointError> {
    let state = dom.frozen_state().map_err(CheckpointError::Hv)?;
    Kernel::thaw(
        Arc::clone(machine),
        BootMode::Guest {
            hv: Arc::clone(hv),
            dom: Arc::clone(dom),
        },
        &state,
        frame_map,
    )
    .map_err(CheckpointError::Kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::tests::rig;
    use crate::TrackingStrategy;
    use nimbus::drivers::BlockDriver;
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use nimbus::{KernelError, Session};
    use simx86::MachineConfig;

    #[test]
    fn checkpoint_roundtrips_mode_and_captures_state() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let sess = Session::new(std::sync::Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
        sess.poke(va, 777).unwrap();
        let fd = sess.open("ckpt.txt", true).unwrap();
        sess.write(fd, b"checkpoint me").unwrap();

        assert_eq!(mercury.mode(), crate::ExecMode::Native);
        let ckpt = take(&mercury, cpu).unwrap();
        // Transparent: we are back in native mode, work continues.
        assert_eq!(mercury.mode(), crate::ExecMode::Native);
        assert_eq!(sess.peek(va).unwrap(), 777);
        assert!(ckpt.bytes() > 1024 * 1024, "whole-system image expected");

        // Post-checkpoint divergence that restore must roll back.
        sess.poke(va, 888).unwrap();
        sess.unlink("ckpt.txt").unwrap();

        // "Hardware failure": restore onto a fresh healthy machine.
        let healthy = simx86::Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 16 * 1024,
            disk_sectors: 64 * 1024,
        });
        let restored = restore(&healthy, &ckpt).unwrap();
        let sess2 = Session::new(std::sync::Arc::clone(&restored.kernel), 0);
        assert_eq!(sess2.peek(va).unwrap(), 777, "rolled back to checkpoint");
        assert_eq!(restored.kernel.exec_mode(), crate::ExecMode::Virtual);
        assert_eq!(sess2.current_pid(), Some(nimbus::Pid(1)));
        // Note: file *data* lives on the failed machine's disk; §6.1
        // pairs checkpoints with shared storage.  Metadata travelled:
        assert!(sess2.stat("ckpt.txt").is_ok());
    }

    /// A checkpoint the VMM refuses, or whose kernel state is missing,
    /// leaves the healthy machine with every frame it had.
    #[test]
    fn a_refused_restore_returns_every_frame() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let ckpt = take(&mercury, machine.boot_cpu()).unwrap();
        let mut torn = ckpt.clone();
        torn.image.frames.last_mut().unwrap().words.pop();
        let mut stateless = ckpt;
        stateless.image.guest_state = None;
        for ckpt in [torn, stateless] {
            let healthy = simx86::Machine::new(MachineConfig {
                num_cpus: 1,
                mem_frames: 16 * 1024,
                disk_sectors: 64 * 1024,
            });
            let free = healthy.allocator.available();
            assert!(matches!(
                restore(&healthy, &ckpt),
                Err(CheckpointError::Hv(xenon::HvError::BadImage(_)))
            ));
            assert_eq!(healthy.allocator.available(), free);
        }
    }

    /// §5.1.1's retry timer rides every CPU's tick, so a restored SMP
    /// kernel must tick on its peers too, not just on the boot CPU.
    #[test]
    fn restored_smp_kernel_ticks_on_every_cpu() {
        let (machine, _hv, mercury) = rig(2, TrackingStrategy::RecomputeOnSwitch);
        // CPU 1 answers the rendezvous from its own thread while CPU 0
        // attaches, snapshots and detaches.
        let done = std::sync::atomic::AtomicBool::new(false);
        let ckpt = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    machine.cpus[1].tick(50);
                    machine.cpus[1].service_pending();
                    std::thread::yield_now();
                }
            });
            let ckpt = take(&mercury, machine.boot_cpu());
            done.store(true, std::sync::atomic::Ordering::Release);
            ckpt
        })
        .unwrap();
        let healthy = simx86::Machine::new(MachineConfig {
            num_cpus: 2,
            mem_frames: 16 * 1024,
            disk_sectors: 64 * 1024,
        });
        restore(&healthy, &ckpt).unwrap();
        let cpu1 = &healthy.cpus[1];
        assert!(
            !healthy.timer.poll(cpu1),
            "no tick before a period has passed"
        );
        cpu1.tick(simx86::devices::timer::DEFAULT_PERIOD_CYCLES);
        assert!(healthy.timer.poll(cpu1), "CPU 1's timer was never armed");
    }

    #[test]
    fn checkpoint_from_virtual_mode_stays_virtual() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        mercury.switch_to_virtual(cpu).unwrap();
        let _ckpt = take(&mercury, cpu).unwrap();
        assert_eq!(mercury.mode(), crate::ExecMode::Virtual);
    }

    /// The kernel's own driver, except that nothing ever becomes durable.
    struct FlushFails(Arc<dyn BlockDriver>);

    impl BlockDriver for FlushFails {
        fn read_block(
            &self,
            cpu: &Arc<Cpu>,
            block: u64,
            out: &mut [u8],
        ) -> Result<(), KernelError> {
            self.0.read_block(cpu, block, out)
        }
        fn write_block(&self, cpu: &Arc<Cpu>, block: u64, data: &[u8]) -> Result<(), KernelError> {
            self.0.write_block(cpu, block, data)
        }
        fn flush(&self, _: &Arc<Cpu>) -> Result<(), KernelError> {
            Err(KernelError::NoSpace)
        }
        fn kind(&self) -> &'static str {
            "flush-fails"
        }
    }

    #[test]
    fn failed_freeze_does_not_strand_the_node_in_virtual_mode() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let kernel = mercury.kernel();
        kernel.set_block_driver(Arc::new(FlushFails(kernel.block_driver().unwrap())));
        assert!(matches!(
            take(&mercury, cpu),
            Err(CheckpointError::Kernel(KernelError::NoSpace))
        ));
        assert_eq!(mercury.mode(), crate::ExecMode::Native);
        assert!(!hv.is_active());
    }

    #[test]
    fn busy_vo_fails_cleanly() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let _guard = mercury.vo_refcount().enter();
        assert!(matches!(
            take(&mercury, cpu),
            Err(CheckpointError::Switch(SwitchError::Busy(1)))
        ));
        assert_eq!(mercury.mode(), crate::ExecMode::Native);
    }
}

/// Periodic checkpointing (§6.1: "by checkpointing the execution
/// environment periodically and restarting the execution from a
/// specific checkpoint during a failure, they provide proactive
/// fault-tolerant features").
///
/// The keeper is polled from the workload loop (a checkpoint switches
/// modes, which cannot happen from inside the timer interrupt itself);
/// it keeps a bounded history so restore can pick any recent point.
pub struct CheckpointKeeper {
    interval_cycles: u64,
    capacity: usize,
    history: simx86::sync::Mutex<std::collections::VecDeque<Checkpoint>>,
    last_taken: std::sync::atomic::AtomicU64,
}

impl CheckpointKeeper {
    /// Keep up to `capacity` checkpoints, at least `interval_cycles`
    /// of simulated time apart.
    pub fn new(interval_cycles: u64, capacity: usize) -> CheckpointKeeper {
        assert!(capacity >= 1);
        CheckpointKeeper {
            interval_cycles,
            capacity,
            history: simx86::sync::Mutex::new(std::collections::VecDeque::new()),
            last_taken: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Take a checkpoint if the interval has elapsed.  Returns whether
    /// one was taken.
    pub fn poll(&self, mercury: &Arc<Mercury>, cpu: &Arc<Cpu>) -> Result<bool, CheckpointError> {
        let now = cpu.cycles();
        let last = self.last_taken.load(std::sync::atomic::Ordering::Acquire);
        if now.saturating_sub(last) < self.interval_cycles {
            return Ok(false);
        }
        let ckpt = take(mercury, cpu)?;
        let mut h = self.history.lock();
        if h.len() == self.capacity {
            h.pop_front();
        }
        h.push_back(ckpt);
        self.last_taken
            .store(cpu.cycles(), std::sync::atomic::Ordering::Release);
        Ok(true)
    }

    /// The most recent checkpoint, if any.
    pub fn latest(&self) -> Option<Checkpoint> {
        self.history.lock().back().cloned()
    }

    /// Checkpoints currently retained.
    pub fn len(&self) -> usize {
        self.history.lock().len()
    }

    /// No checkpoints yet?
    pub fn is_empty(&self) -> bool {
        self.history.lock().is_empty()
    }
}

#[cfg(test)]
mod keeper_tests {
    use super::*;
    use crate::switch::tests::rig;
    use crate::TrackingStrategy;
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use nimbus::Session;

    #[test]
    fn keeper_takes_on_interval_and_bounds_history() {
        let (machine, _hv, mercury) = rig(1, TrackingStrategy::RecomputeOnSwitch);
        let cpu = machine.boot_cpu();
        let sess = Session::new(std::sync::Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(1, Prot::RW, MmapBacking::Anon).unwrap();

        let interval = 5_000_000; // ~1.7 ms of simulated time
        let keeper = CheckpointKeeper::new(interval, 2);
        assert!(keeper.is_empty());

        let mut taken = 0;
        for step in 0..4u64 {
            sess.poke(va, step).unwrap();
            sess.compute(interval + 1);
            if keeper.poll(&mercury, cpu).unwrap() {
                taken += 1;
            }
            // Too soon for another: polling again is a no-op.
            assert!(!keeper.poll(&mercury, cpu).unwrap());
        }
        assert_eq!(taken, 4);
        assert_eq!(keeper.len(), 2, "history is bounded");
        assert_eq!(mercury.mode(), crate::ExecMode::Native);

        // The latest checkpoint restores the latest state.
        sess.poke(va, 999).unwrap();
        let healthy = simx86::Machine::new(simx86::MachineConfig {
            num_cpus: 1,
            mem_frames: 16 * 1024,
            disk_sectors: 64 * 1024,
        });
        let restored = restore(&healthy, &keeper.latest().unwrap()).unwrap();
        let sess2 = Session::new(std::sync::Arc::clone(&restored.kernel), 0);
        assert_eq!(sess2.peek(va).unwrap(), 3, "latest checkpoint has step 3");
    }
}
