//! Bringing one whole system up: machine, warm VMM, kernel, Mercury.
//!
//! The paper's mechanism starts from a fixed bring-up — a VMM
//! "pre-cached in memory at boot" under a natively booted OS (§4.1) —
//! and this is the one place the repository spells it out.  Cluster
//! nodes, the M-* test beds, the report binaries, the examples and
//! every test rig call [`Stack::build`]; what differs between them is
//! only the [`NodeConfig`] sizing, the [`TrackingStrategy`] and the
//! [`AssistMode`] they pass.
//!
//! **The order is load-bearing.**  Every step takes frames from the
//! same machine allocator, lowest first, so the order of the steps
//! decides every frame number in the system — hence the kernel's
//! direct map, the VMM's `page_info` table and every archived cycle
//! count (DESIGN.md §3a):
//!
//! 1. power the machine on;
//! 2. warm the VMM up, dormant — its reservation comes off the *top* of
//!    memory before anything else is handed out;
//! 3. take the kernel's pool, the lowest `pool_frames` frames;
//! 4. boot the kernel bare on that pool;
//! 5. attach the native drivers (the block driver's bounce frame is the
//!    next frame up);
//! 6. install Mercury, which records the pool as dom0's.

use crate::pgtrack::TrackingStrategy;
use crate::switch::{AssistMode, Mercury};
use nimbus::kernel::{BootMode, KernelConfig};
use nimbus::Kernel;
use simx86::{Machine, MachineConfig};
use std::sync::Arc;
use xenon::Hypervisor;

/// The sizing of one system.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// CPUs.
    pub num_cpus: usize,
    /// Physical memory in frames.
    pub mem_frames: usize,
    /// Kernel pool size in frames (the rest stays with the machine
    /// allocator, for hosting guests).
    pub pool_frames: usize,
    /// Disk sectors.
    pub disk_sectors: u64,
    /// Filesystem data blocks.
    pub fs_blocks: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            num_cpus: 1,
            mem_frames: 16 * 1024,
            pool_frames: 6 * 1024,
            disk_sectors: 64 * 1024,
            fs_blocks: 4096,
        }
    }
}

impl NodeConfig {
    /// A uniprocessor system a quarter the default size: 16 MB of
    /// simulated RAM and a 1536-frame kernel pool (the kernel boots in
    /// 700), so a hundred of them fit a CI runner's memory and a
    /// migration stays cheap.
    pub fn small() -> NodeConfig {
        NodeConfig {
            num_cpus: 1,
            mem_frames: 4 * 1024,
            pool_frames: 1536,
            disk_sectors: 8 * 1024,
            fs_blocks: 512,
        }
    }
}

/// One self-virtualizable system, freshly brought up: native mode, the
/// VMM warm but dormant.
///
/// ```
/// use mercury::{AssistMode, NodeConfig, Stack, SwitchOutcome, TrackingStrategy};
///
/// let Stack { machine, mercury, .. } = Stack::build(
///     &NodeConfig::small(),
///     TrackingStrategy::default(),
///     AssistMode::Software,
/// );
/// assert!(matches!(
///     mercury.switch_to_virtual(machine.boot_cpu()).unwrap(),
///     SwitchOutcome::Completed { .. }
/// ));
/// ```
pub struct Stack {
    /// The machine.
    pub machine: Arc<Machine>,
    /// The pre-cached hypervisor.
    pub hv: Arc<Hypervisor>,
    /// The kernel, booted bare with native drivers.
    pub kernel: Arc<Kernel>,
    /// Mercury, installed on `kernel` over `hv`.
    pub mercury: Arc<Mercury>,
}

impl Stack {
    /// Bring a system of the given size up, in the module's order.
    ///
    /// # Panics
    ///
    /// When `config` does not describe a bootable system (a pool larger
    /// than the memory left under the VMM's reservation, or too small
    /// for the kernel).
    pub fn build(config: &NodeConfig, strategy: TrackingStrategy, assist: AssistMode) -> Stack {
        let machine = Machine::new(MachineConfig {
            num_cpus: config.num_cpus,
            mem_frames: config.mem_frames,
            disk_sectors: config.disk_sectors,
        });
        let hv = Hypervisor::warm_up(&machine);
        let pool = machine
            .allocator
            .alloc_many(machine.boot_cpu(), config.pool_frames)
            .expect("system sized too small for its kernel pool");
        let kernel = Kernel::boot(
            Arc::clone(&machine),
            KernelConfig {
                pool,
                mode: BootMode::Bare,
                fs_blocks: config.fs_blocks,
                fs_first_block: 1,
            },
        )
        .expect("kernel boot failed");
        nimbus::drivers::attach_native(&machine, &kernel).expect("no frame left for the drivers");
        let mercury =
            Mercury::install_with_assist(Arc::clone(&kernel), Arc::clone(&hv), strategy, assist)
                .expect("mercury install failed");
        Stack {
            machine,
            hv,
            kernel,
            mercury,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus::drivers::{NativeBlockDriver, NativeNetDriver};
    use simx86::mem::FrameNum;

    /// Bring-up as every rig used to type it out, kept once as the
    /// oracle [`Stack::build`] is held to.  Returns the bounce frame too.
    fn by_hand(
        config: &NodeConfig,
        strategy: TrackingStrategy,
        assist: AssistMode,
    ) -> (Stack, FrameNum) {
        let machine = Machine::new(MachineConfig {
            num_cpus: config.num_cpus,
            mem_frames: config.mem_frames,
            disk_sectors: config.disk_sectors,
        });
        // Pre-cache the VMM first so its reservation comes off the top.
        let hv = Hypervisor::warm_up(&machine);
        let cpu = machine.boot_cpu();
        let pool = machine
            .allocator
            .alloc_many(cpu, config.pool_frames)
            .unwrap();
        let kernel = Kernel::boot(
            Arc::clone(&machine),
            KernelConfig {
                pool,
                mode: BootMode::Bare,
                fs_blocks: config.fs_blocks,
                fs_first_block: 1,
            },
        )
        .unwrap();
        let bounce = machine.allocator.alloc(cpu).unwrap();
        kernel.set_block_driver(NativeBlockDriver::new(Arc::clone(&machine), bounce));
        kernel.set_net_driver(NativeNetDriver::new(Arc::clone(&machine)));
        let mercury =
            Mercury::install_with_assist(Arc::clone(&kernel), Arc::clone(&hv), strategy, assist)
                .unwrap();
        let stack = Stack {
            machine,
            hv,
            kernel,
            mercury,
        };
        (stack, bounce)
    }

    /// The builder takes the same frames in the same order and charges
    /// the same cycles as the hand-rolled sequence, whatever it is
    /// asked to build.
    #[test]
    fn builder_reproduces_the_hand_rolled_bring_up() {
        for num_cpus in [1, 2] {
            let config = NodeConfig {
                num_cpus,
                ..NodeConfig::small()
            };
            for strategy in TrackingStrategy::ALL {
                for assist in [AssistMode::Software, AssistMode::HardwareAssisted] {
                    let what = format!("{num_cpus} CPUs, {strategy:?}, {assist:?}");
                    let built = Stack::build(&config, strategy, assist);
                    let (hand, bounce) = by_hand(&config, strategy, assist);
                    let cycles = |s: &Stack| s.machine.boot_cpu().cycles();
                    assert_eq!(cycles(&built), cycles(&hand), "{what}: boot-CPU cycles");
                    assert_eq!(
                        built.kernel.pool_frames(),
                        hand.kernel.pool_frames(),
                        "{what}: kernel pool"
                    );
                    assert_eq!(
                        built.mercury.dom0().frames(),
                        hand.mercury.dom0().frames(),
                        "{what}: dom0's frames"
                    );
                    assert!(
                        built.hv.page_info.snapshot() == hand.hv.page_info.snapshot(),
                        "{what}: page_info"
                    );
                    // The bounce frame is the last frame either bring-up
                    // took: both allocators stand on the one after it.
                    let next = |s: &Stack| s.machine.allocator.alloc(s.machine.boot_cpu());
                    let after_bounce = Some(FrameNum(bounce.0 + 1));
                    assert_eq!(next(&hand), after_bounce, "{what}: oracle's bounce frame");
                    assert_eq!(next(&built), after_bounce, "{what}: bounce frame");
                }
            }
        }
    }
}
