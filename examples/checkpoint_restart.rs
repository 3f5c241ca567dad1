//! §6.1 — checkpoint the whole operating system, crash it, restore the
//! checkpoint on a healthy machine.
//!
//! ```text
//! cargo run --example checkpoint_restart
//! ```

use mercury::scenarios::checkpoint;
use mercury::{AssistMode, NodeConfig, Stack, TrackingStrategy};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::{Machine, MachineConfig, VirtAddr};
use std::sync::Arc;

fn main() {
    let Stack {
        machine,
        kernel,
        mercury,
        ..
    } = Stack::build(
        &NodeConfig::default(),
        TrackingStrategy::RecomputeOnSwitch,
        AssistMode::Software,
    );
    let cpu = machine.boot_cpu();

    // Mission-critical computation in progress.
    let sess = Session::new(Arc::clone(&kernel), 0);
    let va = sess.mmap(16, Prot::RW, MmapBacking::Anon).unwrap();
    for step in 0..16u64 {
        sess.poke(VirtAddr(va.0 + step * 4096), step * 1000)
            .unwrap();
    }
    println!("computation at step 16; taking a checkpoint ...");

    // Periodic checkpoint: attach, snapshot, detach.
    let ckpt = checkpoint::take(&mercury, cpu).unwrap();
    println!(
        "checkpoint: {:.1} MiB captured; back in {:?} mode",
        ckpt.bytes() as f64 / (1024.0 * 1024.0),
        mercury.mode()
    );

    // More progress ... then catastrophe.
    sess.poke(va, 999_999).unwrap();
    println!("computation advanced past the checkpoint; then the node dies.");

    // Restore on a healthy machine.
    let healthy = Machine::new(MachineConfig::up());
    let restored = checkpoint::restore(&healthy, &ckpt).unwrap();
    let sess2 = Session::new(Arc::clone(&restored.kernel), 0);
    println!(
        "restored on a healthy machine (mode {:?}); step-0 value = {} (pre-divergence)",
        restored.kernel.exec_mode(),
        sess2.peek(va).unwrap()
    );
    for step in 0..16u64 {
        assert_eq!(
            sess2.peek(VirtAddr(va.0 + step * 4096)).unwrap(),
            step * 1000
        );
    }
    println!("all 16 checkpointed pages verified — the computation resumes from step 16");
}
