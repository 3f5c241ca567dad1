//! Quickstart: boot a machine, install Mercury, and switch execution
//! modes under a live workload.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mercury::{AssistMode, NodeConfig, Stack, SwitchOutcome, TrackingStrategy};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::costs::cycles_to_us;
use simx86::VirtAddr;
use std::sync::Arc;

fn main() {
    // 1–3. Bring a system up: power on a machine, pre-cache the
    //    hypervisor (warm but dormant), boot the kernel natively (full
    //    speed, PL0) on its pool, attach its drivers and install
    //    Mercury — the kernel gains the ability to virtualize itself.
    let Stack {
        machine,
        hv,
        kernel,
        mercury,
    } = Stack::build(
        &NodeConfig::default(),
        TrackingStrategy::RecomputeOnSwitch,
        AssistMode::Software,
    );
    let cpu = machine.boot_cpu();
    println!(
        "machine up: {} MiB RAM, VMM pre-cached ({} frames reserved, dormant)",
        machine.mem.size_bytes() / (1024 * 1024),
        hv.reserved_frames()
    );
    println!("mercury installed, mode = {:?}", mercury.mode());

    // 4. Run a workload.
    let sess = Session::new(Arc::clone(&kernel), 0);
    let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
    for p in 0..8u64 {
        sess.poke(VirtAddr(va.0 + p * 4096), p * p).unwrap();
    }
    let fd = sess.open("app.log", true).unwrap();
    sess.write(fd, b"running natively\n").unwrap();

    // 5. Attach the VMM on demand — applications keep running.
    let SwitchOutcome::Completed { cycles } = mercury.switch_to_virtual(cpu).unwrap() else {
        panic!("switch deferred")
    };
    println!(
        "attached VMM in {:.1} us; mode = {:?}, CPU at {:?}",
        cycles_to_us(cycles),
        mercury.mode(),
        cpu.pl()
    );
    assert_eq!(sess.peek(va).unwrap(), 0); // memory intact
    sess.write(fd, b"running on the VMM\n").unwrap();

    // 6. Host a second domain while virtualized (the M-U shape).
    let quota = machine.allocator.alloc_many(cpu, 256).unwrap();
    let domu = hv.create_domain(cpu, "guest", quota, 0).unwrap();
    println!(
        "hosting guest domain {:?} with {} frames",
        domu.id,
        domu.frame_count()
    );
    let freed = hv.destroy_domain(cpu, &domu).unwrap();
    for f in freed {
        machine.allocator.free(f);
    }

    // 7. Detach and return to bare-metal speed.
    let SwitchOutcome::Completed { cycles } = mercury.switch_to_native(cpu).unwrap() else {
        panic!("switch deferred")
    };
    println!(
        "detached VMM in {:.1} us; mode = {:?}, CPU at {:?}",
        cycles_to_us(cycles),
        mercury.mode(),
        cpu.pl()
    );
    for p in 0..8u64 {
        assert_eq!(sess.peek(VirtAddr(va.0 + p * 4096)).unwrap(), p * p);
    }
    sess.write(fd, b"back to native\n").unwrap();
    println!(
        "workload state survived {} attaches and {} detaches; app.log = {} bytes",
        mercury
            .stats
            .attaches
            .load(std::sync::atomic::Ordering::Relaxed),
        mercury
            .stats
            .detaches
            .load(std::sync::atomic::Ordering::Relaxed),
        sess.stat("app.log").unwrap().size
    );
}
