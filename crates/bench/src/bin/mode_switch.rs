//! Regenerate §7.4: mode switch times.
//!
//! Paper: "the average time is about 0.22 ms to do a switch from native
//! mode to virtual mode, and 0.06 ms to a switch back" (3 GHz Xeon).
//!
//! Also reports the two attach-cost optimizations layered on top of the
//! paper's numbers: incremental (dirty-frame) revalidation for warm
//! re-attaches, and the §5.4 sharded recompute where the rendezvoused
//! peer CPUs split the `page_info` walk with the control processor.

use mercury::TrackingStrategy;
use mercury_bench::{measure_sharded_recompute, measure_switch_times};

fn main() {
    let t = measure_switch_times(TrackingStrategy::RecomputeOnSwitch, 20);
    println!("Mode switch time (strategy: recompute-on-switch, paper default)");
    println!(
        "  native -> virtual : {:>8.1} us   (paper: ~220 us)",
        t.attach_us
    );
    println!(
        "  virtual -> native : {:>8.1} us   (paper: ~60 us)",
        t.detach_us
    );
    println!("  samples           : {:>8}", t.samples);

    let d = measure_switch_times(TrackingStrategy::DirtyRecompute, 20);
    println!("\nIncremental re-attach (strategy: dirty-recompute, the default)");
    println!(
        "  cold attach       : {:>8.1} us   (boot pre-cache: warm from the first attach)",
        d.cold_attach_us
    );
    println!(
        "  warm re-attach    : {:>8.1} us   ({:.1}x cheaper than recompute-on-switch)",
        d.warm_attach_us,
        t.attach_us / d.warm_attach_us
    );
    println!(
        "  virtual -> native : {:>8.1} us   (snapshot retained; O(tables) release)",
        d.detach_us
    );

    let s = measure_sharded_recompute(4, 10);
    println!("\nSharded attach-time recompute ({}-CPU rig, rendezvoused peers)", s.cpus);
    println!("  serial pginfo walk : {:>8.1} us", s.serial_pginfo_us);
    println!("  sharded (makespan) : {:>8.1} us", s.sharded_pginfo_us);
    println!("  speedup            : {:>8.2}x", s.speedup);

    // Machine-readable dump for the CI perf-regression gate
    // (`tools/benchgate.py` re-runs this binary and compares against
    // the archived copy within tolerance bands).
    let json = format!(
        "{{\n  \"recompute_on_switch\": {},\n  \"dirty_recompute\": {},\n  \"sharded_recompute\": {}\n}}\n",
        t.to_json(),
        d.to_json(),
        s.to_json()
    );
    std::fs::write("mode_switch.json", json).expect("write mode_switch.json");
    eprintln!("wrote mode_switch.json");
}
