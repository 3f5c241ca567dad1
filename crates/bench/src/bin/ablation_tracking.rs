//! Regenerate the §5.1.2 ablation: recompute-on-switch vs active
//! tracking vs dirty recompute.
//!
//! Paper: "the first approach [active tracking] will incur about 2%~3%
//! performance overhead and saves only a small amount of mode switch
//! time.  Hence, we preferably choose the latter \[recompute\]."
//!
//! The third column is this repo's middle ground: snapshot validation
//! at detach, mark frames dirty on native-mode PTE writes, revalidate
//! only the dirty frames on re-attach.  Cold attach pays the full walk;
//! warm re-attaches pay only for what actually changed.

use mercury::TrackingStrategy;
use mercury_bench::measure_switch_times;
use mercury_workloads::configs::{SysKind, TestBed};
use mercury_workloads::lmbench::lat_fork;

fn main() {
    println!("Frame-accounting strategy ablation (Section 5.1.2)\n");
    for strategy in [
        TrackingStrategy::RecomputeOnSwitch,
        TrackingStrategy::ActiveTracking,
        TrackingStrategy::DirtyRecompute,
    ] {
        let t = measure_switch_times(strategy, 10);
        println!("{:?}:", strategy);
        println!(
            "  attach: {:>8.1} us (cold {:>8.1} / warm {:>8.1})    detach: {:>8.1} us",
            t.attach_us, t.cold_attach_us, t.warm_attach_us, t.detach_us
        );
    }

    // Native-mode overhead: fork latency under each strategy vs N-L.
    // The paper measures "about 2%~3% performance overhead" for active
    // tracking in native mode; dirty tracking sits between the two
    // (one page_info mark per PTE write instead of full accounting).
    let nl = lat_fork(&TestBed::build(SysKind::NL, 1), 8);
    let mn = lat_fork(&TestBed::build(SysKind::MN, 1), 8);
    let bed_track = TestBed::build_mn_with_strategy(1, TrackingStrategy::ActiveTracking);
    let mn_track = lat_fork(&bed_track, 8);
    let bed_dirty = TestBed::build_mn_with_strategy(1, TrackingStrategy::DirtyRecompute);
    let mn_dirty = lat_fork(&bed_dirty, 8);
    println!("\nNative-mode fork latency:");
    println!("  N-L                    : {nl:>8.1} us");
    println!(
        "  M-N (recompute)        : {mn:>8.1} us  ({:+.1} % vs N-L)",
        (mn / nl - 1.0) * 100.0
    );
    println!(
        "  M-N (active tracking)  : {mn_track:>8.1} us  ({:+.1} % vs N-L; paper: +2~3 %)",
        (mn_track / nl - 1.0) * 100.0
    );
    println!(
        "  M-N (dirty recompute)  : {mn_dirty:>8.1} us  ({:+.1} % vs N-L)",
        (mn_dirty / nl - 1.0) * 100.0
    );
}
