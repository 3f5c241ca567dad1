//! Run every experiment and dump a JSON artifact for EXPERIMENTS.md.
//!
//! Besides the paper's tables and figures: the two §8 future-work
//! probes — mode-switch time against processor count ("the performance
//! scalability of Mercury will be of great importance … a more
//! loosely-coupled synchronization protocol might be necessary … instead
//! of current protocols using IPI and shared variables") and software
//! against hardware-assisted (VT-x/EPT style) self-virtualization — and
//! the dbench writeback probe kept for calibration reproducibility.

use mercury::{AssistMode, NodeConfig, Stack, SwitchOutcome, TrackingStrategy};
use mercury_suite::{
    json_block, json_num, json_object, json_str, json_us, measure_sharded_recompute,
    measure_switch_times,
};
use mercury_workloads::apps::run_app;
use mercury_workloads::configs::{switch_with_peers, SysKind, TestBed};
use mercury_workloads::lmbench::{lat_fork, LmbenchIters};
use mercury_workloads::report::{app_figure, lmbench_table, AppFigure, LmbenchTable};
use simx86::costs::cycles_to_us;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A §8 probe's system: the paper's Mercury on a 64 MiB machine with a
/// 6 Ki-frame kernel pool.
fn probe_bed(cpus: usize, disk_sectors: u64, fs_blocks: u64, assist: AssistMode) -> Stack {
    let config = NodeConfig {
        num_cpus: cpus,
        mem_frames: 16 * 1024,
        pool_frames: 6 * 1024,
        disk_sectors,
        fs_blocks,
    };
    Stack::build(&config, TrackingStrategy::RecomputeOnSwitch, assist)
}

/// Mean attach and detach times (µs) over `samples` round trips, peer
/// CPUs serviced from temporary threads.
fn roundtrip_us(stack: &Stack, samples: u32) -> [f64; 2] {
    let mut totals = [0u64; 2];
    for _ in 0..samples {
        for (total, to_virtual) in totals.iter_mut().zip([true, false]) {
            let SwitchOutcome::Completed { cycles } =
                switch_with_peers(&stack.machine, &stack.mercury, to_virtual)
            else {
                panic!("switch deferred on an idle bed")
            };
            *total += cycles;
        }
    }
    totals.map(|cycles| cycles_to_us(cycles) / samples as f64)
}

fn main() {
    let t1 = lmbench_table(1, LmbenchIters::default());
    println!("{}", t1.render());
    let t2 = lmbench_table(2, LmbenchIters::default());
    println!("{}", t2.render());
    let f3 = app_figure(1, 2);
    println!("{}", f3.render());
    let f4 = app_figure(2, 2);
    println!("{}", f4.render());
    // §7.4 and the §5.1.2 ablation: one row per strategy, keyed as
    // `bench_results.json` has always spelled them, with the N-L fork
    // latency the native-mode overheads are relative to.
    let keys = ["recompute", "active_tracking", "dirty_recompute"];
    let nl_fork_us = lat_fork(&TestBed::build(SysKind::NL, 1), 8);
    let mut mode_switch = vec![("nl_fork_us", format!("{nl_fork_us:.4}"))];
    let times = TrackingStrategy::ALL.map(|strategy| measure_switch_times(strategy, 20));
    for (key, t) in keys.into_iter().zip(&times) {
        println!(
            "Mode switch ({key}): attach {:.1} us (cold {:.1} / warm {:.1}) / detach {:.1} us; \
             native fork {:.1} us ({:+.1} % vs N-L {nl_fork_us:.1} us)",
            t.attach_us,
            t.cold_attach_us,
            t.warm_attach_us,
            t.detach_us,
            t.native_fork_us,
            (t.native_fork_us / nl_fork_us - 1.0) * 100.0
        );
        mode_switch.push((key, t.to_json()));
    }
    let sharded = measure_sharded_recompute(4, 10);
    println!(
        "Sharded recompute ({} CPUs): serial {:.1} us / sharded {:.1} us ({:.2}x)",
        sharded.cpus, sharded.serial_pginfo_us, sharded.sharded_pginfo_us, sharded.speedup
    );
    mode_switch.push(("sharded_recompute", sharded.to_json()));
    mode_switch.sort();

    println!("\nMode-switch time vs processor count (IPI + shared-variable rendezvous, §5.4)\n");
    println!("{:>6} {:>14} {:>14}", "CPUs", "attach (us)", "detach (us)");
    let mut scalability = Vec::new();
    for cpus in [1usize, 2, 4, 8] {
        let bed = probe_bed(cpus, 64 * 1024, 1024, AssistMode::Software);
        let [attach, detach] = roundtrip_us(&bed, 5);
        println!("{cpus:>6} {attach:>14.1} {detach:>14.1}");
        let row = [
            ("attach_us", json_us(attach)),
            ("detach_us", json_us(detach)),
        ];
        scalability.push((format!("cpus_{cpus}"), json_object(row)));
    }
    println!("\nGrowth comes from the per-peer IPI sends and the serialized");
    println!("check-in count; the paper's suggested loosely-coupled protocol");
    println!("would amortize exactly these terms.");

    println!("\nSection 8 extension: software vs hardware-assisted self-virtualization\n");
    let hw = || probe_bed(1, 96 * 1024, 8 * 1024, AssistMode::HardwareAssisted);
    let [hw_attach, hw_detach] = roundtrip_us(&hw(), 10);
    // The paper's design heads the strategy lattice.
    println!("mode switch times:");
    println!(
        "  software (paper's design) : attach {:>8.1} us   detach {:>8.1} us",
        times[0].attach_us, times[0].detach_us
    );
    println!(
        "  hardware-assisted (VT-x)  : attach {hw_attach:>8.1} us   detach {hw_detach:>8.1} us"
    );
    // Virtual-mode fork: paravirtual pays hypercalls; HVM+EPT is near
    // native.
    let pv_fork_us = lat_fork(&TestBed::build(SysKind::MV, 1), 8);
    let Stack {
        machine, mercury, ..
    } = hw();
    mercury.switch_to_virtual(machine.boot_cpu()).unwrap();
    let hvm_bed = TestBed {
        kind: SysKind::MV,
        machine,
        kernel: Arc::clone(mercury.kernel()),
        hv: None,
        mercury: Some(mercury),
        driver_kernel: None,
        dom: None,
    };
    let hvm_fork_us = lat_fork(&hvm_bed, 8);
    println!("\nvirtual-mode fork latency:");
    println!("  native baseline           : {nl_fork_us:>8.1} us");
    println!(
        "  paravirtual (M-V)         : {pv_fork_us:>8.1} us  ({:.1}x)",
        pv_fork_us / nl_fork_us
    );
    println!(
        "  hardware-assisted (HVM)   : {hvm_fork_us:>8.1} us  ({:.2}x)",
        hvm_fork_us / nl_fork_us
    );
    let hw_assist = [
        ("hvm_attach_us", hw_attach),
        ("hvm_detach_us", hw_detach),
        ("hvm_fork_us", hvm_fork_us),
        ("pv_fork_us", pv_fork_us),
    ];

    println!("\ndbench writeback probe (calibration, not a paper experiment):");
    for kind in [SysKind::NL, SysKind::X0, SysKind::XU] {
        let bed = TestBed::build(kind, 1);
        let r = run_app("dbench", &bed, 2);
        let (h, m, w, d) = bed.kernel.cache_stats();
        println!(
            "{:>4}: {:8.1} MB/s   cache hits={h} misses={m} writebacks={w} dirty={d}",
            bed.label(),
            r.score
        );
    }

    // label → label → number.
    let nested = |m: &BTreeMap<String, BTreeMap<String, f64>>| {
        json_object(m.iter().map(|(name, inner)| {
            (
                name,
                json_object(inner.iter().map(|(k, v)| (k, json_num(*v)))),
            )
        }))
    };
    let figure = |f: &AppFigure| {
        json_object([
            ("absolute", nested(&f.absolute)),
            ("cpus", f.cpus.to_string()),
            ("series", nested(&f.series)),
            (
                "units",
                json_object(f.units.iter().map(|(k, u)| (k, json_str(u)))),
            ),
        ])
    };
    let table = |t: &LmbenchTable| {
        json_object([
            ("columns", nested(&t.columns)),
            ("cpus", t.cpus.to_string()),
        ])
    };
    let artifact = [
        ("fig3", figure(&f3)),
        ("fig4", figure(&f4)),
        (
            "hw_assist",
            json_object(hw_assist.map(|(key, us)| (key, json_us(us)))),
        ),
        ("mode_switch", json_object(mode_switch)),
        ("scalability", json_object(scalability)),
        ("table1", table(&t1)),
        ("table2", table(&t2)),
    ];
    std::fs::write("bench_results.json", json_block(0, artifact) + "\n")
        .expect("write bench_results.json");
    eprintln!("\nwrote bench_results.json");
}
