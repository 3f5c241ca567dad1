//! Run every experiment and dump a JSON artifact for EXPERIMENTS.md.

use mercury::TrackingStrategy;
use mercury_bench::{
    json_num, json_object, json_str, measure_sharded_recompute, measure_switch_times,
};
use mercury_workloads::configs::{SysKind, TestBed};
use mercury_workloads::lmbench::{lat_fork, LmbenchIters};
use mercury_workloads::report::{app_figure, lmbench_table, AppFigure, LmbenchTable};
use std::collections::BTreeMap;

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
    let keys = [
        "recompute",
        "active_tracking",
        "dirty_recompute",
        "lazy_validate",
    ];
    let nl_fork_us = lat_fork(&TestBed::build(SysKind::NL, 1), 8);
    let mut mode_switch = vec![("nl_fork_us", format!("{nl_fork_us:.4}"))];
    for (key, strategy) in keys.into_iter().zip(TrackingStrategy::ALL) {
        let t = measure_switch_times(strategy, 20);
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
    let artifact = format!(
        "{{\n  \"fig3\": {},\n  \"fig4\": {},\n  \"mode_switch\": {},\n  \"table1\": {},\n  \"table2\": {}\n}}\n",
        figure(&f3),
        figure(&f4),
        json_object(mode_switch),
        table(&t1),
        table(&t2),
    );
    std::fs::write("bench_results.json", artifact).expect("write bench_results.json");
    eprintln!("\nwrote bench_results.json");
}
