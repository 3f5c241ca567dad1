//! Run every experiment and dump a JSON artifact for EXPERIMENTS.md.

use mercury::TrackingStrategy;
use mercury_bench::{
    json_num, json_object, json_str, measure_sharded_recompute, measure_switch_times,
};
use mercury_workloads::lmbench::LmbenchIters;
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
    let sw = measure_switch_times(TrackingStrategy::RecomputeOnSwitch, 20);
    let sw_track = measure_switch_times(TrackingStrategy::ActiveTracking, 20);
    let sw_dirty = measure_switch_times(TrackingStrategy::DirtyRecompute, 20);
    let sharded = measure_sharded_recompute(4, 10);
    println!(
        "Mode switch (recompute):   attach {:.1} us / detach {:.1} us",
        sw.attach_us, sw.detach_us
    );
    println!(
        "Mode switch (tracking):    attach {:.1} us / detach {:.1} us",
        sw_track.attach_us, sw_track.detach_us
    );
    println!(
        "Mode switch (dirty):       cold attach {:.1} us / warm {:.1} us / detach {:.1} us",
        sw_dirty.cold_attach_us, sw_dirty.warm_attach_us, sw_dirty.detach_us
    );
    println!(
        "Sharded recompute ({} CPUs): serial {:.1} us / sharded {:.1} us ({:.2}x)",
        sharded.cpus, sharded.serial_pginfo_us, sharded.sharded_pginfo_us, sharded.speedup
    );

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
    let mode_switch = json_object([
        ("active_tracking", sw_track.to_json()),
        ("dirty_recompute", sw_dirty.to_json()),
        ("recompute", sw.to_json()),
        ("sharded_recompute", sharded.to_json()),
    ]);
    let artifact = format!(
        "{{\n  \"fig3\": {},\n  \"fig4\": {},\n  \"mode_switch\": {},\n  \"table1\": {},\n  \"table2\": {}\n}}\n",
        figure(&f3),
        figure(&f4),
        mode_switch,
        table(&t1),
        table(&t2),
    );
    std::fs::write("bench_results.json", artifact).expect("write bench_results.json");
    eprintln!("\nwrote bench_results.json");
}
