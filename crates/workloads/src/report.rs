//! Assembling and rendering paper-style tables and figures.

use crate::apps::{run_app, APP_NAMES};
use crate::configs::{TestBed, ALL_SYSTEMS};
use crate::lmbench::{run_lmbench, LmbenchIters};
use std::collections::BTreeMap;

/// A full Table 1 / Table 2: lmbench latencies for all six systems.
#[derive(Debug, Clone)]
pub struct LmbenchTable {
    /// 1 = UP (Table 1), 2 = SMP (Table 2).
    pub cpus: usize,
    /// Column label → row label → µs.
    pub columns: BTreeMap<String, BTreeMap<String, f64>>,
}

/// A full Fig. 3 / Fig. 4: relative application performance.
#[derive(Debug, Clone)]
pub struct AppFigure {
    /// 1 = UP (Fig. 3), 2 = SMP (Fig. 4).
    pub cpus: usize,
    /// Benchmark → system label → performance relative to N-L.
    pub series: BTreeMap<String, BTreeMap<String, f64>>,
    /// Benchmark → system label → absolute score.
    pub absolute: BTreeMap<String, BTreeMap<String, f64>>,
    /// Benchmark → unit of the absolute score.
    pub units: BTreeMap<String, String>,
}

/// Run lmbench on every system (Tables 1/2).
pub fn lmbench_table(cpus: usize, iters: LmbenchIters) -> LmbenchTable {
    let mut columns = BTreeMap::new();
    for kind in ALL_SYSTEMS {
        let bed = TestBed::build(kind, cpus);
        let r = run_lmbench(&bed, iters);
        let rows: BTreeMap<String, f64> =
            r.rows().iter().map(|(k, v)| (k.to_string(), *v)).collect();
        columns.insert(kind.label().to_string(), rows);
    }
    LmbenchTable { cpus, columns }
}

/// Run the five application benchmarks on every system (Figs. 3/4).
pub fn app_figure(cpus: usize, scale: u32) -> AppFigure {
    let mut absolute: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut units = BTreeMap::new();
    for name in APP_NAMES {
        let mut per_sys = BTreeMap::new();
        for kind in ALL_SYSTEMS {
            let bed = TestBed::build(kind, cpus);
            let r = run_app(name, &bed, scale);
            per_sys.insert(kind.label().to_string(), r.score);
            units.insert(name.to_string(), r.unit.to_string());
        }
        absolute.insert(name.to_string(), per_sys);
    }
    let mut series = BTreeMap::new();
    for (name, per_sys) in &absolute {
        let base = per_sys["N-L"];
        series.insert(
            name.clone(),
            per_sys.iter().map(|(k, v)| (k.clone(), v / base)).collect(),
        );
    }
    AppFigure {
        cpus,
        series,
        absolute,
        units,
    }
}

/// Row order for the rendered lmbench table.
pub const LMBENCH_ROWS: [&str; 9] = [
    "Fork Process",
    "Exec Process",
    "Sh Process",
    "Ctx (2p/0k)",
    "Ctx (16p/16k)",
    "Ctx (16p/64k)",
    "Mmap LT",
    "Prot Fault",
    "Page Fault",
];

/// Column order (the paper's).
pub const COLUMNS: [&str; 6] = ["N-L", "M-N", "X-0", "M-V", "X-U", "M-U"];

impl LmbenchTable {
    /// Render like the paper's Table 1/2 (times in µs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let which = if self.cpus == 1 { "1" } else { "2" };
        let mode = if self.cpus == 1 {
            "Uniprocessor"
        } else {
            "SMP"
        };
        out.push_str(&format!(
            "Table {which}. Lmbench Latency Results in {mode} Mode (Time in µs)\n\n"
        ));
        out.push_str(&format!("{:<16}", "Config."));
        for c in COLUMNS {
            out.push_str(&format!("{c:>10}"));
        }
        out.push('\n');
        for row in LMBENCH_ROWS {
            out.push_str(&format!("{row:<16}"));
            for c in COLUMNS {
                let v = self.columns[c][row];
                if v >= 100.0 {
                    out.push_str(&format!("{v:>10.0}"));
                } else {
                    out.push_str(&format!("{v:>10.2}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl AppFigure {
    /// Render like the paper's Fig. 3/4 (relative performance, N-L = 1).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let which = if self.cpus == 1 { "3" } else { "4" };
        let mode = if self.cpus == 1 {
            "uniprocessor"
        } else {
            "SMP"
        };
        out.push_str(&format!(
            "Fig. {which}. Relative performance of Mercury against Linux and Xen-Linux in {mode} mode\n\n"
        ));
        out.push_str(&format!("{:<16}", "Benchmark"));
        for c in COLUMNS {
            out.push_str(&format!("{c:>8}"));
        }
        out.push_str("   (absolute N-L)\n");
        for name in APP_NAMES {
            out.push_str(&format!("{name:<16}"));
            for c in COLUMNS {
                out.push_str(&format!("{:>8.2}", self.series[name][c]));
            }
            out.push_str(&format!(
                "   ({:.1} {})\n",
                self.absolute[name]["N-L"], self.units[name]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lmbench_table_renders_all_cells() {
        // Smallest iterations: this is a smoke test of plumbing, the
        // real numbers come from the bench binaries.
        let iters = LmbenchIters {
            procs: 1,
            ctx_passes: 2,
            mmap: 1,
            faults: 10,
        };
        let t = lmbench_table(1, iters);
        let rendered = t.render();
        for c in COLUMNS {
            assert!(rendered.contains(c));
        }
        for r in LMBENCH_ROWS {
            assert!(rendered.contains(r));
        }
        // Basic shape: M-V fork ≫ M-N fork.
        assert!(t.columns["M-V"]["Fork Process"] > t.columns["M-N"]["Fork Process"] * 2.0);
    }
}
