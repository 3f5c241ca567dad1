//! What the benchmark is: its workloads, its metric names, units and
//! regression bounds.  `BENCHMARK.json` is generated from these tables
//! (`mercury-benchmark describe`) and a unit test keeps the two equal.

use crate::json::Json;
use mercury::ExecMode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop request serving; with `switching`, a mode switch is
    /// injected into the stream every few thousand requests.
    Serve {
        switching: bool,
    },
    Churn,
    SwitchCycle,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// The mode the timed section starts (and must end) in.
    pub mode: ExecMode,
    /// Ops in the deterministic block per second of `--seconds`,
    /// sized so the block takes about three quarters of the window on
    /// the reference container.
    pub ops_per_second: u64,
}

/// The seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 10;

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "serve_native",
        why: "open-loop oltp requests at 100k rps, Mercury installed but native: the baseline every tax is a ratio against; xenon idle, so hypercall work must not move it",
        kind: Kind::Serve { switching: false },
        mode: ExecMode::Native,
        ops_per_second: 400_000,
    },
    Spec {
        name: "serve_virtual",
        why: "the identical arrival stream after one attach: every syscall pays virtual entry/exit and every sensitive op is a hypercall, so the steady-state tax shows here",
        kind: Kind::Serve { switching: false },
        mode: ExecMode::Virtual,
        ops_per_second: 400_000,
    },
    Spec {
        name: "churn_native",
        why: "closed-loop mmap/touch/mprotect/munmap of 16-128 pages plus fork/exit/wait over a 380-page working set, native: PTE writes go straight to memory plus dirty marks",
        kind: Kind::Churn,
        mode: ExecMode::Native,
        ops_per_second: 4_000,
    },
    Spec {
        name: "churn_virtual",
        why: "the same churn in virtual mode: mmu_update validation, pin/unpin and TLB flushes dominate, so batching and simulator MMU speed-ups show here and not in serve_native",
        kind: Kind::Churn,
        mode: ExecMode::Virtual,
        ops_per_second: 2_000,
    },
    Spec {
        name: "serve_switching",
        why: "the serve_native stream with an attach or detach about every 3000 requests: arrivals queue behind each switch, so the tail carries p99 inflation under a switch",
        kind: Kind::Serve { switching: true },
        mode: ExecMode::Native,
        ops_per_second: 400_000,
    },
    Spec {
        name: "switch_cycle",
        why: "closed-loop dirty 0-64 fresh pages, attach, unmap, detach: mercury and xenon page_info do nearly all the work, the worst host-to-simulated ratio in the system",
        kind: Kind::SwitchCycle,
        mode: ExecMode::Native,
        ops_per_second: 1_050,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

fn end(name: &str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better: "lower",
        bound: None,
    }
}

/// What a user of the system sees.  `sim_*` are on the simulated clock
/// (3000 cycles per microsecond) and repeat exactly for a seed; the
/// bounds leave room for the spread between seeds.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        end("setup_s", "s", "lower", 0.25),
        end("sim_p50_us", "us", "lower", 0.01),
        end("sim_p99_us", "us", "lower", 0.02),
        end("sim_p999_us", "us", "lower", 0.04),
        end("sim_mean_us", "us", "lower", 0.01),
        end("sim_capacity_rps", "1/s", "higher", 0.05),
        end("host_ops_per_s", "1/s", "higher", 0.15),
        end("host_busy_mcycles_per_s", "Mcycles/s", "higher", 0.15),
        end("peak_rss_mb", "MiB", "lower", 0.10),
    ]
}

const NIMBUS_OPS: [&str; 7] = [
    "null_syscall",
    "file_read_512",
    "file_append_512",
    "mmap_munmap_16",
    "page_fault",
    "fork_exit_wait",
    "net_echo_256",
];

/// Ladder rungs reported on both clocks, in ladder order.
pub fn rung_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "simx86.tlb_hit",
        "simx86.tlb_miss_walk",
        "simx86.mem_word_rw",
        "simx86.copy_frame",
        "simx86.write_cr3",
        "simx86.evclock_advance",
        "xenon.null_hypercall",
        "xenon.mmu_update_1",
        "xenon.mmu_update_64",
        "xenon.pin_unpin_l2",
        "xenon.evtchn_send",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for op in NIMBUS_OPS {
        names.push(format!("nimbus.{op}.native"));
        names.push(format!("nimbus.{op}.virtual"));
    }
    for rung in ["attach", "detach", "attach_full", "detach_full"] {
        names.push(format!("mercury.{rung}"));
    }
    names
}

/// Single layers, measured from outside: the ladder, then the traced
/// workload's per-op attribution.
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    for rung in rung_names() {
        out.push(layer(format!("{rung}.cycles"), "cycles"));
        out.push(layer(format!("{rung}.host_ns"), "ns"));
    }
    out.push(layer("mercury.attach_pginfo.cycles", "cycles"));
    out.push(layer("mercury.vo_enter_exit.host_ns", "ns"));
    for (name, unit) in [
        ("bench.user_cycles_per_op", "cycles"),
        ("bench.queue_cycles_per_op", "cycles"),
        ("nimbus.calls_per_op", "count"),
        ("nimbus.cycles_per_op", "cycles"),
        ("nimbus.host_ns_per_op", "ns"),
        ("mercury.switch_cycles_per_op", "cycles"),
        ("mercury.switches", "count"),
        ("xenon.hypercalls_per_op", "count"),
        ("xenon.mmu_entries_per_op", "count"),
        ("xenon.reflections_per_op", "count"),
        ("simx86.tlb_miss_per_op", "count"),
        ("simx86.tlb_flush_per_op", "count"),
        ("simx86.invlpg_per_op", "count"),
        ("simx86.fault_per_op", "count"),
        ("simx86.write_cr3_per_op", "count"),
        ("bench.residual_pct", "%"),
        ("bench.trace_overhead_pct", "%"),
    ] {
        out.push(layer(name, unit));
    }
    out
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(&m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let on_disk = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        assert_eq!(
            on_disk,
            benchmark_json().pretty(),
            "regenerate with `run.sh --describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = SPECS
            .iter()
            .map(|s| s.name.to_string())
            .chain(end_to_end().into_iter().map(|m| m.name))
            .chain(per_layer().into_iter().map(|m| m.name));
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(per_layer().len() <= 128);
    }
}
