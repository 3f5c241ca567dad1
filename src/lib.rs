//! # mercury-suite — the umbrella package
//!
//! The interesting code lives in the member crates; this package holds
//! the workspace-level `tests/` (integration tests spanning crates),
//! the runnable scenarios in `examples/`, and the report binaries that
//! regenerate the paper's tables and figures.
//!
//! Its two features are the workspace's only hook switches: `trace`
//! turns the merctrace probes on (`merctrace/enabled`) and `faults` the
//! faultgen injection hooks (`faultgen/enabled`).  A bin that needs a
//! hook lists it in `required-features`, so a build without it skips
//! the bin instead of running it with the hook compiled out.
//!
//! Binaries (run with `cargo run --release --features trace,faults --bin <name>`):
//!
//! | binary | needs | regenerates |
//! |---|---|---|
//! | `all` | — | Tables 1–2 (lmbench latencies, UP and SMP), Figs. 3–4 (relative application performance, UP and SMP), §7.4 mode switch times and the §5.1.2 strategy ablation (one row per `TrackingStrategy`, plus sharded-vs-serial attach), the two §8 probes (software vs hardware-assisted switching, switch time vs processor count), the dbench writeback probe, and the `bench_results.json` dump for EXPERIMENTS.md |
//! | `switch_timeline` | `trace` | §7.3 — per-phase switch decomposition (merctrace) |
//! | `fault_campaign` | `faults` | DESIGN.md §12 — seeded dependability campaigns (`faultgen_results.json`) |
//! | `serving_tail` | `faults` | DESIGN.md §13, §15, §16 — request tails while the machine self-virtualizes under load (`serving_results.json`) and the fleet under its migration timeline (`fleet_results.json`) |
//!
//! The two campaign bins stand on one harness, [`campaign`]; every bin
//! writes its archive with [`json_block`], [`json_list`] and
//! [`json_object`].

pub mod campaign;

use mercury::{SwitchOutcome, TrackingStrategy};
use mercury_workloads::configs::{switch_with_peers, TestBed};
use mercury_workloads::lmbench::lat_fork;
use simx86::costs::cycles_to_us;
use std::sync::atomic::Ordering;

/// One campaign binary's simulated-throughput measurement, archived in
/// `sim_speed.json` and gated by `tools/benchgate.py --sim-speed`
/// (DESIGN.md §14, EXPERIMENTS.md "Campaign scale").
///
/// The simulated-cycle numerator always comes from deterministic
/// archived quantities (request record finish offsets, fault detection
/// cycles) — never from machine clocks, whose SMP totals include
/// host-timing-dependent rendezvous spin.
#[derive(Debug, Clone)]
pub struct SimSpeed {
    /// Simulated mega-cycles the suite covered (one pass).
    pub sim_mcycles: f64,
    /// Host seconds the first pass took.
    pub host_seconds: f64,
}

impl SimSpeed {
    /// Headline throughput: simulated Mcycles per host second.
    pub fn mcycles_per_host_second(&self) -> f64 {
        self.sim_mcycles / self.host_seconds.max(1e-9)
    }
}

/// A finite `f64` as a JSON number (`1.0`, not `1`); `null` otherwise.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", merctrace::export::escape(s))
}

/// `{"key": value, ...}` on one line, from already-rendered values.
pub fn json_object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let fields: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `open`, one line per entry two spaces past `indent`, `close` at
/// `indent`: the multi-line layout of the archives.
fn json_lines(open: char, close: char, indent: usize, lines: Vec<String>) -> String {
    let pad = " ".repeat(indent);
    let lines = lines.join(&format!(",\n{pad}  "));
    format!("{open}\n{pad}  {lines}\n{pad}{close}")
}

/// `{"key": value, ...}` with one field per line, for an object that
/// sits `indent` spaces deep.
pub fn json_block<K: AsRef<str>>(
    indent: usize,
    fields: impl IntoIterator<Item = (K, String)>,
) -> String {
    let field = |(k, v): (K, String)| format!("{}: {v}", json_str(k.as_ref()));
    json_lines('{', '}', indent, fields.into_iter().map(field).collect())
}

/// `[item, ...]` with one already-rendered item per line.
pub fn json_list(indent: usize, items: impl IntoIterator<Item = String>) -> String {
    json_lines('[', ']', indent, items.into_iter().collect())
}

/// Set suite `key` of `sim_speed.json` in the working directory to
/// `entry`, keeping the suites other binaries wrote there.  The file
/// is small and human-diffable; nightly CI uploads it and
/// `benchgate.py --sim-speed` compares it against the archived copy at
/// the repo root.
pub fn record_sim_speed(key: &str, entry: &SimSpeed) {
    let old = std::fs::read_to_string("sim_speed.json").unwrap_or_default();
    std::fs::write("sim_speed.json", merge_sim_speed(&old, key, entry))
        .expect("write sim_speed.json");
    eprintln!(
        "sim_speed.json[{key}]: {:.1} simulated Mcycles in {:.2}s host ({:.1} Mcycles/s)",
        entry.sim_mcycles,
        entry.host_seconds,
        entry.mcycles_per_host_second(),
    );
}

/// `old` (the text of a `sim_speed.json`, or anything else) with suite
/// `key` set to `entry`.  The file holds one `  "suite": {...}` line
/// per suite, so the other suites' lines are carried over as text;
/// lines in any other shape are dropped.
fn merge_sim_speed(old: &str, key: &str, entry: &SimSpeed) -> String {
    let mine = format!("  {}: ", json_str(key));
    let mut suites: Vec<String> = old
        .lines()
        .map(|l| l.trim_end_matches(','))
        .filter(|l| l.starts_with("  \"") && l.ends_with('}') && !l.starts_with(&mine))
        .map(str::to_string)
        .collect();
    let fields = [
        ("host_seconds", entry.host_seconds),
        ("mcycles_per_host_second", entry.mcycles_per_host_second()),
        ("sim_mcycles", entry.sim_mcycles),
    ];
    let entry = json_object(fields.map(|(name, v)| (name, json_num(v))));
    suites.push(mine + &entry);
    suites.sort();
    format!("{{\n{}\n}}\n", suites.join(",\n"))
}

/// Measured mode-switch times for one strategy.
#[derive(Debug, Clone)]
pub struct SwitchTimes {
    /// Strategy name.
    pub strategy: String,
    /// Mean native→virtual time (µs), all samples.
    pub attach_us: f64,
    /// First (cold) native→virtual time (µs).  Under the dirty-baseline
    /// strategies there is no full-table cold attach any more: the
    /// boot-time pre-cache arms the snapshot at install, so even the
    /// first attach pays only for the frames dirtied since boot.  For
    /// the legacy strategies this is the full-rate first validation.
    pub cold_attach_us: f64,
    /// Mean of the warm re-attaches (µs): every sample after the first.
    pub warm_attach_us: f64,
    /// Mean virtual→native time (µs).
    pub detach_us: f64,
    /// Samples taken.
    pub samples: u32,
    /// Native-mode fork latency on a fresh bed (µs): what the strategy
    /// costs while the VMM is detached (§5.1.2's "2%~3%").
    pub native_fork_us: f64,
}

/// Sharded-vs-serial attach-time `page_info` recompute on an SMP rig
/// (every CPU of the §5.4 rendezvous charges its stripe of the scan).
#[derive(Debug, Clone)]
pub struct ShardedRecompute {
    /// Simulated CPUs on the rig (1 control processor + peers).
    pub cpus: usize,
    /// Mean cost of the same recompute walked serially by the CP alone,
    /// over a scratch table (µs).
    pub serial_pginfo_us: f64,
    /// Mean attach-time recompute cost, sharded across the rendezvoused
    /// peers — the CP charges the makespan, not the sum (µs).
    pub sharded_pginfo_us: f64,
    /// `serial / sharded`.
    pub speedup: f64,
    /// Samples per variant.
    pub samples: u32,
}

/// Microseconds as the switch archives print them (four decimals).
pub fn json_us(v: f64) -> String {
    format!("{v:.4}")
}

impl SwitchTimes {
    /// The one-line JSON object `bench_results.json` archives.
    pub fn to_json(&self) -> String {
        json_object([
            ("strategy", json_str(&self.strategy)),
            ("attach_us", json_us(self.attach_us)),
            ("cold_attach_us", json_us(self.cold_attach_us)),
            ("warm_attach_us", json_us(self.warm_attach_us)),
            ("detach_us", json_us(self.detach_us)),
            ("samples", self.samples.to_string()),
            ("native_fork_us", json_us(self.native_fork_us)),
        ])
    }
}

impl ShardedRecompute {
    /// The one-line JSON object `bench_results.json` archives.
    pub fn to_json(&self) -> String {
        json_object([
            ("cpus", self.cpus.to_string()),
            ("serial_pginfo_us", json_us(self.serial_pginfo_us)),
            ("sharded_pginfo_us", json_us(self.sharded_pginfo_us)),
            ("speedup", json_us(self.speedup)),
            ("samples", self.samples.to_string()),
        ])
    }
}

/// Warm a bed the same way for every measurement: a real process and a
/// 128-page dirty mapping, so the transfer functions have work to do.
pub fn warm(bed: &TestBed) -> nimbus::Session {
    let sess = bed.session(0);
    sess.exec("lat_proc").expect("exec");
    let va = sess
        .mmap(128, nimbus::mm::Prot::RW, nimbus::kernel::MmapBacking::Anon)
        .expect("mmap");
    for p in 0..128u64 {
        sess.poke(simx86::VirtAddr(va.0 + p * 4096), p)
            .expect("touch");
    }
    sess
}

/// Measure attach/detach round trips on a fresh M-N system, and the
/// native-mode fork latency on another.
pub fn measure_switch_times(strategy: TrackingStrategy, samples: u32) -> SwitchTimes {
    let native_fork_us = lat_fork(&TestBed::build_mn_with_strategy(1, strategy), 8);
    let bed = TestBed::build_mn_with_strategy(1, strategy);
    let mercury = bed.mercury.as_ref().expect("M-N testbed has mercury");
    let cpu = bed.machine.boot_cpu();
    let _sess = warm(&bed);
    let mut attach_total = 0u64;
    let mut detach_total = 0u64;
    let mut cold = 0u64;
    for i in 0..samples {
        let SwitchOutcome::Completed { cycles } = mercury.switch_to_virtual(cpu).expect("attach")
        else {
            panic!("attach did not complete")
        };
        attach_total += cycles;
        if i == 0 {
            cold = cycles;
        }
        let SwitchOutcome::Completed { cycles } = mercury.switch_to_native(cpu).expect("detach")
        else {
            panic!("detach did not complete")
        };
        detach_total += cycles;
    }
    let warm_samples = samples.saturating_sub(1).max(1);
    SwitchTimes {
        strategy: format!("{strategy:?}"),
        attach_us: cycles_to_us(attach_total) / samples as f64,
        cold_attach_us: cycles_to_us(cold),
        warm_attach_us: cycles_to_us(attach_total - cold) / warm_samples as f64,
        detach_us: cycles_to_us(detach_total) / samples as f64,
        samples,
        native_fork_us,
    }
}

/// Measure the attach-time `page_info` recompute on a `cpus`-way M-N
/// rig, sharded vs serial.  The peers are serviced by temporary host
/// threads exactly as the SMP testbeds do.  Sharded is
/// `SwitchStats::last_pginfo_cycles` — the simulated cycles the control
/// processor spent in the recompute phase (its stripe of the scan and
/// the table walk, or the longest stripe if that is more).
/// A rig with peers always shards, so the serial reference is the same
/// walk made by the CP alone over a scratch table while attached
/// (detached, the tables are writable and fail validation).
pub fn measure_sharded_recompute(cpus: usize, samples: u32) -> ShardedRecompute {
    assert!(cpus >= 2, "sharding needs at least one peer");
    let bed = TestBed::build_mn_with_strategy(cpus, TrackingStrategy::RecomputeOnSwitch);
    let mercury = bed.mercury.as_ref().expect("M-N testbed has mercury");
    let cpu = bed.machine.boot_cpu();
    let dom = mercury.dom0().id;
    let _sess = warm(&bed);
    let pool = bed.kernel.pool_frames();
    let scratch = xenon::PageInfoTable::new(bed.machine.mem.num_frames());
    for &f in &pool {
        scratch.set_owner(f, Some(dom));
    }

    let (mut serial, mut sharded) = (0u64, 0u64);
    for _ in 0..samples {
        let out = switch_with_peers(&bed.machine, mercury, true);
        assert!(
            matches!(out, SwitchOutcome::Completed { .. }),
            "attach did not complete"
        );
        sharded += mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed);
        let t0 = cpu.cycles();
        scratch
            .recompute_for(
                cpu,
                &bed.machine.mem,
                dom,
                pool.len(),
                &bed.kernel.all_pgds(),
            )
            .expect("serial reference walk");
        serial += cpu.cycles() - t0;
        switch_with_peers(&bed.machine, mercury, false);
    }

    let serial_us = cycles_to_us(serial) / samples as f64;
    let sharded_us = cycles_to_us(sharded) / samples as f64;
    ShardedRecompute {
        cpus,
        serial_pginfo_us: serial_us,
        sharded_pginfo_us: sharded_us,
        speedup: serial_us / sharded_us,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_speed_merge_keeps_other_suites_and_replaces_its_own() {
        let entry = SimSpeed {
            sim_mcycles: 612.0,
            host_seconds: 96.0,
        };
        let line =
            r#"{"host_seconds": 96.0, "mcycles_per_host_second": 6.375, "sim_mcycles": 612.0}"#;
        // Anything that is not a suite line is dropped, NaN is `null`.
        let first = merge_sim_speed("{\n  \"old\": {\n    \"x\": 1\n  }\n}\n", "serving", &entry);
        assert_eq!(first, format!("{{\n  \"serving\": {line}\n}}\n"));
        let both = merge_sim_speed(&first, "fault\"gen", &entry);
        assert_eq!(
            both,
            format!("{{\n  \"fault\\\"gen\": {line},\n  \"serving\": {line}\n}}\n")
        );
        let slower = SimSpeed {
            sim_mcycles: f64::NAN,
            ..entry
        };
        let again = merge_sim_speed(&both, "serving", &slower);
        assert_eq!(again.matches("\"serving\"").count(), 1);
        assert_eq!(again.matches("\"sim_mcycles\": 612.0").count(), 1);
        assert_eq!(again.matches("\"sim_mcycles\": null").count(), 1);
    }
}
