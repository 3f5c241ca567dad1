//! Two-clock benchmark over simx86 -> xenon -> nimbus -> mercury.
//!
//! One invocation sets up and measures one workload and prints, as its
//! last line, the JSON result the driver reads.  `run.sh` builds the
//! two variants of this program (untraced, and traced with the `trace`
//! feature) and runs them; see `README.md`.

mod calib;
mod gen;
mod json;
#[cfg(feature = "trace")]
mod ladder;
mod rig;
mod spec;
mod stats;
mod trace;
mod workloads;

use calib::{calibrated_seconds, Reference};
use gen::{subseed, Purpose};
use json::Json;
use mercury::{ExecMode, TrackingStrategy};
use rig::Rig;
use simx86::costs::CYCLES_PER_US;
use spec::{Kind, Metric, Spec};
use stats::{cycles_to_us, median, percentile, step_rate};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Churn, Serve, Sink, SwitchCycle, Workload};

const TRACED: bool = cfg!(feature = "trace");
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Warm-up ops before the timed section, as a share of the block.
const WARMUP_SHARE: f64 = 0.05;
/// Offered load of the serve workloads: 100k requests per simulated
/// second, about 55 % utilisation in native mode.
const MEAN_GAP_CYCLES: u64 = 30_000;
/// Open-loop capacity: the highest rate whose p99 stays within this.
const P99_LIMIT_US: u64 = 50;
const CAPACITY_STEPS: u32 = 12;
const CAPACITY_RANGE_RPS: (f64, f64) = (20_000.0, 400_000.0);
/// Requests per capacity probe, per second of `--seconds`.
const PROBE_OPS_PER_SECOND: u64 = 12_500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ops {
    /// The deterministic block, then more ops until `--seconds` is up.
    Full,
    /// A quarter of the block and nothing after: what the traced build
    /// runs, and what the untraced build runs to be compared with it.
    Quarter,
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    ops: Ops,
    /// What the traced build's rate is compared with.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    untraced_ops_per_s: Option<f64>,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: mercury-benchmark describe\n       mercury-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n           [--ops full|quarter] [--untraced-ops-per-s X] [--out DIR]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (11u64, spec::RUN_SECONDS, TRACED);
    let (mut ops, mut untraced_ops_per_s, mut out) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(spec::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--ops" => {
                ops = Some(match value.as_str() {
                    "full" => Ops::Full,
                    "quarter" => Ops::Quarter,
                    _ => return Err(format!("--ops {value}: full or quarter")),
                })
            }
            "--untraced-ops-per-s" => {
                untraced_ops_per_s = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x > 0.0)
                        .ok_or_else(|| format!("{flag} {value}: not a positive rate"))?,
                )
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if trace != TRACED {
        return Err(format!(
            "--trace {} needs the {} build (run.sh picks it)",
            trace as u8,
            if trace { "traced" } else { "untraced" }
        ));
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: 1 to 60"));
    }
    let ops = ops.unwrap_or(if TRACED { Ops::Quarter } else { Ops::Full });
    if TRACED && ops == Ops::Full {
        return Err("the traced build runs --ops quarter only".to_string());
    }
    if TRACED && untraced_ops_per_s.is_none() {
        return Err("the traced build needs --untraced-ops-per-s (run.sh measures it)".to_string());
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        ops,
        untraced_ops_per_s,
        out,
    })
}

enum Bench {
    Serve(Serve),
    Churn(Churn),
    Cycle(SwitchCycle),
}

impl Bench {
    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Bench::Serve(s) => s,
            Bench::Churn(c) => c,
            Bench::Cycle(c) => c,
        }
    }

    /// Begin a fresh seeded input stream at the CPU's current cycle.
    fn restart(&mut self, rig: &Rig, spec: &Spec, seed: u64, purpose: Purpose, gap: u64) {
        let stream = subseed(seed, purpose);
        match self {
            Bench::Serve(s) => {
                let switching = spec.kind == Kind::Serve { switching: true };
                let plan = switching.then(|| subseed(stream, Purpose::Switches));
                s.restart(rig, stream, gap, plan);
            }
            Bench::Churn(c) => c.restart(stream),
            Bench::Cycle(c) => c.restart(stream),
        }
    }
}

struct Prepared {
    rig: Rig,
    bench: Bench,
    warmup_failed: u64,
}

/// Everything before the first timed op: machine, warm VMM, kernel,
/// Mercury, files and working sets, the starting mode, warm-up ops.
fn prepare(spec: &Spec, seed: u64, block: u64) -> Prepared {
    let rig = Rig::build(TrackingStrategy::default());
    let mut bench = match spec.kind {
        Kind::Serve { .. } => Bench::Serve(Serve::open(&rig)),
        Kind::Churn => Bench::Churn(Churn::open(&rig)),
        Kind::SwitchCycle => Bench::Cycle(SwitchCycle::open(&rig)),
    };
    if spec.mode == ExecMode::Virtual {
        rig.switch_to(ExecMode::Virtual).expect("initial attach");
    }
    let warmup = ((block as f64 * WARMUP_SHARE) as u64).max(1);
    bench.restart(&rig, spec, seed, Purpose::Warmup, MEAN_GAP_CYCLES);
    let sink = workloads::run(
        bench.workload(),
        &rig,
        &mut Recorder::new(),
        warmup,
        None,
        None,
    );
    if let Some(why) = &sink.first_failure {
        eprintln!("warm-up: {why}");
    }
    // Warm-up switches may leave the other mode behind.
    if rig.mercury.mode() != spec.mode {
        rig.switch_to(spec.mode)
            .expect("return to the starting mode");
    }
    bench.restart(&rig, spec, seed, Purpose::Timed, MEAN_GAP_CYCLES);
    Prepared {
        rig,
        bench,
        warmup_failed: sink.failed,
    }
}

/// Open loop: bisect for the highest offered rate whose p99 stays
/// within the limit with nothing shed, on the timed run's own seed.
/// Probes a set-up of its own: the measured one has run for as long as
/// the host let it, and the answer must depend on the seed alone.
fn open_loop_capacity(spec: &Spec, seed: u64, block: u64, probe_ops: u64) -> f64 {
    let mut p = prepare(spec, seed, block);
    let (mut lo, mut hi) = CAPACITY_RANGE_RPS;
    for _ in 0..CAPACITY_STEPS {
        let rate = (lo + hi) / 2.0;
        let gap = (CYCLES_PER_US as f64 * 1e6 / rate).round() as u64;
        p.bench.restart(&p.rig, spec, seed, Purpose::Timed, gap);
        let mut sink = workloads::run(
            p.bench.workload(),
            &p.rig,
            &mut Recorder::new(),
            probe_ops,
            None,
            None,
        );
        sink.latencies.sort_unstable();
        let (p99, _) = percentile(&sink.latencies, 0.99);
        if sink.failed == 0 && p99 as u64 <= P99_LIMIT_US * CYCLES_PER_US {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    lo
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Counters the product keeps, read before and after the timed section.
#[derive(Debug, Clone, Copy, Default)]
struct LayerCounts {
    hypercalls: u64,
    mmu_entries: u64,
    reflections: u64,
    switches: u64,
    switch_cycles: u64,
}

impl LayerCounts {
    fn read(rig: &Rig) -> LayerCounts {
        use std::sync::atomic::Ordering::Relaxed;
        let hv = rig.mercury.hypervisor();
        let m = &rig.mercury.stats;
        LayerCounts {
            hypercalls: hv.stats.hypercalls.load(Relaxed),
            mmu_entries: hv.stats.mmu_entries.load(Relaxed),
            reflections: hv.stats.reflections.load(Relaxed),
            switches: m.attaches.load(Relaxed) + m.detaches.load(Relaxed),
            switch_cycles: m.total_attach_cycles.load(Relaxed)
                + m.total_detach_cycles.load(Relaxed),
        }
    }

    fn since(self, before: LayerCounts) -> LayerCounts {
        LayerCounts {
            hypercalls: self.hypercalls - before.hypercalls,
            mmu_entries: self.mmu_entries - before.mmu_entries,
            reflections: self.reflections - before.reflections,
            switches: self.switches - before.switches,
            switch_cycles: self.switch_cycles - before.switch_cycles,
        }
    }
}

/// The traced build's numbers: ladder rungs, then per-op attribution
/// from the harness spans, the product's counters and its merctrace
/// aggregates.  Returns the values and any cross-check that failed.
#[cfg(feature = "trace")]
fn per_layer_values(
    rec: &Recorder,
    counts: LayerCounts,
    traced_ops_per_s: f64,
    untraced_ops_per_s: f64,
) -> (Vec<(String, f64)>, Option<String>) {
    use trace::Layer;

    let mut out = Vec::new();
    for rung in ladder::run() {
        if let Some(cycles) = rung.cycles {
            out.push((format!("{}.cycles", rung.name), cycles));
        }
        if let Some(host_ns) = rung.host_ns {
            out.push((format!("{}.host_ns", rung.name), host_ns));
        }
    }

    let snap = merctrace::snapshot();
    let ops = rec.ops as f64;
    let per_op = |n: u64| n as f64 / ops;
    let (user, nimbus) = (rec.totals(Layer::Bench), rec.totals(Layer::Nimbus));
    for (name, value) in [
        ("bench.user_cycles_per_op", per_op(user.cycles)),
        ("bench.queue_cycles_per_op", per_op(rec.queue_cycles)),
        ("nimbus.calls_per_op", per_op(nimbus.calls)),
        ("nimbus.cycles_per_op", per_op(nimbus.cycles)),
        ("nimbus.host_ns_per_op", per_op(nimbus.host_ns)),
        ("mercury.switch_cycles_per_op", per_op(counts.switch_cycles)),
        ("mercury.switches", counts.switches as f64),
        ("xenon.hypercalls_per_op", per_op(counts.hypercalls)),
        ("xenon.mmu_entries_per_op", per_op(counts.mmu_entries)),
        ("xenon.reflections_per_op", per_op(counts.reflections)),
        (
            "simx86.tlb_miss_per_op",
            per_op(snap.counter("simx86.tlb.miss")),
        ),
        (
            "simx86.tlb_flush_per_op",
            per_op(snap.counter("simx86.tlb.flush")),
        ),
        (
            "simx86.invlpg_per_op",
            per_op(snap.counter("simx86.tlb.invlpg")),
        ),
        ("simx86.fault_per_op", per_op(snap.counter("simx86.fault"))),
        (
            "simx86.write_cr3_per_op",
            per_op(snap.counter("simx86.privop.write_cr3")),
        ),
        (
            // What the spans inside ops leave unexplained.
            "bench.residual_pct",
            stats::pct(
                (rec.sojourn_cycles - rec.queue_cycles - rec.child_cycles) as f64,
                rec.sojourn_cycles as f64,
            ),
        ),
        (
            "bench.trace_overhead_pct",
            stats::pct(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s),
        ),
    ] {
        out.push((name.to_string(), value));
    }

    let mut wrong = None;
    for (probe, counted) in [
        ("xenon.hypercall", counts.hypercalls),
        ("xenon.trap.reflect", counts.reflections),
    ] {
        let traced = snap.counter(probe);
        if traced != counted {
            wrong = Some(format!(
                "merctrace {probe} = {traced} but hv.stats counted {counted}"
            ));
        }
    }
    (out, wrong)
}

fn metrics_json(specs: &[Metric], values: &[(String, f64)]) -> Json {
    Json::obj(specs.iter().map(|m| {
        let (_, value) = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn print_metrics(specs: &[Metric], values: &[(String, f64)], note: impl Fn(&str) -> String) {
    for m in specs {
        if let Some((_, value)) = values.iter().find(|(name, _)| *name == m.name) {
            println!(
                "  {:<36} {:>18.6} {:<10} {}",
                m.name,
                value,
                m.unit,
                note(&m.name)
            );
        }
    }
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let write =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = write {
        eprintln!("cannot write {}: {e}", dir.join(name).display());
    }
}

fn measure(args: &Args) -> bool {
    let spec = args.spec;
    let build = if TRACED { "traced" } else { "untraced" };
    let full_block = (spec.ops_per_second * args.seconds).max(200);
    let block = match args.ops {
        Ops::Full => full_block,
        Ops::Quarter => full_block / 4,
    };

    // Set up several times; the last one is measured.  Host times are
    // reported in calibrated seconds (see `calib`).
    let mut reference = Reference::new();
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let before = reference.sample();
        let t = Instant::now();
        prepared = Some(prepare(spec, args.seed, block));
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(calibrated_seconds(raw, before, reference.sample()));
        setup_raw_s.push(raw);
    }
    let mut p = prepared.expect("SETUP_REPS is at least one");

    let before = LayerCounts::read(&p.rig);
    if TRACED {
        merctrace::reset();
        merctrace::arm();
    }
    let mut rec = Recorder::new();
    let fill_until =
        (args.ops == Ops::Full).then(|| Instant::now() + Duration::from_secs(args.seconds));
    let mut sink: Sink = workloads::run(
        p.bench.workload(),
        &p.rig,
        &mut rec,
        block,
        fill_until,
        Some(reference),
    );
    merctrace::disarm();
    let counts = LayerCounts::read(&p.rig).since(before);

    // Serving with switches ends in whichever mode the last one left.
    let expected_mode = match (spec.kind, counts.switches % 2) {
        (Kind::Serve { switching: true }, 1) => ExecMode::Virtual,
        _ => spec.mode,
    };
    let mut wrong: Vec<String> = Vec::new();
    if p.rig.mercury.mode() != expected_mode {
        wrong.push(format!(
            "ended in {:?} mode, expected {expected_mode:?}",
            p.rig.mercury.mode()
        ));
    }
    if p.warmup_failed > 0 {
        wrong.push(format!("{} warm-up ops failed", p.warmup_failed));
    }

    let samples = sink.latencies.len();
    sink.latencies.sort_unstable();
    let [(p50, beyond50), (p99, beyond99), (p999, beyond999)] =
        [0.5, 0.99, 0.999].map(|q| percentile(&sink.latencies, q));
    let block_seconds =
        (sink.block_end_cycle - sink.start_cycle) as f64 / (CYCLES_PER_US as f64 * 1e6);
    let host_ops = step_rate(&sink.marks, |m| m.ops);
    let host_busy = step_rate(&sink.marks, |m| m.busy_cycles);
    drop(p);
    let capacity = match spec.kind {
        Kind::Serve { .. } => {
            let probe_ops = PROBE_OPS_PER_SECOND * args.seconds;
            open_loop_capacity(spec, args.seed, block, probe_ops)
        }
        Kind::Churn | Kind::SwitchCycle => samples as f64 / block_seconds,
    };
    let end_to_end: Vec<(String, f64)> = [
        ("setup_s", median(&setup_s)),
        ("sim_p50_us", cycles_to_us(p50 as f64)),
        ("sim_p99_us", cycles_to_us(p99 as f64)),
        ("sim_p999_us", cycles_to_us(p999 as f64)),
        (
            "sim_mean_us",
            cycles_to_us(sink.service_cycles as f64 / samples as f64),
        ),
        ("sim_capacity_rps", capacity),
        ("host_ops_per_s", host_ops.calibrated),
        ("host_busy_mcycles_per_s", host_busy.calibrated / 1e6),
        ("peak_rss_mb", peak_rss_mib()),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();

    #[cfg(feature = "trace")]
    let per_layer = {
        let untraced = args.untraced_ops_per_s.expect("checked by parse_args");
        let (values, mismatch) = per_layer_values(&rec, counts, host_ops.calibrated, untraced);
        wrong.extend(mismatch);
        values
    };
    #[cfg(not(feature = "trace"))]
    let per_layer: Vec<(String, f64)> = Vec::new();

    // No workload may reach save, migrate or checkpoint code.
    let stubs = serde_json::stub_calls();
    if stubs > 0 {
        wrong.push(format!("{stubs} calls reached the serde_json stand-in"));
    }

    let provenance = format!(
        "commit={} command=[{}] seed={} profile=release build={build} nproc={}",
        std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        std::env::args().skip(1).collect::<Vec<_>>().join(" "),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    println!(
        "workload {}  seed {}  build {build}  block {block} ops  ({})",
        spec.name,
        args.seed,
        match spec.kind {
            Kind::Serve { .. } => "open loop, 100000 requests per simulated second",
            Kind::Churn | Kind::SwitchCycle => "closed loop, one client",
        }
    );
    print_metrics(&spec::end_to_end(), &end_to_end, |name| match name {
        "setup_s" => format!(
            "median of {SETUP_REPS} set-ups, calibrated; raw {:.6}",
            median(&setup_raw_s)
        ),
        "sim_p50_us" => format!("n={samples}, {beyond50} beyond"),
        "sim_p99_us" => format!("n={samples}, {beyond99} beyond"),
        "sim_p999_us" => format!("n={samples}, {beyond999} beyond"),
        "sim_mean_us" => format!("n={samples}"),
        "host_ops_per_s" | "host_busy_mcycles_per_s" => format!(
            "median of {} steps over {:.2} s, calibrated; raw {:.6}",
            sink.marks.len() - 1,
            sink.marks.last().map_or(0, |m| m.host_ns) as f64 * 1e-9,
            if name == "host_ops_per_s" {
                host_ops.raw
            } else {
                host_busy.raw / 1e6
            }
        ),
        _ => String::new(),
    });
    print_metrics(&spec::per_layer(), &per_layer, |_| String::new());
    println!(
        "  ops_attempted {}  ops_failed {}",
        sink.attempted, sink.failed
    );
    if let Some(why) = &sink.first_failure {
        println!("  first failure: {why}");
    }
    for why in &wrong {
        println!("  WRONG: {why}");
    }
    println!("provenance: {provenance}");

    let correct = wrong.is_empty();
    if let Some(dir) = &args.out {
        let ops = match args.ops {
            Ops::Full => "full",
            Ops::Quarter => "quarter",
        };
        let archive = Json::obj([
            ("provenance", Json::str(&provenance)),
            ("workload", Json::str(spec.name)),
            ("correct", Json::Bool(correct)),
            ("ops_attempted", Json::Int(sink.attempted)),
            ("ops_failed", Json::Int(sink.failed)),
            ("samples", Json::Int(samples as u64)),
            ("end_to_end", metrics_json(&spec::end_to_end(), &end_to_end)),
            (
                "per_layer",
                if TRACED {
                    metrics_json(&spec::per_layer(), &per_layer)
                } else {
                    Json::Null
                },
            ),
        ]);
        write_file(
            dir,
            &format!("{}.{build}.{ops}.json", spec.name),
            &archive.pretty(),
        );
        #[cfg(feature = "trace")]
        write_file(
            dir,
            &format!("trace.{}.json", spec.name),
            &rec.raw_spans_json().render(),
        );
    }

    let (specs, values) = if TRACED {
        (spec::per_layer(), &per_layer)
    } else {
        (spec::end_to_end(), &end_to_end)
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(sink.attempted)),
        ("failed", Json::Int(sink.failed)),
        ("metrics", metrics_json(&specs, values)),
    ]);
    println!("{}", result.render());
    correct && sink.failed == 0
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["describe"] {
        print!("{}", spec::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv) {
        Ok(args) if measure(&args) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
