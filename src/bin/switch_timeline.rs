//! Decompose §7.4's mode-switch cost into its §5.1 phases.
//!
//! Runs the same warmed uniprocessor M-N systems as the `mode_switch`
//! binary, but with the merctrace probes armed around every switch, and
//! reports where the cycles of an attach and a detach actually go:
//! state transfer (page-table writability flips, selector fixups, frame
//! accounting), per-CPU hardware reload, and the VO pointer swap.
//!
//! Three legs, one per path of interest:
//!
//! * **attach / detach** — the default ([`TrackingStrategy::DirtyRecompute`])
//!   path: boot pre-cache + O(dirty) revalidation on attach, snapshot
//!   retention (O(tables) release) on detach.  This is the headline
//!   decomposition benchgate budgets against.
//! * **attach_full / detach_full** — the paper's original
//!   recompute-on-switch path, kept as the §7.4 anchor (the ~0.22 ms /
//!   ~0.06 ms numbers).
//! * **live_update** — the hv-to-hv update path (DESIGN.md §16): the
//!   kernel stays virtual while a pre-cached successor hypervisor
//!   handshakes, rebuilds its frame accounting cold, and commits.
//!
//! Emits three artifacts next to `bench_results.json`:
//!
//! * a markdown per-phase table on stdout (pasted into EXPERIMENTS.md §7.3),
//! * `switch_timeline.json` — the same breakdown, machine-readable,
//! * `switch_timeline.trace.json` — a Chrome `trace_event` file of the
//!   default leg's last attach/detach pair (open in `about:tracing` /
//!   Perfetto).
//!
//! The sum of the phases is checked against the end-to-end switch cost
//! for every leg: the binary exits non-zero if they disagree by more
//! than 1%, so the decomposition cannot silently drift from the
//! headline number.

use mercury::{SwitchOutcome, TrackingStrategy, Transition};
use mercury_suite::campaign::Gates;
use mercury_suite::{json_block, warm};
use mercury_workloads::configs::{SysKind, TestBed};
use simx86::costs::{cycles_to_us, CYCLES_PER_US};
use std::collections::BTreeMap;
use std::process::ExitCode;

const SAMPLES: u32 = 20;

/// Accumulated per-phase cycles for one switch direction.
struct Breakdown {
    /// Leg label (`attach`, `detach_full`, `live_update`, …).
    label: &'static str,
    /// Phase probe names in timeline order ([`mercury::Mercury::timeline`]:
    /// the rows of the transition's table plus the driver's fixed steps).
    phases: Vec<&'static str>,
    /// Total cycles per phase across all samples.
    cycles: BTreeMap<&'static str, u64>,
    /// Total end-to-end cycles ([`SwitchOutcome::Completed`]).
    total: u64,
    /// Samples taken.
    samples: u32,
}

impl Breakdown {
    fn new(label: &'static str, phases: Vec<&'static str>) -> Breakdown {
        Breakdown {
            label,
            phases,
            cycles: BTreeMap::new(),
            total: 0,
            samples: 0,
        }
    }

    fn add(&mut self, snap: &merctrace::Snapshot, end_to_end: u64) {
        let spans = snap.span_cycles();
        for (name, cy) in spans {
            if self.phases.contains(&name) {
                *self.cycles.entry(name).or_insert(0) += cy;
            }
        }
        self.total += end_to_end;
        self.samples += 1;
    }

    fn phase_mean_us(&self, phase: &str) -> f64 {
        cycles_to_us(*self.cycles.get(phase).unwrap_or(&0)) / self.samples as f64
    }

    fn sum_us(&self) -> f64 {
        self.phases.iter().map(|p| self.phase_mean_us(p)).sum()
    }

    fn total_us(&self) -> f64 {
        cycles_to_us(self.total) / self.samples as f64
    }

    fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "| phase ({}) | mean µs | share |\n|---|---:|---:|\n",
            self.label
        ));
        let total = self.total_us();
        for p in &self.phases {
            let us = self.phase_mean_us(p);
            out.push_str(&format!(
                "| `{}` | {:.2} | {:.1}% |\n",
                p,
                us,
                100.0 * us / total
            ));
        }
        out.push_str(&format!(
            "| **sum of phases** | **{:.2}** | {:.1}% |\n",
            self.sum_us(),
            100.0 * self.sum_us() / total
        ));
        out.push_str(&format!("| **end to end** | **{total:.2}** | 100.0% |\n"));
        out
    }

    /// The leg's entry of `switch_timeline.json`.
    fn json(&self) -> String {
        let us = |v: f64| format!("{v:.5}");
        let phases = self.phases.iter().map(|p| (p, us(self.phase_mean_us(p))));
        json_block(
            2,
            [
                ("samples", self.samples.to_string()),
                ("end_to_end_us", us(self.total_us())),
                ("phase_sum_us", us(self.sum_us())),
                ("phases_us", json_block(4, phases)),
            ],
        )
    }
}

/// Run one attach/detach leg: `SAMPLES` round trips on `bed`, phases
/// split per the tables `bed`'s Mercury runs.  Returns the two
/// breakdowns plus the last pair of Chrome traces.
fn run_leg(
    bed: &TestBed,
    labels: (&'static str, &'static str),
) -> (Breakdown, Breakdown, (String, String)) {
    let mercury = bed.mercury.as_ref().expect("M-N testbed has mercury");
    let cpu = bed.machine.boot_cpu();
    let mut attach = Breakdown::new(labels.0, mercury.timeline(Transition::Attach));
    let mut detach = Breakdown::new(labels.1, mercury.timeline(Transition::Detach));
    let mut last_traces = (String::new(), String::new());
    for _ in 0..SAMPLES {
        merctrace::reset();
        merctrace::arm();
        let SwitchOutcome::Completed { cycles } = mercury.switch_to_virtual(cpu).expect("attach")
        else {
            panic!("attach did not complete")
        };
        merctrace::disarm();
        let snap = merctrace::snapshot();
        assert_eq!(snap.total_dropped(), 0, "trace ring overflowed");
        attach.add(&snap, cycles);
        last_traces.0 = merctrace::export::chrome_trace(&snap, CYCLES_PER_US);

        merctrace::reset();
        merctrace::arm();
        let SwitchOutcome::Completed { cycles } = mercury.switch_to_native(cpu).expect("detach")
        else {
            panic!("detach did not complete")
        };
        merctrace::disarm();
        let snap = merctrace::snapshot();
        assert_eq!(snap.total_dropped(), 0, "trace ring overflowed");
        detach.add(&snap, cycles);
        last_traces.1 = merctrace::export::chrome_trace(&snap, CYCLES_PER_US);
    }
    (attach, detach, last_traces)
}

/// Run the live-update leg: attach once (untraced), then `SAMPLES`
/// hv-to-hv updates (v1→v2→…), each staged untraced and measured end
/// to end.  The kernel never leaves virtual mode, so this decomposes
/// the one cost a live-update adds on top of staying attached.
fn run_update_leg(bed: &TestBed) -> (Breakdown, String) {
    let mercury = bed.mercury.as_ref().expect("M-N testbed has mercury");
    let cpu = bed.machine.boot_cpu();
    assert!(matches!(
        mercury.switch_to_virtual(cpu).expect("attach"),
        SwitchOutcome::Completed { .. }
    ));
    let mut update = Breakdown::new("live_update", mercury.timeline(Transition::Update));
    let mut last_trace = String::new();
    for i in 0..SAMPLES {
        let next = xenon::Hypervisor::warm_up_versioned(&bed.machine, i + 2);
        mercury.stage_update(next).expect("stage update");
        merctrace::reset();
        merctrace::arm();
        let SwitchOutcome::Completed { cycles } = mercury.live_update(cpu).expect("live-update")
        else {
            panic!("live-update did not complete")
        };
        merctrace::disarm();
        let snap = merctrace::snapshot();
        assert_eq!(snap.total_dropped(), 0, "trace ring overflowed");
        update.add(&snap, cycles);
        last_trace = merctrace::export::chrome_trace(&snap, CYCLES_PER_US);
    }
    assert_eq!(mercury.hv_version(), SAMPLES + 1, "versions must march");
    (update, last_trace)
}

fn main() -> ExitCode {
    merctrace::init(merctrace::DEFAULT_RING_CAPACITY);

    // Headline leg: the default dirty-baseline strategy, warmed like
    // `mode_switch`.  Between round trips nothing runs, so samples past
    // the first decompose the steady O(dirty)+O(tables) switch.
    let bed = TestBed::build_mn_with_strategy(1, TrackingStrategy::default());
    let _sess = warm(&bed);
    let (attach, detach, traces) = run_leg(&bed, ("attach", "detach"));

    // Anchor leg: the paper's full recompute (§7.4's ~0.22 ms / ~0.06 ms).
    let bed_full = TestBed::build(SysKind::MN, 1);
    let _sess_full = warm(&bed_full);
    let (attach_full, detach_full, _) = run_leg(&bed_full, ("attach_full", "detach_full"));

    // Live-update leg: hv-to-hv on a warmed virtual-mode bed (§6 live
    // VMM update, DESIGN.md §16) — the kernel never detaches to native.
    let bed_update = TestBed::build_mn_with_strategy(1, TrackingStrategy::default());
    let _sess_update = warm(&bed_update);
    let (update, update_trace) = run_update_leg(&bed_update);

    println!("Mode-switch timeline ({SAMPLES} samples per leg)\n");
    println!("Default strategy (dirty-recompute, boot pre-cache):\n");
    println!("{}", attach.markdown());
    println!("{}", detach.markdown());
    println!("Legacy anchor (recompute-on-switch):\n");
    println!("{}", attach_full.markdown());
    println!("{}", detach_full.markdown());
    println!("Hypervisor live-update (hv-to-hv, kernel stays virtual):\n");
    println!("{}", update.markdown());

    let legs = [&attach, &detach, &attach_full, &detach_full, &update];
    let json = json_block(0, legs.map(|b| (b.label, b.json()))) + "\n";
    std::fs::write("switch_timeline.json", json).expect("write switch_timeline.json");
    // Keep the default leg's last attach/detach pair plus the last
    // live-update as the Chrome trace (the other legs differ only in
    // the accounting phase).
    let trace = format!(
        "{{\"attach\":{},\"detach\":{},\"live_update\":{}}}\n",
        traces.0, traces.1, update_trace
    );
    std::fs::write("switch_timeline.trace.json", trace).expect("write switch_timeline.trace.json");
    eprintln!("wrote switch_timeline.json, switch_timeline.trace.json");

    // The decomposition must account for the headline number: phases sum
    // within 1% of the end-to-end cost (§7.4 / bench_results.json).
    let mut gates = Gates::default();
    for b in legs {
        let gap = (b.sum_us() - b.total_us()).abs() / b.total_us();
        let apart = format!(
            "{} phases sum to {:.2} µs but end-to-end is {:.2} µs ({:.2}% apart)",
            b.label,
            b.sum_us(),
            b.total_us(),
            100.0 * gap
        );
        gates.fail_if(gap > 0.01, apart);
    }
    gates.finish(None)
}
