//! Seeded fault-injection campaigns driving on-demand attach (§6.2/§6.3,
//! DESIGN.md §12, EXPERIMENTS.md "Fault-injection campaigns").
//!
//! It is one static table, [`SCENARIOS`], walked by one runner
//! ([`run_campaign`]) on the shared harness (`mercury_suite::campaign`):
//! memory bit-flips under a scrubber sweep (reactive / native / virtual
//! deployments), a wedged disk plus stuck interrupt lines, corrupted
//! IDT descriptors plus spurious interrupts, failed/slow hypercalls
//! under a paravirtual workload, VMM-state corruption answered by
//! live-update to a pristine successor (`update-on-suspicion`,
//! including one deliberately rolled-back attempt), and an SMP row
//! whose peer CPU never reaches the rendezvous (the documented
//! degradation path).  A row states what differs — name, deployment,
//! CPUs, fault counts per size, and the body that plants its faults and
//! drives the machine over them; the runner states once what does not:
//! a fresh bed, the switch counters' base, the watchdog, the window's
//! end and one record per fault the watchdog reported.
//!
//! Every campaign is a pure function of `--seed`: the table runs twice
//! in-process and the per-fault records and switch counters must be
//! identical before anything is archived (the determinism gate,
//! DESIGN.md §14; a divergence names the first differing record).
//!
//! Emits `faultgen_results.json`: a summary (per-class totals, detection
//! and recovery rates, attach/detach switch counts, rendezvous
//! failures) plus one record per fault (class, injection/detection
//! cycles, recovery action, attach attempts, how it was answered).
//!
//! Exits non-zero unless the campaign was deterministic, every gate
//! below holds, and at least one fault was recovered:
//!
//! * full run: ≥200 faults over ≥4 classes, ≥95% detected, ≥95%
//!   recovered (every record carries its answer — reactive attach, an
//!   already-attached VMM, or an explicit baseline/degradation path —
//!   so "answered" in the archive is "recovered");
//! * `--quick` (CI smoke): ≥1 recovered fault.
//!
//! Outside `--quick`, a run that passed every gate merges its first
//! pass's simulated-Mcycles-per-host-second into `sim_speed.json` under
//! `"faultgen"` (gated by `tools/benchgate.py --sim-speed`); the
//! simulated-cycle numerator is the per-scenario maximum
//! `detected_cycle` — an archived, deterministic quantity.
//! `--campaign` multiplies the fault counts ~74x for the nightly
//! campaigns (EXPERIMENTS.md "Campaign scale").

use faultgen::rng::SplitMix64;
use faultgen::{FaultSpec, FaultTarget};
use mercury::SwitchCounts;
use mercury_cluster::{FaultReport, Watchdog, WatchdogPolicy};
use mercury_suite::campaign::{first_difference, flip_plan, sweep, two_pass, Cli, Gates, Size};
use mercury_suite::{json_block, json_list, json_object, json_str, SimSpeed};
use mercury_workloads::configs::{SysKind, TestBed};
use simx86::cpu::vectors;
use simx86::PhysAddr;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::sync::Arc;

/// The deployment a row runs under.  It decides the system the bed is,
/// whether the watchdog may attach, and how a handled fault counts as
/// answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Native until a fault: the watchdog attaches on demand.
    Reactive,
    /// Policy says never attach (the native baseline).
    Native,
    /// The VMM is attached from the start (the M-V deployment).
    Virtual,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Reactive => "reactive",
            Mode::Native => "native",
            Mode::Virtual => "virtual",
        }
    }

    fn kind(self) -> SysKind {
        match self {
            Mode::Virtual => SysKind::MV,
            Mode::Reactive | Mode::Native => SysKind::MN,
        }
    }

    fn policy(self) -> WatchdogPolicy {
        WatchdogPolicy {
            attach_on_fault: self == Mode::Reactive,
        }
    }

    fn answer(self, report: &FaultReport) -> Answer {
        match self {
            Mode::Native => Answer::NativeBaseline,
            Mode::Virtual => Answer::AlreadyVirtual,
            Mode::Reactive if report.degraded => Answer::DegradedNative,
            Mode::Reactive => Answer::Attach,
        }
    }
}

/// How the watchdog answered a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// Reactive on-demand attach was (or already had been) made for
    /// this campaign window.
    Attach,
    /// The VMM was already attached (virtual-mode deployment).
    AlreadyVirtual,
    /// Policy said never attach (the native baseline).
    NativeBaseline,
    /// Attach abandoned after a rendezvous timeout; recovered natively
    /// (DESIGN.md §12.4 degradation path).
    DegradedNative,
}

impl Answer {
    fn as_str(self) -> &'static str {
        match self {
            Answer::Attach => "attach",
            Answer::AlreadyVirtual => "already-virtual",
            Answer::NativeBaseline => "native-baseline",
            Answer::DegradedNative => "degraded-native",
        }
    }
}

/// One fault's outcome — everything integer/enum so two same-seed runs
/// can be compared exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Record {
    scenario: &'static str,
    mode: Mode,
    fault_id: u64,
    class: &'static str,
    injected_cycle: u64,
    detected_cycle: u64,
    action: &'static str,
    attach_attempts: u32,
    answer: Answer,
    recovered: bool,
}

impl Record {
    /// One `faults` entry of `faultgen_results.json`.
    fn to_json(&self) -> String {
        json_object([
            ("scenario", json_str(self.scenario)),
            ("mode", json_str(self.mode.as_str())),
            ("fault_id", self.fault_id.to_string()),
            ("class", json_str(self.class)),
            ("injected_cycle", self.injected_cycle.to_string()),
            ("detected_cycle", self.detected_cycle.to_string()),
            ("action", json_str(self.action)),
            ("attach_attempts", self.attach_attempts.to_string()),
            ("answer", json_str(self.answer.as_str())),
            ("recovered", self.recovered.to_string()),
        ])
    }
}

/// One row of the table.
struct Scenario {
    name: &'static str,
    mode: Mode,
    cpus: usize,
    /// Faults of the body's first and second kind, per [`Size`]
    /// (quick, full, campaign).  A row with none is left out.
    faults: [[u64; 2]; 3],
    /// Plant that many faults and drive the machine over them, polling
    /// the watchdog at each service point.
    body: fn(&TestBed, &mut Watchdog, &mut SplitMix64, [u64; 2]),
}

/// `--campaign` is 100x the full counts, except: hypercalls scale 10x
/// (each fault costs a live page of the workload's mapping), VMM
/// corruptions 20x, and the SMP row stays at 6 — its rendezvous timeout
/// burns ~5 wall-clock seconds by design, which is also why `--quick`
/// leaves the row out.
#[rustfmt::skip]
static SCENARIOS: [Scenario; 8] = [
    Scenario { name: "mem-scrub-reactive", mode: Mode::Reactive, cpus: 1, faults: [[8, 0], [48, 0],  [4_800, 0]],     body: swept_flips },
    Scenario { name: "mem-scrub-native",   mode: Mode::Native,   cpus: 1, faults: [[3, 0], [12, 0],  [1_200, 0]],     body: swept_flips },
    Scenario { name: "mem-scrub-virtual",  mode: Mode::Virtual,  cpus: 1, faults: [[4, 0], [24, 0],  [2_400, 0]],     body: swept_flips },
    Scenario { name: "device-isolation",   mode: Mode::Reactive, cpus: 1, faults: [[6, 2], [24, 12], [2_400, 1_200]], body: wedged_disk_then_stuck_lines },
    Scenario { name: "control-plane",      mode: Mode::Reactive, cpus: 1, faults: [[4, 4], [18, 18], [1_800, 1_800]], body: corrupt_gates_then_spurious },
    Scenario { name: "hypercall-storm",    mode: Mode::Virtual,  cpus: 1, faults: [[8, 0], [48, 0],  [480, 0]],       body: failing_hypercalls },
    Scenario { name: "vmm-update",         mode: Mode::Virtual,  cpus: 1, faults: [[3, 0], [12, 0],  [240, 0]],       body: vmm_corruptions },
    Scenario { name: "smp-degraded",       mode: Mode::Reactive, cpus: 2, faults: [[0, 0], [6, 0],   [6, 0]],         body: flips_behind_a_stalled_peer },
];

/// Memory bit-flips detected by a scrubber sweep over high physical
/// frames, eight to a poll.
fn swept_flips(bed: &TestBed, dog: &mut Watchdog, rng: &mut SplitMix64, [flips, _]: [u64; 2]) {
    for batch in flip_plan(rng, 1_000, flips).chunks(8) {
        faultgen::arm(batch.to_vec());
        // The sweep reads every planted word plus its neighbour, so it
        // is not a fault oracle.
        for spec in batch {
            sweep(&bed.machine, spec, 2);
        }
        dog.poll(bed.machine.boot_cpu());
    }
}

/// A wedged disk (device timeouts) plus stuck interrupt lines, answered
/// by reactive attach: §6.2's device-driver-isolation shape.
fn wedged_disk_then_stuck_lines(
    bed: &TestBed,
    dog: &mut Watchdog,
    rng: &mut SplitMix64,
    [wedges, stuck]: [u64; 2],
) {
    use simx86::devices::disk::{DiskOp, DiskRequest};
    let cpu = bed.machine.boot_cpu();
    let disk = &bed.machine.disk;

    // Wedge `wedges` of the driver's requests, chosen by seed.
    let total_reqs = wedges * 3;
    let mut wedged = BTreeSet::new();
    while (wedged.len() as u64) < wedges {
        wedged.insert(10_000 + rng.below(total_reqs));
    }
    let wedge = |(i, &req_id): (usize, &u64)| FaultSpec {
        id: 2_000 + i as u64,
        due_cycle: 0,
        target: FaultTarget::DiskRequest { req_id },
    };
    faultgen::arm(wedged.iter().enumerate().map(wedge).collect());
    for group in 0..wedges {
        for k in 0..3 {
            let id = 10_000 + group * 3 + k;
            disk.submit(DiskRequest {
                id,
                op: DiskOp::Write,
                sector: (id - 10_000) % disk.sectors(),
                count: 1,
                pa: PhysAddr(0x3000),
            });
        }
        bed.machine.pump_devices();
        dog.poll(cpu);
        while disk.reap().is_some() {}
    }
    // A wedge can fire during a *recovery* pump; its signal is only seen
    // by the next poll, so keep pumping + polling until the queue drains.
    let mut rounds = 0;
    while disk.queued() > 0 {
        rounds += 1;
        assert!(rounds < 1_000, "disk drain stalled with queue wedged");
        bed.machine.pump_devices();
        dog.poll(cpu);
        while disk.reap().is_some() {}
    }

    // Stuck lines: each service point re-asserts until the watchdog
    // masks the line.
    let line = |i| FaultSpec {
        id: 2_500 + i,
        due_cycle: 0,
        target: FaultTarget::IrqLine {
            cpu: 0,
            vector: [vectors::TIMER, vectors::NIC][rng.below(2) as usize],
        },
    };
    faultgen::arm((0..stuck).map(line).collect());
    for _ in 0..stuck {
        cpu.service_pending();
        dog.poll(cpu);
    }
}

/// Corrupted IDT descriptors (dispatches silently swallowed until the
/// watchdog reinstalls the pristine table) plus spurious interrupts.
fn corrupt_gates_then_spurious(
    bed: &TestBed,
    dog: &mut Watchdog,
    rng: &mut SplitMix64,
    [gates, spurious]: [u64; 2],
) {
    let cpu = bed.machine.boot_cpu();
    let corrupted: Vec<u8> = (0..gates)
        .map(|_| [vectors::DISK, vectors::NIC][rng.below(2) as usize])
        .collect();
    let gate = |(i, &vector): (usize, &u8)| FaultSpec {
        id: 3_000 + i as u64,
        due_cycle: 0,
        target: FaultTarget::IdtGate { cpu: 0, vector },
    };
    faultgen::arm(corrupted.iter().enumerate().map(gate).collect());
    for &v in &corrupted {
        // The device raises its vector; the corrupted gate swallows the
        // dispatch, which is exactly the detectable symptom.
        cpu.raise(v);
        cpu.service_pending();
        dog.poll(cpu);
    }

    let stray = |i| FaultSpec {
        id: 3_500 + i,
        due_cycle: 0,
        target: FaultTarget::Spurious {
            cpu: 0,
            vector: vectors::TIMER,
        },
    };
    faultgen::arm((0..spurious).map(stray).collect());
    for _ in 0..spurious {
        cpu.service_pending();
        dog.poll(cpu);
    }
}

/// A session with `pages + 1` fresh anonymous pages mapped: touching
/// one forces page-table update hypercalls through the Xen-mode
/// paravirt object — the hypervisor service point the virtual rows'
/// faults land on.
fn workload_buffer(bed: &TestBed, pages: u64) -> (nimbus::Session, simx86::VirtAddr) {
    let sess = bed.session(0);
    let va = sess.mmap(
        pages + 1,
        nimbus::mm::Prot::RW,
        nimbus::kernel::MmapBacking::Anon,
    );
    (sess, va.expect("mmap workload buffer"))
}

/// Failed and slow hypercalls under a paravirtual page-table workload,
/// four to a poll.
fn failing_hypercalls(bed: &TestBed, dog: &mut Watchdog, rng: &mut SplitMix64, [n, _]: [u64; 2]) {
    let plan: Vec<FaultSpec> = (0..n)
        .map(|i| FaultSpec {
            id: 4_000 + i,
            due_cycle: 0,
            target: FaultTarget::Hypercall {
                cpu: 0,
                penalty_cycles: rng.range(500, 5_000),
                slow: i % 2 == 1,
            },
        })
        .collect();
    let (sess, va) = workload_buffer(bed, n);
    for (i, batch) in plan.chunks(4).enumerate() {
        faultgen::arm(batch.to_vec());
        for k in 0..batch.len() {
            let page = (i * 4 + k) as u64;
            sess.poke(simx86::VirtAddr(va.0 + page * 4096), page)
                .expect("poke");
        }
        dog.poll(bed.machine.boot_cpu());
    }
}

/// Latent corruption inside the running VMM's own frame accounting,
/// answered by the watchdog's `update-on-suspicion` policy (DESIGN.md
/// §16): each fault wipes one frame record behind the guest's back at a
/// hypervisor service point, and the recovery is a *live-update* to a
/// pristine, newer-versioned successor — no detach, guest memory and
/// file state untouched, VMM version marching v1 → v2 → … as the
/// campaign proceeds.  When the sizing allows, the second-to-last fault
/// is handled under an abort injected right after the handshake, so its
/// update attempt rolls back (incumbent keeps the machine, fault stays
/// outstanding); the last fault's *completed* update then clears the
/// whole suspicion backlog — one rebuilt table heals every wiped record.
fn vmm_corruptions(bed: &TestBed, dog: &mut Watchdog, rng: &mut SplitMix64, [n, _]: [u64; 2]) {
    let mercury = bed.mercury.as_ref().expect("MV bed has mercury");
    let version_before = mercury.hv_version();
    let (sess, va) = workload_buffer(bed, n);
    for i in 0..n {
        // One suspicion at a time: every fault earns its own update.
        faultgen::arm(vec![FaultSpec {
            id: 6_000 + i,
            due_cycle: 0,
            target: FaultTarget::VmmState {
                cpu: 0,
                frame: 8 + rng.below(4_096) as u32,
            },
        }]);
        let rollback_leg = n >= 2 && i == n - 2;
        if rollback_leg {
            // Row 1: the handshake runs (and is charged), the transfer never starts.
            mercury.inject_abort(Some(mercury.phases(mercury::Transition::Update)[1].name));
        }
        let page = simx86::VirtAddr(va.0 + i * 4096);
        sess.poke(page, i).expect("poke");
        dog.poll(bed.machine.boot_cpu());
        assert_eq!(sess.peek(page).unwrap(), i);
        if rollback_leg {
            assert_eq!(
                faultgen::outstanding(),
                1,
                "rolled-back update leaves its fault outstanding"
            );
        }
    }
    assert_eq!(
        faultgen::outstanding(),
        0,
        "a completed update clears the whole suspicion backlog"
    );
    assert!(
        mercury.hv_version() > version_before,
        "live-updates must advance the VMM version"
    );
}

/// Two CPUs, and the peer never reaches a rendezvous service point: the
/// attach times out once, the watchdog goes sticky-degraded, and every
/// fault is recovered natively.  This is the documented degradation
/// path (DESIGN.md §12.4) — and the single genuinely slow row, since
/// the rendezvous timeout burns real wall-clock by design.
fn flips_behind_a_stalled_peer(
    bed: &TestBed,
    dog: &mut Watchdog,
    rng: &mut SplitMix64,
    [flips, _]: [u64; 2],
) {
    let plan = flip_plan(rng, 5_000, flips);
    faultgen::arm(plan.clone());
    for spec in &plan {
        sweep(&bed.machine, spec, 1);
    }
    eprintln!("smp-degraded: expecting one ~5 s rendezvous timeout …");
    dog.poll(bed.machine.boot_cpu());
    assert!(dog.degraded(), "peer never rendezvoused: must degrade");
}

/// What one pass over the table produced.
struct Pass {
    records: Vec<Record>,
    /// Switch-engine counters summed over every row's bed.
    switches: SwitchCounts,
}

/// One full campaign pass.  Everything downstream of `seed` is on the
/// simulated clock, so two calls with the same seed must return
/// identical records — `main` verifies exactly that.
fn run_campaign(seed: u64, size: Size) -> Pass {
    let mut rng = SplitMix64::new(seed);
    let mut pass = Pass {
        records: Vec::new(),
        switches: SwitchCounts::default(),
    };
    for row in &SCENARIOS {
        let faults = row.faults[size as usize];
        if faults == [0, 0] {
            continue;
        }
        let bed = TestBed::build(row.mode.kind(), row.cpus);
        let mercury = bed.mercury.as_ref().expect("scenario bed has mercury");
        let base = mercury.stats.snapshot();
        let mut dog = Watchdog::new(Arc::clone(mercury), row.mode.policy());
        faultgen::reset();
        (row.body)(&bed, &mut dog, &mut rng, faults);
        dog.end_window(bed.machine.boot_cpu());
        faultgen::reset();
        pass.switches = pass.switches + (mercury.stats.snapshot() - base);
        pass.records.extend(dog.reports().iter().map(|r| Record {
            scenario: row.name,
            mode: row.mode,
            fault_id: r.fault_id,
            class: r.class.as_str(),
            injected_cycle: r.injected_cycle,
            detected_cycle: r.detected_cycle,
            action: r.action.as_str(),
            attach_attempts: r.attach_attempts,
            answer: row.mode.answer(r),
            recovered: r.recovered,
        }));
    }
    pass
}

fn main() -> ExitCode {
    let Cli { seed, size } = Cli::from_env(env!("CARGO_BIN_NAME"), 7);
    let quick = size == Size::Quick;
    let planned: u64 = SCENARIOS
        .iter()
        .flat_map(|row| row.faults[size as usize])
        .sum();
    eprintln!(
        "fault_campaign: seed {seed}, {planned} planned faults ({}), two same-seed passes",
        size.label(),
    );
    let run = two_pass(
        || run_campaign(seed, size),
        |a, b| {
            first_difference("faults", &a.records, &b.records)
                .or_else(|| first_difference("switches", &[a.switches], &[b.switches]))
        },
    );
    let Pass { records, switches } = &run.first;

    // -- aggregate -------------------------------------------------------
    let detected = records.len() as u64;
    let recovered = records.iter().filter(|r| r.recovered).count() as u64;
    let answered_attach = records
        .iter()
        .filter(|r| matches!(r.answer, Answer::Attach | Answer::AlreadyVirtual))
        .count() as u64;
    let pct = |n: u64| 100.0 * n as f64 / planned.max(1) as f64;
    let pct2 = |n: u64| format!("{:.2}", pct(n));

    // Per-class: injected count, recovered count, mean detection latency.
    let mut by_class: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        let e = by_class.entry(r.class).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += r.recovered as u64;
        e.2 += r.detected_cycle.saturating_sub(r.injected_cycle);
    }

    // -- report ----------------------------------------------------------
    println!("Fault campaign (seed {seed}): {detected}/{planned} detected, {recovered} recovered");
    println!("| class | injected | recovered | mean detect latency (cycles) |");
    println!("|---|---:|---:|---:|");
    for (class, (inj, rec, lat)) in &by_class {
        println!("| {class} | {inj} | {rec} | {} |", lat / inj.max(&1));
    }
    println!(
        "switches: {} attaches, {} detaches, {} deferrals, {} rendezvous failures",
        switches.attaches, switches.detaches, switches.deferrals, switches.rendezvous_failures
    );

    let classes = by_class.iter().map(|(class, (inj, rec, lat))| {
        let row = [
            ("injected", *inj),
            ("recovered", *rec),
            ("mean_detect_latency_cycles", lat / inj.max(&1)),
        ];
        (class, json_object(row.map(|(k, v)| (k, v.to_string()))))
    });
    // A record is made when the watchdog handled its fault, and every
    // handled fault carries its answer: answered is recovered.
    let summary = [
        ("planned_faults", planned.to_string()),
        ("detected", detected.to_string()),
        ("detected_pct", pct2(detected)),
        ("recovered", recovered.to_string()),
        ("recovery_pct", pct2(recovered)),
        ("answered", recovered.to_string()),
        ("answered_pct", pct2(recovered)),
        ("answered_by_attach_or_virtual", answered_attach.to_string()),
        ("attaches", switches.attaches.to_string()),
        ("detaches", switches.detaches.to_string()),
        ("deferrals", switches.deferrals.to_string()),
        (
            "rendezvous_failures",
            switches.rendezvous_failures.to_string(),
        ),
        ("by_class", json_block(4, classes)),
    ];
    let archive = [
        ("seed", seed.to_string()),
        ("quick", quick.to_string()),
        ("determinism", json_str(run.determinism())),
        ("summary", json_block(2, summary)),
        ("faults", json_list(2, records.iter().map(Record::to_json))),
    ];
    std::fs::write("faultgen_results.json", json_block(0, archive) + "\n")
        .expect("write faultgen_results.json");
    eprintln!("wrote faultgen_results.json");

    // -- gates -----------------------------------------------------------
    let mut gates = Gates::default();
    gates.determinism(&run);
    gates.fail_if(recovered == 0, "no fault was recovered".to_string());
    if !quick {
        let classes = by_class.len();
        gates.fail_if(planned < 200, format!("{planned} planned faults < 200"));
        gates.fail_if(classes < 4, format!("{classes} fault classes < 4"));
        let rate = pct(detected);
        gates.fail_if(rate < 95.0, format!("detection rate {rate:.2}% < 95%"));
        let rate = pct(recovered);
        gates.fail_if(rate < 95.0, format!("recovery rate {rate:.2}% < 95%"));
    }

    // Simulated throughput: each scenario's stream time is its last
    // detection cycle — a deterministic, archived quantity (bed machine
    // clocks would fold in host-timing-dependent rendezvous spin on the
    // SMP scenario).  Quick runs are too short to be meaningful.
    let speed = (!quick).then(|| {
        let mut last_detection: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in records {
            let e = last_detection.entry(r.scenario).or_insert(0);
            *e = (*e).max(r.detected_cycle);
        }
        let speed = SimSpeed {
            sim_mcycles: last_detection.values().sum::<u64>() as f64 / 1e6,
            host_seconds: run.host_seconds,
        };
        ("faultgen", speed)
    });
    gates.finish(speed)
}
