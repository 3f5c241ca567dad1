//! Seeded fault-injection campaigns driving on-demand attach (§6.2/§6.3,
//! DESIGN.md §12, EXPERIMENTS.md "Fault-injection campaigns").
//!
//! Runs deterministic fault campaigns against freshly built testbeds:
//! memory bit-flips under a scrubber sweep (native / virtual / reactive
//! modes), a wedged disk plus stuck interrupt lines, corrupted IDT
//! descriptors plus spurious interrupts, failed/slow hypercalls under a
//! paravirtual workload, VMM-state corruption answered by live-update
//! to a pristine successor (`update-on-suspicion`, including one
//! deliberately rolled-back attempt), and an SMP scenario whose peer
//! CPU never reaches the rendezvous (the documented degradation path).
//! Every
//! campaign is a pure function of `--seed`: the whole run executes
//! twice in-process and the per-fault records must be bit-identical
//! before anything is archived.
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
//!   answered (by reactive attach, an already-attached VMM, or an
//!   explicit baseline/degradation path);
//! * `--quick` (CI smoke): ≥1 recovered fault.
//!
//! The campaign runs twice in-process on the same seed and the two
//! passes' records must be bit-identical (the determinism gate,
//! DESIGN.md §14).  Outside `--quick`, the wall-clock-timed first pass
//! yields a simulated-Mcycles-per-host-second entry merged into
//! `sim_speed.json` under `"faultgen"` (gated by `tools/benchgate.py
//! --sim-speed`); the simulated-cycle numerator is the per-scenario
//! maximum `detected_cycle` — an archived, deterministic quantity.
//! `--campaign` multiplies the fault counts ~74x for the nightly
//! campaigns (EXPERIMENTS.md "Campaign scale"; hypercalls
//! scale only 10x — each one costs a live mmap page — and the SMP
//! scenario stays at 6, its rendezvous timeout burning ~5 wall-clock
//! seconds by design).

use faultgen::rng::SplitMix64;
use faultgen::{FaultSpec, FaultTarget};
use mercury_cluster::{Watchdog, WatchdogPolicy};
use mercury_workloads::configs::{SysKind, TestBed};
use simx86::cpu::vectors;
use simx86::PhysAddr;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

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
    mode: &'static str,
    fault_id: u64,
    class: &'static str,
    injected_cycle: u64,
    detected_cycle: u64,
    action: &'static str,
    attach_attempts: u32,
    answer: Answer,
    recovered: bool,
}

/// Switch-engine counters accumulated across every scenario of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SwitchTotals {
    attaches: u64,
    detaches: u64,
    deferrals: u64,
    rendezvous_failures: u64,
}

impl SwitchTotals {
    fn absorb(&mut self, bed: &TestBed, base: SwitchTotals) {
        let s = snapshot(bed);
        self.attaches += s.attaches - base.attaches;
        self.detaches += s.detaches - base.detaches;
        self.deferrals += s.deferrals - base.deferrals;
        self.rendezvous_failures += s.rendezvous_failures - base.rendezvous_failures;
    }
}

fn snapshot(bed: &TestBed) -> SwitchTotals {
    use std::sync::atomic::Ordering::Relaxed;
    match &bed.mercury {
        Some(m) => SwitchTotals {
            attaches: m.stats.attaches.load(Relaxed),
            detaches: m.stats.detaches.load(Relaxed),
            deferrals: m.stats.deferrals.load(Relaxed),
            rendezvous_failures: m.stats.rendezvous_failures.load(Relaxed),
        },
        None => SwitchTotals::default(),
    }
}

/// Scenario sizing: (reactive mem, native mem, virtual mem, disk
/// wedges, stuck lines, corrupt gates, spurious, hypercalls, vmm
/// corruptions, smp).
struct Sizing {
    mem_reactive: u64,
    mem_native: u64,
    mem_virtual: u64,
    disk: u64,
    stuck: u64,
    gates: u64,
    spurious: u64,
    hypercalls: u64,
    vmm: u64,
    smp: u64,
}

impl Sizing {
    fn full() -> Sizing {
        Sizing {
            mem_reactive: 48,
            mem_native: 12,
            mem_virtual: 24,
            disk: 24,
            stuck: 12,
            gates: 18,
            spurious: 18,
            hypercalls: 48,
            vmm: 12,
            smp: 6,
        }
    }

    /// CI smoke: same shape, two orders of magnitude cheaper, and no
    /// SMP-degraded scenario (its rendezvous timeout costs real
    /// wall-clock seconds by design).
    fn quick() -> Sizing {
        Sizing {
            mem_reactive: 8,
            mem_native: 3,
            mem_virtual: 4,
            disk: 6,
            stuck: 2,
            gates: 4,
            spurious: 4,
            hypercalls: 8,
            vmm: 3,
            smp: 0,
        }
    }

    /// Nightly campaign: ~74x the full fault count.  Hypercalls scale
    /// only 10x (each fault costs a live page in the workload mmap)
    /// and the SMP-degraded scenario stays at 6 (its rendezvous
    /// timeout burns real wall-clock by design).
    fn campaign() -> Sizing {
        Sizing {
            mem_reactive: 4_800,
            mem_native: 1_200,
            mem_virtual: 2_400,
            disk: 2_400,
            stuck: 1_200,
            gates: 1_800,
            spurious: 1_800,
            hypercalls: 480,
            vmm: 240,
            smp: 6,
        }
    }
}

fn watchdog_for(bed: &TestBed, policy: WatchdogPolicy) -> Watchdog {
    Watchdog::new(
        Arc::clone(bed.mercury.as_ref().expect("scenario bed has mercury")),
        Arc::clone(&bed.machine),
        Arc::clone(&bed.kernel),
        policy,
    )
}

/// Drain the watchdog's reports into campaign records.
fn collect(
    out: &mut Vec<Record>,
    dog: &Watchdog,
    taken: &mut usize,
    scenario: &'static str,
    mode: &'static str,
    answer_for: impl Fn(&mercury_cluster::FaultReport) -> Answer,
) {
    for r in &dog.reports()[*taken..] {
        out.push(Record {
            scenario,
            mode,
            fault_id: r.fault_id,
            class: r.class.as_str(),
            injected_cycle: r.injected_cycle,
            detected_cycle: r.detected_cycle,
            action: r.action.as_str(),
            attach_attempts: r.attach_attempts,
            answer: answer_for(r),
            recovered: r.recovered,
        });
    }
    *taken = dog.reports().len();
}

/// Memory bit-flips detected by a scrubber sweep over high physical
/// frames, in one of the three deployment modes.
fn scenario_mem(
    records: &mut Vec<Record>,
    totals: &mut SwitchTotals,
    rng: &mut SplitMix64,
    mode: &'static str,
    count: u64,
) {
    let kind = if mode == "virtual" {
        SysKind::MV
    } else {
        SysKind::MN
    };
    let bed = TestBed::build(kind, 1);
    let base = snapshot(&bed);
    let cpu = bed.machine.boot_cpu();
    let policy = WatchdogPolicy {
        attach_on_fault: mode == "reactive",
        ..WatchdogPolicy::default()
    };
    let mut dog = watchdog_for(&bed, policy);
    let scenario: &'static str = match mode {
        "native" => "mem-scrub-native",
        "virtual" => "mem-scrub-virtual",
        _ => "mem-scrub-reactive",
    };

    // Plant flips in the scrubber's sweep window (top 1k frames of the
    // 16k-frame machine), one per word so each sweep read fires exactly
    // one fault.
    faultgen::reset();
    let mut used = BTreeSet::new();
    let mut plan = Vec::new();
    for i in 0..count {
        let (frame, word) = loop {
            let f = 15_000 + rng.below(1_000) as u32;
            let w = rng.below(512) as u16;
            if used.insert((f, w)) {
                break (f, w);
            }
        };
        plan.push(FaultSpec {
            id: 1_000 + i,
            due_cycle: 0,
            target: FaultTarget::MemWord {
                frame,
                word,
                bit: rng.below(64) as u8,
            },
        });
    }

    let mut taken = 0;
    for batch in plan.chunks(8) {
        faultgen::arm(batch.to_vec());
        // The scrub sweep: read every planted word (plus neighbours, so
        // the sweep is not a fault oracle), detect, recover.
        for spec in batch {
            if let FaultTarget::MemWord { frame, word, .. } = spec.target {
                for w in [word, (word + 1) % 512] {
                    let pa = PhysAddr(((frame as u64) << 12) + (w as u64) * 8);
                    bed.machine.mem.read_word(cpu, pa).expect("sweep read");
                }
            }
        }
        dog.poll(cpu);
        collect(records, &dog, &mut taken, scenario, mode, |r| match mode {
            "native" => Answer::NativeBaseline,
            "virtual" => Answer::AlreadyVirtual,
            _ if r.degraded => Answer::DegradedNative,
            _ => Answer::Attach,
        });
    }
    dog.end_window(cpu);
    faultgen::reset();
    totals.absorb(&bed, base);
}

/// A wedged disk (device timeouts) plus stuck interrupt lines, answered
/// by reactive attach: §6.2's device-driver-isolation shape.
fn scenario_device(
    records: &mut Vec<Record>,
    totals: &mut SwitchTotals,
    rng: &mut SplitMix64,
    disk_count: u64,
    stuck_count: u64,
) {
    use simx86::devices::disk::{DiskOp, DiskRequest};

    let bed = TestBed::build(SysKind::MN, 1);
    let base = snapshot(&bed);
    let cpu = bed.machine.boot_cpu();
    let mut dog = watchdog_for(&bed, WatchdogPolicy::default());
    let mut taken = 0;
    let answer = |r: &mercury_cluster::FaultReport| {
        if r.degraded {
            Answer::DegradedNative
        } else {
            Answer::Attach
        }
    };

    faultgen::reset();
    // Wedge `disk_count` of the driver's requests, chosen by seed.
    let total_reqs = disk_count * 3;
    let mut wedged = BTreeSet::new();
    while (wedged.len() as u64) < disk_count {
        wedged.insert(10_000 + rng.below(total_reqs));
    }
    faultgen::arm(
        wedged
            .iter()
            .enumerate()
            .map(|(i, id)| FaultSpec {
                id: 2_000 + i as u64,
                due_cycle: 0,
                target: FaultTarget::DiskRequest { req_id: *id },
            })
            .collect(),
    );
    for group in 0..disk_count {
        for k in 0..3 {
            let id = 10_000 + group * 3 + k;
            bed.machine.disk.submit(DiskRequest {
                id,
                op: DiskOp::Write,
                sector: (id - 10_000) % bed.machine.disk.sectors(),
                count: 1,
                pa: PhysAddr(0x3000),
            });
        }
        bed.machine.pump_devices();
        dog.poll(cpu);
        collect(records, &dog, &mut taken, "device-isolation", "reactive", answer);
        while bed.machine.disk.reap().is_some() {}
    }
    // A wedge can fire during a *recovery* pump; its signal is only seen
    // by the next poll, so keep pumping + polling until the queue drains.
    let mut rounds = 0;
    while bed.machine.disk.queued() > 0 {
        rounds += 1;
        assert!(rounds < 1_000, "disk drain stalled with queue wedged");
        bed.machine.pump_devices();
        dog.poll(cpu);
        collect(records, &dog, &mut taken, "device-isolation", "reactive", answer);
        while bed.machine.disk.reap().is_some() {}
    }
    assert_eq!(bed.machine.disk.queued(), 0, "disk queue fully drained");

    // Stuck lines: each service point re-asserts until the watchdog
    // masks the line.
    faultgen::arm(
        (0..stuck_count)
            .map(|i| FaultSpec {
                id: 2_500 + i,
                due_cycle: 0,
                target: FaultTarget::IrqLine {
                    cpu: 0,
                    vector: if rng.below(2) == 0 {
                        vectors::TIMER
                    } else {
                        vectors::NIC
                    },
                },
            })
            .collect(),
    );
    for _ in 0..stuck_count {
        cpu.service_pending();
        dog.poll(cpu);
        collect(records, &dog, &mut taken, "device-isolation", "reactive", answer);
    }
    dog.end_window(cpu);
    faultgen::reset();
    totals.absorb(&bed, base);
}

/// Corrupted IDT descriptors (dispatches silently swallowed until the
/// watchdog reinstalls the pristine table) plus spurious interrupts.
fn scenario_control_plane(
    records: &mut Vec<Record>,
    totals: &mut SwitchTotals,
    rng: &mut SplitMix64,
    gate_count: u64,
    spurious_count: u64,
) {
    let bed = TestBed::build(SysKind::MN, 1);
    let base = snapshot(&bed);
    let cpu = bed.machine.boot_cpu();
    let mut dog = watchdog_for(&bed, WatchdogPolicy::default());
    let mut taken = 0;
    let answer = |r: &mercury_cluster::FaultReport| {
        if r.degraded {
            Answer::DegradedNative
        } else {
            Answer::Attach
        }
    };

    faultgen::reset();
    let gates: Vec<u8> = (0..gate_count)
        .map(|_| {
            if rng.below(2) == 0 {
                vectors::DISK
            } else {
                vectors::NIC
            }
        })
        .collect();
    faultgen::arm(
        gates
            .iter()
            .enumerate()
            .map(|(i, v)| FaultSpec {
                id: 3_000 + i as u64,
                due_cycle: 0,
                target: FaultTarget::IdtGate { cpu: 0, vector: *v },
            })
            .collect(),
    );
    for v in &gates {
        // The device raises its vector; the corrupted gate swallows the
        // dispatch, which is exactly the detectable symptom.
        cpu.raise(*v);
        cpu.service_pending();
        dog.poll(cpu);
        collect(records, &dog, &mut taken, "control-plane", "reactive", answer);
    }

    faultgen::arm(
        (0..spurious_count)
            .map(|i| FaultSpec {
                id: 3_500 + i,
                due_cycle: 0,
                target: FaultTarget::Spurious {
                    cpu: 0,
                    vector: vectors::TIMER,
                },
            })
            .collect(),
    );
    for _ in 0..spurious_count {
        cpu.service_pending();
        dog.poll(cpu);
        collect(records, &dog, &mut taken, "control-plane", "reactive", answer);
    }
    dog.end_window(cpu);
    faultgen::reset();
    totals.absorb(&bed, base);
}

/// Failed and slow hypercalls under a paravirtual page-table workload
/// (the M-V deployment: the VMM is already attached).
fn scenario_hypercall(
    records: &mut Vec<Record>,
    totals: &mut SwitchTotals,
    rng: &mut SplitMix64,
    count: u64,
) {
    let bed = TestBed::build(SysKind::MV, 1);
    let base = snapshot(&bed);
    let cpu = bed.machine.boot_cpu();
    let mut dog = watchdog_for(&bed, WatchdogPolicy::default());
    let mut taken = 0;

    faultgen::reset();
    let plan: Vec<FaultSpec> = (0..count)
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

    let sess = bed.session(0);
    let va = sess
        .mmap(count + 1, nimbus::mm::Prot::RW, nimbus::kernel::MmapBacking::Anon)
        .expect("mmap workload buffer");
    for (i, batch) in plan.chunks(4).enumerate() {
        faultgen::arm(batch.to_vec());
        for (k, _) in batch.iter().enumerate() {
            // Touching a fresh anonymous page forces page-table update
            // hypercalls through the Xen-mode paravirt object.
            let page = (i * 4 + k) as u64;
            sess.poke(simx86::VirtAddr(va.0 + page * 4096), page)
                .expect("poke");
        }
        dog.poll(cpu);
        collect(
            records,
            &dog,
            &mut taken,
            "hypercall-storm",
            "virtual",
            |_| Answer::AlreadyVirtual,
        );
    }
    dog.end_window(cpu);
    faultgen::reset();
    totals.absorb(&bed, base);
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
/// outstanding);
/// the last fault's *completed* update then clears the whole suspicion
/// backlog — one rebuilt table heals every wiped record.
fn scenario_vmm_update(
    records: &mut Vec<Record>,
    totals: &mut SwitchTotals,
    rng: &mut SplitMix64,
    count: u64,
) {
    if count == 0 {
        return;
    }
    let bed = TestBed::build(SysKind::MV, 1);
    let base = snapshot(&bed);
    let cpu = bed.machine.boot_cpu();
    let mercury = Arc::clone(bed.mercury.as_ref().expect("MV bed has mercury"));
    let mut dog = watchdog_for(&bed, WatchdogPolicy::default());
    let mut taken = 0;
    let version_before = mercury.hv_version();

    faultgen::reset();
    let sess = bed.session(0);
    let va = sess
        .mmap(count + 1, nimbus::mm::Prot::RW, nimbus::kernel::MmapBacking::Anon)
        .expect("mmap workload buffer");
    for i in 0..count {
        // One suspicion at a time: every fault earns its own update.
        faultgen::arm(vec![FaultSpec {
            id: 6_000 + i,
            due_cycle: 0,
            target: FaultTarget::VmmState {
                cpu: 0,
                frame: 8 + rng.below(4_096) as u32,
            },
        }]);
        let rollback_leg = count >= 2 && i == count - 2;
        if rollback_leg {
            // Row 1: the handshake runs (and is charged), the transfer never starts.
            mercury.inject_abort(Some(mercury.phases(mercury::Transition::Update)[1].name));
        }
        // A page-table update hypercall is the hypervisor service point
        // the corruption lands on.
        sess.poke(simx86::VirtAddr(va.0 + i * 4096), i).expect("poke");
        dog.poll(cpu);
        collect(records, &dog, &mut taken, "vmm-update", "virtual", |_| {
            Answer::AlreadyVirtual
        });
        assert_eq!(sess.peek(simx86::VirtAddr(va.0 + i * 4096)).unwrap(), i);
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
    dog.end_window(cpu);
    faultgen::reset();
    totals.absorb(&bed, base);
}

/// Two CPUs, and the peer never reaches a rendezvous service point: the
/// attach times out once, the watchdog goes sticky-degraded, and every
/// fault is recovered natively.  This is the documented degradation
/// path (DESIGN.md §12.4) — and the single genuinely slow scenario,
/// since the rendezvous timeout burns real wall-clock by design.
fn scenario_smp_degraded(
    records: &mut Vec<Record>,
    totals: &mut SwitchTotals,
    rng: &mut SplitMix64,
    count: u64,
) {
    let bed = TestBed::build(SysKind::MN, 2);
    let base = snapshot(&bed);
    let cpu = bed.machine.boot_cpu();
    let mut dog = watchdog_for(&bed, WatchdogPolicy::default());
    let mut taken = 0;

    faultgen::reset();
    let mut used = BTreeSet::new();
    let mut plan = Vec::new();
    for i in 0..count {
        let (frame, word) = loop {
            let f = 15_000 + rng.below(1_000) as u32;
            let w = rng.below(512) as u16;
            if used.insert((f, w)) {
                break (f, w);
            }
        };
        plan.push(FaultSpec {
            id: 5_000 + i,
            due_cycle: 0,
            target: FaultTarget::MemWord {
                frame,
                word,
                bit: rng.below(64) as u8,
            },
        });
    }
    faultgen::arm(plan.clone());
    for spec in &plan {
        if let FaultTarget::MemWord { frame, word, .. } = spec.target {
            let pa = PhysAddr(((frame as u64) << 12) + (word as u64) * 8);
            bed.machine.mem.read_word(cpu, pa).expect("sweep read");
        }
    }
    eprintln!("smp-degraded: expecting one ~5 s rendezvous timeout …");
    dog.poll(cpu);
    collect(
        records,
        &dog,
        &mut taken,
        "smp-degraded",
        "reactive",
        |r| {
            if r.degraded {
                Answer::DegradedNative
            } else {
                Answer::Attach
            }
        },
    );
    assert!(dog.degraded(), "peer never rendezvoused: must degrade");
    dog.end_window(cpu);
    faultgen::reset();
    totals.absorb(&bed, base);
}

/// One full campaign pass.  Everything downstream of `seed` is on the
/// simulated clock, so two calls with the same seed must return
/// identical records — `main` verifies exactly that.
fn run_campaign(seed: u64, sizing: &Sizing) -> (Vec<Record>, SwitchTotals) {
    let mut rng = SplitMix64::new(seed);
    let mut records = Vec::new();
    let mut totals = SwitchTotals::default();
    scenario_mem(&mut records, &mut totals, &mut rng, "reactive", sizing.mem_reactive);
    scenario_mem(&mut records, &mut totals, &mut rng, "native", sizing.mem_native);
    scenario_mem(&mut records, &mut totals, &mut rng, "virtual", sizing.mem_virtual);
    scenario_device(&mut records, &mut totals, &mut rng, sizing.disk, sizing.stuck);
    scenario_control_plane(&mut records, &mut totals, &mut rng, sizing.gates, sizing.spurious);
    scenario_hypercall(&mut records, &mut totals, &mut rng, sizing.hypercalls);
    scenario_vmm_update(&mut records, &mut totals, &mut rng, sizing.vmm);
    if sizing.smp > 0 {
        scenario_smp_degraded(&mut records, &mut totals, &mut rng, sizing.smp);
    }
    (records, totals)
}

fn planned_total(s: &Sizing) -> u64 {
    s.mem_reactive
        + s.mem_native
        + s.mem_virtual
        + s.disk
        + s.stuck
        + s.gates
        + s.spurious
        + s.hypercalls
        + s.vmm
        + s.smp
}

fn main() {
    const {
        assert!(
            faultgen::ENABLED,
            "fault_campaign needs the faultgen hooks compiled in (feature `enabled`)"
        )
    };

    let mut seed = 7u64;
    let mut quick = false;
    let mut campaign = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--quick" => quick = true,
            "--campaign" => campaign = true,
            other => panic!("unknown argument {other:?} (use --seed N / --quick / --campaign)"),
        }
    }
    assert!(
        !(quick && campaign),
        "--quick and --campaign are mutually exclusive"
    );
    let sizing = if quick {
        Sizing::quick()
    } else if campaign {
        Sizing::campaign()
    } else {
        Sizing::full()
    };
    let label = if quick {
        "quick"
    } else if campaign {
        "campaign"
    } else {
        "full"
    };

    // Two same-seed passes: bit-identical records are the determinism
    // gate (DESIGN.md §14).
    eprintln!(
        "fault_campaign: seed {seed}, {} planned faults ({label}), two same-seed passes",
        planned_total(&sizing),
    );
    let t1 = std::time::Instant::now();
    let (records, totals) = run_campaign(seed, &sizing);
    let host_seconds = t1.elapsed().as_secs_f64();
    let (records2, totals2) = run_campaign(seed, &sizing);
    let deterministic = records == records2 && totals == totals2;

    // -- aggregate -------------------------------------------------------
    let planned = planned_total(&sizing);
    let detected = records.len() as u64;
    let recovered = records.iter().filter(|r| r.recovered).count() as u64;
    let answered = records
        .iter()
        .filter(|r| {
            r.recovered
                && matches!(
                    r.answer,
                    Answer::Attach
                        | Answer::AlreadyVirtual
                        | Answer::NativeBaseline
                        | Answer::DegradedNative
                )
        })
        .count() as u64;
    let answered_attach = records
        .iter()
        .filter(|r| matches!(r.answer, Answer::Attach | Answer::AlreadyVirtual))
        .count() as u64;
    let pct = |n: u64| 100.0 * n as f64 / planned.max(1) as f64;

    // Per-class: injected count, recovered count, mean detection latency.
    let mut by_class: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for r in &records {
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
        totals.attaches, totals.detaches, totals.deferrals, totals.rendezvous_failures
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"determinism\": \"{}\",\n",
        if deterministic { "verified" } else { "FAILED" }
    ));
    json.push_str("  \"summary\": {\n");
    json.push_str(&format!("    \"planned_faults\": {planned},\n"));
    json.push_str(&format!("    \"detected\": {detected},\n"));
    json.push_str(&format!("    \"detected_pct\": {:.2},\n", pct(detected)));
    json.push_str(&format!("    \"recovered\": {recovered},\n"));
    json.push_str(&format!("    \"recovery_pct\": {:.2},\n", pct(recovered)));
    json.push_str(&format!("    \"answered\": {answered},\n"));
    json.push_str(&format!("    \"answered_pct\": {:.2},\n", pct(answered)));
    json.push_str(&format!(
        "    \"answered_by_attach_or_virtual\": {answered_attach},\n"
    ));
    json.push_str(&format!("    \"attaches\": {},\n", totals.attaches));
    json.push_str(&format!("    \"detaches\": {},\n", totals.detaches));
    json.push_str(&format!("    \"deferrals\": {},\n", totals.deferrals));
    json.push_str(&format!(
        "    \"rendezvous_failures\": {},\n",
        totals.rendezvous_failures
    ));
    json.push_str("    \"by_class\": {\n");
    let rows: Vec<String> = by_class
        .iter()
        .map(|(class, (inj, rec, lat))| {
            format!(
                "      \"{class}\": {{\"injected\": {inj}, \"recovered\": {rec}, \"mean_detect_latency_cycles\": {}}}",
                lat / inj.max(&1)
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    }\n  },\n");
    json.push_str("  \"faults\": [\n");
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"fault_id\": {}, \"class\": \"{}\", \"injected_cycle\": {}, \"detected_cycle\": {}, \"action\": \"{}\", \"attach_attempts\": {}, \"answer\": \"{}\", \"recovered\": {}}}",
                merctrace::export::escape(r.scenario),
                merctrace::export::escape(r.mode),
                r.fault_id,
                merctrace::export::escape(r.class),
                r.injected_cycle,
                r.detected_cycle,
                merctrace::export::escape(r.action),
                r.attach_attempts,
                r.answer.as_str(),
                r.recovered
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("faultgen_results.json", &json).expect("write faultgen_results.json");
    eprintln!("wrote faultgen_results.json");

    // Simulated throughput: each scenario's stream time is its last
    // detection cycle — a deterministic, archived quantity (bed machine
    // clocks would fold in host-timing-dependent rendezvous spin on the
    // SMP scenario).  Quick runs are too short to be meaningful.
    if !quick {
        let mut per_scenario: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in &records {
            let e = per_scenario.entry(r.scenario).or_insert(0);
            *e = (*e).max(r.detected_cycle);
        }
        let sim_mcycles = per_scenario.values().sum::<u64>() as f64 / 1e6;
        mercury_bench::record_sim_speed(
            "faultgen",
            &mercury_bench::SimSpeed {
                sim_mcycles,
                host_seconds,
            },
        );
    }

    // -- gates -----------------------------------------------------------
    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        ok = false;
    };
    if !deterministic {
        fail(format!(
            "two same-seed passes diverged ({} vs {} records)",
            records.len(),
            records2.len()
        ));
    }
    if recovered == 0 {
        fail("no fault was recovered".to_string());
    }
    if !quick {
        if planned < 200 {
            fail(format!("{planned} planned faults < 200"));
        }
        if by_class.len() < 4 {
            fail(format!("{} fault classes < 4", by_class.len()));
        }
        if pct(detected) < 95.0 {
            fail(format!("detection rate {:.2}% < 95%", pct(detected)));
        }
        if pct(answered) < 95.0 {
            fail(format!("answered rate {:.2}% < 95%", pct(answered)));
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
