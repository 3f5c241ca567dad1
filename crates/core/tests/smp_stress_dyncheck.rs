//! SMP stress under the vector-clock happens-before checker.
//!
//! With `--features dyncheck` the rendezvous (§5.4) and refcount
//! (§5.1.1) hot paths carry shadow vector clocks.  This test drives
//! repeated attach/detach rounds from the control processor while a
//! peer thread services CPU 1's IPIs and two more threads churn VO
//! guards, then asserts the checker recorded **zero** protocol
//! violations: every check-in happened-before the go decision, every
//! completion happened-before the rendezvous closed, and every
//! refcount exit happened-before the quiescence gate that saw zero.

#![cfg(feature = "dyncheck")]

use mercury::{dyncheck, AssistMode, Mercury, NodeConfig, Stack, SwitchOutcome, TrackingStrategy};
use simx86::Machine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn rig(cpus: usize, strategy: TrackingStrategy) -> (Arc<Machine>, Arc<Mercury>) {
    let config = NodeConfig {
        num_cpus: cpus,
        pool_frames: 8 * 1024,
        ..NodeConfig::default()
    };
    let stack = Stack::build(&config, strategy, AssistMode::Software);
    (stack.machine, stack.mercury)
}

#[test]
fn smp_stress_has_no_happens_before_violations() {
    let (machine, mercury) = rig(2, TrackingStrategy::RecomputeOnSwitch);
    // Start from a clean report buffer (other tests in this binary may
    // share the global).
    let _ = dyncheck::take_reports();

    let stop = Arc::new(AtomicBool::new(false));
    let stop_peer = Arc::new(AtomicBool::new(false));

    // Peer thread: services CPU 1 so it participates in every
    // rendezvous the CP opens.
    let peer = {
        let cpu1 = Arc::clone(&machine.cpus[1]);
        let stop = Arc::clone(&stop_peer);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                cpu1.service_pending();
                std::thread::yield_now();
            }
        })
    };

    // Guard churners: hammer the VO reference count so switch requests
    // race against live sensitive sections and get deferred.
    let churners: Vec<_> = (0..2)
        .map(|_| {
            let rc = Arc::clone(mercury.vo_refcount());
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let g = rc.enter();
                    std::hint::spin_loop();
                    drop(g);
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // CP: flip modes repeatedly; a Deferred outcome (guard in flight)
    // is retried until the switch lands.
    let cpu0 = machine.boot_cpu();
    let mut completed = 0u32;
    for round in 0..10u64 {
        let to_virtual = round % 2 == 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let out = if to_virtual {
                mercury.switch_to_virtual(cpu0)
            } else {
                mercury.switch_to_native(cpu0)
            }
            .unwrap_or_else(|e| panic!("switch failed at round {round}: {e}"));
            match out {
                SwitchOutcome::Completed { .. } => {
                    completed += 1;
                    break;
                }
                SwitchOutcome::AlreadyInMode => break,
                SwitchOutcome::Deferred { .. } => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "round {round} deferred past deadline"
                    );
                    std::thread::yield_now();
                }
            }
        }
    }
    assert!(completed >= 8, "only {completed} switches completed");

    stop.store(true, Ordering::Release);
    for c in churners {
        c.join().expect("churner panicked");
    }

    // End in native mode (peer thread still servicing CPU 1).
    if mercury.mode() == mercury::ExecMode::Virtual {
        while let SwitchOutcome::Deferred { .. } = mercury.switch_to_native(cpu0).unwrap() {
            std::thread::yield_now();
        }
    }
    stop_peer.store(true, Ordering::Release);
    peer.join().expect("peer thread panicked");

    // The whole run must be clean: no missing happens-before edge was
    // observed by any monitor, and the count balances at this join.
    let reports = dyncheck::take_reports();
    assert!(
        reports.is_empty(),
        "happens-before checker found {} violation(s):\n{}",
        reports.len(),
        reports.join("\n")
    );
    assert_eq!(mercury.vo_refcount().check_balanced(), None);
    assert!(mercury.vo_refcount().is_idle());
}

/// SMP stress over idle-time revalidation: two donor threads hammer
/// [`Mercury::donate_idle`] while a dirtier thread keeps re-storing
/// unchanged kernel-table entries and the control processor flips
/// modes — whose `DirtyRecompute` attach closes the *same* rounds and
/// whose detach rebases them.  Every pop is serialized by the rounds'
/// lock, so the donation accounting must balance exactly, no frame may
/// be retired more often than it was stored to, and the happens-before
/// monitors on the rendezvous/refcount paths must stay silent
/// throughout.
#[test]
fn concurrent_scrub_donation_keeps_accounting_balanced() {
    use nimbus::kernel::IDLE_DONATION_QUANTUM;
    use simx86::{costs, Cpu};
    use std::sync::atomic::AtomicU64;

    let (machine, mercury) = rig(2, TrackingStrategy::DirtyRecompute);
    let _ = dyncheck::take_reports();

    let stop = Arc::new(AtomicBool::new(false));
    let stop_peer = Arc::new(AtomicBool::new(false));

    let peer = {
        let cpu1 = Arc::clone(&machine.cpus[1]);
        let stop = Arc::clone(&stop_peer);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                cpu1.service_pending();
                std::thread::yield_now();
            }
        })
    };

    // Dirtier: re-stores kernel-table entries round-robin, each as it
    // finds it, counting the stores.  It leaves alone the direct-map
    // entries of table frames, which the switch flips.
    let marks = Arc::new(AtomicU64::new(0));
    let dirtier = {
        let kernel = Arc::clone(mercury.kernel());
        let tables = kernel.all_table_frames();
        let stop = Arc::clone(&stop);
        let marks = Arc::clone(&marks);
        std::thread::spawn(move || {
            let (mem, cpu) = (&kernel.machine.mem, Cpu::new(3));
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let (table, slot) = (tables[i % tables.len()], i / tables.len() % 512);
                let entry = mem.read_pte(&cpu, table, slot).unwrap();
                let flipped = entry.present() && tables.binary_search(&simx86::FrameNum(entry.frame())).is_ok();
                if !flipped {
                    mem.write_pte(&cpu, table, slot, entry).unwrap();
                    marks.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
                if i.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
        })
    };

    // Donors: each donates idle quanta from its own host-side vCPU.
    let donors: Vec<_> = (0..2u32)
        .map(|k| {
            let m = Arc::clone(&mercury);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let cpu = Arc::new(Cpu::new(4 + k as usize));
                while !stop.load(Ordering::Acquire) {
                    m.donate_idle(&cpu, IDLE_DONATION_QUANTUM);
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // CP: mode round trips; the dirty attach and the donors read the
    // same cursor.
    let cpu0 = machine.boot_cpu();
    let retired = || mercury.stats.idle_revalidated.load(Ordering::Relaxed);
    for round in 0..6u64 {
        let to_virtual = round % 2 == 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        if to_virtual {
            // Donors only work while native: leave each native window
            // only once they have retired something the marker wrote.
            let before = retired();
            while retired() == before {
                assert!(
                    std::time::Instant::now() < deadline,
                    "round {round}: donors retired nothing"
                );
                std::thread::yield_now();
            }
        }
        loop {
            let out = if to_virtual {
                mercury.switch_to_virtual(cpu0)
            } else {
                mercury.switch_to_native(cpu0)
            }
            .unwrap_or_else(|e| panic!("switch failed at round {round}: {e}"));
            match out {
                SwitchOutcome::Completed { .. } | SwitchOutcome::AlreadyInMode => break,
                SwitchOutcome::Deferred { .. } => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "round {round} deferred past deadline"
                    );
                    std::thread::yield_now();
                }
            }
        }
    }

    stop.store(true, Ordering::Release);
    dirtier.join().expect("dirtier panicked");
    for d in donors {
        d.join().expect("donor panicked");
    }
    if mercury.mode() == mercury::ExecMode::Virtual {
        while let SwitchOutcome::Deferred { .. } = mercury.switch_to_native(cpu0).unwrap() {
            std::thread::yield_now();
        }
    }
    stop_peer.store(true, Ordering::Release);
    peer.join().expect("peer thread panicked");

    // Drain the leftover backlog so the final balance is exact.
    let cpu = Arc::new(Cpu::new(6));
    while !mercury.revalidation_backlog().is_empty() {
        mercury.donate_idle(&cpu, IDLE_DONATION_QUANTUM);
    }

    let reports = dyncheck::take_reports();
    assert!(
        reports.is_empty(),
        "happens-before checker found {} violation(s):\n{}",
        reports.len(),
        reports.join("\n")
    );
    let stat = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let revalidated = stat(&mercury.stats.idle_revalidated);
    assert!(revalidated > 0, "donors never retired a frame");
    assert_eq!(
        stat(&mercury.stats.idle_cycles_donated),
        revalidated * costs::PGINFO_RECOMPUTE_PER_FRAME,
        "a pop was charged at the wrong rate (or double-counted)"
    );
    assert!(
        revalidated <= stat(&marks),
        "a frame was retired more often than it was marked"
    );
}
