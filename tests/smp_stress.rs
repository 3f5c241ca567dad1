//! SMP stress: host threads drive the simulated CPUs with independent
//! kernel work, churn VO guards or donate idle time while the control
//! processor attaches and detaches the VMM.  Exercises the §5.4
//! rendezvous, the big kernel lock, per-frame memory locks, the VO
//! reference count and the idle-time revalidation under real
//! concurrency.  The rendezvous protocol itself is explored exhaustively
//! at small scope by `mercury::rendezvous`'s tests; these races sample
//! what it drives.

use mercury::{
    AssistMode, ExecMode, Mercury, NodeConfig, Stack, SwitchError, SwitchOutcome, TrackingStrategy,
};
use mercury_workloads::configs::{SysKind, TestBed};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::paging::{VirtAddr, PAGE_SIZE};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn smp_switches_under_concurrent_load() {
    let bed = TestBed::build(SysKind::MN, 2);
    let mercury = Arc::clone(bed.mercury.as_ref().unwrap());
    let kernel = Arc::clone(&bed.kernel);

    // CPU 0 forks workers so CPU 1 has something to run.
    let sess0 = bed.session(0);
    for _ in 0..3 {
        sess0.fork().unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let peer_rounds = Arc::new(AtomicU64::new(0));

    // Thread B: drives CPU 1 — adopts a runnable process, then loops
    // doing memory and file work with regular service points (the
    // rendezvous depends on those).
    let peer = {
        let kernel = Arc::clone(&kernel);
        let stop = Arc::clone(&stop);
        let rounds = Arc::clone(&peer_rounds);
        std::thread::spawn(move || {
            let sess = Session::new(kernel, 1);
            // Adopt a process.
            while sess.current_pid().is_none() {
                sess.idle().unwrap();
                std::thread::yield_now();
            }
            let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let addr = VirtAddr(va.0 + (i % 4) * PAGE_SIZE);
                sess.poke(addr, i).expect("peer poke");
                assert_eq!(sess.peek(addr).expect("peer peek"), i);
                if i.is_multiple_of(16) {
                    let name = format!("peer_{}.dat", i % 4);
                    let fd = sess.open(&name, true).expect("peer open");
                    sess.write(fd, b"smp").expect("peer write");
                    sess.close(fd).expect("peer close");
                }
                sess.service();
                // The VO is swapped while this CPU is parked in the
                // rendezvous (§5.4), so once `service` returns, the
                // mode the kernel dispatches through and this CPU's
                // reloaded privilege level agree; neither can change
                // again before this CPU's next service point.
                let expect_pl = match sess.kernel().exec_mode() {
                    ExecMode::Virtual => simx86::PrivLevel::Pl1,
                    ExecMode::Native => simx86::PrivLevel::Pl0,
                };
                assert_eq!(
                    sess.cpu().pl(),
                    expect_pl,
                    "cpu1 released ahead of the VO swap"
                );
                rounds.fetch_add(1, Ordering::Relaxed);
                i += 1;
                std::thread::yield_now();
            }
        })
    };

    // Thread A (this thread): CPU 0 runs its own work and flips modes.
    let cpu0 = bed.machine.boot_cpu();
    let va = sess0.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
    let mut switches = 0;
    for round in 0..12u64 {
        sess0.poke(va, round).unwrap();
        let target_virtual = round % 2 == 0;
        let out = if target_virtual {
            mercury.switch_to_virtual(cpu0)
        } else {
            mercury.switch_to_native(cpu0)
        }
        .unwrap_or_else(|e| panic!("switch failed at round {round}: {e}"));
        match out {
            SwitchOutcome::Completed { .. } => switches += 1,
            SwitchOutcome::AlreadyInMode => {}
            SwitchOutcome::Deferred { .. } => {
                // Peer was mid-VO-op; let the retry timer handle it.
                for _ in 0..5 {
                    sess0.compute(simx86::costs::SWITCH_RETRY_PERIOD + 1);
                    sess0.service();
                    let now_virtual = mercury.mode() == ExecMode::Virtual;
                    if now_virtual == target_virtual {
                        switches += 1;
                        break;
                    }
                }
            }
        }
        // Both CPUs agree on the mode's hardware state.
        let expect_pl = if mercury.mode() == ExecMode::Virtual {
            simx86::PrivLevel::Pl1
        } else {
            simx86::PrivLevel::Pl0
        };
        assert_eq!(cpu0.pl(), expect_pl, "cpu0 wrong at round {round}");
        assert_eq!(sess0.peek(va).unwrap(), round);
    }
    assert!(switches >= 8, "only {switches} switches completed");

    // Let the peer accumulate work in the final mode before stopping.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while peer_rounds.load(Ordering::Relaxed) < 100 {
        assert!(std::time::Instant::now() < deadline, "peer CPU stalled");
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    peer.join().expect("peer thread panicked");
    // End in native mode with both CPUs consistent.
    if mercury.mode() == ExecMode::Virtual {
        // Peer thread is gone; drive cpu1's rendezvous from here.
        let stop2 = Arc::new(AtomicBool::new(false));
        let cpu1 = Arc::clone(&bed.machine.cpus[1]);
        let helper = {
            let stop2 = Arc::clone(&stop2);
            std::thread::spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    cpu1.service_pending();
                    std::thread::yield_now();
                }
            })
        };
        mercury.switch_to_native(cpu0).unwrap();
        stop2.store(true, Ordering::Release);
        helper.join().unwrap();
    }
    assert_eq!(kernel.exec_mode(), ExecMode::Native);
    for cpu in &bed.machine.cpus {
        assert_eq!(cpu.pl(), simx86::PrivLevel::Pl0);
        assert_eq!(cpu.current_idt().unwrap().owner, "nimbus");
    }
}

/// Cycles one null syscall charges on `sess`'s CPU: the close of a
/// descriptor nobody has, which takes the kernel lock and fails, so all
/// that differs between modes is the VO's entry and exit.
fn null_syscall_cycles(sess: &Session) -> u64 {
    let t0 = sess.cpu().cycles();
    let _ = sess.close(usize::MAX);
    sess.cpu().cycles() - t0
}

/// Each session keeps its own copy of the kernel's VO (DESIGN.md §14b).
/// Two sessions, each on its own thread, run null syscalls through a
/// native → virtual → native round trip; in every phase each one's
/// cheapest syscall is the phase's mode's, so neither kept the VO it
/// started with.
#[test]
fn each_session_follows_the_vo_through_a_round_trip() {
    const SAMPLES: u64 = 16;
    const PHASES: [ExecMode; 3] = [ExecMode::Native, ExecMode::Virtual, ExecMode::Native];
    let bed = TestBed::build(SysKind::MN, 2);
    let mercury = Arc::clone(bed.mercury.as_ref().unwrap());
    // The phase CPU 0 has switched into (PHASES.len() = stop), and how
    // many syscalls CPU 1 has sampled in each.
    let phase = Arc::new(AtomicU64::new(0));
    let taken: Arc<[AtomicU64; 3]> = Arc::new(Default::default());

    let peer = {
        let (kernel, phase, taken) = (
            Arc::clone(&bed.kernel),
            Arc::clone(&phase),
            Arc::clone(&taken),
        );
        std::thread::spawn(move || {
            let sess = Session::new(kernel, 1);
            let mut least = [u64::MAX; 3];
            loop {
                let p = phase.load(Ordering::Acquire) as usize;
                if p == PHASES.len() {
                    return least;
                }
                let cycles = null_syscall_cycles(&sess);
                // CPU 0 switches again only once this phase is sampled
                // in full, so a sample taken below it spans no switch.
                if taken[p].load(Ordering::Acquire) < SAMPLES {
                    least[p] = least[p].min(cycles);
                    taken[p].fetch_add(1, Ordering::AcqRel);
                }
                std::thread::yield_now();
            }
        })
    };

    let cpu0 = bed.machine.boot_cpu();
    let sess0 = bed.session(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut least = [u64::MAX; 3];
    for (p, &mode) in PHASES.iter().enumerate() {
        loop {
            match mercury.reach(mode, cpu0) {
                Ok(_) => break,
                Err(SwitchError::Busy(_)) => sess0.service(),
                Err(e) => panic!("switch to {mode:?} failed: {e}"),
            }
            assert!(
                std::time::Instant::now() < deadline,
                "switch to {mode:?} never landed"
            );
        }
        phase.store(p as u64, Ordering::Release);
        for _ in 0..SAMPLES {
            least[p] = least[p].min(null_syscall_cycles(&sess0));
        }
        while taken[p].load(Ordering::Acquire) < SAMPLES {
            assert!(
                std::time::Instant::now() < deadline,
                "cpu1 stalled in phase {p}"
            );
            std::thread::yield_now();
        }
    }
    phase.store(PHASES.len() as u64, Ordering::Release);
    let peer_least = peer.join().expect("peer thread panicked");

    for (cpu, least) in [(0, least), (1, peer_least)] {
        assert_eq!(
            least[1] - least[0],
            simx86::costs::SYSCALL_VIRT_EXTRA,
            "cpu{cpu}: syscalls after the attach go through the virtual VO ({least:?})"
        );
        assert_eq!(
            least[2], least[0],
            "cpu{cpu}: and after the detach through the native one"
        );
    }
}

/// A bare `cpus`-CPU node: Mercury installed, native, no workload.
fn rig(cpus: usize, strategy: TrackingStrategy) -> (Arc<simx86::Machine>, Arc<Mercury>) {
    let config = NodeConfig {
        num_cpus: cpus,
        pool_frames: 8 * 1024,
        ..NodeConfig::default()
    };
    let stack = Stack::build(&config, strategy, AssistMode::Software);
    (stack.machine, stack.mercury)
}

/// The control processor flips modes ten times while a peer thread
/// services CPU 1's IPIs and two more threads churn VO guards, so switch
/// requests race live sensitive sections (§5.1.1) and get deferred; a
/// deferred switch is retried until it lands, and the guards balance at
/// the end.
#[test]
fn switches_land_while_guards_churn() {
    let (machine, mercury) = rig(2, TrackingStrategy::RecomputeOnSwitch);

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

    // Every guard entered has exited.
    assert!(mercury.vo_refcount().is_idle());
}

/// SMP stress over idle-time revalidation: two donor threads hammer
/// [`Mercury::donate_idle`] while a dirtier thread keeps re-storing
/// unchanged kernel-table entries and the control processor flips
/// modes — whose `DirtyRecompute` attach closes the *same* rounds and
/// whose detach rebases them.  Every pop is serialized by the rounds'
/// lock, so the donation accounting must balance exactly, no frame may
/// be retired more often than it was stored to (DESIGN.md §7b
/// invariant 4).
#[test]
fn concurrent_scrub_donation_keeps_accounting_balanced() {
    use nimbus::kernel::IDLE_DONATION_QUANTUM;
    use simx86::{costs, Cpu};

    let (machine, mercury) = rig(2, TrackingStrategy::DirtyRecompute);

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
                let flipped = entry.present()
                    && tables
                        .binary_search(&simx86::FrameNum(entry.frame()))
                        .is_ok();
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
