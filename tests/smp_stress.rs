//! SMP stress: two host threads drive the two simulated CPUs with
//! independent kernel work while the control processor attaches and
//! detaches the VMM.  Exercises the §5.4 rendezvous, the big kernel
//! lock, per-frame memory locks and the VO reference count under real
//! concurrency.

use mercury::{ExecMode, SwitchError, SwitchOutcome};
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
    // With the happens-before checker compiled in, every rendezvous
    // round above ran under the vector-clock monitors: any missing
    // release/acquire edge (a check-in not ordered before the CP's
    // decision, a completion not ordered before the round's close)
    // would have been recorded.
    #[cfg(feature = "dyncheck")]
    {
        let reports = mercury::dyncheck::take_reports();
        assert!(
            reports.is_empty(),
            "dyncheck found happens-before violations:\n{}",
            reports.join("\n")
        );
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
