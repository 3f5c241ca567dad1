//! Property-based integration tests: randomized workload sequences
//! against the mode-switch and checkpoint machinery.
//!
//! The central invariants:
//! * **Switch transparency** — interleaving mode switches anywhere in a
//!   workload never changes its observable results (§4.3).
//! * **Accounting idempotence** — every attach rebuilds the identical
//!   `page_info` state for identical kernel state.
//! * **Checkpoint fidelity** — restore reproduces exactly the kernel
//!   state at capture, regardless of what ran before.

use faultgen::rng::{check, SplitMix64};
use mercury::TrackingStrategy;
use mercury_workloads::configs::{switch_with_peers, SysKind, TestBed};
use nimbus::kernel::{MmapBacking, ReadOutcome};
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::paging::{VirtAddr, PAGE_SIZE};

/// A step of the randomized workload.
#[derive(Debug, Clone)]
enum Op {
    Poke { page: u8, value: u64 },
    ForkExitWait,
    FileAppend { bytes: u8 },
    PipeRoundtrip { len: u8 },
    Mprotect { ro: bool },
    Switch, // toggle execution mode (no-op for beds without Mercury)
}

fn draw_op(rng: &mut SplitMix64) -> Op {
    match rng.below(6) {
        0 => Op::Poke {
            page: rng.below(8) as u8,
            value: rng.next_u64(),
        },
        1 => Op::ForkExitWait,
        2 => Op::FileAppend {
            bytes: rng.range(1, 64) as u8,
        },
        3 => Op::PipeRoundtrip {
            len: rng.range(1, 32) as u8,
        },
        4 => Op::Mprotect {
            ro: rng.below(2) == 1,
        },
        _ => Op::Switch,
    }
}

/// Run the op sequence; returns the observable transcript.
fn run_ops(bed: &TestBed, ops: &[Op]) -> Vec<String> {
    let sess = bed.session(0);
    let mut log = Vec::new();
    let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
    let fd = sess.open("prop.dat", true).unwrap();
    let (pr, pw) = sess.pipe().unwrap();
    let cpu = bed.machine.boot_cpu();

    for op in ops {
        match op {
            Op::Poke { page, value } => {
                let addr = VirtAddr(va.0 + (*page as u64) * PAGE_SIZE);
                if sess.poke(addr, *value).is_ok() {
                    log.push(format!("poke {}", sess.peek(addr).unwrap()));
                } else {
                    sess.clear_signal();
                    log.push("poke denied".into());
                }
            }
            Op::ForkExitWait => {
                sess.fork().unwrap();
                assert!(sess.waitpid().unwrap().is_none());
                sess.exit(7).unwrap();
                let (_, code) = sess.waitpid().unwrap().unwrap();
                log.push(format!("child exit {code}"));
            }
            Op::FileAppend { bytes } => {
                let data = vec![0x41u8; *bytes as usize];
                sess.write(fd, &data).unwrap();
                log.push(format!("size {}", sess.stat("prop.dat").unwrap().size));
            }
            Op::PipeRoundtrip { len } => {
                let data = vec![0x42u8; *len as usize];
                sess.write(pw, &data).unwrap();
                match sess.read(pr, *len as usize).unwrap() {
                    ReadOutcome::Data(d) => log.push(format!("pipe {}", d.len())),
                    other => panic!("{other:?}"),
                }
            }
            Op::Mprotect { ro } => {
                sess.mprotect(va, 8, if *ro { Prot::RO } else { Prot::RW })
                    .unwrap();
                log.push(format!("prot ro={ro}"));
            }
            Op::Switch => {
                if let Some(m) = &bed.mercury {
                    let out = if m.mode() == mercury::ExecMode::Native {
                        m.switch_to_virtual(cpu)
                    } else {
                        m.switch_to_native(cpu)
                    }
                    .unwrap();
                    assert!(!matches!(out, mercury::SwitchOutcome::Deferred { .. }));
                }
                // The transcript deliberately does NOT record the mode:
                // switches must be invisible.
            }
        }
    }
    log
}

/// Ops exercising the address-space *shape* — mmap/fork/munmap
/// interleavings, with pokes so tables actually fault in — used by the
/// strategy-equivalence properties below.
#[derive(Debug, Clone)]
enum MemOp {
    Mmap { pages: u8 },
    Poke { area: u8, page: u8, value: u64 },
    Munmap { area: u8 },
    ForkExitWait,
}

fn draw_mem_op(rng: &mut SplitMix64) -> MemOp {
    match rng.below(4) {
        0 => MemOp::Mmap {
            pages: rng.range(1, 8) as u8,
        },
        1 => MemOp::Poke {
            area: rng.next_u64() as u8,
            page: rng.below(8) as u8,
            value: rng.next_u64(),
        },
        2 => MemOp::Munmap {
            area: rng.next_u64() as u8,
        },
        _ => MemOp::ForkExitWait,
    }
}

fn run_mem_ops(bed: &TestBed, ops: &[MemOp]) {
    let sess = bed.session(0);
    let mut areas: Vec<(VirtAddr, u8)> = Vec::new();
    for op in ops {
        match op {
            MemOp::Mmap { pages } => {
                let va = sess
                    .mmap(u64::from(*pages), Prot::RW, MmapBacking::Anon)
                    .unwrap();
                areas.push((va, *pages));
            }
            MemOp::Poke { area, page, value } => {
                let Some(&(va, pages)) = areas.get(*area as usize % areas.len().max(1)) else {
                    continue;
                };
                let addr = VirtAddr(va.0 + u64::from(page % pages) * PAGE_SIZE);
                if sess.poke(addr, *value).is_err() {
                    sess.clear_signal();
                }
            }
            MemOp::Munmap { area } => {
                if areas.is_empty() {
                    continue;
                }
                let (va, pages) = areas.remove(*area as usize % areas.len());
                let _ = sess.munmap(va, pages as u64);
            }
            MemOp::ForkExitWait => {
                sess.fork().unwrap();
                assert!(sess.waitpid().unwrap().is_none());
                sess.exit(0).unwrap();
                sess.waitpid().unwrap().unwrap();
            }
        }
    }
}

/// §5.1.2 equivalence: whichever way the VMM regains its frame
/// accounting — full recompute, active mirroring or incremental
/// revalidation of the tables stored to — the rebuilt
/// `page_info` is bit-identical after any mmap/fork/munmap
/// interleaving.  The ops run in the *native* window between a detach
/// and a re-attach, so the dirty/mirror paths do real work, and for one
/// to four rounds, so a detach retains what an attach from retained
/// records rebuilt.
#[test]
fn all_strategies_rebuild_identical_accounting() {
    check("all_strategies_rebuild_identical_accounting", 8, |rng| {
        let rounds = rng.range(1, 5) as usize;
        let ops: Vec<Vec<MemOp>> = (0..rounds)
            .map(|_| {
                let len = rng.range(1, 20) as usize;
                rng.vec(len, draw_mem_op)
            })
            .collect();
        let snaps = TrackingStrategy::ALL.map(|strategy| {
            let bed = TestBed::build_mn_with_strategy(1, strategy);
            let mercury = bed.mercury.as_ref().unwrap();
            let cpu = bed.machine.boot_cpu();
            // Establish a detach baseline; then per round mutate
            // natively, re-attach, and detach again.
            mercury.switch_to_virtual(cpu).unwrap();
            ops.iter()
                .map(|round| {
                    mercury.switch_to_native(cpu).unwrap();
                    run_mem_ops(&bed, round);
                    mercury.switch_to_virtual(cpu).unwrap();
                    bed.hv.as_ref().unwrap().page_info.snapshot()
                })
                .collect::<Vec<_>>()
        });
        for (snap, strategy) in snaps.iter().zip(TrackingStrategy::ALL) {
            for (round, (got, want)) in snap.iter().zip(&snaps[0]).enumerate() {
                assert_eq!(
                    got, want,
                    "{strategy:?} diverged from recompute in round {round}"
                );
            }
        }
    });
}

/// The attach-time recompute, its scan sharded across the §5.4
/// rendezvous, rebuilds exactly the serial walk's snapshot.  A rig with
/// peers always shards, so the serial side is the same walk over a
/// scratch table, made while attached (detached, the tables are
/// writable and fail validation).
#[test]
fn sharded_recompute_matches_serial_snapshot() {
    check("sharded_recompute_matches_serial_snapshot", 8, |rng| {
        let len = rng.range(1, 16) as usize;
        let ops = rng.vec(len, draw_mem_op);
        let bed = TestBed::build_mn_with_strategy(4, TrackingStrategy::RecomputeOnSwitch);
        run_mem_ops(&bed, &ops);
        let mercury = bed.mercury.as_ref().unwrap();
        let hv = bed.hv.as_ref().unwrap();
        switch_with_peers(&bed.machine, mercury, true);
        let sharded = hv.page_info.snapshot();
        let dom = mercury.dom0().id;
        let pool = bed.kernel.pool_frames();
        let scratch = xenon::PageInfoTable::new(bed.machine.mem.num_frames());
        for &f in &pool {
            scratch.set_owner(f, Some(dom));
        }
        let pgds = bed.kernel.all_pgds();
        scratch
            .recompute_for(
                bed.machine.boot_cpu(),
                &bed.machine.mem,
                dom,
                pool.len(),
                &pgds,
            )
            .unwrap();
        assert_eq!(
            sharded,
            scratch.snapshot(),
            "sharded validation diverged from the serial walk"
        );
    });
}

/// Mode switches anywhere in a random workload never change its
/// observable behaviour: M-N with switches ≡ N-L without.
#[test]
fn switches_are_transparent_to_random_workloads() {
    check("switches_are_transparent_to_random_workloads", 12, |rng| {
        let len = rng.range(1, 24) as usize;
        let ops = rng.vec(len, draw_op);
        let native = run_ops(&TestBed::build(SysKind::NL, 1), &ops);
        let switching = run_ops(&TestBed::build(SysKind::MN, 1), &ops);
        assert_eq!(native, switching);
    });
}

/// After any random workload, attach → page_info snapshot is a pure
/// function of kernel state: two consecutive attach/detach cycles
/// produce identical accounting.
#[test]
fn frame_accounting_is_idempotent_after_random_work() {
    check(
        "frame_accounting_is_idempotent_after_random_work",
        12,
        |rng| {
            let len = rng.range(1, 16) as usize;
            let ops = rng.vec(len, draw_op);
            let bed = TestBed::build(SysKind::MN, 1);
            run_ops(&bed, &ops);
            let mercury = bed.mercury.as_ref().unwrap();
            let hv = bed.hv.as_ref().unwrap();
            let cpu = bed.machine.boot_cpu();
            if mercury.mode() == mercury::ExecMode::Virtual {
                mercury.switch_to_native(cpu).unwrap();
            }
            mercury.switch_to_virtual(cpu).unwrap();
            let first = hv.page_info.snapshot();
            mercury.switch_to_native(cpu).unwrap();
            mercury.switch_to_virtual(cpu).unwrap();
            let second = hv.page_info.snapshot();
            mercury.switch_to_native(cpu).unwrap();
            assert_eq!(first, second);
        },
    );
}

/// Checkpoint → restore reproduces the captured state exactly.
#[test]
fn checkpoint_restore_roundtrip_after_random_work() {
    check(
        "checkpoint_restore_roundtrip_after_random_work",
        12,
        |rng| {
            let len = rng.range(1, 12) as usize;
            let ops = rng.vec(len, draw_op);
            let probe_page = rng.below(8);
            let bed = TestBed::build(SysKind::MN, 1);
            run_ops(&bed, &ops);
            let mercury = bed.mercury.as_ref().unwrap();
            let cpu = bed.machine.boot_cpu();
            if mercury.mode() == mercury::ExecMode::Virtual {
                mercury.switch_to_native(cpu).unwrap();
            }

            // Probe state at capture time.
            let sess = bed.session(0);
            let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
            let addr = VirtAddr(va.0 + probe_page * PAGE_SIZE);
            sess.poke(addr, 0xC0FFEE).unwrap();
            let files_at_capture = sess.stat("prop.dat").map(|s| s.size).unwrap_or(0);

            let ckpt = mercury::scenarios::checkpoint::take(mercury, cpu).unwrap();

            // Diverge.
            sess.poke(addr, 1).unwrap();

            // Restore elsewhere and verify.
            let healthy = simx86::Machine::new(simx86::MachineConfig {
                num_cpus: 1,
                mem_frames: 16 * 1024,
                disk_sectors: 96 * 1024,
            });
            let restored = mercury::scenarios::checkpoint::restore(&healthy, &ckpt).unwrap();
            let sess2 = Session::new(std::sync::Arc::clone(&restored.kernel), 0);
            assert_eq!(sess2.peek(addr).unwrap(), 0xC0FFEE);
            let restored_size = sess2.stat("prop.dat").map(|s| s.size).unwrap_or(0);
            assert_eq!(restored_size, files_at_capture);
        },
    );
}
