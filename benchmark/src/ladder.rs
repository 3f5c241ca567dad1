//! The per-layer cost ladder: each rung is one public operation of one
//! layer, run in isolation on a fresh rig and reported on both clocks.
//! Simulated cycles per call repeat exactly; host nanoseconds are as
//! noisy as the host.

use crate::rig::{page, Rig, ECHO_PORT, WORKING_SET_PAGES};
use mercury::{ExecMode, TrackingStrategy};
use nimbus::kernel::{MmapBacking, ReadOutcome, WriteOutcome};
use nimbus::mm::Prot;

use simx86::{AccessKind, Cpu, FrameNum, Mmu};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;
use xenon::MmuUpdate;

/// One rung's cost per call, on the clocks it is reported on.
pub struct Rung {
    pub name: String,
    pub cycles: Option<f64>,
    pub host_ns: Option<f64>,
}

/// Run `body` `reps` times, `prep` before each (untimed), and divide
/// both clocks by the `calls` each body makes.
fn measure(
    cpu: &Cpu,
    reps: u32,
    calls: u32,
    mut prep: impl FnMut(),
    mut body: impl FnMut(),
) -> (f64, f64) {
    let (mut cycles, mut ns) = (0u64, 0u128);
    for _ in 0..reps {
        prep();
        let (c0, h0) = (cpu.cycles(), Instant::now());
        body();
        ns += h0.elapsed().as_nanos();
        cycles += cpu.cycles() - c0;
    }
    let n = (reps * calls) as f64;
    (cycles as f64 / n, ns as f64 / n)
}

/// [`measure`] with nothing to prepare between repetitions.
fn repeat(cpu: &Cpu, reps: u32, calls: u32, body: impl FnMut()) -> (f64, f64) {
    measure(cpu, reps, calls, || {}, body)
}

struct Ladder {
    rungs: Vec<Rung>,
}

impl Ladder {
    fn add(&mut self, name: impl Into<String>, (cycles, host_ns): (f64, f64)) {
        self.rungs.push(Rung {
            name: name.into(),
            cycles: Some(cycles),
            host_ns: Some(host_ns),
        });
    }
}

fn simx86_rungs(rig: &Rig, out: &mut Ladder) {
    let (cpu, mem) = (rig.cpu(), &rig.machine.mem);
    let translate =
        |va| Mmu::translate(mem, cpu, va, AccessKind::Read, true).expect("mapped page translates");

    let one = rig.map_dirty(1);
    let pa = translate(one);
    out.add(
        "simx86.tlb_hit",
        repeat(cpu, 200, 64, || {
            for _ in 0..64 {
                black_box(translate(one));
            }
        }),
    );

    // Twice the TLB's 64 FIFO entries, walked in order: every access
    // finds its entry already evicted.
    let wide = rig.map_dirty(128);
    out.add(
        "simx86.tlb_miss_walk",
        repeat(cpu, 50, 128, || {
            for p in 0..128 {
                black_box(translate(page(wide, p)));
            }
        }),
    );

    out.add(
        "simx86.mem_word_rw",
        repeat(cpu, 200, 64, || {
            for i in 0..64u64 {
                mem.write_word(cpu, pa, i).expect("word write");
                black_box(mem.read_word(cpu, pa).expect("word read"));
            }
        }),
    );

    let src = rig.machine.allocator.alloc(cpu).expect("spare frame");
    let dst = rig.machine.allocator.alloc(cpu).expect("spare frame");
    out.add(
        "simx86.copy_frame",
        repeat(cpu, 500, 1, || {
            mem.copy_frame(cpu, src, dst).expect("frame copy");
        }),
    );
    rig.machine.allocator.free(src);
    rig.machine.allocator.free(dst);

    out.add(
        "simx86.write_cr3",
        repeat(cpu, 1_000, 1, || {
            cpu.write_cr3(cpu.cr3_raw()).expect("native kernel is PL0");
        }),
    );

    out.add(
        "simx86.evclock_advance",
        repeat(cpu, 1_000, 1, || {
            black_box(rig.machine.evclock.advance(cpu, cpu.cycles() + 1_000));
        }),
    );

    rig.sess.munmap(one, 1).expect("ladder munmap");
    rig.sess.munmap(wide, 128).expect("ladder munmap");
}

/// Needs the VMM attached: hypercalls refuse while it is dormant.
fn xenon_rungs(rig: &Rig, out: &mut Ladder) {
    let (cpu, sess) = (rig.cpu(), &rig.sess);
    let hv = rig.mercury.hypervisor();
    let dom0 = rig.mercury.dom0();

    out.add(
        "xenon.null_hypercall",
        repeat(cpu, 200, 64, || {
            for _ in 0..64 {
                hv.sched_yield(cpu, dom0).expect("yield hypercall");
            }
        }),
    );

    // Rewrite 64 live leaf entries with the values they already hold:
    // full validation, no change of state.
    let region = rig.map_dirty(64);
    let pgd = FrameNum(cpu.cr3_raw());
    let updates: Vec<MmuUpdate> = (0..64)
        .map(|p| {
            let (val, table, index) = Mmu::walk_leaf(&rig.machine.mem, cpu, pgd, page(region, p))
                .expect("walk")
                .expect("dirtied page is mapped");
            MmuUpdate { table, index, val }
        })
        .collect();
    out.add(
        "xenon.mmu_update_1",
        repeat(cpu, 20, 64, || {
            for u in &updates {
                hv.mmu_update(cpu, dom0, std::slice::from_ref(u))
                    .expect("single update");
            }
        }),
    );
    out.add(
        "xenon.mmu_update_64",
        repeat(cpu, 20, 64, || {
            hv.mmu_update(cpu, dom0, &updates).expect("batched update");
        }),
    );
    sess.munmap(region, 64).expect("ladder munmap");

    // A forked child's base table is pinned and not loaded anywhere:
    // unpin and re-pin it, then let the child run and exit.
    let child = sess.fork().expect("ladder fork");
    let idle_pgd = dom0
        .pgds()
        .into_iter()
        .find(|f| f.0 != cpu.cr3_raw())
        .expect("the child's base table is pinned");
    out.add(
        "xenon.pin_unpin_l2",
        repeat(cpu, 20, 1, || {
            hv.unpin_l2(cpu, dom0, idle_pgd).expect("unpin");
            hv.pin_l2(cpu, dom0, idle_pgd).expect("pin");
        }),
    );
    assert!(sess.waitpid().expect("wait").is_none());
    sess.exit(0).expect("child exit");
    assert_eq!(sess.waitpid().expect("reap"), Some((child, 0)));

    let unbound = hv.evtchn_alloc(cpu, dom0).expect("event channel");
    let port = hv
        .evtchn_bind(cpu, dom0, dom0.id, unbound)
        .expect("loopback bind");
    out.add(
        "xenon.evtchn_send",
        repeat(cpu, 200, 64, || {
            for _ in 0..64 {
                hv.evtchn_send(cpu, dom0, port).expect("send");
            }
        }),
    );
    // Deliver the (coalesced) upcall before anyone else measures.
    sess.service();
}

/// The kernel-facing operations, in whatever mode the rig is in.
fn nimbus_rungs(rig: &Rig, fd: usize, out: &mut Ladder) {
    let (cpu, sess) = (rig.cpu(), &rig.sess);
    let suffix = match rig.mercury.mode() {
        ExecMode::Native => "native",
        ExecMode::Virtual => "virtual",
    };
    let mut add = |op: &str, cost| out.add(format!("nimbus.{op}.{suffix}"), cost);
    let block = [0x5au8; 512];

    add(
        "null_syscall",
        repeat(cpu, 200, 64, || {
            for _ in 0..64 {
                sess.lseek(fd, 0).expect("lseek");
            }
        }),
    );
    add(
        "file_read_512",
        measure(
            cpu,
            2_000,
            1,
            || sess.lseek(fd, 1_024).expect("lseek"),
            || {
                let got = sess.read(fd, 512).expect("read");
                assert!(matches!(got, ReadOutcome::Data(d) if d.len() == 512));
            },
        ),
    );
    add(
        "file_append_512",
        measure(
            cpu,
            2_000,
            1,
            || sess.lseek(fd, 4_096).expect("lseek"),
            || {
                let wrote = sess.write(fd, &block).expect("write");
                assert_eq!(wrote, WriteOutcome::Wrote(512));
            },
        ),
    );
    add(
        "mmap_munmap_16",
        repeat(cpu, 500, 1, || {
            let va = sess.mmap(16, Prot::RW, MmapBacking::Anon).expect("mmap");
            sess.munmap(va, 16).expect("munmap");
        }),
    );

    // Fresh anonymous pages: every first write is a demand-zero fault.
    let fresh = Cell::new(None);
    let release = || {
        if let Some(va) = fresh.take() {
            sess.munmap(va, 64).expect("munmap");
        }
    };
    add(
        "page_fault",
        measure(
            cpu,
            50,
            64,
            || {
                release();
                fresh.set(Some(
                    sess.mmap(64, Prot::RW, MmapBacking::Anon).expect("mmap"),
                ));
            },
            || {
                let va = fresh.get().expect("mapped by prep");
                for p in 0..64 {
                    sess.poke(page(va, p), p).expect("fault in");
                }
            },
        ),
    );
    release();

    // A child's exit closes the descriptors it inherited, sockets
    // included, so the echo rung binds its own socket and runs first.
    let sock = sess
        .socket(40_000 + (suffix == "virtual") as u16)
        .expect("socket");
    add(
        "net_echo_256",
        repeat(cpu, 1_000, 1, || {
            sess.sendto(sock, ECHO_PORT, &block[..256]).expect("send");
            let reply = sess.recvfrom_nonblock(sock).expect("recv");
            assert!(matches!(reply, Some((ECHO_PORT, d)) if d.len() == 256));
        }),
    );
    add(
        "fork_exit_wait",
        repeat(cpu, 50, 1, || {
            let child = sess.fork().expect("fork");
            assert!(sess.waitpid().expect("wait").is_none());
            sess.exit(0).expect("exit");
            assert_eq!(sess.waitpid().expect("reap"), Some((child, 0)));
        }),
    );
}

/// Attach and detach in a loop with nothing dirtied in between.
fn switch_rungs(rig: &Rig, reps: u32, suffix: &str, with_detail: bool, out: &mut Ladder) {
    let cpu = rig.cpu();
    let (mut attach, mut detach, mut pginfo) = ((0u64, 0u128), (0u64, 0u128), 0u64);
    for _ in 0..reps {
        let h0 = Instant::now();
        attach.0 += rig.switch_to(ExecMode::Virtual).expect("attach");
        attach.1 += h0.elapsed().as_nanos();
        pginfo += rig.mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed);
        let h0 = Instant::now();
        detach.0 += rig.switch_to(ExecMode::Native).expect("detach");
        detach.1 += h0.elapsed().as_nanos();
    }
    let n = reps as f64;
    let per = |(cycles, ns): (u64, u128)| (cycles as f64 / n, ns as f64 / n);
    out.add(format!("mercury.attach{suffix}"), per(attach));
    out.add(format!("mercury.detach{suffix}"), per(detach));
    if with_detail {
        out.rungs.push(Rung {
            name: "mercury.attach_pginfo".to_string(),
            cycles: Some(pginfo as f64 / n),
            host_ns: None,
        });
        // Entering and leaving a VO section charges no cycles.
        let vo = rig.mercury.vo_refcount();
        let enter_exit = || {
            for _ in 0..64 {
                drop(black_box(vo.enter()));
            }
        };
        let (_, host_ns) = repeat(cpu, 200, 64, enter_exit);
        out.rungs.push(Rung {
            name: "mercury.vo_enter_exit".to_string(),
            cycles: None,
            host_ns: Some(host_ns),
        });
    }
}

/// Every rung, in a fixed order.
pub fn run() -> Vec<Rung> {
    let mut out = Ladder { rungs: Vec::new() };

    let rig = Rig::build(TrackingStrategy::default());
    let sess = &rig.sess;
    let fd = sess.open("ladder.dat", true).expect("open");
    for _ in 0..8 {
        sess.write(fd, &[0u8; 2_048]).expect("prefill");
    }
    // What fork duplicates, as in the churn workloads.
    rig.map_dirty(WORKING_SET_PAGES);

    simx86_rungs(&rig, &mut out);
    nimbus_rungs(&rig, fd, &mut out);
    // One unmeasured round trip settles the first-attach baseline.
    rig.switch_to(ExecMode::Virtual).expect("attach");
    rig.switch_to(ExecMode::Native).expect("detach");
    switch_rungs(&rig, 200, "", true, &mut out);
    rig.switch_to(ExecMode::Virtual).expect("attach");
    xenon_rungs(&rig, &mut out);
    nimbus_rungs(&rig, fd, &mut out);
    rig.switch_to(ExecMode::Native).expect("detach");
    drop(rig);

    // The paper's design: recompute every frame on every attach.
    let rig = Rig::build(TrackingStrategy::RecomputeOnSwitch);
    rig.map_dirty(WORKING_SET_PAGES);
    switch_rungs(&rig, 30, "_full", false, &mut out);

    out.rungs
}
