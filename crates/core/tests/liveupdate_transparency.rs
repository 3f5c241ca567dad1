//! Live-update transparency property test (DESIGN.md §16).
//!
//! The §16 claim is that a hypervisor live-update is invisible to the
//! guest no matter where it stops: interrupted at any phase of the
//! rendezvous-protected critical section, the run either **completes
//! on v2** (handshake and transfer survived; the commit published the
//! successor before the peers were released) or **rolls back to v1**
//! (the incumbent keeps running, the staged successor is discarded) —
//! and in *both* cases guest memory, file contents, and fd positions
//! are bit-identical to a run that never attempted an update at all.
//!
//! The same observation is taken under both event-clock settings
//! (fast-forward on and off), so the test doubles as a skip-neutrality
//! check for the update path: skipping idle time must not change what
//! the guest can see either.

use faultgen::rng::check;
use mercury::{LiveUpdatePhase, Mercury, SwitchError, SwitchOutcome, TrackingStrategy};
use nimbus::drivers::block::NativeBlockDriver;
use nimbus::drivers::net::NativeNetDriver;
use nimbus::kernel::{BootMode, KernelConfig, MmapBacking, ReadOutcome};
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::paging::{VirtAddr, PAGE_SIZE};
use simx86::{Machine, MachineConfig};
use std::sync::Arc;
use xenon::Hypervisor;

/// What the run does mid-workload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Update {
    /// Baseline: no update staged, no update attempted.
    None,
    /// Stage v2 and run the update with an abort injected at the given
    /// phase (`None` = no injection: the update completes cleanly).
    At(Option<LiveUpdatePhase>),
}

/// Everything the guest can observe about its own state.  Cycle counts
/// are deliberately absent: the update costs time (that is the serving
/// bench's business), it must not cost *state*.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    /// One peek per poked word, poked half before / half after the
    /// update point.
    peeks: Vec<u64>,
    /// Bytes consumed from the journal fd *before* the update point.
    early_read: Vec<u8>,
    /// Bytes read from the same fd *after* it: starts exactly at the
    /// pre-update file position, or the fd position leaked.
    late_read: Vec<u8>,
    /// Whole-file readback and size at the end.
    full_read: Vec<u8>,
    file_size: u64,
}

fn rig() -> (Arc<Machine>, Arc<Mercury>) {
    let machine = Machine::new(MachineConfig {
        num_cpus: 1,
        mem_frames: 16 * 1024,
        disk_sectors: 64 * 1024,
    });
    let hv = Hypervisor::warm_up(&machine);
    let cpu = machine.boot_cpu();
    let pool = machine.allocator.alloc_many(cpu, 6 * 1024).unwrap();
    let kernel = nimbus::Kernel::boot(
        Arc::clone(&machine),
        KernelConfig {
            pool,
            mode: BootMode::Bare,
            fs_blocks: 4096,
            fs_first_block: 1,
        },
    )
    .unwrap();
    let bounce = machine.allocator.alloc(cpu).unwrap();
    kernel.set_block_driver(NativeBlockDriver::new(Arc::clone(&machine), bounce));
    kernel.set_net_driver(NativeNetDriver::new(Arc::clone(&machine)));
    let mercury = Mercury::install(kernel, hv, TrackingStrategy::default()).unwrap();
    (machine, mercury)
}

fn data(out: Result<ReadOutcome, nimbus::KernelError>) -> Vec<u8> {
    match out.unwrap() {
        ReadOutcome::Data(d) => d,
        ReadOutcome::Blocked => panic!("file reads never block"),
    }
}

/// One full guest run: file + mmap traffic, the update (or not) in the
/// middle, more traffic, then the observation.
fn observe(update: Update, skip: bool, pages: usize, words: &[u64], split: usize) -> Observed {
    simx86::evclock::set_default_skip(skip);
    let (machine, mercury) = rig();
    let cpu = machine.boot_cpu();
    let sess = Session::new(Arc::clone(mercury.kernel()), 0);
    mercury.switch_to_virtual(cpu).unwrap();

    // Pre-update traffic: journal bytes, then consume some so the fd
    // position sits mid-file across the update.
    let fd = sess.open("journal", true).unwrap();
    let bytes: Vec<u8> = words.iter().map(|w| (*w & 0xff) as u8).collect();
    let split = split.min(bytes.len());
    sess.write(fd, &bytes).unwrap();
    sess.lseek(fd, 0).unwrap();
    let early_read = data(sess.read(fd, split));

    // Guest memory: the first half of the words land before the update.
    let va = sess
        .mmap(pages as u64, Prot::RW, MmapBacking::Anon)
        .unwrap();
    let addr = |i: usize| VirtAddr(va.0 + (i % pages) as u64 * PAGE_SIZE + (i / pages) as u64 * 8);
    let half = words.len() / 2;
    for (i, w) in words[..half].iter().enumerate() {
        sess.poke(addr(i), *w).unwrap();
    }

    // The update point.
    match update {
        Update::None => {}
        Update::At(phase) => {
            let v2 = Hypervisor::warm_up_versioned(&machine, 2);
            mercury.stage_update(Arc::clone(&v2)).unwrap();
            if phase.is_some() {
                mercury.inject_update_abort(phase);
            }
            let rolls_back = matches!(
                phase,
                Some(LiveUpdatePhase::Handshake) | Some(LiveUpdatePhase::Transfer)
            );
            let out = mercury.live_update(cpu);
            if rolls_back {
                assert!(
                    matches!(out, Err(SwitchError::UpdateRolledBack(_))),
                    "{phase:?} must roll back, got {out:?}"
                );
                assert_eq!(mercury.hv_version(), 1, "incumbent keeps running");
                assert!(!v2.is_active(), "rolled-back successor stays down");
                assert_eq!(v2.reserved_frames(), 0, "husk reservation reclaimed");
            } else {
                assert!(
                    matches!(out, Ok(SwitchOutcome::Completed { .. })),
                    "{phase:?} must complete, got {out:?}"
                );
                assert_eq!(mercury.hv_version(), 2, "successor committed");
            }
            assert_eq!(
                mercury.staged_update_version(),
                None,
                "the staged update is consumed either way"
            );
        }
    }

    // Post-update traffic: the rest of the words, a read resuming at
    // the preserved fd position (a leaked position returns the wrong
    // byte run), an append, and the whole-file readbacks.
    for (i, w) in words[half..].iter().enumerate() {
        sess.poke(addr(half + i), *w).unwrap();
    }
    let late_read = data(sess.read(fd, bytes.len()));
    sess.write(fd, &bytes).unwrap();
    let peeks: Vec<u64> = (0..words.len())
        .map(|i| sess.peek(addr(i)).unwrap())
        .collect();
    sess.lseek(fd, 0).unwrap();
    let full_read = data(sess.read(fd, 4 * bytes.len().max(1)));
    let file_size = sess.stat("journal").unwrap().size;

    simx86::evclock::set_default_skip(true);
    Observed {
        peeks,
        early_read,
        late_read,
        full_read,
        file_size,
    }
}

/// For random guest workloads, an update interrupted at every phase
/// — and one that completes — leaves the guest bit-identical to a
/// run that never updated, under both event-clock settings.
#[test]
fn interrupted_update_is_invisible_to_the_guest() {
    check("interrupted_update_is_invisible_to_the_guest", 4, |rng| {
        let pages = rng.range(1, 5) as usize;
        let len = rng.range(2, 24) as usize;
        let words = rng.vec(len, |r| r.next_u64());
        let split = rng.below(24) as usize;
        let baseline = observe(Update::None, true, pages, &words, split);
        assert_eq!(
            &baseline.peeks[..baseline.peeks.len()],
            &words[..],
            "sanity: pokes must read back"
        );
        for skip in [true, false] {
            let runs = [
                Update::None,
                Update::At(None),
                Update::At(Some(LiveUpdatePhase::Handshake)),
                Update::At(Some(LiveUpdatePhase::Transfer)),
                Update::At(Some(LiveUpdatePhase::Commit)),
            ];
            for update in runs {
                let got = observe(update, skip, pages, &words, split);
                assert_eq!(
                    &got, &baseline,
                    "guest state diverged: update {:?}, skip {}",
                    update, skip
                );
            }
        }
    });
}
