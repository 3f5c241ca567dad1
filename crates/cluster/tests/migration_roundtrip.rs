//! Property test over the live-migration round trip (DESIGN.md §15).
//!
//! The fleet layer leans on one invariant: a guest that is evacuated to
//! a host, *keeps serving there*, and later returns home is
//! indistinguishable from one that never moved.  This test drives that
//! invariant with randomized workloads instead of the hand-picked ones
//! in `maintenance.rs`:
//!
//! * random anonymous-memory writes before the evacuation and more
//!   **while running as a guest** (the concurrent dirty traffic that
//!   the pre-copy rounds must chase);
//! * random file appends, only some of them synced — the unsynced tail
//!   lives in the buffer cache and must travel with the image, the
//!   synced part must be on the platter *before* the storage copy (the
//!   lost-write ordering bug this PR fixed);
//! * an open file descriptor with a non-zero seek position held across
//!   both migrations — fd table and position are part of the frozen
//!   image;
//! * a small faultgen ECC campaign against the host mid-residence,
//!   recovered through the watchdog (bit flipped back in place), which
//!   must be invisible to the compared state (no-op when the `enabled`
//!   feature is off — the workspace build turns it on).
//!
//! Every case checks the final state against a pure-Rust model of the
//! workload.

use faultgen::rng::{check, SplitMix64};
use mercury_cluster::{evacuate, return_home, Cluster, NodeConfig, Watchdog, WatchdogPolicy};
use nimbus::kernel::{MmapBacking, ReadOutcome};
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::{PhysAddr, VirtAddr};
use std::collections::HashMap;
use std::sync::Arc;

/// One randomized workload: word writes into a 4-page anonymous
/// mapping and file appends with a sync split.
#[derive(Debug, Clone)]
struct Case {
    pre_writes: Vec<(u16, u64)>,
    guest_writes: Vec<(u16, u64)>,
    pre_chunks: Vec<Vec<u8>>,
    synced_chunks: usize,
    guest_chunk: Vec<u8>,
}

fn draw_case(rng: &mut SplitMix64) -> Case {
    fn writes(rng: &mut SplitMix64) -> Vec<(u16, u64)> {
        let len = rng.range(1, 16) as usize;
        rng.vec(len, |r| (r.below(2048) as u16, r.next_u64()))
    }
    fn chunk(rng: &mut SplitMix64) -> Vec<u8> {
        let len = rng.range(1, 24) as usize;
        rng.vec(len, |r| r.next_u64() as u8)
    }
    let pre_writes = writes(rng);
    let guest_writes = writes(rng);
    let chunks = rng.range(1, 4) as usize;
    let pre_chunks = rng.vec(chunks, chunk);
    Case {
        synced_chunks: (rng.below(4) as usize).min(pre_chunks.len()),
        pre_writes,
        guest_writes,
        pre_chunks,
        guest_chunk: chunk(rng),
    }
}

/// Word slot `i` of the mapping at `base`.
fn slot(base: VirtAddr, i: u16) -> VirtAddr {
    VirtAddr(base.0 + i as u64 * 8)
}

fn run_case(case: &Case) {
    faultgen::reset();

    // Small nodes keep a property case affordable: the same sizing the
    // fleet bench boots a hundred of.
    let cluster = Cluster::launch(2, &NodeConfig::small());
    let home = cluster.node(0);
    let host = cluster.node(1);

    // The model the machine must match at the end.
    let mut memory_model: HashMap<u16, u64> = HashMap::new();
    let mut file_model: Vec<u8> = Vec::new();

    // -- pre-evacuation workload on the home node ---------------------
    let sess = home.session();
    let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
    for &(i, v) in &case.pre_writes {
        sess.poke(slot(va, i), v).unwrap();
        memory_model.insert(i, v);
    }
    let fd = sess.open("prop.txt", true).unwrap();
    for (k, chunk) in case.pre_chunks.iter().enumerate() {
        sess.write(fd, chunk).unwrap();
        file_model.extend_from_slice(chunk);
        if k < case.synced_chunks {
            sess.sync().unwrap();
        }
    }
    // Held-open fd with a mid-file position; it must still work on the
    // other side of both migrations.
    let keep_fd = sess.open("prop.txt", false).unwrap();
    let keep_pos = (file_model.len() / 2) as u64;
    sess.lseek(keep_fd, keep_pos).unwrap();

    // -- evacuate -----------------------------------------------------
    let guest = evacuate(home, host).unwrap();
    assert!(guest.report.total_frames > 0);

    // -- serve as a guest: concurrent dirty traffic -------------------
    let gsess = Session::new(Arc::clone(&guest.kernel), 0);
    host.hv().set_current(0, Some(guest.dom.id));
    for &(i, v) in &case.guest_writes {
        gsess.poke(slot(va, i), v).unwrap();
        memory_model.insert(i, v);
    }
    // The held fd reads from its pre-migration position.
    let expect: Vec<u8> = file_model[keep_pos as usize..].to_vec();
    if !expect.is_empty() {
        match gsess.read(keep_fd, expect.len()).unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, expect, "held fd lost its position"),
            other => panic!("held fd unusable after evacuation: {other:?}"),
        }
    }
    // Append through the split block device and sync, so the bytes sit
    // early-acked in the backend ring — the flush-before-copy path.
    let gfd = gsess.open("prop.txt", false).unwrap();
    gsess.lseek(gfd, file_model.len() as u64).unwrap();
    gsess.write(gfd, &case.guest_chunk).unwrap();
    gsess.sync().unwrap();
    file_model.extend_from_slice(&case.guest_chunk);

    // An ECC storm on the host mid-residence: planted flips, tripped by
    // sweep reads, flipped back by the watchdog.  State-neutral by
    // construction — which is exactly what the final comparison checks.
    let mut dog = Watchdog::new(host.mercury(), WatchdogPolicy::default());
    let cpu = host.machine.boot_cpu();
    for k in 0..2u64 {
        faultgen::arm(vec![faultgen::FaultSpec {
            id: 9_000 + k,
            due_cycle: 0,
            target: faultgen::FaultTarget::MemWord {
                frame: 3_000 + k as u32,
                word: 17,
                bit: (k % 64) as u8,
            },
        }]);
        let pa = PhysAddr(((3_000 + k) << 12) + 17 * 8);
        host.machine.mem.read_word(cpu, pa).expect("sweep read");
        dog.poll(cpu);
    }
    // With the faultgen hooks compiled in, both flips must have been
    // detected and corrected; without them the campaign is a no-op.
    assert!(dog.reports().iter().all(|r| r.recovered));
    faultgen::reset();

    // -- return home --------------------------------------------------
    let report = return_home(guest, host, home).unwrap();
    assert!(report.downtime_cycles > 0);

    // -- the round trip must be invisible -----------------------------
    let sess = home.session();
    for (&i, &v) in &memory_model {
        assert_eq!(sess.peek(slot(va, i)).unwrap(), v, "word {i} diverged");
    }
    // A never-written slot stays zero (no stray dirty frame landed).
    if let Some(hole) = (0u16..2048).find(|i| !memory_model.contains_key(i)) {
        assert_eq!(sess.peek(slot(va, hole)).unwrap(), 0);
    }
    assert_eq!(
        sess.stat("prop.txt").unwrap().size as usize,
        file_model.len()
    );
    let check_fd = sess.open("prop.txt", false).unwrap();
    match sess.read(check_fd, file_model.len()).unwrap() {
        ReadOutcome::Data(d) => assert_eq!(d, file_model, "file content diverged"),
        other => panic!("{other:?}"),
    }
    // The held fd consumed the pre-migration tail while a guest, so it
    // now sits exactly where the guest's append began: the next byte it
    // yields on the home node is the first guest-written one.
    match sess.read(keep_fd, 1).unwrap() {
        ReadOutcome::Data(d) => {
            assert_eq!(d, vec![case.guest_chunk[0]], "held fd position diverged")
        }
        other => panic!("held fd unusable after return: {other:?}"),
    }

    // Both nodes back to native, nothing foreign left behind.
    assert_eq!(home.mercury().mode(), mercury::ExecMode::Native);
    assert_eq!(host.mercury().mode(), mercury::ExecMode::Native);
    assert_eq!(host.hv().domains().len(), 1);
}

#[test]
fn roundtrip_preserves_guest_state() {
    check("roundtrip_preserves_guest_state", 6, |rng| {
        run_case(&draw_case(rng));
    });
}
