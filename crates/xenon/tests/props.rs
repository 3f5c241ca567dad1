//! Property-based tests for the hypervisor's core structures: the
//! shared-memory ring against a FIFO model, and the page_info
//! validation machinery against randomly generated page-table trees.

use faultgen::rng::{check, SplitMix64};
use simx86::mem::{FrameNum, PhysMemory};
use simx86::paging::Pte;
use simx86::Cpu;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use xenon::page_info::{PageInfoTable, PageType};
use xenon::ring::{Ring, SlotPayload, RING_SLOTS};
use xenon::{DomId, Rounds};

/// map[l2_slot] = (l1_slot → writable) leaves of a small valid tree.
fn tree_shape(rng: &mut SplitMix64) -> BTreeMap<usize, BTreeMap<usize, bool>> {
    let mut shape = BTreeMap::new();
    for _ in 0..rng.below(4) {
        let mut leaves = BTreeMap::new();
        for _ in 0..rng.below(8) {
            leaves.insert(rng.below(16) as usize, rng.below(2) == 1);
        }
        shape.insert(rng.below(8) as usize, leaves);
    }
    shape
}

/// The ring is a lossless FIFO under arbitrary push/pop
/// interleavings of a full request/response cycle.
#[test]
fn ring_is_a_lossless_fifo() {
    check("ring_is_a_lossless_fifo", 256, |rng| {
        let mem = PhysMemory::new(2);
        let cpu = Arc::new(Cpu::new(0));
        let ring = Ring::attach(FrameNum(1));
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next_id = 0u64;
        for _ in 0..rng.range(1, 300) {
            if rng.below(2) == 1 {
                let payload: SlotPayload = [next_id, 0, 0, 0, 0, 0, 0, 0];
                match ring.push_request(&cpu, &mem, &payload) {
                    Ok(()) => {
                        model.push_back(next_id);
                        next_id += 1;
                    }
                    Err(_) => assert!(model.len() as u64 >= RING_SLOTS),
                }
            } else {
                // Full cycle: backend pops + responds, frontend reaps.
                match ring.pop_request(&cpu, &mem).unwrap() {
                    Some(got) => {
                        let expect = model.pop_front().unwrap();
                        assert_eq!(got[0], expect);
                        ring.push_response(&cpu, &mem, &got).unwrap();
                        let rsp = ring.pop_response(&cpu, &mem).unwrap().unwrap();
                        assert_eq!(rsp[0], expect);
                    }
                    None => assert!(model.is_empty()),
                }
            }
        }
    });
}

/// For a randomly shaped (valid) two-level tree, incremental
/// pin-validation and Mercury-style recompute produce identical
/// accounting, and unpin returns the table to all-untyped.
#[test]
fn recompute_equals_incremental_validation() {
    check("recompute_equals_incremental_validation", 256, |rng| {
        let shape = tree_shape(rng);
        let frames = 64usize;
        let mem = PhysMemory::new(frames);
        let cpu = Arc::new(Cpu::new(0));
        let table = PageInfoTable::new(frames);
        let dom = DomId(0);
        for f in 0..frames {
            table.set_owner(FrameNum(f as u32), Some(dom));
        }
        // Build: pgd at frame 1; L1s at 8+l2; data pages at 24 + slot.
        let pgd = FrameNum(1);
        for (l2, leaves) in &shape {
            let l1 = FrameNum(8 + *l2 as u32);
            mem.write_pte(&cpu, pgd, *l2, Pte::new(l1.0, Pte::WRITABLE | Pte::USER))
                .unwrap();
            for (slot, writable) in leaves {
                let data = FrameNum(24 + *slot as u32);
                let flags = if *writable {
                    Pte::WRITABLE | Pte::USER
                } else {
                    Pte::USER
                };
                mem.write_pte(&cpu, l1, *slot, Pte::new(data.0, flags))
                    .unwrap();
            }
        }

        // Incremental path.
        table.pin_l2(&cpu, &mem, pgd, dom).unwrap();
        let incremental = table.snapshot();
        assert_eq!(table.type_of(pgd), (PageType::L2, 1));

        // Recompute path.
        table.clear_types_for(dom);
        table
            .recompute_for(&cpu, &mem, dom, frames, &[pgd])
            .unwrap();
        assert_eq!(incremental, table.snapshot());

        // Unpin restores the pristine state.
        table.unpin_l2(&cpu, &mem, pgd, dom).unwrap();
        for f in 0..frames {
            assert_eq!(table.type_of(FrameNum(f as u32)), (PageType::None, 0));
        }
    });
}

/// Memory's stamps have any number of readers, and no reader can take
/// an observation from another: under random interleavings of stores,
/// two readers' whole rounds and a third reader's one-frame sweeps,
/// each sees exactly the frames stored to since *its own* last round
/// (model: one set per reader), a sweep retires exactly the frame it
/// hands over, and memory's words never move.  Some frames are not
/// followed: stored to, never reported.
#[test]
fn rounds_over_one_memory_are_independent() {
    check("rounds_over_one_memory_are_independent", 256, |rng| {
        let frames = rng.range(1, 201) as u32;
        let mem = PhysMemory::new(frames as usize);
        let cpu = Cpu::new(0);
        let unfollowed = |f: u32| f % 13 == 5;
        let followed: Vec<FrameNum> = (0..frames)
            .filter(|&f| !unfollowed(f))
            .map(FrameNum)
            .collect();
        let words = |mem: &PhysMemory| {
            (0..frames)
                .map(|f| mem.export_frame(FrameNum(f)).unwrap())
                .collect::<Vec<_>>()
        };

        let mut readers: [(Rounds, BTreeSet<u32>); 2] =
            [(); 2].map(|()| (Rounds::default(), BTreeSet::new()));
        for (rounds, _) in &mut readers {
            rounds.rebase(&mem, Vec::new());
        }
        let mut sweep = Rounds::default();
        sweep.rebase(&mem, Vec::new());
        let mut unswept: BTreeSet<u32> = BTreeSet::new();
        let as_set = |v: Vec<FrameNum>| v.into_iter().map(|f| f.0).collect::<BTreeSet<u32>>();
        for _ in 0..rng.below(160) {
            match rng.below(8) {
                // Reader A or B closes a round: it sees its own set, and
                // starts the next one empty.
                op @ (0 | 1) => {
                    let (rounds, seen) = &mut readers[op as usize];
                    let mut got = BTreeSet::new();
                    let before = words(&mem);
                    let ok = rounds.round(&mem, &followed, |f| {
                        assert!(got.insert(f.0), "{f:?} twice in a round");
                        Ok::<_, ()>(())
                    });
                    assert_eq!(ok, Ok(seen.len()));
                    assert_eq!(&got, seen);
                    assert_eq!(words(&mem), before, "a round stored nothing");
                    seen.clear();
                }
                2 | 3 => {
                    let mut popped = None;
                    sweep.sweep(&mem, &followed, 1, |f| popped = Some(f));
                    match popped {
                        Some(f) => assert!(unswept.remove(&f.0), "swept {f:?} twice"),
                        None => assert!(unswept.is_empty(), "{unswept:?} left behind"),
                    }
                }
                // A store, re-storing the word it finds half the time.
                _ => {
                    let f = rng.below(frames as u64) as u32;
                    let at = FrameNum(f).base();
                    let word = mem.read_word(&cpu, at).unwrap();
                    let word = if rng.below(2) == 0 {
                        word
                    } else {
                        rng.next_u64()
                    };
                    mem.write_word(&cpu, at, word).unwrap();
                    if !unfollowed(f) {
                        unswept.insert(f);
                        for (_, seen) in &mut readers {
                            seen.insert(f);
                        }
                    }
                }
            }
            assert_eq!(as_set(sweep.pending(&mem, &followed)), unswept);
            for (rounds, seen) in &readers {
                assert_eq!(&as_set(rounds.pending(&mem, &followed)), seen);
            }
        }
    });
}

/// The eager clear a generation bump replaces: every record `dom` owns
/// loses its type state, one at a time.
fn eager_clear(table: &PageInfoTable, dom: DomId) {
    for f in table.frames_owned(dom) {
        table.corrupt_record(f);
    }
}

/// `clear_types_for` is one bump of the domain's generation; the oracle
/// is a twin table whose clears are eager passes over the domain's
/// records.  Two domains own frames interleaved in short runs.  Under
/// random pins, unpins, leaf validations and releases by both, clears,
/// recomputes, untyped frames moving between the domains and to no
/// owner, `corrupt_record`s and destroy-style clear-then-disown, the two
/// tables give the same verdicts, cycles, `snapshot()`, `get()` and
/// `type_of()` after every step: a record cleared under one owner does
/// not come back when its frame moves away and back.  While a domain's
/// pins and leaves account for all its type state, a recompute from its
/// pinned tables restores what a clear wiped; at the end, a clear of
/// both domains leaves nothing typed.
#[test]
fn generation_clear_equals_an_eager_pass_across_ownership_moves() {
    check(
        "generation_clear_equals_an_eager_pass_across_ownership_moves",
        128,
        |rng| {
            let frames = rng.range(64, 200) as usize;
            let run = rng.range(1, 5) as usize;
            let doms = [DomId(1), DomId(2)];
            let mem = PhysMemory::new(frames);
            let cpu = Arc::new(Cpu::new(0));
            let table = PageInfoTable::new(frames);
            let eager = PageInfoTable::new(frames);
            let mut owned: [Vec<FrameNum>; 2] = Default::default();
            for f in 0..frames {
                let d = f / run % 2;
                table.set_owner(FrameNum(f as u32), Some(doms[d]));
                eager.set_owner(FrameNum(f as u32), Some(doms[d]));
                owned[d].push(FrameNum(f as u32));
            }
            // Per domain: three base tables, six leaf tables, data after
            // them; now and then an entry names a table frame or a frame of
            // the other domain, so some validations fail.
            let pick = |rng: &mut SplitMix64, frames: &[FrameNum]| {
                frames[rng.below(frames.len() as u64) as usize]
            };
            for d in 0..2 {
                let (pgds, rest) = owned[d].split_at(3);
                let (l1s, data) = rest.split_at(6);
                for &l1 in l1s {
                    for _ in 0..rng.below(10) {
                        let target = match rng.below(16) {
                            0 => pick(rng, l1s),
                            1 => pick(rng, &owned[1 - d]),
                            _ => pick(rng, data),
                        };
                        let flags = [Pte::USER, Pte::WRITABLE | Pte::USER][rng.below(2) as usize];
                        let slot = rng.below(512) as usize;
                        mem.write_pte(&cpu, l1, slot, Pte::new(target.0, flags))
                            .unwrap();
                    }
                }
                for &pgd in pgds {
                    for _ in 0..rng.below(6) {
                        let l1 = if rng.below(12) == 0 {
                            pick(rng, data)
                        } else {
                            pick(rng, l1s)
                        };
                        let pde = Pte::new(l1.0, Pte::WRITABLE | Pte::USER);
                        mem.write_pte(&cpu, pgd, rng.below(512) as usize, pde)
                            .unwrap();
                    }
                }
            }

            let eager_cpu = Arc::new(Cpu::new(1));
            let setup = cpu.cycles();
            // What each domain's structures hold references through.  A
            // clear, a failed recompute or a corrupted record forgets them:
            // their references are gone or no longer theirs to drop.  While
            // `exact`, they account for all of the domain's type state.
            let mut pinned: [Vec<FrameNum>; 2] = Default::default();
            let mut leaves: [Vec<FrameNum>; 2] = Default::default();
            let mut exact = [true; 2];
            let owner_of = |f: FrameNum| doms.iter().position(|&dom| table.owner(f) == Some(dom));
            for step in 0..64 {
                let d = rng.below(2) as usize;
                let dom = doms[d];
                let what = match rng.below(11) {
                    0 | 1 => {
                        let pgd = owned[d][rng.below(3) as usize];
                        if pinned[d].contains(&pgd) {
                            continue;
                        }
                        let got = table.pin_l2(&cpu, &mem, pgd, dom);
                        assert_eq!(got, eager.pin_l2(&eager_cpu, &mem, pgd, dom), "step {step}");
                        if got.is_ok() {
                            pinned[d].push(pgd);
                        }
                        "pin"
                    }
                    2 if !pinned[d].is_empty() => {
                        let at = rng.below(pinned[d].len() as u64) as usize;
                        let pgd = pinned[d].swap_remove(at);
                        let got = table.unpin_l2(&cpu, &mem, pgd, dom);
                        assert_eq!(
                            got,
                            eager.unpin_l2(&eager_cpu, &mem, pgd, dom),
                            "step {step}"
                        );
                        got.unwrap();
                        "unpin"
                    }
                    3 => {
                        let f = pick(rng, &owned[d][3..]);
                        if table.type_of(f).1 != 0 {
                            continue;
                        }
                        let got = table.validate_l1(&cpu, &mem, f, dom, 0);
                        assert_eq!(
                            got,
                            eager.validate_l1(&eager_cpu, &mem, f, dom, 0),
                            "step {step}"
                        );
                        if got.is_ok() {
                            leaves[d].push(f);
                        }
                        "validate a leaf"
                    }
                    4 => {
                        // One not held by a directory too: the others'
                        // entries are not this caller's to drop yet.
                        let alone = |f: &FrameNum| table.type_of(*f) == (PageType::L1, 1);
                        let Some(at) = leaves[d].iter().position(alone) else {
                            continue;
                        };
                        let f = leaves[d].swap_remove(at);
                        table.invalidate_l1(&cpu, &mem, f).unwrap();
                        eager.invalidate_l1(&eager_cpu, &mem, f).unwrap();
                        "release a leaf"
                    }
                    5 => {
                        table.clear_types_for(dom);
                        eager_clear(&eager, dom);
                        (pinned[d], leaves[d]) = Default::default();
                        exact[d] = true;
                        "clear"
                    }
                    6 if leaves[d].is_empty() => {
                        let before = table.snapshot();
                        let got = table.recompute_for(&cpu, &mem, dom, owned[d].len(), &pinned[d]);
                        eager_clear(&eager, dom);
                        let want =
                            eager.recompute_for(&eager_cpu, &mem, dom, owned[d].len(), &pinned[d]);
                        assert_eq!(got, want, "step {step}");
                        if got.is_err() {
                            // The switch rollback's wholesale teardown.
                            table.clear_types_for(dom);
                            eager_clear(&eager, dom);
                            pinned[d].clear();
                            exact[d] = true;
                        } else if exact[d] {
                            assert_eq!(table.snapshot(), before, "recompute of {dom:?}");
                        }
                        "recompute"
                    }
                    7 | 8 => {
                        // An untyped frame (a cleared one included) moves to
                        // either domain or to none, now and then one the
                        // machine lacks.  A typed one moves to the other
                        // domain with its type state, and its old owner's
                        // structures are forgotten: their references moved.
                        let f = FrameNum(rng.below(frames as u64 + 2) as u32);
                        let rec = table.get(f);
                        let typed =
                            (rec.typ, rec.type_count, rec.pinned) != (PageType::None, 0, false);
                        let to = match owner_of(f) {
                            Some(from) if typed => {
                                (pinned[from], leaves[from]) = Default::default();
                                exact = [false; 2];
                                Some(doms[1 - from])
                            }
                            _ => [Some(doms[0]), Some(doms[1]), None][rng.below(3) as usize],
                        };
                        table.set_owner(f, to);
                        eager.set_owner(f, to);
                        "move"
                    }
                    9 => {
                        let f = FrameNum(rng.below(frames as u64) as u32);
                        if let Some(hit) = owner_of(f) {
                            (pinned[hit], leaves[hit]) = Default::default();
                            exact[hit] = false;
                        }
                        table.corrupt_record(f);
                        eager.corrupt_record(f);
                        "corrupt"
                    }
                    10 => {
                        // `destroy_domain` once its pins are dropped.
                        let gone = table.frames_owned(dom);
                        assert_eq!(gone, eager.frames_owned(dom), "step {step}");
                        table.clear_types_for(dom);
                        eager_clear(&eager, dom);
                        for &f in &gone {
                            table.set_owner(f, None);
                            eager.set_owner(f, None);
                        }
                        (pinned[d], leaves[d]) = Default::default();
                        exact[d] = true;
                        "destroy"
                    }
                    _ => continue,
                };
                assert_eq!(
                    table.snapshot(),
                    eager.snapshot(),
                    "step {step}: {what} by {dom:?}"
                );
                for f in (0..frames as u32 + 2).map(FrameNum) {
                    assert_eq!(table.get(f), eager.get(f), "step {step}: {what}, {f:?}");
                    assert_eq!(
                        table.type_of(f),
                        eager.type_of(f),
                        "step {step}: {what}, {f:?}"
                    );
                }
                assert_eq!(
                    cpu.cycles() - setup,
                    eager_cpu.cycles(),
                    "step {step}: {what}"
                );
            }
            for dom in doms {
                table.clear_types_for(dom);
                eager_clear(&eager, dom);
            }
            assert_eq!(table.snapshot(), eager.snapshot());
            for (f, rec) in table.snapshot().iter().enumerate() {
                assert_eq!(
                    (rec.typ, rec.type_count, rec.pinned),
                    (PageType::None, 0, false),
                    "frame {f}"
                );
            }
        },
    );
}

/// Type references never allow a writable mapping of a typed page
/// table, under any interleaving.
#[test]
fn type_exclusion_invariant() {
    check("type_exclusion_invariant", 256, |rng| {
        let table = PageInfoTable::new(4);
        table.set_owner(FrameNum(1), Some(DomId(0)));
        let mut l1_refs = 0u32;
        let mut w_refs = 0u32;
        for _ in 0..rng.range(1, 64) {
            let (get, kind) = (rng.below(2) == 1, rng.below(3));
            let typ = if kind == 0 {
                PageType::L1
            } else {
                PageType::Writable
            };
            if get {
                match table.get_type_ref(FrameNum(1), typ) {
                    Ok(()) => {
                        if typ == PageType::L1 {
                            l1_refs += 1
                        } else {
                            w_refs += 1
                        }
                    }
                    Err(_) => {
                        // Must only fail on a genuine conflict.
                        if typ == PageType::L1 {
                            assert!(w_refs > 0);
                        } else {
                            assert!(l1_refs > 0);
                        }
                    }
                }
            } else if typ == PageType::L1 && l1_refs > 0 {
                table.put_type_ref(FrameNum(1), PageType::L1);
                l1_refs -= 1;
            } else if typ == PageType::Writable && w_refs > 0 {
                table.put_type_ref(FrameNum(1), PageType::Writable);
                w_refs -= 1;
            }
            assert!(l1_refs == 0 || w_refs == 0, "both type kinds live at once");
        }
    });
}

/// Live migration with arbitrary dirty patterns between rounds
/// delivers memory that is bit-identical to the source at
/// finalization time.
#[test]
fn migration_preserves_memory_under_random_dirtying() {
    check(
        "migration_preserves_memory_under_random_dirtying",
        16,
        |rng| {
            // Sequence of (page index, value) writes, partitioned into
            // inter-round batches.
            let rounds = rng.range(1, 4) as usize;
            let batches = rng.vec(rounds, |r| {
                let writes = r.below(8) as usize;
                r.vec(writes, |r| (r.below(6) as usize, r.next_u64()))
            });
            use simx86::mem::PhysAddr;
            use simx86::{Machine, MachineConfig};
            use xenon::migrate::LiveMigration;
            use xenon::Hypervisor;

            let node = || {
                let m = Machine::new(MachineConfig {
                    num_cpus: 1,
                    mem_frames: 2048,
                    disk_sectors: 64,
                });
                let hv = Hypervisor::warm_up(&m);
                hv.activate();
                (m, hv)
            };
            let (m_src, hv_src) = node();
            let (m_dst, hv_dst) = node();
            let cpu = m_src.boot_cpu();

            // Guest: pgd f[0], L1 f[1], six data pages f[2..8].
            let q = m_src.allocator.alloc_many(cpu, 16).unwrap();
            let dom = hv_src.create_domain(cpu, "g", q, 0).unwrap();
            let f = dom.frames();
            m_src
                .mem
                .write_pte(cpu, f[0], 0, Pte::new(f[1].0, Pte::WRITABLE | Pte::USER))
                .unwrap();
            for i in 0..6 {
                m_src
                    .mem
                    .write_pte(
                        cpu,
                        f[1],
                        i,
                        Pte::new(f[2 + i].0, Pte::WRITABLE | Pte::USER),
                    )
                    .unwrap();
            }
            hv_src.pin_l2(cpu, &dom, f[0]).unwrap();
            *dom.guest_state.lock() = Some(xenon::GuestState::new(1u64));

            let mut mig = LiveMigration::new(Arc::clone(&hv_src), Arc::clone(&dom));
            let mut model = [0u64; 6];
            for batch in &batches {
                mig.round(cpu).unwrap();
                // Guest dirties pages between rounds (hardware-style: the
                // walker sets the PTE dirty bit, then the word is written).
                for (page, value) in batch {
                    let pte = m_src.mem.read_pte(cpu, f[1], *page).unwrap();
                    m_src
                        .mem
                        .write_pte(cpu, f[1], *page, pte.with_flags(Pte::DIRTY))
                        .unwrap();
                    m_src
                        .mem
                        .write_word(cpu, PhysAddr(FrameNum(pte.frame()).base().0), *value)
                        .unwrap();
                    model[*page] = *value;
                }
            }
            let (new_dom, report) = mig.finalize(cpu, &hv_dst).unwrap();

            // Every page on the target matches the final source state.
            let dst_cpu = m_dst.boot_cpu();
            let pgd = new_dom.pgds()[0];
            let pde = m_dst.mem.read_pte(dst_cpu, pgd, 0).unwrap();
            for (i, item) in model.iter().enumerate() {
                let pte = m_dst
                    .mem
                    .read_pte(dst_cpu, FrameNum(pde.frame()), i)
                    .unwrap();
                let word = m_dst
                    .mem
                    .read_word(dst_cpu, FrameNum(pte.frame()).base())
                    .unwrap();
                assert_eq!(word, *item, "page {} diverged", i);
            }
            assert!(report.total_frames >= 16);
            assert!(
                hv_src.domain(dom.id).is_none(),
                "source must release the domain"
            );
        },
    );
}
