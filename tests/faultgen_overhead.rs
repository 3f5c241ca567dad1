//! Regression: with the `faultgen/enabled` feature off (the default,
//! and what tier-1 `cargo test` builds), the fault hooks cost exactly
//! nothing — the macros expand to constants, never evaluate their
//! arguments, and execution is cycle- and state-identical to an
//! uninstrumented build even with a full campaign armed.

use faultgen::{FaultSpec, FaultTarget};
use mercury::SwitchOutcome;
use mercury_workloads::configs::{SysKind, TestBed};
use simx86::PhysAddr;

// Gated on the umbrella `faults` feature, not on `faultgen/enabled`
// directly: CI's second test cell builds `cargo test --workspace
// --features trace,faults`, which is precisely the configuration where
// live hooks are *intended*.
#[cfg(not(feature = "faults"))]
#[test]
// The constancy of the asserted expression is the point: the test
// pins which build configurations resolve `ENABLED` to false.
#[allow(clippy::assertions_on_constants)]
fn fault_hooks_are_compiled_out_in_default_builds() {
    // Feature unification must not leak `faultgen/enabled` into a
    // default build, `cargo test --workspace` included: no manifest's
    // dependency entry turns it on, only the umbrella `faults` feature.
    assert!(
        !faultgen::ENABLED,
        "faultgen/enabled leaked into the default feature set"
    );
}

/// The inverse gate for the feature matrix: asking for `faults` must
/// actually arm the hooks.
#[cfg(feature = "faults")]
#[test]
#[allow(clippy::assertions_on_constants)]
fn faults_feature_turns_hooks_on() {
    assert!(
        faultgen::ENABLED,
        "--features faults did not forward to faultgen/enabled"
    );
}

#[test]
fn disabled_hook_macros_do_not_evaluate_arguments() {
    if faultgen::ENABLED {
        // Someone built the test suite with fault injection on;
        // non-evaluation is only promised for the disabled expansion.
        return;
    }
    let evaluated = std::cell::Cell::new(0u32);
    // Underscored: never called when the hooks are compiled out.
    let _bump = || -> u64 {
        evaluated.set(evaluated.get() + 1);
        0
    };
    let flip =
        faultgen::mem_read_site!(_bump() as usize, _bump(), _bump() as u32, _bump() as usize);
    let disk = faultgen::disk_site!(_bump());
    let irq = faultgen::irq_site!(_bump() as usize, _bump());
    let gate = faultgen::gate_site!(_bump() as usize, _bump(), _bump() as u8);
    let hypercall = faultgen::hypercall_site!(_bump() as usize, _bump());
    // The no-fault constants, compared as values: each disabled hook
    // expands to a constant, so a bare `assert!` on one is a constant
    // assertion.
    assert_eq!(
        (flip, disk, irq, gate, hypercall),
        (0, false, None, false, 0)
    );
    assert_eq!(
        evaluated.get(),
        0,
        "a disabled fault hook evaluated its arguments"
    );
}

#[test]
fn armed_campaign_is_cycle_and_state_identical_when_disabled() {
    if faultgen::ENABLED {
        return;
    }
    // Two identical systems; one has a full fault plan armed.  With the
    // hooks compiled out nothing can fire, so memory contents, switch
    // cycle counts, and end state must be bit-identical — faultgen
    // compiled-in-but-disabled may not perturb the §7.4 numbers.
    fn run(armed: bool) -> (u64, u64, Vec<u64>) {
        let bed = TestBed::build(SysKind::MN, 1);
        let mercury = bed.mercury.as_ref().unwrap();
        let cpu = bed.machine.boot_cpu();
        if armed {
            faultgen::reset();
            faultgen::arm(
                (0..64)
                    .map(|i| FaultSpec {
                        id: i,
                        due_cycle: 0,
                        target: FaultTarget::MemWord {
                            frame: 15_000 + i as u32,
                            word: (i % 512) as u16,
                            bit: (i % 64) as u8,
                        },
                    })
                    .collect(),
            );
        }
        // Sweep the words the plan targets: armed or not, every read
        // must return pristine zeros when the hooks are compiled out.
        let mut words = Vec::new();
        for i in 0..64u64 {
            let pa = PhysAddr(((15_000 + i) << 12) + (i % 512) * 8);
            words.push(bed.machine.mem.read_word(cpu, pa).unwrap());
        }
        let SwitchOutcome::Completed { cycles: attach } = mercury.switch_to_virtual(cpu).unwrap()
        else {
            panic!("attach did not complete")
        };
        let SwitchOutcome::Completed { cycles: detach } = mercury.switch_to_native(cpu).unwrap()
        else {
            panic!("detach did not complete")
        };
        if armed {
            // The armed plan is still fully pending: nothing fired.
            assert_eq!(faultgen::outstanding(), 64);
            assert!(faultgen::drain_signals().is_empty());
            faultgen::reset();
        }
        (attach, detach, words)
    }
    let baseline = run(false);
    let armed = run(true);
    assert_eq!(
        baseline, armed,
        "disabled fault hooks perturbed cycles or memory state"
    );
}

/// A page-table word can be reached a word at a time
/// (`PhysMemory::read_word`) or through a whole-table view
/// (`PhysMemory::read_table`, which coalesces its cycle charges).  A
/// `MemWord` flip planted in such a word must not be able to tell: it
/// fires on the same read, at the same cycle, hands back the same
/// mask, and persists in memory.
#[cfg(feature = "faults")]
#[test]
fn planted_flip_fires_identically_through_the_table_view() {
    use simx86::{costs, Cpu, FrameNum, PhysMemory, Pte};

    const OUTER: FrameNum = FrameNum(1);
    const INNER: FrameNum = FrameNum(2);
    const WORD: usize = 7;
    let plant = |due_cycle| {
        faultgen::reset();
        faultgen::arm(vec![FaultSpec {
            id: 1,
            due_cycle,
            target: FaultTarget::MemWord {
                frame: INNER.0,
                word: WORD as u16,
                bit: 5,
            },
        }]);
    };

    // Three entries into an outer table, an inner table twice over, the
    // rest of the outer one.  The flip is due between the two inner
    // passes' reads of its word, so firing on the right pass — and at
    // the right cycle — needs every earlier charge, the outer table's
    // three included, to be on the clock already.
    let walk = |by_view: bool| {
        let mem = PhysMemory::new(4);
        let cpu = Cpu::new(0);
        let word = |table: FrameNum, i: usize| PhysAddr(table.base().0 + 8 * i as u64);
        mem.write_pte(&cpu, INNER, WORD, Pte::new(3, Pte::USER))
            .unwrap();
        let start = cpu.cycles();
        let one_pass = 512 * costs::MEM_WORD;
        plant(start + 3 * costs::MEM_WORD + one_pass + WORD as u64 * costs::MEM_WORD);
        let mut seen = Vec::new();
        if by_view {
            let mut outer = mem.read_table(&cpu, OUTER).unwrap();
            for i in 0..3 {
                outer.pte(i);
            }
            for _pass in 0..2 {
                let mut inner = mem.read_table(&cpu, INNER).unwrap();
                seen.extend((0..512).map(|i| inner.pte(i).0));
            }
            for i in 3..512 {
                outer.pte(i);
            }
        } else {
            for i in 0..3 {
                mem.read_word(&cpu, word(OUTER, i)).unwrap();
            }
            for _pass in 0..2 {
                seen.extend((0..512).map(|i| mem.read_word(&cpu, word(INNER, i)).unwrap()));
            }
            for i in 3..512 {
                mem.read_word(&cpu, word(OUTER, i)).unwrap();
            }
        }
        let fired: Vec<(u64, FaultTarget)> = faultgen::drain_signals()
            .iter()
            .map(|s| (s.injected_cycle - start, s.target))
            .collect();
        let spent = cpu.cycles() - start;
        // Persisted: a later read sees the flipped word and nothing
        // fires twice.
        let after = mem.read_word(&cpu, word(INNER, WORD)).unwrap();
        assert!(faultgen::drain_signals().is_empty());
        faultgen::reset();
        (seen, fired, spent, after, mem.export_frame(INNER).unwrap())
    };

    let per_word = walk(false);
    let through_view = walk(true);
    assert_eq!(through_view, per_word);
    let (seen, fired, spent, after, _) = per_word;
    let clean = Pte::new(3, Pte::USER).0;
    assert_eq!(
        (seen[WORD], seen[512 + WORD], after),
        (clean, clean ^ 32, clean ^ 32)
    );
    // Once: second pass, eighth word, 3 + 512 + 8 reads in.
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].0, (3 + 512 + 8) * costs::MEM_WORD);
    assert_eq!(spent, 3 * 512 * costs::MEM_WORD);

    // The same through the validator that nests one view in another:
    // base table 1 names leaf table 2 in slot 3; the flip sits in the
    // leaf's word 7 and is due at once.  `validate_l2` at rate 0 reads
    // four directory words, then eight leaf words, then fires.
    let mem = PhysMemory::new(4);
    let cpu = Cpu::new(0);
    let table = xenon::PageInfoTable::new(4);
    for f in 0..4 {
        table.set_owner(FrameNum(f), Some(xenon::DOM0));
    }
    mem.write_pte(&cpu, OUTER, 3, Pte::new(INNER.0, Pte::WRITABLE))
        .unwrap();
    let start = cpu.cycles();
    plant(0);
    table
        .validate_l2(&cpu, &mem, OUTER, xenon::DOM0, 0)
        .unwrap();
    let signals = faultgen::drain_signals();
    faultgen::reset();
    assert_eq!(signals.len(), 1);
    assert_eq!(signals[0].injected_cycle - start, (4 + 8) * costs::MEM_WORD);
    assert_eq!(cpu.cycles() - start, 2 * 512 * costs::MEM_WORD);
    assert_eq!(mem.read_pte(&cpu, INNER, WORD).unwrap().0, 32);
}
