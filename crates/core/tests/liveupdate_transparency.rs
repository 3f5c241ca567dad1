//! Transition transparency property test (DESIGN.md §7, §16).
//!
//! The claim is that a transition — attach, detach or hypervisor
//! live-update — is invisible to the guest no matter where it stops:
//! aborted before any row of its table, the rows already run are
//! undone and the system stays in the mode (and on the VMM) it was in;
//! run un-injected right afterwards, the same transition completes —
//! and in *both* cases guest memory, file contents, and fd positions
//! are bit-identical to a run that never attempted a transition at
//! all.  The rows are read from the tables the driver itself walks
//! ([`Mercury::phases`]), so a new row is covered the day it is added.

use faultgen::rng::check;
use mercury::{
    AssistMode, Mercury, NodeConfig, Stack, SwitchError, SwitchOutcome, TrackingStrategy,
    Transition,
};
use nimbus::kernel::{MmapBacking, ReadOutcome};
use nimbus::mm::Prot;
use nimbus::paravirt::ExecMode;
use nimbus::Session;
use simx86::paging::{VirtAddr, PAGE_SIZE};
use simx86::Machine;
use std::sync::Arc;
use xenon::Hypervisor;

/// What the run does mid-workload: nothing (the baseline), or the
/// transition — first aborted before the row of the given index, if
/// any, then un-injected.
type Step = Option<(Transition, Option<usize>)>;

/// The system configurations whose tables the test walks.
const CONFIGS: [(TrackingStrategy, AssistMode); 3] = [
    (TrackingStrategy::DirtyRecompute, AssistMode::Software),
    (TrackingStrategy::RecomputeOnSwitch, AssistMode::Software),
    (
        TrackingStrategy::RecomputeOnSwitch,
        AssistMode::HardwareAssisted,
    ),
];

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

fn rig(strategy: TrackingStrategy, assist: AssistMode) -> (Arc<Machine>, Arc<Mercury>) {
    let stack = Stack::build(&NodeConfig::default(), strategy, assist);
    (stack.machine, stack.mercury)
}

fn data(out: Result<ReadOutcome, nimbus::KernelError>) -> Vec<u8> {
    match out.unwrap() {
        ReadOutcome::Data(d) => d,
        ReadOutcome::Blocked => panic!("file reads never block"),
    }
}

/// Ask for `t` the way a caller would (an update stages its successor
/// first); returns the successor too.
fn fire(
    t: Transition,
    machine: &Arc<Machine>,
    mercury: &Mercury,
) -> (Result<SwitchOutcome, SwitchError>, Option<Arc<Hypervisor>>) {
    let cpu = machine.boot_cpu();
    match t {
        Transition::Attach => (mercury.switch_to_virtual(cpu), None),
        Transition::Detach => (mercury.switch_to_native(cpu), None),
        Transition::Update => {
            let v2 = Hypervisor::warm_up_versioned(machine, 2);
            mercury.stage_update(Arc::clone(&v2)).unwrap();
            (mercury.live_update(cpu), Some(v2))
        }
    }
}

/// One full guest run: file + mmap traffic, the transition (or not) in
/// the middle, more traffic, then the observation.
fn observe(
    (strategy, assist): (TrackingStrategy, AssistMode),
    step: Step,
    pages: usize,
    words: &[u64],
    split: usize,
) -> Observed {
    let (machine, mercury) = rig(strategy, assist);
    let cpu = machine.boot_cpu();
    let sess = Session::new(Arc::clone(mercury.kernel()), 0);
    // An attach starts from native mode; everything else from virtual.
    if !matches!(step, Some((Transition::Attach, _))) {
        mercury.switch_to_virtual(cpu).unwrap();
    }

    // Pre-transition traffic: journal bytes, then consume some so the
    // fd position sits mid-file across the transition.
    let fd = sess.open("journal", true).unwrap();
    let bytes: Vec<u8> = words.iter().map(|w| (*w & 0xff) as u8).collect();
    let split = split.min(bytes.len());
    sess.write(fd, &bytes).unwrap();
    sess.lseek(fd, 0).unwrap();
    let early_read = data(sess.read(fd, split));

    // Guest memory: the first half of the words land before it.
    let va = sess
        .mmap(pages as u64, Prot::RW, MmapBacking::Anon)
        .unwrap();
    let addr = |i: usize| VirtAddr(va.0 + (i % pages) as u64 * PAGE_SIZE + (i / pages) as u64 * 8);
    let half = words.len() / 2;
    for (i, w) in words[..half].iter().enumerate() {
        sess.poke(addr(i), *w).unwrap();
    }

    // The transition point.
    if let Some((t, abort)) = step {
        let (mode, version) = (mercury.mode(), mercury.hv_version());
        if let Some(row) = abort.map(|i| mercury.phases(t)[i].name) {
            mercury.inject_abort(Some(row));
            let (out, successor) = fire(t, &machine, &mercury);
            match successor {
                Some(v2) => {
                    assert!(
                        matches!(out, Err(SwitchError::UpdateRolledBack(_))),
                        "{row} must roll back, got {out:?}"
                    );
                    assert!(!v2.is_active(), "rolled-back successor stays down");
                    assert_eq!(v2.reserved_frames(), 0, "husk reservation reclaimed");
                    assert_eq!(
                        mercury.staged_update_version(),
                        None,
                        "staged update consumed"
                    );
                }
                None => assert!(
                    matches!(out, Err(SwitchError::Transfer(_))),
                    "{row} must abort, got {out:?}"
                ),
            }
            assert_eq!(mercury.mode(), mode, "{row}: mode unchanged");
            assert_eq!(
                mercury.hv_version(),
                version,
                "{row}: incumbent keeps running"
            );
            for (i, w) in words[..half].iter().enumerate() {
                assert_eq!(
                    sess.peek(addr(i)).unwrap(),
                    *w,
                    "{row}: memory after the abort"
                );
            }
        }
        // Un-injected, the same transition completes.
        let (out, _) = fire(t, &machine, &mercury);
        assert!(
            matches!(out, Ok(SwitchOutcome::Completed { .. })),
            "{t:?} must complete, got {out:?}"
        );
        match t {
            Transition::Attach => assert_eq!(mercury.mode(), ExecMode::Virtual),
            Transition::Detach => assert_eq!(mercury.mode(), ExecMode::Native),
            Transition::Update => assert_eq!(mercury.hv_version(), 2, "successor committed"),
        }
    }

    // Post-transition traffic: the rest of the words, a read resuming at
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

    Observed {
        peeks,
        early_read,
        late_read,
        full_read,
        file_size,
    }
}

/// For random guest workloads, every transition aborted before every
/// row of its table — and then completed — leaves the guest
/// bit-identical to a run that never attempted it, under every table.
#[test]
fn interrupted_transition_is_invisible_to_the_guest() {
    check(
        "interrupted_transition_is_invisible_to_the_guest",
        4,
        |rng| {
            let pages = rng.range(1, 5) as usize;
            let len = rng.range(2, 24) as usize;
            let words = rng.vec(len, |r| r.next_u64());
            let split = rng.below(24) as usize;
            let baseline = observe(CONFIGS[0], None, pages, &words, split);
            assert_eq!(
                &baseline.peeks[..],
                &words[..],
                "sanity: pokes must read back"
            );
            for config in CONFIGS {
                let (_, probe) = rig(config.0, config.1);
                for t in [Transition::Attach, Transition::Detach, Transition::Update] {
                    if t == Transition::Update && config.1 != AssistMode::Software {
                        continue; // refused: live-update is a software-path transition
                    }
                    // `None` first: the transition completes cleanly.
                    let rows = (0..probe.phases(t).len()).map(Some);
                    for abort in std::iter::once(None).chain(rows) {
                        let got = observe(config, Some((t, abort)), pages, &words, split);
                        assert_eq!(
                            &got, &baseline,
                            "guest state diverged: {config:?} {t:?} abort {abort:?}"
                        );
                    }
                }
            }
        },
    );
}
