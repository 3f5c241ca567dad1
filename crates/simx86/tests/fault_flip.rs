//! With the injection hooks compiled in (`--features faults`): a planted
//! `MemWord` flip reached through [`PhysMemory::read_word`] fires on the
//! first read at or after its due cycle, hands back the flipped word,
//! and stays in memory — one atomic XOR, where a frame lock used to
//! cover the read, the flip and the store back.  The table-view twin is
//! `planted_flip_fires_identically_through_the_table_view` in the
//! umbrella crate's `tests/faultgen_overhead.rs`.
//!
//! Alone in its file: the armed plan is process-wide, and a test binary
//! of its own is a process of its own; the tests here take turns.
#![cfg(feature = "faults")]

use faultgen::{FaultSpec, FaultTarget};
use simx86::{costs, Cpu, FrameNum, PhysAddr, PhysMemory};
use std::sync::Mutex;

/// Held by a test while it has a plan armed.
static ARMED: Mutex<()> = Mutex::new(());

#[test]
fn planted_flip_fires_through_read_word_and_persists() {
    let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    const FRAME: FrameNum = FrameNum(2);
    const WORD: u64 = 7;
    const CLEAN: u64 = 0x1234_5678_9abc_def0;
    let mem = PhysMemory::new(4);
    let cpu = Cpu::new(0);
    let pa = PhysAddr(FRAME.base().0 + 8 * WORD);
    mem.write_word(&cpu, pa, CLEAN).unwrap();

    // Due after two more reads' worth of cycles: the first two reads
    // come back clean, the third is charged, then flipped.
    let start = cpu.cycles();
    faultgen::reset();
    faultgen::arm(vec![FaultSpec {
        id: 1,
        due_cycle: start + 3 * costs::MEM_WORD,
        target: FaultTarget::MemWord {
            frame: FRAME.0,
            word: WORD as u16,
            bit: 5,
        },
    }]);
    let reads: Vec<u64> = (0..5).map(|_| mem.read_word(&cpu, pa).unwrap()).collect();
    assert_eq!(reads, [CLEAN, CLEAN, CLEAN ^ 32, CLEAN ^ 32, CLEAN ^ 32]);

    let signals = faultgen::drain_signals();
    faultgen::reset();
    assert_eq!(signals.len(), 1, "fired once");
    assert_eq!(signals[0].injected_cycle - start, 3 * costs::MEM_WORD);
    assert_eq!(cpu.cycles() - start, 5 * costs::MEM_WORD);
    // In memory, not just in the value returned — and only that word.
    let mut frame = vec![0; 512];
    frame[WORD as usize] = CLEAN ^ 32;
    assert_eq!(mem.export_frame(FRAME).unwrap(), frame);
    let mut view = mem.read_table(&cpu, FRAME).unwrap();
    assert_eq!(view.pte(WORD as usize).0, CLEAN ^ 32);
}

/// A flip is a store: planted in a line nothing ever wrote, through
/// `read_word` and through a table view alike, it marks the line, so
/// zeroing the frame clears it.
#[test]
fn a_flip_in_a_never_written_line_is_zeroed() {
    const FRAME: FrameNum = FrameNum(1);
    // Different lines, both never written.
    const WORDS: [u16; 2] = [100, 300];
    let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    let mem = PhysMemory::new(4);
    let cpu = Cpu::new(0);
    faultgen::reset();
    faultgen::arm(
        WORDS
            .iter()
            .zip(1..)
            .map(|(&word, id)| FaultSpec {
                id,
                due_cycle: cpu.cycles(),
                target: FaultTarget::MemWord {
                    frame: FRAME.0,
                    word,
                    bit: 3,
                },
            })
            .collect(),
    );
    let pa = PhysAddr(FRAME.base().0 + 8 * u64::from(WORDS[0]));
    assert_eq!(mem.read_word(&cpu, pa).unwrap(), 8);
    let mut view = mem.read_table(&cpu, FRAME).unwrap();
    assert_eq!(view.pte(usize::from(WORDS[1])).0, 8);
    drop(view);
    let signals = faultgen::drain_signals();
    faultgen::reset();
    assert_eq!(signals.len(), 2, "both fired");
    mem.zero_frame(&cpu, FRAME).unwrap();
    assert_eq!(mem.export_frame(FRAME).unwrap(), vec![0; 512]);
}
