//! With the injection hooks compiled in (`--features fault`): a planted
//! `MemWord` flip reached through [`PhysMemory::read_word`] fires on the
//! first read at or after its due cycle, hands back the flipped word,
//! and stays in memory — one atomic XOR, where a frame lock used to
//! cover the read, the flip and the store back.  The table-view twin is
//! `planted_flip_fires_identically_through_the_table_view` in the
//! umbrella crate's `tests/faultgen_overhead.rs`.
//!
//! Alone in its file: the armed plan is process-wide, and a test binary
//! of its own is a process of its own.
#![cfg(feature = "fault")]

use faultgen::{FaultSpec, FaultTarget};
use simx86::{costs, Cpu, FrameNum, PhysAddr, PhysMemory};

#[test]
fn planted_flip_fires_through_read_word_and_persists() {
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
