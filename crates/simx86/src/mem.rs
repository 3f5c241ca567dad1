//! Simulated physical memory: an array of 4 KiB frames.
//!
//! Frames hold real data (`[u64; 512]` each).  Page tables, I/O rings,
//! user page contents, checkpoint images — everything the hypervisor and
//! kernel manipulate "in memory" — live in these frames, so ownership and
//! accounting bugs corrupt real state and are caught by the MMU and the
//! hypervisor's validators, just as on hardware.
//!
//! Each frame has its own mutex, so SMP guests and the
//! hypervisor can touch disjoint frames concurrently without a global
//! lock (see *Rust Atomics and Locks* on lock granularity).
//!
//! # The unit of access
//!
//! A single word ([`PhysMemory::read_word`], [`PhysMemory::read_pte`],
//! their `write_` twins) costs one frame lock and one
//! [`costs::MEM_WORD`] tick; that is the access of the MMU walker and
//! of anything that touches one entry.  Code that walks a whole page
//! table — or a run of entries in one — takes the *frame* as its unit
//! instead: [`PhysMemory::read_table`] locks the frame once, copies its
//! 4 KiB out and releases the lock, and the [`TableView`] it returns
//! charges `MEM_WORD` per entry *consumed*, coalesced into one tick;
//! [`PhysMemory::write_ptes`] stores a run of entries under one lock
//! and one tick.  The simulated cost is the per-word cost to the cycle,
//! early exits included; only the host pays less.
//!
//! Two rules keep that exact and deadlock-free (DESIGN.md §14a):
//!
//! * the view is a **snapshot** — a store that lands in the frame after
//!   `read_table` returned (another CPU's walker setting an accessed
//!   bit, the walking CPU's own `write_pte`) is not seen through it;
//! * **no frame lock is held** once a call into this module returns,
//!   so no caller can hold one while it takes another frame or any
//!   lock of a layer above.

use crate::costs;
use crate::cpu::Cpu;
use crate::fault::Fault;
use crate::paging::{Pte, PAGE_SIZE, WORDS_PER_PAGE};
use crate::sync::Mutex;

/// Physical frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FrameNum(pub u32);

impl FrameNum {
    /// Physical address of the first byte of the frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr((self.0 as u64) << 12)
    }
}

/// A physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl std::fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PA({:#010x})", self.0)
    }
}

impl PhysAddr {
    /// The frame containing this address.
    #[inline]
    pub fn frame(self) -> FrameNum {
        FrameNum((self.0 >> 12) as u32)
    }

    /// Byte offset within the frame.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Word index within the frame (address must be 8-byte aligned for
    /// word accesses).
    #[inline]
    pub fn word_index(self) -> usize {
        (self.offset() / 8) as usize
    }
}

type FrameData = Box<[u64; WORDS_PER_PAGE]>;

fn new_frame_data() -> FrameData {
    // `vec![0; N].into_boxed_slice().try_into()` avoids a large stack
    // temporary (the Rust Performance Book's advice on big arrays).
    vec![0u64; WORDS_PER_PAGE]
        .into_boxed_slice()
        .try_into()
        .expect("exact size")
}

struct Frame {
    data: Mutex<FrameData>,
}

/// The machine's physical memory.
pub struct PhysMemory {
    frames: Box<[Frame]>,
}

impl PhysMemory {
    /// Install `num_frames` frames of zeroed memory.
    pub fn new(num_frames: usize) -> Self {
        let frames = (0..num_frames)
            .map(|_| Frame {
                data: Mutex::new(new_frame_data()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        PhysMemory { frames }
    }

    /// Number of installed frames.
    #[inline]
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Total bytes of installed memory.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.frames.len() as u64 * PAGE_SIZE
    }

    #[inline]
    fn frame_ref(&self, frame: FrameNum) -> Result<&Frame, Fault> {
        self.frames
            .get(frame.0 as usize)
            .ok_or(Fault::BadPhysAddr { pa: frame.base().0 })
    }

    /// Read one 8-byte word.  Charges [`costs::MEM_WORD`] to `cpu`.
    pub fn read_word(&self, cpu: &Cpu, pa: PhysAddr) -> Result<u64, Fault> {
        cpu.tick(costs::MEM_WORD);
        let f = self.frame_ref(pa.frame())?;
        let mut guard = f.data.lock();
        // volint::allow(SWITCH-PANIC): word_index() masks to the frame size; frame_ref already bounds-checked the frame
        let mut value = guard[pa.word_index()];
        // Fault injection (compiled out by default): a due mem-bit-flip
        // fault on this word XORs its mask in and the corrupted value is
        // stored back, so the flip persists until a watchdog scrubs it.
        let flip = faultgen::mem_read_site!(cpu.id, cpu.cycles(), pa.frame().0, pa.word_index());
        if flip != 0 {
            value ^= flip;
            // volint::allow(SWITCH-PANIC): same guard as the read above — index already validated
            guard[pa.word_index()] = value;
        }
        Ok(value)
    }

    /// Write one 8-byte word.  Charges [`costs::MEM_WORD`] to `cpu`.
    pub fn write_word(&self, cpu: &Cpu, pa: PhysAddr, value: u64) -> Result<(), Fault> {
        cpu.tick(costs::MEM_WORD);
        let f = self.frame_ref(pa.frame())?;
        // volint::allow(SWITCH-PANIC): word_index() masks to the frame size; frame_ref already bounds-checked the frame
        f.data.lock()[pa.word_index()] = value;
        Ok(())
    }

    /// Read the `index`-th PTE of the table living in `table`.
    pub fn read_pte(&self, cpu: &Cpu, table: FrameNum, index: usize) -> Result<Pte, Fault> {
        debug_assert!(index < WORDS_PER_PAGE);
        Ok(Pte(self.read_word(
            cpu,
            PhysAddr(table.base().0 + (index as u64) * 8),
        )?))
    }

    /// Write the `index`-th PTE of the table living in `table`.
    ///
    /// This is the *raw hardware store*: privilege / ownership policy is
    /// enforced by the layers above (kernel paravirt layer, hypervisor
    /// validators), not here.
    #[doc(alias = "volint-privileged")]
    pub fn write_pte(
        &self,
        cpu: &Cpu,
        table: FrameNum,
        index: usize,
        pte: Pte,
    ) -> Result<(), Fault> {
        debug_assert!(index < WORDS_PER_PAGE);
        self.write_word(cpu, PhysAddr(table.base().0 + (index as u64) * 8), pte.0)
    }

    /// Read the whole table living in `table`: one frame lock, 4 KiB
    /// copied out, no lock held afterwards.  Nothing is charged here —
    /// the view charges per entry consumed — except on a frame that
    /// does not exist, which costs the `MEM_WORD` the walk's first
    /// [`read_pte`](Self::read_pte) would have spent before faulting.
    pub fn read_table<'a>(&'a self, cpu: &'a Cpu, table: FrameNum) -> Result<TableView<'a>, Fault> {
        let frame = self
            .frame_ref(table)
            .inspect_err(|_| cpu.tick(costs::MEM_WORD))?;
        let words = **frame.data.lock();
        Ok(TableView {
            mem: self,
            cpu,
            table,
            words,
            owed: 0,
        })
    }

    /// Store a run of entries of the table living in `table`: one frame
    /// lock and one tick of `MEM_WORD` per entry, where a loop over
    /// [`write_pte`](Self::write_pte) takes a lock and a tick each.  On
    /// a frame that does not exist nothing is stored and the first
    /// store's `MEM_WORD` is charged, as that loop would.
    ///
    /// The raw hardware store, like `write_pte`: policy lives above.
    #[doc(alias = "volint-privileged")]
    pub fn write_ptes(
        &self,
        cpu: &Cpu,
        table: FrameNum,
        entries: &[(usize, Pte)],
    ) -> Result<(), Fault> {
        if entries.is_empty() {
            return Ok(());
        }
        let frame = self
            .frame_ref(table)
            .inspect_err(|_| cpu.tick(costs::MEM_WORD))?;
        cpu.tick(costs::MEM_WORD * entries.len() as u64);
        let mut guard = frame.data.lock();
        // volint::bound(512) — one run ≤ ENTRIES_PER_TABLE entries of one table
        for &(index, pte) in entries {
            // index < WORDS_PER_PAGE is the caller's contract, as for write_pte
            guard[index] = pte.0;
        }
        Ok(())
    }

    /// Copy a whole frame.  Charges [`costs::FRAME_COPY`].
    pub fn copy_frame(&self, cpu: &Cpu, src: FrameNum, dst: FrameNum) -> Result<(), Fault> {
        cpu.tick(costs::FRAME_COPY);
        if src == dst {
            return Ok(());
        }
        let s = self.frame_ref(src)?;
        let d = self.frame_ref(dst)?;
        // Lock ordering by frame number prevents deadlock between
        // concurrent crossed copies.
        if src.0 < dst.0 {
            let sg = s.data.lock();
            let mut dg = d.data.lock();
            dg.copy_from_slice(&sg[..]);
        } else {
            let mut dg = d.data.lock();
            let sg = s.data.lock();
            dg.copy_from_slice(&sg[..]);
        }
        Ok(())
    }

    /// Zero-fill a frame.  Charges [`costs::FRAME_ZERO`].
    pub fn zero_frame(&self, cpu: &Cpu, frame: FrameNum) -> Result<(), Fault> {
        cpu.tick(costs::FRAME_ZERO);
        let f = self.frame_ref(frame)?;
        f.data.lock().fill(0);
        Ok(())
    }

    /// Bulk byte read (device DMA, packet assembly).  Cost is charged by
    /// the device model, not here.  One frame lock per frame spanned;
    /// a buffer that runs off the end of memory is filled up to the
    /// last frame that exists, then faults.
    pub fn read_bytes(&self, pa: PhysAddr, out: &mut [u8]) -> Result<(), Fault> {
        for (frame, first, range) in frame_spans(pa, out.len()) {
            let guard = self.frame_ref(frame)?.data.lock();
            for (byte, at) in out[range].iter_mut().zip(first..) {
                *byte = (guard[at / 8] >> ((at % 8) * 8)) as u8;
            }
        }
        Ok(())
    }

    /// Bulk byte write (device DMA).  Cost is charged by the device
    /// model.  One frame lock per frame spanned; a buffer that runs off
    /// the end of memory is written up to the last frame that exists,
    /// then faults.
    pub fn write_bytes(&self, pa: PhysAddr, data: &[u8]) -> Result<(), Fault> {
        for (frame, first, range) in frame_spans(pa, data.len()) {
            let mut guard = self.frame_ref(frame)?.data.lock();
            for (&byte, at) in data[range].iter().zip(first..) {
                let shift = (at % 8) * 8;
                guard[at / 8] = (guard[at / 8] & !(0xffu64 << shift)) | ((byte as u64) << shift);
            }
        }
        Ok(())
    }

    /// Export a frame's raw contents (checkpointing, live migration).
    pub fn export_frame(&self, frame: FrameNum) -> Result<Vec<u64>, Fault> {
        let f = self.frame_ref(frame)?;
        Ok(f.data.lock().to_vec())
    }

    /// Import raw contents into a frame (restore, migration receive).
    pub fn import_frame(&self, frame: FrameNum, words: &[u64]) -> Result<(), Fault> {
        assert_eq!(words.len(), WORDS_PER_PAGE, "frame image has wrong size");
        let f = self.frame_ref(frame)?;
        f.data.lock().copy_from_slice(words);
        Ok(())
    }

    /// Compare two frames for equality (used by migration tests).
    pub fn frames_equal(&self, a: FrameNum, b: FrameNum) -> Result<bool, Fault> {
        if a == b {
            return Ok(true);
        }
        let fa = self.frame_ref(a)?;
        let fb = self.frame_ref(b)?;
        let (ga, gb);
        if a.0 < b.0 {
            ga = fa.data.lock();
            gb = fb.data.lock();
        } else {
            gb = fb.data.lock();
            ga = fa.data.lock();
        }
        Ok(ga[..] == gb[..])
    }
}

/// Cut the `len` bytes at `pa` at frame boundaries: for each frame
/// touched, the frame, the offset of the first byte within it, and the
/// range of the caller's buffer that lands there.
fn frame_spans(
    pa: PhysAddr,
    len: usize,
) -> impl Iterator<Item = (FrameNum, usize, std::ops::Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = PhysAddr(pa.0 + done as u64);
        let first = at.offset() as usize;
        let n = (len - done).min(PAGE_SIZE as usize - first);
        done += n;
        Some((at.frame(), first, done - n..done))
    })
}

/// One page table, read once ([`PhysMemory::read_table`]).
///
/// [`pte`](Self::pte) hands out entries of the snapshot and owes the
/// CPU one [`costs::MEM_WORD`] each; the debt reaches the cycle counter
/// in one tick — at [`settle`](Self::settle), or when the view drops,
/// so an early `?` out of a walk has paid for exactly the entries it
/// consumed.  Anything that can *observe* `cpu.cycles()` between two
/// entries (a nested validation, a `merctrace` probe) must see the
/// counter the per-word walk would have shown it: call `settle` first.
pub struct TableView<'a> {
    mem: &'a PhysMemory,
    cpu: &'a Cpu,
    table: FrameNum,
    words: [u64; WORDS_PER_PAGE],
    /// Entries consumed whose `MEM_WORD` has not been ticked yet.
    owed: u64,
}

impl TableView<'_> {
    /// The `index`-th entry, as [`PhysMemory::read_pte`] would have
    /// read it when the view was taken.
    #[inline]
    pub fn pte(&mut self, index: usize) -> Pte {
        self.owed += 1;
        if faultgen::ENABLED {
            // The injection hook reads the clock: this entry's charge
            // must already be on it (compiled out by default).
            self.settle();
        }
        // A due mem-bit-flip on this word fires here exactly as in
        // `read_word`, and persists in memory as it does there.
        let flip = faultgen::mem_read_site!(self.cpu.id, self.cpu.cycles(), self.table.0, index);
        if flip != 0 {
            // volint::allow(SWITCH-PANIC): same index as the read below
            self.words[index] ^= flip;
            // volint::allow(SWITCH-PANIC): the view was read from this frame; same index as the read below
            self.mem.frames[self.table.0 as usize].data.lock()[index] ^= flip;
        }
        // volint::allow(SWITCH-PANIC): index < ENTRIES_PER_TABLE is the caller's contract, as for read_pte
        Pte(self.words[index])
    }

    /// Tick the CPU for every entry consumed so far.
    #[inline]
    pub fn settle(&mut self) {
        if self.owed != 0 {
            self.cpu.tick(self.owed * costs::MEM_WORD);
            self.owed = 0;
        }
    }
}

impl Drop for TableView<'_> {
    fn drop(&mut self) {
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;

    fn test_cpu() -> Cpu {
        Cpu::new(0)
    }

    #[test]
    fn word_read_write() {
        let mem = PhysMemory::new(4);
        let cpu = test_cpu();
        let pa = PhysAddr(0x2008);
        mem.write_word(&cpu, pa, 0xdead_beef).unwrap();
        assert_eq!(mem.read_word(&cpu, pa).unwrap(), 0xdead_beef);
        // Neighbouring word untouched.
        assert_eq!(mem.read_word(&cpu, PhysAddr(0x2000)).unwrap(), 0);
    }

    #[test]
    fn out_of_range_faults() {
        let mem = PhysMemory::new(2);
        let cpu = test_cpu();
        let err = mem.read_word(&cpu, PhysAddr(3 * PAGE_SIZE)).unwrap_err();
        assert!(matches!(err, Fault::BadPhysAddr { .. }));
    }

    #[test]
    fn pte_accessors_hit_right_slot() {
        let mem = PhysMemory::new(2);
        let cpu = test_cpu();
        let t = FrameNum(1);
        let pte = Pte::new(7, Pte::WRITABLE | Pte::USER);
        mem.write_pte(&cpu, t, 3, pte).unwrap();
        assert_eq!(mem.read_pte(&cpu, t, 3).unwrap(), pte);
        assert_eq!(
            mem.read_word(&cpu, PhysAddr(t.base().0 + 24)).unwrap(),
            pte.0
        );
    }

    #[test]
    fn copy_and_zero_frames() {
        let mem = PhysMemory::new(3);
        let cpu = test_cpu();
        mem.write_word(&cpu, PhysAddr(0), 42).unwrap();
        mem.copy_frame(&cpu, FrameNum(0), FrameNum(2)).unwrap();
        assert_eq!(mem.read_word(&cpu, FrameNum(2).base()).unwrap(), 42);
        assert!(mem.frames_equal(FrameNum(0), FrameNum(2)).unwrap());
        mem.zero_frame(&cpu, FrameNum(2)).unwrap();
        assert_eq!(mem.read_word(&cpu, FrameNum(2).base()).unwrap(), 0);
        assert!(!mem.frames_equal(FrameNum(0), FrameNum(2)).unwrap());
    }

    #[test]
    fn byte_access_roundtrip_across_words() {
        let mem = PhysMemory::new(1);
        let data: Vec<u8> = (0..32).collect();
        mem.write_bytes(PhysAddr(5), &data).unwrap();
        let mut out = vec![0u8; 32];
        mem.read_bytes(PhysAddr(5), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn byte_access_crosses_a_frame_boundary() {
        let mem = PhysMemory::new(3);
        let cpu = test_cpu();
        // 3 bytes short of frame 1 to 5 bytes into frame 2 and beyond.
        let pa = PhysAddr(2 * PAGE_SIZE - 3);
        let data: Vec<u8> = (1..=20).collect();
        mem.write_bytes(pa, &data).unwrap();
        let mut out = vec![0u8; 20];
        mem.read_bytes(pa, &mut out).unwrap();
        assert_eq!(out, data);
        // Byte for byte where the words say they are: the last word of
        // frame 1 holds bytes 1..=3 in its top lanes, frame 2 starts
        // with byte 4.
        let last = mem.read_word(&cpu, PhysAddr(2 * PAGE_SIZE - 8)).unwrap();
        assert_eq!(last.to_le_bytes(), [0, 0, 0, 0, 0, 1, 2, 3]);
        let first = mem.read_word(&cpu, FrameNum(2).base()).unwrap();
        assert_eq!(first.to_le_bytes(), [4, 5, 6, 7, 8, 9, 10, 11]);
        // Frame 0 was never touched.
        assert_eq!(mem.export_frame(FrameNum(0)).unwrap(), vec![0; 512]);
    }

    #[test]
    fn byte_access_off_the_end_faults_after_the_part_that_fits() {
        let mem = PhysMemory::new(2);
        let pa = PhysAddr(2 * PAGE_SIZE - 4);
        let err = mem.write_bytes(pa, &[0xaa; 10]).unwrap_err();
        assert_eq!(err, Fault::BadPhysAddr { pa: 2 * PAGE_SIZE });
        // The four bytes that fit were written before the fault …
        let mut tail = [0u8; 4];
        mem.read_bytes(pa, &mut tail).unwrap();
        assert_eq!(tail, [0xaa; 4]);
        // … and a read off the end fills what exists, then faults.
        let mut out = [0u8; 10];
        let err = mem.read_bytes(pa, &mut out).unwrap_err();
        assert_eq!(err, Fault::BadPhysAddr { pa: 2 * PAGE_SIZE });
        assert_eq!(out, [0xaa, 0xaa, 0xaa, 0xaa, 0, 0, 0, 0, 0, 0]);
        // Nothing at all when the first byte is already outside.
        assert!(mem.write_bytes(PhysAddr(2 * PAGE_SIZE), &[1]).is_err());
        assert!(mem.write_bytes(PhysAddr(2 * PAGE_SIZE), &[]).is_ok());
    }

    /// A table with every third entry present, for the view tests.
    fn sparse_table(mem: &PhysMemory, cpu: &Cpu, table: FrameNum) {
        for index in (0..WORDS_PER_PAGE).step_by(3) {
            mem.write_pte(cpu, table, index, Pte::new(index as u32 + 7, Pte::USER))
                .unwrap();
        }
    }

    #[test]
    fn table_view_reads_and_charges_like_the_per_entry_walk() {
        let mem = PhysMemory::new(4);
        let cpu = test_cpu();
        let t = FrameNum(2);
        sparse_table(&mem, &cpu, t);
        // Stop after `consumed` entries, as an early `?` would.
        for consumed in [0, 1, 200, WORDS_PER_PAGE] {
            let c0 = cpu.cycles();
            let per_entry: Vec<Pte> = (0..consumed)
                .map(|i| mem.read_pte(&cpu, t, i).unwrap())
                .collect();
            let per_entry_cost = cpu.cycles() - c0;

            let c0 = cpu.cycles();
            let mut view = mem.read_table(&cpu, t).unwrap();
            let through_view: Vec<Pte> = (0..consumed).map(|i| view.pte(i)).collect();
            drop(view);
            assert_eq!(through_view, per_entry);
            assert_eq!(cpu.cycles() - c0, per_entry_cost, "{consumed} entries");
        }
    }

    #[test]
    fn table_view_settles_on_demand_and_is_a_snapshot() {
        let mem = PhysMemory::new(4);
        let cpu = test_cpu();
        let t = FrameNum(1);
        sparse_table(&mem, &cpu, t);
        let c0 = cpu.cycles();
        let mut view = mem.read_table(&cpu, t).unwrap();
        assert_eq!(cpu.cycles(), c0, "taking the view is free");
        view.pte(0);
        view.pte(1);
        view.settle();
        assert_eq!(cpu.cycles() - c0, 2 * costs::MEM_WORD);
        view.settle();
        assert_eq!(cpu.cycles() - c0, 2 * costs::MEM_WORD, "nothing owed twice");
        // No frame lock is held: the frame can be written under the
        // live view, and the view keeps what it read.
        let c1 = cpu.cycles();
        mem.write_pte(&cpu, t, 3, Pte::ABSENT).unwrap();
        assert_eq!(view.pte(3), Pte::new(10, Pte::USER));
        drop(view);
        assert_eq!(cpu.cycles() - c1, 2 * costs::MEM_WORD);
        assert_eq!(mem.read_pte(&cpu, t, 3).unwrap(), Pte::ABSENT);
    }

    #[test]
    fn table_access_to_a_missing_frame_costs_the_first_word() {
        let mem = PhysMemory::new(2);
        let cpu = test_cpu();
        let c0 = cpu.cycles();
        let per_entry = mem.read_pte(&cpu, FrameNum(9), 0).unwrap_err();
        let c1 = cpu.cycles();
        let view = mem.read_table(&cpu, FrameNum(9)).err().unwrap();
        let c2 = cpu.cycles();
        let run = mem
            .write_ptes(&cpu, FrameNum(9), &[(0, Pte::ABSENT), (1, Pte::ABSENT)])
            .unwrap_err();
        assert_eq!((&view, &run), (&per_entry, &per_entry));
        assert_eq!(c1 - c0, costs::MEM_WORD);
        assert_eq!(c2 - c1, costs::MEM_WORD);
        assert_eq!(cpu.cycles() - c2, costs::MEM_WORD);
    }

    #[test]
    fn write_ptes_stores_and_charges_like_a_write_pte_loop() {
        let mem = PhysMemory::new(4);
        let cpu = test_cpu();
        // A repeated index: the later store wins, as in the loop.
        let run = [
            (5, Pte::new(9, Pte::WRITABLE)),
            (511, Pte::new(3, 0)),
            (5, Pte::new(8, Pte::USER)),
        ];
        let c0 = cpu.cycles();
        for &(index, pte) in &run {
            mem.write_pte(&cpu, FrameNum(1), index, pte).unwrap();
        }
        let loop_cost = cpu.cycles() - c0;
        let c0 = cpu.cycles();
        mem.write_ptes(&cpu, FrameNum(2), &run).unwrap();
        assert_eq!(cpu.cycles() - c0, loop_cost);
        assert!(mem.frames_equal(FrameNum(1), FrameNum(2)).unwrap());
        let c0 = cpu.cycles();
        mem.write_ptes(&cpu, FrameNum(2), &[]).unwrap();
        assert_eq!(cpu.cycles(), c0, "an empty run is free");
    }

    #[test]
    fn export_import_roundtrip() {
        let mem = PhysMemory::new(2);
        let cpu = test_cpu();
        mem.write_word(&cpu, PhysAddr(8), 99).unwrap();
        let image = mem.export_frame(FrameNum(0)).unwrap();
        mem.import_frame(FrameNum(1), &image).unwrap();
        assert!(mem.frames_equal(FrameNum(0), FrameNum(1)).unwrap());
    }

    #[test]
    fn accesses_charge_cycles() {
        let mem = PhysMemory::new(1);
        let cpu = test_cpu();
        let before = cpu.cycles();
        mem.read_word(&cpu, PhysAddr(0)).unwrap();
        assert_eq!(cpu.cycles() - before, costs::MEM_WORD);
    }
}
