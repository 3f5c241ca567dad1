//! Simulated physical memory: an array of 4 KiB frames.
//!
//! Frames hold real data (512 words each).  Page tables, I/O rings,
//! user page contents, checkpoint images — everything the hypervisor and
//! kernel manipulate "in memory" — live in these frames, so ownership and
//! accounting bugs corrupt real state and are caught by the MMU and the
//! hypervisor's validators, just as on hardware.
//!
//! # Memory is word-atomic
//!
//! A frame is 512 `AtomicU64`s and nothing in this module takes a
//! lock: like the hardware it stands for, memory guarantees that an
//! aligned 8-byte load or store is indivisible and promises nothing
//! about a frame as a whole.  SMP guests and the hypervisor touch any
//! frames concurrently; what two CPUs may not do to one table at the
//! same time is the business of the locks above (the `page_info` lock,
//! the kernel's big lock, the switch rendezvous), as it is on a real
//! machine.
//!
//! One ordering rule for the module: every load is `Acquire`, every
//! store `Release`, every read-modify-write `AcqRel`.  These are plain
//! moves on x86-64, and on any host a CPU that writes data and then
//! the index that publishes it (an I/O ring, a flag word) is seen in
//! that order by a CPU that reads the index first.
//!
//! # The unit of access
//!
//! A single word ([`PhysMemory::read_word`], [`PhysMemory::read_pte`],
//! their `write_` twins) costs one atomic access and one
//! [`costs::MEM_WORD`] tick; that is the access of the MMU walker and
//! of anything that touches one entry.  Code that walks a whole page
//! table — or a run of entries in one — takes the *frame* as its unit
//! instead: [`PhysMemory::read_table`] opens a [`TableView`] on the
//! frame, which loads each entry when it is consumed and charges
//! `MEM_WORD` per entry consumed, coalesced into one tick;
//! [`TableView::scan`] is the one loop over a table's present entries;
//! [`PhysMemory::write_ptes`] stores a run of entries under one tick.
//! The simulated cost is the per-word cost to the cycle, early exits
//! included; only the host pays less.  So too for whole frames: a
//! zeroing or a copy is charged for the frame and moves only the lines
//! that can hold data (below).
//!
//! A view loads each entry **once, when it is consumed**, and keeps
//! what it loaded (DESIGN.md §14a): [`TableView::reread`] returns
//! exactly what the walk was handed, and a store that lands in an entry
//! after the walk consumed it (another CPU's walker setting an accessed
//! bit, the walking CPU's own `write_pte`) is not seen through the view.
//! An entry not yet consumed is read when it is.  Whole-frame operations
//! ([`PhysMemory::copy_frame`], [`PhysMemory::zero_frame`], the byte
//! movers) are loops over words with the same guarantee and no more: a
//! frame copied while another CPU writes it ends with every word a
//! value somebody stored, not with one moment's image of the frame.
//!
//! # Every store stamps its frame
//!
//! Memory keeps a machine **write epoch** and, per frame, the epoch of
//! its last store.  Every path that changes a word — [`PhysMemory::write_word`]
//! and [`PhysMemory::write_pte`], [`PhysMemory::write_ptes`], the
//! destination of [`PhysMemory::copy_frame`], [`PhysMemory::zero_frame`],
//! [`PhysMemory::write_bytes`], [`PhysMemory::import_frame`] and a due
//! fault-injection bit flip — stamps the frame *before* it stores its
//! data, and a stamp only grows; no read path stamps.  So "frame F is
//! unchanged since [`checkpoint`](PhysMemory::checkpoint) E"
//! ([`PhysMemory::stored_since`]) is a fact of this file, whoever wrote
//! the frame and through which layer (DESIGN.md §14a): a store ordered
//! after the checkpoint reads as after it, and a reader that loaded any
//! word such a store wrote sees its stamp on its next
//! [`stored_since`](PhysMemory::stored_since), as in a seqlock.  Only
//! a store in flight across the checkpoint itself may read either way.
//! Stamps cost no cycle.
//!
//! # Whole-frame operations move only the lines that can hold data
//!
//! Beside its stamp, in one record, memory keeps per frame a **line
//! mask**, one bit per 64-byte line (`WORDS_PER_LINE` words), with one
//! invariant: *a line whose bit is clear holds only zero words*.  Every
//! path that can leave a nonzero word in a line — the stamping paths
//! above but `zero_frame` — sets the line's bit *after* its data store,
//! with a `fetch_or`; `write_bytes` and `write_ptes` set one mask per
//! frame per call, and a store of zero sets nothing.
//! [`PhysMemory::zero_frame`] takes the mask (a `swap`, made only when
//! the mask is nonzero) and zeroes just the lines it took;
//! [`PhysMemory::copy_frame`] stores the lines either frame's mask
//! names, then ORs the source's lines into the destination's mask.
//! Each still charges its whole frame, and
//! `zero_frame` stamps even when it stores nothing, so no cycle and no
//! stamp can tell.
//!
//! The order keeps the invariant under a racing store.  A bit the
//! zeroer's swap took was set after its store landed, and the swap reads
//! it, so the zeroing of that line comes after that store; a bit set
//! after the swap stays set.  The set is a read-modify-write even when
//! the bit is already set: a store that only loaded the mask could see a
//! bit a racing zeroer is about to take, yet land after that zeroer's
//! zeroing (a CPU's load may pass its own earlier store), and leave a
//! nonzero word in a line the mask reads clear.  A copy raced by a store
//! to its source still ends with every word a value somebody stored.

use crate::costs;
use crate::cpu::Cpu;
use crate::fault::Fault;
use crate::paging::{Pte, PAGE_SIZE, WORDS_PER_PAGE};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// One frame.  Boxed one by one: a single slab for all of memory would
/// be mapped, first-touched and unmapped with every `Machine` built.
type Frame = Box<[AtomicU64; WORDS_PER_PAGE]>;

fn new_frame() -> Frame {
    // Collected on the heap: no 4 KiB stack temporary per frame.
    (0..WORDS_PER_PAGE)
        .map(|_| AtomicU64::new(0))
        .collect::<Box<[AtomicU64]>>()
        .try_into()
        .expect("exact size")
}

/// Words per 64-byte line, the unit of a frame's line mask.
const WORDS_PER_LINE: usize = 8;

/// Lines per frame: one bit each in the frame's line mask.
const LINES_PER_FRAME: usize = WORDS_PER_PAGE / WORDS_PER_LINE;

const _: () = assert!(LINES_PER_FRAME == u64::BITS as usize);

/// The line of the frame's word `index`, as its bit in a line mask.
#[inline]
fn line_bit(index: usize) -> u64 {
    1 << (index / WORDS_PER_LINE % LINES_PER_FRAME)
}

/// The line mask of the nonzero entries among `entries`.
#[inline]
fn nonzero_lines(entries: &[(usize, Pte)]) -> u64 {
    entries
        .iter()
        .filter(|(_, pte)| pte.0 != 0)
        .fold(0, |lines, &(index, _)| lines | line_bit(index))
}

/// The word indices of each line set in `mask`, lowest first: at most
/// [`LINES_PER_FRAME`] ranges of [`WORDS_PER_LINE`].
#[inline]
fn lines_of(mut mask: u64) -> impl Iterator<Item = std::ops::Range<usize>> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let line = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            line * WORDS_PER_LINE..(line + 1) * WORDS_PER_LINE
        })
    })
}

/// A point in the machine's write history ([`PhysMemory::checkpoint`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct WriteEpoch(u64);

/// An optional [`WriteEpoch`] in one atomic word: its writers serialize
/// among themselves, and any thread reads it without a lock.
#[derive(Debug, Default)]
pub struct EpochCell(AtomicU64);

impl EpochCell {
    /// The epoch last stored, if any.
    #[inline]
    pub fn load(&self) -> Option<WriteEpoch> {
        // A checkpoint is never 0: 0 is "none".
        Some(WriteEpoch(self.0.load(Ordering::Acquire))).filter(|epoch| epoch.0 != 0)
    }

    /// Replace the epoch.
    #[inline]
    pub fn store(&self, epoch: Option<WriteEpoch>) {
        self.0
            .store(epoch.map_or(0, |epoch| epoch.0), Ordering::Release);
    }
}

/// What memory keeps per frame beside its words, in one record so that
/// a store's stamp check and mark meet one cache line.
#[derive(Default)]
#[repr(align(16))]
struct FrameMeta {
    /// The write epoch of the frame's last store.
    stamp: AtomicU64,
    /// Bit `l` clear: line `l` holds only zero words.
    lines: AtomicU64,
}

/// The machine's physical memory.
pub struct PhysMemory {
    frames: Box<[Frame]>,
    /// Per frame, its stamp and line mask.
    meta: Box<[FrameMeta]>,
    /// The epoch stores are stamped with.
    epoch: AtomicU64,
}

impl PhysMemory {
    /// Install `num_frames` frames of zeroed memory.
    pub fn new(num_frames: usize) -> Self {
        PhysMemory {
            frames: (0..num_frames).map(|_| new_frame()).collect(),
            meta: (0..num_frames).map(|_| FrameMeta::default()).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Start a new write epoch and return it: a store that begins after
    /// this call returns (ordered after it) is stamped with it or a
    /// later one.  A store in flight across the call may carry the
    /// epoch before it, so a caller that needs every later store seen
    /// checkpoints while no CPU stores.
    pub fn checkpoint(&self) -> WriteEpoch {
        WriteEpoch(self.epoch.fetch_add(1, Ordering::AcqRel) + 1)
    }

    /// Has `frame` been stored to since `epoch`?  A frame the machine
    /// does not have reads as written.
    pub fn stored_since(&self, frame: FrameNum, epoch: WriteEpoch) -> bool {
        self.meta
            .get(frame.0 as usize)
            .is_none_or(|meta| meta.stamp.load(Ordering::Acquire) >= epoch.0)
    }

    /// Was `frame`'s last store after `since` and before `upto`?  The
    /// window of one round, read from one load of the stamp.  A frame
    /// the machine does not have reads as not stored.
    pub fn stored_between(&self, frame: FrameNum, since: WriteEpoch, upto: WriteEpoch) -> bool {
        self.meta
            .get(frame.0 as usize)
            .is_some_and(|meta| (since.0..upto.0).contains(&meta.stamp.load(Ordering::Acquire)))
    }

    /// Stamp `frame` with the current epoch, *before* its data is
    /// stored: the data store is `Release`, so whoever loads a word this
    /// store writes also sees the stamp.  A stamp only grows: a store
    /// that loaded an older epoch cannot hide a newer one.  The frame's
    /// first store in an epoch raises its stamp; every later one only
    /// loads it.
    #[inline]
    fn stamp(&self, frame: FrameNum) {
        let Some(meta) = self.meta.get(frame.0 as usize) else {
            return;
        };
        let epoch = self.epoch.load(Ordering::Acquire);
        if meta.stamp.load(Ordering::Acquire) < epoch {
            meta.stamp.fetch_max(epoch, Ordering::AcqRel);
        }
    }

    /// Mark the lines `lines` of `frame` as able to hold data, *after*
    /// the stores it covers: a zeroer whose swap takes the bit zeroes
    /// the line after those stores, and one whose swap comes first
    /// leaves the bit set.  A read-modify-write even when the bits are
    /// set (module doc).
    #[inline]
    fn mark(&self, frame: FrameNum, lines: u64) {
        if lines == 0 {
            return;
        }
        if let Some(meta) = self.meta.get(frame.0 as usize) {
            meta.lines.fetch_or(lines, Ordering::AcqRel);
        }
    }

    /// `frame`'s line mask as it stands.
    #[inline]
    fn lines(&self, frame: FrameNum) -> u64 {
        self.meta
            .get(frame.0 as usize)
            .map_or(0, |meta| meta.lines.load(Ordering::Acquire))
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
    fn frame_ref(&self, frame: FrameNum) -> Result<&[AtomicU64; WORDS_PER_PAGE], Fault> {
        self.frames
            .get(frame.0 as usize)
            .map(Box::as_ref)
            .ok_or(Fault::BadPhysAddr { pa: frame.base().0 })
    }

    /// The word holding the byte at `pa`.
    #[inline]
    fn word_ref(&self, pa: PhysAddr) -> Result<&AtomicU64, Fault> {
        let words = self.frame_ref(pa.frame())?;
        // volint::allow(SWITCH-PANIC): word_index() masks to the frame size; frame_ref already bounds-checked the frame
        Ok(&words[pa.word_index()])
    }

    /// Read one 8-byte word.  Charges [`costs::MEM_WORD`] to `cpu`.
    pub fn read_word(&self, cpu: &Cpu, pa: PhysAddr) -> Result<u64, Fault> {
        cpu.tick(costs::MEM_WORD);
        let word = self.word_ref(pa)?;
        // Fault injection (compiled out by default): a due mem-bit-flip
        // fault on this word XORs its mask into memory, so the flip
        // persists until a watchdog scrubs it.
        let flip = faultgen::mem_read_site!(cpu.id, cpu.cycles(), pa.frame().0, pa.word_index());
        if flip != 0 {
            self.stamp(pa.frame());
            let flipped = word.fetch_xor(flip, Ordering::AcqRel) ^ flip;
            self.mark(pa.frame(), line_bit(pa.word_index()));
            return Ok(flipped);
        }
        Ok(word.load(Ordering::Acquire))
    }

    /// Write one 8-byte word.  Charges [`costs::MEM_WORD`] to `cpu`.
    pub fn write_word(&self, cpu: &Cpu, pa: PhysAddr, value: u64) -> Result<(), Fault> {
        cpu.tick(costs::MEM_WORD);
        let word = self.word_ref(pa)?;
        self.stamp(pa.frame());
        word.store(value, Ordering::Release);
        if value != 0 {
            self.mark(pa.frame(), line_bit(pa.word_index()));
        }
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
    /// Virtualization-sensitive (paper §5.3).
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

    /// Open the table living in `table` for a walk.  Nothing is read or
    /// charged here — the view loads and charges per entry consumed —
    /// except on a frame that does not exist, which costs the
    /// `MEM_WORD` the walk's first [`read_pte`](Self::read_pte) would
    /// have spent before faulting.
    // Inlined, the view is built in the caller's frame; returned from a
    // call it is built here and copied there.
    #[inline]
    pub fn read_table<'a>(&'a self, cpu: &'a Cpu, table: FrameNum) -> Result<TableView<'a>, Fault> {
        let frame = self
            .frame_ref(table)
            .inspect_err(|_| cpu.tick(costs::MEM_WORD))?;
        Ok(TableView {
            frame,
            mem: self,
            cpu,
            table,
            words: [0; WORDS_PER_PAGE],
            consumed: [0; WORDS_PER_PAGE / 64],
            scanned: 0..0,
            paid: 0,
            owed: 0,
        })
    }

    /// Store a run of entries of the table living in `table` under one
    /// tick of `MEM_WORD` per entry, where a loop over
    /// [`write_pte`](Self::write_pte) ticks once each.  On a frame that
    /// does not exist nothing is stored and the first store's
    /// `MEM_WORD` is charged, as that loop would.
    ///
    /// The raw hardware store, like `write_pte`: policy lives above.
    /// Virtualization-sensitive (paper §5.3).
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
        self.stamp(table);
        let mut lines = 0;
        // A line's width of entries at a time: the stores OR their words
        // and their indices together, and eight whose indices agree
        // above the line's bits share a line, which one test marks.
        // Eight across lines, and the last few, are marked entry by entry.
        let mut blocks = entries.chunks_exact(WORDS_PER_LINE);
        // volint::bound(64) — one run ≤ ENTRIES_PER_TABLE entries of one table
        for block in &mut blocks {
            let (mut words, mut any, mut all) = (0, 0, usize::MAX);
            // volint::bound(8) — WORDS_PER_LINE entries
            for &(index, pte) in block {
                // index < WORDS_PER_PAGE is the caller's contract, as for write_pte
                frame[index].store(pte.0, Ordering::Release);
                (words, any, all) = (words | pte.0, any | index, all & index);
            }
            lines |= match (any ^ all) < WORDS_PER_LINE {
                true if words != 0 => line_bit(all),
                true => 0,
                false => nonzero_lines(block),
            };
        }
        // volint::bound(7) — what is left after the blocks of eight
        for &(index, pte) in blocks.remainder() {
            frame[index].store(pte.0, Ordering::Release);
        }
        lines |= nonzero_lines(blocks.remainder());
        self.mark(table, lines);
        Ok(())
    }

    /// Copy a whole frame, word by word.  Charges [`costs::FRAME_COPY`].
    /// Moves only the lines either frame's mask says can hold data.
    pub fn copy_frame(&self, cpu: &Cpu, src: FrameNum, dst: FrameNum) -> Result<(), Fault> {
        cpu.tick(costs::FRAME_COPY);
        if src == dst {
            return Ok(());
        }
        let (s, d) = (self.frame_ref(src)?, self.frame_ref(dst)?);
        let from = self.lines(src);
        self.stamp(dst);
        for words in lines_of(from | self.lines(dst)) {
            for (to, from) in d[words.clone()].iter().zip(&s[words]) {
                to.store(from.load(Ordering::Acquire), Ordering::Release);
            }
        }
        self.mark(dst, from);
        Ok(())
    }

    /// Zero-fill a frame.  Charges [`costs::FRAME_ZERO`].  Stores only
    /// the lines its mask says can hold data, and takes the mask.
    pub fn zero_frame(&self, cpu: &Cpu, frame: FrameNum) -> Result<(), Fault> {
        cpu.tick(costs::FRAME_ZERO);
        let words = self.frame_ref(frame)?;
        self.stamp(frame);
        let Some(meta) = self.meta.get(frame.0 as usize) else {
            return Ok(());
        };
        if meta.lines.load(Ordering::Acquire) != 0 {
            for line in lines_of(meta.lines.swap(0, Ordering::AcqRel)) {
                for word in &words[line] {
                    word.store(0, Ordering::Release);
                }
            }
        }
        Ok(())
    }

    /// Bulk byte read (device DMA, packet assembly).  Cost is charged by
    /// the device model, not here.  One load per word touched; a buffer
    /// that runs off the end of memory is filled up to the last frame
    /// that exists, then faults.
    pub fn read_bytes(&self, pa: PhysAddr, out: &mut [u8]) -> Result<(), Fault> {
        for (at, lanes, range) in word_spans(pa, out.len()) {
            let word = self.word_ref(at)?.load(Ordering::Acquire);
            out[range].copy_from_slice(&word.to_le_bytes()[lanes]);
        }
        Ok(())
    }

    /// Bulk byte write (device DMA).  Cost is charged by the device
    /// model.  A word covered whole is one store; a word covered in
    /// part (the head or the tail of the buffer) is one atomic
    /// read-modify-write of its lanes, so two CPUs writing different
    /// bytes of one word both land.  A buffer that runs off the end of
    /// memory is written up to the last frame that exists, then faults.
    pub fn write_bytes(&self, pa: PhysAddr, data: &[u8]) -> Result<(), Fault> {
        // Each frame is stamped once, before its first word is stored,
        // and marked once, after its last, with the lines of it that
        // took a nonzero word.
        let (mut frame, mut lines) = (None, 0);
        let stored = word_spans(pa, data.len()).try_for_each(|(at, lanes, range)| {
            let word = self.word_ref(at)?;
            if frame != Some(at.frame()) {
                if let Some(done) = frame {
                    self.mark(done, lines);
                }
                self.stamp(at.frame());
                (frame, lines) = (Some(at.frame()), 0);
            }
            let mut bytes = [0u8; 8];
            bytes[lanes.clone()].copy_from_slice(&data[range]);
            let bits = u64::from_le_bytes(bytes);
            if lanes.len() == 8 {
                word.store(bits, Ordering::Release);
            } else {
                let mask = (u64::MAX >> (64 - 8 * lanes.len())) << (8 * lanes.start);
                word.fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
                    Some((old & !mask) | bits)
                })
                .expect("the update never declines");
            }
            if bits != 0 {
                lines |= line_bit(at.word_index());
            }
            Ok(())
        });
        if let Some(done) = frame {
            self.mark(done, lines);
        }
        stored
    }

    /// Export a frame's raw contents (checkpointing, live migration).
    pub fn export_frame(&self, frame: FrameNum) -> Result<Vec<u64>, Fault> {
        let words = self.frame_ref(frame)?;
        Ok(words.iter().map(|w| w.load(Ordering::Acquire)).collect())
    }

    /// Import raw contents into a frame (restore, migration receive).
    pub fn import_frame(&self, frame: FrameNum, words: &[u64]) -> Result<(), Fault> {
        assert_eq!(words.len(), WORDS_PER_PAGE, "frame image has wrong size");
        let to = self.frame_ref(frame)?;
        self.stamp(frame);
        let mut lines = 0;
        for (index, (to, &from)) in to.iter().zip(words).enumerate() {
            to.store(from, Ordering::Release);
            if from != 0 {
                lines |= line_bit(index);
            }
        }
        self.mark(frame, lines);
        Ok(())
    }

    /// The words of `frame`, each loaded as the iterator reaches it,
    /// uncharged and unhooked: the host's view of memory for a caller
    /// that charges what it stands for itself.  A frame the machine
    /// does not have faults.
    pub fn words(&self, frame: FrameNum) -> Result<impl Iterator<Item = u64> + '_, Fault> {
        Ok(self
            .frame_ref(frame)?
            .iter()
            .map(|word| word.load(Ordering::Acquire)))
    }

    /// Compare two frames for equality (used by migration tests).
    pub fn frames_equal(&self, a: FrameNum, b: FrameNum) -> Result<bool, Fault> {
        if a == b {
            return Ok(true);
        }
        let (fa, fb) = (self.frame_ref(a)?, self.frame_ref(b)?);
        Ok(fa
            .iter()
            .zip(fb)
            .all(|(x, y)| x.load(Ordering::Acquire) == y.load(Ordering::Acquire)))
    }
}

/// Cut the `len` bytes at `pa` at word boundaries: for each word
/// touched, the address of the first byte that lands in it, the byte
/// lanes of the word covered, and the range of the caller's buffer
/// that goes there.
fn word_spans(
    pa: PhysAddr,
    len: usize,
) -> impl Iterator<Item = (PhysAddr, std::ops::Range<usize>, std::ops::Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = PhysAddr(pa.0 + done as u64);
        let lane = (at.0 % 8) as usize;
        let n = (len - done).min(8 - lane);
        done += n;
        Some((at, lane..lane + n, done - n..done))
    })
}

/// One page table, open for a walk ([`PhysMemory::read_table`]).
///
/// Each entry is loaded from memory once, when it is consumed — by
/// [`pte`](Self::pte) or by [`scan`](Self::scan) — and what the walk
/// was handed is kept for [`reread`](Self::reread).  Each consumed
/// entry owes the CPU one [`costs::MEM_WORD`]; the debt reaches the
/// cycle counter in one tick — at [`settle`](Self::settle), or when the
/// view drops, so an early `?` out of a walk has paid for exactly the
/// entries it consumed.  Anything that can *observe* `cpu.cycles()`
/// between two entries (a nested validation, a `merctrace` probe) must
/// see the counter the per-word walk would have shown it: call
/// `settle` first.
pub struct TableView<'a> {
    frame: &'a [AtomicU64; WORDS_PER_PAGE],
    /// Stamps the frame when an injected flip lands.
    mem: &'a PhysMemory,
    cpu: &'a Cpu,
    /// Names the frame to the injection hook, which is compiled out by
    /// default, and to its stamp.
    table: FrameNum,
    /// Each consumed entry as it was handed out; 0, [`Pte::ABSENT`],
    /// for one a scan passed over.
    words: [u64; WORDS_PER_PAGE],
    /// One bit per consumed entry; a scan marks its entries when it ends.
    consumed: [u64; WORDS_PER_PAGE / 64],
    /// The entries the scan in progress has consumed so far, marked in
    /// `consumed` only when it ends.
    scanned: std::ops::Range<usize>,
    /// Those of `scanned` from here on are not yet counted in `owed`.
    paid: usize,
    /// Entries consumed whose `MEM_WORD` has not been ticked yet.
    owed: u64,
}

/// The bits of word `w` of a one-bit-per-entry map that fall in `range`.
#[inline]
fn span_bits(range: &std::ops::Range<usize>, w: usize) -> u64 {
    let (lo, hi) = (
        range.start.clamp(w * 64, w * 64 + 64),
        range.end.clamp(w * 64, w * 64 + 64),
    );
    if hi > lo {
        (u64::MAX >> (64 - (hi - lo))) << (lo - w * 64)
    } else {
        0
    }
}

impl TableView<'_> {
    /// The `index`-th entry, as [`PhysMemory::read_pte`] would read it
    /// now.
    #[inline]
    pub fn pte(&mut self, index: usize) -> Pte {
        self.owed += 1;
        let pte = self.load(self.frame, index);
        if let Some(word) = self.words.get_mut(index) {
            *word = pte.0;
        }
        self.mark(index..index + 1);
        pte
    }

    /// Hand each present entry of `range` to `visit`, in order, with its
    /// index and the view; stop at the first `Err` and return it.  Every
    /// entry passed over, absent ones included, is consumed as by
    /// [`pte`](Self::pte): this is a walker's `let pte = view.pte(i);
    /// if !pte.present() { continue }`, and the one loop over a table's
    /// entries that walkers share.
    ///
    /// A visitor may [`settle`](Self::settle) (before it descends into a
    /// child table or reads the clock) and [`reread`](Self::reread) what
    /// the scan has consumed, yet per entry the loop writes the view only
    /// to keep a present entry and to say how far it has got: the cursor
    /// and the count owed live in locals, `settle` derives the count from
    /// how far the scan got, and the absent entries passed over are
    /// marked only when the scan ends and, in a view's first scan, never
    /// stored.  Each of those, per entry, would be a store or a
    /// read-modify-write through memory, since an atomic load is, to the
    /// optimiser, a write to all of it.
    #[inline]
    pub fn scan<E>(
        &mut self,
        range: std::ops::Range<usize>,
        visit: impl FnMut(&mut Self, usize, Pte) -> Result<(), E>,
    ) -> Result<(), E> {
        // Only a view that has consumed entries before can keep a word
        // for an entry this scan passes over as absent.
        if self.scanned.is_empty() && self.consumed == [0; WORDS_PER_PAGE / 64] {
            self.walk(range, visit, false)
        } else {
            self.rescan(range, visit)
        }
    }

    /// [`scan`](Self::scan) over a view that has consumed entries before
    /// (a walk's first scan never has): it overwrites the kept word of
    /// each entry it passes over as absent, and leaves those beyond the
    /// entry it stops at as they were handed out.  Out of line, so that
    /// the first scan's loop stores nothing for an absent entry.
    #[cold]
    #[inline(never)]
    fn rescan<E>(
        &mut self,
        range: std::ops::Range<usize>,
        visit: impl FnMut(&mut Self, usize, Pte) -> Result<(), E>,
    ) -> Result<(), E> {
        self.walk(range, visit, true)
    }

    /// The loop of [`scan`](Self::scan); `rescan` is a constant at each
    /// call.
    #[inline(always)]
    fn walk<E>(
        &mut self,
        range: std::ops::Range<usize>,
        mut visit: impl FnMut(&mut Self, usize, Pte) -> Result<(), E>,
        rescan: bool,
    ) -> Result<(), E> {
        let (frame, mut at, end) = (self.frame, range.start, range.end);
        // A visitor's own scan of this view leaves ours as it found it.
        self.fold();
        let outer = (
            std::mem::replace(&mut self.scanned, at..at),
            std::mem::replace(&mut self.paid, at),
        );
        let mut result = Ok(());
        // volint::bound(512) — at most ENTRIES_PER_TABLE entries to pass over
        while at < end {
            if faultgen::ENABLED {
                self.scanned.end = at + 1;
            }
            let pte = self.load(frame, at);
            at += 1;
            if pte.present() {
                // volint::allow(SWITCH-PANIC): `load` has indexed the frame, which is as long as `words`
                self.words[at - 1] = pte.0;
                self.scanned.end = at;
                result = visit(self, at - 1, pte);
                if result.is_err() {
                    break;
                }
            } else if rescan {
                // volint::allow(SWITCH-PANIC): `load` has indexed the frame, which is as long as `words`
                self.words[at - 1] = Pte::ABSENT.0;
            }
        }
        self.owed += (at - self.paid) as u64;
        self.mark(range.start..at);
        (self.scanned, self.paid) = outer;
        result
    }

    /// Load the `index`-th entry of `frame`, the view's; the caller
    /// counts its charge and keeps it.  A due mem-bit-flip on this word
    /// fires here exactly as in `read_word`, and persists in memory as
    /// it does there.  (`frame` comes from the caller's register: read
    /// from the view, it would be reloaded after every atomic load.)
    #[inline(always)]
    fn load(&mut self, frame: &[AtomicU64; WORDS_PER_PAGE], index: usize) -> Pte {
        if faultgen::ENABLED {
            // The injection hook reads the clock: this entry's charge
            // must already be on it (compiled out by default).
            self.settle();
        }
        // volint::allow(SWITCH-PANIC): index < ENTRIES_PER_TABLE is the caller's contract, as for read_pte
        let word = &frame[index];
        let flip = faultgen::mem_read_site!(self.cpu.id, self.cpu.cycles(), self.table.0, index);
        if flip != 0 {
            self.mem.stamp(self.table);
            let flipped = Pte(word.fetch_xor(flip, Ordering::AcqRel) ^ flip);
            self.mem.mark(self.table, line_bit(index));
            flipped
        } else {
            Pte(word.load(Ordering::Acquire))
        }
    }

    /// Mark the entries of `range` consumed.
    #[inline]
    fn mark(&mut self, range: std::ops::Range<usize>) {
        // volint::bound(8) — one word per 64 entries of a 512-entry table
        for (w, bits) in self.consumed.iter_mut().enumerate() {
            *bits |= span_bits(&range, w);
        }
    }

    /// Count in `owed` what the scan in progress has consumed since.
    #[inline]
    fn fold(&mut self) {
        self.owed += (self.scanned.end - self.paid) as u64;
        self.paid = self.scanned.end;
    }

    /// The `index`-th entry as the walk was handed it, with no charge,
    /// no load and no injection hook, for a walker unwinding over
    /// entries it has already consumed: exactly what `pte` or a scan's
    /// visitor got, and [`Pte::ABSENT`] for an entry a scan passed over.
    /// `None` for an entry the view has not consumed, and past the end
    /// of the table.
    #[inline]
    pub fn reread(&self, index: usize) -> Option<Pte> {
        let (word, bits) = (self.words.get(index)?, self.consumed.get(index / 64)?);
        let consumed = self.scanned.contains(&index) || (bits >> (index % 64)) & 1 != 0;
        consumed.then_some(Pte(*word))
    }

    /// Tick the CPU for every entry consumed so far.
    #[inline]
    pub fn settle(&mut self) {
        self.fold();
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

    /// The scan hands out the entries, owes the cycles and consumes the
    /// entries of the per-entry loop it stands for — over a whole
    /// table, a sub-range and an empty one, and leaving early through
    /// an `Err`.  Both walks settle at every present entry, so each
    /// visit also sees the clock the loop showed.
    #[test]
    fn scan_walks_and_charges_like_the_per_entry_loop() {
        let mem = PhysMemory::new(4);
        let cpu = test_cpu();
        let t = FrameNum(2);
        sparse_table(&mem, &cpu, t);
        // (range, the present entry whose visit fails)
        for (range, stop) in [
            (0..WORDS_PER_PAGE, None),
            (2..300, None),
            (7..7, None),
            (0..WORDS_PER_PAGE, Some(99)),
            (5..200, Some(6)),
        ] {
            let c0 = cpu.cycles();
            let mut view = mem.read_table(&cpu, t).unwrap();
            let (mut by_loop, mut loop_result) = (Vec::new(), Ok(()));
            for index in range.clone() {
                let pte = view.pte(index);
                if !pte.present() {
                    continue;
                }
                view.settle();
                by_loop.push((index, pte, cpu.cycles() - c0));
                if Some(index) == stop {
                    loop_result = Err(index);
                    break;
                }
            }
            let loop_consumed: Vec<_> = (0..WORDS_PER_PAGE).map(|i| view.reread(i)).collect();
            drop(view);
            let loop_cost = cpu.cycles() - c0;

            let c1 = cpu.cycles();
            let mut view = mem.read_table(&cpu, t).unwrap();
            let mut by_scan = Vec::new();
            let scan_result = view.scan(range.clone(), |view, index, pte| {
                view.settle();
                by_scan.push((index, pte, cpu.cycles() - c1));
                // An unwind from here rereads what the scan has consumed.
                assert!(view.reread(range.start).is_some());
                assert_eq!(view.reread(index), Some(pte));
                assert_eq!(view.reread(index + 1), None);
                if Some(index) == stop {
                    return Err(index);
                }
                Ok(())
            });
            let scan_consumed: Vec<_> = (0..WORDS_PER_PAGE).map(|i| view.reread(i)).collect();
            drop(view);
            assert_eq!(scan_result, loop_result, "{range:?}");
            assert_eq!(by_scan, by_loop, "{range:?}");
            assert_eq!(cpu.cycles() - c1, loop_cost, "{range:?}");
            assert_eq!(scan_consumed, loop_consumed, "{range:?}");
            let end = stop.map_or(range.end, |index| index + 1);
            let consumed = scan_consumed.iter().filter(|pte| pte.is_some()).count();
            assert_eq!(consumed, end - range.start, "{range:?}");
        }
    }

    /// An entry consumed before a store keeps, through `reread`, the
    /// value the walk was handed; an entry not yet consumed is read when
    /// it is consumed, and until then `reread` has nothing for it.
    #[test]
    fn table_view_settles_on_demand_and_keeps_what_it_consumed() {
        let mem = PhysMemory::new(4);
        let cpu = test_cpu();
        let t = FrameNum(1);
        sparse_table(&mem, &cpu, t);
        let c0 = cpu.cycles();
        let mut view = mem.read_table(&cpu, t).unwrap();
        assert_eq!(cpu.cycles(), c0, "opening the view is free");
        assert_eq!(view.pte(0), Pte::new(7, Pte::USER));
        view.pte(1);
        view.settle();
        assert_eq!(cpu.cycles() - c0, 2 * costs::MEM_WORD);
        view.settle();
        assert_eq!(cpu.cycles() - c0, 2 * costs::MEM_WORD, "nothing owed twice");
        // The frame can be written under the live view.
        let c1 = cpu.cycles();
        mem.write_pte(&cpu, t, 0, Pte::ABSENT).unwrap();
        mem.write_pte(&cpu, t, 3, Pte::ABSENT).unwrap();
        assert_eq!(
            view.reread(0),
            Some(Pte::new(7, Pte::USER)),
            "consumed before the store"
        );
        assert_eq!(view.reread(1), Some(Pte::ABSENT));
        // Not a zero word, which an unwind would take for "absent".
        assert_eq!(view.reread(3), None, "never consumed");
        assert_eq!(view.pte(3), Pte::ABSENT, "read when consumed");
        assert_eq!(view.reread(3), Some(Pte::ABSENT));
        assert_eq!(view.reread(WORDS_PER_PAGE), None);
        // A scan consumes again what it passes over.  It keeps only the
        // present entries it hands out: entry 0, absent now, rereads as
        // absent, and so does entry 1, a non-present word with other
        // bits set, which `pte` hands back whole.
        let not_present = Pte(5 << 12);
        mem.write_pte(&cpu, t, 1, not_present).unwrap();
        let mut visited = Vec::new();
        let Ok(()) = view.scan(0..4, |_, index, _| {
            visited.push(index);
            Ok::<_, std::convert::Infallible>(())
        });
        assert_eq!(visited, [] as [usize; 0], "0 and 3 were written absent");
        assert_eq!(view.reread(0), Some(Pte::ABSENT));
        assert_eq!(view.reread(1), Some(Pte::ABSENT));
        assert_eq!(view.pte(1), not_present);
        assert_eq!(view.reread(1), Some(not_present));
        // A scan that stops early leaves what was consumed beyond the
        // stop as the walk was handed it.
        let nine = view.pte(9);
        let stopped = view.scan(4..12, |_, index, _| Err(index));
        assert_eq!(stopped, Err(6));
        assert_eq!(view.reread(9), Some(nine));
        assert_eq!(view.reread(7), None);
        drop(view);
        // Three stores and ten entries: rereads are free.
        assert_eq!(cpu.cycles() - c1, 13 * costs::MEM_WORD);
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

    /// A partial-word store is an atomic read-modify-write of its
    /// lanes: two CPUs hammering adjacent bytes of one word each read
    /// back what they last wrote, every time.  (A load-merge-store would
    /// put the neighbour's stale byte back.)
    #[test]
    fn neighbouring_bytes_of_one_word_never_lose_a_store() {
        let mem = PhysMemory::new(1);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for lane in [3u64, 4] {
                let (mem, start) = (&mem, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..100_000u32 {
                        mem.write_bytes(PhysAddr(16 + lane), &[i as u8]).unwrap();
                        let mut back = [0u8];
                        mem.read_bytes(PhysAddr(16 + lane), &mut back).unwrap();
                        assert_eq!(back[0], i as u8, "lane {lane} lost store {i}");
                    }
                });
            }
        });
        // The rest of the word was never anybody's.
        let word = mem.read_word(&test_cpu(), PhysAddr(16)).unwrap();
        assert_eq!(word.to_le_bytes(), [0, 0, 0, 0x9f, 0x9f, 0, 0, 0]);
    }

    /// Message passing, the module's ordering rule at work: a CPU that
    /// sees the flag a writer stored after its data sees that data.
    #[test]
    fn a_reader_that_sees_the_flag_sees_the_data() {
        const ROUNDS: u64 = 100_000;
        let mem = PhysMemory::new(2);
        let (data, flag) = (PhysAddr(8), FrameNum(1).base());
        std::thread::scope(|s| {
            s.spawn(|| {
                let cpu = Cpu::new(0);
                for round in 1..=ROUNDS {
                    mem.write_word(&cpu, data, round).unwrap();
                    mem.write_word(&cpu, flag, round).unwrap();
                }
            });
            s.spawn(|| {
                let cpu = Cpu::new(1);
                loop {
                    let flagged = mem.read_word(&cpu, flag).unwrap();
                    let seen = mem.read_word(&cpu, data).unwrap();
                    assert!(seen >= flagged, "flag {flagged} published data {seen}");
                    if flagged == ROUNDS {
                        break;
                    }
                }
            });
        });
    }

    /// Memory is word-atomic, not frame-atomic: a frame copied while
    /// another CPU rewrites it is no single moment's image, but every
    /// word of the copy is a value the writer stored in that word.
    #[test]
    fn a_frame_copied_under_a_writer_is_consistent_word_by_word() {
        const PASSES: u64 = 200;
        let mem = PhysMemory::new(2);
        let (src, dst) = (FrameNum(0), FrameNum(1));
        // Pass `p` stores `p` in both halves and the index in between:
        // a torn or misplaced word cannot look like one.
        let stamp = |pass: u64, index: usize| (pass << 48) | ((index as u64) << 24) | pass;
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let cpu = Cpu::new(0);
                for pass in 1..=PASSES {
                    for index in 0..WORDS_PER_PAGE {
                        mem.write_pte(&cpu, src, index, Pte(stamp(pass, index)))
                            .unwrap();
                    }
                }
                done.store(true, Ordering::Release);
            });
            s.spawn(|| {
                let cpu = Cpu::new(1);
                while !done.load(Ordering::Acquire) {
                    mem.copy_frame(&cpu, src, dst).unwrap();
                    for (index, &word) in mem.export_frame(dst).unwrap().iter().enumerate() {
                        let pass = word >> 48;
                        assert!(word == 0 || (pass <= PASSES && word == stamp(pass, index)));
                    }
                }
            });
        });
        // Quiescent, a copy is the frame.
        mem.copy_frame(&test_cpu(), src, dst).unwrap();
        assert!(mem.frames_equal(src, dst).unwrap());
        assert_eq!(mem.export_frame(dst).unwrap()[511], stamp(PASSES, 511));
    }

    /// A copy taken between two `stored_since` checks that both read
    /// clean holds no word stored after the checkpoint, whatever store
    /// raced it on another thread: memory stamps before it stores, so
    /// the second check sees the stamp of any store whose word the copy
    /// loaded.  Each round the writer fills the frame from its last
    /// word down while the reader copies from its first word up, so a
    /// copy's last loads meet the writer's first stores.
    #[test]
    fn a_copy_that_loaded_a_store_sees_its_stamp() {
        const ROUNDS: u64 = 10_000;
        let mem = PhysMemory::new(1);
        let cpu = test_cpu();
        let frame = FrameNum(0);
        let mut kept = 0;
        for round in 1..=ROUNDS {
            mem.zero_frame(&cpu, frame).unwrap();
            let since = mem.checkpoint();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in (0..WORDS_PER_PAGE as u64).rev() {
                        mem.write_bytes(PhysAddr(i * 8), &round.to_le_bytes())
                            .unwrap();
                    }
                });
                loop {
                    let clean = !mem.stored_since(frame, since);
                    let copy: Vec<u64> = mem.words(frame).unwrap().collect();
                    if clean && !mem.stored_since(frame, since) {
                        kept += 1;
                        assert!(
                            copy.iter().all(|&word| word == 0),
                            "round {round}: a clean copy holds a racing store"
                        );
                    }
                    if copy.iter().all(|&word| word == round) {
                        break;
                    }
                }
            });
        }
        assert!(kept > 0, "no copy ever ran ahead of the writer");
    }

    /// Every store path stamps the frame it changes and nothing else;
    /// no read path stamps: a copy stamps its destination, not its
    /// source.
    #[test]
    fn every_store_path_stamps_its_frame_and_no_read_does() {
        let mem = PhysMemory::new(4);
        let cpu = test_cpu();
        let (a, b) = (FrameNum(1), FrameNum(2));
        let written = |since| -> Vec<bool> {
            (0..4)
                .map(|f| mem.stored_since(FrameNum(f), since))
                .collect()
        };
        let image = mem.export_frame(FrameNum(0)).unwrap();
        /// A store path, and which frames it must stamp.
        type Store<'a> = (&'a str, &'a dyn Fn(), [bool; 4]);
        let stores: [Store; 8] = [
            (
                "write_word",
                &|| mem.write_word(&cpu, a.base(), 1).unwrap(),
                [false, true, false, false],
            ),
            (
                "write_pte",
                &|| mem.write_pte(&cpu, b, 3, Pte::new(5, 0)).unwrap(),
                [false, false, true, false],
            ),
            (
                "write_ptes",
                &|| mem.write_ptes(&cpu, a, &[(0, Pte::ABSENT)]).unwrap(),
                [false, true, false, false],
            ),
            (
                "copy_frame",
                &|| mem.copy_frame(&cpu, a, b).unwrap(),
                [false, false, true, false],
            ),
            (
                "zero_frame",
                &|| mem.zero_frame(&cpu, FrameNum(3)).unwrap(),
                [false, false, false, true],
            ),
            // Eight bytes across the boundary of frames 1 and 2.
            (
                "write_bytes",
                &|| {
                    mem.write_bytes(PhysAddr(2 * PAGE_SIZE - 4), &[7; 8])
                        .unwrap()
                },
                [false, true, true, false],
            ),
            (
                "import_frame",
                &|| mem.import_frame(FrameNum(0), &image).unwrap(),
                [true, false, false, false],
            ),
            (
                "an empty run",
                &|| mem.write_ptes(&cpu, a, &[]).unwrap(),
                [false; 4],
            ),
        ];
        for (name, store, stamped) in stores {
            let since = mem.checkpoint();
            assert_eq!(written(since), [false; 4], "{name}: nothing yet");
            store();
            assert_eq!(written(since), stamped, "{name}");
        }
        let since = mem.checkpoint();
        mem.read_word(&cpu, a.base()).unwrap();
        mem.read_pte(&cpu, b, 3).unwrap();
        let mut view = mem.read_table(&cpu, b).unwrap();
        view.pte(3);
        let Ok(()) = view.scan(0..WORDS_PER_PAGE, |_, _, _| {
            Ok::<_, std::convert::Infallible>(())
        });
        drop(view);
        mem.read_bytes(PhysAddr(8), &mut [0; 16]).unwrap();
        mem.export_frame(a).unwrap();
        assert_eq!(mem.words(a).unwrap().count(), WORDS_PER_PAGE);
        mem.frames_equal(a, b).unwrap();
        assert_eq!(written(since), [false; 4], "reads stamp nothing");
        assert!(
            mem.stored_since(FrameNum(9), since),
            "a missing frame reads as written"
        );
    }

    /// Whether every nonzero word of `frame` lies in a line its mask
    /// has set: the mask's invariant.
    fn lines_cover_the_data(mem: &PhysMemory, frame: FrameNum) -> bool {
        let lines = mem.lines(frame);
        mem.words(frame)
            .unwrap()
            .enumerate()
            .all(|(index, word)| word == 0 || lines & line_bit(index) != 0)
    }

    /// Every store path that leaves a nonzero word marks its line, so
    /// the whole-frame operations, which move only marked lines, see
    /// it: a copy onto a destination dirty elsewhere is the source, and
    /// a zeroing leaves nothing.
    #[test]
    fn every_store_path_marks_the_lines_it_fills() {
        /// A store path, and the frames it fills.
        type Store<'a> = (&'a str, &'a dyn Fn(&PhysMemory, &Cpu), &'a [u32]);
        let image: Vec<u64> = (0..WORDS_PER_PAGE as u64)
            .map(|i| if i % 97 == 3 { i << 8 | 1 } else { 0 })
            .collect();
        let stores: [Store; 6] = [
            (
                "write_word",
                &|mem, cpu| mem.write_word(cpu, PhysAddr(PAGE_SIZE + 9 * 8), 5).unwrap(),
                &[1],
            ),
            (
                "write_pte",
                &|mem, cpu| {
                    mem.write_pte(cpu, FrameNum(1), 100, Pte::new(5, 0))
                        .unwrap()
                },
                &[1],
            ),
            (
                "write_ptes",
                &|mem, cpu| {
                    let run = [
                        (17, Pte::new(3, 0)),
                        (18, Pte::ABSENT),
                        (300, Pte::new(4, Pte::USER)),
                    ];
                    mem.write_ptes(cpu, FrameNum(1), &run).unwrap()
                },
                &[1],
            ),
            // Forty bytes across the boundary of frames 1 and 2, in
            // words of frame 1's last line and frame 2's first.
            (
                "write_bytes",
                &|mem, _| {
                    mem.write_bytes(PhysAddr(2 * PAGE_SIZE - 20), &[7; 40])
                        .unwrap()
                },
                &[1, 2],
            ),
            (
                "import_frame",
                &|mem, _| mem.import_frame(FrameNum(1), &image).unwrap(),
                &[1],
            ),
            (
                "copy_frame",
                &|mem, cpu| {
                    mem.import_frame(FrameNum(0), &image).unwrap();
                    mem.copy_frame(cpu, FrameNum(0), FrameNum(1)).unwrap()
                },
                &[1],
            ),
        ];
        let (cpu, dirty) = (test_cpu(), FrameNum(3));
        for (name, store, filled) in stores {
            for &frame in filled {
                let frame = FrameNum(frame);
                let mem = PhysMemory::new(4);
                store(&mem, &cpu);
                assert!(
                    mem.words(frame).unwrap().any(|word| word != 0),
                    "{name}: {frame:?} filled"
                );
                assert!(lines_cover_the_data(&mem, frame), "{name}: {frame:?}");
                // A destination with data in a line the store left alone.
                mem.write_word(&cpu, PhysAddr(dirty.base().0 + 8 * 500), 0xd1d7)
                    .unwrap();
                mem.copy_frame(&cpu, frame, dirty).unwrap();
                assert!(
                    mem.frames_equal(frame, dirty).unwrap(),
                    "{name}: copy of {frame:?}"
                );
                mem.zero_frame(&cpu, frame).unwrap();
                assert_eq!(
                    mem.export_frame(frame).unwrap(),
                    [0; WORDS_PER_PAGE],
                    "{name}: zeroed {frame:?}"
                );
                assert_eq!(mem.lines(frame), 0, "{name}: a zeroing takes the mask");
            }
        }
    }

    /// `write_ptes` builds its mask eight entries at a time: a run whose
    /// entries, zero and nonzero, fall over several lines marks exactly
    /// the lines an entry-by-entry mask would.  Its blocks: eight in one
    /// line with one nonzero entry, eight zeros in one line, eight
    /// across three lines, eight whose first and last share a line and
    /// whose nonzero one does not, and a tail of three that stores zero
    /// over a nonzero entry.
    #[test]
    fn write_ptes_marks_the_lines_of_its_nonzero_entries() {
        let entry = |index: usize, nonzero: bool| match nonzero {
            true => (index, Pte::new(index as u32, Pte::USER)),
            false => (index, Pte::ABSENT),
        };
        let mut run: Vec<(usize, Pte)> = (24..32).map(|i| entry(i, i == 29)).collect();
        run.extend((32..40).map(|i| entry(i, false)));
        run.extend([0, 7, 8, 15, 16, 23, 40, 41].map(|i| entry(i, [15, 16, 41].contains(&i))));
        run.extend([48, 100, 49, 50, 51, 52, 53, 55].map(|i| entry(i, i == 100)));
        run.extend([entry(17, false), entry(511, true), entry(511, false)]);
        let per_entry = run
            .iter()
            .filter(|(_, pte)| pte.0 != 0)
            .fold(0, |lines, &(index, _)| lines | line_bit(index));
        assert_eq!(
            per_entry,
            [1, 2, 3, 5, 12, 63].map(|l| 1u64 << l).iter().sum()
        );
        let (mem, cpu) = (PhysMemory::new(2), test_cpu());
        mem.write_ptes(&cpu, FrameNum(1), &run).unwrap();
        assert_eq!(mem.lines(FrameNum(1)), per_entry);
        assert!(lines_cover_the_data(&mem, FrameNum(1)));
    }

    /// Random stores and whole-frame operations over four frames, held
    /// after every one to a plain array of words, the memory without
    /// line masks.
    #[test]
    fn the_line_mask_is_invisible_to_a_model_without_one() {
        const FRAMES: u64 = 4;
        faultgen::rng::check("the line mask is invisible", 200, |rng| {
            let (mem, cpu) = (PhysMemory::new(FRAMES as usize), test_cpu());
            let mut model = vec![[0u64; WORDS_PER_PAGE]; FRAMES as usize];
            // Mostly zero, so that lines empty out again.
            let value = |rng: &mut faultgen::rng::SplitMix64| {
                [0, 0, rng.next_u64() | 1][rng.below(3) as usize]
            };
            for _ in 0..60 {
                let frame = rng.below(FRAMES) as usize;
                let index = rng.below(WORDS_PER_PAGE as u64) as usize;
                match rng.below(6) {
                    0 => {
                        let word = value(rng);
                        let pa = PhysAddr(FrameNum(frame as u32).base().0 + 8 * index as u64);
                        mem.write_word(&cpu, pa, word).unwrap();
                        model[frame][index] = word;
                    }
                    1 => {
                        let run: Vec<(usize, Pte)> = (0..rng.below(20))
                            .map(|_| (rng.below(WORDS_PER_PAGE as u64) as usize, Pte(value(rng))))
                            .collect();
                        mem.write_ptes(&cpu, FrameNum(frame as u32), &run).unwrap();
                        for (index, pte) in run {
                            model[frame][index] = pte.0;
                        }
                    }
                    2 => {
                        let size = FRAMES * PAGE_SIZE;
                        let at = rng.below(size);
                        let len = rng.below(200).min(size - at) as usize;
                        let byte = value(rng) as u8;
                        let data: Vec<u8> = (0..len).map(|i| byte.wrapping_mul(i as u8)).collect();
                        mem.write_bytes(PhysAddr(at), &data).unwrap();
                        for (i, &b) in data.iter().enumerate() {
                            let at = at as usize + i;
                            let word =
                                &mut model[at / PAGE_SIZE as usize][at % PAGE_SIZE as usize / 8];
                            let lane = 8 * (at % 8);
                            *word = *word & !(0xff << lane) | u64::from(b) << lane;
                        }
                    }
                    3 => {
                        let src = rng.below(FRAMES) as usize;
                        mem.copy_frame(&cpu, FrameNum(src as u32), FrameNum(frame as u32))
                            .unwrap();
                        model[frame] = model[src];
                    }
                    4 => {
                        mem.zero_frame(&cpu, FrameNum(frame as u32)).unwrap();
                        model[frame] = [0; WORDS_PER_PAGE];
                    }
                    _ => {
                        let mut image = model[rng.below(FRAMES) as usize];
                        image[index] = value(rng);
                        mem.import_frame(FrameNum(frame as u32), &image).unwrap();
                        model[frame] = image;
                    }
                }
                for (f, words) in model.iter().enumerate() {
                    assert_eq!(
                        mem.export_frame(FrameNum(f as u32)).unwrap(),
                        words,
                        "frame {f}"
                    );
                    assert!(lines_cover_the_data(&mem, FrameNum(f as u32)), "frame {f}");
                }
            }
        });
    }

    /// A store racing a zeroing of its frame lands before the zeroing
    /// reaches its word or after; either way its line is marked if the
    /// word is left nonzero.  The writer fills the frame word by word,
    /// each line's first store raising its bit and the rest finding it
    /// set, while the zeroer takes the mask again and again.
    #[test]
    fn line_mask_survives_stores_racing_zero_frame() {
        const ROUNDS: u64 = 1_000;
        let mem = PhysMemory::new(1);
        let frame = FrameNum(0);
        for round in 1..=ROUNDS {
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let cpu = Cpu::new(0);
                    for index in 0..WORDS_PER_PAGE {
                        let pa = PhysAddr(8 * index as u64);
                        match index % 3 {
                            0 => mem.write_word(&cpu, pa, round).unwrap(),
                            1 => mem.write_ptes(&cpu, frame, &[(index, Pte(round))]).unwrap(),
                            _ => mem.write_bytes(pa, &round.to_le_bytes()).unwrap(),
                        }
                    }
                    done.store(true, Ordering::Release);
                });
                let cpu = Cpu::new(1);
                while !done.load(Ordering::Acquire) {
                    mem.zero_frame(&cpu, frame).unwrap();
                }
            });
            assert!(lines_cover_the_data(&mem, frame), "round {round}");
            mem.zero_frame(&test_cpu(), frame).unwrap();
            assert_eq!(
                mem.export_frame(frame).unwrap(),
                [0; WORDS_PER_PAGE],
                "round {round}"
            );
        }
    }

    /// A copy racing a zeroing of its destination: what the copy stores
    /// is marked after it lands, so a zeroing that took the mask first
    /// cannot leave it unmarked.  Each round copies again and again
    /// while the zeroer spins, and looks once both are done.
    #[test]
    fn line_mask_survives_copies_racing_zero_frame() {
        const ROUNDS: usize = 500;
        const COPIES: usize = 32;
        let (mem, cpu) = (PhysMemory::new(2), test_cpu());
        let (src, dst) = (FrameNum(0), FrameNum(1));
        let image: Vec<u64> = (1..=WORDS_PER_PAGE as u64).collect();
        mem.import_frame(src, &image).unwrap();
        for round in 0..ROUNDS {
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let cpu = Cpu::new(0);
                    for _ in 0..COPIES {
                        mem.copy_frame(&cpu, src, dst).unwrap();
                    }
                    done.store(true, Ordering::Release);
                });
                let cpu = Cpu::new(1);
                while !done.load(Ordering::Acquire) {
                    mem.zero_frame(&cpu, dst).unwrap();
                }
            });
            assert!(lines_cover_the_data(&mem, dst), "round {round}");
            mem.zero_frame(&cpu, dst).unwrap();
            assert_eq!(
                mem.export_frame(dst).unwrap(),
                [0; WORDS_PER_PAGE],
                "round {round}"
            );
        }
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
