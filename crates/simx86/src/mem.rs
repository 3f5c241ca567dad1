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
    /// the device model, not here.
    pub fn read_bytes(&self, pa: PhysAddr, out: &mut [u8]) -> Result<(), Fault> {
        for (i, chunk) in out.iter_mut().enumerate() {
            let addr = pa.0 + i as u64;
            let f = self.frame_ref(PhysAddr(addr).frame())?;
            let guard = f.data.lock();
            let word = guard[PhysAddr(addr).word_index()];
            *chunk = (word >> ((addr & 7) * 8)) as u8;
        }
        Ok(())
    }

    /// Bulk byte write (device DMA).  Cost is charged by the device model.
    pub fn write_bytes(&self, pa: PhysAddr, data: &[u8]) -> Result<(), Fault> {
        for (i, &b) in data.iter().enumerate() {
            let addr = pa.0 + i as u64;
            let f = self.frame_ref(PhysAddr(addr).frame())?;
            let mut guard = f.data.lock();
            let idx = PhysAddr(addr).word_index();
            let shift = (addr & 7) * 8;
            guard[idx] = (guard[idx] & !(0xffu64 << shift)) | ((b as u64) << shift);
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
