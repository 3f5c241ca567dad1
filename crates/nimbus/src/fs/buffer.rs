//! The buffer cache: write-behind caching of disk blocks.
//!
//! Reads fill the cache through the block driver; writes dirty cached
//! blocks and are flushed on `sync`, on eviction, or when the dirty
//! high-water mark is crossed (the kupdate analogue).  The interplay of
//! this cache with the split block driver's own early-ack behaviour is
//! what reproduces dbench's counter-intuitive Fig. 3 result (domU
//! slightly *faster* than domain0).
//!
//! A read copies only what it returns: [`BufferCache::read`] appends a
//! byte range of one block to the caller's buffer, straight from the
//! cached block on a hit, and from the block the driver filled into its
//! cache entry on a miss.  The simulated charges do not depend on that
//! copy: a hit is `tick(400)` whatever the range, a cached write `300 +
//! len / 16`, and a fill or a writeback is what the driver charges.
//! The number of dirty blocks is kept, not recounted: every site that
//! dirties, cleans or drops a block updates it, so it always equals the
//! number of cached blocks whose `dirty` is set ([`BufferCache::dirty_count`]
//! checks that in debug builds).

use crate::drivers::block::BlockDriver;
use crate::error::KernelError;
use simx86::Cpu;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// Bytes per filesystem block.
pub const BLOCK_SIZE: usize = 4096;

/// Default cache capacity in blocks (16 MiB — generous relative to the
/// benchmark files, as the paper's 900 MB machines were to theirs).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Dirty blocks tolerated before a background writeback kicks in
/// (2 MiB — pdflush-era defaults let this much dirty data sit).
pub const DIRTY_HIGH_WATER: usize = 256;

#[derive(Clone, PartialEq)]
struct Buf {
    data: Vec<u8>,
    dirty: bool,
}

/// The cache.  Lives inside the big kernel lock.
#[derive(Clone, PartialEq)]
pub struct BufferCache {
    blocks: HashMap<u64, Buf>,
    lru: VecDeque<u64>,
    capacity: usize,
    /// Blocks in `blocks` whose `dirty` is set.
    dirty: usize,
    /// Counters: (hits, misses, writebacks).
    pub stats: (u64, u64, u64),
}

impl BufferCache {
    /// A cache holding up to `capacity` blocks.
    pub fn new(capacity: usize) -> BufferCache {
        BufferCache {
            blocks: HashMap::new(),
            lru: VecDeque::new(),
            capacity,
            dirty: 0,
            stats: (0, 0, 0),
        }
    }

    fn touch_lru(&mut self, block: u64) {
        if self.lru.back() == Some(&block) {
            return;
        }
        if let Some(pos) = self.lru.iter().position(|&b| b == block) {
            self.lru.remove(pos);
        }
        self.lru.push_back(block);
    }

    fn evict_if_needed(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
    ) -> Result<(), KernelError> {
        while self.blocks.len() > self.capacity {
            let Some(victim) = self.lru.pop_front() else {
                break;
            };
            if let Some(buf) = self.blocks.remove(&victim) {
                if buf.dirty {
                    self.dirty -= 1;
                    self.stats.2 += 1;
                    driver.write_block(cpu, victim, &buf.data)?;
                }
            }
        }
        Ok(())
    }

    /// Append bytes `range` of `block` to `out` (`range` within
    /// `BLOCK_SIZE`).  A hit copies the range from the cached block; a
    /// miss reads the whole block into its cache entry once, then copies
    /// the range from there.
    pub fn read(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        block: u64,
        range: Range<usize>,
        out: &mut Vec<u8>,
    ) -> Result<(), KernelError> {
        if let Some(buf) = self.blocks.get(&block) {
            self.stats.0 += 1;
            cpu.tick(400); // cached copy
            out.extend_from_slice(&buf.data[range]);
            self.touch_lru(block);
            return Ok(());
        }
        self.stats.1 += 1;
        let mut data = vec![0u8; BLOCK_SIZE];
        driver.read_block(cpu, block, &mut data)?;
        out.extend_from_slice(&data[range]);
        self.blocks.insert(block, Buf { data, dirty: false });
        self.touch_lru(block);
        self.evict_if_needed(cpu, driver)
    }

    /// Write a byte range within a block (read-modify-write through the
    /// cache; the block is dirtied, not written through).
    pub fn write(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        block: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), KernelError> {
        self.write_impl(cpu, driver, block, offset, data, false)
    }

    /// Like [`BufferCache::write`], but for a *freshly allocated* block:
    /// whatever is on the device there is a stale remnant of a freed
    /// block, so the base content is zeros and no fill read happens.
    pub fn write_fresh(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        block: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), KernelError> {
        self.discard(block);
        self.write_impl(cpu, driver, block, offset, data, true)
    }

    fn write_impl(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        block: u64,
        offset: usize,
        data: &[u8],
        fresh: bool,
    ) -> Result<(), KernelError> {
        debug_assert!(offset + data.len() <= BLOCK_SIZE);
        let buf = match self.blocks.entry(block) {
            Entry::Occupied(cached) => {
                self.stats.0 += 1;
                cached.into_mut()
            }
            Entry::Vacant(slot) => {
                // Fill unless the write covers the whole block or the
                // block is fresh (then its logical content is zeros).
                let mut base = vec![0u8; BLOCK_SIZE];
                if !fresh && data.len() != BLOCK_SIZE {
                    driver.read_block(cpu, block, &mut base)?;
                    self.stats.1 += 1;
                }
                // Dirtied below with the rest: a fresh block's zeros
                // must shadow whatever stale bytes sit on the device.
                slot.insert(Buf {
                    data: base,
                    dirty: false,
                })
            }
        };
        cpu.tick(300 + data.len() as u64 / 16); // cached copy
        buf.data[offset..offset + data.len()].copy_from_slice(data);
        if !buf.dirty {
            buf.dirty = true;
            self.dirty += 1;
        }
        self.touch_lru(block);
        if self.dirty > DIRTY_HIGH_WATER {
            self.writeback(cpu, driver, DIRTY_HIGH_WATER / 2)?;
        }
        self.evict_if_needed(cpu, driver)
    }

    /// Flush up to `max` dirty blocks (oldest first).
    pub fn writeback(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        max: usize,
    ) -> Result<usize, KernelError> {
        let victims: Vec<u64> = self
            .lru
            .iter()
            .copied()
            .filter(|b| self.blocks.get(b).map(|x| x.dirty).unwrap_or(false))
            .take(max)
            .collect();
        let mut n = 0;
        for b in victims {
            if let Some(buf) = self.blocks.get_mut(&b) {
                driver.write_block(cpu, b, &buf.data)?;
                buf.dirty = false;
                self.dirty -= 1;
                self.stats.2 += 1;
                n += 1;
            }
        }
        Ok(n)
    }

    /// Flush everything (fsync / unmount / checkpoint freeze).
    pub fn sync(&mut self, cpu: &Arc<Cpu>, driver: &dyn BlockDriver) -> Result<usize, KernelError> {
        let n = self.writeback(cpu, driver, usize::MAX)?;
        driver.flush(cpu)?;
        Ok(n)
    }

    /// Number of dirty blocks.
    pub fn dirty_count(&self) -> usize {
        debug_assert_eq!(
            self.dirty,
            self.blocks.values().filter(|b| b.dirty).count(),
            "the kept dirty count drifted from the cache"
        );
        self.dirty
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Forget a block without writing it back (its storage was freed:
    /// truncate/unlink).  Keeping the entry would resurrect stale data
    /// if the block is reallocated to another file.
    pub fn discard(&mut self, block: u64) {
        if let Some(buf) = self.blocks.remove(&block) {
            self.dirty -= usize::from(buf.dirty);
            self.lru.retain(|&b| b != block);
        }
    }

    /// Drop all clean blocks (restore path: contents will be re-read
    /// from the migrated disk).  The dirty count is unchanged.
    pub fn drop_clean(&mut self) {
        self.blocks.retain(|_, b| b.dirty);
        self.lru.retain(|b| self.blocks.contains_key(b));
    }
}

/// Test support: a host-memory block driver that logs its operations.
#[cfg(test)]
pub mod tests_support {
    use super::*;
    use simx86::sync::Mutex;

    /// One driver-level block operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Io {
        /// `read_block` of this block.
        Read(u64),
        /// `write_block` of this block.
        Write(u64),
    }

    /// A block driver over a host-side map, logging every block read
    /// and write in order.
    #[derive(Default)]
    pub struct MemDriver {
        /// Blocks written through.
        pub store: Mutex<HashMap<u64, Vec<u8>>>,
        /// Every `read_block` and `write_block`, in order.
        pub log: Mutex<Vec<Io>>,
    }

    impl MemDriver {
        /// An empty driver.
        pub fn new() -> MemDriver {
            MemDriver::default()
        }

        /// Driver-level reads so far.
        pub fn reads(&self) -> usize {
            self.log
                .lock()
                .iter()
                .filter(|io| matches!(io, Io::Read(_)))
                .count()
        }

        /// Driver-level writes so far.
        pub fn writes(&self) -> usize {
            self.log
                .lock()
                .iter()
                .filter(|io| matches!(io, Io::Write(_)))
                .count()
        }
    }

    impl BlockDriver for MemDriver {
        fn read_block(
            &self,
            _cpu: &Arc<Cpu>,
            block: u64,
            out: &mut [u8],
        ) -> Result<(), KernelError> {
            self.log.lock().push(Io::Read(block));
            let store = self.store.lock();
            match store.get(&block) {
                Some(d) => out.copy_from_slice(d),
                None => out.fill(0),
            }
            Ok(())
        }
        fn write_block(&self, _cpu: &Arc<Cpu>, block: u64, data: &[u8]) -> Result<(), KernelError> {
            self.log.lock().push(Io::Write(block));
            self.store.lock().insert(block, data.to_vec());
            Ok(())
        }
        fn flush(&self, _cpu: &Arc<Cpu>) -> Result<(), KernelError> {
            Ok(())
        }
        fn kind(&self) -> &'static str {
            "mem"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::MemDriver;
    use super::*;

    fn cpu() -> Arc<Cpu> {
        Arc::new(Cpu::new(0))
    }

    #[test]
    fn read_caches() {
        let d = MemDriver::new();
        d.store.lock().insert(3, vec![7u8; BLOCK_SIZE]);
        let mut c = BufferCache::new(8);
        let cpu = cpu();
        let mut out = Vec::new();
        c.read(&cpu, &d, 3, 0..1, &mut out).unwrap();
        c.read(&cpu, &d, 3, BLOCK_SIZE - 2..BLOCK_SIZE, &mut out)
            .unwrap();
        assert_eq!(out, [7, 7, 7], "each read appends its range");
        assert_eq!(d.reads(), 1, "second read must hit the cache");
        assert_eq!(c.stats.0, 1);
    }

    #[test]
    fn writes_are_write_behind_until_sync() {
        let d = MemDriver::new();
        let mut c = BufferCache::new(8);
        let cpu = cpu();
        c.write(&cpu, &d, 5, 0, &[9u8; BLOCK_SIZE]).unwrap();
        assert_eq!(d.writes(), 0, "write must not hit the disk yet");
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.sync(&cpu, &d).unwrap(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(d.store.lock().get(&5).unwrap()[0], 9);
    }

    #[test]
    fn partial_write_reads_then_modifies() {
        let d = MemDriver::new();
        d.store.lock().insert(2, vec![1u8; BLOCK_SIZE]);
        let mut c = BufferCache::new(8);
        let cpu = cpu();
        c.write(&cpu, &d, 2, 10, &[5, 5]).unwrap();
        let mut data = Vec::new();
        c.read(&cpu, &d, 2, 9..13, &mut data).unwrap();
        assert_eq!(data, [1, 5, 5, 1]);
    }

    #[test]
    fn eviction_writes_back_dirty_blocks() {
        let d = MemDriver::new();
        let mut c = BufferCache::new(2);
        let cpu = cpu();
        c.write(&cpu, &d, 1, 0, &[1u8; BLOCK_SIZE]).unwrap();
        c.write(&cpu, &d, 2, 0, &[2u8; BLOCK_SIZE]).unwrap();
        c.write(&cpu, &d, 3, 0, &[3u8; BLOCK_SIZE]).unwrap();
        assert!(c.len() <= 2);
        // Block 1 was evicted and must be durable.
        assert_eq!(d.store.lock().get(&1).unwrap()[0], 1);
        // And rereading it comes back via the driver.
        let mut data = Vec::new();
        c.read(&cpu, &d, 1, 0..BLOCK_SIZE, &mut data).unwrap();
        assert_eq!(data, [1u8; BLOCK_SIZE]);
    }

    #[test]
    fn high_water_triggers_background_writeback() {
        let d = MemDriver::new();
        let mut c = BufferCache::new(DIRTY_HIGH_WATER * 4);
        let cpu = cpu();
        for b in 0..(DIRTY_HIGH_WATER as u64 + 1) {
            c.write(&cpu, &d, b, 0, &[1u8; BLOCK_SIZE]).unwrap();
        }
        assert!(
            d.writes() > 0,
            "crossing the high-water mark must start writeback"
        );
        assert!(c.dirty_count() <= DIRTY_HIGH_WATER);
    }

    /// The cache as it was written before reads took a range and the
    /// dirty count was kept: whole-block copies out of every read, a
    /// linear LRU scan on every touch, the dirty set recounted on every
    /// write.  The reference the model test holds [`BufferCache`] to.
    struct Model {
        blocks: HashMap<u64, Buf>,
        lru: VecDeque<u64>,
        capacity: usize,
        stats: (u64, u64, u64),
    }

    impl Model {
        fn new(capacity: usize) -> Model {
            Model {
                blocks: HashMap::new(),
                lru: VecDeque::new(),
                capacity,
                stats: (0, 0, 0),
            }
        }

        fn touch_lru(&mut self, block: u64) {
            if let Some(pos) = self.lru.iter().position(|&b| b == block) {
                self.lru.remove(pos);
            }
            self.lru.push_back(block);
        }

        fn evict_if_needed(&mut self, cpu: &Arc<Cpu>, driver: &MemDriver) {
            while self.blocks.len() > self.capacity {
                let Some(victim) = self.lru.pop_front() else {
                    break;
                };
                if let Some(buf) = self.blocks.remove(&victim) {
                    if buf.dirty {
                        self.stats.2 += 1;
                        driver.write_block(cpu, victim, &buf.data).unwrap();
                    }
                }
            }
        }

        fn read(&mut self, cpu: &Arc<Cpu>, driver: &MemDriver, block: u64) -> Vec<u8> {
            if let Some(buf) = self.blocks.get(&block) {
                self.stats.0 += 1;
                cpu.tick(400);
                let data = buf.data.clone();
                self.touch_lru(block);
                return data;
            }
            self.stats.1 += 1;
            let mut data = vec![0u8; BLOCK_SIZE];
            driver.read_block(cpu, block, &mut data).unwrap();
            let buf = Buf {
                data: data.clone(),
                dirty: false,
            };
            self.blocks.insert(block, buf);
            self.touch_lru(block);
            self.evict_if_needed(cpu, driver);
            data
        }

        fn write(
            &mut self,
            cpu: &Arc<Cpu>,
            driver: &MemDriver,
            block: u64,
            offset: usize,
            data: &[u8],
            fresh: bool,
        ) {
            if fresh {
                self.discard(block);
            }
            if !self.blocks.contains_key(&block) {
                let mut base = vec![0u8; BLOCK_SIZE];
                if !fresh && data.len() != BLOCK_SIZE {
                    driver.read_block(cpu, block, &mut base).unwrap();
                    self.stats.1 += 1;
                }
                let buf = Buf {
                    data: base,
                    dirty: fresh,
                };
                self.blocks.insert(block, buf);
            } else {
                self.stats.0 += 1;
            }
            cpu.tick(300 + data.len() as u64 / 16);
            let buf = self.blocks.get_mut(&block).unwrap();
            buf.data[offset..offset + data.len()].copy_from_slice(data);
            buf.dirty = true;
            self.touch_lru(block);
            if self.dirty_count() > DIRTY_HIGH_WATER {
                self.writeback(cpu, driver, DIRTY_HIGH_WATER / 2);
            }
            self.evict_if_needed(cpu, driver);
        }

        fn writeback(&mut self, cpu: &Arc<Cpu>, driver: &MemDriver, max: usize) -> usize {
            let victims: Vec<u64> = self
                .lru
                .iter()
                .copied()
                .filter(|b| self.blocks[b].dirty)
                .take(max)
                .collect();
            for &b in &victims {
                let buf = self.blocks.get_mut(&b).unwrap();
                driver.write_block(cpu, b, &buf.data).unwrap();
                buf.dirty = false;
                self.stats.2 += 1;
            }
            victims.len()
        }

        fn dirty_count(&self) -> usize {
            self.blocks.values().filter(|b| b.dirty).count()
        }

        fn discard(&mut self, block: u64) {
            self.blocks.remove(&block);
            self.lru.retain(|&b| b != block);
        }

        fn drop_clean(&mut self) {
            self.blocks.retain(|_, b| b.dirty);
            self.lru.retain(|b| self.blocks.contains_key(b));
        }
    }

    /// Run `ops` random operations over blocks `0..nblocks` against a
    /// cache of `capacity` blocks and the model, each with its own CPU
    /// and logging driver, and compare after every operation the bytes
    /// a read returned, `dirty_count`, `stats`, the driver's log (which
    /// pins the eviction and writeback order) and the CPU's cycles.
    /// Operation kinds are drawn from `0..kinds` (reads, writes, fresh
    /// writes, discards, writebacks, syncs, drops of clean blocks, in
    /// that order).  Returns the writebacks of every case.
    fn matches_the_model(cases: u64, nblocks: u64, capacity: usize, ops: usize, kinds: u64) -> u64 {
        let mut writebacks = 0;
        faultgen::rng::check("the buffer cache behaves as the model", cases, |rng| {
            let (cpu, model_cpu) = (cpu(), cpu());
            let (d, model_d) = (MemDriver::new(), MemDriver::new());
            let mut c = BufferCache::new(capacity);
            let mut m = Model::new(capacity);
            for step in 0..ops {
                let block = rng.below(nblocks);
                let what = rng.below(kinds);
                match what {
                    0..=4 => {
                        let start = rng.below(BLOCK_SIZE as u64) as usize;
                        let end = rng.range(start as u64, BLOCK_SIZE as u64 + 1) as usize;
                        let mut got = vec![0xee];
                        c.read(&cpu, &d, block, start..end, &mut got).unwrap();
                        let want = m.read(&model_cpu, &model_d, block);
                        assert_eq!(got[0], 0xee, "step {step}: a read overwrote its buffer");
                        assert!(
                            got[1..] == want[start..end],
                            "step {step}: read {block} {start}..{end}"
                        );
                    }
                    5..=10 => {
                        let fresh = what >= 9;
                        let whole = rng.below(8) == 0;
                        let offset = if whole {
                            0
                        } else {
                            rng.below(BLOCK_SIZE as u64) as usize
                        };
                        let len = if whole {
                            BLOCK_SIZE
                        } else {
                            rng.below((BLOCK_SIZE - offset) as u64 + 1) as usize
                        };
                        let first = rng.next_u64() as u8;
                        let data: Vec<u8> = (0..len).map(|i| first.wrapping_add(i as u8)).collect();
                        if fresh {
                            c.write_fresh(&cpu, &d, block, offset, &data).unwrap();
                        } else {
                            c.write(&cpu, &d, block, offset, &data).unwrap();
                        }
                        m.write(&model_cpu, &model_d, block, offset, &data, fresh);
                    }
                    11 => {
                        c.discard(block);
                        m.discard(block);
                    }
                    12 | 13 => {
                        let max = rng.below(4) as usize;
                        let got = c.writeback(&cpu, &d, max).unwrap();
                        assert_eq!(got, m.writeback(&model_cpu, &model_d, max), "step {step}");
                    }
                    14 => {
                        let got = c.sync(&cpu, &d).unwrap();
                        assert_eq!(
                            got,
                            m.writeback(&model_cpu, &model_d, usize::MAX),
                            "step {step}"
                        );
                    }
                    _ => {
                        c.drop_clean();
                        m.drop_clean();
                    }
                }
                assert_eq!(c.dirty_count(), m.dirty_count(), "step {step}: dirty count");
                assert_eq!(c.stats, m.stats, "step {step}: (hits, misses, writebacks)");
                assert_eq!(
                    *d.log.lock(),
                    *model_d.log.lock(),
                    "step {step}: driver operations"
                );
                assert_eq!(cpu.cycles(), model_cpu.cycles(), "step {step}: cycles");
            }
            writebacks += c.stats.2;
        });
        writebacks
    }

    #[test]
    fn the_cache_behaves_as_the_whole_block_model() {
        matches_the_model(200, 12, 4, 120, 16);
    }

    /// Reads and writes over more blocks than the high-water mark, in a
    /// cache that holds them all: every writeback is the background one.
    #[test]
    fn the_high_water_writeback_behaves_as_the_model() {
        let blocks = DIRTY_HIGH_WATER + 24;
        let writebacks = matches_the_model(4, blocks as u64, blocks, 2_000, 11);
        assert!(
            writebacks > 0,
            "the dirty count never crossed the high-water mark"
        );
    }
}
