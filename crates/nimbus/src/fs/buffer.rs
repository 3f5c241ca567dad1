//! The buffer cache: write-behind caching of disk blocks.
//!
//! Reads fill the cache through the block driver; writes dirty cached
//! blocks and are flushed on `sync`, on eviction, or when the dirty
//! high-water mark is crossed (the kupdate analogue).  The interplay of
//! this cache with the split block driver's own early-ack behaviour is
//! what reproduces dbench's counter-intuitive Fig. 3 result (domU
//! slightly *faster* than domain0).

use crate::drivers::block::BlockDriver;
use crate::error::KernelError;
use simx86::Cpu;
use std::collections::{HashMap, VecDeque};
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
            stats: (0, 0, 0),
        }
    }

    fn touch_lru(&mut self, block: u64) {
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
                    self.stats.2 += 1;
                    driver.write_block(cpu, victim, &buf.data)?;
                }
            }
        }
        Ok(())
    }

    /// Read a whole block (copied out).
    pub fn read(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        block: u64,
    ) -> Result<Vec<u8>, KernelError> {
        if let Some(buf) = self.blocks.get(&block) {
            self.stats.0 += 1;
            cpu.tick(400); // cached copy
            let data = buf.data.clone();
            self.touch_lru(block);
            return Ok(data);
        }
        self.stats.1 += 1;
        let mut data = vec![0u8; BLOCK_SIZE];
        driver.read_block(cpu, block, &mut data)?;
        self.blocks.insert(
            block,
            Buf {
                data: data.clone(),
                dirty: false,
            },
        );
        self.touch_lru(block);
        self.evict_if_needed(cpu, driver)?;
        Ok(data)
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
        if !self.blocks.contains_key(&block) {
            // Fill unless the write covers the whole block or the block
            // is fresh (then its logical content is zeros).
            let base = if fresh || data.len() == BLOCK_SIZE {
                vec![0u8; BLOCK_SIZE]
            } else {
                let mut b = vec![0u8; BLOCK_SIZE];
                driver.read_block(cpu, block, &mut b)?;
                self.stats.1 += 1;
                b
            };
            self.blocks.insert(
                block,
                Buf {
                    data: base,
                    // Fresh blocks are dirty from birth: their zeros must
                    // shadow whatever stale bytes sit on the device.
                    dirty: fresh,
                },
            );
        } else {
            self.stats.0 += 1;
        }
        cpu.tick(300 + data.len() as u64 / 16); // cached copy
        let buf = self.blocks.get_mut(&block).expect("just inserted");
        buf.data[offset..offset + data.len()].copy_from_slice(data);
        buf.dirty = true;
        self.touch_lru(block);
        if self.dirty_count() > DIRTY_HIGH_WATER {
            self.writeback(cpu, driver, DIRTY_HIGH_WATER / 2)?;
        }
        self.evict_if_needed(cpu, driver)?;
        Ok(())
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
        self.blocks.values().filter(|b| b.dirty).count()
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
        self.blocks.remove(&block);
        self.lru.retain(|&b| b != block);
    }

    /// Drop all clean blocks (restore path: contents will be re-read
    /// from the migrated disk).
    pub fn drop_clean(&mut self) {
        self.blocks.retain(|_, b| b.dirty);
        self.lru.retain(|b| self.blocks.contains_key(b));
    }
}

/// Test support: a host-memory block driver with operation counters.
#[cfg(test)]
pub mod tests_support {
    use super::*;
    use simx86::sync::Mutex;

    /// A block driver over a host-side map, counting operations.
    pub struct MemDriver {
        /// Blocks written through.
        pub store: Mutex<HashMap<u64, Vec<u8>>>,
        /// Driver-level reads.
        pub reads: Mutex<u64>,
        /// Driver-level writes.
        pub writes: Mutex<u64>,
    }

    impl Default for MemDriver {
        fn default() -> Self {
            Self::new()
        }
    }

    impl MemDriver {
        /// An empty driver.
        pub fn new() -> MemDriver {
            MemDriver {
                store: Mutex::new(HashMap::new()),
                reads: Mutex::new(0),
                writes: Mutex::new(0),
            }
        }
    }

    impl BlockDriver for MemDriver {
        fn read_block(
            &self,
            _cpu: &Arc<Cpu>,
            block: u64,
            out: &mut [u8],
        ) -> Result<(), KernelError> {
            *self.reads.lock() += 1;
            let store = self.store.lock();
            match store.get(&block) {
                Some(d) => out.copy_from_slice(d),
                None => out.fill(0),
            }
            Ok(())
        }
        fn write_block(&self, _cpu: &Arc<Cpu>, block: u64, data: &[u8]) -> Result<(), KernelError> {
            *self.writes.lock() += 1;
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
        assert_eq!(c.read(&cpu, &d, 3).unwrap()[0], 7);
        assert_eq!(c.read(&cpu, &d, 3).unwrap()[0], 7);
        assert_eq!(*d.reads.lock(), 1, "second read must hit the cache");
        assert_eq!(c.stats.0, 1);
    }

    #[test]
    fn writes_are_write_behind_until_sync() {
        let d = MemDriver::new();
        let mut c = BufferCache::new(8);
        let cpu = cpu();
        c.write(&cpu, &d, 5, 0, &[9u8; BLOCK_SIZE]).unwrap();
        assert_eq!(*d.writes.lock(), 0, "write must not hit the disk yet");
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.sync(&cpu, &d).unwrap(), 1);
        assert_eq!(*d.writes.lock(), 1);
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
        let data = c.read(&cpu, &d, 2).unwrap();
        assert_eq!(&data[9..13], &[1, 5, 5, 1]);
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
        assert_eq!(c.read(&cpu, &d, 1).unwrap()[0], 1);
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
            *d.writes.lock() > 0,
            "crossing the high-water mark must start writeback"
        );
        assert!(c.dirty_count() <= DIRTY_HIGH_WATER);
    }
}
