//! A small filesystem: a flat root directory of inodes whose data
//! blocks live on the simulated disk, reached through the buffer cache.
//!
//! Metadata (directory, inode table, free block list) is kept in kernel
//! memory and frozen with the kernel's logical state during
//! checkpoint/migration; data blocks persist on the (migratable) disk.
//! This is the deliberate simplification documented in DESIGN.md — the
//! benchmarks exercise data-path costs (cache hits/misses, driver
//! crossings), which is what distinguishes the paper's six systems.

pub mod buffer;

pub use buffer::{BufferCache, BLOCK_SIZE};

use crate::drivers::block::BlockDriver;
use crate::error::KernelError;
use simx86::Cpu;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An on-"disk" file.
#[derive(Debug, Clone, PartialEq)]
pub struct Inode {
    /// Inode number.
    pub ino: u32,
    /// File size in bytes.
    pub size: u64,
    /// Data blocks, in order.
    pub blocks: Vec<u64>,
}

/// File metadata returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: u32,
    /// Size in bytes.
    pub size: u64,
    /// Allocated blocks.
    pub blocks: u64,
}

/// The filesystem.
#[derive(Clone, PartialEq)]
pub struct Vfs {
    inodes: BTreeMap<u32, Inode>,
    root: BTreeMap<String, u32>,
    free_blocks: Vec<u64>,
    next_ino: u32,
    /// The buffer cache.
    pub cache: BufferCache,
}

impl Vfs {
    /// Make a filesystem over disk blocks `[first_block, first_block +
    /// num_blocks)`.
    pub fn mkfs(first_block: u64, num_blocks: u64) -> Vfs {
        Vfs {
            inodes: BTreeMap::new(),
            root: BTreeMap::new(),
            // Descending so pop() allocates the lowest block first.
            free_blocks: (first_block..first_block + num_blocks).rev().collect(),
            next_ino: 1,
            cache: BufferCache::new(buffer::DEFAULT_CAPACITY),
        }
    }

    /// Create an empty file.  Fails if the name exists.
    pub fn create(&mut self, cpu: &Arc<Cpu>, name: &str) -> Result<u32, KernelError> {
        cpu.tick(900); // dentry + inode alloc
        if self.root.contains_key(name) {
            return Err(KernelError::Exists);
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(
            ino,
            Inode {
                ino,
                size: 0,
                blocks: Vec::new(),
            },
        );
        self.root.insert(name.to_string(), ino);
        Ok(ino)
    }

    /// Look a name up.
    pub fn lookup(&self, cpu: &Arc<Cpu>, name: &str) -> Result<u32, KernelError> {
        cpu.tick(350); // path walk
        self.root.get(name).copied().ok_or(KernelError::NoEnt)
    }

    /// `stat` by inode.
    pub fn stat(&self, cpu: &Arc<Cpu>, ino: u32) -> Result<Stat, KernelError> {
        cpu.tick(250);
        let i = self.inodes.get(&ino).ok_or(KernelError::NoEnt)?;
        Ok(Stat {
            ino,
            size: i.size,
            blocks: i.blocks.len() as u64,
        })
    }

    /// Remove a file and free its blocks (their cache entries are
    /// discarded so reallocation cannot resurrect stale data).
    pub fn unlink(&mut self, cpu: &Arc<Cpu>, name: &str) -> Result<(), KernelError> {
        cpu.tick(800);
        let ino = self.root.remove(name).ok_or(KernelError::NoEnt)?;
        if let Some(inode) = self.inodes.remove(&ino) {
            for b in &inode.blocks {
                self.cache.discard(*b);
            }
            self.free_blocks.extend(inode.blocks);
        }
        Ok(())
    }

    /// Directory listing (sorted).
    pub fn list(&self) -> Vec<String> {
        self.root.keys().cloned().collect()
    }

    /// Free data blocks remaining.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.len()
    }

    /// Read up to `len` bytes at `pos`.  The inode is borrowed, not
    /// copied, and each block the range touches appends only its part
    /// of the range to the result ([`BufferCache::read`]): the bytes
    /// returned are the only bytes copied.  Each block costs what the
    /// cache charges for it, a hit `tick(400)` whatever the part's
    /// length.
    pub fn read(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        ino: u32,
        pos: u64,
        len: usize,
    ) -> Result<Vec<u8>, KernelError> {
        let inode = self.inodes.get(&ino).ok_or(KernelError::NoEnt)?;
        if pos >= inode.size {
            return Ok(Vec::new());
        }
        let len = len.min((inode.size - pos) as usize);
        let mut out = Vec::with_capacity(len);
        let mut cursor = pos;
        while out.len() < len {
            let bi = (cursor / BLOCK_SIZE as u64) as usize;
            let off = (cursor % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - off).min(len - out.len());
            let block = *inode.blocks.get(bi).ok_or(KernelError::BadAddress)?;
            self.cache
                .read(cpu, driver, block, off..off + take, &mut out)?;
            cursor += take as u64;
        }
        Ok(out)
    }

    /// Write `data` at `pos`, growing the file as needed.
    pub fn write(
        &mut self,
        cpu: &Arc<Cpu>,
        driver: &dyn BlockDriver,
        ino: u32,
        pos: u64,
        data: &[u8],
    ) -> Result<usize, KernelError> {
        // Grow the block list first; the blocks appended from
        // `first_fresh` on are new, and their on-device content is a
        // stale remnant that must read as zeros.
        let end = pos + data.len() as u64;
        let inode = self.inodes.get_mut(&ino).ok_or(KernelError::NoEnt)?;
        let first_fresh = inode.blocks.len();
        let need_blocks = end.div_ceil(BLOCK_SIZE as u64) as usize;
        while inode.blocks.len() < need_blocks {
            let b = self.free_blocks.pop().ok_or(KernelError::NoSpace)?;
            inode.blocks.push(b);
        }
        inode.size = inode.size.max(end);
        let blocks = &inode.blocks;
        let mut cursor = pos;
        let mut written = 0;
        while written < data.len() {
            let bi = (cursor / BLOCK_SIZE as u64) as usize;
            let off = (cursor % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - off).min(data.len() - written);
            let chunk = &data[written..written + take];
            if bi >= first_fresh {
                self.cache
                    .write_fresh(cpu, driver, blocks[bi], off, chunk)?;
            } else {
                self.cache.write(cpu, driver, blocks[bi], off, chunk)?;
            }
            cursor += take as u64;
            written += take;
        }
        // Fresh blocks not touched by this write (a sparse gap) still
        // need their zeros established in the cache.
        for (bi, &b) in blocks.iter().enumerate().skip(first_fresh) {
            let bstart = bi as u64 * BLOCK_SIZE as u64;
            let covered = pos < bstart + BLOCK_SIZE as u64 && end > bstart;
            if !covered {
                self.cache.write_fresh(cpu, driver, b, 0, &[])?;
            }
        }
        Ok(written)
    }

    /// Truncate a file to zero, freeing its blocks.
    pub fn truncate(&mut self, cpu: &Arc<Cpu>, ino: u32) -> Result<(), KernelError> {
        cpu.tick(500);
        let inode = self.inodes.get_mut(&ino).ok_or(KernelError::NoEnt)?;
        let freed = std::mem::take(&mut inode.blocks);
        inode.size = 0;
        for b in &freed {
            self.cache.discard(*b);
        }
        self.free_blocks.extend(freed);
        Ok(())
    }

    /// Flush the buffer cache (fsync semantics for the whole fs).
    pub fn sync(&mut self, cpu: &Arc<Cpu>, driver: &dyn BlockDriver) -> Result<usize, KernelError> {
        self.cache.sync(cpu, driver)
    }
}

#[cfg(test)]
mod tests {
    use super::buffer::tests_support::{Io::*, MemDriver};
    use super::*;

    fn cpu() -> Arc<Cpu> {
        Arc::new(Cpu::new(0))
    }

    #[test]
    fn create_write_read_roundtrip() {
        let d = MemDriver::new();
        let mut fs = Vfs::mkfs(10, 100);
        let cpu = cpu();
        let ino = fs.create(&cpu, "hello.txt").unwrap();
        let msg = b"hello filesystem".repeat(300); // spans blocks
        assert_eq!(fs.write(&cpu, &d, ino, 0, &msg).unwrap(), msg.len());
        let back = fs.read(&cpu, &d, ino, 0, msg.len()).unwrap();
        assert_eq!(back, msg);
        assert_eq!(fs.stat(&cpu, ino).unwrap().size, msg.len() as u64);
    }

    #[test]
    fn read_at_offset_and_past_eof() {
        let d = MemDriver::new();
        let mut fs = Vfs::mkfs(10, 100);
        let cpu = cpu();
        let ino = fs.create(&cpu, "f").unwrap();
        fs.write(&cpu, &d, ino, 0, b"0123456789").unwrap();
        assert_eq!(fs.read(&cpu, &d, ino, 4, 3).unwrap(), b"456");
        assert_eq!(fs.read(&cpu, &d, ino, 8, 100).unwrap(), b"89");
        assert!(fs.read(&cpu, &d, ino, 100, 10).unwrap().is_empty());
    }

    #[test]
    fn sparse_grow_via_offset_write() {
        let d = MemDriver::new();
        let mut fs = Vfs::mkfs(10, 100);
        let cpu = cpu();
        let ino = fs.create(&cpu, "sparse").unwrap();
        fs.write(&cpu, &d, ino, 5000, b"xy").unwrap();
        assert_eq!(fs.stat(&cpu, ino).unwrap().size, 5002);
        assert_eq!(fs.read(&cpu, &d, ino, 5000, 2).unwrap(), b"xy");
        // The gap reads as zeroes.
        assert_eq!(fs.read(&cpu, &d, ino, 0, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn duplicate_create_and_missing_lookup() {
        let d = MemDriver::new();
        let _ = d;
        let mut fs = Vfs::mkfs(10, 100);
        let cpu = cpu();
        fs.create(&cpu, "a").unwrap();
        assert!(matches!(fs.create(&cpu, "a"), Err(KernelError::Exists)));
        assert!(matches!(fs.lookup(&cpu, "nope"), Err(KernelError::NoEnt)));
    }

    #[test]
    fn unlink_frees_blocks() {
        let d = MemDriver::new();
        let mut fs = Vfs::mkfs(10, 10);
        let cpu = cpu();
        let ino = fs.create(&cpu, "big").unwrap();
        fs.write(&cpu, &d, ino, 0, &vec![1u8; 8 * BLOCK_SIZE])
            .unwrap();
        assert_eq!(fs.free_block_count(), 2);
        fs.unlink(&cpu, "big").unwrap();
        assert_eq!(fs.free_block_count(), 10);
        assert!(matches!(fs.stat(&cpu, ino), Err(KernelError::NoEnt)));
    }

    #[test]
    fn out_of_space() {
        let d = MemDriver::new();
        let mut fs = Vfs::mkfs(10, 2);
        let cpu = cpu();
        let ino = fs.create(&cpu, "f").unwrap();
        assert!(matches!(
            fs.write(&cpu, &d, ino, 0, &vec![0u8; 3 * BLOCK_SIZE]),
            Err(KernelError::NoSpace)
        ));
    }

    #[test]
    fn data_survives_sync_and_cache_drop() {
        let d = MemDriver::new();
        let mut fs = Vfs::mkfs(10, 100);
        let cpu = cpu();
        let ino = fs.create(&cpu, "durable").unwrap();
        fs.write(&cpu, &d, ino, 0, b"persist me").unwrap();
        fs.sync(&cpu, &d).unwrap();
        fs.cache = BufferCache::new(8); // drop the whole cache
        assert_eq!(fs.read(&cpu, &d, ino, 0, 10).unwrap(), b"persist me");
    }

    /// The file path's simulated charges and the cache's counters after
    /// a fixed sequence, as recorded before reads took a range: a
    /// create, a prefill in two writes, a read across the block boundary
    /// at 4 096, reads at and short of EOF, a sparse write past EOF and
    /// a sync, then the read across the boundary again from an emptied
    /// cache.
    #[test]
    fn the_file_paths_charges_are_pinned() {
        let d = MemDriver::new();
        let mut fs = Vfs::mkfs(10, 100);
        let cpu = cpu();
        let ino = fs.create(&cpu, "pinned").unwrap();
        let a: Vec<u8> = (0..2048u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
        fs.write(&cpu, &d, ino, 0, &a).unwrap();
        fs.write(&cpu, &d, ino, 3072, &b).unwrap();
        let across = fs.read(&cpu, &d, ino, 3840, 512).unwrap();
        assert_eq!(across, b[768..1280]);
        assert!(fs.read(&cpu, &d, ino, 5120, 512).unwrap().is_empty());
        assert_eq!(fs.read(&cpu, &d, ino, 5000, 512).unwrap(), b[1928..]);
        fs.write(&cpu, &d, ino, 3 * BLOCK_SIZE as u64 + 100, b"past eof")
            .unwrap();
        assert_eq!(fs.sync(&cpu, &d).unwrap(), 4);
        fs.cache.drop_clean();
        assert_eq!(fs.read(&cpu, &d, ino, 3840, 512).unwrap(), across);
        assert_eq!(cpu.cycles(), 3856);
        assert_eq!(fs.cache.stats, (4, 2, 4));
        let io = [
            Write(10),
            Write(11),
            Write(13),
            Write(12),
            Read(10),
            Read(11),
        ];
        assert_eq!(
            *d.log.lock(),
            io,
            "block 12 is the sparse gap, touched last"
        );
    }
}
