//! Program images: the synthetic binaries `exec` loads.
//!
//! Each image owns page-cache frames for its text and initialized data,
//! preloaded at boot.  `exec` maps text shared read-only and copies data
//! pages, exactly shaping the cost profile of the lmbench `exec`/`sh`
//! rows.  Sizes approximate the paper-era binaries they stand in for.

use crate::error::KernelError;
use crate::mm::FramePool;
use simx86::mem::{FrameNum, PhysMemory};
use simx86::paging::WORDS_PER_PAGE;
use simx86::Cpu;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// Virtual layout constants for loaded programs.
pub mod layout {
    /// Text segment base.
    pub const TEXT_BASE: u64 = 0x0040_0000;
    /// Heap base.
    pub const HEAP_BASE: u64 = 0x1000_0000;
    /// mmap placement region base.
    pub const MMAP_BASE: u64 = 0x1800_0000;
    /// Top of the stack region (grows down).
    pub const STACK_TOP: u64 = 0x2fff_f000;
    /// Stack pages reserved below [`STACK_TOP`].
    pub const STACK_PAGES: u64 = 64;
}

/// A loadable image.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramImage {
    /// Name.
    pub name: String,
    /// Shared read-only text pages.
    pub text: Vec<FrameNum>,
    /// Initialized-data template pages (copied privately at exec).
    pub data: Vec<FrameNum>,
    /// Zero-initialized pages after data.
    pub bss_pages: usize,
    /// Heap VMA size in pages.
    pub heap_pages: usize,
}

impl ProgramImage {
    /// Total mapped pages immediately after exec (before demand paging).
    pub fn resident_pages(&self) -> usize {
        self.text.len() + self.data.len()
    }
}

/// The registry of installed programs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramRegistry {
    progs: BTreeMap<String, ProgramImage>,
}

impl ProgramRegistry {
    /// Install a program, allocating and stamping its page-cache frames.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        &mut self,
        cpu: &Arc<Cpu>,
        mem: &PhysMemory,
        pool: &mut FramePool,
        name: &str,
        text_pages: usize,
        data_pages: usize,
        bss_pages: usize,
        heap_pages: usize,
    ) -> Result<(), KernelError> {
        let mut alloc_pages = |n: usize, tag: u64| -> Result<Vec<FrameNum>, KernelError> {
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                let f = pool.alloc(cpu).ok_or(KernelError::NoMem)?;
                // Stamp a recognizable pattern so exec'd memory is
                // checkable in tests.
                mem.write_word(cpu, f.base(), tag ^ (i as u64))?;
                mem.write_word(
                    cpu,
                    simx86::mem::PhysAddr(f.base().0 + (WORDS_PER_PAGE as u64 - 1) * 8),
                    tag.wrapping_mul(31) ^ (i as u64),
                )?;
                v.push(f);
            }
            Ok(v)
        };
        let tag = name
            .bytes()
            .fold(0u64, |a, b| a.wrapping_mul(131) + b as u64);
        let image = ProgramImage {
            name: name.to_string(),
            text: alloc_pages(text_pages, tag)?,
            data: alloc_pages(data_pages, tag ^ 0xdddd)?,
            bss_pages,
            heap_pages,
        };
        self.progs.insert(name.to_string(), image);
        Ok(())
    }

    /// Look a program up.
    pub fn get(&self, name: &str) -> Result<&ProgramImage, KernelError> {
        self.progs.get(name).ok_or(KernelError::NoProgram)
    }

    /// Installed program names.
    pub fn names(&self) -> Vec<String> {
        self.progs.keys().cloned().collect()
    }

    /// Install the canonical set the workloads use.  Page counts stand
    /// in for the paper-era binaries (init, a shell, gcc's cc1 for the
    /// kernel-build workload, postgres for OSDB, and the benchmark
    /// processes themselves).
    pub fn install_standard(
        &mut self,
        cpu: &Arc<Cpu>,
        mem: &PhysMemory,
        pool: &mut FramePool,
    ) -> Result<(), KernelError> {
        // name, text, data, bss, heap
        let set: &[(&str, usize, usize, usize, usize)] = &[
            ("init", 4, 2, 2, 8),
            ("sh", 48, 12, 8, 32),
            ("hello", 4, 1, 1, 4),
            ("cc1", 96, 24, 32, 192),
            ("postgres", 128, 32, 32, 256),
            ("dbench", 24, 8, 4, 64),
            ("lat_proc", 40, 10, 6, 512),
            ("iperf", 16, 4, 4, 32),
        ];
        for &(name, t, d, b, h) in set {
            self.install(cpu, mem, pool, name, t, d, b, h)?;
        }
        Ok(())
    }

    /// Remap frame references through the restore relocation map.
    pub fn translate(&mut self, map: &HashMap<u32, u32>) {
        for img in self.progs.values_mut() {
            for f in img.text.iter_mut().chain(img.data.iter_mut()) {
                if let Some(n) = map.get(&f.0) {
                    *f = FrameNum(*n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::{Machine, MachineConfig};

    fn rig() -> (Arc<Machine>, FramePool) {
        let machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 4096,
            disk_sectors: 64,
        });
        let frames = machine
            .allocator
            .alloc_many(machine.boot_cpu(), 2048)
            .unwrap();
        (machine, FramePool::new(frames))
    }

    #[test]
    fn install_and_lookup() {
        let (m, mut pool) = rig();
        let cpu = m.boot_cpu();
        let mut reg = ProgramRegistry::default();
        let before = pool.available();
        reg.install(cpu, &m.mem, &mut pool, "prog", 3, 2, 1, 4)
            .unwrap();
        assert_eq!(pool.available(), before - 5);
        let img = reg.get("prog").unwrap();
        assert_eq!(img.text.len(), 3);
        assert_eq!(img.data.len(), 2);
        assert_eq!(img.resident_pages(), 5);
        assert!(matches!(reg.get("nope"), Err(KernelError::NoProgram)));
    }

    #[test]
    fn frames_are_stamped_distinctly() {
        let (m, mut pool) = rig();
        let cpu = m.boot_cpu();
        let mut reg = ProgramRegistry::default();
        reg.install(cpu, &m.mem, &mut pool, "a", 2, 0, 0, 0)
            .unwrap();
        reg.install(cpu, &m.mem, &mut pool, "b", 2, 0, 0, 0)
            .unwrap();
        let wa = m
            .mem
            .read_word(cpu, reg.get("a").unwrap().text[0].base())
            .unwrap();
        let wb = m
            .mem
            .read_word(cpu, reg.get("b").unwrap().text[0].base())
            .unwrap();
        assert_ne!(wa, wb);
    }

    #[test]
    fn standard_set_installs() {
        let (m, mut pool) = rig();
        let cpu = m.boot_cpu();
        let mut reg = ProgramRegistry::default();
        reg.install_standard(cpu, &m.mem, &mut pool).unwrap();
        assert!(reg.names().contains(&"sh".to_string()));
        assert!(reg.get("cc1").unwrap().heap_pages >= 128);
    }

    #[test]
    fn translate_remaps() {
        let (m, mut pool) = rig();
        let cpu = m.boot_cpu();
        let mut reg = ProgramRegistry::default();
        reg.install(cpu, &m.mem, &mut pool, "p", 1, 1, 0, 0)
            .unwrap();
        let old = reg.get("p").unwrap().text[0];
        let map: HashMap<u32, u32> = [(old.0, 999u32)].into();
        reg.translate(&map);
        assert_eq!(reg.get("p").unwrap().text[0], FrameNum(999));
    }
}
