//! Property-based tests for the kernel's core structures: the frame
//! pool's reference counting and the filesystem against a flat-file
//! reference model.

use faultgen::rng::check;
use nimbus::fs::Vfs;
use nimbus::mm::FramePool;
use simx86::mem::FrameNum;
use simx86::Cpu;
use std::collections::HashMap;
use std::sync::Arc;

/// A host-memory block driver (no cost model needed here).
struct MemDriver(simx86::sync::Mutex<HashMap<u64, Vec<u8>>>);
impl nimbus::drivers::block::BlockDriver for MemDriver {
    fn read_block(&self, _c: &Arc<Cpu>, b: u64, out: &mut [u8]) -> Result<(), nimbus::KernelError> {
        match self.0.lock().get(&b) {
            Some(d) => out.copy_from_slice(d),
            None => out.fill(0),
        }
        Ok(())
    }
    fn write_block(&self, _c: &Arc<Cpu>, b: u64, d: &[u8]) -> Result<(), nimbus::KernelError> {
        self.0.lock().insert(b, d.to_vec());
        Ok(())
    }
    fn flush(&self, _c: &Arc<Cpu>) -> Result<(), nimbus::KernelError> {
        Ok(())
    }
    fn kind(&self) -> &'static str {
        "prop-mem"
    }
}

/// Pool conservation: allocations + frees with random COW sharing
/// never lose or duplicate frames.
#[test]
fn pool_conserves_frames() {
    check("pool_conserves_frames", 256, |rng| {
        let total = 32u32;
        let mut pool = FramePool::new((1..=total).map(FrameNum).collect());
        let cpu = Arc::new(Cpu::new(0));
        let mut live: Vec<FrameNum> = Vec::new(); // one entry per reference
        for _ in 0..rng.range(1, 200) {
            match rng.below(3) {
                0 => {
                    if let Some(f) = pool.alloc(&cpu) {
                        assert!(!live.contains(&f), "allocated a live frame");
                        live.push(f);
                    }
                }
                1 => {
                    if let Some(&f) = live.last() {
                        pool.incref(f);
                        live.push(f);
                    }
                }
                _ => {
                    if let Some(f) = live.pop() {
                        pool.decref(f);
                    }
                }
            }
            // Reference counts in the pool match the model exactly.
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for f in &live {
                *counts.entry(f.0).or_default() += 1;
            }
            for (&f, &c) in &counts {
                assert_eq!(pool.refcount(FrameNum(f)), c);
            }
            let distinct = counts.len();
            assert_eq!(pool.available(), total as usize - distinct);
        }
    });
}

/// The filesystem behaves like a map of flat byte vectors under
/// random create/write/read/truncate/unlink sequences.
#[test]
fn vfs_matches_reference_model() {
    check("vfs_matches_reference_model", 256, |rng| {
        let driver = MemDriver(simx86::sync::Mutex::new(HashMap::new()));
        let mut fs = Vfs::mkfs(1, 512);
        let cpu = Arc::new(Cpu::new(0));
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();

        for _ in 0..rng.range(1, 60) {
            let (op, file, pos) = (rng.below(5), rng.below(4), rng.below(12000));
            let len = rng.below(300) as usize;
            let data = rng.vec(len, |r| r.next_u64() as u8);
            let name = format!("f{file}");
            match op {
                0 => {
                    let created = fs.create(&cpu, &name).is_ok();
                    assert_eq!(created, !model.contains_key(&name));
                    if created {
                        model.insert(name, Vec::new());
                    }
                }
                1 => {
                    if let Some(mf) = model.get_mut(&name) {
                        let ino = fs.lookup(&cpu, &name).unwrap();
                        if fs.write(&cpu, &driver, ino, pos, &data).is_ok() {
                            let end = pos as usize + data.len();
                            if mf.len() < end {
                                mf.resize(end, 0);
                            }
                            mf[pos as usize..end].copy_from_slice(&data);
                        }
                    }
                }
                2 => {
                    if let Some(mf) = model.get(&name) {
                        let ino = fs.lookup(&cpu, &name).unwrap();
                        let got = fs.read(&cpu, &driver, ino, pos, 200).unwrap();
                        let expect: Vec<u8> = mf
                            .iter()
                            .copied()
                            .skip(pos as usize)
                            .take(200.min(mf.len().saturating_sub(pos as usize)))
                            .collect();
                        assert_eq!(got, expect);
                        assert_eq!(fs.stat(&cpu, ino).unwrap().size, mf.len() as u64);
                    }
                }
                3 => {
                    if model.remove(&name).is_some() {
                        fs.unlink(&cpu, &name).unwrap();
                    } else {
                        assert!(fs.unlink(&cpu, &name).is_err());
                    }
                }
                _ => {
                    if let Some(mf) = model.get_mut(&name) {
                        let ino = fs.lookup(&cpu, &name).unwrap();
                        fs.truncate(&cpu, ino).unwrap();
                        mf.clear();
                    }
                }
            }
        }
        // Directory listing matches.
        let mut names: Vec<String> = model.keys().cloned().collect();
        names.sort();
        assert_eq!(fs.list(), names);
    });
}
