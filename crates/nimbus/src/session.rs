//! Sessions: how workload drivers enter the kernel.
//!
//! A session binds one host thread to one simulated CPU.  Each syscall
//! passes a *service point*: the timer is polled, pending interrupts are
//! dispatched, and the paravirt object's syscall entry/exit costs are
//! charged — the simulation's equivalent of the user/kernel boundary.

use crate::drivers::block::BlockDriver;
use crate::drivers::net::NetDriver;
use crate::error::KernelError;
use crate::kernel::{Kernel, MmapBacking, ReadOutcome, RecvOutcome, SlotCache, WriteOutcome};
use crate::mm::Prot;
use crate::paravirt::PvOps;
use crate::process::Pid;
use simx86::paging::{VirtAddr, PAGE_SIZE};
use simx86::{costs, Cpu};
use std::cell::Ref;
use std::sync::Arc;

/// A driver-thread ↔ CPU binding.
///
/// One host thread drives a session (DESIGN.md §14b), so it keeps its
/// own copy of the kernel's VO and drivers and re-reads one only when
/// the kernel published a new one: a syscall's hit path takes no lock.
pub struct Session {
    kernel: Arc<Kernel>,
    cpu: Arc<Cpu>,
    pv: SlotCache<Arc<dyn PvOps>>,
    block: SlotCache<Option<Arc<dyn BlockDriver>>>,
    net: SlotCache<Option<Arc<dyn NetDriver>>>,
}

impl Session {
    /// Open a session on CPU `cpu_id`.
    pub fn new(kernel: Arc<Kernel>, cpu_id: usize) -> Session {
        let cpu = Arc::clone(&kernel.machine.cpus[cpu_id]);
        Session {
            pv: SlotCache::new(&kernel.pv),
            block: SlotCache::new(&kernel.block),
            net: SlotCache::new(&kernel.net),
            kernel,
            cpu,
        }
    }

    /// The kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The CPU this session drives.
    pub fn cpu(&self) -> &Arc<Cpu> {
        &self.cpu
    }

    /// Pass a service point: poll devices/timer and deliver pending
    /// interrupts.
    pub fn service(&self) {
        self.kernel.machine.timer.poll(&self.cpu);
        self.cpu.service_pending();
    }

    fn enter(&self) {
        self.service();
        merctrace::span_begin!(self.cpu.id, "nimbus.syscall", self.cpu.cycles());
        self.pv.read(&self.kernel.pv).syscall_entry(&self.cpu);
    }

    fn leave(&self) {
        self.pv.read(&self.kernel.pv).syscall_exit(&self.cpu);
        merctrace::span_end!(self.cpu.id, "nimbus.syscall", self.cpu.cycles());
    }

    fn syscall<R>(&self, f: impl FnOnce() -> Result<R, KernelError>) -> Result<R, KernelError> {
        self.enter();
        let r = f();
        self.leave();
        r
    }

    /// The block driver the kernel last published.
    fn block(&self) -> Ref<'_, Option<Arc<dyn BlockDriver>>> {
        self.block.read(&self.kernel.block)
    }

    /// The net driver the kernel last published.
    fn net(&self) -> Ref<'_, Option<Arc<dyn NetDriver>>> {
        self.net.read(&self.kernel.net)
    }

    // ---- process management --------------------------------------------

    /// Current process on this CPU.
    pub fn current_pid(&self) -> Option<Pid> {
        self.kernel.current_pid(&self.cpu)
    }

    /// `fork`.
    pub fn fork(&self) -> Result<Pid, KernelError> {
        self.syscall(|| self.kernel.fork(&self.cpu))
    }

    /// `execve`.
    pub fn exec(&self, prog: &str) -> Result<(), KernelError> {
        self.syscall(|| self.kernel.exec(&self.cpu, prog))
    }

    /// `exit`.
    pub fn exit(&self, code: i32) -> Result<Option<Pid>, KernelError> {
        self.syscall(|| self.kernel.exit(&self.cpu, code))
    }

    /// `waitpid(-1)`: `Ok(Some)` = reaped, `Ok(None)` = blocked.
    pub fn waitpid(&self) -> Result<Option<(Pid, i32)>, KernelError> {
        self.syscall(|| self.kernel.waitpid(&self.cpu))
    }

    /// `sched_yield`.
    pub fn sched_yield(&self) -> Result<Pid, KernelError> {
        self.syscall(|| self.kernel.sched_yield(&self.cpu))
    }

    /// Directed yield: make `pid` current (it must be ready).
    pub fn run_as(&self, pid: Pid) -> Result<(), KernelError> {
        self.syscall(|| self.kernel.yield_to(&self.cpu, pid))
    }

    /// Run the idle loop once: service interrupts and schedule anything
    /// runnable.  Returns the running pid if any.
    pub fn idle(&self) -> Result<Option<Pid>, KernelError> {
        self.service();
        self.kernel.resume_if_idle(&self.cpu)
    }

    // ---- pipes / fds -----------------------------------------------------

    /// `pipe` → (read fd, write fd).
    pub fn pipe(&self) -> Result<(usize, usize), KernelError> {
        self.syscall(|| self.kernel.pipe(&self.cpu))
    }

    /// `read`.
    pub fn read(&self, fd: usize, len: usize) -> Result<ReadOutcome, KernelError> {
        self.syscall(|| {
            self.kernel
                .read(&self.cpu, fd, len, self.block().as_deref())
        })
    }

    /// `write`.
    pub fn write(&self, fd: usize, data: &[u8]) -> Result<WriteOutcome, KernelError> {
        self.syscall(|| {
            self.kernel
                .write(&self.cpu, fd, data, self.block().as_deref())
        })
    }

    /// `close`.
    pub fn close(&self, fd: usize) -> Result<(), KernelError> {
        self.syscall(|| self.kernel.close(&self.cpu, fd))
    }

    // ---- filesystem --------------------------------------------------------

    /// `open`.
    pub fn open(&self, name: &str, create: bool) -> Result<usize, KernelError> {
        self.syscall(|| self.kernel.open(&self.cpu, name, create))
    }

    /// `unlink`.
    pub fn unlink(&self, name: &str) -> Result<(), KernelError> {
        self.syscall(|| self.kernel.unlink(&self.cpu, name))
    }

    /// `stat`.
    pub fn stat(&self, name: &str) -> Result<crate::fs::Stat, KernelError> {
        self.syscall(|| self.kernel.stat(&self.cpu, name))
    }

    /// `sync`.
    pub fn sync(&self) -> Result<usize, KernelError> {
        self.syscall(|| self.kernel.sync(&self.cpu))
    }

    /// `lseek`.
    pub fn lseek(&self, fd: usize, pos: u64) -> Result<(), KernelError> {
        self.syscall(|| self.kernel.lseek(&self.cpu, fd, pos))
    }

    // ---- memory --------------------------------------------------------------

    /// `mmap`.
    pub fn mmap(
        &self,
        pages: u64,
        prot: Prot,
        backing: MmapBacking,
    ) -> Result<VirtAddr, KernelError> {
        self.syscall(|| self.kernel.mmap(&self.cpu, pages, prot, backing))
    }

    /// `munmap`.
    pub fn munmap(&self, va: VirtAddr, pages: u64) -> Result<u64, KernelError> {
        self.syscall(|| self.kernel.munmap(&self.cpu, va, pages))
    }

    /// `mprotect`.
    pub fn mprotect(&self, va: VirtAddr, pages: u64, prot: Prot) -> Result<(), KernelError> {
        self.syscall(|| self.kernel.mprotect(&self.cpu, va, pages, prot))
    }

    /// Touch one user page (read or write), faulting as needed.  This
    /// is "user code" — no syscall overhead, just the access and any
    /// fault handling.
    pub fn touch(&self, va: VirtAddr, write: bool) -> Result<(), KernelError> {
        self.kernel.user_access(&self.cpu, va, write)?;
        Ok(())
    }

    /// Touch a byte range, page by page, charging a cache-line cost per
    /// 64 bytes (the lmbench ctx-switch working-set model).
    pub fn touch_range(&self, va: VirtAddr, len: u64, write: bool) -> Result<(), KernelError> {
        let mut lines = 0u64;
        let mut page = va.page_base().0;
        let end = va.0 + len;
        while page < end {
            self.touch(VirtAddr(page), write)?;
            lines += (PAGE_SIZE.min(end - page)).div_ceil(64);
            page += PAGE_SIZE;
        }
        // Two-tier cache refill model (see costs.rs).
        let l2_lines = lines.min(costs::CACHE_L2_RESIDENT_LINES);
        let mem_lines = lines - l2_lines;
        self.cpu.tick(
            l2_lines * costs::CACHE_LINE_REFILL_L2 + mem_lines * costs::CACHE_LINE_REFILL_MEM,
        );
        Ok(())
    }

    /// Write a word in user memory.
    pub fn poke(&self, va: VirtAddr, value: u64) -> Result<(), KernelError> {
        self.kernel.poke(&self.cpu, va, value)
    }

    /// Read a word from user memory.
    pub fn peek(&self, va: VirtAddr) -> Result<u64, KernelError> {
        self.kernel.peek(&self.cpu, va)
    }

    /// Clear a pending SIGSEGV on the current process.
    pub fn clear_signal(&self) {
        self.kernel.clear_signal(&self.cpu)
    }

    // ---- network -----------------------------------------------------------

    /// `socket(port)`.
    pub fn socket(&self, port: u16) -> Result<usize, KernelError> {
        self.syscall(|| self.kernel.socket(&self.cpu, port))
    }

    /// `sendto`.
    pub fn sendto(&self, fd: usize, dst_port: u16, payload: &[u8]) -> Result<(), KernelError> {
        self.syscall(|| {
            self.kernel
                .sendto(&self.cpu, fd, dst_port, payload, self.net().as_deref())
        })
    }

    /// `recvfrom`.
    pub fn recvfrom(&self, fd: usize) -> Result<RecvOutcome, KernelError> {
        self.syscall(|| self.kernel.recvfrom(&self.cpu, fd, self.net().as_deref()))
    }

    /// Non-blocking `recvfrom` (MSG_DONTWAIT).
    pub fn recvfrom_nonblock(&self, fd: usize) -> Result<Option<(u16, Vec<u8>)>, KernelError> {
        self.syscall(|| {
            self.kernel
                .recvfrom_nonblock(&self.cpu, fd, self.net().as_deref())
        })
    }

    // ---- user compute ----------------------------------------------------

    /// Burn `cycles` of pure user-mode compute (identical in every
    /// execution mode — which is exactly why compute-bound workloads
    /// show little virtualization overhead).
    pub fn compute(&self, cycles: u64) {
        self.cpu.tick(cycles);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel::tests::{boot_sized, machine};
    use crate::paravirt::{ExecMode, KernelMap};
    use simx86::cpu::IdtTable;
    use simx86::mem::FrameNum;
    use simx86::paging::Pte;

    /// A VO that charges its own syscall entry and exit costs, and its
    /// own extra cost per `set_pte`, and does everything else as the VO
    /// it wraps.
    pub(crate) struct Marked {
        pub(crate) inner: Arc<dyn PvOps>,
        pub(crate) entry: u64,
        pub(crate) exit: u64,
        pub(crate) pte: u64,
    }

    impl PvOps for Marked {
        fn mode(&self) -> ExecMode {
            self.inner.mode()
        }
        fn name(&self) -> &'static str {
            "marked"
        }
        fn irq_disable(&self, cpu: &Arc<Cpu>) {
            self.inner.irq_disable(cpu)
        }
        fn irq_enable(&self, cpu: &Arc<Cpu>) {
            self.inner.irq_enable(cpu)
        }
        fn load_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
            self.inner.load_base_table(cpu, pgd)
        }
        fn load_trap_table(&self, cpu: &Arc<Cpu>, idt: Arc<IdtTable>) -> Result<(), KernelError> {
            self.inner.load_trap_table(cpu, idt)
        }
        fn set_kernel_stack(&self, cpu: &Arc<Cpu>, sp: u64) -> Result<(), KernelError> {
            self.inner.set_kernel_stack(cpu, sp)
        }
        fn syscall_entry(&self, cpu: &Arc<Cpu>) {
            cpu.tick(self.entry);
        }
        fn syscall_exit(&self, cpu: &Arc<Cpu>) {
            cpu.tick(self.exit);
        }
        fn context_switch_extra(&self, cpu: &Arc<Cpu>) {
            self.inner.context_switch_extra(cpu)
        }
        fn set_pte(
            &self,
            cpu: &Arc<Cpu>,
            table: FrameNum,
            index: usize,
            val: Pte,
        ) -> Result<(), KernelError> {
            cpu.tick(self.pte);
            self.inner.set_pte(cpu, table, index, val)
        }
        fn set_ptes(
            &self,
            cpu: &Arc<Cpu>,
            table: FrameNum,
            updates: &[(usize, Pte)],
        ) -> Result<(), KernelError> {
            self.inner.set_ptes(cpu, table, updates)
        }
        fn flush_tlb(&self, cpu: &Arc<Cpu>) {
            self.inner.flush_tlb(cpu)
        }
        fn flush_tlb_all(&self, cpu: &Arc<Cpu>) {
            self.inner.flush_tlb_all(cpu)
        }
        fn invlpg(&self, cpu: &Arc<Cpu>, vpn: u64) {
            self.inner.invlpg(cpu, vpn)
        }
        fn register_page_table(
            &self,
            cpu: &Arc<Cpu>,
            kmap: &KernelMap,
            frame: FrameNum,
        ) -> Result<(), KernelError> {
            self.inner.register_page_table(cpu, kmap, frame)
        }
        fn unregister_page_table(
            &self,
            cpu: &Arc<Cpu>,
            kmap: &KernelMap,
            frame: FrameNum,
        ) -> Result<(), KernelError> {
            self.inner.unregister_page_table(cpu, kmap, frame)
        }
        fn pin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
            self.inner.pin_base_table(cpu, pgd)
        }
        fn unpin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
            self.inner.unpin_base_table(cpu, pgd)
        }
        fn console_write(&self, cpu: &Arc<Cpu>, msg: &str) {
            self.inner.console_write(cpu, msg)
        }
    }

    #[test]
    fn a_vo_published_inside_a_syscall_is_the_one_leave_charges() {
        let m = machine(1);
        let k = boot_sized(&m, 1024, 16);
        let marked = |entry, exit| -> Arc<dyn PvOps> {
            Arc::new(Marked {
                inner: k.pv(),
                entry,
                exit,
                pte: 0,
            })
        };
        let (first, second) = (marked(1_000, 10), marked(7_000, 300));
        k.set_pv(first);
        let sess = Session::new(Arc::clone(&k), 0);
        let cost = |body: &dyn Fn() -> Result<(), KernelError>| {
            let t0 = sess.cpu().cycles();
            sess.syscall(body).unwrap();
            sess.cpu().cycles() - t0
        };

        let plain = cost(&|| Ok(()));
        let swapped = cost(&|| {
            k.set_pv(Arc::clone(&second));
            Ok(())
        });
        assert_eq!(
            swapped - plain,
            300 - 10,
            "entered through the first VO, left through the second"
        );
        let after = cost(&|| Ok(()));
        assert_eq!(
            after - swapped,
            7_000 - 1_000,
            "the next syscall enters through the second"
        );
    }
}
