//! Processes, file descriptors and pipes.

use crate::mm::AddressSpace;
use simx86::cpu::Selector;
use std::collections::VecDeque;

/// Process identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u32);

/// What a blocked process is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOn {
    /// Data in a pipe.
    PipeRead(u32),
    /// Space in a pipe.
    PipeWrite(u32),
    /// A datagram on a socket.
    SockRead(u32),
    /// A child to exit.
    Wait,
}

/// Scheduler-visible process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// On the run queue.
    Ready,
    /// Currently on a CPU.
    Running,
    /// Waiting.
    Blocked(BlockOn),
    /// Exited; waiting to be reaped.
    Zombie(i32),
}

/// One saved trap context on a process's kernel stack.  The segment
/// selectors cached here encode the privilege level at save time — the
/// state §5.1.2 says Mercury must patch during a mode switch, lest the
/// resume path pop a stale selector and take a general protection
/// fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedTrapContext {
    /// Saved code-segment selector.
    pub cs: Selector,
    /// Saved stack-segment selector.
    pub ss: Selector,
}

/// An open descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Desc {
    /// Read end of a pipe.
    PipeR(u32),
    /// Write end of a pipe.
    PipeW(u32),
    /// An open file with a cursor.
    File {
        /// Inode.
        ino: u32,
        /// Byte position.
        pos: u64,
    },
    /// A datagram socket.
    Sock(u32),
}

/// A process.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// Identifier.
    pub pid: Pid,
    /// Parent.
    pub parent: Pid,
    /// Scheduler state.
    pub state: ProcState,
    /// The address space.
    pub aspace: AddressSpace,
    /// Descriptor table.
    pub fds: Vec<Option<Desc>>,
    /// Saved trap contexts on the kernel stack (top = last).
    pub kstack: Vec<SavedTrapContext>,
    /// Program name currently executing.
    pub prog: String,
    /// Next mmap placement cursor.
    pub mmap_cursor: u64,
    /// A fatal signal is pending (segfault).
    pub signalled: bool,
}

impl Process {
    /// Allocate the lowest free descriptor slot.
    pub fn alloc_fd(&mut self, desc: Desc) -> usize {
        if let Some(i) = self.fds.iter().position(|d| d.is_none()) {
            self.fds[i] = Some(desc);
            i
        } else {
            self.fds.push(Some(desc));
            self.fds.len() - 1
        }
    }

    /// Look a descriptor up.
    pub fn fd(&self, n: usize) -> Option<Desc> {
        self.fds.get(n).copied().flatten()
    }

    /// Close a descriptor; returns what it was.
    pub fn close_fd(&mut self, n: usize) -> Option<Desc> {
        self.fds.get_mut(n).and_then(|d| d.take())
    }

    /// Is this process runnable (ready or running)?
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, ProcState::Ready | ProcState::Running)
    }
}

/// Pipe capacity in bytes.
pub const PIPE_CAPACITY: usize = 65536;

/// A pipe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pipe {
    /// Buffered bytes.
    pub buf: VecDeque<u8>,
    /// Read ends open.
    pub readers: u32,
    /// Write ends open.
    pub writers: u32,
}

impl Pipe {
    /// Space left before writers block.
    pub fn space(&self) -> usize {
        PIPE_CAPACITY - self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::mem::FrameNum;

    fn proc_with_fds() -> Process {
        Process {
            pid: Pid(1),
            parent: Pid(0),
            state: ProcState::Ready,
            aspace: AddressSpace {
                pgd: FrameNum(1),
                user_l1s: vec![],
                vmas: vec![],
                pinned: false,
            },
            fds: vec![],
            kstack: vec![],
            prog: "init".into(),
            mmap_cursor: 0,
            signalled: false,
        }
    }

    #[test]
    fn fd_allocation_reuses_lowest_slot() {
        let mut p = proc_with_fds();
        assert_eq!(p.alloc_fd(Desc::PipeR(0)), 0);
        assert_eq!(p.alloc_fd(Desc::PipeW(0)), 1);
        assert_eq!(p.alloc_fd(Desc::Sock(5)), 2);
        p.close_fd(1);
        assert_eq!(p.fd(1), None);
        assert_eq!(p.alloc_fd(Desc::File { ino: 3, pos: 0 }), 1);
        assert_eq!(p.fd(1), Some(Desc::File { ino: 3, pos: 0 }));
    }

    #[test]
    fn runnable_states() {
        let mut p = proc_with_fds();
        assert!(p.is_runnable());
        p.state = ProcState::Blocked(BlockOn::Wait);
        assert!(!p.is_runnable());
        p.state = ProcState::Zombie(0);
        assert!(!p.is_runnable());
    }

    #[test]
    fn pipe_space() {
        let mut pipe = Pipe::default();
        assert_eq!(pipe.space(), PIPE_CAPACITY);
        pipe.buf.extend(std::iter::repeat_n(0u8, 100));
        assert_eq!(pipe.space(), PIPE_CAPACITY - 100);
    }
}
