//! Kernel error type.

use simx86::Fault;
use std::fmt;
use xenon::HvError;

/// Errors surfaced by kernel operations (syscalls and internals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// No such process.
    NoProcess,
    /// Bad file descriptor.
    BadFd,
    /// No such file or directory.
    NoEnt,
    /// File already exists (exclusive create).
    Exists,
    /// Out of physical frames.
    NoMem,
    /// Out of disk blocks or inodes.
    NoSpace,
    /// Invalid argument.
    Invalid(&'static str),
    /// Operation would block (pipe/socket empty or full).
    WouldBlock,
    /// The address is not mapped / not accessible.
    BadAddress,
    /// A hardware fault the kernel could not resolve (the simulated
    /// equivalent of an oops).
    Oops(Fault),
    /// A hypercall failed (virtual mode only).
    Hypervisor(HvError),
    /// The process table is full (`fork` past [`crate::kernel::MAX_PROCESSES`];
    /// Linux's `EAGAIN`).
    ProcessLimit,
    /// Unknown program image.
    NoProgram,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoProcess => write!(f, "no such process"),
            KernelError::BadFd => write!(f, "bad file descriptor"),
            KernelError::NoEnt => write!(f, "no such file or directory"),
            KernelError::Exists => write!(f, "file exists"),
            KernelError::NoMem => write!(f, "out of memory"),
            KernelError::NoSpace => write!(f, "no space left on device"),
            KernelError::Invalid(w) => write!(f, "invalid argument: {w}"),
            KernelError::WouldBlock => write!(f, "operation would block"),
            KernelError::BadAddress => write!(f, "bad address"),
            KernelError::Oops(fault) => write!(f, "kernel oops: {fault}"),
            KernelError::Hypervisor(e) => write!(f, "hypercall failed: {e}"),
            KernelError::ProcessLimit => write!(f, "process table full"),
            KernelError::NoProgram => write!(f, "no such program image"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<Fault> for KernelError {
    fn from(fault: Fault) -> Self {
        KernelError::Oops(fault)
    }
}

impl From<HvError> for KernelError {
    fn from(e: HvError) -> Self {
        KernelError::Hypervisor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: KernelError = Fault::DoubleFault.into();
        assert!(matches!(e, KernelError::Oops(_)));
        let e: KernelError = HvError::NotActive.into();
        assert!(e.to_string().contains("not active"));
    }
}
