//! Hypervisor error type.

use simx86::Fault;
use std::fmt;

/// Errors returned by hypercalls and hypervisor-internal operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HvError {
    /// The hypervisor is dormant (Mercury native mode) and cannot serve
    /// hypercalls.
    NotActive,
    /// Unknown or dead domain.
    BadDomain,
    /// The calling domain lacks the privilege for this operation
    /// (e.g. a domU issuing a dom0-only call).
    NotPrivileged(&'static str),
    /// A frame reference was out of range or not owned by the caller.
    BadFrame {
        /// The offending frame number.
        frame: u32,
        /// What went wrong.
        why: &'static str,
    },
    /// An `mmu_update` entry named a slot past the end of its table.
    BadIndex {
        /// The page-table frame.
        table: u32,
        /// The slot asked for.
        index: usize,
    },
    /// A page-table validation rule was violated.
    TypeConflict(&'static str),
    /// No frames left to satisfy an allocation.
    OutOfMemory,
    /// A grant reference was invalid or already in use.
    BadGrant(&'static str),
    /// An event-channel port was invalid or unbound.
    BadPort,
    /// An underlying simulated-hardware fault surfaced.
    Hardware(Fault),
    /// A save/restore or migration image was malformed.
    BadImage(String),
    /// The operation conflicts with current state (e.g. destroying a
    /// domain that still has mapped grants).
    Busy(&'static str),
}

impl fmt::Display for HvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvError::NotActive => write!(f, "hypervisor is not active"),
            HvError::BadDomain => write!(f, "bad domain reference"),
            HvError::NotPrivileged(w) => write!(f, "operation requires privilege: {w}"),
            HvError::BadFrame { frame, why } => write!(f, "bad frame {frame}: {why}"),
            HvError::BadIndex { table, index } => {
                write!(f, "bad index {index} into page table {table}")
            }
            HvError::TypeConflict(w) => write!(f, "page type conflict: {w}"),
            HvError::OutOfMemory => write!(f, "out of memory"),
            HvError::BadGrant(w) => write!(f, "bad grant: {w}"),
            HvError::BadPort => write!(f, "bad event-channel port"),
            HvError::Hardware(fault) => write!(f, "hardware fault: {fault}"),
            HvError::BadImage(w) => write!(f, "bad image: {w}"),
            HvError::Busy(w) => write!(f, "busy: {w}"),
        }
    }
}

impl std::error::Error for HvError {}

impl From<Fault> for HvError {
    fn from(fault: Fault) -> Self {
        HvError::Hardware(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from_fault() {
        let e: HvError = Fault::DoubleFault.into();
        assert!(e.to_string().contains("double fault"));
        assert!(HvError::NotActive.to_string().contains("not active"));
    }
}
