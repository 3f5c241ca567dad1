//! Grant tables: controlled inter-domain frame sharing.
//!
//! A frontend grants its backend access to the frames carrying I/O
//! payloads; the backend maps the grant, DMAs, and unmaps.  Grants are
//! what keep the split device model (§5.2) isolation-preserving: the
//! backend can only touch exactly the frames it was handed.

use crate::domain::DomId;
use crate::error::HvError;
use simx86::costs;
use simx86::mem::FrameNum;
use simx86::sync::Mutex;
use simx86::Cpu;
use std::collections::HashMap;

/// A grant reference, scoped to the granting domain.
pub type GrantRef = u32;

#[derive(Debug, Clone, Copy)]
struct GrantEntry {
    frame: FrameNum,
    readonly: bool,
    granted_to: DomId,
    mapped: bool,
}

/// The machine-wide grant table (logically per-domain; keyed by
/// grantor).
pub struct GrantTables {
    entries: Mutex<HashMap<(DomId, GrantRef), GrantEntry>>,
    next_ref: Mutex<HashMap<DomId, GrantRef>>,
}

impl GrantTables {
    /// An empty grant table.
    pub fn new() -> Self {
        GrantTables {
            entries: Mutex::new(HashMap::new()),
            next_ref: Mutex::new(HashMap::new()),
        }
    }

    /// `grantor` grants `to` access to `frame`.  Returns the grant ref
    /// the grantee uses to map it.
    pub fn grant(
        &self,
        cpu: &Cpu,
        grantor: DomId,
        to: DomId,
        frame: FrameNum,
        readonly: bool,
    ) -> GrantRef {
        cpu.tick(costs::GRANT_OP);
        let mut next = self.next_ref.lock();
        let r = next.entry(grantor).or_insert(0);
        let gref = *r;
        *r += 1;
        self.entries.lock().insert(
            (grantor, gref),
            GrantEntry {
                frame,
                readonly,
                granted_to: to,
                mapped: false,
            },
        );
        gref
    }

    /// `mapper` maps grant `(grantor, gref)`.  Returns the frame and
    /// whether the mapping is read-only.
    pub fn map(
        &self,
        cpu: &Cpu,
        mapper: DomId,
        grantor: DomId,
        gref: GrantRef,
    ) -> Result<(FrameNum, bool), HvError> {
        cpu.tick(costs::GRANT_OP);
        let mut entries = self.entries.lock();
        let e = entries
            .get_mut(&(grantor, gref))
            .ok_or(HvError::BadGrant("no such grant"))?;
        if e.granted_to != mapper {
            return Err(HvError::BadGrant("grant not addressed to mapper"));
        }
        if e.mapped {
            return Err(HvError::BadGrant("grant already mapped"));
        }
        e.mapped = true;
        Ok((e.frame, e.readonly))
    }

    /// Unmap a previously mapped grant.
    pub fn unmap(
        &self,
        cpu: &Cpu,
        mapper: DomId,
        grantor: DomId,
        gref: GrantRef,
    ) -> Result<(), HvError> {
        cpu.tick(costs::GRANT_OP);
        let mut entries = self.entries.lock();
        let e = entries
            .get_mut(&(grantor, gref))
            .ok_or(HvError::BadGrant("no such grant"))?;
        if e.granted_to != mapper || !e.mapped {
            return Err(HvError::BadGrant("grant not mapped by caller"));
        }
        e.mapped = false;
        Ok(())
    }

    /// The grantor revokes a grant.  Fails while the grantee still has
    /// it mapped.
    pub fn revoke(&self, cpu: &Cpu, grantor: DomId, gref: GrantRef) -> Result<(), HvError> {
        cpu.tick(costs::GRANT_OP);
        let mut entries = self.entries.lock();
        match entries.get(&(grantor, gref)) {
            None => Err(HvError::BadGrant("no such grant")),
            Some(e) if e.mapped => Err(HvError::Busy("grant still mapped")),
            Some(_) => {
                entries.remove(&(grantor, gref));
                Ok(())
            }
        }
    }

    /// Adopt the complete grant state of `other` (hypervisor
    /// live-update re-binding): every `(grantor, ref)` key, frame,
    /// mapped flag and per-grantor ref counter carries over, so grant
    /// refs held in guest I/O rings stay valid across the swap.
    pub fn transfer_from(&self, other: &GrantTables) {
        let entries = other.entries.lock().clone();
        let next = other.next_ref.lock().clone();
        *self.entries.lock() = entries;
        *self.next_ref.lock() = next;
    }

    /// Clear every entry in place.  The live-update discard path uses
    /// this to return a failed successor's table to pristine without
    /// entering the allocator (`HashMap::clear` keeps its capacity).
    pub fn reset(&self) {
        self.entries.lock().clear();
        self.next_ref.lock().clear();
    }

    /// Outstanding grants by `grantor` (diagnostics / leak checks).
    pub fn outstanding(&self, grantor: DomId) -> usize {
        self.entries
            .lock()
            .keys()
            .filter(|(g, _)| *g == grantor)
            .count()
    }
}

impl Default for GrantTables {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const D0: DomId = DomId(0);
    const D1: DomId = DomId(1);

    fn rig() -> (GrantTables, Arc<Cpu>) {
        (GrantTables::new(), Arc::new(Cpu::new(0)))
    }

    #[test]
    fn grant_map_unmap_revoke() {
        let (g, cpu) = rig();
        let gref = g.grant(&cpu, D1, D0, FrameNum(7), false);
        let (frame, ro) = g.map(&cpu, D0, D1, gref).unwrap();
        assert_eq!(frame, FrameNum(7));
        assert!(!ro);
        // Revoke while mapped fails.
        assert!(matches!(g.revoke(&cpu, D1, gref), Err(HvError::Busy(_))));
        g.unmap(&cpu, D0, D1, gref).unwrap();
        g.revoke(&cpu, D1, gref).unwrap();
        assert_eq!(g.outstanding(D1), 0);
    }

    #[test]
    fn map_by_wrong_domain_fails() {
        let (g, cpu) = rig();
        let gref = g.grant(&cpu, D1, D0, FrameNum(7), true);
        assert!(g.map(&cpu, DomId(5), D1, gref).is_err());
        // Right domain sees the read-only flag.
        let (_, ro) = g.map(&cpu, D0, D1, gref).unwrap();
        assert!(ro);
    }

    #[test]
    fn double_map_fails_until_unmap() {
        let (g, cpu) = rig();
        let gref = g.grant(&cpu, D1, D0, FrameNum(3), false);
        g.map(&cpu, D0, D1, gref).unwrap();
        assert!(g.map(&cpu, D0, D1, gref).is_err());
        g.unmap(&cpu, D0, D1, gref).unwrap();
        g.map(&cpu, D0, D1, gref).unwrap();
    }

    #[test]
    fn grant_refs_are_per_grantor() {
        let (g, cpu) = rig();
        let a = g.grant(&cpu, D0, D1, FrameNum(1), false);
        let b = g.grant(&cpu, D1, D0, FrameNum(2), false);
        // Independent counters: both start at 0.
        assert_eq!(a, 0);
        assert_eq!(b, 0);
        assert_eq!(g.outstanding(D0), 1);
        assert_eq!(g.outstanding(D1), 1);
    }

    #[test]
    fn grant_charges_cycles() {
        let (g, cpu) = rig();
        let before = cpu.cycles();
        g.grant(&cpu, D0, D1, FrameNum(1), false);
        assert_eq!(cpu.cycles() - before, costs::GRANT_OP);
    }
}
