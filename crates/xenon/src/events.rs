//! Event channels: the hypervisor's virtual interrupt fabric.
//!
//! A pair of bound ports lets two domains notify each other; the
//! receiving domain's pending bit is set in its shared-info word and the
//! `EVTCHN_UPCALL` vector is asserted on the CPU running its vCPU 0.
//! The split device model (§5.2) rides on these: frontends kick
//! backends after posting ring requests and vice versa.

use crate::domain::{DomId, Domain};
use crate::error::HvError;
use simx86::costs;
use simx86::sync::Mutex;
use simx86::{Cpu, InterruptController};
use std::sync::atomic::Ordering;

/// Maximum ports per machine (pending bits fit one u64 per domain).
pub const MAX_PORTS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortState {
    /// Allocated, waiting for a peer to bind.
    Unbound,
    /// Connected to `(peer domain, peer port)`.
    Bound { peer_dom: DomId, peer_port: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Channel {
    owner: DomId,
    state: PortState,
}

/// The machine-wide event-channel table.
pub struct EventChannels {
    ports: Mutex<Vec<Option<Channel>>>,
}

impl EventChannels {
    /// An empty table.
    pub fn new() -> Self {
        EventChannels {
            ports: Mutex::new(vec![None; MAX_PORTS]),
        }
    }

    /// Allocate an unbound port owned by `dom`.
    pub fn alloc_unbound(&self, dom: DomId) -> Result<u32, HvError> {
        let mut ports = self.ports.lock();
        let slot = ports
            .iter()
            .position(|p| p.is_none())
            .ok_or(HvError::OutOfMemory)?;
        ports[slot] = Some(Channel {
            owner: dom,
            state: PortState::Unbound,
        });
        Ok(slot as u32)
    }

    /// Bind a new local port for `dom` to `(peer_dom, peer_port)`.
    /// The peer port must be an unbound port owned by `peer_dom`; both
    /// ends become bound to each other.
    pub fn bind_interdomain(
        &self,
        dom: DomId,
        peer_dom: DomId,
        peer_port: u32,
    ) -> Result<u32, HvError> {
        let mut ports = self.ports.lock();
        // Validate the peer end first.
        match ports.get(peer_port as usize).and_then(|p| *p) {
            Some(ch) if ch.owner == peer_dom && ch.state == PortState::Unbound => {}
            _ => return Err(HvError::BadPort),
        }
        let slot = ports
            .iter()
            .position(|p| p.is_none())
            .ok_or(HvError::OutOfMemory)?;
        ports[slot] = Some(Channel {
            owner: dom,
            state: PortState::Bound {
                peer_dom,
                peer_port,
            },
        });
        ports[peer_port as usize] = Some(Channel {
            owner: peer_dom,
            state: PortState::Bound {
                peer_dom: dom,
                peer_port: slot as u32,
            },
        });
        Ok(slot as u32)
    }

    /// Notify through `port` (owned by `dom`): set the peer's pending
    /// bit and assert the upcall vector on the peer's home CPU.
    pub fn send(
        &self,
        cpu: &Cpu,
        intc: &InterruptController,
        dom: &Domain,
        port: u32,
        resolve_peer: impl FnOnce(DomId) -> Option<std::sync::Arc<Domain>>,
    ) -> Result<(), HvError> {
        cpu.tick(costs::EVTCHN_NOTIFY);
        let ch = self
            .ports
            .lock()
            .get(port as usize)
            .and_then(|p| *p)
            .ok_or(HvError::BadPort)?;
        if ch.owner != dom.id {
            return Err(HvError::NotPrivileged("send on foreign port"));
        }
        let PortState::Bound {
            peer_dom,
            peer_port,
        } = ch.state
        else {
            return Err(HvError::BadPort);
        };
        let peer = resolve_peer(peer_dom).ok_or(HvError::BadDomain)?;
        peer.evt_pending
            .fetch_or(1u64 << peer_port, Ordering::AcqRel);
        let masked = peer.evt_masked.load(Ordering::Acquire) & (1u64 << peer_port) != 0;
        if !masked {
            intc.raise(peer.home_pcpu(), simx86::cpu::vectors::EVTCHN_UPCALL);
        }
        // A notification also wakes a blocked peer vCPU.
        peer.set_runnable(0, true);
        Ok(())
    }

    /// Close a port (and unbind its peer end, which reverts to unbound).
    pub fn close(&self, dom: DomId, port: u32) -> Result<(), HvError> {
        let mut ports = self.ports.lock();
        let ch = ports
            .get(port as usize)
            .and_then(|p| *p)
            .ok_or(HvError::BadPort)?;
        if ch.owner != dom {
            return Err(HvError::NotPrivileged("close of foreign port"));
        }
        if let PortState::Bound { peer_port, .. } = ch.state {
            if let Some(Some(peer)) = ports.get_mut(peer_port as usize).map(|p| p.as_mut()) {
                peer.state = PortState::Unbound;
            }
        }
        ports[port as usize] = None;
        Ok(())
    }

    /// Number of allocated ports (diagnostics).
    pub fn allocated(&self) -> usize {
        self.ports.lock().iter().filter(|p| p.is_some()).count()
    }

    /// Adopt the complete port table of `other` (hypervisor
    /// live-update re-binding): every owner, binding and slot index is
    /// preserved bit-for-bit, so port numbers held by guest frontends
    /// and backends stay valid across the hv-v1 → hv-v2 swap.
    pub fn transfer_from(&self, other: &EventChannels) {
        let theirs = other.ports.lock().clone();
        *self.ports.lock() = theirs;
    }

    /// Clear every port in place.  The live-update discard path uses
    /// this to return a failed successor's table to pristine without
    /// entering the allocator (the slot vector keeps its capacity).
    pub fn reset(&self) {
        let mut ports = self.ports.lock();
        // volint::bound(64) — MAX_PORTS slots
        for p in ports.iter_mut() {
            *p = None;
        }
    }
}

impl Default for EventChannels {
    fn default() -> Self {
        Self::new()
    }
}

/// Drain a domain's pending event bits (the guest's upcall handler does
/// this to find which ports fired).
pub fn take_pending(dom: &Domain) -> u64 {
    dom.evt_pending.swap(0, Ordering::AcqRel)
}

/// Mask or unmask a port's delivery for `dom`.
pub fn set_mask(dom: &Domain, port: u32, masked: bool) {
    if masked {
        dom.evt_masked.fetch_or(1u64 << port, Ordering::AcqRel);
    } else {
        dom.evt_masked.fetch_and(!(1u64 << port), Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::cpu::vectors;
    use std::sync::Arc;

    fn rig() -> (
        EventChannels,
        Arc<Domain>,
        Arc<Domain>,
        Arc<Cpu>,
        InterruptController,
    ) {
        let cpu = Arc::new(Cpu::new(0));
        let intc = InterruptController::new(vec![cpu.clone()]);
        let d0 = Domain::new(DomId(0), "dom0", true, 0);
        let d1 = Domain::new(DomId(1), "domU", false, 0);
        (EventChannels::new(), d0, d1, cpu, intc)
    }

    #[test]
    fn alloc_bind_send_roundtrip() {
        let (ev, d0, d1, cpu, intc) = rig();
        let p1 = ev.alloc_unbound(d1.id).unwrap();
        let p0 = ev.bind_interdomain(d0.id, d1.id, p1).unwrap();
        assert_ne!(p0, p1);

        // dom0 kicks domU.
        let d1c = d1.clone();
        ev.send(&cpu, &intc, &d0, p0, move |id| {
            (id == d1c.id).then(|| d1c.clone())
        })
        .unwrap();
        assert!(cpu.is_pending(vectors::EVTCHN_UPCALL));
        let bits = take_pending(&d1);
        assert_eq!(bits, 1u64 << p1);
        // Second take is empty.
        assert_eq!(take_pending(&d1), 0);
    }

    #[test]
    fn send_respects_mask() {
        let (ev, d0, d1, cpu, intc) = rig();
        let p1 = ev.alloc_unbound(d1.id).unwrap();
        let p0 = ev.bind_interdomain(d0.id, d1.id, p1).unwrap();
        set_mask(&d1, p1, true);
        let d1c = d1.clone();
        ev.send(&cpu, &intc, &d0, p0, move |_| Some(d1c.clone()))
            .unwrap();
        // Pending bit set but no upcall asserted.
        assert!(!cpu.is_pending(vectors::EVTCHN_UPCALL));
        assert_eq!(take_pending(&d1), 1u64 << p1);
    }

    #[test]
    fn send_on_foreign_or_unbound_port_fails() {
        let (ev, d0, d1, cpu, intc) = rig();
        let p1 = ev.alloc_unbound(d1.id).unwrap();
        // d0 doesn't own p1.
        assert!(matches!(
            ev.send(&cpu, &intc, &d0, p1, |_| None),
            Err(HvError::NotPrivileged(_))
        ));
        // d1 owns it but it's unbound.
        assert!(matches!(
            ev.send(&cpu, &intc, &d1, p1, |_| None),
            Err(HvError::BadPort)
        ));
    }

    #[test]
    fn bind_to_bogus_peer_fails() {
        let (ev, d0, d1, _, _) = rig();
        assert!(ev.bind_interdomain(d0.id, d1.id, 17).is_err());
        let p = ev.alloc_unbound(d0.id).unwrap();
        // Wrong claimed owner.
        assert!(ev.bind_interdomain(d1.id, DomId(9), p).is_err());
    }

    #[test]
    fn close_unbinds_peer() {
        let (ev, d0, d1, _, _) = rig();
        let p1 = ev.alloc_unbound(d1.id).unwrap();
        let p0 = ev.bind_interdomain(d0.id, d1.id, p1).unwrap();
        assert_eq!(ev.allocated(), 2);
        ev.close(d0.id, p0).unwrap();
        assert_eq!(ev.allocated(), 1);
        // The peer end is unbound again and can be re-bound.
        let p0b = ev.bind_interdomain(d0.id, d1.id, p1).unwrap();
        assert_eq!(p0b, p0); // the freed slot is reused
    }
}
