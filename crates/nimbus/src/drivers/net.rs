//! Network drivers: native and split-model frontend.

use crate::drivers::netback::NetBackend;
use crate::error::KernelError;
use simx86::devices::Packet;
use simx86::mem::FrameNum;
use simx86::{costs, Cpu, Machine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xenon::ring::{NetMessage, Ring};
use xenon::{Domain, Hypervisor};

/// The kernel's view of a network device.
pub trait NetDriver: Send + Sync {
    /// Transmit a raw packet.
    fn send(&self, cpu: &Arc<Cpu>, pkt: &[u8]) -> Result<(), KernelError>;
    /// Pop one received packet, if any.
    fn recv(&self, cpu: &Arc<Cpu>) -> Option<Vec<u8>>;
    /// Driver flavour (diagnostics).
    fn kind(&self) -> &'static str;
}

/// Direct driver over the machine's NIC.
pub struct NativeNetDriver {
    machine: Arc<Machine>,
}

impl NativeNetDriver {
    /// A driver for `machine`'s NIC.
    pub fn new(machine: Arc<Machine>) -> Arc<NativeNetDriver> {
        Arc::new(NativeNetDriver { machine })
    }
}

impl NetDriver for NativeNetDriver {
    fn send(&self, cpu: &Arc<Cpu>, pkt: &[u8]) -> Result<(), KernelError> {
        if cpu.in_non_root() {
            cpu.tick(costs::VMEXIT + costs::VMENTRY); // doorbell exits
        } else if cpu.pl() != simx86::PrivLevel::Pl0 {
            cpu.tick(costs::IO_PRIV_TRAP); // de-privileged doorbell traps
        }
        cpu.tick(costs::NIC_PACKET_BASE + pkt.len() as u64 * costs::NIC_PER_BYTE);
        if self.machine.nic.tx(Packet::new(pkt.to_vec())) {
            Ok(())
        } else {
            Err(KernelError::Invalid("network link down"))
        }
    }

    fn recv(&self, cpu: &Arc<Cpu>) -> Option<Vec<u8>> {
        let pkt = self.machine.nic.rx()?;
        if cpu.in_non_root() {
            cpu.tick((costs::VMEXIT + costs::VMENTRY) / 2);
        } else if cpu.pl() != simx86::PrivLevel::Pl0 {
            cpu.tick(costs::IO_PRIV_TRAP / 2); // reflected rx interrupt path
        }
        cpu.tick(costs::NIC_PACKET_BASE / 2 + pkt.len() as u64 * costs::NIC_PER_BYTE);
        Some(pkt.data.to_vec())
    }

    fn kind(&self) -> &'static str {
        "native-net"
    }
}

/// Extra per-packet processing on the split path beyond the itemized
/// grant/ring/event costs: frontend descriptor management, backend
/// bridging/demux, and the extra softirq passes in both domains.
/// Calibrates ping/Iperf for domainU in Fig. 3 (≈ 0.4× / 0.3× native).
pub const SPLIT_NET_PER_PACKET: u64 = 9_000;

/// Split-model frontend: packets cross to the driver domain's
/// [`NetBackend`] through a grant-backed ring (§5.2).
pub struct FrontendNetDriver {
    hv: Arc<Hypervisor>,
    dom: Arc<Domain>,
    backend: Arc<NetBackend>,
    tx_ring: Ring,
    /// Payload frame owned by the frontend's domain.
    buf: FrameNum,
    evtchn_port: u32,
    next_id: AtomicU64,
}

impl FrontendNetDriver {
    /// Connect a frontend for `dom` to `backend`.
    pub fn new(
        hv: Arc<Hypervisor>,
        dom: Arc<Domain>,
        backend: Arc<NetBackend>,
        buf: FrameNum,
        evtchn_port: u32,
    ) -> Arc<FrontendNetDriver> {
        Arc::new(FrontendNetDriver {
            tx_ring: backend.tx_ring(),
            hv,
            dom,
            backend,
            buf,
            evtchn_port,
            next_id: AtomicU64::new(1),
        })
    }
}

impl NetDriver for FrontendNetDriver {
    fn send(&self, cpu: &Arc<Cpu>, pkt: &[u8]) -> Result<(), KernelError> {
        let backend = &self.backend;
        if pkt.len() > simx86::PAGE_SIZE as usize {
            return Err(KernelError::Invalid("packet larger than a frame"));
        }
        let mem = &self.hv.machine.mem;
        mem.write_bytes(self.buf.base(), pkt)?;
        cpu.tick(SPLIT_NET_PER_PACKET + pkt.len() as u64 * costs::NIC_PER_BYTE);
        let gref = self
            .hv
            .grant(cpu, &self.dom, backend.backend_dom_id(), self.buf, true)?;
        let msg = NetMessage {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            len: pkt.len() as u32,
            gref,
        };
        self.tx_ring.push_request(cpu, mem, &msg.encode())?;
        let _ = self.hv.evtchn_send(cpu, &self.dom, self.evtchn_port);
        backend.process_tx(cpu)?;
        // Reclaim the response slot and the grant.
        let _ = self.tx_ring.pop_response(cpu, mem)?;
        self.hv.grant_revoke(cpu, &self.dom, gref)?;
        Ok(())
    }

    fn recv(&self, cpu: &Arc<Cpu>) -> Option<Vec<u8>> {
        let backend = &self.backend;
        // Pull anything the wire delivered into the backend first.
        backend.poll_rx(cpu).ok()?;
        let pkt = backend.take_rx_for(self.dom.id)?;
        // Charged as the rx-ring crossing: grant + ring + copy + the
        // per-packet split-path processing.
        cpu.tick(
            SPLIT_NET_PER_PACKET
                + costs::GRANT_OP
                + costs::RING_POST
                + costs::EVTCHN_NOTIFY
                + pkt.len() as u64 * costs::NIC_PER_BYTE,
        );
        Some(pkt)
    }

    fn kind(&self) -> &'static str {
        "frontend-net"
    }
}
