//! A network interface attached to a pluggable wire.
//!
//! The wire abstraction lets the test bed connect a NIC to an in-process
//! echo responder (ping/iperf benchmarks), to another simulated machine's
//! NIC (cluster live migration), or leave it dangling.

use crate::cpu::vectors;
use crate::intc::InterruptController;
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A network packet (opaque payload; the kernel's stack interprets it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Raw bytes on the wire.
    pub data: Arc<[u8]>,
}

impl Packet {
    /// Wrap a byte vector.
    pub fn new(data: Vec<u8>) -> Packet {
        Packet { data: data.into() }
    }

    /// Payload length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the packet empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Where transmitted packets go.
pub trait Wire: Send + Sync {
    /// Carry a packet to the other end.
    fn transmit(&self, pkt: Packet);
}

/// The NIC device.
pub struct SimNic {
    rx: Mutex<VecDeque<Packet>>,
    wire: Mutex<Option<Arc<dyn Wire>>>,
    irq_cpu: usize,
    tx_count: Mutex<u64>,
    rx_count: Mutex<u64>,
}

impl SimNic {
    /// A NIC interrupting `irq_cpu`, initially disconnected.
    pub fn new(irq_cpu: usize) -> Self {
        SimNic {
            rx: Mutex::new(VecDeque::new()),
            wire: Mutex::new(None),
            irq_cpu,
            tx_count: Mutex::new(0),
            rx_count: Mutex::new(0),
        }
    }

    /// Attach the wire.
    pub fn connect(&self, wire: Arc<dyn Wire>) {
        *self.wire.lock() = Some(wire);
    }

    /// Detach the wire (cable pull; used in failure injection).
    pub fn disconnect(&self) {
        *self.wire.lock() = None;
    }

    /// Transmit a packet.  Returns false if no wire is attached (packet
    /// dropped, as on a dead link).
    pub fn tx(&self, pkt: Packet) -> bool {
        *self.tx_count.lock() += 1;
        match self.wire.lock().as_ref() {
            Some(w) => {
                w.transmit(pkt);
                true
            }
            None => false,
        }
    }

    /// Deliver a packet into the receive queue and assert the NIC line.
    pub fn inject_rx(&self, pkt: Packet, intc: &InterruptController) {
        *self.rx_count.lock() += 1;
        self.rx.lock().push_back(pkt);
        intc.raise(self.irq_cpu, vectors::NIC);
    }

    /// Pop one received packet.
    pub fn rx(&self) -> Option<Packet> {
        self.rx.lock().pop_front()
    }

    /// Packets waiting in the receive queue.
    pub fn rx_pending(&self) -> usize {
        self.rx.lock().len()
    }

    /// (transmitted, received) counters.
    pub fn stats(&self) -> (u64, u64) {
        (*self.tx_count.lock(), *self.rx_count.lock())
    }
}

/// Payload transform applied by an echo peer.
pub type PayloadTransform = Box<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// A wire that immediately bounces every packet back into a NIC's
/// receive queue — the stand-in for the Iperf/ping peer host on the LAN.
pub struct EchoWire {
    nic: Arc<SimNic>,
    intc: Arc<InterruptController>,
    /// Optional transform applied to echoed payloads (e.g. flip a
    /// request marker into a reply marker).
    transform: Option<PayloadTransform>,
}

impl EchoWire {
    /// Echo packets straight back into `nic`.
    pub fn new(nic: Arc<SimNic>, intc: Arc<InterruptController>) -> Self {
        EchoWire {
            nic,
            intc,
            transform: None,
        }
    }

    /// Echo with a payload transform.
    pub fn with_transform(
        nic: Arc<SimNic>,
        intc: Arc<InterruptController>,
        f: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    ) -> Self {
        EchoWire {
            nic,
            intc,
            transform: Some(Box::new(f)),
        }
    }

    /// The peer host of the ping/Iperf/serving test beds: echoes every
    /// datagram with its two leading 16-bit fields — the kernel's
    /// `[dst port, src port]` header — exchanged, so the reply lands on
    /// the socket that sent it.
    pub fn port_swapping(nic: Arc<SimNic>, intc: Arc<InterruptController>) -> Self {
        Self::with_transform(nic, intc, |pkt| {
            let mut out = pkt.to_vec();
            if out.len() >= 4 {
                out.swap(0, 2);
                out.swap(1, 3);
            }
            out
        })
    }
}

impl Wire for EchoWire {
    fn transmit(&self, pkt: Packet) {
        let out = match &self.transform {
            Some(f) => Packet::new(f(&pkt.data)),
            None => pkt,
        };
        self.nic.inject_rx(out, &self.intc);
    }
}

/// A wire connecting two machines: packets transmitted here arrive in
/// the peer NIC's receive queue (used by the cluster crate for live
/// migration traffic).
pub struct LinkWire {
    peer: Arc<SimNic>,
    peer_intc: Arc<InterruptController>,
}

impl LinkWire {
    /// Build the half-link towards `peer`.
    pub fn new(peer: Arc<SimNic>, peer_intc: Arc<InterruptController>) -> Self {
        LinkWire { peer, peer_intc }
    }
}

impl Wire for LinkWire {
    fn transmit(&self, pkt: Packet) {
        self.peer.inject_rx(pkt, &self.peer_intc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;

    fn rig() -> (Arc<SimNic>, Arc<InterruptController>, Arc<Cpu>) {
        let cpu = Arc::new(Cpu::new(0));
        let intc = Arc::new(InterruptController::new(vec![cpu.clone()]));
        (Arc::new(SimNic::new(0)), intc, cpu)
    }

    #[test]
    fn tx_without_wire_drops() {
        let (nic, _, _) = rig();
        assert!(!nic.tx(Packet::new(vec![1])));
        assert_eq!(nic.stats().0, 1);
    }

    #[test]
    fn echo_wire_roundtrip() {
        let (nic, intc, cpu) = rig();
        nic.connect(Arc::new(EchoWire::new(nic.clone(), intc.clone())));
        assert!(nic.tx(Packet::new(vec![1, 2, 3])));
        assert!(cpu.is_pending(vectors::NIC));
        assert_eq!(nic.rx().unwrap().data.as_ref(), &[1, 2, 3]);
        assert!(nic.rx().is_none());
    }

    #[test]
    fn echo_transform_applies() {
        let (nic, intc, _) = rig();
        nic.connect(Arc::new(EchoWire::with_transform(
            nic.clone(),
            intc.clone(),
            |b| b.iter().rev().copied().collect(),
        )));
        nic.tx(Packet::new(vec![1, 2, 3]));
        assert_eq!(nic.rx().unwrap().data.as_ref(), &[3, 2, 1]);
    }

    #[test]
    fn port_swapping_echo_exchanges_the_header_fields() {
        let (nic, intc, _) = rig();
        nic.connect(Arc::new(EchoWire::port_swapping(nic.clone(), intc.clone())));
        nic.tx(Packet::new(vec![1, 2, 3, 4, 5]));
        assert_eq!(nic.rx().unwrap().data.as_ref(), &[3, 4, 1, 2, 5]);
        // Too short to carry the header: echoed as it came.
        nic.tx(Packet::new(vec![9]));
        assert_eq!(nic.rx().unwrap().data.as_ref(), &[9]);
    }

    #[test]
    fn link_wire_delivers_to_peer() {
        let (nic_a, _intc_a, _) = rig();
        let (nic_b, intc_b, cpu_b) = rig();
        nic_a.connect(Arc::new(LinkWire::new(nic_b.clone(), intc_b.clone())));
        nic_a.tx(Packet::new(vec![9]));
        assert_eq!(nic_b.rx_pending(), 1);
        assert!(cpu_b.is_pending(vectors::NIC));
    }

    #[test]
    fn disconnect_breaks_link() {
        let (nic, intc, _) = rig();
        nic.connect(Arc::new(EchoWire::new(nic.clone(), intc.clone())));
        nic.disconnect();
        assert!(!nic.tx(Packet::new(vec![1])));
        assert_eq!(nic.rx_pending(), 0);
    }
}
