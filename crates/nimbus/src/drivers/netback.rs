//! The network backend: driver-domain half of the split network device.
//!
//! Transmit: pops granted packets off the tx ring and forwards them
//! through the driver domain's native NIC driver.  Receive: drains the
//! physical NIC and queues packets per frontend domain (the rx-ring
//! crossing costs are charged on the frontend side when it collects).

use crate::drivers::net::{NativeNetDriver, NetDriver};
use crate::error::KernelError;
use simx86::mem::FrameNum;
use simx86::sync::Mutex;
use simx86::{costs, Cpu};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use xenon::ring::{NetMessage, Ring};
use xenon::{DomId, Domain, Hypervisor};

/// The backend.
pub struct NetBackend {
    hv: Arc<Hypervisor>,
    dom: Arc<Domain>,
    frontend: DomId,
    lower: Arc<NativeNetDriver>,
    tx_ring: Ring,
    rx_queues: Mutex<HashMap<DomId, VecDeque<Vec<u8>>>>,
}

impl NetBackend {
    /// A backend in `dom` serving `frontend` over `lower`.
    pub fn new(
        hv: Arc<Hypervisor>,
        dom: Arc<Domain>,
        frontend: DomId,
        lower: Arc<NativeNetDriver>,
        ring_frame: FrameNum,
    ) -> Arc<NetBackend> {
        Arc::new(NetBackend {
            hv,
            dom,
            frontend,
            lower,
            tx_ring: Ring::attach(ring_frame),
            rx_queues: Mutex::new(HashMap::new()),
        })
    }

    /// The shared transmit ring.
    pub fn tx_ring(&self) -> Ring {
        self.tx_ring
    }

    /// The backend's domain id (grant target).
    pub fn backend_dom_id(&self) -> DomId {
        self.dom.id
    }

    /// Service pending transmit requests.
    pub fn process_tx(&self, cpu: &Arc<Cpu>) -> Result<usize, KernelError> {
        let mem = &self.hv.machine.mem;
        let mut n = 0;
        while let Some(slot) = self.tx_ring.pop_request(cpu, mem)? {
            let msg = NetMessage::decode(&slot);
            // The length comes from the frontend: a payload is one
            // granted frame, and nothing past it is the frontend's.
            if u64::from(msg.len) > simx86::PAGE_SIZE {
                return Err(KernelError::Invalid("tx length larger than a frame"));
            }
            let (payload, _) = self.hv.grant_map(cpu, &self.dom, self.frontend, msg.gref)?;
            let mut pkt = vec![0u8; msg.len as usize];
            let copied = mem.read_bytes(payload.base(), &mut pkt);
            if copied.is_ok() {
                cpu.tick(msg.len as u64 * costs::NIC_PER_BYTE); // copy out
            }
            self.hv
                .grant_unmap(cpu, &self.dom, self.frontend, msg.gref)?;
            copied?;
            self.lower.send(cpu, &pkt)?;
            self.tx_ring.push_response(
                cpu,
                mem,
                &NetMessage {
                    id: msg.id,
                    len: msg.len,
                    gref: msg.gref,
                }
                .encode(),
            )?;
            cpu.tick(costs::EVTCHN_NOTIFY);
            n += 1;
        }
        Ok(n)
    }

    /// Drain the physical NIC into per-frontend receive queues.
    ///
    /// Demultiplexing: every packet goes to the single frontend this
    /// backend serves (one-pair model; the driver domain's own traffic
    /// uses its native driver directly).
    pub fn poll_rx(&self, cpu: &Arc<Cpu>) -> Result<usize, KernelError> {
        let mut n = 0;
        while let Some(pkt) = self.lower.recv(cpu) {
            self.rx_queues
                .lock()
                .entry(self.frontend)
                .or_default()
                .push_back(pkt);
            n += 1;
        }
        Ok(n)
    }

    /// Pop a received packet destined for `dom`.
    pub fn take_rx_for(&self, dom: DomId) -> Option<Vec<u8>> {
        self.rx_queues.lock().get_mut(&dom)?.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::net::FrontendNetDriver;
    use simx86::devices::EchoWire;
    use simx86::{Machine, MachineConfig};

    fn rig() -> (
        Arc<Machine>,
        Arc<Hypervisor>,
        Arc<FrontendNetDriver>,
        Arc<NetBackend>,
    ) {
        let machine = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        // Echo wire: everything transmitted comes straight back.
        machine.nic.connect(Arc::new(EchoWire::new(
            Arc::clone(&machine.nic),
            Arc::clone(&machine.intc),
        )));
        let hv = Hypervisor::warm_up(&machine);
        hv.activate();
        let cpu = machine.boot_cpu();
        let q0 = machine.allocator.alloc_many(cpu, 8).unwrap();
        let dom0 = hv.create_domain(cpu, "dom0", q0, 0).unwrap();
        let qu = machine.allocator.alloc_many(cpu, 8).unwrap();
        let domu = hv.create_domain(cpu, "domU", qu, 0).unwrap();

        let lower = NativeNetDriver::new(Arc::clone(&machine));
        let ring_frame = hv.take_reserved(1).unwrap()[0];
        machine.mem.zero_frame(cpu, ring_frame).unwrap();
        let backend = NetBackend::new(
            Arc::clone(&hv),
            Arc::clone(&dom0),
            domu.id,
            lower,
            ring_frame,
        );
        let port_b = hv.evtchn_alloc(cpu, &dom0).unwrap();
        let port_f = hv.evtchn_bind(cpu, &domu, dom0.id, port_b).unwrap();
        let buf = domu.frames()[0];
        let frontend = FrontendNetDriver::new(
            Arc::clone(&hv),
            Arc::clone(&domu),
            Arc::clone(&backend),
            buf,
            port_f,
        );
        (machine, hv, frontend, backend)
    }

    #[test]
    fn split_send_reaches_wire_and_echo_returns() {
        let (_machine, _hv, frontend, _) = rig();
        let cpu = _machine.boot_cpu();
        frontend.send(cpu, &[1, 2, 3, 4]).unwrap();
        let back = frontend.recv(cpu).unwrap();
        assert_eq!(back, vec![1, 2, 3, 4]);
        assert!(frontend.recv(cpu).is_none());
    }

    #[test]
    fn split_send_costs_more_than_native_send() {
        let (machine, _hv, frontend, _) = rig();
        let cpu = machine.boot_cpu();
        let native = NativeNetDriver::new(Arc::clone(&machine));
        let pkt = vec![0u8; 1400];

        let t0 = cpu.cycles();
        native.send(cpu, &pkt).unwrap();
        let native_cost = cpu.cycles() - t0;

        let t0 = cpu.cycles();
        frontend.send(cpu, &pkt).unwrap();
        let split_cost = cpu.cycles() - t0;
        assert!(
            split_cost > native_cost * 3 / 2,
            "split tx ({split_cost}) must be well above native tx ({native_cost})"
        );
    }

    #[test]
    fn oversized_packet_rejected() {
        let (_machine, _hv, frontend, _) = rig();
        let cpu = _machine.boot_cpu();
        let too_big = vec![0u8; simx86::PAGE_SIZE as usize + 1];
        assert!(frontend.send(cpu, &too_big).is_err());
    }

    /// A hostile frontend writes the ring slot itself: a length past one
    /// frame is refused before the grant is mapped, so nothing reaches
    /// the wire and the grant stays revocable.
    #[test]
    fn a_tx_length_past_one_frame_is_refused() {
        let (machine, hv, frontend, backend) = rig();
        let cpu = machine.boot_cpu();
        let frame = machine.allocator.alloc(cpu).unwrap();
        for len in [simx86::PAGE_SIZE as u32 + 1, u32::MAX] {
            let gref =
                hv.grants
                    .grant(cpu, backend.frontend, backend.backend_dom_id(), frame, true);
            let msg = NetMessage { id: 1, len, gref };
            backend
                .tx_ring()
                .push_request(cpu, &machine.mem, &msg.encode())
                .unwrap();
            assert!(backend.process_tx(cpu).is_err(), "len {len} accepted");
            assert!(frontend.recv(cpu).is_none(), "len {len} reached the wire");
            hv.grants.revoke(cpu, backend.frontend, gref).unwrap();
        }
    }
}
