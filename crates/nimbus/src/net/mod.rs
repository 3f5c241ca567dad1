//! Datagram sockets over the network driver.
//!
//! A deliberately small UDP-like layer: sockets bind ports, datagrams
//! carry a four-byte port header.  Enough surface for the paper's ping
//! (round-trip latency) and Iperf (throughput) benchmarks.

use std::collections::{HashMap, VecDeque};

/// A bound socket.
#[derive(Debug, Clone, PartialEq)]
pub struct Socket {
    /// Socket id.
    pub id: u32,
    /// Bound port.
    pub port: u16,
    /// Received datagrams: (source port, payload).
    pub rx: VecDeque<(u16, Vec<u8>)>,
    /// Descriptors referring to this socket (one per process that
    /// inherited it across `fork`); the socket and its port go when the
    /// last one is closed.
    refs: u32,
}

/// The socket table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SocketTable {
    socks: HashMap<u32, Socket>,
    ports: HashMap<u16, u32>,
    next_id: u32,
}

impl SocketTable {
    /// Bind a new socket to `port`.  Fails if the port is taken.
    pub fn bind(&mut self, port: u16) -> Option<u32> {
        if self.ports.contains_key(&port) {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.socks.insert(
            id,
            Socket {
                id,
                port,
                rx: VecDeque::new(),
                refs: 1,
            },
        );
        self.ports.insert(port, id);
        Some(id)
    }

    /// Count one more descriptor on socket `id` (a forked child
    /// inherits its parent's).
    pub fn dup(&mut self, id: u32) {
        if let Some(s) = self.socks.get_mut(&id) {
            s.refs += 1;
        }
    }

    /// Close one descriptor on socket `id`; the last close unbinds it.
    pub fn close(&mut self, id: u32) {
        let Some(s) = self.socks.get_mut(&id) else {
            return;
        };
        s.refs -= 1;
        if s.refs == 0 {
            let port = s.port;
            self.socks.remove(&id);
            self.ports.remove(&port);
        }
    }

    /// The socket bound to `port`.
    pub fn by_port(&mut self, port: u16) -> Option<&mut Socket> {
        let id = *self.ports.get(&port)?;
        self.socks.get_mut(&id)
    }

    /// Socket by id.
    pub fn get(&mut self, id: u32) -> Option<&mut Socket> {
        self.socks.get_mut(&id)
    }

    /// Deliver a parsed datagram; returns false if no socket is bound.
    pub fn deliver(&mut self, dst: u16, src: u16, payload: Vec<u8>) -> bool {
        match self.by_port(dst) {
            Some(s) => {
                s.rx.push_back((src, payload));
                true
            }
            None => false,
        }
    }
}

/// Wrap a payload with the `[dst, src]` port header.
pub fn encode_packet(dst: u16, src: u16, payload: &[u8]) -> Vec<u8> {
    let mut pkt = Vec::with_capacity(4 + payload.len());
    pkt.extend_from_slice(&dst.to_le_bytes());
    pkt.extend_from_slice(&src.to_le_bytes());
    pkt.extend_from_slice(payload);
    pkt
}

/// Parse a packet into `(dst, src, payload)`.
pub fn decode_packet(pkt: &[u8]) -> Option<(u16, u16, &[u8])> {
    if pkt.len() < 4 {
        return None;
    }
    let dst = u16::from_le_bytes([pkt[0], pkt[1]]);
    let src = u16::from_le_bytes([pkt[2], pkt[3]]);
    Some((dst, src, &pkt[4..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_roundtrip() {
        let pkt = encode_packet(80, 1234, b"payload");
        let (dst, src, body) = decode_packet(&pkt).unwrap();
        assert_eq!((dst, src), (80, 1234));
        assert_eq!(body, b"payload");
        assert!(decode_packet(&[1, 2]).is_none());
    }

    #[test]
    fn bind_deliver_close() {
        let mut t = SocketTable::default();
        let id = t.bind(7000).unwrap();
        assert!(t.bind(7000).is_none(), "double bind rejected");
        assert!(t.deliver(7000, 9, b"hi".to_vec()));
        assert!(!t.deliver(7001, 9, b"nobody".to_vec()));
        let s = t.get(id).unwrap();
        assert_eq!(s.rx.pop_front().unwrap(), (9, b"hi".to_vec()));
        t.close(id);
        assert!(!t.deliver(7000, 9, b"gone".to_vec()));
        // Port is free again.
        assert!(t.bind(7000).is_some());
    }
}
