//! Loopback sockets: `AF_UNIX` and `AF_INET` streams and datagrams.
//!
//! Everything terminates inside the kernel model (there is no real
//! network), which is exactly what the paper's edge workloads need:
//! memcached-style servers and MQTT-style clients talk over loopback.

use std::collections::VecDeque;

use wali_abi::layout::WaliSockaddr;

use crate::slab::{Handle, WeakHandle};

/// Per-direction stream buffer size.
pub const SOCK_BUF_SIZE: usize = 208 * 1024;

/// Connection state of a socket.
#[derive(Clone, Debug, PartialEq)]
pub enum SockState {
    /// Fresh socket.
    Unbound,
    /// Bound to an address.
    Bound,
    /// Listening with a backlog of pending connections.
    Listening {
        /// Maximum queued connections.
        backlog: usize,
        /// The server-side sockets of connected-but-unaccepted
        /// connections (the queue is what keeps them alive).
        pending: VecDeque<Handle<Socket>>,
    },
    /// Connected. Both ends are in this state or neither is: whoever
    /// tears one end down closes the other's state too.
    Connected {
        /// The other end (weak: the two ends point at each other).
        peer: WeakHandle<Socket>,
    },
    /// Peer closed or connection torn down.
    Closed,
}

/// A socket object.
#[derive(Clone, Debug)]
pub struct Socket {
    /// `AF_UNIX` or `AF_INET`.
    pub domain: i32,
    /// `SOCK_STREAM` or `SOCK_DGRAM`.
    pub ty: i32,
    /// Connection state.
    pub state: SockState,
    /// Local address, once bound.
    pub local: Option<WaliSockaddr>,
    /// Remote address, once connected.
    pub remote: Option<WaliSockaddr>,
    /// Inbound bytes (stream) — our end's receive queue.
    pub recv: VecDeque<u8>,
    /// Inbound datagrams with source address.
    pub dgrams: VecDeque<(WaliSockaddr, Vec<u8>)>,
    /// `SO_*` options that have been set, as (level, name, value).
    pub options: Vec<(i32, i32, i32)>,
    /// Receive direction shut down.
    pub shut_rd: bool,
    /// Send direction shut down.
    pub shut_wr: bool,
}

impl Socket {
    /// Creates a fresh socket.
    pub fn new(domain: i32, ty: i32) -> Socket {
        Socket {
            domain,
            ty,
            state: SockState::Unbound,
            local: None,
            remote: None,
            recv: VecDeque::new(),
            dgrams: VecDeque::new(),
            options: Vec::new(),
            shut_rd: false,
            shut_wr: false,
        }
    }

    /// The connected peer's socket id, if any.
    pub fn peer_id(&self) -> Option<usize> {
        match &self.state {
            SockState::Connected { peer } => Some(peer.id),
            _ => None,
        }
    }

    /// The connected peer, if any — to be locked once this socket's own
    /// lock is released (the two never nest).
    pub fn peer(&self) -> Option<Handle<Socket>> {
        match &self.state {
            SockState::Connected { peer } => peer.upgrade(),
            _ => None,
        }
    }

    /// Space left in the receive buffer.
    pub fn recv_space(&self) -> usize {
        SOCK_BUF_SIZE - self.recv.len()
    }

    /// Copies up to `out.len()` received stream bytes into `out`,
    /// consuming them unless `peek`; returns the count.
    pub fn take_bytes(&mut self, out: &mut [u8], peek: bool) -> usize {
        let n = out.len().min(self.recv.len());
        let (head, tail) = self.recv.as_slices();
        let from_head = n.min(head.len());
        out[..from_head].copy_from_slice(&head[..from_head]);
        out[from_head..n].copy_from_slice(&tail[..n - from_head]);
        if !peek {
            self.recv.drain(..n);
        }
        n
    }

    /// True when a reader would not block.
    pub fn readable(&self) -> bool {
        !self.recv.is_empty()
            || !self.dgrams.is_empty()
            || self.shut_rd
            || matches!(self.state, SockState::Closed)
            || matches!(&self.state, SockState::Listening { pending, .. } if !pending.is_empty())
    }

    /// Records a `setsockopt`.
    pub fn set_option(&mut self, level: i32, name: i32, value: i32) {
        if let Some(slot) = self
            .options
            .iter_mut()
            .find(|(l, n, _)| *l == level && *n == name)
        {
            slot.2 = value;
        } else {
            self.options.push((level, name, value));
        }
    }

    /// Reads back a `getsockopt` (0 when never set).
    pub fn get_option(&self, level: i32, name: i32) -> i32 {
        self.options
            .iter()
            .find(|(l, n, _)| *l == level && *n == name)
            .map(|(_, _, v)| *v)
            .unwrap_or(0)
    }
}

/// A bound address as the registry keys it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AddrKey {
    /// IPv4 address and port.
    Inet([u8; 4], u16),
    /// `AF_UNIX` path.
    Unix(String),
}

/// Normalizes an address into a registry key (no formatting: every
/// `connect`, `bind` and `sendto` looks one up).
pub fn addr_key(addr: &WaliSockaddr) -> AddrKey {
    match addr {
        WaliSockaddr::Inet { addr, port } => AddrKey::Inet(*addr, *port),
        WaliSockaddr::Unix { path } => AddrKey::Unix(path.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wali_abi::flags::{AF_INET, SOCK_STREAM, SOL_SOCKET, SO_REUSEADDR};

    #[test]
    fn options_round_trip() {
        let mut s = Socket::new(AF_INET, SOCK_STREAM);
        assert_eq!(s.get_option(SOL_SOCKET, SO_REUSEADDR), 0);
        s.set_option(SOL_SOCKET, SO_REUSEADDR, 1);
        assert_eq!(s.get_option(SOL_SOCKET, SO_REUSEADDR), 1);
        s.set_option(SOL_SOCKET, SO_REUSEADDR, 0);
        assert_eq!(s.get_option(SOL_SOCKET, SO_REUSEADDR), 0);
        assert_eq!(s.options.len(), 1, "updated in place");
    }

    #[test]
    fn readable_states() {
        let mut s = Socket::new(AF_INET, SOCK_STREAM);
        assert!(!s.readable());
        s.recv.extend(b"x");
        assert!(s.readable());
        s.recv.clear();
        s.shut_rd = true;
        assert!(s.readable(), "shutdown read returns EOF, hence readable");
    }

    #[test]
    fn addr_keys_are_canonical() {
        let a = WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port: 80,
        };
        assert_eq!(addr_key(&a), AddrKey::Inet([127, 0, 0, 1], 80));
        let u = WaliSockaddr::Unix {
            path: "/tmp/s".into(),
        };
        assert_eq!(addr_key(&u), AddrKey::Unix("/tmp/s".into()));
        assert_ne!(addr_key(&a), addr_key(&u));
    }
}
