//! Socket syscalls and readiness (`poll`).

use wali_abi::flags::{
    MSG_DONTWAIT, MSG_PEEK, O_NONBLOCK, O_RDWR, POLLERR, POLLHUP, POLLIN, POLLOUT, SHUT_RD,
    SHUT_RDWR, SHUT_WR, SOCK_CLOEXEC, SOCK_DGRAM, SOCK_NONBLOCK, SOCK_STREAM,
};
use wali_abi::layout::WaliSockaddr;
use wali_abi::Errno;

use crate::fd::{FileKind, FileRef, OpenFile};
use crate::socket::{addr_key, SockState, Socket};
use crate::sync::MutexExt;
use crate::vfs::DevKind;
use crate::vfs::InodeKind;
use crate::wait::Channel;
use crate::{block, SysResult, Tid};

use super::Kernel;

impl Kernel {
    fn sock_fd(&mut self, tid: Tid, sock_id: usize, flags: i32) -> SysResult<i32> {
        let status = if flags & SOCK_NONBLOCK != 0 {
            O_NONBLOCK
        } else {
            0
        };
        let file = OpenFile::shared(FileKind::Socket(sock_id), O_RDWR | status);
        let task = self.task(tid)?;
        let fd = task
            .fdtable
            .lock_ok()
            .alloc(file, flags & SOCK_CLOEXEC != 0)?;
        Ok(fd)
    }

    fn sock_of_fd(&self, tid: Tid, fd: i32) -> Result<usize, Errno> {
        let task = self.task(tid)?;
        let table = task.fdtable.lock_ok();
        let file = table.get(fd)?.file.lock_ok();
        match file.kind {
            FileKind::Socket(id) => Ok(id),
            _ => Err(Errno::Enotsock),
        }
    }

    fn fd_nonblock(&self, tid: Tid, fd: i32) -> bool {
        self.task(tid)
            .ok()
            .and_then(|t| {
                let table = t.fdtable.lock_ok();
                table
                    .get(fd)
                    .ok()
                    .map(|e| e.file.lock_ok().flags & O_NONBLOCK != 0)
            })
            .unwrap_or(false)
    }

    /// `socket`.
    pub fn sys_socket(&mut self, tid: Tid, domain: i32, ty: i32, _proto: i32) -> SysResult<i32> {
        use wali_abi::flags::{AF_INET, AF_UNIX};
        if domain != AF_UNIX && domain != AF_INET {
            return Err(Errno::Eafnosupport.into());
        }
        let base_ty = ty & 0xf;
        if base_ty != SOCK_STREAM && base_ty != SOCK_DGRAM {
            return Err(Errno::Eprotonosupport.into());
        }
        let mut sock = Socket::new(domain, base_ty);
        sock.nonblock = ty & SOCK_NONBLOCK != 0;
        let id = self.alloc_socket(sock);
        self.sock_fd(tid, id, ty)
    }

    /// `bind`.
    pub fn sys_bind(&mut self, tid: Tid, fd: i32, addr: WaliSockaddr) -> SysResult {
        let id = self.sock_of_fd(tid, fd)?;
        let addr = match addr {
            WaliSockaddr::Inet { addr: ip, port: 0 } => {
                // Ephemeral port assignment.
                let mut port = 49152u16;
                while self
                    .addr_registry
                    .contains_key(&addr_key(&WaliSockaddr::Inet { addr: ip, port }))
                {
                    port = port.checked_add(1).ok_or(Errno::Eaddrinuse)?;
                }
                WaliSockaddr::Inet { addr: ip, port }
            }
            other => other,
        };
        let key = addr_key(&addr);
        if self.addr_registry.contains_key(&key) {
            return Err(Errno::Eaddrinuse.into());
        }
        self.with_sock(id, |sock| {
            if sock.local.is_some() {
                return Err(Errno::Einval);
            }
            sock.local = Some(addr.clone());
            sock.state = SockState::Bound;
            Ok(())
        })??;
        self.addr_registry.insert(key, id);
        Ok(0)
    }

    /// `listen`.
    pub fn sys_listen(&mut self, tid: Tid, fd: i32, backlog: i32) -> SysResult {
        let id = self.sock_of_fd(tid, fd)?;
        self.with_sock(id, |sock| {
            if sock.ty != SOCK_STREAM {
                return Err(Errno::Eopnotsupp);
            }
            match sock.state {
                SockState::Bound | SockState::Listening { .. } => {
                    sock.state = SockState::Listening {
                        backlog: backlog.max(1) as usize,
                        pending: Default::default(),
                    };
                    Ok(())
                }
                _ => Err(Errno::Einval),
            }
        })??;
        Ok(0)
    }

    /// `connect`.
    pub fn sys_connect(&mut self, tid: Tid, fd: i32, addr: WaliSockaddr) -> SysResult {
        let id = self.sock_of_fd(tid, fd)?;
        let (ty, state_ok) = self.with_sock(id, |s| {
            (
                s.ty,
                matches!(s.state, SockState::Unbound | SockState::Bound),
            )
        })?;
        if ty == SOCK_DGRAM {
            // Datagram connect just sets the default peer address.
            self.with_sock(id, |s| s.remote = Some(addr))?;
            return Ok(0);
        }
        if !state_ok {
            return Err(Errno::Eisconn.into());
        }
        let listener_id = *self
            .addr_registry
            .get(&addr_key(&addr))
            .ok_or(Errno::Econnrefused)?;
        // Create the server-side socket of the pair. The per-socket
        // locks are taken strictly one at a time (equal-rank locks must
        // never nest).
        let (domain, srv_ty) = self.with_sock(listener_id, |l| match &l.state {
            SockState::Listening { backlog, pending } if pending.len() >= *backlog => {
                Err(Errno::Econnrefused)
            }
            SockState::Listening { .. } => Ok((l.domain, l.ty)),
            _ => Err(Errno::Econnrefused),
        })??;
        let mut server_side = Socket::new(domain, srv_ty);
        server_side.state = SockState::Connected { peer: id };
        server_side.local = Some(addr.clone());
        let server_id = self.alloc_socket(server_side);

        let client_local = self.with_sock(id, |client| {
            client.state = SockState::Connected { peer: server_id };
            client.remote = Some(addr);
            client.local.clone()
        })?;
        self.with_sock(server_id, |server| server.remote = client_local)?;
        self.with_sock(listener_id, |l| match &mut l.state {
            SockState::Listening { pending, .. } => pending.push_back(server_id),
            _ => unreachable!("checked above"),
        })?;
        // A connection is pending: wake blocked `accept`s and pollers
        // (post after every lock is dropped). Establishing the pair is
        // also both ends' writability transition (POLLOUT = space in
        // the peer's receive buffer, which just came into existence) —
        // the ready-ring router needs that edge to queue POLLOUT-only
        // registrations made before the connect.
        self.waits.post(Channel::SockReadable(listener_id));
        self.waits.post(Channel::SockSpace(id));
        self.waits.post(Channel::SockSpace(server_id));
        Ok(0)
    }

    /// `accept4`: returns the new connection fd.
    pub fn sys_accept(&mut self, tid: Tid, fd: i32, flags: i32) -> SysResult<i32> {
        let id = self.sock_of_fd(tid, fd)?;
        let nonblock = self.fd_nonblock(tid, fd) || self.with_sock(id, |s| s.nonblock)?;
        let has_sig = self.has_pending_signal(tid);
        let conn = self.with_sock(id, |sock| match &mut sock.state {
            SockState::Listening { pending, .. } => {
                let c = pending.pop_front();
                if c.is_none() && !nonblock && !has_sig {
                    // Subscribe under the listener's lock: a connect
                    // landing after this posts only after releasing it.
                    self.waits.park_on(tid, Channel::SockReadable(id));
                }
                Ok(c)
            }
            _ => Err(Errno::Einval),
        })??;
        match conn {
            Some(conn_id) => self.sock_fd(tid, conn_id, flags),
            None if nonblock => Err(Errno::Eagain.into()),
            None if has_sig => Err(Errno::Eintr.into()),
            None => Err(block()),
        }
    }

    /// Stream/dgram send used by `write`, `send` and `sendto`.
    pub fn sock_send(
        &mut self,
        tid: Tid,
        id: usize,
        data: &[u8],
        msg_flags: i32,
    ) -> SysResult<usize> {
        // The peer id is copied out by reference: a listener's state
        // owns its whole pending queue.
        let (ty, peer, closed, shut_wr, sock_nonblock) = self.with_sock(id, |s| {
            let closed = matches!(s.state, SockState::Closed);
            (s.ty, s.peer(), closed, s.shut_wr, s.nonblock)
        })?;
        let nonblock = msg_flags & MSG_DONTWAIT != 0 || sock_nonblock;
        if shut_wr {
            return self.epipe(tid);
        }
        match (ty, peer) {
            (SOCK_STREAM, Some(peer)) => {
                // One acquisition of the peer's lock covers the state
                // check, the copy into its receive buffer and — when the
                // buffer is full — the wakeup subscription (a reader that
                // drains afterwards posts only after unlocking).
                enum Step {
                    Sent(usize),
                    Gone,
                    Full,
                }
                let step = self
                    .with_sock(peer, |p| {
                        if !matches!(p.state, SockState::Connected { .. }) || p.shut_rd {
                            return Step::Gone;
                        }
                        let space = p.recv_space();
                        if space == 0 {
                            if !nonblock {
                                // Park until the peer drains its buffer.
                                self.waits.park_on(tid, Channel::SockSpace(peer));
                            }
                            return Step::Full;
                        }
                        let n = data.len().min(space);
                        p.recv.extend(&data[..n]);
                        Step::Sent(n)
                    })
                    .unwrap_or(Step::Gone);
                match step {
                    Step::Sent(n) => {
                        // Data arrived at the peer: wake its readers and
                        // pollers (post after dropping the peer's lock).
                        self.waits.post(Channel::SockReadable(peer));
                        Ok(n)
                    }
                    Step::Gone => self.epipe(tid),
                    Step::Full if nonblock => Err(Errno::Eagain.into()),
                    Step::Full => Err(block()),
                }
            }
            (SOCK_STREAM, None) if closed => self.epipe(tid),
            (SOCK_STREAM, None) => Err(Errno::Enotconn.into()),
            (SOCK_DGRAM, _) => {
                let dest = self
                    .with_sock(id, |s| s.remote.clone())?
                    .ok_or(Errno::Edestaddrreq)?;
                self.dgram_send_to(id, &dest, data)
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    fn dgram_send_to(
        &mut self,
        from_id: usize,
        dest: &WaliSockaddr,
        data: &[u8],
    ) -> SysResult<usize> {
        let target = *self
            .addr_registry
            .get(&addr_key(dest))
            .ok_or(Errno::Econnrefused)?;
        let src = self
            .with_sock(from_id, |s| s.local.clone())?
            .unwrap_or(WaliSockaddr::Inet {
                addr: [127, 0, 0, 1],
                port: 0,
            });
        self.with_sock(target, |t| {
            if t.dgrams.len() >= 256 {
                return Err(Errno::Enobufs);
            }
            t.dgrams.push_back((src, data.to_vec()));
            Ok(())
        })??;
        // A datagram arrived: wake the target's readers and pollers.
        self.waits.post(Channel::SockReadable(target));
        Ok(data.len())
    }

    /// `sendto`.
    pub fn sys_sendto(
        &mut self,
        tid: Tid,
        fd: i32,
        data: &[u8],
        msg_flags: i32,
        dest: Option<WaliSockaddr>,
    ) -> SysResult<usize> {
        let id = self.sock_of_fd(tid, fd)?;
        match dest {
            Some(addr) if self.with_sock(id, |s| s.ty)? == SOCK_DGRAM => {
                self.dgram_send_to(id, &addr, data)
            }
            _ => self.sock_send(tid, id, data, msg_flags),
        }
    }

    /// Stream/dgram receive used by `read`, `recv` and `recvfrom`.
    pub fn sock_recv(
        &mut self,
        tid: Tid,
        id: usize,
        out: &mut [u8],
        msg_flags: i32,
    ) -> SysResult<usize> {
        let (ty, peer, sock_nonblock) = self.with_sock(id, |s| (s.ty, s.peer(), s.nonblock))?;
        let nonblock = msg_flags & MSG_DONTWAIT != 0 || sock_nonblock;
        let peek = msg_flags & MSG_PEEK != 0;
        // Outcome of the single pass under our own socket lock; wakeup
        // posts happen after the lock is dropped.
        enum Step {
            Data(usize, bool),
            Eof,
            NotConn,
            Again,
            Intr,
            Park,
        }
        match ty {
            SOCK_STREAM => {
                let has_sig = self.has_pending_signal(tid);
                // Peer liveness is snapshotted before taking our own lock
                // (the two per-socket locks must never nest). Any data the
                // peer pushes concurrently is observed by the drain below
                // or by the post it issues after unlocking.
                let peer_live = peer.is_some_and(|peer| {
                    matches!(self.with_sock(peer, |p| p.peer().is_some()), Ok(true))
                });
                let step = self.with_sock(id, |s| {
                    if !s.recv.is_empty() {
                        let n = out.len().min(s.recv.len());
                        if peek {
                            for (i, b) in s.recv.iter().take(n).enumerate() {
                                out[i] = *b;
                            }
                        } else {
                            for b in out.iter_mut().take(n) {
                                *b = s.recv.pop_front().expect("non-empty");
                            }
                        }
                        return Step::Data(n, !peek);
                    }
                    if s.shut_rd || matches!(s.state, SockState::Closed) {
                        return Step::Eof;
                    }
                    if !matches!(s.state, SockState::Connected { .. }) {
                        return Step::NotConn;
                    }
                    // Peer gone means EOF too.
                    if !peer_live {
                        return Step::Eof;
                    }
                    if nonblock {
                        return Step::Again;
                    }
                    if has_sig {
                        return Step::Intr;
                    }
                    // Subscribe under our lock: a sender filling the
                    // buffer after this posts only after unlocking.
                    self.waits.park_on(tid, Channel::SockReadable(id));
                    Step::Park
                })?;
                match step {
                    Step::Data(n, drained) => {
                        if drained {
                            // Space opened in our receive buffer: wake the
                            // peer's blocked senders and POLLOUT pollers.
                            self.waits.post(Channel::SockSpace(id));
                        }
                        Ok(n)
                    }
                    Step::Eof => Ok(0),
                    Step::NotConn => Err(Errno::Enotconn.into()),
                    Step::Again => Err(Errno::Eagain.into()),
                    Step::Intr => Err(Errno::Eintr.into()),
                    Step::Park => Err(block()),
                }
            }
            SOCK_DGRAM => {
                let step = self.with_sock(id, |s| {
                    match if peek {
                        s.dgrams.front().cloned()
                    } else {
                        s.dgrams.pop_front()
                    } {
                        Some((_, data)) => {
                            let n = out.len().min(data.len());
                            out[..n].copy_from_slice(&data[..n]);
                            Step::Data(n, false)
                        }
                        None if s.shut_rd => Step::Eof,
                        None if nonblock => Step::Again,
                        None => {
                            self.waits.park_on(tid, Channel::SockReadable(id));
                            Step::Park
                        }
                    }
                })?;
                match step {
                    Step::Data(n, _) => Ok(n),
                    Step::Eof => Ok(0),
                    Step::Again => Err(Errno::Eagain.into()),
                    Step::Park => Err(block()),
                    Step::NotConn | Step::Intr => unreachable!("dgram path"),
                }
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `recvfrom`: returns `(n, source_address)`.
    pub fn sys_recvfrom(
        &mut self,
        tid: Tid,
        fd: i32,
        out: &mut [u8],
        msg_flags: i32,
    ) -> SysResult<(usize, Option<WaliSockaddr>)> {
        let id = self.sock_of_fd(tid, fd)?;
        let (ty, sock_nonblock) = self.with_sock(id, |s| (s.ty, s.nonblock))?;
        if ty == SOCK_DGRAM {
            let nonblock = msg_flags & MSG_DONTWAIT != 0 || sock_nonblock;
            let got = self.with_sock(id, |s| match s.dgrams.pop_front() {
                Some((src, data)) => {
                    let n = out.len().min(data.len());
                    out[..n].copy_from_slice(&data[..n]);
                    Some((n, Some(src)))
                }
                None => {
                    if !nonblock {
                        self.waits.park_on(tid, Channel::SockReadable(id));
                    }
                    None
                }
            })?;
            return match got {
                Some(v) => Ok(v),
                None if nonblock => Err(Errno::Eagain.into()),
                None => Err(block()),
            };
        }
        let n = self.sock_recv(tid, id, out, msg_flags)?;
        let src = self.with_sock(id, |s| s.remote.clone())?;
        Ok((n, src))
    }

    /// `shutdown`.
    pub fn sys_shutdown(&mut self, tid: Tid, fd: i32, how: i32) -> SysResult {
        let id = self.sock_of_fd(tid, fd)?;
        self.with_sock(id, |s| {
            match how {
                SHUT_RD => s.shut_rd = true,
                SHUT_WR => s.shut_wr = true,
                SHUT_RDWR => {
                    s.shut_rd = true;
                    s.shut_wr = true;
                }
                _ => return Err(Errno::Einval),
            }
            Ok(())
        })??;
        // Readiness changed for both ends: blocked readers see EOF,
        // blocked senders EPIPE.
        self.post_socket_hangup(id);
        Ok(0)
    }

    /// Posts every channel a hangup on socket `id` can unblock: its own
    /// readers/senders and, when connected, the peer's.
    fn post_socket_hangup(&mut self, id: usize) {
        let peer = self.with_sock(id, |s| s.peer()).ok().flatten();
        self.waits.post(Channel::SockReadable(id));
        self.waits.post(Channel::SockSpace(id));
        if let Some(p) = peer {
            self.waits.post(Channel::SockReadable(p));
            self.waits.post(Channel::SockSpace(p));
        }
    }

    /// `socketpair`.
    pub fn sys_socketpair(&mut self, tid: Tid, domain: i32, ty: i32) -> SysResult<(i32, i32)> {
        let base_ty = ty & 0xf;
        let a = self.alloc_socket(Socket::new(domain, base_ty));
        let b = self.alloc_socket(Socket::new(domain, base_ty));
        self.with_sock(a, |s| s.state = SockState::Connected { peer: b })?;
        self.with_sock(b, |s| s.state = SockState::Connected { peer: a })?;
        let fa = self.sock_fd(tid, a, ty)?;
        let fb = self.sock_fd(tid, b, ty)?;
        Ok((fa, fb))
    }

    /// `setsockopt`.
    pub fn sys_setsockopt(
        &mut self,
        tid: Tid,
        fd: i32,
        level: i32,
        name: i32,
        value: i32,
    ) -> SysResult {
        let id = self.sock_of_fd(tid, fd)?;
        self.with_sock(id, |s| s.set_option(level, name, value))?;
        Ok(0)
    }

    /// `getsockopt`.
    pub fn sys_getsockopt(&mut self, tid: Tid, fd: i32, level: i32, name: i32) -> SysResult<i32> {
        let id = self.sock_of_fd(tid, fd)?;
        Ok(self.with_sock(id, |s| s.get_option(level, name))?)
    }

    /// `getsockname`.
    pub fn sys_getsockname(&mut self, tid: Tid, fd: i32) -> SysResult<WaliSockaddr> {
        let id = self.sock_of_fd(tid, fd)?;
        self.with_sock(id, |s| s.local.clone())?
            .ok_or(Errno::Einval.into())
    }

    /// `getpeername`.
    pub fn sys_getpeername(&mut self, tid: Tid, fd: i32) -> SysResult<WaliSockaddr> {
        let id = self.sock_of_fd(tid, fd)?;
        self.with_sock(id, |s| s.remote.clone())?
            .ok_or(Errno::Enotconn.into())
    }

    /// Tears a socket down when its last descriptor closes.
    pub(crate) fn release_socket(&mut self, id: usize) {
        // Post the hangup while the peer link is still visible.
        self.post_socket_hangup(id);
        // Unregister the bound address only if this socket owns the
        // registration (accepted connections share the listener's local
        // address but must not tear its registration down).
        if let Ok(Some(local)) = self.with_sock(id, |s| s.local.clone()) {
            let key = addr_key(&local);
            if self.addr_registry.get(&key) == Some(&id) {
                self.addr_registry.remove(&key);
            }
        }
        let peer = self.with_sock(id, |s| s.peer()).ok().flatten();
        if let Some(p) = peer {
            let _ = self.with_sock(p, |ps| ps.state = SockState::Closed);
        }
        // Drop pending unaccepted connections of a listener; free the
        // slab slot only after the last per-socket guard is dropped.
        let orphans = self
            .with_sock(id, |s| {
                let orphans: Vec<usize> = match &mut s.state {
                    SockState::Listening { pending, .. } => pending.drain(..).collect(),
                    _ => Vec::new(),
                };
                s.state = SockState::Closed;
                orphans
            })
            .unwrap_or_default();
        for o in orphans {
            let _ = self.with_sock(o, |os| os.state = SockState::Closed);
        }
        self.shards.socks.free(id);
        let mut waits = self.waits.lock();
        waits.release(Channel::SockReadable(id));
        waits.release(Channel::SockSpace(id));
    }

    // --- poll ---------------------------------------------------------------

    /// Readiness check for `poll`: computes `revents` for each `(fd,
    /// events)` pair. The embedder handles blocking and timeouts.
    pub fn poll_check(&mut self, tid: Tid, fds: &[(i32, i16)]) -> SysResult<Vec<i16>> {
        let mut out = Vec::with_capacity(fds.len());
        for &(fd, events) in fds {
            let revents = if fd < 0 {
                0
            } else {
                self.poll_one(tid, fd, events)?
            };
            out.push(revents);
        }
        Ok(out)
    }

    pub(crate) fn poll_one(&mut self, tid: Tid, fd: i32, events: i16) -> SysResult<i16> {
        let task = self.task(tid)?;
        let entry = {
            let table = task.fdtable.lock_ok();
            match table.get(fd) {
                Ok(e) => e.file.clone(),
                Err(_) => return Ok(wali_abi::flags::POLLNVAL),
            }
        };
        self.poll_desc(tid, &entry, events)
    }

    /// Readiness of one open file description (shared by `poll_one` and
    /// the description-keyed epoll scan, which must keep reporting for a
    /// registration whose original fd number was closed while a duplicate
    /// keeps the description alive).
    pub(crate) fn poll_desc(&mut self, tid: Tid, entry: &FileRef, events: i16) -> SysResult<i16> {
        let kind = entry.lock_ok().kind.clone();
        let mut revents = 0i16;
        match kind {
            FileKind::Regular(_) | FileKind::Dir(_) | FileKind::ProcSnapshot(_) => {
                // Always ready.
                revents |= (POLLIN | POLLOUT) & events;
            }
            FileKind::PipeRead(id) => {
                let (readable, writers) = self.with_pipe(id, |p| (p.readable(), p.writers))?;
                if readable {
                    revents |= POLLIN & events;
                }
                if writers == 0 {
                    revents |= POLLHUP;
                }
            }
            FileKind::PipeWrite(id) => {
                let (writable, readers) = self.with_pipe(id, |p| (p.writable(), p.readers))?;
                if writable {
                    revents |= POLLOUT & events;
                }
                if readers == 0 {
                    revents |= POLLERR;
                }
            }
            FileKind::Socket(id) => {
                let (readable, peer, closed) = self.with_sock(id, |s| {
                    (s.readable(), s.peer(), matches!(s.state, SockState::Closed))
                })?;
                if readable {
                    revents |= POLLIN & events;
                }
                match peer {
                    Some(peer) => {
                        // Peer looked at with its own (sequential) lock.
                        let peer_view = self
                            .with_sock(peer, |p| {
                                (
                                    matches!(p.state, SockState::Connected { .. }),
                                    p.recv_space(),
                                )
                            })
                            .ok();
                        match peer_view {
                            Some((true, space)) => {
                                if space > 0 {
                                    revents |= POLLOUT & events;
                                }
                            }
                            _ => revents |= POLLIN & events | POLLHUP,
                        }
                    }
                    None if closed => revents |= POLLHUP,
                    None => {}
                }
            }
            FileKind::CharDev(inode) => {
                let dev = match &self.vfs.read().get(inode)?.kind {
                    InodeKind::CharDev(d) => d.clone(),
                    _ => return Ok(0),
                };
                match dev {
                    // The console never produces input; always writable.
                    DevKind::Tty => revents |= POLLOUT & events,
                    _ => revents |= (POLLIN | POLLOUT) & events,
                }
            }
            FileKind::EventFd => {
                if entry.lock_ok().counter > 0 {
                    revents |= POLLIN & events;
                }
                revents |= POLLOUT & events;
            }
            FileKind::Epoll(id) => {
                // An epoll fd is readable when its interest set has at
                // least one ready entry (epoll-inside-poll composition).
                // A pure peek, like Linux: the event stays for the
                // following `epoll_wait`.
                let mut peeked = Vec::new();
                self.epoll_ready(tid, id, 1, true, &mut peeked)?;
                if !peeked.is_empty() {
                    revents |= POLLIN & events;
                }
            }
        }
        Ok(revents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SysError;
    use wali_abi::flags::{AF_INET, AF_UNIX};

    fn kp() -> (Kernel, Tid) {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        (k, tid)
    }

    fn loopback(port: u16) -> WaliSockaddr {
        WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port,
        }
    }

    #[test]
    fn stream_connect_accept_echo() {
        let (mut k, tid) = kp();
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_bind(tid, srv, loopback(8080)).unwrap();
        k.sys_listen(tid, srv, 8).unwrap();

        let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_connect(tid, cli, loopback(8080)).unwrap();
        let conn = k.sys_accept(tid, srv, 0).unwrap();

        let id = k.sock_of_fd(tid, cli).unwrap();
        assert_eq!(k.sock_send(tid, id, b"ping", 0).unwrap(), 4);
        let mut buf = [0u8; 8];
        assert_eq!(k.sys_read(tid, conn, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");

        // Echo back.
        assert_eq!(k.sys_write(tid, conn, b"pong").unwrap(), 4);
        assert_eq!(k.sys_read(tid, cli, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn connect_refused_without_listener() {
        let (mut k, tid) = kp();
        let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        assert_eq!(
            k.sys_connect(tid, cli, loopback(9999)),
            Err(SysError::Err(Errno::Econnrefused))
        );
    }

    #[test]
    fn bind_conflicts_are_eaddrinuse() {
        let (mut k, tid) = kp();
        let a = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        let b = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_bind(tid, a, loopback(80)).unwrap();
        assert_eq!(
            k.sys_bind(tid, b, loopback(80)),
            Err(SysError::Err(Errno::Eaddrinuse))
        );
        // Ephemeral assignment works.
        k.sys_bind(tid, b, loopback(0)).unwrap();
        let local = k.sys_getsockname(tid, b).unwrap();
        assert!(matches!(local, WaliSockaddr::Inet { port, .. } if port >= 49152));
    }

    #[test]
    fn accept_blocks_until_connection() {
        let (mut k, tid) = kp();
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_bind(tid, srv, loopback(7000)).unwrap();
        k.sys_listen(tid, srv, 1).unwrap();
        assert!(matches!(k.sys_accept(tid, srv, 0), Err(SysError::Block(_))));
        let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_connect(tid, cli, loopback(7000)).unwrap();
        assert!(k.sys_accept(tid, srv, 0).is_ok());
    }

    #[test]
    fn close_propagates_eof_and_epipe() {
        let (mut k, tid) = kp();
        let (a, b) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
        k.sys_write(tid, a, b"bye").unwrap();
        k.sys_close(tid, a).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            k.sys_read(tid, b, &mut buf).unwrap(),
            3,
            "drain buffered data"
        );
        assert_eq!(k.sys_read(tid, b, &mut buf).unwrap(), 0, "then EOF");
        assert_eq!(k.sys_write(tid, b, b"x"), Err(SysError::Err(Errno::Epipe)));
    }

    #[test]
    fn dgram_sendto_recvfrom() {
        let (mut k, tid) = kp();
        let rx = k.sys_socket(tid, AF_INET, SOCK_DGRAM, 0).unwrap();
        k.sys_bind(tid, rx, loopback(5353)).unwrap();
        let tx = k.sys_socket(tid, AF_INET, SOCK_DGRAM, 0).unwrap();
        k.sys_bind(tid, tx, loopback(5454)).unwrap();
        assert_eq!(
            k.sys_sendto(tid, tx, b"dgram", 0, Some(loopback(5353)))
                .unwrap(),
            5
        );
        let mut buf = [0u8; 16];
        let (n, src) = k.sys_recvfrom(tid, rx, &mut buf, 0).unwrap();
        assert_eq!(&buf[..n], b"dgram");
        assert_eq!(src, Some(loopback(5454)));
    }

    #[test]
    fn unix_sockets_use_path_namespace() {
        let (mut k, tid) = kp();
        let srv = k.sys_socket(tid, AF_UNIX, SOCK_STREAM, 0).unwrap();
        let addr = WaliSockaddr::Unix {
            path: "/tmp/test.sock".into(),
        };
        k.sys_bind(tid, srv, addr.clone()).unwrap();
        k.sys_listen(tid, srv, 4).unwrap();
        let cli = k.sys_socket(tid, AF_UNIX, SOCK_STREAM, 0).unwrap();
        k.sys_connect(tid, cli, addr).unwrap();
        assert!(k.sys_accept(tid, srv, 0).is_ok());
    }

    #[test]
    fn sockopts_and_peeking() {
        use wali_abi::flags::{SOL_SOCKET, SO_REUSEADDR};
        let (mut k, tid) = kp();
        let (a, b) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
        k.sys_setsockopt(tid, a, SOL_SOCKET, SO_REUSEADDR, 1)
            .unwrap();
        assert_eq!(
            k.sys_getsockopt(tid, a, SOL_SOCKET, SO_REUSEADDR).unwrap(),
            1
        );
        k.sys_write(tid, a, b"peekme").unwrap();
        let id = k.sock_of_fd(tid, b).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(k.sock_recv(tid, id, &mut buf, MSG_PEEK).unwrap(), 6);
        assert_eq!(
            k.sock_recv(tid, id, &mut buf, 0).unwrap(),
            6,
            "peek did not consume"
        );
    }

    #[test]
    fn shutdown_wr_gives_epipe_rd_gives_eof() {
        let (mut k, tid) = kp();
        let (a, b) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
        k.sys_shutdown(tid, a, SHUT_WR).unwrap();
        assert_eq!(k.sys_write(tid, a, b"x"), Err(SysError::Err(Errno::Epipe)));
        k.sys_shutdown(tid, b, SHUT_RD).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(k.sys_read(tid, b, &mut buf).unwrap(), 0);
    }

    #[test]
    fn poll_reports_readiness() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let revents = k.poll_check(tid, &[(r, POLLIN), (w, POLLOUT)]).unwrap();
        assert_eq!(revents[0], 0, "empty pipe not readable");
        assert_eq!(revents[1], POLLOUT);
        k.sys_write(tid, w, b"data").unwrap();
        let revents = k.poll_check(tid, &[(r, POLLIN)]).unwrap();
        assert_eq!(revents[0], POLLIN);
        // Bad fd reports POLLNVAL.
        let revents = k.poll_check(tid, &[(99, POLLIN)]).unwrap();
        assert_eq!(revents[0], wali_abi::flags::POLLNVAL);
    }

    #[test]
    fn poll_detects_hangup() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        k.sys_close(tid, w).unwrap();
        let revents = k.poll_check(tid, &[(r, POLLIN)]).unwrap();
        assert_ne!(revents[0] & POLLHUP, 0);
    }

    #[test]
    fn listener_close_resets_pending() {
        let (mut k, tid) = kp();
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_bind(tid, srv, loopback(6000)).unwrap();
        k.sys_listen(tid, srv, 4).unwrap();
        let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_connect(tid, cli, loopback(6000)).unwrap();
        k.sys_close(tid, srv).unwrap();
        // Port is released.
        let srv2 = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_bind(tid, srv2, loopback(6000)).unwrap();
    }
}
