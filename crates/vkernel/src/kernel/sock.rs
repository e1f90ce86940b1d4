//! Socket syscalls and readiness (`poll`).
//!
//! A call resolves its descriptor once (`Kernel::sock_of_fd`: the
//! socket's handle and the description's `O_NONBLOCK`), takes each
//! socket's lock once — never two at a time: the locks of a
//! connection's two ends are of equal rank — and tells the waitqueue
//! everything in one entry ([`crate::wait::WaitShard::post_all`]) after
//! the last object lock is dropped. Stream and datagram transfers
//! (`KernelHandles::sock_recv`, `KernelHandles::sock_send`) touch
//! only shards, so `read`/`write` on a socket run them without the
//! kernel lock; what is left to the core is `SIGPIPE`, routing a
//! datagram through the address registry and — for a caller that cannot
//! say whether a signal is pending — the park of a stream receive
//! ([`Core`]).

use wali_abi::flags::{
    MSG_DONTWAIT, MSG_PEEK, O_NONBLOCK, O_RDWR, POLLERR, POLLHUP, POLLIN, POLLOUT, SHUT_RD,
    SHUT_RDWR, SHUT_WR, SOCK_CLOEXEC, SOCK_DGRAM, SOCK_NONBLOCK, SOCK_STREAM,
};
use wali_abi::layout::WaliSockaddr;
use wali_abi::Errno;

use crate::fd::{FileKind, FileRef, OpenFile};
use crate::pipe::Pipe;
use crate::slab::Handle;
use crate::socket::{addr_key, SockState, Socket};
use crate::sync::MutexExt;
use crate::vfs::DevKind;
use crate::vfs::InodeKind;
use crate::wait::Channel;
use crate::{block, SysResult, Tid};

use super::epoll::Pop;
use super::io::{Core, Intr};
use super::{ChanSet, Kernel, KernelHandles};

/// A received byte count and, where asked for or carried by the
/// datagram, the sender's address.
type Received = (usize, Option<WaliSockaddr>);

impl KernelHandles {
    /// Stream/datagram receive: `read`, `recv`, `recvfrom`, `recvmsg`.
    /// `flags` are the `MSG_*` flags, `MSG_DONTWAIT` standing for a
    /// non-blocking description too. One hold of the socket serves
    /// ready bytes, EOF, `-EAGAIN`, `-EINTR` and the park (`intr` is
    /// consulted only there); a connected socket needs no look at its
    /// peer — whoever closes an end closes the other's state
    /// ([`SockState::Connected`]).
    pub(crate) fn sock_recv(
        &self,
        tid: Tid,
        sock: &Handle<Socket>,
        out: &mut [u8],
        flags: i32,
        want_src: bool,
        intr: Intr,
    ) -> Result<SysResult<Received>, Core> {
        let (nonblock, peek) = (flags & MSG_DONTWAIT != 0, flags & MSG_PEEK != 0);
        let mut s = sock.lock_ok();
        if s.ty == SOCK_DGRAM {
            let got = match peek {
                true => s.dgrams.front().cloned(),
                false => s.dgrams.pop_front(),
            };
            return Ok(match got {
                Some((src, data)) => {
                    let n = out.len().min(data.len());
                    out[..n].copy_from_slice(&data[..n]);
                    Ok((n, Some(src)))
                }
                None if s.shut_rd => Ok((0, None)),
                None if nonblock => Err(Errno::Eagain.into()),
                None => {
                    self.waits.park_on(tid, Channel::SockReadable(sock.id));
                    Err(block())
                }
            });
        }
        if !s.recv.is_empty() {
            let n = s.take_bytes(out, peek);
            let src = want_src.then(|| s.remote.clone()).flatten();
            drop(s);
            if !peek {
                // Space opened in our receive buffer: wake the peer's
                // blocked senders and POLLOUT pollers.
                self.waits.post(Channel::SockSpace(sock.id));
            }
            return Ok(Ok((n, src)));
        }
        Ok(match s.state {
            _ if s.shut_rd => Ok((0, None)),
            SockState::Closed => Ok((0, None)),
            SockState::Connected { .. } if nonblock => Err(Errno::Eagain.into()),
            SockState::Connected { .. } => match intr {
                Intr::HintDown => return Err(Core::Park(sock.clone())),
                Intr::Ask(pending) if pending() => Err(Errno::Eintr.into()),
                Intr::Ask(_) => {
                    // Subscribe under our lock: a sender filling the
                    // buffer (or a close emptying the state) after this
                    // posts only after unlocking.
                    self.waits.park_on(tid, Channel::SockReadable(sock.id));
                    Err(block())
                }
            },
            _ => Err(Errno::Enotconn.into()),
        })
    }

    /// Stream send: `write`, `send`, `sendto`, `sendmsg` (`flags` as in
    /// [`KernelHandles::sock_recv`]). One hold of the sender (may it
    /// send, and to whom), then one of the peer: the copy into its
    /// receive buffer or, when that is full, the park (which alone comes
    /// back to the sender for a second look). A datagram socket and a
    /// broken connection are the core's.
    pub(crate) fn sock_send(
        &self,
        tid: Tid,
        sock: &Handle<Socket>,
        data: &[u8],
        flags: i32,
    ) -> Result<SysResult<usize>, Core> {
        let peer = {
            let s = sock.lock_ok();
            if s.shut_wr {
                return Err(Core::Sigpipe);
            }
            if s.ty == SOCK_DGRAM {
                return Err(Core::Dgram(Box::new((s.local.clone(), s.remote.clone()))));
            }
            match &s.state {
                SockState::Connected { peer } => peer.upgrade().ok_or(Core::Sigpipe)?,
                SockState::Closed => return Err(Core::Sigpipe),
                _ => return Ok(Err(Errno::Enotconn.into())),
            }
        };
        let n = {
            let mut p = peer.lock_ok();
            if !matches!(p.state, SockState::Connected { .. }) || p.shut_rd {
                return Err(Core::Sigpipe);
            }
            let n = data.len().min(p.recv_space());
            if n == 0 {
                if flags & MSG_DONTWAIT != 0 {
                    return Ok(Err(Errno::Eagain.into()));
                }
                // Park until the peer drains its buffer; it posts after
                // unlocking.
                self.waits.park_on(tid, Channel::SockSpace(peer.id));
                drop(p);
                // `shutdown(SHUT_WR)` changes the sender's socket, not
                // the peer this park was made under, and a caller off
                // the kernel lock can be overtaken by one between its
                // two holds: subscribed, look again (the shutdown's post
                // follows its store).
                if sock.lock_ok().shut_wr {
                    self.waits.lock().unsubscribe(tid);
                    return Err(Core::Sigpipe);
                }
                return Ok(Err(block()));
            }
            p.recv.extend(&data[..n]);
            n
        };
        // Data arrived at the peer: wake its readers and pollers.
        self.waits.post(Channel::SockReadable(peer.id));
        Ok(Ok(n))
    }
}

impl Kernel {
    /// A new descriptor for `sock` (which nothing else refers to yet: a
    /// table with no room releases it).
    fn sock_fd(&mut self, tid: Tid, sock: Handle<Socket>, flags: i32) -> SysResult<i32> {
        let status = match flags & SOCK_NONBLOCK {
            0 => 0,
            _ => O_NONBLOCK,
        };
        let file = OpenFile::shared(FileKind::Socket(sock.clone()), O_RDWR | status);
        let task = self.task(tid)?;
        let fd = task
            .fdtable
            .lock_ok()
            .alloc(file, flags & SOCK_CLOEXEC != 0);
        if fd.is_err() {
            self.release_socket(&sock);
        }
        Ok(fd?)
    }

    /// The socket behind `fd` and whether its description is
    /// `O_NONBLOCK` — the one place a socket call reads the fd table
    /// and the description.
    fn sock_of_fd(&self, tid: Tid, fd: i32) -> Result<(Handle<Socket>, bool), Errno> {
        let task = self.task(tid)?;
        let table = task.fdtable.lock_ok();
        let file = table.get(fd)?.file.lock_ok();
        match &file.kind {
            FileKind::Socket(sock) => Ok((sock.clone(), file.flags & O_NONBLOCK != 0)),
            _ => Err(Errno::Enotsock),
        }
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
        let sock = self.socks.insert(Socket::new(domain, base_ty));
        self.sock_fd(tid, sock, ty)
    }

    /// `bind`.
    pub fn sys_bind(&mut self, tid: Tid, fd: i32, addr: WaliSockaddr) -> SysResult {
        let (sock, _) = self.sock_of_fd(tid, fd)?;
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
        {
            let mut s = sock.lock_ok();
            if s.local.is_some() {
                return Err(Errno::Einval.into());
            }
            s.local = Some(addr);
            s.state = SockState::Bound;
        }
        self.addr_registry.insert(key, sock);
        Ok(0)
    }

    /// `listen`.
    pub fn sys_listen(&mut self, tid: Tid, fd: i32, backlog: i32) -> SysResult {
        let (sock, _) = self.sock_of_fd(tid, fd)?;
        let mut s = sock.lock_ok();
        if s.ty != SOCK_STREAM {
            return Err(Errno::Eopnotsupp.into());
        }
        match s.state {
            SockState::Bound | SockState::Listening { .. } => {
                s.state = SockState::Listening {
                    backlog: backlog.max(1) as usize,
                    pending: Default::default(),
                };
                Ok(0)
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `connect`.
    pub fn sys_connect(&mut self, tid: Tid, fd: i32, addr: WaliSockaddr) -> SysResult {
        let (client, _) = self.sock_of_fd(tid, fd)?;
        let local = {
            let mut c = client.lock_ok();
            if c.ty == SOCK_DGRAM {
                // Datagram connect just sets the default peer address.
                c.remote = Some(addr);
                return Ok(0);
            }
            if !matches!(c.state, SockState::Unbound | SockState::Bound) {
                return Err(Errno::Eisconn.into());
            }
            c.local.clone()
        };
        let listener = self.addr_registry.get(&addr_key(&addr));
        let listener = listener.ok_or(Errno::Econnrefused)?.clone();
        // The server-side socket of the pair is complete before anyone
        // can see it: made, given its id and queued under one hold of
        // the listener.
        let server = {
            let mut l = listener.lock_ok();
            let mut server = Socket::new(l.domain, l.ty);
            match &mut l.state {
                SockState::Listening { backlog, pending } if pending.len() < *backlog => {
                    server.state = SockState::Connected {
                        peer: client.downgrade(),
                    };
                    server.local = Some(addr.clone());
                    server.remote = local;
                    let server = self.socks.insert(server);
                    pending.push_back(server.clone());
                    server
                }
                _ => return Err(Errno::Econnrefused.into()),
            }
        };
        {
            let mut c = client.lock_ok();
            c.state = SockState::Connected {
                peer: server.downgrade(),
            };
            c.remote = Some(addr);
        }
        // A connection is pending: wake blocked `accept`s and pollers.
        // Establishing the pair is also both ends' writability
        // transition (POLLOUT = space in the peer's receive buffer,
        // which just came into existence) — the ready-ring router needs
        // that edge to queue POLLOUT-only registrations made before the
        // connect.
        self.waits.post_all(
            &[
                Channel::SockReadable(listener.id),
                Channel::SockSpace(client.id),
                Channel::SockSpace(server.id),
            ],
            &[],
        );
        Ok(0)
    }

    /// `accept4`: returns the new connection fd.
    pub fn sys_accept(&mut self, tid: Tid, fd: i32, flags: i32) -> SysResult<i32> {
        let (listener, nonblock) = self.sock_of_fd(tid, fd)?;
        let conn = {
            let mut l = listener.lock_ok();
            let SockState::Listening { pending, .. } = &mut l.state else {
                return Err(Errno::Einval.into());
            };
            match pending.pop_front() {
                Some(conn) => conn,
                None if nonblock => return Err(Errno::Eagain.into()),
                None if self.has_pending_signal(tid) => return Err(Errno::Eintr.into()),
                None => {
                    // Subscribe under the listener's lock: a connect
                    // landing after this posts only after releasing it.
                    self.waits.park_on(tid, Channel::SockReadable(listener.id));
                    return Err(block());
                }
            }
        };
        self.sock_fd(tid, conn, flags)
    }

    /// Delivers a datagram to whoever is bound to `dest`.
    fn dgram_deliver(
        &mut self,
        from: Option<WaliSockaddr>,
        dest: Option<WaliSockaddr>,
        data: &[u8],
    ) -> SysResult<usize> {
        let dest = dest.ok_or(Errno::Edestaddrreq)?;
        let target = self.addr_registry.get(&addr_key(&dest));
        let target = target.ok_or(Errno::Econnrefused)?;
        let from = from.unwrap_or(WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port: 0,
        });
        {
            let mut t = target.lock_ok();
            if t.dgrams.len() >= 256 {
                return Err(Errno::Enobufs.into());
            }
            t.dgrams.push_back((from, data.to_vec()));
        }
        // A datagram arrived: wake the target's readers and pollers.
        self.waits.post(Channel::SockReadable(target.id));
        Ok(data.len())
    }

    /// What [`KernelHandles::sock_send`] left to the core, for a send
    /// whose explicit destination (`sendto`) is `dest`.
    pub(crate) fn finish_send(
        &mut self,
        tid: Tid,
        rest: Core,
        dest: Option<WaliSockaddr>,
        data: &[u8],
    ) -> SysResult<usize> {
        match rest {
            Core::Dgram(addrs) => self.dgram_deliver(addrs.0, dest.or(addrs.1), data),
            // A send leaves nothing else to the core.
            Core::Sigpipe | Core::Dev(_) | Core::Park(_) => self.epipe(tid),
        }
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
        let (sock, nonblock) = self.sock_of_fd(tid, fd)?;
        let flags = msg_flags | dontwait(nonblock);
        let io = self.shards.sock_send(tid, &sock, data, flags);
        io.unwrap_or_else(|rest| self.finish_send(tid, rest, dest, data))
    }

    /// `recvfrom`: returns `(n, source_address)`.
    pub fn sys_recvfrom(
        &mut self,
        tid: Tid,
        fd: i32,
        out: &mut [u8],
        msg_flags: i32,
    ) -> SysResult<(usize, Option<WaliSockaddr>)> {
        let (sock, nonblock) = self.sock_of_fd(tid, fd)?;
        let flags = msg_flags | dontwait(nonblock);
        self.recv_asking(tid, &sock, out, flags, true)
    }

    /// [`KernelHandles::sock_recv`] for a caller under the kernel lock:
    /// a park asks the core about pending signals, so none is handed
    /// back.
    pub(crate) fn recv_asking(
        &self,
        tid: Tid,
        sock: &Handle<Socket>,
        out: &mut [u8],
        flags: i32,
        want_src: bool,
    ) -> SysResult<Received> {
        let ask = || self.has_pending_signal(tid);
        let got = self
            .shards
            .sock_recv(tid, sock, out, flags, want_src, Intr::Ask(&ask));
        got.unwrap_or_else(|_| Err(Errno::Eintr.into()))
    }

    /// `shutdown`.
    pub fn sys_shutdown(&mut self, tid: Tid, fd: i32, how: i32) -> SysResult {
        let (sock, _) = self.sock_of_fd(tid, fd)?;
        let peer = {
            let mut s = sock.lock_ok();
            match how {
                SHUT_RD => s.shut_rd = true,
                SHUT_WR => s.shut_wr = true,
                SHUT_RDWR => {
                    s.shut_rd = true;
                    s.shut_wr = true;
                }
                _ => return Err(Errno::Einval.into()),
            }
            s.peer_id()
        };
        // Readiness changed for both ends: blocked readers see EOF,
        // blocked senders EPIPE.
        self.post_hangup(sock.id, peer, &[]);
        Ok(0)
    }

    /// Posts every channel a hangup on socket `id` can unblock — its own
    /// readers and senders and, when connected, the peer's — and
    /// releases the `dead` heads of a socket that is gone.
    fn post_hangup(&self, id: usize, peer: Option<usize>, dead: &[Channel]) {
        let p = peer.unwrap_or(id);
        let posts = [
            Channel::SockReadable(id),
            Channel::SockSpace(id),
            Channel::SockReadable(p),
            Channel::SockSpace(p),
        ];
        let posts = &posts[..if peer.is_some() { 4 } else { 2 }];
        self.waits.post_all(posts, dead);
    }

    /// `socketpair`.
    pub fn sys_socketpair(&mut self, tid: Tid, domain: i32, ty: i32) -> SysResult<(i32, i32)> {
        let base_ty = ty & 0xf;
        let a = self.socks.insert(Socket::new(domain, base_ty));
        let mut b = Socket::new(domain, base_ty);
        b.state = SockState::Connected {
            peer: a.downgrade(),
        };
        let b = self.socks.insert(b);
        a.lock_ok().state = SockState::Connected {
            peer: b.downgrade(),
        };
        // A full table releases the socket it had no room for; the other
        // end goes too.
        let fa = self.sock_fd(tid, a, ty);
        match (fa, self.sock_fd(tid, b, ty)) {
            (Ok(fa), Ok(fb)) => Ok((fa, fb)),
            (Ok(fa), Err(e)) => self.sys_close(tid, fa).and(Err(e)),
            (Err(e), _) => Err(e),
        }
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
        let (sock, _) = self.sock_of_fd(tid, fd)?;
        sock.lock_ok().set_option(level, name, value);
        Ok(0)
    }

    /// `getsockopt`.
    pub fn sys_getsockopt(&mut self, tid: Tid, fd: i32, level: i32, name: i32) -> SysResult<i32> {
        let (sock, _) = self.sock_of_fd(tid, fd)?;
        let value = sock.lock_ok().get_option(level, name);
        Ok(value)
    }

    /// `getsockname`.
    pub fn sys_getsockname(&mut self, tid: Tid, fd: i32) -> SysResult<WaliSockaddr> {
        let (sock, _) = self.sock_of_fd(tid, fd)?;
        let local = sock.lock_ok().local.clone();
        local.ok_or(Errno::Einval.into())
    }

    /// `getpeername`.
    pub fn sys_getpeername(&mut self, tid: Tid, fd: i32) -> SysResult<WaliSockaddr> {
        let (sock, _) = self.sock_of_fd(tid, fd)?;
        let remote = sock.lock_ok().remote.clone();
        remote.ok_or(Errno::Enotconn.into())
    }

    /// Tears a socket down when its last descriptor closes: its state
    /// and its peer's close (one hold each), the bound address and the
    /// slot go, then — after the last object lock — the hangup is posted
    /// and the socket's wait heads die.
    pub(crate) fn release_socket(&mut self, sock: &Handle<Socket>) {
        let (peer, local, orphans) = {
            let mut s = sock.lock_ok();
            let peer = s.peer();
            let was = std::mem::replace(&mut s.state, SockState::Closed);
            let orphans = match was {
                SockState::Listening { pending, .. } => pending,
                _ => Default::default(),
            };
            (peer, s.local.take(), orphans)
        };
        // Unregister the bound address only if this socket owns the
        // registration (accepted connections share the listener's local
        // address but must not tear its registration down).
        if let Some(key) = local.as_ref().map(addr_key) {
            if self.addr_registry.get(&key) == Some(sock) {
                self.addr_registry.remove(&key);
            }
        }
        if let Some(p) = &peer {
            p.lock_ok().state = SockState::Closed;
        }
        self.socks.free(sock.id);
        let dead = [Channel::SockReadable(sock.id), Channel::SockSpace(sock.id)];
        self.post_hangup(sock.id, peer.map(|p| p.id), &dead);
        // A listener's unaccepted connections go with it: each is a
        // socket nobody else will ever close, and its client must hear
        // of the hangup.
        for orphan in &orphans {
            self.release_socket(orphan);
        }
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
        let file = task.fdtable.lock_ok().file(fd);
        match file {
            Ok(file) => Ok(self.probe(tid, &file, events)?.1),
            Err(_) => Ok(wali_abi::flags::POLLNVAL),
        }
    }

    /// One readiness walk over an open file description: the wait
    /// channels whose posts can change its readiness for `events`, and
    /// its `poll` revents right now — from one hold of the description
    /// and, for a pipe end or socket, [`Pollable::probe`] of the object
    /// it holds. Addressed by description, not fd: the epoll interest
    /// list is description-keyed and must keep reporting for a
    /// registration whose original fd number was closed while a
    /// duplicate keeps the description alive.
    ///
    /// POLLHUP/POLLERR are reported regardless of the requested events
    /// (a zero mask is the classic watch-for-hangup idiom), and hangups
    /// post on the same channels as data transitions — so pipe/socket
    /// pollers subscribe unconditionally. A data wakeup the poller did
    /// not ask for is merely spurious: the retry re-scans and re-parks.
    pub(crate) fn probe(
        &mut self,
        tid: Tid,
        file: &FileRef,
        events: i16,
    ) -> SysResult<(ChanSet, i16)> {
        let mut chans = ChanSet::default();
        let mut revents = 0i16;
        let f = file.lock_ok();
        if let Some(object) = Pollable::of(&f.kind) {
            drop(f);
            return Ok(object.probe(events));
        }
        match &f.kind {
            FileKind::CharDev(inode) => {
                let dev = match &self.vfs.read().get(*inode)?.kind {
                    InodeKind::CharDev(d) => d.clone(),
                    _ => return Ok((chans, 0)),
                };
                match dev {
                    // The console never produces input; always writable.
                    DevKind::Tty => revents |= POLLOUT & events,
                    _ => revents |= (POLLIN | POLLOUT) & events,
                }
            }
            FileKind::EventFd => {
                if events & POLLIN != 0 {
                    chans.push(Channel::EventFd(std::sync::Arc::as_ptr(file) as usize));
                }
                if f.counter > 0 {
                    revents |= POLLIN & events;
                }
                revents |= POLLOUT & events;
            }
            FileKind::Epoll(ep) => {
                let ep = ep.clone();
                drop(f);
                // Every readiness transition of the interest set is
                // routed to the instance's ready channel by the hub —
                // one channel, any size. An epoll fd is readable when
                // its interest set has at least one ready entry
                // (epoll-inside-poll composition). A pure peek, like
                // Linux: the event stays for the following `epoll_wait`.
                chans.push(Channel::EpollReady(ep.id));
                let mut peeked = Vec::new();
                self.epoll_ready(tid, &ep, 1, Pop::Peek, &mut peeked);
                if !peeked.is_empty() {
                    revents |= POLLIN & events;
                }
            }
            // Always ready.
            FileKind::Regular(_) | FileKind::Dir(_) | FileKind::ProcSnapshot(_) => {
                revents |= (POLLIN | POLLOUT) & events
            }
            FileKind::PipeRead(_) | FileKind::PipeWrite(_) | FileKind::Socket(_) => {
                unreachable!("a pipe end or socket is a `Pollable`")
            }
        }
        Ok((chans, revents))
    }
}

/// A pipe end or a socket as a readiness walk reaches it: the object
/// itself, which a description holds and an epoll registration keeps
/// from the `epoll_ctl` that armed it — so a walk that starts from
/// either takes no lock but the object's.
#[derive(Clone, Debug)]
pub(crate) enum Pollable {
    PipeRead(Handle<Pipe>),
    PipeWrite(Handle<Pipe>),
    Socket(Handle<Socket>),
}

impl Pollable {
    /// What `kind` holds, if it is a pipe end or a socket.
    pub(crate) fn of(kind: &FileKind) -> Option<Pollable> {
        Some(match kind {
            FileKind::PipeRead(pipe) => Pollable::PipeRead(pipe.clone()),
            FileKind::PipeWrite(pipe) => Pollable::PipeWrite(pipe.clone()),
            FileKind::Socket(sock) => Pollable::Socket(sock.clone()),
            _ => return None,
        })
    }

    /// [`Kernel::probe`] of the object: one hold of it and, for a
    /// connected socket asked about output, one of the peer, whose
    /// receive buffer is the space.
    pub(crate) fn probe(&self, events: i16) -> (ChanSet, i16) {
        let mut chans = ChanSet::default();
        let mut revents = 0i16;
        match self {
            Pollable::PipeRead(pipe) => {
                chans.push(Channel::PipeReadable(pipe.id));
                let p = pipe.lock_ok();
                if p.readable() {
                    revents |= POLLIN & events;
                }
                if p.writers == 0 {
                    revents |= POLLHUP;
                }
            }
            Pollable::PipeWrite(pipe) => {
                chans.push(Channel::PipeWritable(pipe.id));
                let p = pipe.lock_ok();
                if p.writable() {
                    revents |= POLLOUT & events;
                }
                if p.readers == 0 {
                    revents |= POLLERR;
                }
            }
            Pollable::Socket(sock) => {
                chans.push(Channel::SockReadable(sock.id));
                chans.push(Channel::SockSpace(sock.id));
                let (readable, closed, peer) = {
                    let s = sock.lock_ok();
                    let closed = matches!(s.state, SockState::Closed);
                    // Output is asked about: space is the peer's to tell.
                    let peer = (events & POLLOUT != 0).then(|| s.peer()).flatten();
                    (s.readable(), closed, peer)
                };
                if readable {
                    revents |= POLLIN & events;
                }
                if closed {
                    revents |= POLLHUP;
                }
                if let Some(peer) = peer {
                    chans.push(Channel::SockSpace(peer.id));
                    let p = peer.lock_ok();
                    match p.state {
                        SockState::Connected { .. } if p.recv_space() > 0 => {
                            revents |= POLLOUT & events
                        }
                        SockState::Connected { .. } => {}
                        _ => revents |= POLLIN & events | POLLHUP,
                    }
                }
            }
        }
        (chans, revents)
    }
}

/// `MSG_DONTWAIT` for a description that is `O_NONBLOCK`.
pub(crate) fn dontwait(nonblock: bool) -> i32 {
    match nonblock {
        true => MSG_DONTWAIT,
        false => 0,
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

        assert_eq!(k.sys_sendto(tid, cli, b"ping", 0, None).unwrap(), 4);
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
        let mut buf = [0u8; 6];
        assert_eq!(k.sys_recvfrom(tid, b, &mut buf, MSG_PEEK).unwrap().0, 6);
        assert_eq!(
            k.sys_recvfrom(tid, b, &mut buf, 0).unwrap().0,
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

    fn woken(k: &mut Kernel) -> Vec<Tid> {
        let mut out = Vec::new();
        k.drain_woken(&mut out);
        out
    }

    fn parked<T: std::fmt::Debug>(r: SysResult<T>) {
        assert!(
            matches!(r, Err(SysError::Block(_))),
            "expected a park: {r:?}"
        );
    }

    /// A listener that closes with a connection nobody accepted used to
    /// leave the server-side socket allocated for good and the client
    /// parked for good: its retry would have read 0, but nothing posted
    /// on its channels.
    #[test]
    fn a_closing_listener_frees_unaccepted_connections_and_wakes_their_clients() {
        let (mut k, tid) = kp();
        let reader = k.sys_fork(tid).unwrap() as Tid;
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_bind(tid, srv, loopback(6100)).unwrap();
        k.sys_listen(tid, srv, 4).unwrap();
        let parked_cli = k.sys_socket(reader, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_connect(reader, parked_cli, loopback(6100)).unwrap();
        let idle_cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_connect(tid, idle_cli, loopback(6100)).unwrap();
        let mut buf = [0u8; 4];
        parked(k.sys_read(reader, parked_cli, &mut buf));
        assert_eq!(k.leak_audit().open_sockets, 5);

        k.sys_close(tid, srv).unwrap();
        assert_eq!(woken(&mut k), vec![reader], "the parked client hears of it");
        assert_eq!(k.leak_audit().open_sockets, 2, "both orphans are freed");
        for (t, fd) in [(reader, parked_cli), (tid, idle_cli)] {
            assert_eq!(k.sys_read(t, fd, &mut buf), Ok(0), "reset reads as EOF");
            assert_eq!(k.sys_write(t, fd, b"x"), Err(SysError::Err(Errno::Epipe)));
            k.sys_close(t, fd).unwrap();
        }
        let audit = k.leak_audit();
        assert_eq!(
            (
                audit.open_sockets,
                audit.wait_subscriptions,
                audit.wait_heads
            ),
            (0, 0, 0),
            "{}",
            audit.describe()
        );
        // The slots are reusable: ids start over.
        let (a, b) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
        assert_eq!(k.sock_of_fd(tid, a).unwrap().0.id, 0);
        assert_eq!(k.sock_of_fd(tid, b).unwrap().0.id, 1);
    }

    /// `O_NONBLOCK` lives on the description and nowhere else: set at
    /// creation (`SOCK_NONBLOCK`, `accept4`), by `fcntl(F_SETFL)` or by
    /// `FIONBIO`, it turns every park of every socket call into
    /// `-EAGAIN`; cleared, the parks are back. (`F_SETFL` used to be
    /// ignored by socket I/O, which kept a flag of its own.)
    #[test]
    fn o_nonblock_set_by_fcntl_governs_every_socket_call() {
        use wali_abi::flags::{FIONBIO, F_GETFL, F_SETFL};
        let again = |r: SysResult<usize>| assert_eq!(r, Err(SysError::Err(Errno::Eagain)));
        let (mut k, tid) = kp();
        let (a, b) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_bind(tid, srv, loopback(6200)).unwrap();
        k.sys_listen(tid, srv, 4).unwrap();
        // Fill `b`'s receive buffer so a blocking send on `a` would park.
        let chunk = vec![7u8; crate::socket::SOCK_BUF_SIZE];
        assert_eq!(k.sys_write(tid, a, &chunk), Ok(chunk.len() as i64));
        let mut buf = [0u8; 8];

        for fd in [a, srv] {
            k.sys_fcntl(tid, fd, F_SETFL, O_NONBLOCK).unwrap();
        }
        again(k.sys_read(tid, a, &mut buf).map(|n| n as usize));
        again(k.sys_recvfrom(tid, a, &mut buf, 0).map(|(n, _)| n));
        again(k.sys_write(tid, a, b"x").map(|n| n as usize));
        again(k.sys_sendto(tid, a, b"x", 0, None));
        again(k.sys_accept(tid, srv, 0).map(|fd| fd as usize));
        assert!(
            woken(&mut k).is_empty() && !k.task_waits(tid),
            "nothing parked"
        );

        for fd in [a, srv] {
            k.sys_fcntl(tid, fd, F_SETFL, 0).unwrap();
        }
        parked(k.sys_read(tid, a, &mut buf));
        parked(k.sys_recvfrom(tid, a, &mut buf, 0));
        parked(k.sys_write(tid, a, b"x"));
        parked(k.sys_sendto(tid, a, b"x", 0, None));
        parked(k.sys_accept(tid, srv, 0));
        // One call's flag still overrides a blocking description.
        again(
            k.sys_recvfrom(tid, a, &mut buf, MSG_DONTWAIT)
                .map(|(n, _)| n),
        );
        k.wait_cancel(tid);

        // The other ways in: FIONBIO, SOCK_NONBLOCK, accept4.
        k.sys_ioctl(tid, b, FIONBIO).unwrap();
        let chunk_len = chunk.len();
        let mut sink = chunk;
        assert_eq!(k.sys_read(tid, b, &mut sink), Ok(chunk_len as i64));
        again(k.sys_read(tid, b, &mut buf).map(|n| n as usize));
        let cli = k
            .sys_socket(tid, AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0)
            .unwrap();
        let nonblocking =
            |k: &mut Kernel, fd| k.sys_fcntl(tid, fd, F_GETFL, 0).unwrap() & O_NONBLOCK as i64 != 0;
        assert!(nonblocking(&mut k, cli) && !nonblocking(&mut k, srv));
        k.sys_connect(tid, cli, loopback(6200)).unwrap();
        again(k.sys_read(tid, cli, &mut buf).map(|n| n as usize));
        let conn = k.sys_accept(tid, srv, SOCK_NONBLOCK).unwrap();
        assert!(nonblocking(&mut k, conn));
        again(k.sys_read(tid, conn, &mut buf).map(|n| n as usize));
    }

    /// A sender asks "may I send" under its own lock and parks under its
    /// peer's. Off the kernel lock, `shutdown(SHUT_WR)` can land between
    /// the two — it needs only the sender's socket — and its post finds
    /// nobody: the sender looks at its own socket again once subscribed.
    /// The interleaving is forced by holding the peer's lock until the
    /// sender is seen waiting for it.
    #[test]
    fn a_shutdown_between_a_senders_two_holds_still_ends_its_write() {
        use crate::lockorder::{contention, LockClass};
        use std::sync::mpsc::channel;
        let (mut k, tid) = kp();
        let (a, b) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
        let full = vec![0u8; crate::socket::SOCK_BUF_SIZE];
        assert_eq!(k.sys_write(tid, a, &full), Ok(full.len() as i64));
        let file = k.task(tid).unwrap().fdtable.lock_ok().file(a).unwrap();
        let (peer, _) = k.sock_of_fd(tid, b).unwrap();
        let handles = k.handles();

        let (locked, is_locked) = channel();
        let (release, released) = channel::<()>();
        let holder = std::thread::spawn(move || {
            let _held = peer.lock_ok();
            locked.send(()).unwrap();
            let _ = released.recv();
        });
        is_locked.recv().unwrap();
        let contended = contention(LockClass::Object);
        let sender = std::thread::spawn(move || handles.write(tid, &file, b"x", Intr::HintDown));
        // Past its own hold, stopped at the peer's.
        while contention(LockClass::Object) == contended {
            std::thread::yield_now();
        }
        k.sys_shutdown(tid, a, SHUT_WR).unwrap();
        release.send(()).unwrap();
        assert_eq!(sender.join().unwrap(), Err(Core::Sigpipe));
        holder.join().unwrap();
        assert!(!k.task_waits(tid), "the park was taken back");
    }
}
