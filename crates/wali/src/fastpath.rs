//! The sharded syscall fast path: pipe and stream-socket I/O without
//! the kernel lock.
//!
//! PR 4 made the runner thread-safe by putting the whole kernel behind
//! one mutex, and paid for it on every syscall — including the
//! `read`/`write` ping-pong loops that dominate the IPC benchmarks.
//! This module wins that toll back. With the kernel's state sharded
//! (per-object pipe/socket locks, a sharded process index, a
//! self-locking waitqueue), the hot I/O syscalls can run entirely
//! against the shards:
//!
//! 1. look the task up in the [`vkernel::ProcIndex`] — once per task:
//!    the hot handles are cached in the [`WaliContext`] ([`HotCache`]),
//! 2. resolve the fd through the task's own fd table (never behind the
//!    kernel lock),
//! 3. operate on the single pipe or socket object under its own lock.
//!
//! Anything off the hot shape — regular files, devices, eventfds,
//! epoll, datagram sockets, `SIGPIPE` raising, blocking corner cases —
//! returns [`None`] and falls through to the ordinary big-lock handler,
//! which redoes the call from scratch (every fast-path bail-out leaves
//! the object state untouched, so the redo is idempotent).
//!
//! # Equivalence and the signal hint
//!
//! The fast path must block and wake exactly like the slow path: every
//! miss falls through to it mid-conversation, and fast- and slow-path
//! callers share the same objects. Two protocols make it so:
//!
//! * **Never-missed wakeups.** Consumers inspect object state *and*
//!   subscribe to the wait channels under the object's lock; producers
//!   mutate under that lock and post only after dropping it. This is
//!   the same protocol the kernel's own handlers follow, so fast- and
//!   slow-path waiters interleave safely on the same objects.
//! * **Signal precedence.** Every kill path raises the task's
//!   [`vkernel::HintFlag`] *before* posting its wakeup. The fast path
//!   checks the hint on entry (raised ⇒ bail out, the slow path owns
//!   `EINTR`), and re-checks it after subscribing for a block: if a
//!   signal raced in, it unsubscribes and bails so the slow path can
//!   observe the pending signal under the kernel lock.

use std::sync::{Arc, Mutex, Weak};

use vkernel::fd::{FdTable, FileKind};
use vkernel::pipe::PipeIo;
use vkernel::socket::SockState;
use vkernel::{block, Channel, HintFlag, MutexExt, SysError};
use wali_abi::flags::{O_NONBLOCK, SOCK_STREAM};
use wali_abi::Errno;

use crate::context::WaliContext;

/// A completion on the fast path, counted in the task's own trace
/// (`Trace::fastpath_hits`; the contention stress test asserts it moves).
#[inline]
fn hit<T>(ctx: &mut WaliContext, r: T) -> Option<T> {
    ctx.trace.fastpath_hits += 1;
    Some(r)
}

/// Per-context cache of the [`vkernel::ProcIndex`] lookup: a task's fd
/// table and signal hint are assigned once at task creation and never
/// replaced (exec keeps the `Arc`, exit tears the whole context down),
/// so the index only needs to be consulted on the task's first syscall.
///
/// The fd table is held *weakly*: exit-time fd release
/// (`release_task_files`) detects the last table holder with
/// `Arc::try_unwrap`, and a strong clone parked in a long-lived context
/// would make that test lie and leak every description.
pub(crate) struct HotCache {
    fdtable: Weak<Mutex<FdTable>>,
    sig_hint: HintFlag,
}

/// Raised-signal check against the cached hint (`true` ⇒ the slow path
/// must run to observe the pending signal under the kernel lock).
fn sig_raised(ctx: &WaliContext) -> bool {
    ctx.hot_cache.as_ref().is_some_and(|c| c.sig_hint.get())
}

/// Resolves the open file behind `fd` through the cached hot state,
/// bailing to the slow path on any miss (unregistered task, raised
/// signal hint, bad fd).
fn resolve(ctx: &mut WaliContext, fd: i32) -> Option<(FileKind, i32)> {
    if ctx.hot_cache.is_none() {
        let hot = ctx.handles.procs.get(ctx.tid)?;
        ctx.hot_cache = Some(HotCache {
            fdtable: Arc::downgrade(&hot.fdtable),
            sig_hint: hot.sig_hint,
        });
    }
    let cache = ctx.hot_cache.as_ref().expect("just filled");
    if cache.sig_hint.get() {
        // A signal (or termination) is pending: the slow path owns
        // delivery ordering and EINTR.
        return None;
    }
    let fdtable = cache.fdtable.upgrade()?;
    let file = fdtable.lock_ok().get_file_cached(fd).ok()?;
    let (kind, flags) = {
        let f = file.lock_ok();
        (f.kind.clone(), f.flags)
    };
    Some((kind, flags))
}

/// `read(fd, buf)` against the shards. `Some(result)` when handled;
/// `None` falls through to the big-lock handler.
pub(crate) fn try_read(
    ctx: &mut WaliContext,
    fd: i32,
    out: &mut [u8],
) -> Option<Result<i64, SysError>> {
    let (kind, flags) = resolve(ctx, fd)?;
    match kind {
        FileKind::PipeRead(id) => {
            let nonblock = flags & O_NONBLOCK != 0;
            let pipe = ctx.handles.pipes.get(id)?;
            let waits = &ctx.handles.waits;
            let io = {
                let mut p = pipe.lock_ok();
                let r = p.read(out);
                if matches!(r, PipeIo::WouldBlock) && !nonblock {
                    // Subscribe while still holding the pipe lock: a
                    // writer filling the buffer after this point posts
                    // only after dropping the lock (kernel and fast
                    // path alike), so the wakeup cannot be missed.
                    waits.park_on(ctx.tid, Channel::PipeReadable(id));
                }
                r
            };
            match io {
                PipeIo::Xfer(n) => {
                    // Space opened up: wake blocked writers (post after
                    // dropping the pipe lock).
                    waits.post(Channel::PipeWritable(id));
                    hit(ctx, Ok(n as i64))
                }
                PipeIo::Eof => hit(ctx, Ok(0)),
                PipeIo::WouldBlock if nonblock => hit(ctx, Err(Errno::Eagain.into())),
                PipeIo::WouldBlock => {
                    if sig_raised(ctx) {
                        // A kill raced in between the entry check and
                        // the subscription. The hint was raised before
                        // the signal's wakeup post, so observing it
                        // here is enough: drop the subscription and
                        // redo on the slow path, which sees the
                        // pending signal and returns EINTR.
                        ctx.handles.waits.lock().unsubscribe(ctx.tid);
                        return None;
                    }
                    hit(ctx, Err(block()))
                }
                PipeIo::Broken => unreachable!("read never reports Broken"),
            }
        }
        FileKind::Socket(id) => try_sock_recv(ctx, id, out),
        _ => None,
    }
}

/// `write(fd, data)` against the shards.
pub(crate) fn try_write(
    ctx: &mut WaliContext,
    fd: i32,
    data: &[u8],
) -> Option<Result<i64, SysError>> {
    let (kind, flags) = resolve(ctx, fd)?;
    match kind {
        FileKind::PipeWrite(id) => {
            let nonblock = flags & O_NONBLOCK != 0;
            let pipe = ctx.handles.pipes.get(id)?;
            let waits = &ctx.handles.waits;
            let io = {
                let mut p = pipe.lock_ok();
                let r = p.write(data);
                if matches!(r, PipeIo::WouldBlock) && !nonblock {
                    // Subscribe under the pipe lock (see try_read).
                    waits.park_on(ctx.tid, Channel::PipeWritable(id));
                }
                r
            };
            match io {
                PipeIo::Xfer(n) => {
                    // Data arrived: wake blocked readers and pollers.
                    waits.post(Channel::PipeReadable(id));
                    hit(ctx, Ok(n as i64))
                }
                // Raising SIGPIPE needs the kernel lock; the redo is
                // idempotent (no pipe state was changed).
                PipeIo::Broken => None,
                PipeIo::WouldBlock if nonblock => hit(ctx, Err(Errno::Eagain.into())),
                PipeIo::WouldBlock => {
                    if sig_raised(ctx) {
                        ctx.handles.waits.lock().unsubscribe(ctx.tid);
                        return None;
                    }
                    hit(ctx, Err(block()))
                }
                PipeIo::Eof => unreachable!("write never reports Eof"),
            }
        }
        FileKind::Socket(id) => try_sock_send(ctx, id, data),
        _ => None,
    }
}

/// Stream-socket receive: handles only the drain-available-bytes shape
/// (what the IPC ping-pong loops hit); EOF, blocking and datagrams fall
/// through.
fn try_sock_recv(
    ctx: &mut WaliContext,
    id: usize,
    out: &mut [u8],
) -> Option<Result<i64, SysError>> {
    let sock = ctx.handles.socks.get(id)?;
    let n = {
        let mut s = sock.lock_ok();
        if s.ty != SOCK_STREAM || s.recv.is_empty() {
            return None;
        }
        let n = out.len().min(s.recv.len());
        for b in out.iter_mut().take(n) {
            *b = s.recv.pop_front().expect("non-empty");
        }
        n
    };
    // Space opened in our receive buffer: wake the peer's blocked
    // senders and POLLOUT pollers (post after dropping the lock).
    ctx.handles.waits.post(Channel::SockSpace(id));
    hit(ctx, Ok(n as i64))
}

/// Stream-socket send: handles only the copy-into-peer-space shape;
/// full buffers, closed peers (SIGPIPE needs the kernel lock) and
/// datagrams fall through.
fn try_sock_send(ctx: &mut WaliContext, id: usize, data: &[u8]) -> Option<Result<i64, SysError>> {
    let peer = {
        let s = ctx.handles.socks.get(id)?;
        let g = s.lock_ok();
        if g.ty != SOCK_STREAM || g.shut_wr {
            return None;
        }
        match g.state {
            SockState::Connected { peer } => peer,
            _ => return None,
        }
        // Own lock dropped here: the two per-socket locks never nest.
    };
    let n = {
        let p = ctx.handles.socks.get(peer)?;
        let mut g = p.lock_ok();
        if !matches!(g.state, SockState::Connected { .. }) || g.shut_rd {
            return None;
        }
        let space = g.recv_space();
        if space == 0 {
            // Blocking on peer space needs the subscribe-under-peer-
            // lock dance plus EAGAIN handling; leave it to the slow
            // path, which redoes the checks from scratch.
            return None;
        }
        let n = data.len().min(space);
        g.recv.extend(&data[..n]);
        n
    };
    // Data arrived at the peer: wake its readers and pollers (post
    // after dropping the peer's lock).
    ctx.handles.waits.post(Channel::SockReadable(peer));
    hit(ctx, Ok(n as i64))
}
