//! Socket and readiness syscalls.

use vkernel::kernel::epoll::EpollHold;
use vkernel::SysError;
use wali_abi::layout::{WaliEpollEvent, WaliPollFd, WaliSockaddr, WaliTimespec};
use wali_abi::signals::SigSet;
use wali_abi::Errno;
use wasm::host::Caller;

use crate::context::WaliContext;
use crate::mem::{
    check_range, read_bytes, read_u32, read_u64, with_slice, with_slice_mut, write_bytes,
    write_fd_pair, write_u32,
};
use crate::registry::{flat, k};

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

fn write_sockaddr(
    c: &mut Caller<'_, WaliContext>,
    addr: &WaliSockaddr,
    ptr: Option<u32>,
    len_ptr: Option<u32>,
) -> Result<(), Errno> {
    let Some(ptr) = ptr else {
        return Ok(());
    };
    let mut buf = [0u8; 128];
    let n = addr.write_to(&mut buf)?;
    let cap = match len_ptr {
        Some(len_ptr) => read_u32(&c.instance.memory, len_ptr)? as usize,
        None => n,
    };
    let out = n.min(cap);
    write_bytes(&c.instance.memory, ptr, &buf[..out])?;
    if let Some(len_ptr) = len_ptr {
        write_u32(&c.instance.memory, len_ptr, n as u32)?;
    }
    Ok(())
}

pub(super) fn socket(c: C, domain: i32, ty: i32, proto: i32) -> R {
    k(c, |kk, tid| kk.sys_socket(tid, domain, ty, proto)).map(|fd| fd as i64)
}

/// A bad `sv` leaves nothing open (see `pipe2`).
pub(super) fn socketpair(c: C, domain: i32, ty: i32, _proto: i32, sv: u32) -> R {
    let mem = &*c.instance.memory;
    check_range(mem, sv, 8)?;
    let pair = k(c, |kk, tid| kk.sys_socketpair(tid, domain, ty))?;
    write_fd_pair(mem, sv, pair)?;
    Ok(0)
}

pub(super) fn bind(c: C, fd: i32, addr: WaliSockaddr) -> R {
    k(c, |kk, tid| kk.sys_bind(tid, fd, addr))
}

pub(super) fn listen(c: C, fd: i32, backlog: i32) -> R {
    k(c, |kk, tid| kk.sys_listen(tid, fd, backlog))
}

pub(super) fn connect(c: C, fd: i32, addr: WaliSockaddr) -> R {
    k(c, |kk, tid| kk.sys_connect(tid, fd, addr))
}

pub(super) fn accept(c: C, fd: i32, addr: Option<u32>, addrlen: Option<u32>) -> R {
    accept4(c, fd, addr, addrlen, 0)
}

pub(super) fn accept4(c: C, fd: i32, addr: Option<u32>, addrlen: Option<u32>, flags: i32) -> R {
    let conn = k(c, |kk, tid| kk.sys_accept(tid, fd, flags))?;
    if addr.is_some() {
        if let Ok(peer) = k(c, |kk, tid| kk.sys_getpeername(tid, conn)) {
            if let Err(errno) = write_sockaddr(c, &peer, addr, addrlen) {
                // The descriptor is installed and the guest will never
                // learn its number: the connection goes with the call
                // (Linux: `put_unused_fd` + `fput`).
                k(c, |kk, tid| kk.sys_close(tid, conn))?;
                return Err(errno.into());
            }
        }
    }
    Ok(conn as i64)
}

pub(super) fn getsockname(c: C, fd: i32, addr: Option<u32>, addrlen: Option<u32>) -> R {
    let name = k(c, |kk, tid| kk.sys_getsockname(tid, fd))?;
    write_sockaddr(c, &name, addr, addrlen)?;
    Ok(0)
}

pub(super) fn getpeername(c: C, fd: i32, addr: Option<u32>, addrlen: Option<u32>) -> R {
    let peer = k(c, |kk, tid| kk.sys_getpeername(tid, fd))?;
    write_sockaddr(c, &peer, addr, addrlen)?;
    Ok(0)
}

pub(super) fn sendto(
    c: C,
    fd: i32,
    buf: u32,
    len: usize,
    flags: i32,
    dest: Option<WaliSockaddr>,
) -> R {
    let mem = &*c.instance.memory;
    flat(with_slice(mem, buf, len, |buf| {
        k(c, |kk, tid| kk.sys_sendto(tid, fd, buf, flags, dest))
    }))
    .map(|n| n as i64)
}

pub(super) fn recvfrom(
    c: C,
    fd: i32,
    buf: &mut [u8],
    flags: i32,
    src: Option<u32>,
    addrlen: Option<u32>,
) -> R {
    let (n, from) = k(c, |kk, tid| kk.sys_recvfrom(tid, fd, buf, flags))?;
    if let Some(from) = from {
        write_sockaddr(c, &from, src, addrlen)?;
    }
    Ok(n as i64)
}

// sendmsg/recvmsg: parse the wasm32 msghdr (name/namelen, iov/iovlen).

pub(super) fn sendmsg(c: C, fd: i32, msg: u32, flags: i32) -> R {
    msg_rw(c, fd, msg, flags, true)
}

pub(super) fn recvmsg(c: C, fd: i32, msg: u32, flags: i32) -> R {
    msg_rw(c, fd, msg, flags, false)
}

pub(super) fn setsockopt(c: C, fd: i32, level: i32, name: i32, optval: u32, _len: u32) -> R {
    let value = read_u32(&c.instance.memory, optval)? as i32;
    k(c, |kk, tid| kk.sys_setsockopt(tid, fd, level, name, value))
}

pub(super) fn getsockopt(
    c: C,
    fd: i32,
    level: i32,
    name: i32,
    optval: u32,
    optlen: Option<u32>,
) -> R {
    let mem = &*c.instance.memory;
    let v = k(c, |kk, tid| kk.sys_getsockopt(tid, fd, level, name))?;
    write_u32(mem, optval, v as u32)?;
    if let Some(optlen) = optlen {
        write_u32(mem, optlen, 4)?;
    }
    Ok(0)
}

pub(super) fn shutdown(c: C, fd: i32, how: i32) -> R {
    k(c, |kk, tid| kk.sys_shutdown(tid, fd, how))
}

pub(super) fn poll(c: C, fds: u32, nfds: usize, timeout_ms: i32) -> R {
    do_poll(c, fds, nfds, timeout_ms as i64)
}

/// `ppoll`: the mask is installed atomically with the block (saved once
/// on entry, held across every re-park) and restored when the call
/// returns — a signal that arrived masked during the wait is delivered
/// exactly once, at the safepoint straight after the syscall.
pub(super) fn ppoll(c: C, fds: u32, nfds: usize, tmo: Option<u32>, sigmask: Option<u32>) -> R {
    let timeout_ms = match tmo {
        None => -1,
        Some(tmo) => {
            let raw = read_bytes(&c.instance.memory, tmo, WaliTimespec::SIZE)?;
            let ts = WaliTimespec::read_from(&raw)?;
            (ts.to_nanos().unwrap_or(0) / 1_000_000) as i64
        }
    };
    swap_wait_mask(c, sigmask)?;
    let r = do_poll(c, fds, nfds, timeout_ms);
    restore_wait_mask(c, r)
}

// select/pselect6 over fd_set bitmaps, lowered onto the same readiness
// check.

pub(super) fn select(
    c: C,
    nfds: i32,
    readfds: Option<u32>,
    writefds: Option<u32>,
    _exceptfds: Option<u32>,
    timeout: Option<u32>,
) -> R {
    do_select(c, nfds, readfds, writefds, timeout, false)
}

pub(super) fn pselect6(
    c: C,
    nfds: i32,
    readfds: Option<u32>,
    writefds: Option<u32>,
    _exceptfds: Option<u32>,
    timeout: Option<u32>,
    _sigmask: u32,
) -> R {
    do_select(c, nfds, readfds, writefds, timeout, true)
}

// The epoll family, backed by the kernel's waitqueues: a blocked
// `epoll_wait` parks on its interest list's wait channels and is woken
// by the first readiness transition on any of them.

pub(super) fn epoll_create1(c: C, flags: i32) -> R {
    k(c, |kk, tid| kk.sys_epoll_create1(tid, flags)).map(|fd| fd as i64)
}

pub(super) fn epoll_ctl(c: C, epfd: i32, op: i32, fd: i32, event: Option<u32>) -> R {
    let (events, data) = match event {
        Some(event) => {
            let raw = read_bytes(&c.instance.memory, event, WaliEpollEvent::SIZE)?;
            let ev = WaliEpollEvent::read_from(&raw)?;
            (ev.events, ev.data)
        }
        // EPOLL_CTL_DEL accepts a NULL event since Linux 2.6.9.
        None => (0, 0),
    };
    k(c, |kk, tid| {
        kk.sys_epoll_ctl(tid, epfd, op, fd, events, data)
    })
}

pub(super) fn epoll_wait(c: C, epfd: i32, events: u32, maxevents: i32, timeout_ms: i32) -> R {
    do_epoll_wait(c, epfd, events, maxevents, timeout_ms as i64)
}

/// `epoll_wait` with a sigmask honored like `ppoll`'s: swapped in
/// atomically with the block, restored on return.
pub(super) fn epoll_pwait(
    c: C,
    epfd: i32,
    events: u32,
    maxevents: i32,
    timeout_ms: i32,
    sigmask: Option<u32>,
) -> R {
    swap_wait_mask(c, sigmask)?;
    let r = do_epoll_wait(c, epfd, events, maxevents, timeout_ms as i64);
    restore_wait_mask(c, r)
}

/// Installs a `ppoll`/`epoll_pwait` temporary signal mask (no-op for a
/// NULL mask pointer). Safe to call on every blocked-call retry: the
/// kernel saves the original mask only on the first swap of the wait.
fn swap_wait_mask(c: C, mask_ptr: Option<u32>) -> Result<(), SysError> {
    let Some(mask_ptr) = mask_ptr else {
        return Ok(());
    };
    let mask = SigSet(read_u64(&c.instance.memory, mask_ptr)?);
    k(c, |kk, tid| {
        kk.sigmask_swap_for_wait(tid, mask);
        Ok::<_, SysError>(())
    })
}

/// Restores the caller's signal mask once the wait concludes (any
/// outcome but a re-park). Pending signals the restored mask unblocks
/// are delivered at the next safepoint — exactly once, after return.
fn restore_wait_mask(c: C, r: R) -> R {
    if !matches!(r, Err(SysError::Block(_))) {
        k(c, |kk, tid| {
            kk.sigmask_restore_after_wait(tid);
            Ok::<_, SysError>(())
        })?;
    }
    r
}

/// Resolves the effective block deadline of a readiness wait (a retry
/// keeps the one it blocked with), `now` being the virtual time of the
/// call. `None` means block without deadline; a deadline at or before
/// `now` means the wait has timed out — the caller's to notice. The
/// arithmetic saturates: a guest picks the timeout.
fn wait_deadline(now: u64, retry_deadline: Option<u64>, timeout_ms: i64) -> Option<u64> {
    match retry_deadline {
        Some(d) => Some(d),
        None if timeout_ms > 0 => {
            let ns = (timeout_ms as u64).saturating_mul(1_000_000);
            Some(now.saturating_add(ns))
        }
        None => None,
    }
}

/// How a wait that found nothing blocks.
fn block_on(deadline: Option<u64>) -> SysError {
    match deadline {
        Some(d) => vkernel::block_until(d),
        None => vkernel::block(),
    }
}

/// Gives `hold` back; the kernel lock only if the call dropped the
/// description's last reference (its descriptor was closed meanwhile).
fn give_back(c: C, hold: EpollHold) {
    if let Some((last, key)) = hold.give_back() {
        k(c, |kk, _| kk.release_description(last, key));
    }
}

fn do_epoll_wait(c: C, epfd: i32, ev_ptr: u32, maxevents: i32, timeout_ms: i64) -> R {
    let mem = &*c.instance.memory;
    let retry_deadline = c.data.retry_deadline.take();
    // A report consumes what it reports (an edge, a ONESHOT arm), so the
    // buffer is checked before anything is popped: a bad `events` pointer
    // is `-EFAULT` with the events still queued.
    let args = match maxevents {
        ..=0 => Err(Errno::Einval),
        n => mem
            .check(ev_ptr as u64, n as u64 * WaliEpollEvent::SIZE as u64)
            .map_err(|_| Errno::Efault),
    };
    let split = crate::fault::scan_split_enabled();
    // The instance this call resolved before it blocked — its own only:
    // the retry of a blocked call is its task's next host call, and the
    // descriptor number says it is this one. Anything else gives it back.
    let kept = matches!(c.data.epoll_hold, Some((fd, _)) if fd == epfd);
    if !kept || args.is_err() || split {
        if let Some((_, hold)) = c.data.epoll_hold.take() {
            give_back(c, hold);
        }
    }
    args?;
    // Pop-then-park runs inside ONE hold of the instance: a readiness
    // transition on another worker can land between a separate pop and
    // park, pushing to an instance nobody waits in yet — the classic
    // lost-wakeup race. Atomic check-or-park closes it.
    //
    // The `scan-split` fault gate re-opens exactly that window (two
    // separate critical sections) so the fuzzer can demonstrate its
    // oracles catch the race; see `crate::fault`.
    if split {
        let ready = k(c, |kk, tid| {
            kk.sys_epoll_wait_ready(tid, epfd, maxevents as usize)
        })?;
        if !ready.is_empty() || timeout_ms == 0 {
            return write_epoll_events(mem, ev_ptr, &ready);
        }
        // Kernel lock released here: the lost-wakeup window. Yield a few
        // times to widen it — the injected race should fire within a
        // handful of fuzzer attempts, not once in a blue moon.
        for _ in 0..8 {
            std::thread::yield_now();
        }
        k(c, |kk, tid| {
            let deadline = wait_deadline(kk.clock.monotonic_ns(), retry_deadline, timeout_ms);
            if let Some(d) = deadline {
                if kk.clock.monotonic_ns() >= d {
                    return Ok(());
                }
            }
            kk.epoll_park(tid, epfd)?;
            Err(block_on(deadline))
        })?;
        // Deadline lapsed without events.
        return Ok(0);
    }
    // On the shards, like Linux's `ep_poll`: resolve (a first attempt
    // only) through the task's own fd table, pop — which parks in the
    // same hold of the instance when it finds nothing and the call may
    // block — and give the instance back unless the call blocks. A
    // spuriously woken waiter (all but one of a prefork herd) looks
    // nothing up and re-parks from inside its one pop, under no kernel
    // or waitqueue lock. The kernel lock is taken only to release a
    // description whose last reference the call dropped. The hold stays
    // in the context while the call blocks.
    if c.data.epoll_hold.is_none() {
        let hold = EpollHold::resolve(&c.data.fdtable, epfd)?;
        c.data.epoll_hold = Some((epfd, hold));
    }
    let (_, hold, mut sh) = c.data.shards();
    // A wait with a deadline reads the clock, this task's deferred ticks
    // charged to it first; one without reads none.
    let (deadline, lapsed) = match (retry_deadline, timeout_ms) {
        (None, ..=0) => (None, false),
        (retry, _) => {
            sh.flush_ticks();
            let now = sh.handles.clock.monotonic_ns();
            let deadline = wait_deadline(now, retry, timeout_ms);
            (deadline, deadline.is_some_and(|d| now >= d))
        }
    };
    let park = timeout_ms != 0 && !lapsed;
    let (task, hold) = (sh.task(), hold.expect("kept or resolved"));
    let mut ready = Vec::new();
    let max = maxevents as usize;
    let parked = sh.run(|h, tid| h.epoll_wait(tid, task, hold, max, park, &mut ready));
    if parked {
        return Err(block_on(deadline));
    }
    // Events, a zero timeout or a lapsed one (no events).
    if let Some((_, hold)) = c.data.epoll_hold.take() {
        give_back(c, hold);
    }
    write_epoll_events(mem, ev_ptr, &ready)
}

/// Marshals ready `(events, data)` pairs into the guest's event array
/// and returns the count (shared by the normal and fault-gated paths of
/// [`do_epoll_wait`]).
fn write_epoll_events(mem: &wasm::mem::Memory, ev_ptr: u32, ready: &[(u32, u64)]) -> R {
    for (i, (events, data)) in ready.iter().enumerate() {
        let ev = WaliEpollEvent {
            events: *events,
            data: *data,
        };
        let mut buf = [0u8; WaliEpollEvent::SIZE];
        ev.write_to(&mut buf)?;
        write_bytes(mem, ev_ptr + (i * WaliEpollEvent::SIZE) as u32, &buf)?;
    }
    Ok(ready.len() as i64)
}

/// Shared core of `sendmsg`/`recvmsg` and the ring's `Sendmsg` SQE:
/// parses the wasm32 msghdr and walks its iov array with the same
/// IOV_MAX bound and short-count blocking rule as
/// [`crate::registry::fs::iov_rw`] — a would-block after earlier iovs
/// transferred returns the partial total (retrying the whole call
/// would duplicate the sent bytes); only a zero-progress block parks.
pub(crate) fn msg_rw(c: C, fd: i32, msg_ptr: u32, flags: i32, send: bool) -> R {
    use wali_abi::layout::WaliIovec;
    let mem = &*c.instance.memory;
    // wasm32 msghdr: name(4) namelen(4) iov(4) iovlen(4) control(4)
    // controllen(4) flags(4).
    let hdr = read_bytes(mem, msg_ptr, 28)?;
    let iov_ptr = u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes"));
    let iovlen = u32::from_le_bytes(hdr[12..16].try_into().expect("4 bytes")) as usize;
    if iovlen > wali_abi::ring::IOV_MAX {
        return Err(Errno::Einval.into());
    }
    let bytes = iovlen.checked_mul(WaliIovec::SIZE).ok_or(Errno::Einval)?;
    let raw = read_bytes(mem, iov_ptr, bytes)?;
    let iovs = WaliIovec::read_array(&raw, iovlen)?;
    let mut total = 0i64;
    for iov in iovs {
        if iov.len == 0 {
            continue;
        }
        let r = if send {
            flat(with_slice(mem, iov.base, iov.len as usize, |buf| {
                k(c, |kk, tid| kk.sys_sendto(tid, fd, buf, flags, None))
            }))
        } else {
            flat(with_slice_mut(mem, iov.base, iov.len as usize, |buf| {
                k(c, |kk, tid| {
                    kk.sys_recvfrom(tid, fd, buf, flags).map(|(n, _)| n)
                })
            }))
        };
        let n = match r {
            Ok(n) => n,
            Err(e) if total == 0 => return Err(e),
            Err(_) => return Ok(total),
        };
        total += n as i64;
        if (n as u32) < iov.len {
            break;
        }
    }
    Ok(total)
}

fn do_poll(c: C, fds_ptr: u32, nfds: usize, timeout_ms: i64) -> R {
    if nfds > 1024 {
        return Err(Errno::Einval.into());
    }
    let mem = &*c.instance.memory;
    let raw = read_bytes(mem, fds_ptr, nfds * WaliPollFd::SIZE)?;
    let mut fds = Vec::with_capacity(nfds);
    for i in 0..nfds {
        let p = WaliPollFd::read_from(&raw[i * WaliPollFd::SIZE..])?;
        fds.push(p);
    }
    let pairs: Vec<(i32, i16)> = fds.iter().map(|p| (p.fd, p.events)).collect();
    let retry_deadline = c.data.retry_deadline.take();
    // Atomic check-or-park (see `do_epoll_wait` for the lost-wakeup
    // race this closes). A lapsed deadline reports all-zero revents.
    let revents = k(c, |kk, tid| {
        let revents = kk.poll_check(tid, &pairs)?;
        let ready = revents.iter().filter(|&&r| r != 0).count();
        if ready > 0 || timeout_ms == 0 {
            return Ok(revents);
        }
        let deadline = wait_deadline(kk.clock.monotonic_ns(), retry_deadline, timeout_ms);
        if let Some(d) = deadline {
            if kk.clock.monotonic_ns() >= d {
                return Ok(vec![0; revents.len()]);
            }
        }
        kk.wait_on_fds(tid, &pairs);
        Err(block_on(deadline))
    })?;
    let ready = revents.iter().filter(|&&r| r != 0).count();
    for (i, p) in fds.iter_mut().enumerate() {
        p.revents = revents[i];
        let mut buf = [0u8; WaliPollFd::SIZE];
        p.write_to(&mut buf)?;
        write_bytes(mem, fds_ptr + (i * WaliPollFd::SIZE) as u32, &buf)?;
    }
    Ok(ready as i64)
}

fn do_select(
    c: C,
    nfds: i32,
    rptr: Option<u32>,
    wptr: Option<u32>,
    tptr: Option<u32>,
    is_pselect: bool,
) -> R {
    let nfds = nfds.clamp(0, 1024) as usize;
    let mem = &*c.instance.memory;

    let read_set = |ptr: Option<u32>| -> Result<Vec<i32>, SysError> {
        let Some(ptr) = ptr else {
            return Ok(Vec::new());
        };
        let raw = read_bytes(mem, ptr, 128)?;
        let mut fds = Vec::new();
        for fd in 0..nfds {
            if raw[fd / 8] & (1 << (fd % 8)) != 0 {
                fds.push(fd as i32);
            }
        }
        Ok(fds)
    };
    let rfds = read_set(rptr)?;
    let wfds = read_set(wptr)?;

    let mut pairs: Vec<(i32, i16)> = Vec::new();
    for fd in &rfds {
        pairs.push((*fd, wali_abi::flags::POLLIN));
    }
    for fd in &wfds {
        pairs.push((*fd, wali_abi::flags::POLLOUT));
    }

    let timeout_ms: i64 = match tptr {
        None => -1,
        Some(tptr) if is_pselect => {
            let raw = read_bytes(mem, tptr, WaliTimespec::SIZE)?;
            let ts = WaliTimespec::read_from(&raw)?;
            (ts.to_nanos().unwrap_or(0) / 1_000_000) as i64
        }
        Some(tptr) => {
            let raw = read_bytes(mem, tptr, 16)?;
            let sec = i64::from_le_bytes(raw[0..8].try_into().expect("8 bytes"));
            let usec = i64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
            sec.saturating_mul(1000).saturating_add(usec / 1000)
        }
    };

    let retry_deadline = c.data.retry_deadline.take();
    // Atomic check-or-park; `None` back from the closure means the
    // deadline lapsed (timeout: fd sets untouched, like before).
    let revents = k(c, |kk, tid| {
        let revents = kk.poll_check(tid, &pairs)?;
        let ready = revents.iter().filter(|&&r| r != 0).count();
        if ready > 0 || timeout_ms == 0 {
            return Ok(Some(revents));
        }
        let deadline = wait_deadline(kk.clock.monotonic_ns(), retry_deadline, timeout_ms);
        if let Some(d) = deadline {
            if kk.clock.monotonic_ns() >= d {
                return Ok(None);
            }
        }
        kk.wait_on_fds(tid, &pairs);
        Err(block_on(deadline))
    })?;
    let Some(revents) = revents else {
        return Ok(0);
    };
    let ready = revents.iter().filter(|&&r| r != 0).count();
    let write_set = |ptr: Option<u32>, fds: &[i32], base: usize| -> Result<(), SysError> {
        let Some(ptr) = ptr else {
            return Ok(());
        };
        let mut raw = [0u8; 128];
        for (i, fd) in fds.iter().enumerate() {
            if revents[base + i] != 0 {
                raw[*fd as usize / 8] |= 1 << (*fd as usize % 8);
            }
        }
        Ok(write_bytes(mem, ptr, &raw)?)
    };
    write_set(rptr, &rfds, 0)?;
    write_set(wptr, &wfds, rfds.len())?;
    Ok(ready as i64)
}

#[cfg(test)]
mod tests {
    use vkernel::Kernel;
    use wali_abi::flags::{EPOLLIN, EPOLL_CTL_ADD};
    use wasm::host::{Caller, HostOutcome};

    use crate::context::WaliContext;
    use crate::guest::Sysno;
    use crate::registry::build_linker;
    use crate::WALI_MODULE;

    /// The instance a blocked `epoll_wait` keeps goes to the retry of
    /// that call and to nothing else: a call on another descriptor (a
    /// layer above re-entered on other arguments) gives it back and
    /// resolves its own. Given back, it is released — here the
    /// descriptor was closed under the blocked call, so the kept
    /// reference was the instance's last.
    #[test]
    fn a_kept_epoll_instance_is_not_inherited_by_another_call() {
        let wait = build_linker()
            .resolve(WALI_MODULE, Sysno::epoll_wait.row().import)
            .expect("registered")
            .clone();
        let mut mb = wasm::build::ModuleBuilder::new();
        mb.memory(1, Some(1));
        let program =
            wasm::Program::link(&mb.build(), &build_linker(), wasm::SafepointScheme::None)
                .expect("link");
        let instance = wasm::Instance::new(std::sync::Arc::new(program)).expect("instantiate");
        let kernel = crate::new_kernel_ref(Kernel::new());
        let tid = kernel.lock_ok().spawn_process();
        let mut ctx = WaliContext::new(kernel.clone(), tid, 4096, true);
        let call = |ctx: &mut WaliContext, epfd: i32, timeout: i64| {
            let mut caller = Caller {
                instance: &instance,
                data: ctx,
                sig: None,
            };
            wait(&mut caller, &[epfd as u64, 64, 1, timeout as u64])
        };
        let (idle, busy) = {
            let mut k = kernel.lock_ok();
            let idle = k.sys_epoll_create1(tid, 0).unwrap();
            let busy = k.sys_epoll_create1(tid, 0).unwrap();
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, busy, EPOLL_CTL_ADD, r, EPOLLIN, 0xB2)
                .unwrap();
            k.sys_write(tid, w, b"x").unwrap();
            (idle, busy)
        };
        let epolls = || kernel.lock_ok().leak_audit().open_epolls;

        assert!(matches!(
            call(&mut ctx, idle, -1),
            Err(HostOutcome::Block(_))
        ));
        assert!(ctx.subscribed, "a syscall that blocks has subscribed");
        assert!(matches!(ctx.epoll_hold, Some((fd, _)) if fd == idle));
        // Closed under the blocked call: the instance stays, kept.
        kernel.lock_ok().sys_close(tid, idle).unwrap();
        assert_eq!(epolls(), 2);

        assert_eq!(call(&mut ctx, busy, 0).ok(), Some(1));
        assert!(ctx.epoll_hold.is_none(), "an answered call keeps nothing");
        assert_eq!(epolls(), 1, "the other call gave the kept instance back");
        let data = instance.memory.load::<8>(64 + 4).map(u64::from_le_bytes);
        assert_eq!(data.ok(), Some(0xB2));
        kernel.lock_ok().wait_cancel(tid);
    }
}
