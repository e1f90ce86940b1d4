//! Socket and readiness syscalls.

use vkernel::SysError;
use wali_abi::layout::{WaliEpollEvent, WaliPollFd, WaliSockaddr, WaliTimespec};
use wali_abi::signals::SigSet;
use wali_abi::Errno;
use wasm::host::{Caller, Linker};

use crate::context::WaliContext;
use crate::mem::{
    arg, arg_i32, arg_ptr, read_bytes, read_u32, read_u64, with_slice, with_slice_mut, write_bytes,
    write_u32,
};
use crate::registry::{flat, k, sys};

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

fn read_sockaddr(
    c: &mut Caller<'_, WaliContext>,
    ptr: u32,
    len: usize,
) -> Result<WaliSockaddr, Errno> {
    let raw = read_bytes(&c.instance.memory, ptr, len.clamp(2, 128))?;
    WaliSockaddr::read_from(&raw)
}

fn write_sockaddr(
    c: &mut Caller<'_, WaliContext>,
    addr: &WaliSockaddr,
    ptr: u32,
    len_ptr: u32,
) -> Result<(), Errno> {
    if ptr == 0 {
        return Ok(());
    }
    let mut buf = [0u8; 128];
    let n = addr.write_to(&mut buf)?;
    let cap = if len_ptr != 0 {
        read_u32(&c.instance.memory, len_ptr)? as usize
    } else {
        n
    };
    let out = n.min(cap);
    write_bytes(&c.instance.memory, ptr, &buf[..out])?;
    if len_ptr != 0 {
        write_u32(&c.instance.memory, len_ptr, n as u32)?;
    }
    Ok(())
}

pub(crate) fn register(l: &mut Linker<WaliContext>) {
    sys!(l, "socket", |c: C, a: &[u64]| -> R {
        let (domain, ty, proto) = (arg_i32(a, 0), arg_i32(a, 1), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_socket(tid, domain, ty, proto)).map(|fd| fd as i64)
    });

    sys!(l, "socketpair", |c: C, a: &[u64]| -> R {
        let (domain, ty, fds_ptr) = (arg_i32(a, 0), arg_i32(a, 1), arg_ptr(a, 3));
        let mem = &*c.instance.memory;
        let (fa, fb) = k(c, |kk, tid| kk.sys_socketpair(tid, domain, ty))?;
        write_u32(mem, fds_ptr, fa as u32).map_err(SysError::Err)?;
        write_u32(mem, fds_ptr + 4, fb as u32).map_err(SysError::Err)?;
        Ok(0)
    });

    sys!(l, "bind", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len) = (arg_i32(a, 0), arg_ptr(a, 1), arg(a, 2) as usize);
        let addr = read_sockaddr(c, ptr, len).map_err(SysError::Err)?;
        k(c, |kk, tid| kk.sys_bind(tid, fd, addr))
    });

    sys!(l, "listen", |c: C, a: &[u64]| -> R {
        let (fd, backlog) = (arg_i32(a, 0), arg_i32(a, 1));
        k(c, |kk, tid| kk.sys_listen(tid, fd, backlog))
    });

    sys!(l, "connect", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len) = (arg_i32(a, 0), arg_ptr(a, 1), arg(a, 2) as usize);
        let addr = read_sockaddr(c, ptr, len).map_err(SysError::Err)?;
        k(c, |kk, tid| kk.sys_connect(tid, fd, addr))
    });

    sys!(l, "accept", |c: C, a: &[u64]| -> R { do_accept(c, a, 0) });
    sys!(l, "accept4", |c: C, a: &[u64]| -> R {
        let flags = arg_i32(a, 3);
        do_accept(c, a, flags)
    });

    sys!(l, "getsockname", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len_ptr) = (arg_i32(a, 0), arg_ptr(a, 1), arg_ptr(a, 2));
        let addr = k(c, |kk, tid| kk.sys_getsockname(tid, fd))?;
        write_sockaddr(c, &addr, ptr, len_ptr).map_err(SysError::Err)?;
        Ok(0)
    });

    sys!(l, "getpeername", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len_ptr) = (arg_i32(a, 0), arg_ptr(a, 1), arg_ptr(a, 2));
        let addr = k(c, |kk, tid| kk.sys_getpeername(tid, fd))?;
        write_sockaddr(c, &addr, ptr, len_ptr).map_err(SysError::Err)?;
        Ok(0)
    });

    // sendto(fd, buf, len, flags, dest, destlen).
    sys!(l, "sendto", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len, flags, dest_ptr, dest_len) = (
            arg_i32(a, 0),
            arg_ptr(a, 1),
            arg(a, 2) as usize,
            arg_i32(a, 3),
            arg_ptr(a, 4),
            arg(a, 5) as usize,
        );
        let dest = if dest_ptr != 0 {
            Some(read_sockaddr(c, dest_ptr, dest_len).map_err(SysError::Err)?)
        } else {
            None
        };
        let mem = &*c.instance.memory;
        flat(with_slice(mem, ptr, len, |buf| {
            k(c, |kk, tid| {
                kk.sys_sendto(tid, fd, buf, flags, dest.clone())
            })
        }))
        .map(|n| n as i64)
    });

    // recvfrom(fd, buf, len, flags, src, srclen).
    sys!(l, "recvfrom", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len, flags, src_ptr, srclen_ptr) = (
            arg_i32(a, 0),
            arg_ptr(a, 1),
            arg(a, 2) as usize,
            arg_i32(a, 3),
            arg_ptr(a, 4),
            arg_ptr(a, 5),
        );
        let mem = &*c.instance.memory;
        let (n, src) = flat(with_slice_mut(mem, ptr, len, |buf| {
            k(c, |kk, tid| kk.sys_recvfrom(tid, fd, buf, flags))
        }))?;
        if let Some(addr) = src {
            write_sockaddr(c, &addr, src_ptr, srclen_ptr).map_err(SysError::Err)?;
        }
        Ok(n as i64)
    });

    // sendmsg/recvmsg: parse the wasm32 msghdr (name/namelen, iov/iovlen).
    sys!(l, "sendmsg", |c: C, a: &[u64]| -> R { do_msg(c, a, true) });
    sys!(l, "recvmsg", |c: C, a: &[u64]| -> R { do_msg(c, a, false) });

    sys!(l, "setsockopt", |c: C, a: &[u64]| -> R {
        let (fd, level, name, val_ptr) =
            (arg_i32(a, 0), arg_i32(a, 1), arg_i32(a, 2), arg_ptr(a, 3));
        let value = read_u32(&c.instance.memory, val_ptr).map_err(SysError::Err)? as i32;
        k(c, |kk, tid| kk.sys_setsockopt(tid, fd, level, name, value))
    });

    sys!(l, "getsockopt", |c: C, a: &[u64]| -> R {
        let (fd, level, name, val_ptr, len_ptr) = (
            arg_i32(a, 0),
            arg_i32(a, 1),
            arg_i32(a, 2),
            arg_ptr(a, 3),
            arg_ptr(a, 4),
        );
        let mem = &*c.instance.memory;
        let v = k(c, |kk, tid| kk.sys_getsockopt(tid, fd, level, name))?;
        write_u32(mem, val_ptr, v as u32).map_err(SysError::Err)?;
        if len_ptr != 0 {
            write_u32(mem, len_ptr, 4).map_err(SysError::Err)?;
        }
        Ok(0)
    });

    sys!(l, "shutdown", |c: C, a: &[u64]| -> R {
        let (fd, how) = (arg_i32(a, 0), arg_i32(a, 1));
        k(c, |kk, tid| kk.sys_shutdown(tid, fd, how))
    });

    // poll(fds, nfds, timeout_ms).
    sys!(l, "poll", |c: C, a: &[u64]| -> R {
        // The timeout is a C `int`.
        let timeout_ms = arg_i32(a, 2) as i64;
        do_poll(c, arg_ptr(a, 0), arg(a, 1) as usize, timeout_ms)
    });

    // ppoll(fds, nfds, timespec, sigmask): the mask is installed
    // atomically with the block (saved once on entry, held across every
    // re-park) and restored when the call returns — a signal that
    // arrived masked during the wait is delivered exactly once, at the
    // safepoint straight after the syscall.
    sys!(l, "ppoll", |c: C, a: &[u64]| -> R {
        let ts_ptr = arg_ptr(a, 2);
        let timeout_ms = if ts_ptr == 0 {
            -1
        } else {
            let raw = read_bytes(&c.instance.memory, ts_ptr, WaliTimespec::SIZE)
                .map_err(SysError::Err)?;
            let ts = WaliTimespec::read_from(&raw).map_err(SysError::Err)?;
            (ts.to_nanos().unwrap_or(0) / 1_000_000) as i64
        };
        swap_wait_mask(c, arg_ptr(a, 3))?;
        let r = do_poll(c, arg_ptr(a, 0), arg(a, 1) as usize, timeout_ms);
        restore_wait_mask(c, r)
    });

    // select(nfds, readfds, writefds, exceptfds, timeval) over fd_set
    // bitmaps, lowered onto the same readiness check.
    sys!(l, "select", |c: C, a: &[u64]| -> R {
        do_select(c, a, false)
    });
    sys!(l, "pselect6", |c: C, a: &[u64]| -> R {
        do_select(c, a, true)
    });

    // The epoll family, backed by the kernel's waitqueues: a blocked
    // `epoll_wait` parks on its interest list's wait channels and is
    // woken by the first readiness transition on any of them.
    sys!(l, "epoll_create1", |c: C, a: &[u64]| -> R {
        let flags = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_epoll_create1(tid, flags)).map(|fd| fd as i64)
    });

    // epoll_ctl(epfd, op, fd, event).
    sys!(l, "epoll_ctl", |c: C, a: &[u64]| -> R {
        let (epfd, op, fd, ev_ptr) = (arg_i32(a, 0), arg_i32(a, 1), arg_i32(a, 2), arg_ptr(a, 3));
        let (events, data) = if ev_ptr != 0 {
            let raw = read_bytes(&c.instance.memory, ev_ptr, WaliEpollEvent::SIZE)
                .map_err(SysError::Err)?;
            let ev = WaliEpollEvent::read_from(&raw).map_err(SysError::Err)?;
            (ev.events, ev.data)
        } else {
            // EPOLL_CTL_DEL accepts a NULL event since Linux 2.6.9.
            (0, 0)
        };
        k(c, |kk, tid| {
            kk.sys_epoll_ctl(tid, epfd, op, fd, events, data)
        })
    });

    // epoll_wait(epfd, events, maxevents, timeout_ms) — epoll_pwait adds
    // a sigmask argument honored like ppoll's: swapped in atomically with
    // the block, restored on return.
    sys!(l, "epoll_wait", |c: C, a: &[u64]| -> R {
        do_epoll_wait(c, a)
    });
    sys!(l, "epoll_pwait", |c: C, a: &[u64]| -> R {
        swap_wait_mask(c, arg_ptr(a, 4))?;
        let r = do_epoll_wait(c, a);
        restore_wait_mask(c, r)
    });
}

/// Installs a `ppoll`/`epoll_pwait` temporary signal mask (no-op for a
/// NULL mask pointer). Safe to call on every blocked-call retry: the
/// kernel saves the original mask only on the first swap of the wait.
fn swap_wait_mask(c: C, mask_ptr: u32) -> Result<(), SysError> {
    if mask_ptr == 0 {
        return Ok(());
    }
    let mask = SigSet(read_u64(&c.instance.memory, mask_ptr).map_err(SysError::Err)?);
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
/// keeps the one it blocked with). `None` means block without deadline;
/// a deadline at or before `now` means the wait has timed out — the
/// caller's to notice. The arithmetic saturates: a guest picks the
/// timeout.
fn wait_deadline(
    kk: &vkernel::Kernel,
    retry_deadline: Option<u64>,
    timeout_ms: i64,
) -> Option<u64> {
    match retry_deadline {
        Some(d) => Some(d),
        None if timeout_ms > 0 => {
            let ns = (timeout_ms as u64).saturating_mul(1_000_000);
            Some(kk.clock.monotonic_ns().saturating_add(ns))
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

fn do_epoll_wait(c: C, a: &[u64]) -> R {
    let (epfd, ev_ptr, maxevents) = (arg_i32(a, 0), arg_ptr(a, 1), arg_i32(a, 2));
    // The timeout is a C `int`.
    let timeout_ms = arg_i32(a, 3) as i64;
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
    let kept = match c.data.epoll_hold.take() {
        Some((fd, hold)) if fd == epfd && args.is_ok() && !split => Some(hold),
        Some((_, hold)) => {
            k(c, |kk, _| kk.epoll_release(hold));
            None
        }
        None => None,
    };
    args.map_err(SysError::Err)?;
    // Scan-then-subscribe runs inside ONE kernel critical section: a
    // readiness transition on another worker can land between a separate
    // scan and subscribe, posting its wakeup to no subscriber — the
    // classic lost-wakeup race. Atomic check-or-park closes it (the
    // single-threaded scheduler got this for free).
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
            let deadline = wait_deadline(kk, retry_deadline, timeout_ms);
            if let Some(d) = deadline {
                if kk.clock.monotonic_ns() >= d {
                    return Ok(());
                }
            }
            let ready = vkernel::Channel::EpollReady(kk.epoll_of(tid, epfd)?.id);
            kk.wait_subscribe(tid, ready);
            kk.wait_subscribe(tid, vkernel::Channel::Signal(tid));
            Err(block_on(deadline))
        })?;
        // Deadline lapsed without events.
        return Ok(0);
    }
    // One kernel hold: resolve (a first attempt only), pop — which parks
    // in the same hold of the instance when it finds nothing and the
    // call may block — and give the instance back unless the call
    // blocks. A spuriously woken waiter (all but one of a prefork herd)
    // looks nothing up and re-parks from inside its one pop.
    let (r, hold) = k(c, |kk, tid| {
        let hold = match kept {
            Some(hold) => hold,
            None => match kk.epoll_hold(tid, epfd) {
                Ok(hold) => hold,
                Err(errno) => return (Err(errno.into()), None),
            },
        };
        let deadline = wait_deadline(kk, retry_deadline, timeout_ms);
        let park = timeout_ms != 0 && deadline.is_none_or(|d| kk.clock.monotonic_ns() < d);
        let mut ready = Vec::new();
        if kk.epoll_wait(tid, &hold, maxevents as usize, park, &mut ready) {
            return (Err(block_on(deadline)), Some(hold));
        }
        // Events, a zero timeout or a lapsed one (no events).
        kk.epoll_release(hold);
        (Ok(ready), None)
    });
    c.data.epoll_hold = hold.map(|hold| (epfd, hold));
    write_epoll_events(mem, ev_ptr, &r?)
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
        ev.write_to(&mut buf).map_err(SysError::Err)?;
        write_bytes(mem, ev_ptr + (i * WaliEpollEvent::SIZE) as u32, &buf)
            .map_err(SysError::Err)?;
    }
    Ok(ready.len() as i64)
}

fn do_accept(c: C, a: &[u64], flags: i32) -> R {
    let (fd, addr_ptr, len_ptr) = (arg_i32(a, 0), arg_ptr(a, 1), arg_ptr(a, 2));
    let conn = k(c, |kk, tid| kk.sys_accept(tid, fd, flags))?;
    if addr_ptr != 0 {
        if let Ok(addr) = k(c, |kk, tid| kk.sys_getpeername(tid, conn)) {
            if let Err(errno) = write_sockaddr(c, &addr, addr_ptr, len_ptr) {
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

fn do_msg(c: C, a: &[u64], send: bool) -> R {
    let (fd, msg_ptr, flags) = (arg_i32(a, 0), arg_ptr(a, 1), arg_i32(a, 2));
    msg_rw(c, fd, msg_ptr, flags, send)
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
    let hdr = read_bytes(mem, msg_ptr, 28).map_err(SysError::Err)?;
    let iov_ptr = u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes"));
    let iovlen = u32::from_le_bytes(hdr[12..16].try_into().expect("4 bytes")) as usize;
    if iovlen > wali_abi::ring::IOV_MAX {
        return Err(Errno::Einval.into());
    }
    let bytes = iovlen.checked_mul(WaliIovec::SIZE).ok_or(Errno::Einval)?;
    let raw = read_bytes(mem, iov_ptr, bytes).map_err(SysError::Err)?;
    let iovs = WaliIovec::read_array(&raw, iovlen).map_err(SysError::Err)?;
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
    let raw = read_bytes(mem, fds_ptr, nfds * WaliPollFd::SIZE).map_err(SysError::Err)?;
    let mut fds = Vec::with_capacity(nfds);
    for i in 0..nfds {
        let p = WaliPollFd::read_from(&raw[i * WaliPollFd::SIZE..]).map_err(SysError::Err)?;
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
        let deadline = wait_deadline(kk, retry_deadline, timeout_ms);
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
        p.write_to(&mut buf).map_err(SysError::Err)?;
        write_bytes(mem, fds_ptr + (i * WaliPollFd::SIZE) as u32, &buf).map_err(SysError::Err)?;
    }
    Ok(ready as i64)
}

fn do_select(c: C, a: &[u64], is_pselect: bool) -> R {
    let nfds = arg_i32(a, 0).clamp(0, 1024) as usize;
    let (rptr, wptr) = (arg_ptr(a, 1), arg_ptr(a, 2));
    let tptr = arg_ptr(a, 4);
    let mem = &*c.instance.memory;

    let read_set = |ptr: u32| -> Result<Vec<i32>, SysError> {
        if ptr == 0 {
            return Ok(Vec::new());
        }
        let raw = read_bytes(mem, ptr, 128).map_err(SysError::Err)?;
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

    let timeout_ms: i64 = if tptr == 0 {
        -1
    } else if is_pselect {
        let raw = read_bytes(mem, tptr, WaliTimespec::SIZE).map_err(SysError::Err)?;
        let ts = WaliTimespec::read_from(&raw).map_err(SysError::Err)?;
        (ts.to_nanos().unwrap_or(0) / 1_000_000) as i64
    } else {
        let raw = read_bytes(mem, tptr, 16).map_err(SysError::Err)?;
        let sec = i64::from_le_bytes(raw[0..8].try_into().expect("8 bytes"));
        let usec = i64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
        sec.saturating_mul(1000).saturating_add(usec / 1000)
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
        let deadline = wait_deadline(kk, retry_deadline, timeout_ms);
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
    let write_set = |ptr: u32, fds: &[i32], base: usize| -> Result<(), SysError> {
        if ptr == 0 {
            return Ok(());
        }
        let mut raw = [0u8; 128];
        for (i, fd) in fds.iter().enumerate() {
            if revents[base + i] != 0 {
                raw[*fd as usize / 8] |= 1 << (*fd as usize % 8);
            }
        }
        write_bytes(mem, ptr, &raw).map_err(SysError::Err)
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
            .resolve(WALI_MODULE, "SYS_epoll_wait")
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
