//! Time, information and synchronization syscalls.

use vkernel::SysError;
use wali_abi::flags::{FUTEX_PRIVATE_FLAG, FUTEX_WAIT, FUTEX_WAKE};
use wali_abi::layout::{WaliSysinfo, WaliTimespec, WaliTimeval, WaliUtsname};
use wali_abi::Errno;
use wasm::host::Caller;

use crate::context::WaliContext;
use crate::mem::{read_bytes, write_bytes, write_u32};
use crate::registry::k;

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

fn read_timespec(c: &Caller<'_, WaliContext>, ptr: u32) -> Result<WaliTimespec, Errno> {
    let raw = read_bytes(&c.instance.memory, ptr, WaliTimespec::SIZE)?;
    WaliTimespec::read_from(&raw)
}

fn write_timespec(c: &Caller<'_, WaliContext>, ptr: u32, ts: WaliTimespec) -> Result<(), Errno> {
    let mut buf = [0u8; WaliTimespec::SIZE];
    ts.write_to(&mut buf)?;
    write_bytes(&c.instance.memory, ptr, &buf)
}

/// The time, read off the clock shard after this task's deferred ticks
/// are charged to it — Linux's vDSO read: no lock.
fn now(c: C, clock_id: i32) -> Result<u64, Errno> {
    let (_, _, mut sh) = c.data.shards();
    sh.flush_ticks();
    sh.run(|h, _| h.clock.gettime(clock_id))
}

pub(super) fn clock_gettime(c: C, clock_id: i32, tp: u32) -> R {
    let ns = now(c, clock_id)?;
    write_timespec(c, tp, WaliTimespec::from_nanos(ns))?;
    Ok(0)
}

pub(super) fn clock_getres(c: C, _clock_id: i32, res: Option<u32>) -> R {
    if let Some(res) = res {
        write_timespec(c, res, WaliTimespec { sec: 0, nsec: 1 })?;
    }
    Ok(0)
}

pub(super) fn gettimeofday(c: C, tv: Option<u32>, _tz: Option<u32>) -> R {
    let ns = now(c, wali_abi::flags::CLOCK_REALTIME)?;
    if let Some(tv) = tv {
        let val = WaliTimeval {
            sec: (ns / 1_000_000_000) as i64,
            usec: ((ns % 1_000_000_000) / 1000) as i64,
        };
        let mut buf = [0u8; WaliTimeval::SIZE];
        val.write_to(&mut buf)?;
        write_bytes(&c.instance.memory, tv, &buf)?;
    }
    Ok(0)
}

pub(super) fn settimeofday(_c: C, _tv: Option<u32>, _tz: Option<u32>) -> R {
    Err(Errno::Eperm.into())
}

pub(super) fn nanosleep(c: C, req: u32, _rem: Option<u32>) -> R {
    sleep(c, req)
}

pub(super) fn clock_nanosleep(c: C, _clock_id: i32, _flags: i32, req: u32, _rem: Option<u32>) -> R {
    sleep(c, req)
}

/// A sleep of the timespec at `req`; its retry keeps the deadline the
/// first attempt set.
fn sleep(c: C, req: u32) -> R {
    match c.data.retry_deadline.take() {
        Some(deadline) => k(c, |kk, tid| kk.sys_nanosleep_retry(tid, deadline)),
        None => {
            let ns = read_timespec(c, req)?.to_nanos().ok_or(Errno::Einval)?;
            k(c, |kk, tid| kk.sys_nanosleep(tid, ns))
        }
    }
}

/// It_interval + it_value, both zero unless an alarm is pending.
pub(super) fn getitimer(c: C, _which: i32, curr_value: u32) -> R {
    write_bytes(&c.instance.memory, curr_value, &[0u8; 32])?;
    Ok(0)
}

/// `ITIMER_REAL` mapped onto alarm(2) granularity: whole seconds,
/// rounded up and clamped to what `alarm` takes.
pub(super) fn setitimer(c: C, which: i32, new_value: u32, _old_value: Option<u32>) -> R {
    if which != 0 {
        return Err(Errno::Einval.into());
    }
    let raw = read_bytes(&c.instance.memory, new_value, 32)?;
    let sec = i64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));
    let usec = i64::from_le_bytes(raw[24..32].try_into().expect("8 bytes"));
    let secs = sec
        .saturating_add((usec > 0) as i64)
        .clamp(0, u32::MAX as i64) as u32;
    k(c, |kk, tid| kk.sys_alarm(tid, secs))?;
    Ok(0)
}

pub(super) fn uname(c: C, buf: u32) -> R {
    let info: WaliUtsname = k(c, |kk, _| kk.sys_uname());
    let mut image = [0u8; WaliUtsname::SIZE];
    info.write_to(&mut image)?;
    write_bytes(&c.instance.memory, buf, &image)?;
    Ok(0)
}

pub(super) fn sysinfo(c: C, info: u32) -> R {
    let uptime = k(c, |kk, _| kk.clock.monotonic_ns()) / 1_000_000_000;
    let image = WaliSysinfo {
        uptime: uptime as i64,
        totalram: 16 << 30,
        freeram: 8 << 30,
        procs: 1,
        mem_unit: 1,
    };
    let mut buf = [0u8; WaliSysinfo::SIZE];
    image.write_to(&mut buf)?;
    write_bytes(&c.instance.memory, info, &buf)?;
    Ok(0)
}

pub(super) fn getrandom(c: C, buf: &mut [u8], _flags: u32) -> R {
    k(c, |kk, _| kk.sys_getrandom(buf))
}

pub(super) fn futex(
    c: C,
    uaddr: u32,
    op: i32,
    val: u32,
    timeout: Option<u32>,
    _uaddr2: u32,
    _val3: u32,
) -> R {
    match op & !FUTEX_PRIVATE_FLAG {
        FUTEX_WAIT => {
            let mem = &*c.instance.memory;
            let retry = c.data.retry_deadline.take();
            let mm = c.data.mm;
            let deadline = match (retry, timeout) {
                (Some(d), _) => Some(d),
                (None, Some(timeout)) => {
                    let rel = read_timespec(c, timeout)?.to_nanos().ok_or(Errno::Einval)?;
                    // The guest picks the timeout: a near-forever one
                    // saturates.
                    Some(k(c, |kk, _| kk.clock.monotonic_ns()).saturating_add(rel))
                }
                (None, None) => None,
            };
            // The engine reads the futex word (the kernel cannot see
            // Wasm memory) inside the same kernel critical section that
            // queues the waiter: a waker stores, then takes the kernel
            // lock to wake, so it either finds this waiter queued or this
            // load sees its store — a compare outside the lock loses the
            // wakeup under SMP.
            k(c, |kk, tid| {
                let cur = mem
                    .atomic_load32(uaddr as u64)
                    .map_err(|_| SysError::Err(Errno::Efault))?;
                kk.sys_futex_wait(tid, mm, uaddr, cur == val, deadline)
            })
        }
        FUTEX_WAKE => {
            let mm = c.data.mm;
            k(c, |kk, _| kk.sys_futex_wake(mm, uaddr, val as usize))
        }
        _ => Err(Errno::Enosys.into()),
    }
}

pub(super) fn getcpu(c: C, cpu: Option<u32>, node: Option<u32>, _tcache: Option<u32>) -> R {
    let mem = &*c.instance.memory;
    for p in [cpu, node].into_iter().flatten() {
        write_u32(mem, p, 0)?;
    }
    Ok(0)
}

pub(super) fn syslog(_c: C, _ty: i32, _bufp: u32, _len: i32) -> R {
    Ok(0)
}
