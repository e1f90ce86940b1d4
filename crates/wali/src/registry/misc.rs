//! Time, information and synchronization syscalls.

use vkernel::SysError;
use wali_abi::flags::{FUTEX_PRIVATE_FLAG, FUTEX_WAIT, FUTEX_WAKE};
use wali_abi::layout::{WaliSysinfo, WaliTimespec, WaliTimeval, WaliUtsname};
use wali_abi::Errno;
use wasm::host::{Caller, Linker};

use crate::context::WaliContext;
use crate::mem::{arg, arg_i32, arg_ptr, read_bytes, write_bytes};
use crate::registry::{flat, k, sys};

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

pub(crate) fn register(l: &mut Linker<WaliContext>) {
    sys!(l, "clock_gettime", |c: C, a: &[u64]| -> R {
        let (clock_id, ts_ptr) = (arg_i32(a, 0), arg_ptr(a, 1));
        let ns = k(c, |kk, _| kk.sys_clock_gettime(clock_id))?;
        write_timespec(c, ts_ptr, WaliTimespec::from_nanos(ns)).map_err(SysError::Err)?;
        Ok(0)
    });

    sys!(l, "clock_getres", |c: C, a: &[u64]| -> R {
        let ts_ptr = arg_ptr(a, 1);
        if ts_ptr != 0 {
            write_timespec(c, ts_ptr, WaliTimespec { sec: 0, nsec: 1 }).map_err(SysError::Err)?;
        }
        Ok(0)
    });

    sys!(l, "gettimeofday", |c: C, a: &[u64]| -> R {
        let tv_ptr = arg_ptr(a, 0);
        let ns = k(c, |kk, _| {
            kk.sys_clock_gettime(wali_abi::flags::CLOCK_REALTIME)
        })?;
        if tv_ptr != 0 {
            let tv = WaliTimeval {
                sec: (ns / 1_000_000_000) as i64,
                usec: ((ns % 1_000_000_000) / 1000) as i64,
            };
            let mut buf = [0u8; WaliTimeval::SIZE];
            tv.write_to(&mut buf).map_err(SysError::Err)?;
            write_bytes(&c.instance.memory, tv_ptr, &buf).map_err(SysError::Err)?;
        }
        Ok(0)
    });

    sys!(l, "settimeofday", |_c: C, _a: &[u64]| -> R {
        Err(Errno::Eperm.into())
    });

    sys!(l, "nanosleep", |c: C, a: &[u64]| -> R {
        let req_ptr = arg_ptr(a, 0);
        let retry = c.data.retry_deadline.take();
        match retry {
            Some(deadline) => k(c, |kk, tid| kk.sys_nanosleep_retry(tid, deadline)),
            None => {
                let ts = read_timespec(c, req_ptr).map_err(SysError::Err)?;
                let ns = ts.to_nanos().ok_or(Errno::Einval)?;
                k(c, |kk, tid| kk.sys_nanosleep(tid, ns))
            }
        }
    });

    sys!(l, "clock_nanosleep", |c: C, a: &[u64]| -> R {
        let req_ptr = arg_ptr(a, 2);
        let retry = c.data.retry_deadline.take();
        match retry {
            Some(deadline) => k(c, |kk, tid| kk.sys_nanosleep_retry(tid, deadline)),
            None => {
                let ts = read_timespec(c, req_ptr).map_err(SysError::Err)?;
                let ns = ts.to_nanos().ok_or(Errno::Einval)?;
                k(c, |kk, tid| kk.sys_nanosleep(tid, ns))
            }
        }
    });

    sys!(l, "getitimer", |c: C, a: &[u64]| -> R {
        let ptr = arg_ptr(a, 1);
        // it_interval + it_value, both zero unless an alarm is pending.
        write_bytes(&c.instance.memory, ptr, &[0u8; 32]).map_err(SysError::Err)?;
        Ok(0)
    });

    sys!(l, "setitimer", |c: C, a: &[u64]| -> R {
        // ITIMER_REAL mapped onto alarm(2) granularity.
        let (which, new_ptr) = (arg_i32(a, 0), arg_ptr(a, 1));
        if which != 0 {
            return Err(Errno::Einval.into());
        }
        let raw = read_bytes(&c.instance.memory, new_ptr, 32).map_err(SysError::Err)?;
        let sec = i64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));
        let usec = i64::from_le_bytes(raw[24..32].try_into().expect("8 bytes"));
        let secs = (sec + if usec > 0 { 1 } else { 0 }) as u32;
        k(c, |kk, tid| kk.sys_alarm(tid, secs))?;
        Ok(0)
    });

    sys!(l, "uname", |c: C, a: &[u64]| -> R {
        let ptr = arg_ptr(a, 0);
        let info: WaliUtsname = k(c, |kk, _| Ok::<_, SysError>(kk.sys_uname()))?;
        let mut buf = [0u8; WaliUtsname::SIZE];
        info.write_to(&mut buf).map_err(SysError::Err)?;
        write_bytes(&c.instance.memory, ptr, &buf).map_err(SysError::Err)?;
        Ok(0)
    });

    sys!(l, "sysinfo", |c: C, a: &[u64]| -> R {
        let ptr = arg_ptr(a, 0);
        let uptime = k(c, |kk, _| Ok::<_, SysError>(kk.clock.monotonic_ns()))? / 1_000_000_000;
        let info = WaliSysinfo {
            uptime: uptime as i64,
            totalram: 16 << 30,
            freeram: 8 << 30,
            procs: 1,
            mem_unit: 1,
        };
        let mut buf = [0u8; WaliSysinfo::SIZE];
        info.write_to(&mut buf).map_err(SysError::Err)?;
        write_bytes(&c.instance.memory, ptr, &buf).map_err(SysError::Err)?;
        Ok(0)
    });

    sys!(l, "getrandom", |c: C, a: &[u64]| -> R {
        let (ptr, len) = (arg_ptr(a, 0), arg(a, 1) as usize);
        let mem = &*c.instance.memory;
        flat(
            mem.with_slice_mut(ptr as u64, len, |buf| k(c, |kk, _| kk.sys_getrandom(buf)))
                .map_err(|_| Errno::Efault),
        )
    });

    // futex(uaddr, op, val, timeout, uaddr2, val3).
    sys!(l, "futex", |c: C, a: &[u64]| -> R {
        let (uaddr, op, val) = (arg_ptr(a, 0), arg_i32(a, 1), arg(a, 2) as u32);
        let timeout_ptr = arg_ptr(a, 3);
        let base_op = op & !FUTEX_PRIVATE_FLAG;
        match base_op {
            FUTEX_WAIT => {
                let mem = &*c.instance.memory;
                let retry = c.data.retry_deadline.take();
                let mm = c.data.mm;
                let deadline = match retry {
                    Some(d) => Some(d),
                    None if timeout_ptr != 0 => {
                        let ts = read_timespec(c, timeout_ptr).map_err(SysError::Err)?;
                        let rel = ts.to_nanos().ok_or(Errno::Einval)?;
                        Some(k(c, |kk, _| {
                            Ok::<_, SysError>(kk.clock.monotonic_ns() + rel)
                        })?)
                    }
                    None => None,
                };
                // The engine reads the futex word (the kernel cannot see
                // Wasm memory) inside the same kernel critical section
                // that queues the waiter: a waker stores, then takes the
                // kernel lock to wake, so it either finds this waiter
                // queued or this load sees its store — a compare outside
                // the lock loses the wakeup under SMP.
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
    });

    sys!(l, "getcpu", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        for i in 0..2 {
            let p = arg_ptr(a, i);
            if p != 0 {
                crate::mem::write_u32(mem, p, 0).map_err(SysError::Err)?;
            }
        }
        Ok(0)
    });

    sys!(l, "syslog", |_c: C, _a: &[u64]| -> R { Ok(0) });
}
