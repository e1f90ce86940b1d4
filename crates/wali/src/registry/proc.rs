//! Process, thread, identity and resource syscalls (§3.1).

use vkernel::SysError;
use wali_abi::flags::{
    CLONE_CHILD_CLEARTID, CLONE_CHILD_SETTID, CLONE_PARENT_SETTID, CLONE_THREAD, CLONE_VM,
    RLIMIT_NOFILE, RLIM_INFINITY,
};
use wali_abi::layout::{WaliRlimit, WaliRusage, WaliTimeval};
use wali_abi::Errno;
use wasm::host::{Caller, HostOutcome};

use crate::context::WaliContext;
use crate::mem::{read_bytes, read_str_array, write_bytes, write_u32};
use crate::registry::{k, WaliSuspend};

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;
type X = Result<u64, HostOutcome>;

fn suspend(c: C, s: WaliSuspend) -> X {
    Err(c.data.suspend(s))
}

/// `clone` in the kernel, and what the child's context will keep of the
/// new task — read under the same hold of the kernel lock.
fn kernel_clone(c: C, flags: u64) -> Result<vkernel::TaskHot, SysError> {
    k(c, |kk, tid| {
        let child = kk.sys_clone(tid, flags)? as vkernel::Tid;
        Ok(kk.task(child)?.hot())
    })
}

/// `fork`/`vfork`.
fn fork_task(c: C, vfork: bool) -> X {
    match kernel_clone(c, 0) {
        Ok(child) => suspend(c, WaliSuspend::Fork { child, vfork }),
        Err(SysError::Err(e)) => errno_out(e),
        Err(SysError::Block(_)) => errno_out(Errno::Eagain),
    }
}

fn errno_out(e: Errno) -> X {
    Ok(e.as_ret() as u64)
}

/// Fixed when the task was made: the context answers, no kernel lock.
pub(super) fn getpid(c: C) -> R {
    Ok(c.data.tgid as i64)
}

pub(super) fn getppid(c: C) -> R {
    k(c, |kk, tid| kk.sys_getppid(tid))
}

pub(super) fn gettid(c: C) -> R {
    Ok(c.data.tid as i64)
}

pub(super) fn getpgid(c: C, pid: i32) -> R {
    k(c, |kk, tid| kk.sys_getpgid(tid, pid))
}

pub(super) fn setpgid(c: C, pid: i32, pgid: i32) -> R {
    k(c, |kk, tid| kk.sys_setpgid(tid, pid, pgid))
}

pub(super) fn getpgrp(c: C) -> R {
    getpgid(c, 0)
}

pub(super) fn setsid(c: C) -> R {
    k(c, |kk, tid| kk.sys_setsid(tid))
}

pub(super) fn getsid(c: C, pid: i32) -> R {
    k(c, |kk, tid| kk.sys_getsid(tid, pid))
}

pub(super) fn kill(c: C, pid: i32, sig: i32) -> R {
    k(c, |kk, tid| kk.sys_kill(tid, pid, sig))
}

pub(super) fn tkill(c: C, t: i32, sig: i32) -> R {
    k(c, |kk, tid| {
        let tgid = kk.task(t)?.tgid;
        kk.sys_tgkill(tid, tgid, t, sig)
    })
}

pub(super) fn tgkill(c: C, tgid: i32, t: i32, sig: i32) -> R {
    k(c, |kk, tid| kk.sys_tgkill(tid, tgid, t, sig))
}

pub(super) fn sched_yield(_c: C) -> R {
    Ok(0)
}

/// One virtual CPU.
pub(super) fn sched_getaffinity(c: C, _pid: i32, size: usize, mask: u32) -> R {
    if size < 8 {
        return Err(Errno::Einval.into());
    }
    write_bytes(&c.instance.memory, mask, &1u64.to_le_bytes())?;
    Ok(8)
}

pub(super) fn sched_setaffinity(_c: C, _pid: i32, _size: usize, _mask: u32) -> R {
    Ok(0)
}

pub(super) fn getpriority(_c: C, _which: i32, _who: i32) -> R {
    Ok(20)
}

pub(super) fn setpriority(_c: C, _which: i32, _who: i32, _prio: i32) -> R {
    Ok(0)
}

pub(super) fn getrlimit(c: C, resource: i32, rlim: u32) -> R {
    let mem = &*c.instance.memory;
    let lim = match resource {
        RLIMIT_NOFILE => {
            let n = k(c, |kk, tid| {
                Ok::<_, SysError>(kk.task(tid)?.fdtable.lock_ok().limit)
            })?;
            WaliRlimit {
                cur: n as u64,
                max: n as u64,
            }
        }
        _ => WaliRlimit {
            cur: RLIM_INFINITY,
            max: RLIM_INFINITY,
        },
    };
    let mut buf = [0u8; WaliRlimit::SIZE];
    lim.write_to(&mut buf)?;
    write_bytes(mem, rlim, &buf)?;
    Ok(0)
}

pub(super) fn setrlimit(c: C, resource: i32, rlim: u32) -> R {
    let raw = read_bytes(&c.instance.memory, rlim, WaliRlimit::SIZE)?;
    let lim = WaliRlimit::read_from(&raw)?;
    if resource == RLIMIT_NOFILE {
        k(c, |kk, tid| {
            let task = kk.task(tid)?;
            task.fdtable.lock_ok().limit = (lim.cur as usize).clamp(8, 1 << 20);
            Ok::<i64, SysError>(0)
        })?;
    }
    Ok(0)
}

pub(super) fn prlimit64(c: C, pid: i32, resource: i32, new: Option<u32>, old: Option<u32>) -> R {
    if pid != 0 {
        return Err(Errno::Eperm.into());
    }
    if let Some(old) = old {
        getrlimit(c, resource, old)?;
    }
    if let Some(new) = new {
        setrlimit(c, resource, new)?;
    }
    Ok(0)
}

pub(super) fn getrusage(c: C, _who: i32, usage: u32) -> R {
    let mem = &*c.instance.memory;
    let ru = k(c, |kk, tid| kk.rusage_of(tid));
    let out = WaliRusage {
        utime: WaliTimeval {
            sec: (ru.utime_ns / 1_000_000_000) as i64,
            usec: ((ru.utime_ns % 1_000_000_000) / 1000) as i64,
        },
        stime: WaliTimeval {
            sec: (ru.stime_ns / 1_000_000_000) as i64,
            usec: ((ru.stime_ns % 1_000_000_000) / 1000) as i64,
        },
        maxrss: (ru.maxrss / 1024) as i64,
        nvcsw: c.data.nvcsw as i64,
        ..Default::default()
    };
    let mut buf = [0u8; WaliRusage::SIZE];
    out.write_to(&mut buf)?;
    write_bytes(mem, usage, &buf)?;
    Ok(0)
}

pub(super) fn times(c: C, buf: u32) -> R {
    let mem = &*c.instance.memory;
    let (ru, now) = k(c, |kk, tid| (kk.rusage_of(tid), kk.clock.monotonic_ns()));
    // clock_t at 100 Hz.
    let tick = |ns: u64| ns / 10_000_000;
    let mut image = [0u8; 32];
    image[0..8].copy_from_slice(&tick(ru.utime_ns).to_le_bytes());
    image[8..16].copy_from_slice(&tick(ru.stime_ns).to_le_bytes());
    write_bytes(mem, buf, &image)?;
    Ok(tick(now) as i64)
}

pub(super) fn set_tid_address(c: C, addr: u32) -> R {
    k(c, |kk, tid| kk.sys_set_tid_address(tid, addr))
}

pub(super) fn prctl(_c: C, _option: i32, _a2: u64, _a3: u64, _a4: u64, _a5: u64) -> R {
    Ok(0)
}

pub(super) fn personality(_c: C, _persona: u32) -> R {
    Ok(0)
}

// Identity.

fn ids(c: C, f: impl FnOnce(&mut vkernel::task::Task)) -> R {
    k(c, |kk, tid| {
        f(kk.task_mut(tid)?);
        Ok(0)
    })
}

fn id_of(c: C, f: impl FnOnce(&vkernel::task::Task) -> u32) -> R {
    k(c, |kk, tid| Ok(f(kk.task(tid)?) as i64))
}

pub(super) fn getuid(c: C) -> R {
    id_of(c, |t| t.uid)
}

pub(super) fn geteuid(c: C) -> R {
    id_of(c, |t| t.euid)
}

pub(super) fn getgid(c: C) -> R {
    id_of(c, |t| t.gid)
}

pub(super) fn getegid(c: C) -> R {
    id_of(c, |t| t.egid)
}

pub(super) fn setuid(c: C, uid: u32) -> R {
    ids(c, |t| (t.uid, t.euid) = (uid, uid))
}

pub(super) fn setgid(c: C, gid: u32) -> R {
    ids(c, |t| (t.gid, t.egid) = (gid, gid))
}

/// `u32::MAX` (`-1`) leaves an id unchanged.
fn set_unless_minus_one(id: &mut u32, v: u32) {
    if v != u32::MAX {
        *id = v;
    }
}

pub(super) fn setreuid(c: C, r: u32, e: u32) -> R {
    ids(c, |t| {
        set_unless_minus_one(&mut t.uid, r);
        set_unless_minus_one(&mut t.euid, e);
    })
}

pub(super) fn setregid(c: C, r: u32, e: u32) -> R {
    ids(c, |t| {
        set_unless_minus_one(&mut t.gid, r);
        set_unless_minus_one(&mut t.egid, e);
    })
}

pub(super) fn setresuid(c: C, r: u32, e: u32, _s: u32) -> R {
    setreuid(c, r, e)
}

pub(super) fn setresgid(c: C, r: u32, e: u32, _s: u32) -> R {
    setregid(c, r, e)
}

/// Writes `(real, effective, saved = real)` through the pointers given.
fn write_res_ids(c: C, ids: (u32, u32), ptrs: [Option<u32>; 3]) -> R {
    let mem = &*c.instance.memory;
    for (v, p) in [ids.0, ids.1, ids.0].into_iter().zip(ptrs) {
        if let Some(p) = p {
            write_u32(mem, p, v)?;
        }
    }
    Ok(0)
}

pub(super) fn getresuid(c: C, r: Option<u32>, e: Option<u32>, s: Option<u32>) -> R {
    let ids = k(c, |kk, tid| kk.task(tid).map(|t| (t.uid, t.euid)))?;
    write_res_ids(c, ids, [r, e, s])
}

pub(super) fn getresgid(c: C, r: Option<u32>, e: Option<u32>, s: Option<u32>) -> R {
    let ids = k(c, |kk, tid| kk.task(tid).map(|t| (t.gid, t.egid)))?;
    write_res_ids(c, ids, [r, e, s])
}

pub(super) fn getgroups(_c: C, _size: i32, _list: u32) -> R {
    Ok(0)
}

pub(super) fn setgroups(_c: C, _size: usize, _list: u32) -> R {
    Ok(0)
}

pub(super) fn setfsuid(_c: C, _fsuid: u32) -> R {
    Ok(0)
}

pub(super) fn setfsgid(_c: C, _fsgid: u32) -> R {
    Ok(0)
}

pub(super) fn wait4(c: C, pid: i32, wstatus: Option<u32>, options: i32, _rusage: Option<u32>) -> R {
    let mem = &*c.instance.memory;
    let (child, status) = k(c, |kk, tid| kk.sys_wait4(tid, pid, options))?;
    if let Some(wstatus) = wstatus.filter(|_| child > 0) {
        write_u32(mem, wstatus, status as u32)?;
    }
    Ok(child as i64)
}

/// Mapped onto wait4 semantics (P_ALL/P_PID only).
pub(super) fn waitid(c: C, idtype: i32, id: i32, _infop: u32, options: i32, _ru: u32) -> R {
    let pid = match idtype {
        0 => -1, // P_ALL
        1 => id, // P_PID
        _ => return Err(Errno::Einval.into()),
    };
    let (child, _status) = k(c, |kk, tid| kk.sys_wait4(tid, pid, options))?;
    Ok(child as i64)
}

// Control-transferring calls.

pub(super) fn exit_group(c: C, code: i32) -> X {
    let _ = k(c, |kk, tid| kk.sys_exit_group(tid, code));
    c.data.exited = Some(code);
    suspend(c, WaliSuspend::Exit { code })
}

pub(super) fn exit(c: C, code: i32) -> X {
    let _ = k(c, |kk, tid| kk.sys_exit_thread(tid, code));
    c.data.exited = Some(code);
    suspend(c, WaliSuspend::Exit { code })
}

pub(super) fn fork(c: C) -> X {
    fork_task(c, false)
}

pub(super) fn vfork(c: C) -> X {
    fork_task(c, true)
}

pub(super) fn clone(c: C, flags: u64, _stack: u32, ptid: Option<u32>, ctid: u32, _tls: u32) -> X {
    let child = match kernel_clone(c, flags) {
        Ok(child) => child,
        Err(SysError::Err(e)) => return errno_out(e),
        Err(SysError::Block(_)) => return errno_out(Errno::Eagain),
    };
    let mem = &*c.instance.memory;
    if let Some(ptid) = ptid.filter(|_| flags & CLONE_PARENT_SETTID != 0) {
        let _ = write_u32(mem, ptid, child.tid as u32);
    }
    if flags & CLONE_CHILD_SETTID != 0 && ctid != 0 {
        let _ = write_u32(mem, ctid, child.tid as u32);
    }
    if flags & CLONE_CHILD_CLEARTID != 0 {
        let _ = k(c, |kk, _| kk.sys_set_tid_address(child.tid, ctid));
    }
    suspend(
        c,
        WaliSuspend::Clone {
            child,
            share_vm: flags & CLONE_VM != 0,
            thread: flags & CLONE_THREAD != 0,
        },
    )
}

pub(super) fn execve(c: C, path: String, argv: u32, envp: u32) -> X {
    let mem = &*c.instance.memory;
    let argv = match read_str_array(mem, argv) {
        Ok(v) => v,
        Err(e) => return errno_out(e),
    };
    let envp = match read_str_array(mem, envp) {
        Ok(v) => v,
        Err(e) => return errno_out(e),
    };
    suspend(c, WaliSuspend::Exec { path, argv, envp })
}
