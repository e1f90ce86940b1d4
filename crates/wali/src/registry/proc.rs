//! Process, thread, identity and resource syscalls (§3.1).

use vkernel::SysError;
use wali_abi::flags::{
    CLONE_CHILD_CLEARTID, CLONE_CHILD_SETTID, CLONE_PARENT_SETTID, CLONE_THREAD, CLONE_VM,
    RLIMIT_NOFILE, RLIM_INFINITY,
};
use wali_abi::layout::{WaliRlimit, WaliRusage, WaliTimeval};
use wali_abi::Errno;
use wasm::host::{Caller, HostOutcome, Linker};

use crate::context::WaliContext;
use crate::mem::{arg, arg_i32, arg_ptr, read_cstr, read_str_array, write_bytes, write_u32};
use crate::registry::{k, sys, sysx, WaliSuspend};
use vkernel::MutexExt;

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
fn fork(c: C, vfork: bool) -> X {
    match kernel_clone(c, 0) {
        Ok(child) => suspend(c, WaliSuspend::Fork { child, vfork }),
        Err(SysError::Err(e)) => errno_out(e),
        Err(SysError::Block(_)) => errno_out(Errno::Eagain),
    }
}

fn errno_out(e: Errno) -> X {
    Ok(e.as_ret() as u64)
}

pub(crate) fn register(l: &mut Linker<WaliContext>) {
    sys!(l, "getpid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| kk.sys_getpid(tid))
    });
    sys!(l, "getppid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| kk.sys_getppid(tid))
    });
    sys!(l, "gettid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| kk.sys_gettid(tid))
    });

    sys!(l, "getpgid", |c: C, a: &[u64]| -> R {
        let pid = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_getpgid(tid, pid))
    });
    sys!(l, "setpgid", |c: C, a: &[u64]| -> R {
        let (pid, pgid) = (arg_i32(a, 0), arg_i32(a, 1));
        k(c, |kk, tid| kk.sys_setpgid(tid, pid, pgid))
    });
    sys!(l, "getpgrp", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| kk.sys_getpgid(tid, 0))
    });
    sys!(l, "setsid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| kk.sys_setsid(tid))
    });
    sys!(l, "getsid", |c: C, a: &[u64]| -> R {
        let pid = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_getsid(tid, pid))
    });

    sys!(l, "kill", |c: C, a: &[u64]| -> R {
        let (pid, sig) = (arg_i32(a, 0), arg_i32(a, 1));
        k(c, |kk, tid| kk.sys_kill(tid, pid, sig))
    });
    sys!(l, "tkill", |c: C, a: &[u64]| -> R {
        let (t, sig) = (arg_i32(a, 0), arg_i32(a, 1));
        k(c, |kk, tid| {
            let tgid = kk.task(t)?.tgid;
            kk.sys_tgkill(tid, tgid, t, sig)
        })
    });
    sys!(l, "tgkill", |c: C, a: &[u64]| -> R {
        let (tgid, t, sig) = (arg_i32(a, 0), arg_i32(a, 1), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_tgkill(tid, tgid, t, sig))
    });

    sys!(l, "sched_yield", |_c: C, _a: &[u64]| -> R { Ok(0) });

    sys!(l, "sched_getaffinity", |c: C, a: &[u64]| -> R {
        let (size, mask_ptr) = (arg(a, 1) as usize, arg_ptr(a, 2));
        if size < 8 {
            return Err(Errno::Einval.into());
        }
        // One virtual CPU.
        write_bytes(&c.instance.memory, mask_ptr, &1u64.to_le_bytes()).map_err(SysError::Err)?;
        Ok(8)
    });
    sys!(l, "sched_setaffinity", |_c: C, _a: &[u64]| -> R { Ok(0) });

    sys!(l, "getpriority", |_c: C, _a: &[u64]| -> R { Ok(20) });
    sys!(l, "setpriority", |_c: C, _a: &[u64]| -> R { Ok(0) });

    sys!(l, "getrlimit", |c: C, a: &[u64]| -> R {
        do_getrlimit(c, arg_i32(a, 0), arg_ptr(a, 1))
    });
    sys!(l, "setrlimit", |c: C, a: &[u64]| -> R {
        do_setrlimit(c, arg_i32(a, 0), arg_ptr(a, 1))
    });
    sys!(l, "prlimit64", |c: C, a: &[u64]| -> R {
        let (pid, res, new_ptr, old_ptr) =
            (arg_i32(a, 0), arg_i32(a, 1), arg_ptr(a, 2), arg_ptr(a, 3));
        if pid != 0 {
            return Err(Errno::Eperm.into());
        }
        if old_ptr != 0 {
            do_getrlimit(c, res, old_ptr)?;
        }
        if new_ptr != 0 {
            do_setrlimit(c, res, new_ptr)?;
        }
        Ok(0)
    });

    sys!(l, "getrusage", |c: C, a: &[u64]| -> R {
        let usage_ptr = arg_ptr(a, 1);
        let mem = &*c.instance.memory;
        let ru = k(c, |kk, tid| Ok::<_, SysError>(kk.rusage_of(tid)))?;
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
        out.write_to(&mut buf).map_err(SysError::Err)?;
        write_bytes(mem, usage_ptr, &buf).map_err(SysError::Err)?;
        Ok(0)
    });

    sys!(l, "times", |c: C, a: &[u64]| -> R {
        let buf_ptr = arg_ptr(a, 0);
        let mem = &*c.instance.memory;
        let (ru, now) = k(c, |kk, tid| {
            Ok::<_, SysError>((kk.rusage_of(tid), kk.clock.monotonic_ns()))
        })?;
        // clock_t at 100 Hz.
        let tick = |ns: u64| ns / 10_000_000;
        let mut image = [0u8; 32];
        image[0..8].copy_from_slice(&tick(ru.utime_ns).to_le_bytes());
        image[8..16].copy_from_slice(&tick(ru.stime_ns).to_le_bytes());
        write_bytes(mem, buf_ptr, &image).map_err(SysError::Err)?;
        Ok(tick(now) as i64)
    });

    sys!(l, "set_tid_address", |c: C, a: &[u64]| -> R {
        let addr = arg_ptr(a, 0);
        k(c, |kk, tid| kk.sys_set_tid_address(tid, addr))
    });

    sys!(l, "prctl", |_c: C, _a: &[u64]| -> R { Ok(0) });
    sys!(l, "personality", |_c: C, _a: &[u64]| -> R { Ok(0) });

    // Identity.
    sys!(l, "getuid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| {
            Ok(kk.task(tid).map_err(SysError::Err)?.uid as i64)
        })
    });
    sys!(l, "geteuid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| {
            Ok(kk.task(tid).map_err(SysError::Err)?.euid as i64)
        })
    });
    sys!(l, "getgid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| {
            Ok(kk.task(tid).map_err(SysError::Err)?.gid as i64)
        })
    });
    sys!(l, "getegid", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| {
            Ok(kk.task(tid).map_err(SysError::Err)?.egid as i64)
        })
    });
    sys!(l, "setuid", |c: C, a: &[u64]| -> R {
        let uid = arg(a, 0) as u32;
        k(c, |kk, tid| {
            let t = kk.task_mut(tid).map_err(SysError::Err)?;
            t.uid = uid;
            t.euid = uid;
            Ok(0)
        })
    });
    sys!(l, "setgid", |c: C, a: &[u64]| -> R {
        let gid = arg(a, 0) as u32;
        k(c, |kk, tid| {
            let t = kk.task_mut(tid).map_err(SysError::Err)?;
            t.gid = gid;
            t.egid = gid;
            Ok(0)
        })
    });
    sys!(l, "setreuid", |c: C, a: &[u64]| -> R {
        let (r, e) = (arg(a, 0) as u32, arg(a, 1) as u32);
        k(c, |kk, tid| {
            let t = kk.task_mut(tid).map_err(SysError::Err)?;
            if r != u32::MAX {
                t.uid = r;
            }
            if e != u32::MAX {
                t.euid = e;
            }
            Ok(0)
        })
    });
    sys!(l, "setregid", |c: C, a: &[u64]| -> R {
        let (r, e) = (arg(a, 0) as u32, arg(a, 1) as u32);
        k(c, |kk, tid| {
            let t = kk.task_mut(tid).map_err(SysError::Err)?;
            if r != u32::MAX {
                t.gid = r;
            }
            if e != u32::MAX {
                t.egid = e;
            }
            Ok(0)
        })
    });
    sys!(l, "setresuid", |c: C, a: &[u64]| -> R {
        let (r, e) = (arg(a, 0) as u32, arg(a, 1) as u32);
        k(c, |kk, tid| {
            let t = kk.task_mut(tid).map_err(SysError::Err)?;
            if r != u32::MAX {
                t.uid = r;
            }
            if e != u32::MAX {
                t.euid = e;
            }
            Ok(0)
        })
    });
    sys!(l, "setresgid", |c: C, a: &[u64]| -> R {
        let (r, e) = (arg(a, 0) as u32, arg(a, 1) as u32);
        k(c, |kk, tid| {
            let t = kk.task_mut(tid).map_err(SysError::Err)?;
            if r != u32::MAX {
                t.gid = r;
            }
            if e != u32::MAX {
                t.egid = e;
            }
            Ok(0)
        })
    });
    sys!(l, "getresuid", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let (uid, euid) = k(c, |kk, tid| {
            let t = kk.task(tid).map_err(SysError::Err)?;
            Ok::<_, SysError>((t.uid, t.euid))
        })?;
        for (i, v) in [uid, euid, uid].iter().enumerate() {
            let p = arg_ptr(a, i);
            if p != 0 {
                write_u32(mem, p, *v).map_err(SysError::Err)?;
            }
        }
        Ok(0)
    });
    sys!(l, "getresgid", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let (gid, egid) = k(c, |kk, tid| {
            let t = kk.task(tid).map_err(SysError::Err)?;
            Ok::<_, SysError>((t.gid, t.egid))
        })?;
        for (i, v) in [gid, egid, gid].iter().enumerate() {
            let p = arg_ptr(a, i);
            if p != 0 {
                write_u32(mem, p, *v).map_err(SysError::Err)?;
            }
        }
        Ok(0)
    });
    sys!(l, "getgroups", |_c: C, _a: &[u64]| -> R { Ok(0) });
    sys!(l, "setgroups", |_c: C, _a: &[u64]| -> R { Ok(0) });
    sys!(l, "setfsuid", |_c: C, _a: &[u64]| -> R { Ok(0) });
    sys!(l, "setfsgid", |_c: C, _a: &[u64]| -> R { Ok(0) });

    // wait4(pid, wstatus, options, rusage).
    sys!(l, "wait4", |c: C, a: &[u64]| -> R {
        let (pid, status_ptr, options) = (arg_i32(a, 0), arg_ptr(a, 1), arg_i32(a, 2));
        let mem = &*c.instance.memory;
        let (child, status) = k(c, |kk, tid| kk.sys_wait4(tid, pid, options))?;
        if status_ptr != 0 && child > 0 {
            write_u32(mem, status_ptr, status as u32).map_err(SysError::Err)?;
        }
        Ok(child as i64)
    });

    sys!(l, "waitid", |c: C, a: &[u64]| -> R {
        // Mapped onto wait4 semantics (P_ALL/P_PID only).
        let (idtype, id, options) = (arg_i32(a, 0), arg_i32(a, 1), arg_i32(a, 3));
        let pid = match idtype {
            0 => -1, // P_ALL
            1 => id, // P_PID
            _ => return Err(Errno::Einval.into()),
        };
        let (child, _status) = k(c, |kk, tid| kk.sys_wait4(tid, pid, options))?;
        Ok(child as i64)
    });

    // --- Control-transferring calls (sysx) --------------------------------

    sysx!(l, "exit_group", |c: C, a: &[u64]| -> X {
        let code = arg_i32(a, 0);
        let _ = k(c, |kk, tid| kk.sys_exit_group(tid, code));
        c.data.exited = Some(code);
        suspend(c, WaliSuspend::Exit { code })
    });

    sysx!(l, "exit", |c: C, a: &[u64]| -> X {
        let code = arg_i32(a, 0);
        let _ = k(c, |kk, tid| kk.sys_exit_thread(tid, code));
        c.data.exited = Some(code);
        suspend(c, WaliSuspend::Exit { code })
    });

    sysx!(l, "fork", |c: C, _a: &[u64]| -> X { fork(c, false) });
    sysx!(l, "vfork", |c: C, _a: &[u64]| -> X { fork(c, true) });

    // clone(flags, stack, parent_tid, child_tid, tls).
    sysx!(l, "clone", |c: C, a: &[u64]| -> X {
        let flags = arg(a, 0) as u64;
        let (ptid, ctid) = (arg_ptr(a, 2), arg_ptr(a, 3));
        let child = match kernel_clone(c, flags) {
            Ok(child) => child,
            Err(SysError::Err(e)) => return errno_out(e),
            Err(SysError::Block(_)) => return errno_out(Errno::Eagain),
        };
        let mem = &*c.instance.memory;
        if flags & CLONE_PARENT_SETTID != 0 && ptid != 0 {
            let _ = crate::mem::write_u32(mem, ptid, child.tid as u32);
        }
        if flags & CLONE_CHILD_SETTID != 0 && ctid != 0 {
            let _ = crate::mem::write_u32(mem, ctid, child.tid as u32);
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
    });

    // execve(path, argv, envp).
    sysx!(l, "execve", |c: C, a: &[u64]| -> X {
        let mem = &*c.instance.memory;
        let path = match read_cstr(mem, arg_ptr(a, 0)) {
            Ok(p) => p,
            Err(e) => return errno_out(e),
        };
        let argv = match read_str_array(mem, arg_ptr(a, 1)) {
            Ok(v) => v,
            Err(e) => return errno_out(e),
        };
        let envp = match read_str_array(mem, arg_ptr(a, 2)) {
            Ok(v) => v,
            Err(e) => return errno_out(e),
        };
        suspend(c, WaliSuspend::Exec { path, argv, envp })
    });
}

fn do_getrlimit(c: C, resource: i32, ptr: u32) -> R {
    let mem = &*c.instance.memory;
    let lim = match resource {
        RLIMIT_NOFILE => {
            let n = k(c, |kk, tid| {
                Ok::<_, SysError>(kk.task(tid).map_err(SysError::Err)?.fdtable.lock_ok().limit)
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
    lim.write_to(&mut buf).map_err(SysError::Err)?;
    write_bytes(mem, ptr, &buf).map_err(SysError::Err)?;
    Ok(0)
}

fn do_setrlimit(c: C, resource: i32, ptr: u32) -> R {
    let mem = &*c.instance.memory;
    let raw = crate::mem::read_bytes(mem, ptr, WaliRlimit::SIZE).map_err(SysError::Err)?;
    let lim = WaliRlimit::read_from(&raw).map_err(SysError::Err)?;
    if resource == RLIMIT_NOFILE {
        k(c, |kk, tid| {
            let task = kk.task(tid).map_err(SysError::Err)?;
            task.fdtable.lock_ok().limit = (lim.cur as usize).clamp(8, 1 << 20);
            Ok::<i64, SysError>(0)
        })?;
    }
    Ok(0)
}
