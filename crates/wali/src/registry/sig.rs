//! Signal syscalls: registration, masking, waiting (§3.3).

use vkernel::SysError;
use wali_abi::layout::WaliSigaction;
use wali_abi::signals::{SigSet, SIG_DFL, SIG_IGN, SIG_SETMASK};
use wali_abi::Errno;
use wasm::error::Trap;
use wasm::host::{Caller, HostOutcome, Linker};
use wasm::prep::FuncDef;
use wasm::types::{FuncType, ValType};

use crate::context::WaliContext;
use crate::mem::{arg, arg_i32, arg_ptr, read_bytes, read_u64, write_bytes, write_u64};
use crate::registry::{k, sys, sysx};
use crate::sigtable::SigEntry;
use vkernel::MutexExt;

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;
type X = Result<u64, HostOutcome>;

/// Dereferences a Wasm table index into a function index, checking the
/// handler signature is `(i32) -> ()` (§3.3 stage 1: "the Wasm function
/// pointer is dereferenced and registered in the sigtable").
fn deref_handler(c: C, table_index: u32) -> Result<u32, Errno> {
    let func = c
        .instance
        .table
        .get(table_index as usize)
        .copied()
        .flatten()
        .ok_or(Errno::Einval)?;
    let def = c
        .instance
        .program
        .funcs
        .get(func as usize)
        .ok_or(Errno::Einval)?;
    let ty_idx = match def {
        FuncDef::Local(p) => p.ty,
        FuncDef::Host { ty, .. } => *ty,
    };
    let want = FuncType::new([ValType::I32], []);
    if c.instance.program.types.get(ty_idx as usize) != Some(&want) {
        return Err(Errno::Einval);
    }
    Ok(func)
}

pub(crate) fn register(l: &mut Linker<WaliContext>) {
    // rt_sigaction(signo, act, oldact, sigsetsize).
    sys!(l, "rt_sigaction", |c: C, a: &[u64]| -> R {
        let (signo, act_ptr, old_ptr) = (arg_i32(a, 0), arg_ptr(a, 1), arg_ptr(a, 2));
        let mem = &*c.instance.memory;

        let new_action = if act_ptr != 0 {
            let raw = read_bytes(mem, act_ptr, WaliSigaction::SIZE).map_err(SysError::Err)?;
            let act = WaliSigaction::read_from(&raw).map_err(SysError::Err)?;
            // Dereference the function pointer once, now.
            let entry = match act.handler {
                SIG_DFL | SIG_IGN => None,
                table_index => Some(SigEntry {
                    table_index,
                    func_index: deref_handler(c, table_index).map_err(SysError::Err)?,
                }),
            };
            Some((act, entry))
        } else {
            None
        };

        let old = k(c, |kk, tid| {
            kk.sys_rt_sigaction(tid, signo, new_action.as_ref().map(|(act, _)| *act))
        })?;
        if let Some((_, entry)) = new_action {
            c.data.space.sigtable.lock_ok().set(signo, entry);
        }
        if old_ptr != 0 {
            let mut buf = [0u8; WaliSigaction::SIZE];
            old.write_to(&mut buf).map_err(SysError::Err)?;
            write_bytes(mem, old_ptr, &buf).map_err(SysError::Err)?;
        }
        Ok(0)
    });

    // rt_sigprocmask(how, set, oldset, sigsetsize). The paper inserts an
    // extra safepoint right after the native call; here the engine polls
    // at every host-call return, which subsumes it.
    sys!(l, "rt_sigprocmask", |c: C, a: &[u64]| -> R {
        let (how, set_ptr, old_ptr) = (arg_i32(a, 0), arg_ptr(a, 1), arg_ptr(a, 2));
        let mem = &*c.instance.memory;
        let set = if set_ptr != 0 {
            Some(SigSet(read_u64(mem, set_ptr).map_err(SysError::Err)?))
        } else {
            None
        };
        let old = k(c, |kk, tid| kk.sys_rt_sigprocmask(tid, how, set))?;
        if old_ptr != 0 {
            write_u64(mem, old_ptr, old.0).map_err(SysError::Err)?;
        }
        Ok(0)
    });

    sys!(l, "rt_sigpending", |c: C, a: &[u64]| -> R {
        let set_ptr = arg_ptr(a, 0);
        let mem = &*c.instance.memory;
        let pending = k(c, |kk, tid| kk.sys_rt_sigpending(tid))?;
        write_u64(mem, set_ptr, pending.0).map_err(SysError::Err)?;
        Ok(0)
    });

    // rt_sigsuspend(mask): atomically swap the mask and wait for a signal.
    sys!(l, "rt_sigsuspend", |c: C, a: &[u64]| -> R {
        let mask_ptr = arg_ptr(a, 0);
        let mem = &*c.instance.memory;
        let mask = SigSet(read_u64(mem, mask_ptr).map_err(SysError::Err)?);
        k(c, |kk, tid| {
            let old = kk.sys_rt_sigprocmask(tid, SIG_SETMASK, Some(mask))?;
            match kk.sys_pause(tid) {
                Err(SysError::Err(Errno::Eintr)) => {
                    // Restore the original mask before the handler runs at
                    // syscall exit (slightly early relative to POSIX; the
                    // handler still sees its own action mask applied).
                    kk.sys_rt_sigprocmask(tid, SIG_SETMASK, Some(old))?;
                    Err(Errno::Eintr.into())
                }
                other => other,
            }
        })
    });

    // rt_sigtimedwait(set, info, timeout, sigsetsize).
    sys!(l, "rt_sigtimedwait", |c: C, a: &[u64]| -> R {
        let set_ptr = arg_ptr(a, 0);
        let timeout_ptr = arg_ptr(a, 2);
        let mem = &*c.instance.memory;
        let want = SigSet(read_u64(mem, set_ptr).map_err(SysError::Err)?);
        let retry_deadline = c.data.retry_deadline.take();
        k(c, |kk, tid| {
            let pending = kk.sys_rt_sigpending(tid)?;
            if let Some(signo) = SigSet(pending.0 & want.0).lowest() {
                // Consume it directly (bypasses handler dispatch, as on
                // Linux).
                let t = kk.task_mut(tid).map_err(SysError::Err)?;
                t.pending.mask();
                t.pending.take_deliverable(SigSet(!0 ^ (1 << (signo - 1))));
                t.shared_pending()
                    .take_deliverable(SigSet(!0 ^ (1 << (signo - 1))));
                return Ok(signo as i64);
            }
            let deadline = match retry_deadline {
                Some(d) => Some(d),
                None if timeout_ptr != 0 => {
                    let raw = crate::mem::read_bytes(
                        mem,
                        timeout_ptr,
                        wali_abi::layout::WaliTimespec::SIZE,
                    )
                    .map_err(SysError::Err)?;
                    let ts =
                        wali_abi::layout::WaliTimespec::read_from(&raw).map_err(SysError::Err)?;
                    Some(kk.clock.monotonic_ns() + ts.to_nanos().unwrap_or(0))
                }
                None => None,
            };
            if let Some(d) = deadline {
                if kk.clock.monotonic_ns() >= d {
                    return Err(Errno::Eagain.into());
                }
                kk.wait_subscribe(tid, vkernel::Channel::Signal(tid));
                return Err(vkernel::block_until(d));
            }
            kk.wait_subscribe(tid, vkernel::Channel::Signal(tid));
            Err(vkernel::block())
        })
    });

    sys!(l, "rt_sigqueueinfo", |c: C, a: &[u64]| -> R {
        let (pid, sig) = (arg_i32(a, 0), arg_i32(a, 1));
        k(c, |kk, tid| kk.sys_kill(tid, pid, sig))
    });

    sys!(l, "sigaltstack", |_c: C, _a: &[u64]| -> R {
        // Handlers run on the engine's virtualized stack; the alternate
        // stack is accepted and unused.
        Ok(0)
    });

    sys!(l, "pause", |c: C, _a: &[u64]| -> R {
        k(c, |kk, tid| kk.sys_pause(tid))
    });

    sys!(l, "alarm", |c: C, a: &[u64]| -> R {
        let secs = arg(a, 0) as u32;
        k(c, |kk, tid| kk.sys_alarm(tid, secs))
    });

    // The classic sigreturn gadget is not invocable from WALI modules
    // (§3.6 pitfall 4): handler completion is engine-managed.
    sysx!(l, "rt_sigreturn", |_c: C, _a: &[u64]| -> X {
        Err(HostOutcome::Trap(Trap::Forbidden("rt_sigreturn")))
    });
}
