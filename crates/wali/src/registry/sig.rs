//! Signal syscalls: registration, masking, waiting (§3.3).

use vkernel::SysError;
use wali_abi::layout::{WaliSigaction, WaliTimespec};
use wali_abi::signals::{SigSet, SIG_DFL, SIG_IGN, SIG_SETMASK};
use wali_abi::Errno;
use wasm::error::Trap;
use wasm::host::{Caller, HostOutcome};
use wasm::prep::FuncDef;
use wasm::types::{FuncType, ValType};

use crate::context::WaliContext;
use crate::mem::{read_bytes, read_u64, write_bytes, write_u64};
use crate::registry::k;
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

pub(super) fn rt_sigaction(
    c: C,
    signo: i32,
    act: Option<u32>,
    oldact: Option<u32>,
    _sigsetsize: usize,
) -> R {
    let mem = &*c.instance.memory;
    let new_action = match act {
        Some(act) => {
            let raw = read_bytes(mem, act, WaliSigaction::SIZE)?;
            let act = WaliSigaction::read_from(&raw)?;
            // Dereference the function pointer once, now.
            let entry = match act.handler {
                SIG_DFL | SIG_IGN => None,
                table_index => Some(SigEntry {
                    table_index,
                    func_index: deref_handler(c, table_index)?,
                }),
            };
            Some((act, entry))
        }
        None => None,
    };
    let old = k(c, |kk, tid| {
        kk.sys_rt_sigaction(tid, signo, new_action.as_ref().map(|(act, _)| *act))
    })?;
    if let Some((_, entry)) = new_action {
        c.data.space.sigtable.lock_ok().set(signo, entry);
    }
    if let Some(oldact) = oldact {
        let mut buf = [0u8; WaliSigaction::SIZE];
        old.write_to(&mut buf)?;
        write_bytes(mem, oldact, &buf)?;
    }
    Ok(0)
}

/// The paper inserts an extra safepoint right after the native call;
/// here the engine polls at every host-call return, which subsumes it.
/// The mask is the task's own word: a query or a call that unblocks
/// nothing is made on it without the kernel lock, one that unblocks a
/// signal by the core, which re-checks what is pending.
pub(super) fn rt_sigprocmask(
    c: C,
    how: i32,
    set: Option<u32>,
    oldset: Option<u32>,
    _sigsetsize: usize,
) -> R {
    let mem = &*c.instance.memory;
    let set = match set {
        Some(set) => Some(SigSet(read_u64(mem, set)?)),
        None => None,
    };
    let old = match c.data.sig_hint.sigprocmask_own(how, set)? {
        Some(old) => old,
        None => k(c, |kk, tid| kk.sys_rt_sigprocmask(tid, how, set))?,
    };
    if let Some(oldset) = oldset {
        write_u64(mem, oldset, old.0)?;
    }
    Ok(0)
}

pub(super) fn rt_sigpending(c: C, set: u32, _sigsetsize: usize) -> R {
    let mem = &*c.instance.memory;
    let pending = k(c, |kk, tid| kk.sys_rt_sigpending(tid))?;
    write_u64(mem, set, pending.0)?;
    Ok(0)
}

/// Atomically swaps the mask and waits for a signal.
pub(super) fn rt_sigsuspend(c: C, mask: u32, _sigsetsize: usize) -> R {
    let mask = SigSet(read_u64(&c.instance.memory, mask)?);
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
}

pub(super) fn rt_sigtimedwait(
    c: C,
    set: u32,
    _info: Option<u32>,
    timeout: Option<u32>,
    _sigsetsize: usize,
) -> R {
    let mem = &*c.instance.memory;
    let want = SigSet(read_u64(mem, set)?);
    let retry_deadline = c.data.retry_deadline.take();
    k(c, |kk, tid| {
        let pending = kk.sys_rt_sigpending(tid)?;
        if let Some(signo) = SigSet(pending.0 & want.0).lowest() {
            // Consume it directly (bypasses handler dispatch, as on
            // Linux).
            let t = kk.task_mut(tid)?;
            t.pending.mask();
            t.pending.take_deliverable(SigSet(!0 ^ (1 << (signo - 1))));
            t.shared_pending()
                .take_deliverable(SigSet(!0 ^ (1 << (signo - 1))));
            return Ok(signo as i64);
        }
        let deadline = match (retry_deadline, timeout) {
            (Some(d), _) => Some(d),
            (None, Some(timeout)) => {
                let raw = read_bytes(mem, timeout, WaliTimespec::SIZE)?;
                let ts = WaliTimespec::read_from(&raw)?;
                // The guest picks the timeout: a near-forever one
                // saturates.
                let rel = ts.to_nanos().unwrap_or(0);
                Some(kk.clock.monotonic_ns().saturating_add(rel))
            }
            (None, None) => None,
        };
        if let Some(d) = deadline {
            if kk.clock.monotonic_ns() >= d {
                return Err(Errno::Eagain.into());
            }
            kk.wait_interruptible(tid);
            return Err(vkernel::block_until(d));
        }
        kk.wait_interruptible(tid);
        Err(vkernel::block())
    })
}

pub(super) fn rt_sigqueueinfo(c: C, pid: i32, sig: i32, _info: u32) -> R {
    k(c, |kk, tid| kk.sys_kill(tid, pid, sig))
}

/// Handlers run on the engine's virtualized stack; the alternate stack
/// is accepted and unused.
pub(super) fn sigaltstack(_c: C, _ss: Option<u32>, _old_ss: Option<u32>) -> R {
    Ok(0)
}

pub(super) fn pause(c: C) -> R {
    k(c, |kk, tid| kk.sys_pause(tid))
}

pub(super) fn alarm(c: C, secs: u32) -> R {
    k(c, |kk, tid| kk.sys_alarm(tid, secs))
}

/// The classic sigreturn gadget is not invocable from WALI modules (§3.6
/// pitfall 4): handler completion is engine-managed.
pub(super) fn rt_sigreturn(_c: C) -> X {
    Err(HostOutcome::Trap(Trap::Forbidden("rt_sigreturn")))
}
