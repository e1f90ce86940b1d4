//! The name-bound host-function registry.
//!
//! `build_linker` materializes the WALI specification: one host function
//! per row of the syscall table ([`wali_abi::wali_syscalls!`]), registered
//! as `wali.SYS_<name>` with the row's all-i64 signature, which linking
//! holds every import of it to (§3.5 name binding; [`crate::guest`]).
//! The table expands here into the registration of every row: decode the
//! row's typed parameters in order ([`crate::mem::Decode`]), call the
//! handler — a plain function of the decoded values, named after its
//! syscall — and wrap it. The wrapper around every call ([`wrapped`]) is
//! the mechanical part of the recipe (§5): count the call, apply the
//! policy layer, tick the kernel clock, time the layers when the run
//! records them, and map the kernel result onto the raw Linux return
//! convention (negative errno). Handlers use the engine's raw-slot
//! convention ([`wasm::host::HostFn`]): a crossing reads its arguments
//! off the guest's operand stack and allocates nothing — and one that
//! blocks leaves them there for its retry
//! ([`wasm::host::HostOutcome::Block`]).

// A handler no row names is refused like a row without a handler.
#![deny(dead_code)]

use vkernel::{Block, SysError, TaskHot};
use wali_abi::spec::{InBuf, OutBuf, Param, Path, Ptr, SockAddr, Sysno, WaliSyscall};
use wali_abi::Errno;
use wasm::error::Trap;
use wasm::host::{Blocked, Caller, HostOutcome, Linker};

use crate::context::WaliContext;
use crate::guest::signature;
use crate::mem::Decode;
use crate::policy::{DenyAction, Verdict};
use crate::WALI_MODULE;

pub(crate) mod fs;
pub(crate) mod misc;
pub(crate) mod mm;
pub(crate) mod proc;
pub(crate) mod sig;
pub(crate) mod sock;
pub(crate) mod support;

/// Every row's handler, under its syscall's name.
mod handlers {
    pub(super) use super::{fs::*, misc::*, mm::*, proc::*, sig::*, sock::*};
    pub(super) use crate::ring::wali_ring_enter;
}

/// Control-transferring suspension payloads the runner interprets (§3.1).
pub enum WaliSuspend {
    /// `exit`/`exit_group`: stop executing this task.
    Exit {
        /// Exit code.
        code: i32,
    },
    /// `fork`/`vfork`: clone thread + memory; child resumes with 0.
    Fork {
        /// The already-created kernel child, as its context will hold it.
        child: TaskHot,
        /// `vfork` semantics: the child borrows the parent's pages
        /// outright (no COW snapshot) and the parent stays suspended
        /// until the child execs or exits.
        vfork: bool,
    },
    /// `clone`: thread-style child sharing memory when `share_vm`.
    Clone {
        /// The already-created kernel child, as its context will hold it.
        child: TaskHot,
        /// `CLONE_VM` was set (share linear memory).
        share_vm: bool,
        /// `CLONE_THREAD` was set (same process).
        thread: bool,
    },
    /// `execve`: replace this task's program.
    Exec {
        /// Resolved program path.
        path: String,
        /// New argv.
        argv: Vec<String>,
        /// New environment.
        envp: Vec<String>,
    },
}

/// What a blocking call answers: once woken (or at `deadline`, virtual
/// mono ns), the runner re-enters the import the guest called
/// ([`wasm::interp::Thread::retry`]) on the arguments still sitting on
/// its operand stack. `import` names the call for diagnostics; a layer
/// over WALI names its own function when a syscall it made blocks,
/// since that function is what gets re-entered.
pub fn blocked(import: &'static str, deadline: Option<u64>) -> HostOutcome {
    HostOutcome::Block(Blocked { import, deadline })
}

/// Maps a kernel result onto the syscall return convention, or blocks.
pub fn finish(import: &'static str, r: Result<i64, SysError>) -> Result<u64, HostOutcome> {
    match r {
        Ok(v) => Ok(v as u64),
        Err(SysError::Err(e)) => Ok(e.as_ret() as u64),
        Err(SysError::Block(Block { deadline })) => Err(blocked(import, deadline)),
    }
}

/// The wrapper around every syscall — a value, control-transferring or
/// `nosys` row alike: `enter`, then `body` unless the policy layer
/// answered in its place. Host time is clocked only in a run that
/// records layer timing.
#[inline]
pub fn wrapped(
    caller: &mut Caller<'_, WaliContext>,
    sysno: Sysno,
    body: impl FnOnce(&mut Caller<'_, WaliContext>) -> Result<u64, HostOutcome>,
) -> Result<u64, HostOutcome> {
    let t0 = caller.data.trace.clock();
    let r = match enter(caller.data, sysno) {
        Ok(()) => body(caller),
        Err(denied) => denied,
    };
    if let Err(HostOutcome::Block(_)) = r {
        caller.data.subscribed = true;
    }
    if let Some(t0) = t0 {
        caller.data.trace.host_time += t0.elapsed();
    }
    r
}

/// Syscall entry, shared by every wrapper instance: count the call,
/// consult the policy layer, tick the virtual clock. `sysno` is the
/// row's dense index, so counting is an array increment. `Err` is the
/// policy's answer to a denied call.
fn enter(ctx: &mut WaliContext, sysno: Sysno) -> Result<(), Result<u64, HostOutcome>> {
    ctx.trace.counts.bump(sysno);
    if let Some(policy) = &mut ctx.policy {
        match policy.check(sysno) {
            Verdict::Allow => {}
            Verdict::Deny(DenyAction::Errno(e)) => return Err(Ok(e.as_ret() as u64)),
            Verdict::Deny(DenyAction::Kill) => {
                return Err(Err(HostOutcome::Trap(Trap::Forbidden(sysno.row().name))))
            }
        }
    }
    ctx.tick_syscall();
    Ok(())
}

/// Decodes a row's parameters, in order, around a call of its handler:
/// each [`Decode::with`] hands its value (a view lives as long as the
/// rest of the call) to the decode of the next.
macro_rules! decode {
    ($c:ident $a:ident [$i:expr] $f:path [$($v:ident)*]) => {
        Ok($f($c $(, $v)*))
    };
    ($c:ident $a:ident [$i:expr] $f:path [$($v:ident)*] $p:ident : $t:ty $(, $rp:ident : $rt:ty)*) => {
        <$t as Decode>::with(&$c.instance.memory, $a, $i, |$p| {
            decode!($c $a [$i + <$t as Param>::SLOTS] $f [$($v)* $p] $($rp : $rt),*)
        })
    };
}

/// The registration of every row of the table: the row's import, typed
/// by its slots ([`crate::guest::signature`]), through [`wrapped`] with
/// the row's [`Sysno`].
macro_rules! register_rows {
    (
        spec { $($spec:tt)* }
        extensions { $($ext:tt)* }
    ) => {
        // A row without parameters leaves the slots unread.
        #[allow(unused_variables)]
        fn register_syscalls(l: &mut Linker<WaliContext>) {
            register_rows!(@rows l $($spec)* $($ext)*);
        }
    };
    (@rows $l:ident $($name:ident ($($p:ident : $t:ty),*) $class:ident $kind:ident;)*) => {
        $({
            const ROW: &WaliSyscall = Sysno::$name.row();
            $l.func_raw_typed(WALI_MODULE, ROW.import, Some(signature(Sysno::$name)), |caller, a| {
                wrapped(caller, Sysno::$name, |c| {
                    register_rows!(@body $kind c a ROW $name ($($p : $t),*))
                })
            });
        })*
    };
    // The handler answers `Result<i64, SysError>`; a failed decode is
    // its errno. A `block` row is registered the same way.
    (@body value $c:ident $a:ident $row:ident $name:ident ($($p:ident : $t:ty),*)) => {{
        let r: Result<_, Errno> = decode!($c $a [0] handlers::$name [] $($p : $t),*);
        finish($row.import, r.unwrap_or_else(|e| Err(e.into())))
    }};
    (@body block $($rest:tt)*) => {
        register_rows!(@body value $($rest)*)
    };
    // The handler answers the host outcome itself (exit, fork, exec,
    // traps); a failed decode returns its errno.
    (@body control $c:ident $a:ident $row:ident $name:ident ($($p:ident : $t:ty),*)) => {{
        let r: Result<_, Errno> = decode!($c $a [0] handlers::$name [] $($p : $t),*);
        r.unwrap_or_else(|e| Ok(e.as_ret() as u64))
    }};
    // In the spec with no faithful implementation here: name-bound and
    // present, but answers `-ENOSYS` (§3.5 "allowing the latter to trap
    // if it cannot faithfully attempt the execution") — through the same
    // wrapper as every other syscall, so the policy layer sees it too.
    (@body nosys $($rest:tt)*) => {
        Ok(Errno::Enosys.as_ret() as u64)
    };
}

wali_abi::wali_syscalls!(register_rows);

/// Runs a kernel operation for the calling task, with layer timing.
pub(crate) fn k<R>(
    caller: &mut Caller<'_, WaliContext>,
    f: impl FnOnce(&mut vkernel::Kernel, vkernel::Tid) -> R,
) -> R {
    let tid = caller.data.tid;
    caller.data.with_kernel(|kk| f(kk, tid))
}

/// Flattens a memory-translation result around a kernel result.
pub(crate) fn flat<T>(r: Result<Result<T, SysError>, Errno>) -> Result<T, SysError> {
    match r {
        Ok(inner) => inner,
        Err(e) => Err(SysError::Err(e)),
    }
}

/// The complete WALI linker: a clone of one table built on first use.
///
/// The table is immutable shared data, not shared state — a registered
/// closure captures nothing, and everything a run mutates lives in its
/// [`WaliContext`]. A clone costs one reference count per import module
/// ([`Linker`] copies a module's table on write), so what a runner adds
/// through [`crate::WaliRunner::linker_mut`] stays private to that
/// runner.
pub fn build_linker() -> Linker<WaliContext> {
    static TABLE: std::sync::OnceLock<Linker<WaliContext>> = std::sync::OnceLock::new();
    TABLE.get_or_init(build_table).clone()
}

fn build_table() -> Linker<WaliContext> {
    let mut l = Linker::new();
    register_syscalls(&mut l);
    support::register(&mut l);
    l
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// What the linker registers under `wali` is the table and the
    /// support methods, exactly.
    #[test]
    fn linker_covers_full_spec() {
        let l = build_linker();
        let registered: BTreeSet<&str> = l
            .names()
            .filter(|(module, _)| *module == WALI_MODULE)
            .map(|(_, name)| name)
            .collect();
        let declared: BTreeSet<&str> = wali_abi::spec::rows()
            .map(|s| s.import)
            .chain(support::METHODS.map(|(name, _)| name))
            .collect();
        assert_eq!(registered, declared);
    }

    /// A `nosys` row is a syscall like any other to the policy layer:
    /// denied calls trap or fail with the policy's errno and are logged;
    /// allowed ones tick the virtual clock and answer `-ENOSYS`.
    #[test]
    fn nosys_stubs_go_through_the_policy_layer() {
        use crate::policy::Policy;

        let l = build_linker();
        let stub = l
            .resolve(WALI_MODULE, Sysno::statx.row().import)
            .unwrap()
            .clone();

        let mut mb = wasm::build::ModuleBuilder::new();
        mb.memory(1, Some(1));
        let program =
            wasm::Program::link(&mb.build(), &l, wasm::SafepointScheme::None).expect("link");
        let instance = wasm::Instance::new(std::sync::Arc::new(program)).expect("instantiate");
        let kernel = crate::new_kernel_ref(vkernel::Kernel::new());
        let tid = kernel.lock_ok().spawn_process();
        let mut ctx = WaliContext::new(kernel.clone(), tid, 4096, true);
        let call = |ctx: &mut WaliContext| {
            let mut caller = Caller {
                instance: &instance,
                data: ctx,
                sig: None,
            };
            stub(&mut caller, &[])
        };
        // The time as the task's next kernel entry sees it.
        let now = |ctx: &mut WaliContext| ctx.with_kernel(|k| k.clock.monotonic_ns());

        ctx.policy = Some(Policy::allow_list(["read"], DenyAction::Kill));
        assert!(matches!(
            call(&mut ctx),
            Err(HostOutcome::Trap(Trap::Forbidden("statx")))
        ));
        ctx.policy = Some(Policy::deny_list(
            ["statx"],
            DenyAction::Errno(Errno::Eperm),
        ));
        assert_eq!(call(&mut ctx).ok(), Some(Errno::Eperm.as_ret() as u64));
        assert_eq!(ctx.policy.as_ref().unwrap().denied_log, vec!["statx"]);
        assert_eq!(now(&mut ctx), 0, "denied calls never enter the kernel");

        ctx.policy = None;
        assert_eq!(call(&mut ctx).ok(), Some(Errno::Enosys.as_ret() as u64));
        assert_eq!(
            now(&mut ctx),
            vkernel::clock::SYSCALL_QUANTUM_NS,
            "an allowed stub ticks like any syscall"
        );
        assert_eq!(
            ctx.trace.counts.of(Sysno::statx),
            3,
            "every attempt is counted"
        );
    }

    #[test]
    fn linker_size_matches_paper_coverage() {
        let l = build_linker();
        // ≈150 syscalls + 7 support methods.
        assert!(l.len() >= 137 + 7, "registered = {}", l.len());
    }
}
