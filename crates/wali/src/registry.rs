//! The name-bound host-function registry.
//!
//! `build_linker` materializes the WALI specification: one host function
//! per syscall, registered as `wali.SYS_<name>` with an all-i64 signature
//! (§3.5 name binding). The wrapper around every call ([`wrapped`]) is
//! the mechanical part of the recipe (§5): count the call, apply the
//! policy layer, tick the kernel clock, time the layers when the run
//! records them, and map the kernel result onto the raw Linux return
//! convention (negative errno). Handlers use the engine's raw-slot
//! convention ([`wasm::host::HostFn`]): a crossing reads its arguments
//! off the guest's operand stack and allocates nothing — and one that
//! blocks leaves them there for its retry
//! ([`wasm::host::HostOutcome::Block`]).

use vkernel::{Block, SysError, TaskHot};
use wali_abi::Errno;
use wasm::error::Trap;
use wasm::host::{Blocked, Caller, HostOutcome, Linker};

use crate::context::WaliContext;
use crate::policy::{DenyAction, Verdict};
use crate::WALI_MODULE;

pub(crate) mod fs;
pub(crate) mod misc;
pub(crate) mod mm;
pub(crate) mod proc;
pub(crate) mod sig;
pub(crate) mod sock;
pub(crate) mod support;

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

/// The wrapper around every syscall handler — implemented, control
/// transferring or ENOSYS stub alike: `enter`, then `body` unless the
/// policy layer answered in its place. Host time is clocked only in a
/// run that records layer timing.
#[inline]
pub fn wrapped(
    caller: &mut Caller<'_, WaliContext>,
    name: &'static str,
    sysno: Option<u16>,
    body: impl FnOnce(&mut Caller<'_, WaliContext>) -> Result<u64, HostOutcome>,
) -> Result<u64, HostOutcome> {
    let t0 = caller.data.trace.clock();
    let r = match enter(caller.data, name, sysno) {
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
/// dense spec index resolved once at registration, so counting is an
/// array increment, not a name lookup. `Err` is the policy's answer to a
/// denied call.
fn enter(
    ctx: &mut WaliContext,
    name: &'static str,
    sysno: Option<u16>,
) -> Result<(), Result<u64, HostOutcome>> {
    ctx.trace.count_dispatch(sysno, name);
    if let Some(policy) = &mut ctx.policy {
        match policy.check(name) {
            Verdict::Allow => {}
            Verdict::Deny(DenyAction::Errno(e)) => return Err(Ok(e.as_ret() as u64)),
            Verdict::Deny(DenyAction::Kill) => {
                return Err(Err(HostOutcome::Trap(Trap::Forbidden(name))))
            }
        }
    }
    ctx.tick_syscall();
    Ok(())
}

/// Compile-time proof that a handler captures nothing. The import table
/// is built once per process and shared by every runner
/// ([`build_linker`]), so a handler holding state would leak it from one
/// run into another; everything a run mutates belongs in [`WaliContext`].
pub(crate) fn stateless<F>(f: F) -> F {
    const {
        assert!(
            std::mem::size_of::<F>() == 0,
            "syscall handlers capture nothing"
        )
    };
    f
}

/// Registers a syscall whose implementation returns `Result<i64, SysError>`.
macro_rules! sys {
    ($l:expr, $name:literal, $f:expr) => {{
        let name: &'static str = $name;
        let sysno = wali_abi::spec::sysno(name);
        let f = crate::registry::stateless($f);
        $l.func_raw(
            crate::WALI_MODULE,
            concat!("SYS_", $name),
            move |caller: &mut wasm::host::Caller<'_, crate::context::WaliContext>,
                  args: &[u64]| {
                crate::registry::wrapped(caller, name, sysno, |caller| {
                    let r = f(caller, args);
                    crate::registry::finish(concat!("SYS_", $name), r)
                })
            },
        );
    }};
}

/// Registers a syscall whose implementation controls the full outcome
/// (exit, fork, exec, traps).
macro_rules! sysx {
    ($l:expr, $name:literal, $f:expr) => {{
        let name: &'static str = $name;
        let sysno = wali_abi::spec::sysno(name);
        let f = crate::registry::stateless($f);
        $l.func_raw(
            crate::WALI_MODULE,
            concat!("SYS_", $name),
            move |caller: &mut wasm::host::Caller<'_, crate::context::WaliContext>,
                  args: &[u64]| {
                crate::registry::wrapped(caller, name, sysno, |caller| f(caller, args))
            },
        );
    }};
}

pub(crate) use {sys, sysx};

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

/// A syscall in the spec with no faithful implementation on this platform:
/// name-bound and present, but answers `-ENOSYS` when invoked (§3.5
/// "allowing the latter to trap if it cannot faithfully attempt the
/// execution") — through the same wrapper as every other syscall, so the
/// policy layer sees it too.
pub(crate) fn register_nosys(l: &mut Linker<WaliContext>, name: &'static str) {
    let sysno = wali_abi::spec::sysno(name);
    l.func_raw(WALI_MODULE, &format!("SYS_{name}"), move |caller, _args| {
        wrapped(caller, name, sysno, |_| Ok(Errno::Enosys.as_ret() as u64))
    });
}

/// The complete WALI linker: a clone of one table built on first use.
///
/// The table is immutable shared data, not shared state — every
/// registered closure captures only its name and dense spec index, and
/// everything a run mutates lives in its [`WaliContext`]. A clone costs
/// one reference count per import module ([`Linker`] copies a module's
/// table on write), so what a runner adds through
/// [`crate::WaliRunner::linker_mut`] stays private to that runner.
pub fn build_linker() -> Linker<WaliContext> {
    static TABLE: std::sync::OnceLock<Linker<WaliContext>> = std::sync::OnceLock::new();
    TABLE.get_or_init(build_table).clone()
}

fn build_table() -> Linker<WaliContext> {
    let mut l = Linker::new();
    fs::register(&mut l);
    mm::register(&mut l);
    proc::register(&mut l);
    sig::register(&mut l);
    sock::register(&mut l);
    misc::register(&mut l);
    support::register(&mut l);
    // The batched-syscall ring entry point (an extension import beyond
    // the spec; `WALI_NO_RING=1` turns it into a runtime -ENOSYS).
    crate::ring::register(&mut l);

    // Every remaining spec entry is exposed as a name-bound ENOSYS stub so
    // modules link against the full specification surface.
    for spec in wali_abi::spec::SPEC {
        if l.resolve(WALI_MODULE, &spec.import_name()).is_none() {
            register_nosys(&mut l, spec.name);
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linker_covers_full_spec() {
        let l = build_linker();
        for spec in wali_abi::spec::SPEC {
            assert!(
                l.resolve(WALI_MODULE, &spec.import_name()).is_some(),
                "missing {}",
                spec.import_name()
            );
        }
        for m in wali_abi::spec::SUPPORT_METHODS {
            assert!(
                l.resolve(WALI_MODULE, m).is_some(),
                "missing support method {m}"
            );
        }
    }

    /// An ENOSYS stub is a syscall like any other to the policy layer:
    /// denied calls trap or fail with the policy's errno and are logged;
    /// allowed ones tick the virtual clock and answer `-ENOSYS`.
    #[test]
    fn nosys_stubs_go_through_the_policy_layer() {
        use crate::policy::Policy;

        let mut l = Linker::new();
        register_nosys(&mut l, "sync");
        let stub = l.resolve(WALI_MODULE, "SYS_sync").unwrap().clone();

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
        let now = || kernel.lock_ok().clock.monotonic_ns();

        ctx.policy = Some(Policy::allow_list(["read"], DenyAction::Kill));
        assert!(matches!(
            call(&mut ctx),
            Err(HostOutcome::Trap(Trap::Forbidden("sync")))
        ));
        ctx.policy = Some(Policy::deny_list(["sync"], DenyAction::Errno(Errno::Eperm)));
        assert_eq!(call(&mut ctx).ok(), Some(Errno::Eperm.as_ret() as u64));
        assert_eq!(ctx.policy.as_ref().unwrap().denied_log, vec!["sync"]);
        assert_eq!(now(), 0, "denied calls never enter the kernel");

        ctx.policy = None;
        assert_eq!(call(&mut ctx).ok(), Some(Errno::Enosys.as_ret() as u64));
        assert_eq!(
            now(),
            vkernel::clock::SYSCALL_QUANTUM_NS,
            "an allowed stub ticks like any syscall"
        );
        assert_eq!(ctx.trace.counts.of("sync"), 3, "every attempt is counted");
    }

    #[test]
    fn linker_size_matches_paper_coverage() {
        let l = build_linker();
        // ≈150 syscalls + 7 support methods.
        assert!(l.len() >= 137 + 7, "registered = {}", l.len());
    }
}
