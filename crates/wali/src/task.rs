//! The task state machine: one scheduling slice of one task, and the
//! decision it leaves the scheduler.
//!
//! [`run_slice`] is the only code that runs a task: it takes the slot's
//! pending step, finalizes a task killed while it was queued, refuels and
//! enters the interpreter, accounts the slice, and interprets how the
//! slice ended — including the process-model transitions of §3.1
//! (`fork`/`vfork`/`clone` build the child [`Slot`], `execve` swaps the
//! image in, a blocked call parks). What it returns, [`After`], is plain
//! data: where the task goes next. *Who runs next* is the schedulers'
//! business — the deterministic FIFO loop (`runner.rs`) and the SMP
//! executor (`exec.rs`) differ only in how they pop a task and where
//! they queue what [`After`] names. [`retire`] (the one end-status
//! resolution and outcome merge) and [`stuck_report`] (the one deadlock
//! diagnosis) are shared the same way.
//!
//! Everything here works on `&mut Slot`: the single loop runs slots in
//! place in its task map, the executor owns a slot for the slice — both
//! can lend one. A slot is boxed when its task is made and stays in that
//! box until [`retire`]: maps, queues and the executor's hand-offs move
//! the pointer.

use std::collections::HashMap;
use std::sync::Arc;

use vkernel::{Clock, FastMap, Kernel, TaskHot, TaskState, Tid};
use wali_abi::Errno;
use wasm::host::Blocked;
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::prep::Program;
use wasm::Trap;

use crate::context::WaliContext;
use crate::registry::WaliSuspend;
use crate::runner::{RunOutcome, RunnerError, SchedStats, TaskEnd};
use crate::trace::SysCounts;

/// The next step of a task that is not running.
pub(crate) enum Pending {
    /// Call the program's entry function.
    Start(u32),
    /// Resume the suspended thread with this value (the result of the
    /// call it suspended in), or none after a preemption.
    Resume(Option<Value>),
    /// Re-enter the import the thread is blocked in (its arguments never
    /// left the thread's operand stack).
    Retry(Blocked),
}

/// Ops per scheduling slice before a busy task is preempted.
const FUEL_SLICE: u64 = 1 << 20;

/// Virtual nanoseconds one exhausted fuel slice accounts for (a ~1 GIPS
/// virtual CPU: 2^20 ops ≈ 1 ms). Without this, a pure-compute spin loop
/// would stall virtual time; the scheduler advances the clock here and at
/// idle steps, so parked deadlines lapse while a spinner runs.
pub(crate) const SLICE_QUANTUM_NS: u64 = 1_000_000;

/// One live task: its instance, interpreter thread, context and what it
/// does next.
pub(crate) struct Slot {
    pub(crate) tid: Tid,
    pub(crate) instance: Instance<WaliContext>,
    pub(crate) thread: Thread,
    pub(crate) ctx: WaliContext,
    pub(crate) pending: Option<Pending>,
    /// `Some(deadline)` while the task is parked off the run queues,
    /// with its optional wake deadline (virtual mono ns) — which is then
    /// also armed in the scheduler's timer wheel. Invariant: a live task
    /// is queued, running, vfork-suspended or parked, never two of them.
    pub(crate) park: Option<Option<u64>>,
}

/// The read-only surroundings of a slice, shared by every worker.
pub(crate) struct SliceEnv<'a> {
    /// `execve` targets by path.
    pub(crate) programs: &'a HashMap<String, Arc<Program<WaliContext>>>,
    pub(crate) clock: &'a Clock,
}

/// What the scheduler does with a task after [`run_slice`]. Except where
/// noted the slot's `pending` already holds the task's next step.
pub(crate) enum After {
    /// The task is over: [`retire`] it and release a `vfork` parent
    /// suspended on it. `None` leaves the end status to the kernel
    /// (killed by a signal, or exited by a sibling thread).
    Finished(Option<TaskEnd>),
    /// A call blocked and [`Slot::park`] is set: keep the task off the
    /// run queues and arm the deadline, if any.
    Parked(Option<u64>),
    /// Queue the task again.
    Runnable,
    /// The fuel slice ran out: queue the task again and account one
    /// [`SLICE_QUANTUM_NS`] of virtual CPU time.
    Preempted,
    /// `fork`/`vfork`/`clone`: admit `child`, then queue the parent —
    /// unless it is a `vfork` parent, which stays off every queue until
    /// the child execs or exits.
    Spawned {
        child: Box<Slot>,
        suspend_parent: bool,
    },
    /// `execve` swapped the image: queue the task, and release a `vfork`
    /// parent suspended on it.
    Execed,
    /// The run cannot continue.
    Fatal(RunnerError),
}

/// Instantiates `program` and resolves its entry point (`_start`, else
/// `main`).
pub(crate) fn load(
    program: &Arc<Program<WaliContext>>,
) -> Result<(Instance<WaliContext>, u32), RunnerError> {
    let instance = Instance::new(program.clone()).map_err(RunnerError::Instantiate)?;
    let entry = instance
        .export_func("_start")
        .or_else(|| instance.export_func("main"))
        .ok_or(RunnerError::NoEntry("_start"))?;
    Ok((instance, entry))
}

/// Runs one scheduling slice of `slot`. `counts` is the caller's syscall
/// counter table, the task's for as long as it runs: the calls it makes
/// are counted where its runner will look for them, and a task that
/// forks, makes five calls and exits never owns a table of its own.
/// `stats` is the caller's scheduler counter table.
pub(crate) fn run_slice(
    slot: &mut Slot,
    env: &SliceEnv<'_>,
    counts: &mut SysCounts,
    stats: &mut SchedStats,
) -> After {
    let Some(pending) = slot.pending.take() else {
        return After::Finished(None);
    };
    let tid = slot.tid;
    // A task whose kernel identity died while it was queued (killed by a
    // sibling) is finalized without running. Gated on the task's signal
    // hint: every external termination path raises it, so the common
    // case skips the kernel lock entirely.
    if slot.ctx.hint_raised() {
        let k = slot.ctx.lock_kernel();
        if k.task(tid).map(|t| t.exited()).unwrap_or(true) {
            return After::Finished(None);
        }
    }
    let t0 = slot.ctx.trace.clock();
    let (steps0, reg0) = (slot.thread.steps, slot.thread.reg_steps);
    slot.thread.refuel(Some(FUEL_SLICE));
    std::mem::swap(&mut slot.ctx.trace.counts, counts);
    let result = match pending {
        Pending::Start(func) => slot
            .thread
            .call(&mut slot.instance, &mut slot.ctx, func, &[]),
        Pending::Resume(value) => {
            let values = value.as_slice();
            slot.thread
                .resume(&mut slot.instance, &mut slot.ctx, values)
        }
        Pending::Retry(blocked) => {
            slot.ctx.retry_deadline = blocked.deadline;
            slot.thread.retry(&mut slot.instance, &mut slot.ctx)
        }
    };
    std::mem::swap(&mut slot.ctx.trace.counts, counts);
    // The slice is over: whatever follows may park this task or let
    // its worker sleep.
    vkernel::lockorder::assert_none_held();
    slot.ctx.flush_ticks();
    if let Some(t0) = t0 {
        slot.ctx.trace.total_time += t0.elapsed();
    }
    slot.ctx.trace.wasm_steps += slot.thread.steps - steps0;
    slot.ctx.trace.reg_steps += slot.thread.reg_steps - reg0;
    let ran_wasm = slot.thread.steps != steps0;

    match result {
        RunResult::Done(values) => {
            let code = slot.ctx.exited.unwrap_or_else(|| {
                let code = values.first().and_then(Value::as_i32).unwrap_or(0);
                let _ = slot.ctx.lock_kernel().sys_exit_group(tid, code);
                code
            });
            After::Finished(Some(TaskEnd::Exited(code)))
        }
        RunResult::Trapped(Trap::Aborted) => After::Finished(None),
        RunResult::Trapped(t) => {
            let _ = slot.ctx.lock_kernel().sys_exit_group(tid, 128);
            After::Finished(Some(TaskEnd::Trapped(t)))
        }
        RunResult::Blocked(blocked) => {
            After::Parked(park_blocked(slot, env, stats, blocked, ran_wasm))
        }
        RunResult::Suspended => match slot.ctx.take_suspend() {
            Some(why) => transition(slot, env, why),
            None => After::Fatal(RunnerError::NoEntry("suspension without a reason")),
        },
        RunResult::Preempted => {
            slot.pending = Some(Pending::Resume(None));
            After::Preempted
        }
    }
}

/// A call blocked: count it, leave the retry pending in the slot, charge
/// the context switch, and mark the slot parked. The scheduler arms the
/// returned deadline in its timer wheel. Takes no lock: whether the call
/// subscribed is known from what blocked ([`WaliContext::subscribed`]).
fn park_blocked(
    slot: &mut Slot,
    env: &SliceEnv<'_>,
    stats: &mut SchedStats,
    blocked: Blocked,
    ran_wasm: bool,
) -> Option<u64> {
    if !ran_wasm {
        stats.blocked_retries += 1;
    }
    stats.parks += 1;
    slot.pending = Some(Pending::Retry(blocked));
    slot.ctx.nvcsw += 1;
    let subscribed = std::mem::take(&mut slot.ctx.subscribed);
    // A call that subscribed a wait channel or carries a deadline parks on
    // exactly that. One outside the waitqueue protocol (a layered host
    // function with neither) parks on a one-quantum backoff deadline
    // instead of staying queued: run queues hold only runnable work,
    // which is what makes "queue empty" an exact idle test.
    let deadline = match blocked.deadline {
        None if !subscribed => Some(env.clock.monotonic_ns() + SLICE_QUANTUM_NS),
        deadline => deadline,
    };
    slot.park = Some(deadline);
    deadline
}

/// The process-model transitions (§3.1, Fig. 4) on engine primitives.
fn transition(slot: &mut Slot, env: &SliceEnv<'_>, payload: WaliSuspend) -> After {
    match payload {
        WaliSuspend::Exit { code } => After::Finished(Some(TaskEnd::Exited(code))),
        // `vfork` shares the parent's pages outright (no snapshot); the
        // parent is suspended until the child execs or exits — the Linux
        // contract.
        WaliSuspend::Fork { child, vfork } => spawn_child(slot, child, vfork, false, vfork),
        WaliSuspend::Clone {
            child,
            share_vm,
            thread,
        } => spawn_child(slot, child, share_vm, thread, false),
        WaliSuspend::Exec { path, argv, envp } => exec(slot, env, path, argv, envp),
    }
}

/// Snapshots the suspended thread into a child that resumes with 0 while
/// the parent resumes with the child's tid. `share_vm` shares linear
/// memory (instance-per-thread) instead of cloning it copy-on-write;
/// `thread` keeps the child in the parent's process.
fn spawn_child(
    slot: &mut Slot,
    child: TaskHot,
    share_vm: bool,
    thread: bool,
    suspend_parent: bool,
) -> After {
    let instance = if share_vm {
        slot.instance.thread_clone()
    } else {
        slot.instance.fork_clone()
    };
    let child_tid = child.tid;
    let ctx = if thread {
        slot.ctx.thread_sibling(child)
    } else {
        slot.ctx.fork_child(child)
    };
    let child = Box::new(Slot {
        tid: child_tid,
        instance,
        thread: slot.thread.clone(),
        ctx,
        pending: Some(Pending::Resume(Some(Value::I64(0)))),
        park: None,
    });
    slot.pending = Some(Pending::Resume(Some(Value::I64(child_tid as i64))));
    After::Spawned {
        child,
        suspend_parent,
    }
}

/// `execve`: swaps in the program registered at `path`, or resumes the
/// caller with the errno. Everything that can fail happens before
/// `sys_execve` — the point of no return, which sweeps the close-on-exec
/// fds and resets the caught signal handlers.
fn exec(
    slot: &mut Slot,
    env: &SliceEnv<'_>,
    path: String,
    argv: Vec<String>,
    envp: Vec<String>,
) -> After {
    let image = env.programs.get(&path).ok_or(Errno::Enoent);
    let image = image.and_then(|program| {
        let (instance, entry) = load(program).map_err(|_| Errno::Enoexec)?;
        Ok((program, instance, entry))
    });
    let (program, instance, entry) = match image {
        Ok(image) => image,
        Err(errno) => {
            slot.pending = Some(Pending::Resume(Some(Value::I64(errno.as_ret()))));
            return After::Runnable;
        }
    };
    let _ = slot.ctx.lock_kernel().sys_execve(slot.tid);
    slot.ctx.exec_image(program.data_end(), path, argv, envp);
    // A fresh private memory: replacing the old instance drops its page
    // references eagerly, so a vfork/COW parent regains exclusive
    // ownership of the shared pages.
    slot.instance = instance;
    slot.thread = Thread::new();
    slot.pending = Some(Pending::Start(entry));
    After::Execed
}

/// Retires a finished task: resolves its end status and merges its
/// accounting into `outcome`.
pub(crate) fn retire(
    mut slot: Box<Slot>,
    end: Option<TaskEnd>,
    main_tid: Option<Tid>,
    outcome: &mut RunOutcome,
) {
    let tid = slot.tid;
    let epoll_hold = slot.ctx.epoll_hold.take();
    let end = {
        let mut k = slot.ctx.lock_kernel();
        // Killed while blocked in `epoll_wait`: the instance it kept
        // goes back (it may hold the description's last reference).
        if let Some((_, hold)) = epoll_hold {
            k.epoll_release(hold);
        }
        // A task killed mid-slice may have re-blocked (and re-subscribed)
        // between the fatal signal and the scheduler noticing the death:
        // EINTR resumes its wasm, which can reach the next blocking
        // syscall before any safepoint unwinds it. Retiring is the task's
        // last word, so its wait subscriptions go with it.
        k.wait_cancel(tid);
        end.unwrap_or_else(|| match k.task(tid).map(|t| t.state.clone()) {
            Ok(TaskState::Zombie(status)) if wali_abi::flags::wifsignaled(status) => {
                TaskEnd::Exited(128 + wali_abi::flags::wtermsig(status))
            }
            Ok(TaskState::Zombie(status)) => TaskEnd::Exited(wali_abi::flags::wexitstatus(status)),
            _ => TaskEnd::Exited(slot.ctx.exited.unwrap_or(0)),
        })
    };
    let memory = &slot.instance.memory;
    outcome.peak_memory_pages = outcome.peak_memory_pages.max(memory.peak_pages());
    outcome.peak_resident_pages = outcome
        .peak_resident_pages
        .max(memory.peak_resident_pages());
    outcome.trace.merge(&slot.ctx.trace);
    if Some(tid) == main_tid {
        outcome.main_exit = Some(end.clone());
    }
    outcome.ends.push((tid, end));
}

/// The deadlock diagnosis, one entry per stuck task in tid order: its
/// pending step, where the scheduler holds it, and what the kernel
/// thinks it is. Called when nothing is runnable and no wake-up source
/// exists, so every slot is parked or `vfork`-suspended — anything else
/// reads `limbo` and is a scheduler bug.
pub(crate) fn stuck_report<'a>(
    slots: impl Iterator<Item = &'a Slot>,
    vfork_waiters: &FastMap<Tid, Tid>,
    kernel: &Kernel,
) -> Vec<(Tid, String)> {
    let mut report: Vec<(Tid, String)> = slots
        .map(|s| {
            let pending = match &s.pending {
                Some(Pending::Retry(b)) => format!("retry {}", b.import),
                Some(Pending::Start(_)) => "start".into(),
                Some(Pending::Resume(_)) => "resume".into(),
                None => "no pending".into(),
            };
            let place = if s.park.is_some() {
                "parked"
            } else if vfork_waiters.values().any(|&p| p == s.tid) {
                "vfork-suspended"
            } else {
                "limbo"
            };
            let state = match kernel.task(s.tid) {
                Ok(t) => format!("{:?}", t.state),
                Err(_) => "gone".into(),
            };
            (s.tid, format!("{pending}; {place}; kernel {state}"))
        })
        .collect();
    report.sort_by_key(|entry| entry.0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::{sys, Sysno};
    use crate::runner::WaliRunner;
    use wali_abi::flags::{CLONE_PTHREAD, CLONE_VM};
    use wasm::build::{FuncBuilder, FuncId, ModuleBuilder};
    use wasm::instr::BlockType;
    use wasm::types::ValType::I32;
    use wasm::Module;

    /// A one-function guest importing `imports`; `body` gets their ids
    /// in order and must leave the i32 exit code.
    fn guest(imports: &[Sysno], body: impl FnOnce(&mut FuncBuilder, &[FuncId])) -> Module {
        let mut mb = ModuleBuilder::new();
        let ids: Vec<FuncId> = imports.iter().map(|s| sys(&mut mb, *s)).collect();
        mb.memory(1, Some(2));
        let sig = mb.sig([], [I32]);
        let main = mb.func(sig, |b| body(b, &ids));
        mb.export("_start", main);
        mb.build()
    }

    /// A runner used as a slot factory: nothing here calls `run`.
    struct Rig {
        runner: WaliRunner,
        clock: Clock,
        tid: Tid,
    }

    /// Registers `programs` under their paths and spawns the first.
    fn rig(programs: &[(&str, Module)]) -> Rig {
        let mut runner = WaliRunner::new_default();
        for (path, module) in programs {
            runner.register_program(path, module).unwrap();
        }
        let tid = runner.spawn(programs[0].0, &[], &[]).unwrap();
        let clock = runner.kernel.lock_ok().clock.clone();
        Rig { runner, clock, tid }
    }

    impl Rig {
        fn slot(&mut self) -> &mut Slot {
            self.runner.tasks.get_mut(&self.tid).unwrap()
        }

        /// One slice of the spawned task, with no scheduler around it.
        fn slice(&mut self) -> After {
            let env = SliceEnv {
                programs: &self.runner.programs,
                clock: &self.clock,
            };
            let slot = self.runner.tasks.get_mut(&self.tid).unwrap();
            run_slice(slot, &env, &mut self.runner.counts, &mut self.runner.stats)
        }
    }

    /// The slot's pending step, if it is a `Resume` with a value.
    fn resume_value(slot: &Slot) -> Option<i64> {
        match &slot.pending {
            Some(Pending::Resume(Some(v))) => v.as_i64(),
            _ => None,
        }
    }

    /// Runs the guest's first slice and expects a spawn: `(child,
    /// suspend_parent)`, with both resume values checked.
    fn spawned(r: &mut Rig) -> (Box<Slot>, bool) {
        let After::Spawned {
            child,
            suspend_parent,
        } = r.slice()
        else {
            panic!("expected After::Spawned")
        };
        assert_eq!(resume_value(&child), Some(0), "the child resumes with 0");
        assert_eq!(
            resume_value(r.slot()),
            Some(child.tid as i64),
            "the parent resumes with the child's tid"
        );
        assert!(child.park.is_none() && r.slot().park.is_none());
        (child, suspend_parent)
    }

    fn clone_guest(flags: u64) -> Module {
        guest(&[Sysno::clone], |b, f| {
            b.i64(flags as i64).i64(0).i64(0).i64(0).i64(0).call(f[0]);
            b.drop_().i32(0);
        })
    }

    #[test]
    fn the_decision_stays_small() {
        // Returned by value once per slice; the 728-byte child is boxed.
        assert!(std::mem::size_of::<After>() <= 64);
    }

    #[test]
    fn fork_snapshots_memory_and_context() {
        let mut r = rig(&[(
            "/a",
            guest(&[Sysno::fork], |b, f| {
                b.call(f[0]).drop_().i32(0);
            }),
        )]);
        let (child, suspend_parent) = spawned(&mut r);
        assert!(!suspend_parent);
        let parent = r.slot();
        assert!(!Arc::ptr_eq(
            &child.instance.memory,
            &parent.instance.memory
        ));
        assert!(!Arc::ptr_eq(&child.ctx.space, &parent.ctx.space));
        assert_ne!(child.ctx.mm, parent.ctx.mm);
    }

    #[test]
    fn vfork_borrows_the_pages_and_suspends_the_parent() {
        let mut r = rig(&[(
            "/a",
            guest(&[Sysno::vfork], |b, f| {
                b.call(f[0]).drop_().i32(0);
            }),
        )]);
        let (child, suspend_parent) = spawned(&mut r);
        assert!(suspend_parent);
        let parent = r.slot();
        assert!(Arc::ptr_eq(&child.instance.memory, &parent.instance.memory));
        assert!(!Arc::ptr_eq(&child.ctx.space, &parent.ctx.space));
    }

    #[test]
    fn clone_picks_memory_and_context_from_its_flags() {
        // (flags, shares memory, shares the address-space bookkeeping)
        for (flags, share_vm, thread) in [
            (CLONE_PTHREAD, true, true),
            (CLONE_VM, true, false),
            (0, false, false),
        ] {
            let mut r = rig(&[("/a", clone_guest(flags))]);
            let (child, suspend_parent) = spawned(&mut r);
            assert!(!suspend_parent);
            let parent = r.slot();
            assert_eq!(
                Arc::ptr_eq(&child.instance.memory, &parent.instance.memory),
                share_vm,
                "flags {flags:#x}"
            );
            assert_eq!(
                Arc::ptr_eq(&child.ctx.space, &parent.ctx.space),
                thread,
                "flags {flags:#x}"
            );
        }
    }

    fn exec_guest(target: &str) -> Module {
        let mut mb = ModuleBuilder::new();
        let execve = sys(&mut mb, Sysno::execve);
        mb.memory(1, Some(2));
        let path = mb.c_str(target);
        let sig = mb.sig([], [I32]);
        let main = mb.func(sig, |b| {
            b.i64(path as i64).i64(0).i64(0).call(execve).wrap();
        });
        mb.export("_start", main);
        mb.build()
    }

    #[test]
    fn execve_swaps_the_image_in() {
        let target = guest(&[], |b, _| {
            b.i32(5);
        });
        let mut r = rig(&[("/a", exec_guest("/b")), ("/b", target)]);
        assert!(matches!(r.slice(), After::Execed));
        let slot = r.slot();
        assert!(matches!(slot.pending, Some(Pending::Start(_))));
        assert_eq!(*slot.ctx.args, ["/b"]);
        assert_eq!(slot.thread.steps, 0, "a fresh interpreter thread");
        assert!(matches!(
            r.slice(),
            After::Finished(Some(TaskEnd::Exited(5)))
        ));
    }

    #[test]
    fn execve_failures_resume_the_caller_with_the_errno() {
        // Registered, but with nothing to enter …
        let mut no_entry = ModuleBuilder::new();
        let sig = no_entry.sig([], [I32]);
        let f = no_entry.func(sig, |b| {
            b.i32(0);
        });
        no_entry.export("not_an_entry", f);
        // … and with a data segment past the end of its one-page memory.
        let mut oob = ModuleBuilder::new();
        oob.memory(1, Some(1));
        oob.data_at(70_000, b"x");
        let sig = oob.sig([], [I32]);
        let f = oob.func(sig, |b| {
            b.i32(0);
        });
        oob.export("_start", f);
        let (no_entry, oob) = (no_entry.build(), oob.build());
        for (target, errno) in [
            ("/missing", Errno::Enoent),
            ("/noentry", Errno::Enoexec),
            ("/oob", Errno::Enoexec),
        ] {
            let mut r = rig(&[
                ("/a", exec_guest(target)),
                ("/noentry", no_entry.clone()),
                ("/oob", oob.clone()),
            ]);
            assert!(matches!(r.slice(), After::Runnable), "{target}");
            assert_eq!(resume_value(r.slot()), Some(errno.as_ret()), "{target}");
            // The old image is intact: it runs on and returns the errno.
            let After::Finished(Some(TaskEnd::Exited(code))) = r.slice() else {
                panic!("{target}: the caller did not finish")
            };
            assert_eq!(code as i64, errno.as_ret(), "{target}");
        }
    }

    #[test]
    fn exit_group_and_traps_finish_with_their_status() {
        let mut r = rig(&[(
            "/a",
            guest(&[Sysno::exit_group], |b, f| {
                b.i64(3).call(f[0]).drop_().i32(0);
            }),
        )]);
        assert!(matches!(
            r.slice(),
            After::Finished(Some(TaskEnd::Exited(3)))
        ));
        let mut r = rig(&[(
            "/a",
            guest(&[], |b, _| {
                b.unreachable();
            }),
        )]);
        assert!(matches!(
            r.slice(),
            After::Finished(Some(TaskEnd::Trapped(Trap::Unreachable)))
        ));
        let state = r.runner.kernel.lock_ok().task(r.tid).unwrap().state.clone();
        assert!(matches!(state, TaskState::Zombie(_)), "{state:?}");
    }

    #[test]
    fn an_exhausted_fuel_slice_preempts() {
        let mut r = rig(&[(
            "/a",
            guest(&[], |b, _| {
                b.loop_(BlockType::Empty, |b| {
                    b.br(0);
                });
                b.i32(0);
            }),
        )]);
        for _ in 0..2 {
            assert!(matches!(r.slice(), After::Preempted));
            assert!(matches!(&r.slot().pending, Some(Pending::Resume(None))));
        }
        assert!(r.slot().thread.steps >= 2 * FUEL_SLICE);
    }

    #[test]
    fn a_blocking_read_parks_on_its_wait_channel() {
        // pipe2(fds, 0); read(fds[0], buf, 1) — the write end stays open.
        let mut r = rig(&[(
            "/a",
            guest(&[Sysno::pipe2, Sysno::read], |b, f| {
                b.i64(16).i64(0).call(f[0]).drop_();
                b.i32(16).load32(0).extend_u().i64(32).i64(1).call(f[1]);
                b.wrap();
            }),
        )]);
        assert!(matches!(r.slice(), After::Parked(None)));
        let slot = r.slot();
        assert_eq!(slot.park, Some(None));
        assert!(matches!(&slot.pending, Some(Pending::Retry(b)) if b.import.ends_with("read")));
        let stats = &r.runner.stats;
        assert_eq!((stats.parks, stats.blocked_retries), (1, 0));
        // A retry nothing woke blocks again without running any wasm.
        r.slot().park = None;
        assert!(matches!(r.slice(), After::Parked(None)));
        assert_eq!(r.runner.stats.blocked_retries, 1);
    }

    #[test]
    fn a_task_killed_while_queued_never_runs() {
        let mut r = rig(&[(
            "/a",
            guest(&[], |b, _| {
                b.i32(0);
            }),
        )]);
        let tid = r.tid;
        {
            // A sibling thread takes the whole process down.
            let mut k = r.runner.kernel.lock_ok();
            let sibling = k.sys_clone(tid, CLONE_PTHREAD).unwrap() as Tid;
            k.sys_exit_group(sibling, 7).unwrap();
        }
        assert!(matches!(r.slice(), After::Finished(None)));
        let slot = r.runner.tasks.remove(&tid).unwrap();
        assert_eq!(slot.thread.steps, 0);
        let mut outcome = RunOutcome::default();
        retire(slot, None, Some(tid), &mut outcome);
        assert_eq!(outcome.main_exit, Some(TaskEnd::Exited(7)));
        assert_eq!(outcome.ends, [(tid, TaskEnd::Exited(7))]);
    }
}
