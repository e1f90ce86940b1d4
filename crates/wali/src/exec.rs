//! The SMP executor: interprets runnable tasks on a pool of host worker
//! threads (`WALI_WORKERS`, [`WaliRunner::set_workers`]).
//!
//! # Architecture
//!
//! Each live task's [`Slot`] (instance, interpreter thread, context)
//! migrates between workers at safepoint boundaries: a worker *takes* the
//! slot out of the shared pool, runs exactly one scheduling slice (until
//! the fuel quantum expires, the task blocks, or it finishes), and hands
//! the slot back with the scheduling decision applied. Ownership of the
//! slot is the execution token — a task can never run on two workers at
//! once, and the pool mutex hand-off orders every cross-worker access to
//! the slot's interior.
//!
//! Runnable tids live in a work-stealing queue family: one worker-local
//! FIFO per worker plus a global injector. A worker prefers its own
//! queue (wakeups it drains and children it forks land there), falls
//! back to the injector, and finally steals the back half of a sibling's
//! queue. Kernel waitqueue wakeups are pushed directly to the draining
//! worker's local queue.
//!
//! # Blocking, wakeups and races
//!
//! Blocked tasks park exactly as in the single-threaded scheduler
//! ([`park_blocked`] is the one implementation of both), but races
//! exist that the cooperative loop never sees:
//!
//! * **wakeup-before-park** — a sibling posts the wakeup after the task
//!   subscribed (inside its syscall, under the kernel lock) but before
//!   its worker parked it (under the pool lock). The drainer records the
//!   wakeup in `pending_wakes`; the park consumes it and requeues
//!   instead of parking. Wakeups are edge-triggered-with-retry, so a
//!   spurious requeue merely re-parks.
//! * **deadlock-vs-backlog** — a worker must not declare deadlock while
//!   an undrained wakeup exists; the idle path re-checks the lock-free
//!   woken hint before reporting.
//! * **deadlock-vs-drain** — taking wakeups out of the kernel clears
//!   the hint before the tids reach any run queue; during that window
//!   the `draining` counter is the only evidence the pool is live, and
//!   the quiescence test honors it. (Found by the scenario fuzzer: a
//!   `wait4` parent's wakeup was in a sibling worker's hands when a
//!   third worker declared a false deadlock.)
//! * **deadlock-vs-pop** — a tid popped from a run queue is in no queue
//!   and not yet `in_flight` until [`take_slot`] claims its slot; the
//!   `queued` set still holds it for that window, so quiescence is
//!   "`queued` empty", not "queues empty". (Found by the fault demo once
//!   it ran on the fast path: a disarmed run reported a `limbo` task.)
//!
//! # Lock ordering
//!
//! `kernel core → pool (sched) → worker-local queue`, with the virtual
//! clock and the woken hint lock-free on the side. Workers never hold
//! the pool lock while executing wasm or while calling into the kernel.
//!
//! # Determinism
//!
//! `WALI_WORKERS=1` does not enter this module at all — `run()`
//! dispatches to the unchanged single-threaded loop, which stays
//! bit-identical to the pre-SMP scheduler. The SMP schedule is
//! *semantically* equivalent (same syscall results, same exit statuses)
//! but not bit-deterministic: console interleaving and counter values
//! depend on physical timing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use vkernel::{Clock, FastMap, FastSet, MutexExt, TaskState, Tid};
use wali_abi::Errno;
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::Trap;

use crate::context::WaliContext;
use crate::registry::WaliSuspend;
use crate::runner::{
    park_blocked, AtomicSched, Pending, RunOutcome, RunnerError, Slot, TaskEnd, WaliRunner,
    FUEL_SLICE, SLICE_QUANTUM_NS,
};
use wasm::prep::Program;

/// The read-only slice of the runner every worker shares. (`&WaliRunner`
/// itself is not `Sync`: parked slots hold `Box<dyn Any + Send>`
/// extension state, which workers never touch concurrently — ownership
/// of a slot is the execution token.)
struct RunnerView<'a> {
    programs: &'a std::collections::HashMap<String, Arc<Program<WaliContext>>>,
    stats: &'a AtomicSched,
    /// [`WaliRunner::ring_on`], for the context `execve` builds.
    ring: bool,
}

/// Mutable scheduler state shared by the worker pool (one lock).
struct SmpSched {
    /// Slots of every live task not currently executing: queued, parked
    /// ([`Slot::park`]), or vfork-suspended. A running task's slot is
    /// owned by its worker.
    slots: FastMap<Tid, Slot>,
    /// Tids present in some queue (global or any local), or popped from
    /// one and not yet claimed by [`take_slot`] — the dedup guard (a tid
    /// is enqueued at most once) and the quiescence test's "runnable
    /// work exists" (see deadlock-vs-pop in the module docs).
    queued: FastSet<Tid>,
    /// The global injector queue (admissions, lapsed deadlines).
    global: VecDeque<Tid>,
    /// Index of parked deadlines (O(1) arm/disarm timer wheel).
    deadlines: crate::timer::TimerWheel,
    /// vfork child → suspended parent.
    vfork_waiters: FastMap<Tid, Tid>,
    /// Wakeups that arrived for tasks currently running on a worker: the
    /// park that follows consumes them and requeues instead.
    pending_wakes: FastSet<Tid>,
    /// Slots currently owned by workers.
    in_flight: usize,
    /// Live (unfinished) tasks.
    live: usize,
    /// Run is over (all finished, or a fatal scheduler error).
    done: bool,
    /// First fatal error, if any.
    error: Option<RunnerError>,
    /// Accumulated run outcome (trace merges, ends, memory peaks).
    outcome: RunOutcome,
}

/// The worker pool: scheduler state + queues + coordination.
struct SmpPool {
    sched: Mutex<SmpSched>,
    cv: Condvar,
    /// Worker-local runnable queues (work stealing).
    locals: Vec<Mutex<VecDeque<Tid>>>,
    kernel: crate::context::KernelRef,
    /// Lock-free mirror of "the kernel has undrained wakeups".
    woken_hint: Arc<AtomicBool>,
    /// Drains in progress: wakeups already taken out of the kernel (the
    /// hint is clear again) but not yet distributed to the run queues.
    /// The quiescence test must treat them as work in flight, or a
    /// sibling can declare deadlock over a wakeup another worker is
    /// holding in its hands.
    draining: AtomicUsize,
    /// Shared virtual-clock handle (lock-free).
    clock: Clock,
    main_tid: Option<Tid>,
}

impl SmpPool {
    /// Enqueues a runnable tid (idempotent), targeting a worker-local
    /// queue when `widx` is given and the global injector otherwise.
    /// Caller holds the sched lock.
    fn enqueue(&self, sched: &mut SmpSched, widx: Option<usize>, tid: Tid) {
        if !sched.queued.insert(tid) {
            return;
        }
        match widx {
            Some(w) => self.locals[w].lock_ok().push_back(tid),
            None => sched.global.push_back(tid),
        }
        self.cv.notify_one();
    }

    /// Records a fatal error and stops the pool.
    fn fail(&self, err: RunnerError) {
        let mut sched = self.sched.lock_ok();
        if sched.error.is_none() {
            sched.error = Some(err);
        }
        sched.done = true;
        self.cv.notify_all();
    }
}

impl WaliRunner {
    /// Runs every task to completion on `nworkers` host workers.
    pub(crate) fn run_smp(&mut self, nworkers: usize) -> Result<RunOutcome, RunnerError> {
        let slots: FastMap<Tid, Slot> = std::mem::take(&mut self.tasks).into_iter().collect();
        let live = slots.len();
        let run_queue = std::mem::take(&mut self.run_queue);
        let deadlines = std::mem::take(&mut self.deadlines);
        let vfork_waiters = std::mem::take(&mut self.vfork_waiters);
        let (woken_hint, clock) = {
            let k = self.kernel.lock_ok();
            (k.woken_hint(), k.clock.clone())
        };
        let mut sched = SmpSched {
            slots,
            queued: FastSet::default(),
            global: VecDeque::new(),
            deadlines,
            vfork_waiters,
            pending_wakes: FastSet::default(),
            in_flight: 0,
            live,
            done: live == 0,
            error: None,
            outcome: std::mem::take(&mut self.outcome),
        };
        for tid in run_queue {
            if sched.queued.insert(tid) {
                sched.global.push_back(tid);
            }
        }
        let pool = SmpPool {
            sched: Mutex::new(sched),
            cv: Condvar::new(),
            locals: (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect(),
            kernel: self.kernel.clone(),
            woken_hint,
            draining: AtomicUsize::new(0),
            clock,
            main_tid: self.main_tid,
        };
        {
            let view = RunnerView {
                programs: &self.programs,
                stats: &self.stats,
                ring: self.ring_on(),
            };
            let view = &view;
            let pool = &pool;
            std::thread::scope(|s| {
                for widx in 0..nworkers {
                    s.spawn(move || worker_loop(view, pool, widx));
                }
            });
        }
        let mut sched = pool.sched.into_inner().unwrap_or_else(|p| p.into_inner());
        self.outcome = std::mem::take(&mut sched.outcome);
        // Reclaim leftovers (error paths leave unfinished tasks behind).
        self.tasks.extend(std::mem::take(&mut sched.slots));
        if let Some(err) = sched.error.take() {
            return Err(err);
        }
        self.finish_outcome()
    }
}

/// One worker: drain wakeups, fire lapsed deadlines, run a slice, repeat.
fn worker_loop(runner: &RunnerView<'_>, pool: &SmpPool, widx: usize) {
    loop {
        if pool.sched.lock_ok().done {
            return;
        }
        if pool.woken_hint.load(Ordering::Acquire) {
            drain_wakeups(runner, pool, widx);
        }
        wake_lapsed(pool);
        match take_slot(pool, widx) {
            Some(slot) => run_slice(runner, pool, widx, slot),
            None => {
                if idle(runner, pool, widx) {
                    return;
                }
            }
        }
    }
}

/// Pops a runnable tid — own queue, then injector, then steal the back
/// half of a sibling's queue — and takes its slot out of the pool.
fn take_slot(pool: &SmpPool, widx: usize) -> Option<Slot> {
    loop {
        let tid = pop_tid(pool, widx)?;
        let mut sched = pool.sched.lock_ok();
        if !sched.queued.remove(&tid) {
            // Stale entry (task finished or was reclaimed); try again.
            continue;
        }
        match sched.slots.remove(&tid) {
            Some(slot) => {
                sched.in_flight += 1;
                return Some(slot);
            }
            None => continue,
        }
    }
}

fn pop_tid(pool: &SmpPool, widx: usize) -> Option<Tid> {
    if let Some(tid) = pool.locals[widx].lock_ok().pop_front() {
        return Some(tid);
    }
    if let Some(tid) = pool.sched.lock_ok().global.pop_front() {
        return Some(tid);
    }
    // Steal: take the back half of the first non-empty sibling queue.
    for victim in 0..pool.locals.len() {
        if victim == widx {
            continue;
        }
        let mut q = pool.locals[victim].lock_ok();
        if q.is_empty() {
            continue;
        }
        let keep = q.len() / 2;
        let stolen: Vec<Tid> = q.drain(keep..).collect();
        drop(q);
        let mut mine = pool.locals[widx].lock_ok();
        let first = stolen[0];
        mine.extend(stolen.into_iter().skip(1));
        return Some(first);
    }
    None
}

/// Moves kernel-woken tasks onto this worker's local queue; wakeups for
/// tasks currently running on some worker are recorded in
/// `pending_wakes` so their next park requeues instead.
fn drain_wakeups(runner: &RunnerView<'_>, pool: &SmpPool, widx: usize) {
    // Raised before `take_woken` clears the hint, dropped only after the
    // wakeups are visible on the queues: in between, this counter is the
    // only evidence the pool is not quiescent (see `idle`).
    pool.draining.fetch_add(1, Ordering::SeqCst);
    let woken = {
        let mut k = pool.kernel.lock_ok();
        if !k.has_woken() {
            drop(k);
            pool.draining.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        k.take_woken()
    };
    let mut sched = pool.sched.lock_ok();
    for tid in woken {
        match sched.slots.get_mut(&tid).map(|slot| slot.park.take()) {
            Some(Some(deadline)) => {
                if let Some(d) = deadline {
                    sched.deadlines.cancel(d, tid);
                }
                runner.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                pool.enqueue(&mut sched, Some(widx), tid);
            }
            // Already runnable (it will observe the new state itself),
            // or vfork-suspended (its child's exec/exit requeues it).
            Some(None) => {}
            // Running on a worker right now: remember the wakeup so the
            // park racing with it requeues instead of sleeping forever.
            None => drop(sched.pending_wakes.insert(tid)),
        }
    }
    drop(sched);
    pool.draining.fetch_sub(1, Ordering::SeqCst);
}

/// Requeues parked tasks whose deadline lapsed. Takes the kernel lock
/// first (lock order) so the stale waitqueue subscriptions can be
/// cancelled atomically with the unpark — after the cancel, no late post
/// can spuriously wake the task out of a future unrelated park.
fn wake_lapsed(pool: &SmpPool) {
    let now = pool.clock.monotonic_ns();
    {
        let mut sched = pool.sched.lock_ok();
        match sched.deadlines.next_deadline() {
            Some(d) if d <= now => {}
            _ => return,
        }
    }
    let mut k = pool.kernel.lock_ok();
    let mut sched = pool.sched.lock_ok();
    for (_, tid) in sched.deadlines.advance_to(now) {
        if let Some(slot) = sched.slots.get_mut(&tid) {
            slot.park = None;
        }
        k.wait_cancel(tid);
        pool.enqueue(&mut sched, None, tid);
    }
}

/// Nothing runnable on any queue: sleep while siblings still run, or
/// take the idle step (advance the virtual clock to the earliest
/// deadline) when the whole pool is quiescent. Returns `true` when the
/// run is over.
fn idle(runner: &RunnerView<'_>, pool: &SmpPool, widx: usize) -> bool {
    {
        let sched = pool.sched.lock_ok();
        if sched.done {
            return true;
        }
        if !sched.queued.is_empty() {
            return false;
        }
        if pool.woken_hint.load(Ordering::Acquire) {
            // Undrained wakeups: never sleep (or declare deadlock) over
            // them.
            return false;
        }
        if pool.draining.load(Ordering::SeqCst) > 0 {
            // A sibling took wakeups out of the kernel (hint already
            // clear) but has not queued them yet.
            return false;
        }
        if sched.in_flight > 0 {
            // Siblings may produce work; the timeout bounds a lost
            // notify.
            let (guard, _) = pool
                .cv
                .wait_timeout(sched, Duration::from_millis(1))
                .unwrap_or_else(|p| p.into_inner());
            drop(guard);
            return false;
        }
    }
    // Quiescent candidate. Read the kernel wake sources NOW — reading
    // them before observing in_flight == 0 is a race: a sibling could
    // arm a timer (alarm) and then park, and a stale `None` would turn
    // a perfectly waitable state into a spurious Deadlock. Lock order
    // forbids kernel-after-sched, so drop, read, re-lock and re-verify
    // quiescence (any change bails back to the worker loop).
    let timer_min = pool.kernel.lock_ok().next_timer_deadline();
    let mut sched = pool.sched.lock_ok();
    if sched.done {
        return true;
    }
    let still_quiescent = sched.in_flight == 0
        && sched.queued.is_empty()
        && !pool.woken_hint.load(Ordering::Acquire)
        && pool.draining.load(Ordering::SeqCst) == 0;
    if !still_quiescent {
        return false;
    }
    // Quiescent: every live task is parked (or vfork-suspended).
    let parked_min = sched.deadlines.next_deadline();
    let Some(deadline) = [parked_min, timer_min].into_iter().flatten().min() else {
        if sched.live == 0 {
            sched.done = true;
            pool.cv.notify_all();
            return true;
        }
        // Full diagnosis per stuck task: pending work, where the
        // scheduler thinks it is, and what the kernel thinks it is.
        // Kernel state is read after dropping the sched lock (lock
        // order); the pool is quiescent, so nothing moves under us.
        let entries: Vec<(Tid, String, &'static str)> = sched
            .slots
            .values()
            .map(|s| {
                let pend = match &s.pending {
                    Some(Pending::Retry(b)) => format!("retry {}", b.import),
                    Some(Pending::Start { .. }) => "start".to_string(),
                    Some(Pending::Resume(_)) => "resume".to_string(),
                    None => "no pending".to_string(),
                };
                let place = if s.park.is_some() {
                    "parked"
                } else if sched.vfork_waiters.values().any(|&p| p == s.tid) {
                    "vfork-suspended"
                } else {
                    "limbo"
                };
                (s.tid, pend, place)
            })
            .collect();
        drop(sched);
        let report: Vec<(Tid, String)> = entries
            .into_iter()
            .map(|(tid, pend, place)| {
                let state = pool
                    .kernel
                    .lock_ok()
                    .task(tid)
                    .map(|t| format!("{:?}", t.state))
                    .unwrap_or_else(|_| "gone".into());
                (tid, format!("{pend}; {place}; kernel {state}"))
            })
            .collect();
        pool.fail(RunnerError::Deadlock(report));
        return true;
    };
    drop(sched);
    {
        let mut k = pool.kernel.lock_ok();
        k.clock.advance_to(deadline);
        k.fire_timers();
    }
    runner.stats.idle_advances.fetch_add(1, Ordering::Relaxed);
    wake_lapsed(pool);
    drain_wakeups(runner, pool, widx);
    false
}

/// Accounts one exhausted fuel slice of virtual CPU and fires whatever
/// became due.
fn tick_slice(runner: &RunnerView<'_>, pool: &SmpPool, widx: usize) {
    {
        let mut k = pool.kernel.lock_ok();
        k.clock.advance(SLICE_QUANTUM_NS);
        k.fire_timers();
    }
    wake_lapsed(pool);
    if pool.woken_hint.load(Ordering::Acquire) {
        drain_wakeups(runner, pool, widx);
    }
}

/// Hands a slot back to the pool as runnable.
fn give_back_runnable(pool: &SmpPool, widx: usize, slot: Slot) {
    let tid = slot.tid;
    let mut sched = pool.sched.lock_ok();
    sched.in_flight -= 1;
    sched.pending_wakes.remove(&tid);
    sched.slots.insert(tid, slot);
    pool.enqueue(&mut sched, Some(widx), tid);
}

/// Runs one scheduling slice of an owned slot and applies the resulting
/// scheduling decision. Mirrors the single-threaded `attempt` step by
/// step; divergences are commented.
fn run_slice(runner: &RunnerView<'_>, pool: &SmpPool, widx: usize, mut slot: Slot) {
    let tid = slot.tid;
    let Some(pending) = slot.pending.take() else {
        finish_task(pool, slot, None);
        return;
    };
    // A task whose kernel identity died (killed by a sibling) is
    // finalized without running.
    let killed = {
        let k = pool.kernel.lock_ok();
        k.task(tid).map(|t| t.exited()).unwrap_or(true)
    };
    if killed {
        finish_task(pool, slot, None);
        return;
    }
    let t0 = slot.ctx.trace.clock();
    let steps0 = slot.thread.steps;
    let reg0 = slot.thread.reg_steps;
    slot.thread.refuel(Some(FUEL_SLICE));
    let result = match pending {
        Pending::Start { func, args } => {
            slot.thread
                .call(&mut slot.instance, &mut slot.ctx, func, &args)
        }
        Pending::Resume(values) => slot
            .thread
            .resume(&mut slot.instance, &mut slot.ctx, &values),
        Pending::Retry(blocked) => {
            slot.ctx.retry_deadline = blocked.deadline;
            slot.thread.retry(&mut slot.instance, &mut slot.ctx)
        }
    };
    if let Some(t0) = t0 {
        slot.ctx.trace.total_time += t0.elapsed();
    }
    slot.ctx.trace.wasm_steps += slot.thread.steps - steps0;
    slot.ctx.trace.reg_steps += slot.thread.reg_steps - reg0;
    let ran_wasm = slot.thread.steps != steps0;

    match result {
        RunResult::Done(values) => {
            let code = values.first().and_then(Value::as_i32).unwrap_or(0);
            let already = slot.ctx.exited;
            if already.is_none() {
                let _ = pool.kernel.lock_ok().sys_exit_group(tid, code);
            }
            finish_task(pool, slot, Some(TaskEnd::Exited(already.unwrap_or(code))));
        }
        RunResult::Trapped(Trap::Aborted) => finish_task(pool, slot, None),
        RunResult::Trapped(t) => {
            let _ = pool.kernel.lock_ok().sys_exit_group(tid, 128);
            finish_task(pool, slot, Some(TaskEnd::Trapped(t)));
        }
        RunResult::Blocked(blocked) => {
            // Kernel-side reads before the pool lock (lock order).
            let deadline = park_blocked(&mut slot, runner.stats, &pool.clock, blocked, ran_wasm);
            let mut sched = pool.sched.lock_ok();
            sched.in_flight -= 1;
            if sched.pending_wakes.remove(&tid) {
                // The wakeup raced our park: requeue instead.
                slot.park = None;
                sched.slots.insert(tid, slot);
                pool.enqueue(&mut sched, Some(widx), tid);
            } else {
                if let Some(d) = deadline {
                    sched.deadlines.insert(d, tid);
                }
                sched.slots.insert(tid, slot);
            }
        }
        RunResult::Suspended(s) => match s.downcast::<WaliSuspend>() {
            Ok(payload) => handle_suspend(runner, pool, widx, slot, *payload),
            Err(s) => {
                if s.downcast::<wasm::interp::Preempted>().is_ok() {
                    slot.pending = Some(Pending::Resume(Vec::new()));
                    give_back_runnable(pool, widx, slot);
                    tick_slice(runner, pool, widx);
                } else {
                    pool.fail(RunnerError::NoEntry("unknown suspension payload"));
                }
            }
        },
    }
}

fn handle_suspend(
    runner: &RunnerView<'_>,
    pool: &SmpPool,
    widx: usize,
    mut slot: Slot,
    payload: WaliSuspend,
) {
    let tid = slot.tid;
    match payload {
        WaliSuspend::Exit { code } => {
            finish_task(pool, slot, Some(TaskEnd::Exited(code)));
        }
        WaliSuspend::Fork { child_tid, vfork } => {
            let instance = if vfork {
                slot.instance.thread_clone()
            } else {
                slot.instance.fork_clone()
            };
            let ctx = slot.ctx.fork_child(child_tid);
            let resume = Pending::Resume(vec![Value::I64(0)]);
            let child = Slot::new(child_tid, instance, slot.thread.clone(), ctx, resume);
            slot.pending = Some(Pending::Resume(vec![Value::I64(child_tid as i64)]));
            let mut sched = pool.sched.lock_ok();
            sched.in_flight -= 1;
            sched.live += 1;
            sched.slots.insert(child_tid, child);
            pool.enqueue(&mut sched, Some(widx), child_tid);
            if vfork {
                // vfork parent: suspended off every queue until the child
                // execs or exits.
                sched.vfork_waiters.insert(child_tid, tid);
                sched.slots.insert(tid, slot);
            } else {
                sched.slots.insert(tid, slot);
                pool.enqueue(&mut sched, Some(widx), tid);
            }
        }
        WaliSuspend::Clone {
            child_tid,
            share_vm,
            thread,
        } => {
            let instance = if share_vm {
                slot.instance.thread_clone()
            } else {
                slot.instance.fork_clone()
            };
            let ctx = if thread {
                slot.ctx.thread_sibling(child_tid)
            } else {
                slot.ctx.fork_child(child_tid)
            };
            let resume = Pending::Resume(vec![Value::I64(0)]);
            let child = Slot::new(child_tid, instance, slot.thread.clone(), ctx, resume);
            slot.pending = Some(Pending::Resume(vec![Value::I64(child_tid as i64)]));
            let mut sched = pool.sched.lock_ok();
            sched.in_flight -= 1;
            sched.live += 1;
            sched.slots.insert(child_tid, child);
            pool.enqueue(&mut sched, Some(widx), child_tid);
            sched.slots.insert(tid, slot);
            pool.enqueue(&mut sched, Some(widx), tid);
        }
        WaliSuspend::Exec { path, argv, envp } => {
            let Some(program) = runner.programs.get(&path).cloned() else {
                slot.pending = Some(Pending::Resume(vec![Value::I64(Errno::Enoent.as_ret())]));
                give_back_runnable(pool, widx, slot);
                return;
            };
            {
                let mut k = pool.kernel.lock_ok();
                let _ = k.sys_execve(tid);
            }
            let instance = match Instance::new(program.clone()) {
                Ok(i) => i,
                Err(t) => {
                    pool.fail(RunnerError::Instantiate(t));
                    return;
                }
            };
            let Some(entry) = instance
                .export_func("_start")
                .or_else(|| instance.export_func("main"))
            else {
                pool.fail(RunnerError::NoEntry("_start"));
                return;
            };
            let old_trace = slot.ctx.trace.clone();
            let mut ctx = WaliContext::new(pool.kernel.clone(), tid, program.data_end());
            ctx.ring = runner.ring;
            ctx.args = if argv.is_empty() { vec![path] } else { argv };
            ctx.env = envp;
            ctx.trace = old_trace;
            slot.instance = instance;
            slot.thread = Thread::new();
            slot.ctx = ctx;
            slot.pending = Some(Pending::Start {
                func: entry,
                args: Vec::new(),
            });
            let mut sched = pool.sched.lock_ok();
            sched.in_flight -= 1;
            sched.pending_wakes.remove(&tid);
            sched.slots.insert(tid, slot);
            pool.enqueue(&mut sched, Some(widx), tid);
            release_vfork_parent(pool, &mut sched, tid);
        }
    }
}

/// Requeues the vfork parent suspended on `child`, if any. Caller holds
/// the sched lock.
fn release_vfork_parent(pool: &SmpPool, sched: &mut SmpSched, child: Tid) {
    if let Some(parent) = sched.vfork_waiters.remove(&child) {
        if sched.slots.contains_key(&parent) {
            pool.enqueue(sched, None, parent);
        }
    }
}

/// Retires a finished task: resolves its end status, merges its
/// accounting into the shared outcome, releases a waiting vfork parent,
/// and stops the pool once the last task is gone.
fn finish_task(pool: &SmpPool, slot: Slot, end: Option<TaskEnd>) {
    let tid = slot.tid;
    // A task killed mid-slice may have re-blocked (and re-subscribed)
    // between the fatal signal and its worker noticing the death;
    // finalization is the task's last word, so its subscriptions go.
    pool.kernel.lock_ok().wait_cancel(tid);
    let end = end.unwrap_or_else(|| {
        let k = pool.kernel.lock_ok();
        match k.task(tid).map(|t| t.state.clone()) {
            Ok(TaskState::Zombie(status)) if wali_abi::flags::wifsignaled(status) => {
                TaskEnd::Exited(128 + wali_abi::flags::wtermsig(status))
            }
            Ok(TaskState::Zombie(status)) => TaskEnd::Exited(wali_abi::flags::wexitstatus(status)),
            _ => TaskEnd::Exited(slot.ctx.exited.unwrap_or(0)),
        }
    });
    let mut sched = pool.sched.lock_ok();
    sched.in_flight -= 1;
    sched.live -= 1;
    sched.pending_wakes.remove(&tid);
    release_vfork_parent(pool, &mut sched, tid);
    sched.outcome.peak_memory_pages = sched
        .outcome
        .peak_memory_pages
        .max(slot.instance.memory.peak_pages());
    sched.outcome.peak_resident_pages = sched
        .outcome
        .peak_resident_pages
        .max(slot.instance.memory.peak_resident_pages());
    sched.outcome.trace.merge(&slot.ctx.trace);
    if Some(tid) == pool.main_tid {
        sched.outcome.main_exit = Some(end.clone());
    }
    sched.outcome.ends.push((tid, end));
    if sched.live == 0 {
        sched.done = true;
    }
    pool.cv.notify_all();
}
