//! The WALI process runtime.
//!
//! Every Wasm instance is one kernel task (the paper's 1-to-1 identity,
//! §3.1). What a task does with one scheduling slice — the process-model
//! transitions (`fork`, `vfork`, `clone`, `execve`, exit) and parking on
//! a blocked syscall included — is decided in `crates/wali/src/task.rs`
//! and is the same under every scheduler. This module is the runner's
//! public face (programs, spawning, the [`RunOutcome`]) and the first of
//! the two *pop policies*: the deterministic cooperative loop that
//! multiplexes every task onto one host thread (the N-to-1 "lightweight
//! process" execution). It keeps one FIFO of runnable tids and one timer
//! wheel of parked deadlines; a blocked task sits on the kernel waitqueues
//! ([`vkernel::wait`]) and re-enters the FIFO only when its wait channel
//! fires or its deadline lapses, and the virtual clock jumps straight to
//! the earliest deadline when nothing is runnable. The FIFO holds only
//! runnable work, so "idle" means "queue empty" — the same rule the SMP
//! executor uses.
//!
//! Set `WALI_WORKERS=N` (or [`WaliRunner::set_workers`]) for the second
//! policy: `N` host worker threads with work-stealing queues
//! (`0`/`auto` selects `min(cores, 8)`). The default, `1`, keeps the
//! deterministic schedule every test and benchmark in the repository is
//! pinned to; `N > 1` trades that determinism for true parallelism — see
//! `crates/wali/src/exec.rs` and DESIGN.md "Scheduler".

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use vkernel::{FastMap, Kernel, Tid};
use wali_abi::Errno;
use wasm::host::Linker;
use wasm::interp::Thread;
use wasm::prep::Program;
use wasm::{Module, SafepointScheme, Trap};

use crate::context::{KernelRef, WaliContext};
use crate::registry::build_linker;
use crate::task::{
    load, retire, run_slice, stuck_report, After, Pending, SliceEnv, Slot, SLICE_QUANTUM_NS,
};
use crate::trace::{SysCounts, Trace};

/// How a task ended.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskEnd {
    /// Normal exit with this code.
    Exited(i32),
    /// Died on a trap.
    Trapped(Trap),
}

/// Scheduler accounting for one run (waitqueue observability). Whoever
/// schedules — the single loop, each SMP worker — counts into a table of
/// its own, the one writer of it; a run adds the tables up at its end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Times a task was parked on a wait channel or deadline.
    pub parks: u64,
    /// Parked tasks re-queued by a kernel wakeup.
    pub wakeups: u64,
    /// Idle steps: the clock jumped to the earliest deadline.
    pub idle_advances: u64,
    /// Blocked-syscall retry attempts that blocked again without running
    /// any wasm (spurious wakeups; stays O(wakeups)).
    pub blocked_retries: u64,
}

impl SchedStats {
    /// Adds `other`'s counts to these.
    pub(crate) fn merge(&mut self, other: &SchedStats) {
        self.parks += other.parks;
        self.wakeups += other.wakeups;
        self.idle_advances += other.idle_advances;
        self.blocked_retries += other.blocked_retries;
    }
}

/// Everything a finished run reports.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Exit status of the first spawned task.
    pub main_exit: Option<TaskEnd>,
    /// Per-task endings in completion order.
    pub ends: Vec<(Tid, TaskEnd)>,
    /// Captured console output.
    pub console: Vec<u8>,
    /// Merged trace across all tasks.
    pub trace: Trace,
    /// Peak linear-memory pages over all instances (the grow watermark —
    /// address-space footprint).
    pub peak_memory_pages: u32,
    /// Peak *resident* (host-allocated) pages over all instances. With the
    /// paged backing this counts touched pages only; the flat backing
    /// of a shared memory materializes its whole reservation.
    pub peak_resident_pages: u32,
    /// Scheduler accounting.
    pub sched: SchedStats,
}

impl RunOutcome {
    /// Console output as UTF-8 (lossy).
    pub fn stdout(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// The main task's exit code, if it exited normally.
    pub fn exit_code(&self) -> Option<i32> {
        match self.main_exit {
            Some(TaskEnd::Exited(code)) => Some(code),
            _ => None,
        }
    }

    /// Per-tier dispatch counts `(stack, regir)`: ops executed by the
    /// stack loop vs. the tier-2 register loop ([`wasm::regir`]).
    pub fn dispatches(&self) -> (u64, u64) {
        let reg = self.trace.reg_steps;
        (self.trace.wasm_steps.saturating_sub(reg), reg)
    }

    /// The order-insensitive summary of this run (toggle-equivalence
    /// comparison across schedulers).
    pub fn observables(&self) -> Observables {
        let mut console_lines: Vec<String> = self.stdout().lines().map(str::to_owned).collect();
        console_lines.sort();
        let mut ends: Vec<String> = self.ends.iter().map(|(_, e)| format!("{e:?}")).collect();
        ends.sort();
        Observables {
            main_exit: self.main_exit.as_ref().map(|e| format!("{e:?}")),
            console_lines,
            ends,
        }
    }
}

/// What every correct scheduler must agree on, regardless of worker
/// count or toggle settings: the main task's ending, the *multiset* of
/// console lines, and the *multiset* of task endings. Interleaving-
/// dependent data (completion order, sched counters, syscall totals —
/// blocked retries re-invoke handlers) is deliberately excluded; the
/// bit-determinism oracle compares those separately on `WALI_WORKERS=1`
/// pairs, where they must match exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observables {
    /// The main task's ending (`Debug`-rendered), if it ended.
    pub main_exit: Option<String>,
    /// Console lines, sorted (a multiset — line identity must hold, line
    /// interleaving may differ across schedulers).
    pub console_lines: Vec<String>,
    /// Task endings (`Debug`-rendered), sorted. Tids are excluded: tid
    /// assignment is deterministic, but which fork branch gets which tid
    /// is an ordering artifact under SMP.
    pub ends: Vec<String>,
}

/// A scheduling error.
#[derive(Debug)]
pub enum RunnerError {
    /// A module failed to link.
    Link(wasm::prep::LinkError),
    /// Instantiation failed.
    Instantiate(Trap),
    /// The entry export is missing.
    NoEntry(&'static str),
    /// The program's stub file could not be created in the guest's
    /// filesystem (e.g. a path component is a regular file).
    Vfs(Errno),
    /// All live tasks are blocked with no wake-up source. Each entry
    /// describes one stuck task: pending work, scheduler position,
    /// kernel state.
    Deadlock(Vec<(Tid, String)>),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Link(e) => write!(f, "link error: {e}"),
            RunnerError::Instantiate(t) => write!(f, "instantiation failed: {t}"),
            RunnerError::NoEntry(n) => write!(f, "module exports no `{n}`"),
            RunnerError::Vfs(e) => write!(f, "cannot create the program file: {e:?}"),
            RunnerError::Deadlock(tasks) => write!(f, "deadlock: {tasks:?}"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Whether batched syscall rings are on by default (the `WALI_NO_RING`
/// escape hatch makes `wali_ring_enter` return `-ENOSYS`, so guests
/// fall back to the synchronous per-op ABI — the A/B baseline the
/// equivalence oracle compares against).
pub fn ring_default() -> bool {
    std::env::var_os("WALI_NO_RING").is_none()
}

/// Worker-pool width selected by the `WALI_WORKERS` environment
/// variable: a number, or `0`/`auto` for `min(cores, 8)`. Unset — or
/// unparsable — means 1: the deterministic single-threaded schedule.
pub fn workers_default() -> usize {
    match std::env::var("WALI_WORKERS") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("auto") => auto_workers(),
        Ok(v) => v.parse::<usize>().unwrap_or(1).max(1),
        Err(_) => 1,
    }
}

/// `min(cores, 8)`: enough to saturate the scheduler benchmarks without
/// oversubscribing small CI machines.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The runtime.
pub struct WaliRunner {
    /// The kernel all tasks share.
    pub kernel: KernelRef,
    pub(crate) linker: Linker<WaliContext>,
    pub(crate) programs: HashMap<String, Arc<Program<WaliContext>>>,
    pub(crate) scheme: SafepointScheme,
    /// Tier-2 register-IR override; `None` follows
    /// [`wasm::regir::regir_default`] (`WALI_NO_REGIR=1` selects the
    /// reference stack tier).
    regir: Option<bool>,
    /// Batched-syscall-ring override; `None` follows [`ring_default`].
    ring: Option<bool>,
    /// Worker-pool width override; `None` follows [`workers_default`].
    workers: Option<usize>,
    /// Whether spawned tasks record the Fig. 7 layer timings.
    layer_timing: bool,
    /// Every live task, keyed by kernel tid, each in the box it was made
    /// in.
    pub(crate) tasks: FastMap<Tid, Box<Slot>>,
    /// The syscall counter table the task being run counts in
    /// ([`run_slice`] lends it), folded into the outcome when the run
    /// ends.
    pub(crate) counts: SysCounts,
    /// Runnable tasks, round-robin FIFO. Blocked tasks are never here:
    /// they are parked ([`Slot::park`]).
    pub(crate) run_queue: VecDeque<Tid>,
    /// Index of parked deadlines: the scheduler compares its minimum
    /// against the clock every round, so deadline-parked tasks wake on
    /// time even while other tasks keep the run queue busy (syscall
    /// ticks advance the virtual clock too, not just idle steps). Kept
    /// in lock-step with the slots' `park`. A hierarchical timer wheel
    /// ([`crate::timer::TimerWheel`]): O(1) arm/disarm per park/unpark,
    /// exact minimum for the idle clock jump.
    pub(crate) deadlines: crate::timer::TimerWheel,
    /// `vfork` parents suspended until their child execs or exits, keyed
    /// by child tid. These tasks are neither queued nor parked; the
    /// child's exec/exit requeues them.
    pub(crate) vfork_waiters: FastMap<Tid, Tid>,
    pub(crate) main_tid: Option<Tid>,
    pub(crate) outcome: RunOutcome,
    /// The single loop's scheduler counters (added to `outcome.sched`).
    pub(crate) stats: SchedStats,
    /// Lock-free virtual-clock handle (shares the kernel's counter).
    pub(crate) clock: vkernel::Clock,
    /// Lock-free mirror of "the kernel has undrained wakeups".
    pub(crate) woken_hint: Arc<std::sync::atomic::AtomicBool>,
    /// The kernel's waitqueue shard: the woken list is drained under its
    /// own lock, not the kernel's.
    waits: vkernel::WaitShard,
    /// The batch of woken tids being drained (kept for its capacity).
    woken: Vec<Tid>,
}

impl WaliRunner {
    /// Creates a runtime with a fresh kernel and the full WALI linker.
    pub fn new(scheme: SafepointScheme) -> WaliRunner {
        let kernel = Kernel::new();
        let clock = kernel.clock.clone();
        let woken_hint = kernel.woken_hint();
        let waits = kernel.handles().waits;
        WaliRunner {
            kernel: crate::context::new_kernel_ref(kernel),
            linker: build_linker(),
            programs: HashMap::new(),
            scheme,
            regir: None,
            ring: None,
            workers: None,
            layer_timing: false,
            tasks: FastMap::default(),
            counts: SysCounts::default(),
            run_queue: VecDeque::new(),
            deadlines: crate::timer::TimerWheel::default(),
            vfork_waiters: FastMap::default(),
            main_tid: None,
            outcome: RunOutcome::default(),
            stats: SchedStats::default(),
            clock,
            woken_hint,
            waits,
            woken: Vec::new(),
        }
    }

    /// Default runtime: loop-header safepoints (the paper's choice).
    pub fn new_default() -> WaliRunner {
        Self::new(SafepointScheme::LoopHeaders)
    }

    /// The safepoint scheme in use.
    pub fn scheme(&self) -> SafepointScheme {
        self.scheme
    }

    /// Mutable access to the linker, so higher-level APIs (e.g. the WASI
    /// layer) can register additional host modules **before** programs are
    /// registered.
    pub fn linker_mut(&mut self) -> &mut Linker<WaliContext> {
        &mut self.linker
    }

    /// Overrides the tier-2 register IR for subsequently registered
    /// programs (A/B measurement; default follows
    /// [`wasm::regir::regir_default`]). `false` selects the reference
    /// stack tier.
    pub fn set_regir(&mut self, on: bool) {
        self.regir = Some(on);
    }

    /// Overrides batched syscall rings (A/B measurement; default follows
    /// [`ring_default`]). `false` makes `wali_ring_enter` return
    /// `-ENOSYS` so guests take their synchronous per-op fallback.
    pub fn set_ring(&mut self, on: bool) {
        self.ring = Some(on);
    }

    fn ring_on(&self) -> bool {
        self.ring.unwrap_or_else(ring_default)
    }

    /// Overrides the worker-pool width (A/B measurement; default follows
    /// [`workers_default`]). `1` pins the deterministic single-threaded
    /// schedule; `n > 1` runs tasks on `n` host workers.
    pub fn set_workers(&mut self, n: usize) {
        self.workers = Some(n.max(1));
    }

    /// The effective worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(workers_default)
    }

    /// Makes subsequently spawned tasks (and everything they fork) record
    /// the Fig. 7 layer split — `host_time`, `kernel_time` and
    /// `total_time` of [`RunOutcome::trace`]. Off by default: the split
    /// costs four clock reads per syscall, more than a thin crossing
    /// itself, so only the runs that read it pay for it. Nothing else
    /// about a run changes.
    pub fn set_layer_timing(&mut self, on: bool) {
        self.layer_timing = on;
    }

    /// Audits kernel state for leaked resources — call after [`run`]
    /// returns. Clean means every fd-backed resource slot was released
    /// and no task or wait subscription was stranded; see
    /// [`vkernel::LeakReport`]. The fuzzer's liveness oracle asserts
    /// `is_clean()` on every scenario.
    ///
    /// [`run`]: WaliRunner::run
    pub fn leak_audit(&self) -> vkernel::LeakReport {
        self.kernel.lock_ok().leak_audit()
    }

    /// Adjusts the context of a spawned (not yet finished) task — used to
    /// attach layered-API state such as WASI preopens.
    pub fn configure_ctx(&mut self, tid: Tid, f: impl FnOnce(&mut WaliContext)) {
        if let Some(slot) = self.tasks.get_mut(&tid) {
            f(&mut slot.ctx);
        }
    }

    /// Links `module` and registers it as the executable at `path`
    /// (`execve` target). Also materializes a stub file in the VFS so
    /// `access`/`stat` on the path behave.
    pub fn register_program(&mut self, path: &str, module: &Module) -> Result<(), RunnerError> {
        let regir = self.regir.unwrap_or_else(wasm::regir::regir_default);
        let program = Program::link_tiered(module, &self.linker, self.scheme, regir)
            .map_err(RunnerError::Link)?;
        self.write_stub(path).map_err(RunnerError::Vfs)?;
        self.programs.insert(path.to_string(), Arc::new(program));
        Ok(())
    }

    /// The program registered at `path`.
    pub fn program(&self, path: &str) -> Option<&Arc<Program<WaliContext>>> {
        self.programs.get(path)
    }

    /// Gives a registered program a file the guest can `stat`, `access`
    /// and `execve`: an executable stub at `path`, with any missing parent
    /// directory created (the standard layout has `/usr/bin` but no `/bin`).
    fn write_stub(&self, path: &str) -> Result<(), Errno> {
        let kernel = self.kernel.lock_ok();
        let mut vfs = kernel.vfs.lock();
        if let Some((dir, _)) = path.rsplit_once('/') {
            vfs.mkdir_p(dir)?;
        }
        let id = vfs.write_file(path, b"\0asm\x01\0\0\0")?;
        vfs.get_mut(id)?.perm = 0o755;
        Ok(())
    }

    /// Spawns a process running the program registered at `path`.
    pub fn spawn(&mut self, path: &str, args: &[&str], env: &[&str]) -> Result<Tid, RunnerError> {
        let program = self
            .programs
            .get(path)
            .cloned()
            .ok_or(RunnerError::NoEntry("program not registered"))?;
        let (instance, entry) = load(&program)?;
        // The kernel process comes last: an error above must not leave a
        // `Running` task that no slot owns.
        let tid = self.kernel.lock_ok().spawn_process();
        let mut ctx =
            WaliContext::new(self.kernel.clone(), tid, program.data_end(), self.ring_on());
        ctx.trace.timing = self.layer_timing;
        let args = args.iter().map(|s| s.to_string());
        ctx.args = std::iter::once(path.to_string()).chain(args).collect();
        ctx.env = env.iter().map(|s| s.to_string()).collect();
        self.main_tid.get_or_insert(tid);
        self.admit(Box::new(Slot {
            tid,
            instance,
            thread: Thread::new(),
            ctx,
            pending: Some(Pending::Start(entry)),
            park: None,
        }));
        Ok(tid)
    }

    /// Spawns with a seccomp-like policy attached (§3.6 layering).
    pub fn spawn_with_policy(
        &mut self,
        path: &str,
        args: &[&str],
        env: &[&str],
        policy: crate::policy::Policy,
    ) -> Result<Tid, RunnerError> {
        let tid = self.spawn(path, args, env)?;
        self.configure_ctx(tid, |ctx| ctx.policy = Some(policy));
        Ok(tid)
    }

    /// Registers a new task and queues it to run.
    fn admit(&mut self, slot: Box<Slot>) {
        let tid = slot.tid;
        self.tasks.insert(tid, slot);
        self.run_queue.push_back(tid);
    }

    /// Runs until every task finishes — on the SMP executor when more
    /// than one worker is configured, otherwise on the deterministic loop
    /// below: drain kernel wakeups into the run queue, run the queue
    /// round-robin, and when nothing is runnable take an idle step — jump
    /// the virtual clock to the earliest deadline, fire timers, and unpark
    /// whatever that woke. Wakeup cost is independent of the number of
    /// parked tasks: a transition posts to exactly the tasks subscribed
    /// to its channel.
    pub fn run(&mut self) -> Result<RunOutcome, RunnerError> {
        let workers = self.workers();
        if workers > 1 {
            return self.run_smp(workers);
        }
        while !self.tasks.is_empty() {
            self.drain_wakeups();
            // Syscall ticks advance the clock while the queue stays busy;
            // wake parked deadlines the moment they lapse, not only at
            // idle steps.
            let next = self.deadlines.next_deadline();
            if next.is_some_and(|d| d <= self.clock.monotonic_ns()) {
                self.wake_lapsed();
            }
            let Some(tid) = self.run_queue.pop_front() else {
                self.idle_advance()?;
                continue;
            };
            let env = SliceEnv {
                programs: &self.programs,
                clock: &self.clock,
            };
            if let Some(slot) = self.tasks.get_mut(&tid) {
                let after = run_slice(slot, &env, &mut self.counts, &mut self.stats);
                self.apply(tid, after)?;
            }
        }
        self.finish_outcome()
    }

    /// Folds the concurrent counters and captured console into the
    /// outcome of a completed run.
    pub(crate) fn finish_outcome(&mut self) -> Result<RunOutcome, RunnerError> {
        let mut outcome = std::mem::take(&mut self.outcome);
        outcome
            .trace
            .counts
            .merge(&std::mem::take(&mut self.counts));
        outcome.sched.merge(&std::mem::take(&mut self.stats));
        outcome.console = self.kernel.lock_ok().take_console();
        Ok(outcome)
    }

    /// Moves kernel-woken parked tasks to the run queue.
    fn drain_wakeups(&mut self) {
        // Lock-free gate: the hint mirrors the kernel's woken list, so the
        // waitqueue is locked only when there is something to drain.
        if !self.woken_hint.load(Ordering::Acquire) {
            return;
        }
        self.waits.lock().drain_woken(&mut self.woken);
        for tid in self.woken.drain(..) {
            // Wakeups for queued/running tasks are redundant: they will
            // observe the new state on their own next attempt.
            let Some(deadline) = self.tasks.get_mut(&tid).and_then(|s| s.park.take()) else {
                continue;
            };
            if let Some(d) = deadline {
                self.deadlines.cancel(d, tid);
            }
            self.stats.wakeups += 1;
            self.run_queue.push_back(tid);
        }
    }

    /// Nothing is runnable: advance the virtual clock to the earliest
    /// wake-up source (parked deadlines, kernel timers), fire timers, and
    /// unpark deadline-lapsed tasks; error out when no wake-up source
    /// exists.
    fn idle_advance(&mut self) -> Result<(), RunnerError> {
        let mut k = self.kernel.lock_ok();
        let wake_sources = [self.deadlines.next_deadline(), k.next_timer_deadline()];
        let Some(deadline) = wake_sources.into_iter().flatten().min() else {
            let slots = self.tasks.values().map(|slot| &**slot);
            let report = stuck_report(slots, &self.vfork_waiters, &k);
            return Err(RunnerError::Deadlock(report));
        };
        k.clock.advance_to(deadline);
        k.fire_timers();
        drop(k);
        self.stats.idle_advances += 1;
        self.wake_lapsed();
        self.drain_wakeups();
        Ok(())
    }

    /// Accounts one exhausted fuel slice of virtual CPU time and fires
    /// whatever that made due (timers, parked deadlines).
    fn tick_slice(&mut self) {
        let mut k = self.kernel.lock_ok();
        k.clock.advance(SLICE_QUANTUM_NS);
        k.fire_timers();
        drop(k);
        self.wake_lapsed();
    }

    /// Re-queues parked tasks whose deadline has lapsed. The kernel-side
    /// subscriptions are cancelled: this wake bypasses the waitqueue, so
    /// leaving them would let a later post spuriously wake the task out
    /// of an unrelated park.
    fn wake_lapsed(&mut self) {
        let lapsed = self.deadlines.advance_to(self.clock.monotonic_ns());
        if lapsed.is_empty() {
            return;
        }
        let mut k = self.kernel.lock_ok();
        for (_, tid) in lapsed {
            if let Some(slot) = self.tasks.get_mut(&tid) {
                slot.park = None;
            }
            k.wait_cancel(tid);
            self.run_queue.push_back(tid);
        }
    }

    /// Runs a single registered program to completion (convenience).
    pub fn run_to_exit(
        module: &Module,
        args: &[&str],
        env: &[&str],
    ) -> Result<RunOutcome, RunnerError> {
        let mut runner = WaliRunner::new_default();
        runner.register_program("/usr/bin/app", module)?;
        runner.spawn("/usr/bin/app", args, env)?;
        runner.run()
    }

    /// Applies the decision of `tid`'s slice to the FIFO and the wheel.
    fn apply(&mut self, tid: Tid, after: After) -> Result<(), RunnerError> {
        match after {
            After::Finished(end) => {
                let slot = self.tasks.remove(&tid).expect("the slot that just ran");
                self.release_vfork_parent(tid);
                retire(slot, end, self.main_tid, &mut self.outcome);
            }
            After::Parked(deadline) => {
                if let Some(d) = deadline {
                    self.deadlines.insert(d, tid);
                }
            }
            After::Runnable => self.run_queue.push_back(tid),
            After::Preempted => {
                self.run_queue.push_back(tid);
                self.tick_slice();
            }
            After::Spawned {
                child,
                suspend_parent,
            } => {
                if suspend_parent {
                    self.vfork_waiters.insert(child.tid, tid);
                }
                self.admit(child);
                if !suspend_parent {
                    self.run_queue.push_back(tid);
                }
            }
            After::Execed => {
                self.run_queue.push_back(tid);
                self.release_vfork_parent(tid);
            }
            After::Fatal(err) => return Err(err),
        }
        Ok(())
    }

    /// Requeues the vfork parent suspended on `child`, if any (called at
    /// the child's execve and at its exit).
    fn release_vfork_parent(&mut self, child: Tid) {
        if let Some(parent) = self.vfork_waiters.remove(&child) {
            if self.tasks.contains_key(&parent) {
                self.run_queue.push_back(parent);
            }
        }
    }
}
