//! The SMP executor: the second pop policy — runnable tasks interpreted
//! on a pool of host worker threads (`WALI_WORKERS`,
//! [`WaliRunner::set_workers`]).
//!
//! # Architecture
//!
//! Each live task's [`Slot`] (instance, interpreter thread, context)
//! migrates between workers at safepoint boundaries: a worker *takes* the
//! (boxed) slot out of the shared pool, runs exactly one scheduling slice
//! ([`run_slice`], the step the single-threaded loop runs too), and hands
//! the slot back with the step's decision applied ([`Worker::apply`]).
//! Ownership of the slot is the execution token — a task can never run
//! on two workers at once, and the pool mutex hand-off orders every
//! cross-worker access to the slot's interior.
//!
//! Runnable tids live in a work-stealing queue family: one worker-local
//! FIFO per worker plus a global injector. A worker prefers its own
//! queue (wakeups it drains and children it forks land there), falls
//! back to the injector, and finally steals the back half of a sibling's
//! queue.
//!
//! # Blocking, wakeups and races
//!
//! What this module adds to the shared step is what only concurrency
//! needs — races the cooperative loop never sees:
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
//!   and not yet `in_flight` until [`Worker::take_slot`] claims its slot;
//!   the `queued` set still holds it for that window, so quiescence is
//!   "`queued` empty", not "queues empty". (Found by the fault demo once
//!   it ran on the fast path: a disarmed run reported a `limbo` task.)
//!
//! # Lock ordering
//!
//! `outcome → kernel core → pool (sched) → worker-local queue`, with the
//! virtual clock and the woken hint lock-free on the side. Workers never
//! hold the pool lock while executing wasm or while calling into the
//! kernel.
//!
//! # Determinism
//!
//! `WALI_WORKERS=1` does not enter this module: `run()` dispatches to
//! the single-threaded loop, whose in-place slots and lock-free FIFO are
//! measurably cheaper at one worker (DESIGN.md "Why two loops remain").
//! The SMP schedule is *semantically* equivalent (same syscall results,
//! same exit statuses) but not bit-deterministic: console interleaving
//! and counter values depend on physical timing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use vkernel::{Clock, FastMap, FastSet, MutexExt, Tid};

use crate::runner::{RunOutcome, RunnerError, WaliRunner};
use crate::task::{retire, run_slice, stuck_report, After, SliceEnv, Slot, SLICE_QUANTUM_NS};
use crate::trace::SysCounts;

/// Mutable scheduler state shared by the worker pool (one lock).
struct SmpSched {
    /// Slots of every live task not currently executing: queued, parked
    /// ([`Slot::park`]), or vfork-suspended. A running task's slot is
    /// owned by its worker.
    slots: FastMap<Tid, Box<Slot>>,
    /// Tids present in some queue (global or any local), or popped from
    /// one and not yet claimed by [`Worker::take_slot`] — the dedup guard
    /// (a tid is enqueued at most once) and the quiescence test's
    /// "runnable work exists" (see deadlock-vs-pop in the module docs).
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
    /// Slots currently owned by workers. Every live task is in `slots` or
    /// in flight.
    in_flight: usize,
    /// Run is over (all finished, or a fatal scheduler error).
    done: bool,
    /// First fatal error, if any.
    error: Option<RunnerError>,
}

/// The worker pool: scheduler state + queues + coordination.
struct SmpPool {
    sched: Mutex<SmpSched>,
    cv: Condvar,
    /// Worker-local runnable queues (work stealing).
    locals: Vec<Mutex<VecDeque<Tid>>>,
    /// Accumulated run outcome (trace merges, ends, memory peaks). Its
    /// own lock, outermost: [`retire`] resolves the end status in the
    /// kernel while merging into it.
    outcome: Mutex<RunOutcome>,
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

    /// Requeues the vfork parent suspended on `child`, if any. Caller
    /// holds the sched lock.
    fn release_vfork_parent(&self, sched: &mut SmpSched, child: Tid) {
        if let Some(parent) = sched.vfork_waiters.remove(&child) {
            if sched.slots.contains_key(&parent) {
                self.enqueue(sched, None, parent);
            }
        }
    }

    /// Runnable work exists or is about to: a queued tid, undrained
    /// wakeups (never sleep or declare deadlock over them), or a sibling
    /// that took wakeups out of the kernel — hint already clear — and
    /// has not queued them yet. With no backlog and nothing in flight
    /// the pool is quiescent. Caller holds the sched lock.
    fn backlog(&self, sched: &SmpSched) -> bool {
        !sched.queued.is_empty()
            || self.woken_hint.load(Ordering::Acquire)
            || self.draining.load(Ordering::SeqCst) > 0
    }

    /// Records a fatal error and stops the pool. Caller holds the sched
    /// lock.
    fn fail(&self, sched: &mut SmpSched, err: RunnerError) {
        sched.error.get_or_insert(err);
        sched.done = true;
        self.cv.notify_all();
    }
}

impl WaliRunner {
    /// Runs every task to completion on `nworkers` host workers.
    pub(crate) fn run_smp(&mut self, nworkers: usize) -> Result<RunOutcome, RunnerError> {
        let slots = std::mem::take(&mut self.tasks);
        let mut sched = SmpSched {
            queued: FastSet::default(),
            global: VecDeque::new(),
            deadlines: std::mem::take(&mut self.deadlines),
            vfork_waiters: std::mem::take(&mut self.vfork_waiters),
            pending_wakes: FastSet::default(),
            in_flight: 0,
            done: slots.is_empty(),
            error: None,
            slots,
        };
        for tid in std::mem::take(&mut self.run_queue) {
            if sched.queued.insert(tid) {
                sched.global.push_back(tid);
            }
        }
        let pool = SmpPool {
            sched: Mutex::new(sched),
            cv: Condvar::new(),
            locals: (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect(),
            outcome: Mutex::new(std::mem::take(&mut self.outcome)),
            kernel: self.kernel.clone(),
            woken_hint: self.woken_hint.clone(),
            draining: AtomicUsize::new(0),
            clock: self.clock.clone(),
            main_tid: self.main_tid,
        };
        {
            // (`&WaliRunner` itself is not `Sync`: parked slots hold
            // `Box<dyn Any + Send>` extension state, which workers never
            // touch concurrently — ownership of a slot is the execution
            // token. The slice environment is the part they share.)
            let env = &SliceEnv {
                programs: &self.programs,
                stats: &self.stats,
                clock: &pool.clock,
            };
            let pool = &pool;
            std::thread::scope(|s| {
                for widx in 0..nworkers {
                    let mut worker = Worker {
                        env,
                        pool,
                        widx,
                        woken: Vec::new(),
                        counts: SysCounts::default(),
                    };
                    s.spawn(move || worker.run());
                }
            });
        }
        let mut sched = pool.sched.into_inner().unwrap_or_else(|p| p.into_inner());
        self.outcome = pool.outcome.into_inner().unwrap_or_else(|p| p.into_inner());
        // Reclaim leftovers (error paths leave unfinished tasks behind).
        self.tasks.extend(std::mem::take(&mut sched.slots));
        if let Some(err) = sched.error.take() {
            return Err(err);
        }
        self.finish_outcome()
    }
}

/// One host worker of the pool.
struct Worker<'a> {
    env: &'a SliceEnv<'a>,
    pool: &'a SmpPool,
    widx: usize,
    /// The batch of woken tids being drained (kept for its capacity).
    woken: Vec<Tid>,
    /// The syscall counter table the task this worker runs counts in.
    counts: SysCounts,
}

impl Worker<'_> {
    /// Runs slices until the run is over, then adds this worker's
    /// syscall counts to the outcome.
    fn run(&mut self) {
        self.run_slices();
        self.pool.outcome.lock_ok().trace.counts.merge(&self.counts);
    }

    /// Drain wakeups, fire lapsed deadlines, run a slice, repeat.
    fn run_slices(&mut self) {
        loop {
            if self.pool.sched.lock_ok().done {
                return;
            }
            if self.pool.woken_hint.load(Ordering::Acquire) {
                self.drain_wakeups();
            }
            wake_lapsed(self.pool);
            match self.take_slot() {
                Some(mut slot) => {
                    let after = run_slice(&mut slot, self.env, &mut self.counts);
                    self.apply(slot, after);
                }
                None => {
                    if self.idle() {
                        return;
                    }
                }
            }
        }
    }

    /// Pops a runnable tid — own queue, then injector, then steal the
    /// back half of a sibling's queue — and takes its slot out of the
    /// pool.
    fn take_slot(&self) -> Option<Box<Slot>> {
        loop {
            let tid = pop_tid(self.pool, self.widx)?;
            let mut sched = self.pool.sched.lock_ok();
            if !sched.queued.remove(&tid) {
                // Stale entry (task finished or was reclaimed); try again.
                continue;
            }
            if let Some(slot) = sched.slots.remove(&tid) {
                sched.in_flight += 1;
                return Some(slot);
            }
        }
    }

    /// Moves kernel-woken tasks onto this worker's local queue; wakeups
    /// for tasks currently running on some worker are recorded in
    /// `pending_wakes` so their next park requeues instead.
    fn drain_wakeups(&mut self) {
        let pool = self.pool;
        // Raised before the drain clears the hint, dropped only after the
        // wakeups are visible on the queues: in between, this counter is
        // the only evidence the pool is not quiescent (see `idle`).
        pool.draining.fetch_add(1, Ordering::SeqCst);
        pool.kernel.lock_ok().drain_woken(&mut self.woken);
        if !self.woken.is_empty() {
            let mut sched = pool.sched.lock_ok();
            for tid in self.woken.drain(..) {
                match sched.slots.get_mut(&tid).map(|slot| slot.park.take()) {
                    Some(Some(deadline)) => {
                        if let Some(d) = deadline {
                            sched.deadlines.cancel(d, tid);
                        }
                        self.env.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                        pool.enqueue(&mut sched, Some(self.widx), tid);
                    }
                    // Already runnable (it will observe the new state
                    // itself), or vfork-suspended (its child's exec/exit
                    // requeues it).
                    Some(None) => {}
                    // Running on a worker right now: remember the wakeup
                    // so the park racing with it requeues instead of
                    // sleeping forever.
                    None => drop(sched.pending_wakes.insert(tid)),
                }
            }
        }
        pool.draining.fetch_sub(1, Ordering::SeqCst);
    }

    /// Nothing runnable on any queue: sleep while siblings still run, or
    /// take the idle step (advance the virtual clock to the earliest
    /// deadline) when the whole pool is quiescent. Returns `true` when
    /// the run is over.
    fn idle(&self) -> bool {
        let pool = self.pool;
        {
            let sched = pool.sched.lock_ok();
            if sched.done {
                return true;
            }
            if pool.backlog(&sched) {
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
        // Quiescent candidate. The kernel lock comes first (lock order)
        // and is held while quiescence is re-verified, so the kernel's
        // wake sources are read in the same instant: read any earlier, a
        // sibling could arm a timer (alarm) and then park, and a stale
        // `None` would turn a perfectly waitable state into a spurious
        // deadlock. Any change since the first look bails back to the
        // worker loop.
        let mut k = pool.kernel.lock_ok();
        let mut sched = pool.sched.lock_ok();
        if sched.done {
            return true;
        }
        if sched.in_flight > 0 || pool.backlog(&sched) {
            return false;
        }
        // Quiescent: every live task is parked (or vfork-suspended).
        let wake_sources = [sched.deadlines.next_deadline(), k.next_timer_deadline()];
        let Some(deadline) = wake_sources.into_iter().flatten().min() else {
            let slots = sched.slots.values().map(|slot| &**slot);
            let report = stuck_report(slots, &sched.vfork_waiters, &k);
            pool.fail(&mut sched, RunnerError::Deadlock(report));
            return true;
        };
        drop(sched);
        k.clock.advance_to(deadline);
        k.fire_timers();
        drop(k);
        self.env.stats.idle_advances.fetch_add(1, Ordering::Relaxed);
        // Lapsed deadlines first; the next round drains the wakeups.
        wake_lapsed(pool);
        false
    }

    /// Hands `slot` back to the pool with the decision of its slice
    /// applied. What is SMP about it: the slot stops being `in_flight`,
    /// a wakeup that raced the slice (`pending_wakes`) turns a park into
    /// a requeue, and work this worker produced goes to its own queue
    /// while a released vfork parent goes to the injector.
    fn apply(&self, mut slot: Box<Slot>, after: After) {
        let (pool, widx, tid) = (self.pool, Some(self.widx), slot.tid);
        let after = match after {
            After::Finished(end) => {
                // Before the pool lock: retiring reads the kernel.
                retire(slot, end, pool.main_tid, &mut pool.outcome.lock_ok());
                let mut sched = pool.sched.lock_ok();
                sched.in_flight -= 1;
                sched.pending_wakes.remove(&tid);
                pool.release_vfork_parent(&mut sched, tid);
                sched.done |= sched.in_flight == 0 && sched.slots.is_empty();
                pool.cv.notify_all();
                return;
            }
            unfinished => unfinished,
        };
        let preempted = matches!(after, After::Preempted);
        let mut sched = pool.sched.lock_ok();
        sched.in_flight -= 1;
        // Only a park cares: a task that stays runnable observes whatever
        // the wakeup announced on its own next attempt.
        let woken = sched.pending_wakes.remove(&tid);
        if woken {
            slot.park = None;
        }
        sched.slots.insert(tid, slot);
        match after {
            After::Parked(deadline) if !woken => {
                if let Some(d) = deadline {
                    sched.deadlines.insert(d, tid);
                }
            }
            After::Parked(_) | After::Runnable | After::Preempted => {
                pool.enqueue(&mut sched, widx, tid)
            }
            After::Spawned {
                child,
                suspend_parent,
            } => {
                pool.enqueue(&mut sched, widx, child.tid);
                if suspend_parent {
                    sched.vfork_waiters.insert(child.tid, tid);
                } else {
                    pool.enqueue(&mut sched, widx, tid);
                }
                sched.slots.insert(child.tid, child);
            }
            After::Execed => {
                pool.enqueue(&mut sched, widx, tid);
                pool.release_vfork_parent(&mut sched, tid);
            }
            After::Fatal(err) => pool.fail(&mut sched, err),
            After::Finished(_) => unreachable!("retired above"),
        }
        drop(sched);
        if preempted {
            // One quantum of virtual CPU. Lapsed deadlines requeue before
            // the next round drains wakeups — the cooperative loop's
            // order, which keeps the two loops one schedule.
            let mut k = pool.kernel.lock_ok();
            k.clock.advance(SLICE_QUANTUM_NS);
            k.fire_timers();
            drop(k);
            wake_lapsed(pool);
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

/// Requeues parked tasks whose deadline lapsed. Takes the kernel lock
/// first (lock order) so the stale waitqueue subscriptions can be
/// cancelled atomically with the unpark — after the cancel, no late post
/// can spuriously wake the task out of a future unrelated park.
fn wake_lapsed(pool: &SmpPool) {
    let now = pool.clock.monotonic_ns();
    let next = pool.sched.lock_ok().deadlines.next_deadline();
    if next.is_none_or(|d| d > now) {
        return;
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
