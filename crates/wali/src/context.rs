//! Per-task WALI execution context.
//!
//! One [`WaliContext`] exists per kernel task (per Wasm instance in the
//! 1-to-1 model). It owns the engine-side state the paper enumerates as
//! WALI's bookkeeping: the virtual sigtable, the mmap pool base, the `brk`
//! watermark, argv/env, the trace, and the seccomp-like policy layer.
//!
//! # What a process-model transition inherits
//!
//! The four transitions of §3.1 each derive their context here, so the
//! rule is written once:
//!
//! | state | `fork`/`vfork` ([`fork_child`]) | `clone` thread ([`thread_sibling`]) | `execve` ([`exec_image`]) |
//! |---|---|---|---|
//! | policy (+ its denial log), ring switch, layer-timing flag | inherited | inherited | inherited |
//! | trace timings and step counts | fresh (merged at exit) | fresh (merged at exit) | kept — same task |
//! | sigtable, mmap pool, `brk` ([`AddressSpace`]) | private copy; the sigtable shared until written | shared | fresh, above the new image's data |
//! | argv / env | shared (immutable) | shared (immutable) | the call's |
//! | kernel handles (fd table, signal hint, mm) | the child task's | the child task's | kept — same task |
//! | handler masks, in-flight ring SQEs, `ext`, retry deadline and kept epoll instance | fresh | fresh | fresh |
//! | voluntary context switches (`getrusage`) | zero | zero | kept — same task |
//!
//! Syscall *counts* belong to whoever runs the task, not to the task
//! (`task::run_slice` lends the table): a child starts with none. Nor
//! does it start with deferred ticks ([`WaliContext::tick_syscall`]):
//! the `fork` or `clone` that made it charged its creator's to the clock.
//!
//! [`fork_child`]: WaliContext::fork_child
//! [`thread_sibling`]: WaliContext::thread_sibling
//! [`exec_image`]: WaliContext::exec_image

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use vkernel::clock::SYSCALL_QUANTUM_NS;
use vkernel::fd::Files;
use vkernel::kernel::epoll::EpollHold;
use vkernel::kernel::{KernelHandles, SignalDelivery};
use vkernel::lockorder::KernelGuard;
use vkernel::{Clock, HintFlag, Kernel, KernelLock, MmId, MutexExt, Pid, TaskHot, Tid};
use wali_abi::signals::SigSet;
use wasm::error::Trap;
use wasm::host::{HostCtx, HostOutcome, PendingCall};
use wasm::interp::Value;

use crate::mmap::MmapPool;
use crate::policy::Policy;
use crate::registry::WaliSuspend;
use crate::sigtable::SigTable;
use crate::trace::Trace;

/// Shared handle to the kernel model.
///
/// The kernel core sits behind one mutex; the independently lockable
/// shards (per-task fd tables, open file descriptions, signal handler
/// tables, the atomic virtual clock and the waitqueue woken hint) hang
/// off it as their own `Arc`s, so the hot paths that touch only a shard
/// never contend on this lock.
pub type KernelRef = Arc<KernelLock<Kernel>>;

/// Wraps a freshly built kernel in the shared, lock-order-tracked
/// handle every context and worker clones.
pub fn new_kernel_ref(kernel: Kernel) -> KernelRef {
    Arc::new(KernelLock::new(kernel))
}

/// The engine-side bookkeeping of one address space, in one allocation:
/// the threads of a process share it, `fork` copies it (the sigtable's
/// entries stay shared until either side registers a handler), `execve`
/// starts a new one.
pub struct AddressSpace {
    /// Virtual signal table.
    pub sigtable: Mutex<SigTable>,
    /// Memory-mapping pool.
    pub mmap: Mutex<MmapPool>,
    /// Current program break (atomic because sibling threads may run on
    /// different workers).
    pub brk: AtomicU32,
    /// Initial program break (floor for shrinking).
    pub brk_start: u32,
}

impl AddressSpace {
    /// The layout of a fresh program image whose static data ends at
    /// `heap_base`: the `brk` heap starts at the first 16-byte boundary
    /// past it and the mmap pool 1 MiB (the brk headroom) above that.
    fn above(heap_base: u32) -> Arc<AddressSpace> {
        let brk_start = (heap_base + 15) & !15;
        Arc::new(AddressSpace {
            sigtable: Mutex::new(SigTable::new()),
            mmap: Mutex::new(MmapPool::new(brk_start + (1 << 20))),
            brk: AtomicU32::new(brk_start),
            brk_start,
        })
    }

    /// What `fork` gives the child: equal state, its own from here on.
    fn forked(&self) -> Arc<AddressSpace> {
        Arc::new(AddressSpace {
            sigtable: Mutex::new(self.sigtable.lock_ok().clone()),
            mmap: Mutex::new(self.mmap.lock_ok().clone()),
            brk: AtomicU32::new(self.brk.load(Ordering::Relaxed)),
            brk_start: self.brk_start,
        })
    }
}

/// The embedder context threaded through every WALI host call.
pub struct WaliContext {
    /// The kernel this task runs against.
    pub kernel: KernelRef,
    /// Kernel task id.
    pub tid: Tid,
    /// Its process id (fixed when the task was made).
    pub(crate) tgid: Pid,
    /// Address-space identity (for futex keys).
    pub mm: MmId,
    /// Sigtable, mmap pool and `brk` (shared between threads of a
    /// process).
    pub space: Arc<AddressSpace>,
    /// Command-line arguments (§3.4: owned by the engine, copied into the
    /// sandbox on request).
    pub args: Arc<[String]>,
    /// Environment variables as `KEY=VALUE` strings.
    pub env: Arc<[String]>,
    /// Syscall trace.
    pub trace: Trace,
    /// Optional syscall policy layered over the interface (§3.6).
    pub policy: Option<Policy>,
    /// Deadline handed back by the runner when retrying a blocked call.
    pub retry_deadline: Option<u64>,
    /// The epoll instance a blocked `epoll_wait`/`epoll_pwait` resolved,
    /// kept with the descriptor number it was resolved from: the retry
    /// of that call — the task's next host call — pops by it where it
    /// is and looks nothing up. Returned to the kernel when the call ends, or
    /// when the task does first ([`crate::task::retire`]).
    pub(crate) epoll_hold: Option<(i32, EpollHold)>,
    /// Voluntary context switches: times this task parked (`getrusage`).
    pub(crate) nvcsw: u64,
    /// The call that just blocked was a syscall: the wrapper around
    /// every one ([`crate::registry::wrapped`]) says so, the park that
    /// follows takes the answer. A kernel call that blocks without a
    /// deadline has subscribed its task to what will wake it — the
    /// blocking protocol of `vkernel` — so the park need not ask the
    /// waitqueue; a blocked host function of another layer that made no
    /// syscall is outside that protocol and is polled.
    pub(crate) subscribed: bool,
    /// Cloneable handles to the kernel's independently lockable shards
    /// (the waitqueue, the VFS, the clock). Descriptor I/O
    /// ([`crate::fastpath`]) goes through these without ever touching
    /// the kernel lock.
    pub(crate) handles: KernelHandles,
    /// This task's fd table, as the kernel had it when the task was made
    /// (a task never changes tables; one that exited finds its own
    /// emptied). Descriptor calls resolve through it, never behind the
    /// kernel lock.
    pub(crate) fdtable: Files,
    /// Virtual time this task's syscalls have ticked and the shared
    /// clock has not been charged yet ([`WaliContext::tick_syscall`]).
    ticks: Cell<u64>,
    /// Whether batched syscall rings are enabled for this task
    /// (`WALI_NO_RING=1` makes `wali_ring_enter` return `-ENOSYS` so
    /// guests fall back to the synchronous per-op ABI).
    pub(crate) ring: bool,
    /// SQEs consumed from a ring but still blocked in flight: the
    /// parked `wali_ring_enter` re-attempts these on every retry and
    /// posts their CQEs from the wakeup path. Never inherited — a fork
    /// or exec starts with no in-flight ring operations.
    pub(crate) ring_pending: Vec<wali_abi::ring::WaliSqe>,
    /// Fast-path signal hint shared with the kernel task, and the
    /// task's blocked mask beside it.
    pub(crate) sig_hint: HintFlag,
    /// Masks to restore when nested signal handlers return (§3.3).
    handler_masks: Vec<SigSet>,
    /// Why the host call that just answered [`HostOutcome::Suspend`]
    /// did: the runner's to take ([`WaliContext::take_suspend`]).
    suspended: Option<WaliSuspend>,
    /// Exit status once the task is terminated.
    pub exited: Option<i32>,
    /// Opaque state slot for APIs layered over WALI (e.g. the WASI
    /// capability tables). Not inherited across fork/exec. `Send` so the
    /// owning task can migrate between workers at safepoints.
    pub ext: Option<Box<dyn std::any::Any + Send>>,
}

impl WaliContext {
    /// Creates the context for an existing kernel task.
    ///
    /// `heap_base` is the first address past the module's static data; the
    /// `brk` heap starts there and the mmap pool above it. `ring` says
    /// whether `wali_ring_enter` is served (a runner passes its own
    /// setting, anyone else [`crate::runner::ring_default`]).
    pub fn new(kernel: KernelRef, tid: Tid, heap_base: u32, ring: bool) -> WaliContext {
        let (task, handles) = {
            let k = kernel.lock_ok();
            (k.task(tid).expect("task exists").hot(), k.handles())
        };
        WaliContext {
            kernel,
            tid,
            tgid: task.tgid,
            mm: task.mm,
            space: AddressSpace::above(heap_base),
            args: Arc::new([]),
            env: Arc::new([]),
            trace: Trace::default(),
            policy: None,
            retry_deadline: None,
            epoll_hold: None,
            nvcsw: 0,
            subscribed: false,
            handles,
            fdtable: task.fdtable,
            ticks: Cell::new(0),
            ring,
            ring_pending: Vec::new(),
            sig_hint: task.sig_hint,
            handler_masks: Vec::new(),
            suspended: None,
            exited: None,
            ext: None,
        }
    }

    /// Derives a sibling context for a `CLONE_THREAD` child: shares the
    /// sigtable, mmap pool and brk (one address space). `task` is what
    /// the `clone` that made the kernel task read of it.
    pub fn thread_sibling(&self, task: TaskHot) -> WaliContext {
        self.child(task, self.space.clone())
    }

    /// Derives a child context for `fork`: private copies of the sigtable,
    /// pool and brk (fresh address space with identical content).
    pub fn fork_child(&self, task: TaskHot) -> WaliContext {
        self.child(task, self.space.forked())
    }

    /// What every new task takes from the one that created it (see the
    /// module docs); only the address-space state depends on the kind.
    fn child(&self, task: TaskHot, space: Arc<AddressSpace>) -> WaliContext {
        WaliContext {
            kernel: self.kernel.clone(),
            tid: task.tid,
            tgid: task.tgid,
            mm: task.mm,
            space,
            args: self.args.clone(),
            env: self.env.clone(),
            trace: self.trace.child(),
            policy: self.policy.clone(),
            retry_deadline: None,
            epoll_hold: None,
            nvcsw: 0,
            subscribed: false,
            handles: self.handles.clone(),
            fdtable: task.fdtable,
            ticks: Cell::new(0),
            ring: self.ring,
            ring_pending: Vec::new(),
            sig_hint: task.sig_hint,
            handler_masks: Vec::new(),
            suspended: None,
            exited: None,
            ext: None,
        }
    }

    /// Turns this context into the one `execve` leaves behind: the same
    /// task (kernel identity, signal hint, trace, policy, ring switch)
    /// in a fresh program image — new sigtable, mmap pool and brk laid
    /// out above `heap_base`, the new argv/env, and none of the old
    /// image's in-flight state.
    pub fn exec_image(
        &mut self,
        heap_base: u32,
        path: String,
        argv: Vec<String>,
        envp: Vec<String>,
    ) {
        self.space = AddressSpace::above(heap_base);
        self.args = if argv.is_empty() { vec![path] } else { argv }.into();
        self.env = envp.into();
        self.retry_deadline = None;
        debug_assert!(
            self.epoll_hold.is_none(),
            "execve is not the retry of a blocked call"
        );
        self.ring_pending.clear();
        self.handler_masks.clear();
        self.ext = None;
    }

    /// Runs `f` against the kernel; a run that records layer timing
    /// attributes the elapsed time to the kernel layer (Fig. 7).
    pub fn with_kernel<R>(&mut self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        let t0 = self.trace.clock();
        let r = f(&mut self.lock_kernel());
        if let Some(t0) = t0 {
            self.trace.kernel_time += t0.elapsed();
        }
        r
    }

    /// The kernel lock, taken for this task: whatever the holder reads
    /// of virtual time includes every tick of this task's syscalls so
    /// far. The one way a context enters the kernel core.
    pub(crate) fn lock_kernel(&self) -> KernelGuard<'_, Kernel> {
        self.flush_ticks();
        self.kernel.lock_ok()
    }

    /// Charges this task's ticks to the shared clock: at the end of every
    /// slice, before the scheduler reads the time.
    pub(crate) fn flush_ticks(&self) {
        charge(&self.handles.clock, &self.ticks);
    }

    /// The fd table, the instance a blocked `epoll_wait` keeps
    /// ([`WaliContext::epoll_hold`]) and, borrowed beside them, what the
    /// shard half of a descriptor call uses of this context.
    pub(crate) fn shards(&mut self) -> (&Files, Option<&EpollHold>, Shards<'_>) {
        let shards = Shards {
            tid: self.tid,
            handles: &self.handles,
            trace: &mut self.trace,
            sig_hint: &self.sig_hint,
            ticks: &self.ticks,
        };
        let hold = self.epoll_hold.as_ref().map(|(_, hold)| hold);
        (&self.fdtable, hold, shards)
    }

    /// Records why the calling host function suspends the task, and
    /// hands back the outcome it answers with.
    pub fn suspend(&mut self, why: WaliSuspend) -> HostOutcome {
        self.suspended = Some(why);
        HostOutcome::Suspend
    }

    /// What the task suspended for, once: after a run that ended
    /// [`wasm::interp::RunResult::Suspended`].
    pub fn take_suspend(&mut self) -> Option<WaliSuspend> {
        self.suspended.take()
    }

    /// Fast-path read of the kernel's signal/termination hint for this
    /// task: the scheduler gates its killed-by-a-sibling check on it
    /// (every external termination path raises the hint before the state
    /// change becomes observable).
    #[inline]
    pub(crate) fn hint_raised(&self) -> bool {
        self.sig_hint.get()
    }

    /// Per-syscall-entry bookkeeping: one quantum of virtual time, added
    /// here with a plain add. The shared clock is charged — one atomic
    /// add for however many ticks — before anything can read the time
    /// this task's calls made: whenever the task takes the kernel lock
    /// (`WaliContext::lock_kernel`), before a shard call that stamps a
    /// file (`Shards::flush_ticks`), and at the end of its slice.
    #[inline]
    pub fn tick_syscall(&mut self) {
        self.ticks.set(self.ticks.get() + SYSCALL_QUANTUM_NS);
    }
}

/// Charges `ticks` to `clock`.
#[inline]
fn charge(clock: &Clock, ticks: &Cell<u64>) {
    if ticks.get() != 0 {
        clock.advance(ticks.take());
    }
}

/// What the shard half of a descriptor call ([`crate::fastpath`]) uses
/// of its context, borrowed beside the fd table
/// ([`WaliContext::shards`]): a call can run on a description the table
/// lends it for as long as it holds the table's lock.
pub(crate) struct Shards<'a> {
    pub(crate) tid: Tid,
    pub(crate) handles: &'a KernelHandles,
    pub(crate) trace: &'a mut Trace,
    sig_hint: &'a HintFlag,
    ticks: &'a Cell<u64>,
}

impl<'a> Shards<'a> {
    /// Runs `f` against the kernel's shards, charged to the kernel layer
    /// like [`WaliContext::with_kernel`] (it is the same kernel-model
    /// work).
    pub(crate) fn run<R>(&mut self, f: impl FnOnce(&KernelHandles, Tid) -> R) -> R {
        let t0 = self.trace.clock();
        let r = f(self.handles, self.tid);
        if let Some(t0) = t0 {
            self.trace.kernel_time += t0.elapsed();
        }
        r
    }

    /// [`WaliContext::hint_raised`].
    #[inline]
    pub(crate) fn hint_raised(&self) -> bool {
        self.sig_hint.get()
    }

    /// The task's block: its signal hint and the sleep word a park on
    /// the shards arms.
    pub(crate) fn task(&self) -> &'a HintFlag {
        self.sig_hint
    }

    /// Charges the task's ticks before a shard call reads the clock.
    pub(crate) fn flush_ticks(&self) {
        charge(&self.handles.clock, self.ticks);
    }
}

impl WaliContext {
    /// [`HostCtx::poll_signal`] with the hint up: the next deliverable
    /// signal, as a handler call or as this task's death.
    #[cold]
    fn deliver_signal(&mut self) -> Option<PendingCall> {
        let delivery = {
            let mut k = self.lock_kernel();
            let d = k.next_signal(self.tid);
            if d.is_none() {
                // Drained (or the hint was for an already-consumed
                // process-wide signal another thread took).
                if !k.has_pending_signal(self.tid) {
                    self.sig_hint.set(false);
                }
            }
            d
        }?;
        match delivery {
            SignalDelivery::Handler {
                signo, old_mask, ..
            } => {
                let entry = self.space.sigtable.lock_ok().get(signo)?;
                self.handler_masks.push(old_mask);
                Some(PendingCall {
                    func: entry.func_index,
                    arg: Some(Value::I32(signo)),
                })
            }
            SignalDelivery::Killed { signo } => {
                self.exited = Some(128 + signo);
                None
            }
        }
    }

    /// [`HostCtx::check_abort`] with the hint up: another task may have
    /// terminated our process.
    #[cold]
    fn check_killed(&mut self) -> Option<Trap> {
        let k = self.lock_kernel();
        // Gone altogether counts: a parent that does not wait reaps at
        // once, and one that does may have by now.
        if k.task(self.tid).map_or(true, |task| task.exited()) {
            drop(k);
            self.exited = Some(0);
            return Some(Trap::Aborted);
        }
        None
    }
}

impl HostCtx for WaliContext {
    // Both hooks answer "nothing" from the hint alone; that part inlines
    // into the interpreter's port, the rest stays out of line.
    #[inline]
    fn poll_signal(&mut self) -> Option<PendingCall> {
        if !self.sig_hint.get() {
            return None;
        }
        self.deliver_signal()
    }

    #[inline]
    fn check_abort(&mut self) -> Option<Trap> {
        if self.exited.is_some() {
            return Some(Trap::Aborted);
        }
        if self.sig_hint.get() {
            return self.check_killed();
        }
        None
    }

    fn signal_return(&mut self) {
        if let Some(mask) = self.handler_masks.pop() {
            self.lock_kernel().signal_return(self.tid, mask);
        }
    }

    /// The task's signal hint gates the register tier's safepoints. With
    /// it down, `poll_signal` returns at its first line and `check_abort`
    /// looks at `exited` alone — which is only ever set inside a host call
    /// that suspends the task for good (`exit`, `exit_group`, `proc_exit`)
    /// or by a poll that found the hint up, and that poll leaves it up.
    fn sig_hint(&self) -> &AtomicBool {
        self.sig_hint.as_atomic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> WaliContext {
        let kernel = new_kernel_ref(Kernel::new());
        let tid = kernel.lock_ok().spawn_process();
        WaliContext::new(kernel, tid, 4096, true)
    }

    #[test]
    fn layout_of_heap_and_pool() {
        let c = ctx();
        let brk = c.space.brk.load(Ordering::Relaxed);
        assert_eq!(brk, 4096);
        assert!(c.space.mmap.lock_ok().base() >= brk + (1 << 20));
    }

    #[test]
    fn poll_without_signals_is_cheap_none() {
        let mut c = ctx();
        assert_eq!(c.poll_signal(), None);
        assert!(c.check_abort().is_none());
    }

    #[test]
    fn fatal_signal_aborts_via_hint() {
        let mut c = ctx();
        let tid = c.tid;
        c.kernel.lock_ok().sys_kill(tid, tid, 15).unwrap();
        assert_eq!(
            c.poll_signal(),
            None,
            "default SIGTERM kills, no handler call"
        );
        assert_eq!(c.check_abort(), Some(Trap::Aborted));
        assert_eq!(c.exited, Some(128 + 15));
    }

    #[test]
    fn handler_delivery_and_mask_restore() {
        use crate::sigtable::SigEntry;
        use wali_abi::layout::WaliSigaction;
        let mut c = ctx();
        let tid = c.tid;
        c.space.sigtable.lock_ok().set(
            10,
            Some(SigEntry {
                table_index: 2,
                func_index: 42,
            }),
        );
        c.kernel
            .lock_ok()
            .sys_rt_sigaction(
                tid,
                10,
                Some(WaliSigaction {
                    handler: 2,
                    flags: 0,
                    mask: 0,
                }),
            )
            .unwrap();
        c.kernel.lock_ok().sys_kill(tid, tid, 10).unwrap();
        let call = c.poll_signal().expect("handler call");
        assert_eq!(call.func, 42);
        assert_eq!(call.arg, Some(Value::I32(10)));
        // During the handler the signal is masked; same signal stays
        // pending rather than delivering.
        c.kernel.lock_ok().sys_kill(tid, tid, 10).unwrap();
        assert_eq!(c.poll_signal(), None);
        // Handler returns: mask restored, second delivery happens.
        c.signal_return();
        assert!(c.poll_signal().is_some());
    }

    #[test]
    fn fork_child_gets_private_state() {
        let c = ctx();
        let child = {
            let mut k = c.kernel.lock_ok();
            let child = k.sys_fork(c.tid).unwrap() as Tid;
            k.task(child).unwrap().hot()
        };
        let child = c.fork_child(child);
        child.space.brk.store(999, Ordering::Relaxed);
        assert_ne!(
            c.space.brk.load(Ordering::Relaxed),
            999,
            "brk not shared across fork"
        );
        assert_ne!(c.mm, child.mm);
        assert_eq!(child.trace.counts, c.trace.counts, "and no counter table");
    }

    #[test]
    fn exec_image_keeps_the_task_and_resets_the_image() {
        use crate::policy::{DenyAction, Policy, Verdict};
        let mut c = ctx();
        let mut policy = Policy::deny_list(["socket"], DenyAction::Kill);
        assert_ne!(policy.check(wali_abi::spec::Sysno::socket), Verdict::Allow);
        c.policy = Some(policy);
        c.ring = false;
        c.trace.timing = true;
        c.trace.wasm_steps = 7;
        c.space.brk.store(1 << 16, Ordering::Relaxed);
        c.ext = Some(Box::new(1u8));
        c.exec_image(8000, "/bin/b".into(), Vec::new(), vec!["K=V".into()]);
        // Inherited: what the runner was told about this task.
        let policy = c.policy.as_ref().expect("the policy survives");
        assert_eq!(policy.denied_log, ["socket"]);
        assert!(!c.ring && c.trace.timing);
        assert_eq!(c.trace.wasm_steps, 7, "same task, same trace");
        // Fresh: everything that described the old image.
        let space = &c.space;
        assert_eq!(
            (space.brk.load(Ordering::Relaxed), space.brk_start),
            (8000, 8000)
        );
        assert!(space.mmap.lock_ok().base() >= 8000 + (1 << 20));
        assert_eq!(*c.args, ["/bin/b"]);
        assert_eq!(*c.env, ["K=V"]);
        assert!(c.ext.is_none());
    }

    #[test]
    fn thread_sibling_shares_address_space_state() {
        let c = ctx();
        let t2 = {
            let mut k = c.kernel.lock_ok();
            let t2 = k.sys_clone(c.tid, wali_abi::flags::CLONE_PTHREAD).unwrap() as Tid;
            k.task(t2).unwrap().hot()
        };
        let sib = c.thread_sibling(t2);
        sib.space.brk.store(777, Ordering::Relaxed);
        assert_eq!(
            c.space.brk.load(Ordering::Relaxed),
            777,
            "brk shared between threads"
        );
        assert_eq!(c.mm, sib.mm);
    }
}
