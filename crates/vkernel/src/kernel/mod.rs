//! The kernel object: tasks, processes, signals, timers and scheduling
//! hooks. File, socket and memory syscalls live in the sibling submodules
//! as further `impl Kernel` blocks.

pub mod epoll;
pub mod fs;
pub mod io;
pub mod sock;

use std::collections::VecDeque;
use std::sync::Arc;

use wali_abi::flags::{
    w_exitcode, w_termsig, CLONE_FILES, CLONE_FS, CLONE_SIGHAND, CLONE_THREAD, CLONE_VM, O_RDWR,
    WNOHANG,
};
use wali_abi::layout::{WaliSigaction, WaliUtsname};
use wali_abi::signals::{
    SigSet, Signal, SA_NOCLDWAIT, SIG_BLOCK, SIG_IGN, SIG_SETMASK, SIG_UNBLOCK,
};
use wali_abi::Errno;

use crate::clock::Clock;
use crate::fd::{FdTable, FileKind, OpenFile};
use crate::lockorder::LockClass;
use crate::pipe::Pipe;
use crate::signal::{disposition, Disposition, PendingSet, SigHandlers};
use crate::slab::{Handle, ObjSlab, Paged};
use crate::socket::{AddrKey, Socket};
use crate::sync::{shared, FastMap, HintFlag, MutexExt, Shared};
use crate::task::{Pid, Rusage, Shares, Task, TaskState, Tid};
use crate::vfs::{Vfs, VfsShard};
use crate::wait::{Channel, WaitShard, WaitStats};
use crate::{block, block_until, MmId, SysResult};

/// What the embedder must do about a deliverable signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalDelivery {
    /// Run the registered handler (Wasm function index in the action),
    /// with the given signal number; the mask to restore afterwards is
    /// included.
    Handler {
        /// Signal number.
        signo: i32,
        /// The registered action.
        action: WaliSigaction,
        /// Mask to restore when the handler returns.
        old_mask: SigSet,
    },
    /// The whole process was killed by this signal; stop executing it.
    Killed {
        /// Signal number.
        signo: i32,
    },
}

/// The wait channels behind one open file description, held inline:
/// there are at most three (a connected socket polled for output — its
/// own two and its peer's space), so the readiness walks `poll` and
/// every `epoll_wait` candidate make allocate nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ChanSet([Option<Channel>; 3]);

impl ChanSet {
    fn push(&mut self, ch: Channel) {
        let free = self.0.iter_mut().find(|slot| slot.is_none());
        *free.expect("a description has at most three wait channels") = Some(ch);
    }

    /// The channels, in the order they were found.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Channel> + '_ {
        self.0.iter().flatten().copied()
    }

    pub(crate) fn contains(&self, ch: Channel) -> bool {
        self.iter().any(|c| c == ch)
    }
}

/// Where the task table keeps `tid` (a negative one lands past every
/// page, like any tid that never existed).
fn at(tid: Tid) -> usize {
    tid as usize
}

/// The deterministic Linux model.
pub struct Kernel {
    /// The filesystem, behind its reader/writer shard.
    pub vfs: VfsShard,
    /// Virtual time.
    pub clock: Clock,
    /// Every task, by tid: tids are dense and only grow.
    tasks: Paged<Task>,
    /// The fd table of a task that has exited: nothing open, nothing
    /// can be ([`Kernel::release_task_files`]).
    closed_files: Shared<FdTable>,
    next_tid: Tid,
    next_mm: u64,
    /// The slabs that give pipes, sockets and epoll instances their ids
    /// (which name wait channels and order first-free reuse): touched by
    /// insert, free and audits only — calls reach an object through the
    /// [`Handle`](crate::slab::Handle) its description holds.
    pub(crate) pipes: ObjSlab<Pipe>,
    pub(crate) socks: ObjSlab<Socket>,
    pub(crate) epolls: ObjSlab<epoll::Epoll>,
    /// Bound addresses, by the socket that owns each.
    pub(crate) addr_registry: FastMap<AddrKey, Handle<Socket>>,
    futexes: FastMap<(MmId, u32), VecDeque<Tid>>,
    /// Waitqueues: blocked tasks parked on wait channels, behind their
    /// own shard lock (innermost in the ordering DAG).
    pub(crate) waits: WaitShard,
    rng_state: u64,
    /// Captured console (tty) output.
    pub console: Vec<u8>,
    /// The handles [`Kernel::handles`] gives out, onto the shards `vfs`,
    /// `clock` and `waits` above. Descriptor I/O ([`io`]) runs against
    /// these whether or not its caller holds the kernel lock.
    pub(crate) shards: KernelHandles,
}

/// Cloneable handles onto the kernel's shards: everything descriptor
/// I/O touches besides the description and the pipe or socket it holds
/// ([`io`]), so an embedder runs those calls without the big kernel
/// lock. Fetched once per context ([`Kernel::handles`]) while the kernel
/// lock is already held.
#[derive(Clone, Debug)]
pub struct KernelHandles {
    /// The waitqueue shard.
    pub waits: WaitShard,
    /// The filesystem shard.
    pub vfs: VfsShard,
    /// Virtual time (file timestamps; the per-syscall tick).
    pub clock: Clock,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Boots a kernel with the standard filesystem layout and an init
    /// task (pid 1).
    pub fn new() -> Kernel {
        let vfs = Vfs::with_std_layout();
        let mut tasks = Paged::default();
        tasks.insert(1, Task::init(vfs.root));
        let mut closed = FdTable::new();
        closed.limit = 0;
        let shards = KernelHandles {
            waits: WaitShard::new(),
            vfs: VfsShard::new(vfs),
            clock: Clock::new(),
        };
        Kernel {
            vfs: shards.vfs.clone(),
            clock: shards.clock.clone(),
            tasks,
            closed_files: shared(closed),
            next_tid: 2,
            next_mm: 2,
            pipes: ObjSlab::new(LockClass::Object),
            socks: ObjSlab::new(LockClass::Object),
            epolls: ObjSlab::new(LockClass::Epoll),
            addr_registry: FastMap::default(),
            futexes: FastMap::default(),
            waits: shards.waits.clone(),
            rng_state: 0x9e37_79b9_7f4a_7c15,
            console: Vec::new(),
            shards,
        }
    }

    /// Cloneable handles onto the kernel's shards (for the embedder's
    /// lock-free descriptor I/O). Cheap: a handful of `Arc` clones.
    pub fn handles(&self) -> KernelHandles {
        self.shards.clone()
    }

    /// Per-syscall bookkeeping: one quantum of virtual time. The clock
    /// is a lock-free shard; an embedder on the hot path ticks its own
    /// handle ([`KernelHandles::clock`]) without the kernel lock.
    pub fn enter_syscall(&self) {
        self.clock.tick();
    }

    // --- Waitqueues --------------------------------------------------------

    /// Subscribes `tid` to a wait channel (embedder-visible for layered
    /// APIs that block on kernel state, e.g. `poll`/`epoll_wait`).
    pub fn wait_subscribe(&mut self, tid: Tid, ch: Channel) {
        self.waits.lock().subscribe(tid, ch);
    }

    /// Posts a wakeup on a channel (mostly internal; public so layered
    /// subsystems can participate in the protocol).
    pub fn wait_post(&mut self, ch: Channel) -> usize {
        self.waits.post(ch)
    }

    /// Drains the tasks woken since the last drain, in wake order, onto
    /// the end of `out` — the scheduler's own buffer, so a drain
    /// allocates nothing once both lists have grown to the batch size.
    pub fn drain_woken(&mut self, out: &mut Vec<Tid>) {
        self.waits.lock().drain_woken(out);
    }

    /// Drains the channels whose posts woke `tid` since its last drain
    /// (empty for direct wakes — callers treat that as "re-check
    /// everything"). Batched-syscall retries use this to complete the
    /// operations whose wakeup actually arrived first, so ring CQE
    /// order follows the wakeup path rather than submission order.
    pub fn take_fired(&mut self, tid: Tid) -> Vec<Channel> {
        self.waits.lock().take_fired(tid)
    }

    /// Arms fired-channel recording for `tid` until its next
    /// [`Kernel::take_fired`] drain. Only armed tasks pay the per-wake
    /// fired-log bookkeeping, so `wali_ring_enter` calls this each time
    /// it parks and everyone else's wakes stay record-free.
    pub fn track_fired(&mut self, tid: Tid) {
        self.waits.lock().track_fired(tid);
    }

    /// Drops every wait subscription of `tid` without waking it. The
    /// embedder calls this when it re-queues a task for a reason the
    /// kernel cannot see (deadline lapse), so no stale channel entry can
    /// fire a spurious wakeup into a later, unrelated park — and when it
    /// finalizes a task, which may by then have been reaped by its
    /// parent on another worker: whatever wait state the task re-grew
    /// after the reap goes here.
    pub fn wait_cancel(&mut self, tid: Tid) {
        let mut waits = self.waits.lock();
        match self.tasks.get(at(tid)).is_some() {
            true => waits.unsubscribe(tid),
            false => waits.release_task(tid),
        }
    }

    /// True when `tid` parked on at least one wait channel.
    pub fn task_waits(&self, tid: Tid) -> bool {
        self.waits.lock().is_subscribed(tid)
    }

    /// Waitqueue counters (benchmarks and tests).
    pub fn wait_stats(&self) -> WaitStats {
        self.waits.lock().stats
    }

    /// Lock-free handle onto the waitqueue's woken hint: the schedulers
    /// poll it between slices without taking the kernel lock and call
    /// [`Kernel::drain_woken`] (under the lock) only when it reads true.
    pub fn woken_hint(&self) -> std::sync::Arc<std::sync::atomic::AtomicBool> {
        self.waits.lock().woken_hint()
    }

    /// Subscribes `tid` to the readiness channels of each `(fd, events)`
    /// pair — the blocking half of `poll`/`select`. Unknown or
    /// always-ready fd kinds contribute no channel (the caller's
    /// readiness scan already returned their state). A signal wakes the
    /// poller too, like the EINTR path on Linux.
    pub fn wait_on_fds(&mut self, tid: Tid, fds: &[(i32, i16)]) {
        for &(fd, events) in fds {
            // The walk takes object locks: finish it before the
            // (innermost) waitqueue lock.
            let file = self.task(tid).and_then(|t| t.fdtable.lock_ok().file(fd));
            let probed = file
                .map_err(Into::into)
                .and_then(|f| self.probe(tid, &f, events));
            let chans = probed.map_or_else(|_| ChanSet::default(), |(chans, _)| chans);
            let mut waits = self.waits.lock();
            chans.iter().for_each(|ch| waits.subscribe(tid, ch));
        }
        self.waits.lock().subscribe(tid, Channel::Signal(tid));
    }

    /// Closes a dying task's descriptors eagerly (Linux closes fds at
    /// exit, not at reap): the task leaves its fd table and, when it was
    /// the last member ([`FdTable::leave`] — a count of tasks, so the
    /// handle an embedder's context keeps does not matter), every
    /// description is released so pipe/socket peers observe EOF/EPIPE —
    /// and get their wakeups. From here on the task has the kernel's
    /// one closed table: whatever still runs in its name finds `-EBADF`.
    fn release_task_files(&mut self, tid: Tid) {
        let Some(task) = self.tasks.get_mut(at(tid)) else {
            return;
        };
        let table = std::mem::replace(&mut task.fdtable, self.closed_files.clone());
        let entries = table.lock_ok().leave();
        for entry in entries {
            self.release_if_last(entry.file);
        }
    }

    /// Fetches a task.
    pub fn task(&self, tid: Tid) -> Result<&Task, Errno> {
        self.tasks.get(at(tid)).ok_or(Errno::Esrch)
    }

    /// Fetches a task mutably.
    pub fn task_mut(&mut self, tid: Tid) -> Result<&mut Task, Errno> {
        self.tasks.get_mut(at(tid)).ok_or(Errno::Esrch)
    }

    /// All live tids (diagnostics, schedulers).
    pub fn tids(&self) -> Vec<Tid> {
        self.tasks.values().map(|t| t.tid).collect()
    }

    /// Spawns a fresh process with stdio wired to the console tty: a
    /// child forked off init that leads its own process group. This is
    /// how the WALI runner creates an application's initial process.
    pub fn spawn_process(&mut self) -> Tid {
        let tid = self.sys_fork(1).expect("init never exits") as Tid;
        let tty = self
            .vfs
            .resolve(self.vfs.root, "/dev/tty", true)
            .ok()
            .and_then(|r| r.inode)
            .expect("std layout has /dev/tty");
        let task = self.task_mut(tid).expect("just made");
        task.pgid = tid;
        let mut fdtable = task.fdtable.lock_ok();
        for _ in 0..3 {
            let file = OpenFile::shared(FileKind::CharDev(tty), O_RDWR);
            fdtable.alloc(file, false).expect("empty table");
        }
        tid
    }

    // --- Process lifecycle -------------------------------------------------

    /// `fork`: new process duplicating the caller (fd table copied with
    /// shared descriptions, fresh address space id) — `clone` sharing
    /// nothing.
    pub fn sys_fork(&mut self, tid: Tid) -> SysResult {
        self.sys_clone(tid, 0)
    }

    /// `clone`: thread or process creation per the flag set (§3.1). The
    /// embedder decides what to do with the engine-side state; the kernel
    /// only manages task identity and sharing. The parent is read in
    /// place: what the child does not share it gets by value, or — the
    /// handler table — shared until written.
    pub fn sys_clone(&mut self, tid: Tid, flags: u64) -> SysResult {
        let is_thread = flags & CLONE_THREAD != 0;
        if is_thread && flags & (CLONE_VM | CLONE_SIGHAND) != (CLONE_VM | CLONE_SIGHAND) {
            // Linux requires CLONE_THREAD ⊆ CLONE_SIGHAND ⊆ CLONE_VM.
            return Err(Errno::Einval.into());
        }
        let parent = self.tasks.get(at(tid)).ok_or(Errno::Esrch)?;
        let child_tid = self.next_tid;
        self.next_tid += 1;

        let mm = if flags & CLONE_VM != 0 {
            parent.mm
        } else {
            let mm = MmId(self.next_mm);
            self.next_mm += 1;
            mm
        };
        let fdtable = if flags & CLONE_FILES != 0 {
            parent.fdtable.lock_ok().join();
            parent.fdtable.clone()
        } else {
            shared(parent.fdtable.lock_ok().fork_copy())
        };
        // The child's own block starts each cell the child will use as
        // the parent's is now; a cell it shares instead stays unused.
        let handlers = match flags & CLONE_SIGHAND {
            0 => parent.handlers().clone(),
            _ => SigHandlers::new(),
        };
        let own = Shares::new(parent.fs().clone(), handlers);
        let theirs = |shared: u64, whose: &Arc<Shares>| match flags & shared {
            0 => own.clone(),
            _ => whose.clone(),
        };
        let (tgid, ppid) = match is_thread {
            true => (parent.tgid, parent.ppid),
            false => (child_tid, parent.tgid),
        };

        let child = Task {
            tid: child_tid,
            tgid,
            ppid,
            pgid: parent.pgid,
            sid: parent.sid,
            state: TaskState::Running,
            fdtable,
            fs: theirs(CLONE_FS, &parent.fs),
            sighand: theirs(CLONE_SIGHAND, &parent.sighand),
            group: theirs(CLONE_THREAD, &parent.group),
            pending: PendingSet::default(),
            sigmask: parent.sigmask,
            saved_sigmask: None,
            mm,
            uid: parent.uid,
            euid: parent.euid,
            gid: parent.gid,
            egid: parent.egid,
            children: Vec::new(),
            threads: Vec::new(),
            clear_child_tid: 0,
            rusage: Rusage::default(),
            alarm_deadline: None,
            futex_woken: false,
            exit_code: None,
            sig_hint: HintFlag::of(own),
        };
        self.tasks.insert(at(child_tid), child);
        match is_thread {
            true => self.task_mut(tgid)?.threads.push(child_tid),
            false => self.task_mut(tid)?.children.push(child_tid),
        }
        Ok(child_tid as i64)
    }

    /// `exit_group`: terminates every task in the caller's thread group.
    pub fn sys_exit_group(&mut self, tid: Tid, code: i32) -> SysResult {
        let tgid = self.task(tid)?.tgid;
        self.terminate_group(tgid, w_exitcode(code), Some(code));
        Ok(0)
    }

    /// `exit`: terminates one thread (whole group if it is the last).
    pub fn sys_exit_thread(&mut self, tid: Tid, code: i32) -> SysResult {
        let tgid = self.task(tid)?.tgid;
        let mut alive = 0;
        self.each_member(tgid, |_, _| alive += 1);
        // Futex-wake the clear_child_tid word (pthread_join protocol).
        let (ctid, mm) = {
            let t = self.task(tid)?;
            (t.clear_child_tid, t.mm)
        };
        if ctid != 0 {
            self.futex_wake_at(mm, ctid, usize::MAX);
        }
        if alive == 1 {
            self.terminate_group(tgid, w_exitcode(code), Some(code));
        } else {
            let t = self.task_mut(tid)?;
            t.state = TaskState::Dead;
            t.exit_code = Some(code);
            // Drop the thread's fd-table reference (shared tables survive
            // until the last thread exits) and its wait subscriptions.
            self.release_task_files(tid);
            self.waits.lock().unsubscribe(tid);
        }
        Ok(0)
    }

    /// The `i`th task of thread group `tgid` still in the table, `Dead`
    /// or not, in tid order: the leader, then the threads it lists.
    fn member(&self, tgid: Pid, i: usize) -> Option<Tid> {
        let leader = self.tasks.get(at(tgid))?;
        match i {
            0 => Some(tgid),
            _ => leader.threads.get(i - 1).copied(),
        }
    }

    /// Calls `f` for each task of thread group `tgid` that is not
    /// `Dead`, in tid order. The group is read one [`Kernel::member`]
    /// per step, so `f` may do to the kernel what it likes short of
    /// reaping the group.
    fn each_member(&mut self, tgid: Pid, mut f: impl FnMut(&mut Kernel, Tid)) {
        let mut i = 0;
        while let Some(tid) = self.member(tgid, i) {
            i += 1;
            if self.task(tid).is_ok_and(|t| t.state != TaskState::Dead) {
                f(self, tid);
            }
        }
    }

    /// Marks a whole thread group zombie with `status` and signals the
    /// parent with SIGCHLD; children are reparented to init. Every dying
    /// task's descriptors are released (peers observe EOF/EPIPE and their
    /// waitqueues fire), parked siblings are woken so the embedder can
    /// finalize them, and the parent's `wait4` channel is posted. A
    /// parent that ignores `SIGCHLD` (or set `SA_NOCLDWAIT`) has said it
    /// will not wait: the group is reaped here and now.
    fn terminate_group(&mut self, tgid: Pid, status: i32, code: Option<i32>) {
        self.each_member(tgid, |k, t| {
            if let Ok(task) = k.task(t) {
                task.sig_hint.set(true);
            }
        });
        let mut ppid = 1;
        let mut orphans = Vec::new();
        if let Some(leader) = self.tasks.get_mut(at(tgid)) {
            if leader.state != TaskState::Dead {
                leader.state = TaskState::Zombie(status);
                ppid = leader.ppid;
                leader.exit_code = code;
                orphans = std::mem::take(&mut leader.children);
            }
        }
        for orphan in orphans {
            if let Some(t) = self.tasks.get_mut(at(orphan)) {
                t.ppid = 1;
            }
            self.tasks.get_mut(1).expect("init").children.push(orphan);
        }
        // The threads stay as they are until both passes have seen them.
        self.each_member(tgid, |k, t| k.release_task_files(t));
        self.each_member(tgid, |k, t| k.waits.lock().wake(t));
        self.each_member(tgid, |k, t| {
            if let Some(thread) = k.tasks.get_mut(at(t)).filter(|_| t != tgid) {
                thread.state = TaskState::Dead;
            }
        });
        let chld = Signal::Sigchld.number();
        let unwaited = self.task(ppid).is_ok_and(|parent| {
            let action = parent.handlers().get(chld);
            action.handler == SIG_IGN || action.flags & SA_NOCLDWAIT != 0
        });
        if unwaited {
            self.reap(tgid);
            let mut i = 0;
            while let Some(holder) = self.member(ppid, i) {
                i += 1;
                if let Ok(t) = self.task_mut(holder) {
                    t.children.retain(|c| *c != tgid);
                }
            }
        }
        self.waits.post(Channel::Child(ppid));
        let _ = self.send_signal_to_process(ppid, chld);
    }

    /// Removes an exited thread group from the task table, with each
    /// task's wait record and `Signal`/`Child` heads.
    fn reap(&mut self, tgid: Pid) {
        let Some(leader) = self.tasks.remove(at(tgid)) else {
            return;
        };
        let mut waits = self.waits.lock();
        waits.release_task(tgid);
        for &thread in &leader.threads {
            self.tasks.remove(at(thread));
            waits.release_task(thread);
        }
    }

    /// `wait4(pid, options)`: reaps a zombie child; returns
    /// `(pid, status)`. Blocks unless `WNOHANG`.
    pub fn sys_wait4(&mut self, tid: Tid, pid: i32, options: i32) -> SysResult<(Pid, i32)> {
        let waiter = self.task(tid)?;
        let me = waiter.tgid;
        let pgid_of = |p: Pid| self.tasks.get(at(p)).map(|t| t.pgid);
        let wanted = |c: &Pid| match pid {
            -1 => true,
            0 => pgid_of(*c) == pgid_of(me),
            p if p > 0 => *c == p,
            pg => pgid_of(*c) == Some(-pg),
        };
        let mut candidates = waiter.children.iter().copied().filter(wanted).peekable();
        if candidates.peek().is_none() {
            return Err(Errno::Echild.into());
        }
        let zombie = candidates.find_map(|c| match self.tasks.get(at(c))?.state {
            TaskState::Zombie(status) => Some((c, status)),
            _ => None,
        });
        if let Some((child, status)) = zombie {
            self.reap(child);
            self.task_mut(tid)?.children.retain(|c| *c != child);
            return Ok((child, status));
        }
        if options & WNOHANG != 0 {
            return Ok((0, 0));
        }
        // Park until a child changes state or a signal arrives.
        self.waits.park_on(tid, Channel::Child(me));
        Err(block())
    }

    /// `execve` kernel-side effects: CLOEXEC fds closed, caught signal
    /// handlers reset. (The engine swaps the program.) The swept entries
    /// are released like any close — pipe/socket peers observe the
    /// hangup and their waitqueues fire.
    pub fn sys_execve(&mut self, tid: Tid) -> SysResult {
        let task = self.task(tid)?;
        let swept = task.fdtable.lock_ok().close_cloexec();
        task.handlers().reset_for_exec();
        for entry in swept {
            self.release_if_last(entry.file);
        }
        Ok(0)
    }

    // --- Identity ----------------------------------------------------------

    /// `getpid`.
    pub fn sys_getpid(&self, tid: Tid) -> SysResult {
        Ok(self.task(tid)?.tgid as i64)
    }

    /// `getppid`.
    pub fn sys_getppid(&self, tid: Tid) -> SysResult {
        Ok(self.task(tid)?.ppid as i64)
    }

    /// `gettid`.
    pub fn sys_gettid(&self, tid: Tid) -> SysResult {
        Ok(self.task(tid)?.tid as i64)
    }

    /// `setpgid`.
    pub fn sys_setpgid(&mut self, tid: Tid, pid: i32, pgid: i32) -> SysResult {
        let target = if pid == 0 { self.task(tid)?.tgid } else { pid };
        let pgid = if pgid == 0 { target } else { pgid };
        if pgid < 0 {
            return Err(Errno::Einval.into());
        }
        let t = self.task_mut(target)?;
        t.pgid = pgid;
        Ok(0)
    }

    /// `getpgid`.
    pub fn sys_getpgid(&self, tid: Tid, pid: i32) -> SysResult {
        let target = if pid == 0 { tid } else { pid };
        Ok(self.task(target)?.pgid as i64)
    }

    /// `setsid`.
    pub fn sys_setsid(&mut self, tid: Tid) -> SysResult {
        let t = self.task_mut(tid)?;
        if t.pgid == t.tgid {
            return Err(Errno::Eperm.into());
        }
        t.sid = t.tgid;
        t.pgid = t.tgid;
        Ok(t.sid as i64)
    }

    /// `getsid`.
    pub fn sys_getsid(&self, tid: Tid, pid: i32) -> SysResult {
        let target = if pid == 0 { tid } else { pid };
        Ok(self.task(target)?.sid as i64)
    }

    /// `set_tid_address`.
    pub fn sys_set_tid_address(&mut self, tid: Tid, addr: u32) -> SysResult {
        let t = self.task_mut(tid)?;
        t.clear_child_tid = addr;
        Ok(t.tid as i64)
    }

    // --- Signals -----------------------------------------------------------

    /// `rt_sigaction`: stores the action, returns the previous one.
    pub fn sys_rt_sigaction(
        &mut self,
        tid: Tid,
        signo: i32,
        new: Option<WaliSigaction>,
    ) -> SysResult<WaliSigaction> {
        let sig = Signal::from_number(signo);
        if (!(1..64).contains(&signo) || sig.map(|s| !s.catchable()).unwrap_or(false))
            && new.is_some()
        {
            return Err(Errno::Einval.into());
        }
        let task = self.task(tid)?;
        let mut handlers = task.handlers();
        let old = handlers.get(signo);
        if let Some(action) = new {
            if sig.map(|s| !s.catchable()).unwrap_or(false) {
                return Err(Errno::Einval.into());
            }
            handlers.set(signo, action);
        }
        Ok(old)
    }

    /// `rt_sigprocmask`.
    pub fn sys_rt_sigprocmask(
        &mut self,
        tid: Tid,
        how: i32,
        set: Option<SigSet>,
    ) -> SysResult<SigSet> {
        let task = self.task_mut(tid)?;
        let old = task.sigmask;
        if let Some(arg) = set {
            if ![SIG_BLOCK, SIG_UNBLOCK, SIG_SETMASK].contains(&how) {
                return Err(Errno::Einval.into());
            }
            task.sigmask = old.apply(how, arg).ok_or(Errno::Einval)?;
            // Unblocking may expose pending signals; re-raise the hint so
            // the safepoint right after this syscall delivers them
            // (paper §3.3: the extra post-sigprocmask safepoint).
            if !task.pending.is_empty() || !task.shared_pending().is_empty() {
                task.sig_hint.set(true);
            }
        }
        Ok(old)
    }

    /// Applies the temporary signal mask of `ppoll`/`epoll_pwait`
    /// atomically with respect to the wait: the first entry of the call
    /// saves the caller's mask and installs `mask`; blocked-call retries
    /// (a saved mask is already present) leave both untouched, so the
    /// swap happens exactly once per wait no matter how often the task
    /// re-parks. Signals the temporary mask newly unblocks raise the
    /// delivery hint immediately, like the post-`sigprocmask` safepoint.
    pub fn sigmask_swap_for_wait(&mut self, tid: Tid, mask: SigSet) {
        let Ok(task) = self.task_mut(tid) else { return };
        if task.saved_sigmask.is_some() {
            return;
        }
        task.saved_sigmask = Some(task.sigmask);
        task.sigmask = mask;
        if !task.pending.is_empty() || !task.shared_pending().is_empty() {
            task.sig_hint.set(true);
        }
    }

    /// Restores the mask saved by [`Kernel::sigmask_swap_for_wait`] when
    /// the wait returns (ready, timeout or error — any non-`Block`
    /// outcome). A signal that arrived masked during the wait becomes
    /// deliverable here, at the safepoint straight after the syscall —
    /// exactly once, exactly after return, the `ppoll` contract.
    pub fn sigmask_restore_after_wait(&mut self, tid: Tid) {
        let Ok(task) = self.task_mut(tid) else { return };
        let Some(old) = task.saved_sigmask.take() else {
            return;
        };
        task.sigmask = old;
        if !task.pending.is_empty() || !task.shared_pending().is_empty() {
            task.sig_hint.set(true);
        }
    }

    /// `rt_sigpending`.
    pub fn sys_rt_sigpending(&self, tid: Tid) -> SysResult<SigSet> {
        let t = self.task(tid)?;
        Ok(SigSet(t.pending.mask().0 | t.shared_pending().mask().0))
    }

    /// `kill(pid, sig)`.
    pub fn sys_kill(&mut self, _tid: Tid, pid: i32, signo: i32) -> SysResult {
        if signo == 0 {
            // Existence probe.
            return if self.tasks.values().any(|t| t.tgid == pid && !t.exited()) {
                Ok(0)
            } else {
                Err(Errno::Esrch.into())
            };
        }
        if !(1..64).contains(&signo) {
            return Err(Errno::Einval.into());
        }
        if pid > 0 {
            self.send_signal_to_process(pid, signo)?;
        } else if pid == -1 {
            let targets: Vec<Pid> = self
                .tasks
                .values()
                .filter(|t| t.tgid != 1 && !t.exited())
                .map(|t| t.tgid)
                .collect();
            for t in targets {
                let _ = self.send_signal_to_process(t, signo);
            }
        } else {
            // Process group.
            let pgid = if pid == 0 {
                self.task(_tid)?.pgid
            } else {
                -pid
            };
            let targets: Vec<Pid> = self
                .tasks
                .values()
                .filter(|t| t.pgid == pgid && !t.exited())
                .map(|t| t.tgid)
                .collect();
            if targets.is_empty() {
                return Err(Errno::Esrch.into());
            }
            for t in targets {
                let _ = self.send_signal_to_process(t, signo);
            }
        }
        Ok(0)
    }

    /// `tgkill(tgid, tid, sig)`: thread-directed signal.
    pub fn sys_tgkill(&mut self, _me: Tid, tgid: Pid, tid: Tid, signo: i32) -> SysResult {
        let t = self.task_mut(tid)?;
        if t.tgid != tgid {
            return Err(Errno::Esrch.into());
        }
        if !(1..64).contains(&signo) {
            return Err(Errno::Einval.into());
        }
        t.pending.add(signo);
        t.sig_hint.set(true);
        self.waits.post(Channel::Signal(tid));
        Ok(0)
    }

    /// Generates `signo` for process `pid` (stage 2 of the lifecycle).
    pub fn send_signal_to_process(&mut self, pid: Pid, signo: i32) -> Result<(), Errno> {
        let main = self.tasks.get(at(pid)).ok_or(Errno::Esrch)?;
        if main.tgid != pid || main.exited() {
            return Err(Errno::Esrch);
        }
        main.shared_pending().add(signo);
        self.each_member(pid, |k, t| {
            if let Ok(task) = k.task(t) {
                task.sig_hint.set(true);
            }
            // Signal arrival is a wake-up source: parked EINTR-able calls
            // and `pause`/`sigtimedwait` waiters must retry.
            k.waits.post(Channel::Signal(t));
        });
        // SIGCONT resumes stopped tasks at generation time, like Linux.
        if signo == Signal::Sigcont.number() {
            self.each_member(pid, |k, t| {
                if let Some(task) = k.tasks.get_mut(at(t)) {
                    if task.state == TaskState::Stopped {
                        task.state = TaskState::Running;
                    }
                }
            });
        }
        Ok(())
    }

    /// Picks the next deliverable signal for `tid`, applying dispositions:
    /// ignored signals are consumed silently; fatal ones terminate the
    /// process; stop/continue adjust task states; handlers are returned to
    /// the embedder for execution at a safepoint (§3.3 stage 4).
    pub fn next_signal(&mut self, tid: Tid) -> Option<SignalDelivery> {
        loop {
            let (signo, action, old_mask) = {
                let task = self.tasks.get_mut(at(tid))?;
                if task.exited() {
                    return None;
                }
                let mask = task.sigmask;
                let signo = task
                    .pending
                    .take_deliverable(mask)
                    .or_else(|| task.shared_pending().take_deliverable(mask))?;
                let action = task.handlers().get(signo);
                (signo, action, mask)
            };
            match disposition(signo, action) {
                Disposition::Ignore => continue,
                Disposition::Continue => continue,
                Disposition::Stop => {
                    let tgid = self.tasks.get(at(tid))?.tgid;
                    self.each_member(tgid, |k, t| {
                        if let Ok(task) = k.task_mut(t) {
                            task.state = TaskState::Stopped;
                        }
                    });
                    continue;
                }
                Disposition::Kill => {
                    let tgid = self.tasks.get(at(tid))?.tgid;
                    self.terminate_group(tgid, w_termsig(signo), None);
                    return Some(SignalDelivery::Killed { signo });
                }
                Disposition::Handler(action) => {
                    let task = self.tasks.get_mut(at(tid))?;
                    // Block the handler's mask plus the signal itself
                    // (unless SA_NODEFER) for the handler's duration.
                    let mut during = SigSet(old_mask.0 | action.mask);
                    if action.flags & wali_abi::signals::SA_NODEFER == 0 {
                        during.insert(signo);
                    }
                    task.sigmask = during;
                    if action.flags & wali_abi::signals::SA_RESETHAND != 0 {
                        task.handlers().set(signo, WaliSigaction::default());
                    }
                    return Some(SignalDelivery::Handler {
                        signo,
                        action,
                        old_mask,
                    });
                }
            }
        }
    }

    /// Restores the mask after a handler completes.
    pub fn signal_return(&mut self, tid: Tid, old_mask: SigSet) {
        if let Some(task) = self.tasks.get_mut(at(tid)) {
            task.sigmask = old_mask;
            // Previously-masked pending signals may now be deliverable.
            if !task.pending.is_empty() || !task.shared_pending().is_empty() {
                task.sig_hint.set(true);
            }
        }
    }

    /// True if an unblocked signal is pending (EINTR condition for
    /// blocking syscalls).
    pub fn has_pending_signal(&self, tid: Tid) -> bool {
        let Ok(task) = self.task(tid) else {
            return false;
        };
        let mask = task.sigmask;
        let pend = SigSet(task.pending.mask().0 | task.shared_pending().mask().0);
        SigSet(pend.0 & !mask.0).lowest().is_some()
    }

    /// `pause`: blocks until a signal arrives.
    pub fn sys_pause(&mut self, tid: Tid) -> SysResult {
        if self.has_pending_signal(tid) {
            return Err(Errno::Eintr.into());
        }
        self.waits.lock().subscribe(tid, Channel::Signal(tid));
        Err(block())
    }

    /// `alarm(seconds)`: schedules SIGALRM; returns remaining seconds of a
    /// previous alarm.
    pub fn sys_alarm(&mut self, tid: Tid, seconds: u32) -> SysResult {
        let now = self.clock.monotonic_ns();
        let task = self.task_mut(tid)?;
        let prev = task
            .alarm_deadline
            .map(|d| d.saturating_sub(now).div_ceil(1_000_000_000))
            .unwrap_or(0);
        task.alarm_deadline = if seconds == 0 {
            None
        } else {
            Some(now + seconds as u64 * 1_000_000_000)
        };
        Ok(prev as i64)
    }

    /// Fires expired timers; the scheduler calls this after advancing the
    /// clock.
    pub fn fire_timers(&mut self) {
        let now = self.clock.monotonic_ns();
        let expired: Vec<Pid> = self
            .tasks
            .values()
            .filter(|t| t.alarm_deadline.map(|d| d <= now).unwrap_or(false))
            .map(|t| t.tgid)
            .collect();
        for pid in expired {
            self.each_member(pid, |k, t| {
                if let Ok(task) = k.task_mut(t) {
                    task.alarm_deadline = None;
                }
            });
            let _ = self.send_signal_to_process(pid, Signal::Sigalrm.number());
        }
    }

    /// Earliest wake-up deadline over all tasks (sleep or alarm), used by
    /// the scheduler when everything is blocked.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.tasks.values().filter_map(|t| t.alarm_deadline).min()
    }

    // --- Futex -------------------------------------------------------------

    /// `futex(FUTEX_WAIT)`: the embedder compares the word (the kernel
    /// cannot see Wasm memory) while holding the kernel lock for this
    /// call and passes whether it matched.
    pub fn sys_futex_wait(
        &mut self,
        tid: Tid,
        mm: MmId,
        addr: u32,
        value_matches: bool,
        deadline: Option<u64>,
    ) -> SysResult {
        let task = self.task_mut(tid)?;
        if task.futex_woken {
            task.futex_woken = false;
            if let Some(q) = self.futexes.get_mut(&(mm, addr)) {
                q.retain(|t| *t != tid)
            }
            return Ok(0);
        }
        if !value_matches {
            return Err(Errno::Eagain.into());
        }
        if let Some(d) = deadline {
            if self.clock.monotonic_ns() >= d {
                if let Some(q) = self.futexes.get_mut(&(mm, addr)) {
                    q.retain(|t| *t != tid)
                }
                return Err(Errno::Etimedout.into());
            }
        }
        let q = self.futexes.entry((mm, addr)).or_default();
        if !q.contains(&tid) {
            q.push_back(tid);
        }
        // Parity with every other blocking site: signal generation
        // re-queues the waiter (its retry re-parks if the word is still
        // unchanged, but killed/terminated tasks get finalized promptly).
        self.waits.park_on(tid, Channel::Futex(mm, addr));
        Err(match deadline {
            Some(d) => block_until(d),
            None => block(),
        })
    }

    /// `futex(FUTEX_WAKE)`: wakes up to `count` waiters, returns the
    /// number woken.
    pub fn sys_futex_wake(&mut self, mm: MmId, addr: u32, count: usize) -> SysResult {
        Ok(self.futex_wake_at(mm, addr, count) as i64)
    }

    fn futex_wake_at(&mut self, mm: MmId, addr: u32, count: usize) -> usize {
        let Some(q) = self.futexes.get_mut(&(mm, addr)) else {
            return 0;
        };
        let mut woken = 0;
        let mut wake_tids = Vec::new();
        while woken < count {
            let Some(t) = q.pop_front() else { break };
            if let Some(task) = self.tasks.get_mut(at(t)) {
                task.futex_woken = true;
                woken += 1;
                wake_tids.push(t);
            }
        }
        for t in wake_tids {
            self.waits.lock().wake(t);
        }
        woken
    }

    // --- Time --------------------------------------------------------------

    /// `clock_gettime`.
    pub fn sys_clock_gettime(&self, clock_id: i32) -> SysResult<u64> {
        use wali_abi::flags::*;
        match clock_id {
            CLOCK_REALTIME => Ok(self.clock.realtime_ns()),
            CLOCK_MONOTONIC
            | CLOCK_MONOTONIC_RAW
            | CLOCK_PROCESS_CPUTIME_ID
            | CLOCK_THREAD_CPUTIME_ID => Ok(self.clock.monotonic_ns()),
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `nanosleep`: blocks until the virtual deadline.
    pub fn sys_nanosleep(&mut self, tid: Tid, duration_ns: u64) -> SysResult {
        if self.has_pending_signal(tid) {
            return Err(Errno::Eintr.into());
        }
        let deadline = self.clock.monotonic_ns() + duration_ns;
        // The deadline is the primary wake-up; a signal ends the sleep
        // early (EINTR on the retry).
        self.waits.lock().subscribe(tid, Channel::Signal(tid));
        Err(block_until(deadline))
    }

    /// Retry entry for `nanosleep`: completes once the deadline passed.
    pub fn sys_nanosleep_retry(&mut self, tid: Tid, deadline: u64) -> SysResult {
        if self.clock.monotonic_ns() >= deadline {
            return Ok(0);
        }
        if self.has_pending_signal(tid) {
            return Err(Errno::Eintr.into());
        }
        self.waits.lock().subscribe(tid, Channel::Signal(tid));
        Err(block_until(deadline))
    }

    // --- Misc --------------------------------------------------------------

    /// `uname`.
    pub fn sys_uname(&self) -> WaliUtsname {
        WaliUtsname {
            sysname: "Linux".into(),
            nodename: "wali-vm".into(),
            release: "6.1.0-wali".into(),
            version: "#1 SMP wali-rs".into(),
            machine: "wasm32".into(),
            domainname: "(none)".into(),
        }
    }

    /// `getrandom`: deterministic xorshift stream.
    pub fn sys_getrandom(&mut self, out: &mut [u8]) -> SysResult {
        for chunk in out.chunks_mut(8) {
            self.rng_state ^= self.rng_state << 13;
            self.rng_state ^= self.rng_state >> 7;
            self.rng_state ^= self.rng_state << 17;
            let bytes = self.rng_state.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Ok(out.len() as i64)
    }

    /// Virtual CPU-time accounting hook for `getrusage`/`times`.
    pub fn account_user_time(&mut self, tid: Tid, ns: u64) {
        if let Ok(t) = self.task_mut(tid) {
            t.rusage.utime_ns += ns;
        }
    }

    /// Snapshot of a task's accounting.
    pub fn rusage_of(&self, tid: Tid) -> Rusage {
        self.task(tid).map(|t| t.rusage).unwrap_or_default()
    }

    /// Takes the captured console output.
    pub fn take_console(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.console)
    }

    // --- Teardown audit ----------------------------------------------------

    /// Audits kernel state after a full run, for leak detection.
    ///
    /// Every task exit releases its descriptor table
    /// (`Kernel::release_task_files`), which frees pipe/socket/epoll
    /// slots when the last reference drops; `wait4` removes reaped tasks
    /// from the task map; wakeups unsubscribe their waiters. So once the
    /// embedder has run a workload to completion, the kernel should hold
    /// nothing but init and unreaped zombie groups (the embedder never
    /// reaps the main process — its status *is* the run outcome). Any
    /// other residue is a leak: a pipe slot still allocated, a wait
    /// subscription never dropped, a live futex waiter stranded on a
    /// word. The fuzzer's liveness oracle calls this at reap.
    pub fn leak_audit(&self) -> LeakReport {
        let live_tasks: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.tid != 1 && !t.exited())
            .map(|t| t.tid)
            .collect();
        let zombie_tasks: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.exited())
            .map(|t| t.tid)
            .collect();
        // Futex queues may retain tids of tasks that died while queued
        // (a later wake pops and skips them); only entries for tasks
        // that still exist and have not exited indicate a stranded
        // waiter.
        let futex_waiters = self
            .futexes
            .values()
            .flatten()
            .filter(|t| self.task(**t).is_ok_and(|task| !task.exited()))
            .count();
        let (records, heads, undrained_wakeups) = {
            let waits = self.waits.lock();
            (waits.records(), waits.heads(), waits.has_woken())
        };
        LeakReport {
            live_tasks,
            zombie_tasks,
            open_pipes: self.pipes.live(),
            open_sockets: self.socks.live(),
            open_epolls: self.epolls.live(),
            wait_subscriptions: records.iter().filter(|(_, subs)| *subs != 0).count(),
            undrained_wakeups,
            futex_waiters,
            hub_watchers: self.waits.hub_entries(),
            wait_heads: self.ownerless_wait_state(&records, &heads),
        }
    }

    /// Counts wait records and wait heads whose owner is gone: a record
    /// or `Signal`/`Child` head of a tid no longer in the task table, a
    /// head still holding waiters for a freed pipe/socket/epoll slot, an
    /// eventfd head no open description matches. (A bare generation on a
    /// freed slot is not counted: a lock-free fast-path post may land
    /// just after the free, the table is bounded by the slab's peak, and
    /// the slot's next owner releases it.) Futex heads have no owner;
    /// they exist while someone waits, which `wait_subscriptions` covers.
    fn ownerless_wait_state(&self, records: &[(Tid, usize)], heads: &[(Channel, usize)]) -> usize {
        // An eventfd head is keyed by its description's address.
        let description_open = |key: usize| {
            let holds = |t: &Task| {
                let table = t.fdtable.lock_ok();
                let found = table
                    .iter()
                    .any(|(_, e)| Arc::as_ptr(&e.file) as usize == key);
                found
            };
            self.tasks.values().any(holds)
        };
        let stray_head = |&(ch, waiters): &(Channel, usize)| match ch {
            Channel::Signal(t) | Channel::Child(t) => self.tasks.get(at(t)).is_none(),
            Channel::PipeReadable(id) | Channel::PipeWritable(id) => {
                waiters != 0 && self.pipes.get(id).is_none()
            }
            Channel::SockReadable(id) | Channel::SockSpace(id) => {
                waiters != 0 && self.socks.get(id).is_none()
            }
            Channel::EpollReady(id) => waiters != 0 && self.epolls.get(id).is_none(),
            Channel::EventFd(key) => !description_open(key),
            Channel::Futex(..) => false,
        };
        let stray_records = records
            .iter()
            .filter(|(t, _)| self.tasks.get(at(*t)).is_none());
        stray_records.count() + heads.iter().filter(|h| stray_head(h)).count()
    }
}

/// What [`Kernel::leak_audit`] found still allocated at teardown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeakReport {
    /// Non-init tasks still running or stopped (never exited).
    pub live_tasks: Vec<Tid>,
    /// Zombie/dead tasks still in the task map (unreaped). The main
    /// process's group is expected here; anything else means a parent
    /// exited without reaping — informational, not counted as a leak.
    pub zombie_tasks: Vec<Tid>,
    /// Pipe slots still allocated.
    pub open_pipes: usize,
    /// Socket slots still allocated.
    pub open_sockets: usize,
    /// Epoll instances still allocated.
    pub open_epolls: usize,
    /// Wait-channel subscriptions never unsubscribed.
    pub wait_subscriptions: usize,
    /// Posted wakeups the embedder never drained (informational: the
    /// final exit can post wakes the run loop has no reason to drain).
    pub undrained_wakeups: bool,
    /// Futex-queue entries whose waiter is still a live task.
    pub futex_waiters: usize,
    /// Ready-hub routing entries never unregistered (every epoll
    /// registration removes its channel wiring at CTL_DEL/close/sweep;
    /// residue means a ring push could target a freed instance).
    pub hub_watchers: usize,
    /// Wait heads and per-task wait records that outlived their owner
    /// (a reaped task, a freed pipe/socket/epoll slot, a closed eventfd):
    /// waitqueue state must die with its object, or a fork-per-request
    /// guest grows the kernel without bound.
    pub wait_heads: usize,
}

impl LeakReport {
    /// True when nothing leaked: no live task stranded, no fd-backed
    /// resource slot allocated, no wait subscription or live futex
    /// waiter left behind. Unreaped zombies and undrained wakeups are
    /// tolerated (see the field docs).
    pub fn is_clean(&self) -> bool {
        self.live_tasks.is_empty()
            && self.open_pipes == 0
            && self.open_sockets == 0
            && self.open_epolls == 0
            && self.wait_subscriptions == 0
            && self.futex_waiters == 0
            && self.hub_watchers == 0
            && self.wait_heads == 0
    }

    /// Human-readable one-line summary of what leaked (empty if clean).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if !self.live_tasks.is_empty() {
            parts.push(format!("live tasks {:?}", self.live_tasks));
        }
        if self.open_pipes != 0 {
            parts.push(format!("{} pipe(s)", self.open_pipes));
        }
        if self.open_sockets != 0 {
            parts.push(format!("{} socket(s)", self.open_sockets));
        }
        if self.open_epolls != 0 {
            parts.push(format!("{} epoll(s)", self.open_epolls));
        }
        if self.wait_subscriptions != 0 {
            parts.push(format!("{} wait subscription(s)", self.wait_subscriptions));
        }
        if self.futex_waiters != 0 {
            parts.push(format!("{} futex waiter(s)", self.futex_waiters));
        }
        if self.hub_watchers != 0 {
            parts.push(format!("{} ready-hub watcher(s)", self.hub_watchers));
        }
        if self.wait_heads != 0 {
            parts.push(format!("{} ownerless wait head(s)", self.wait_heads));
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SysError;
    use wali_abi::flags::{wexitstatus, wifexited, wifsignaled, wtermsig, CLONE_PTHREAD};

    fn kernel_with_proc() -> (Kernel, Tid) {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        (k, tid)
    }

    #[test]
    fn spawn_process_has_stdio() {
        let (k, tid) = kernel_with_proc();
        let t = k.task(tid).unwrap();
        assert_eq!(t.fdtable.lock_ok().open_count(), 3);
        assert_eq!(t.tgid, tid);
        assert_eq!(t.ppid, 1);
    }

    #[test]
    fn fork_wait_reaps_zombie() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        // Child exits 7; parent waits.
        k.sys_exit_group(child, 7).unwrap();
        let (pid, status) = k.sys_wait4(tid, -1, 0).unwrap();
        assert_eq!(pid, child);
        assert!(wifexited(status));
        assert_eq!(wexitstatus(status), 7);
        // Child is gone.
        assert!(k.task(child).is_err());
        // Second wait: no children left.
        assert_eq!(k.sys_wait4(tid, -1, 0), Err(SysError::Err(Errno::Echild)));
    }

    /// The fork-per-request shape (`bash_sim`, `prefork_server_sim`): the
    /// waitqueue must hold state for live tasks and objects only. The old
    /// table kept a generation for every `Signal`/`Child` channel ever
    /// posted, invisibly to the audit.
    #[test]
    fn ten_thousand_fork_exit_cycles_leave_no_wait_state() {
        let (mut k, tid) = kernel_with_proc();
        for i in 0..10_000 {
            let child = k.sys_fork(tid).unwrap() as Tid;
            let (r, w) = k.sys_pipe2(child, 0).unwrap();
            // The parent parks in wait4, the child in a pipe read; the
            // child's exit posts both tasks' Signal and Child channels.
            assert!(matches!(
                k.sys_wait4(tid, child, 0),
                Err(SysError::Block(_))
            ));
            let mut buf = [0u8; 1];
            assert!(matches!(
                k.sys_read(child, r, &mut buf),
                Err(SysError::Block(_))
            ));
            k.sys_write(child, w, b"x").unwrap();
            k.sys_exit_group(child, i & 0x7f).unwrap();
            assert_eq!(k.sys_wait4(tid, child, 0).unwrap().0, child);
            k.drain_woken(&mut Vec::new());
            k.wait_cancel(child); // the embedder's finish, after the reap
        }
        let audit = k.leak_audit();
        assert_eq!(audit.wait_heads, 0, "{}", audit.describe());
        assert_eq!(audit.wait_subscriptions, 0);
        // Only the survivors hold state: the parent's record and the
        // Signal/Child heads of the parent and of init (SIGCHLD posts).
        let records = k.waits.lock().records();
        let heads = k.waits.lock().heads();
        assert_eq!(records.len(), 1, "{records:?}");
        assert!(heads.len() <= 4, "{heads:?}");
        // And a stray record is seen: state for a tid that never existed.
        k.wait_subscribe(9_999_999, Channel::Signal(9_999_999));
        let audit = k.leak_audit();
        assert_eq!(audit.wait_heads, 2, "the record and its Signal head");
        assert!(!audit.is_clean() && audit.describe().contains("ownerless wait head"));
    }

    /// A shell job — fork, a pipe, the child writes and exits, the
    /// parent reads and reaps — has one tid and one pipe id come and go,
    /// each alone on its table page: once the tids have left the
    /// parent's page no table makes another, however far they climb.
    #[test]
    fn a_fork_pipe_exit_wait_cycle_makes_no_table_page() {
        use crate::slab::PAGES_MADE;
        let (mut k, tid) = kernel_with_proc();
        let job = |k: &mut Kernel| {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            let child = k.sys_fork(tid).unwrap() as Tid;
            k.sys_close(child, r).unwrap();
            k.sys_write(child, w, b"echo hello").unwrap();
            k.sys_exit_group(child, 0).unwrap();
            k.sys_close(tid, w).unwrap();
            let mut buf = [0u8; 16];
            assert_eq!(k.sys_read(tid, r, &mut buf).unwrap(), 10);
            k.sys_close(tid, r).unwrap();
            assert_eq!(k.sys_wait4(tid, child, 0).unwrap().0, child);
            k.drain_woken(&mut Vec::new());
            k.wait_cancel(child);
        };
        (0..40).for_each(|_| job(&mut k));
        let made = PAGES_MADE.with(|n| n.get());
        for _ in 0..2_000 {
            job(&mut k);
        }
        assert_eq!(PAGES_MADE.with(|n| n.get()), made);
        assert!(k.leak_audit().wait_heads == 0 && k.leak_audit().open_pipes == 0);
    }

    fn act(handler: u32, flags: u32) -> WaliSigaction {
        WaliSigaction {
            handler,
            flags,
            mask: 0,
        }
    }

    /// `SIGCHLD` set to `SIG_IGN`, or `SA_NOCLDWAIT`: an exiting child is
    /// reaped at once — task, wait record, heads — and `wait4` finds no
    /// child, instead of a zombie per fork for the rest of the run.
    #[test]
    fn a_parent_that_ignores_sigchld_gets_no_zombies() {
        let chld = Signal::Sigchld.number();
        for action in [act(SIG_IGN, 0), act(7, SA_NOCLDWAIT)] {
            let (mut k, tid) = kernel_with_proc();
            k.sys_rt_sigaction(tid, chld, Some(action)).unwrap();
            for code in 0..100 {
                let child = k.sys_fork(tid).unwrap() as Tid;
                // A thread of the child goes with it.
                let thread = k.sys_clone(child, CLONE_PTHREAD).unwrap() as Tid;
                k.sys_exit_group(child, code).unwrap();
                assert!(k.task(child).is_err() && k.task(thread).is_err());
                k.wait_cancel(child); // the embedder's finish, after the fact
                k.wait_cancel(thread);
            }
            assert!(k.task(tid).unwrap().children.is_empty());
            assert_eq!(k.sys_wait4(tid, -1, 0), Err(SysError::Err(Errno::Echild)));
            // A parent already parked in `wait4` is woken to find that.
            let child = k.sys_fork(tid).unwrap() as Tid;
            assert!(matches!(k.sys_wait4(tid, -1, 0), Err(SysError::Block(_))));
            k.sys_exit_group(child, 0).unwrap();
            let mut woken = Vec::new();
            k.drain_woken(&mut woken);
            assert!(woken.contains(&tid));
            assert_eq!(k.sys_wait4(tid, -1, 0), Err(SysError::Err(Errno::Echild)));
            k.wait_cancel(child);

            let audit = k.leak_audit();
            assert!(audit.zombie_tasks.is_empty(), "{:?}", audit.zombie_tasks);
            assert_eq!(audit.wait_heads, 0, "{}", audit.describe());
            assert_eq!(k.tids(), [1, tid]);
            assert_eq!(k.waits.lock().records().len(), 1, "the parent's");
        }
        // The default disposition also ignores the signal, but not the
        // child: that one waits to be waited for.
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        k.sys_exit_group(child, 3).unwrap();
        assert_eq!(k.sys_wait4(tid, -1, 0).unwrap().0, child);
    }

    /// What `fork` shares until written stays each side's own: a handler
    /// or a working directory set after the fork is invisible across it,
    /// whichever side sets it — and visible to whoever `clone` said
    /// shares it.
    #[test]
    fn handlers_and_cwd_written_after_a_fork_stay_on_their_side() {
        let (mut k, parent) = kernel_with_proc();
        k.sys_rt_sigaction(parent, 10, Some(act(5, 0))).unwrap();
        let child = k.sys_fork(parent).unwrap() as Tid;
        let handler =
            |k: &mut Kernel, t, signo| k.sys_rt_sigaction(t, signo, None).unwrap().handler;
        assert_eq!(handler(&mut k, child, 10), 5, "inherited");

        k.sys_rt_sigaction(parent, 10, Some(act(6, 0))).unwrap();
        k.sys_rt_sigaction(child, 12, Some(act(7, 0))).unwrap();
        assert_eq!(
            (handler(&mut k, parent, 10), handler(&mut k, child, 10)),
            (6, 5)
        );
        assert_eq!(
            (handler(&mut k, parent, 12), handler(&mut k, child, 12)),
            (0, 7)
        );
        // A grandchild forked now starts from the child's table.
        let grandchild = k.sys_fork(child).unwrap() as Tid;
        k.sys_rt_sigaction(child, 12, Some(act(8, 0))).unwrap();
        assert_eq!(handler(&mut k, grandchild, 12), 7);

        k.sys_chdir(parent, "/tmp").unwrap();
        assert_eq!(k.sys_getcwd(parent).unwrap(), "/tmp");
        assert_eq!(k.sys_getcwd(child).unwrap(), "/");
        k.sys_chdir(child, "/usr").unwrap();
        k.sys_umask(child, 0o077).unwrap();
        assert_eq!(k.sys_getcwd(parent).unwrap(), "/tmp");
        assert_eq!(k.sys_umask(parent, 0o022).unwrap(), 0o022);

        // `CLONE_SIGHAND` and `CLONE_FS` are the opposite promise.
        let thread = k.sys_clone(parent, CLONE_PTHREAD).unwrap() as Tid;
        k.sys_rt_sigaction(thread, 10, Some(act(9, 0))).unwrap();
        k.sys_chdir(thread, "/usr").unwrap();
        assert_eq!(handler(&mut k, parent, 10), 9);
        assert_eq!(k.sys_getcwd(parent).unwrap(), "/usr");
        assert_eq!(
            (handler(&mut k, child, 10), k.sys_getcwd(child).unwrap()),
            (5, "/usr".into())
        );
        // An exec in the child resets the child's caught handlers only.
        k.sys_execve(child).unwrap();
        assert_eq!(
            (handler(&mut k, child, 12), handler(&mut k, grandchild, 12)),
            (0, 7)
        );
    }

    /// A thread group is its leader and the threads the leader lists:
    /// `exit_group` from any of them takes all, a thread that has exited
    /// is skipped, and the reap removes every one.
    #[test]
    fn a_thread_group_dies_and_is_reaped_as_one() {
        let (mut k, parent) = kernel_with_proc();
        let leader = k.sys_fork(parent).unwrap() as Tid;
        let t1 = k.sys_clone(leader, CLONE_PTHREAD).unwrap() as Tid;
        let t2 = k.sys_clone(t1, CLONE_PTHREAD).unwrap() as Tid;
        let t3 = k.sys_clone(leader, CLONE_PTHREAD).unwrap() as Tid;
        assert_eq!(k.task(leader).unwrap().threads, [t1, t2, t3]);
        k.sys_exit_thread(t1, 0).unwrap();
        assert_eq!(k.task(t1).unwrap().state, TaskState::Dead);
        k.drain_woken(&mut Vec::new());
        // A signal for the process reaches the live members, in tid order.
        k.sys_pause(t3).unwrap_err();
        k.sys_pause(t2).unwrap_err();
        k.sys_pause(t1).unwrap_err(); // stale: t1 no longer runs
        k.sys_kill(parent, leader, Signal::Sigusr1.number())
            .unwrap();
        let mut woken = Vec::new();
        k.drain_woken(&mut woken);
        assert_eq!(woken, [t2, t3]);
        assert!(!k.task(t1).unwrap().sig_hint.get() && k.task(leader).unwrap().sig_hint.get());

        k.sys_exit_group(t2, 5).unwrap();
        let state = |k: &Kernel, t| k.task(t).unwrap().state.clone();
        assert!(matches!(state(&k, leader), TaskState::Zombie(_)));
        assert!([t1, t2, t3]
            .iter()
            .all(|t| state(&k, *t) == TaskState::Dead));
        k.drain_woken(&mut woken);
        assert_eq!(
            woken[2..],
            [leader, t2, t3],
            "the live ones, for their finish"
        );
        let (pid, status) = k.sys_wait4(parent, -1, 0).unwrap();
        assert_eq!((pid, wexitstatus(status)), (leader, 5));
        assert_eq!(k.tids(), [1, parent]);
        let audit = k.leak_audit();
        assert_eq!(
            (audit.wait_heads, audit.wait_subscriptions),
            (0, 0),
            "{}",
            audit.describe()
        );
    }

    #[test]
    fn wait_blocks_until_child_exits() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        assert!(matches!(
            k.sys_wait4(tid, child, 0),
            Err(SysError::Block(_))
        ));
        assert_eq!(k.sys_wait4(tid, child, WNOHANG).unwrap(), (0, 0));
        k.sys_exit_group(child, 0).unwrap();
        assert_eq!(k.sys_wait4(tid, child, 0).unwrap().0, child);
    }

    #[test]
    fn parent_gets_sigchld() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        k.sys_exit_group(child, 0).unwrap();
        let pending = k.sys_rt_sigpending(tid).unwrap();
        assert!(pending.contains(Signal::Sigchld.number()));
        // Default disposition ignores it silently.
        assert_eq!(k.next_signal(tid), None);
    }

    #[test]
    fn clone_thread_shares_fdtable_and_tgid() {
        let (mut k, tid) = kernel_with_proc();
        let t2 = k.sys_clone(tid, CLONE_PTHREAD).unwrap() as Tid;
        assert_eq!(k.task(t2).unwrap().tgid, tid);
        // fd opened by one thread is visible in the other.
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        assert!(k.task(t2).unwrap().fdtable.lock_ok().get(r).is_ok());
    }

    #[test]
    fn clone_process_does_not_share_fdtable() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_clone(tid, 0).unwrap() as Tid;
        assert_ne!(k.task(child).unwrap().tgid, tid);
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        assert!(k.task(child).unwrap().fdtable.lock_ok().get(r).is_err());
    }

    #[test]
    fn clone_thread_requires_vm_and_sighand() {
        let (mut k, tid) = kernel_with_proc();
        assert_eq!(
            k.sys_clone(tid, CLONE_THREAD),
            Err(SysError::Err(Errno::Einval)),
            "CLONE_THREAD without CLONE_VM|CLONE_SIGHAND is EINVAL"
        );
    }

    #[test]
    fn fatal_signal_kills_process() {
        let (mut k, tid) = kernel_with_proc();
        k.sys_kill(tid, tid, Signal::Sigterm.number()).unwrap();
        match k.next_signal(tid) {
            Some(SignalDelivery::Killed { signo }) => assert_eq!(signo, 15),
            other => panic!("{other:?}"),
        }
        assert!(k.task(tid).unwrap().exited());
        // Parent (init) can reap with the termsig status.
        let (pid, status) = k.sys_wait4(1, tid, 0).unwrap();
        assert_eq!(pid, tid);
        assert!(wifsignaled(status));
        assert_eq!(wtermsig(status), 15);
    }

    #[test]
    fn ignored_signal_is_consumed() {
        let (mut k, tid) = kernel_with_proc();
        k.sys_rt_sigaction(
            tid,
            Signal::Sigterm.number(),
            Some(WaliSigaction {
                handler: SIG_IGN,
                flags: 0,
                mask: 0,
            }),
        )
        .unwrap();
        k.sys_kill(tid, tid, Signal::Sigterm.number()).unwrap();
        assert_eq!(k.next_signal(tid), None);
        assert!(!k.task(tid).unwrap().exited());
    }

    #[test]
    fn handler_delivery_blocks_signal_until_return() {
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 42,
            flags: 0,
            mask: 0,
        };
        k.sys_rt_sigaction(tid, 10, Some(action)).unwrap();
        k.sys_kill(tid, tid, 10).unwrap();
        let old_mask = match k.next_signal(tid) {
            Some(SignalDelivery::Handler {
                signo,
                action: a,
                old_mask,
            }) => {
                assert_eq!(signo, 10);
                assert_eq!(a.handler, 42);
                old_mask
            }
            other => panic!("{other:?}"),
        };
        // The signal itself is blocked during its handler (no SA_NODEFER):
        k.sys_kill(tid, tid, 10).unwrap();
        assert_eq!(k.next_signal(tid), None, "deferred during handler");
        k.signal_return(tid, old_mask);
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Handler { .. })
        ));
    }

    #[test]
    fn sigprocmask_blocks_and_unblocks() {
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 7,
            flags: 0,
            mask: 0,
        };
        k.sys_rt_sigaction(tid, 12, Some(action)).unwrap();
        let mut set = SigSet::EMPTY;
        set.insert(12);
        k.sys_rt_sigprocmask(tid, SIG_BLOCK, Some(set)).unwrap();
        k.sys_kill(tid, tid, 12).unwrap();
        assert_eq!(k.next_signal(tid), None, "blocked");
        assert!(k.sys_rt_sigpending(tid).unwrap().contains(12));
        k.sys_rt_sigprocmask(tid, SIG_UNBLOCK, Some(set)).unwrap();
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Handler { .. })
        ));
    }

    #[test]
    fn wait_sigmask_swap_is_idempotent_and_restores_once() {
        // The ppoll/epoll_pwait mask protocol: entry swaps once (retries
        // are no-ops), restore returns the original mask and raises the
        // delivery hint for signals that became deliverable.
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 5,
            flags: 0,
            mask: 0,
        };
        k.sys_rt_sigaction(tid, 10, Some(action)).unwrap();
        let mut temp = SigSet::EMPTY;
        temp.insert(10);
        k.sigmask_swap_for_wait(tid, temp);
        // A retry must not clobber the saved mask with the temp one.
        k.sigmask_swap_for_wait(tid, temp);
        assert_eq!(k.task(tid).unwrap().sigmask, temp);
        // Signal 10 arrives during the wait: masked, stays pending.
        k.sys_kill(tid, tid, 10).unwrap();
        assert_eq!(k.next_signal(tid), None, "masked during the wait");
        // The wait returns: original (empty) mask restored, delivery due.
        k.sigmask_restore_after_wait(tid);
        assert_eq!(k.task(tid).unwrap().sigmask, SigSet::EMPTY);
        assert!(k.task(tid).unwrap().sig_hint.get(), "delivery hinted");
        // A second restore without a swap is a no-op.
        k.sigmask_restore_after_wait(tid);
        assert_eq!(k.task(tid).unwrap().sigmask, SigSet::EMPTY);
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Handler { signo: 10, .. })
        ));
        assert_eq!(k.next_signal(tid), None, "delivered exactly once");
    }

    #[test]
    fn sigkill_cannot_be_caught() {
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 9,
            flags: 0,
            mask: 0,
        };
        assert_eq!(
            k.sys_rt_sigaction(tid, Signal::Sigkill.number(), Some(action)),
            Err(SysError::Err(Errno::Einval))
        );
    }

    #[test]
    fn alarm_fires_sigalrm_after_deadline() {
        let (mut k, tid) = kernel_with_proc();
        k.sys_alarm(tid, 1).unwrap();
        assert!(k.next_timer_deadline().is_some());
        k.clock.advance(2_000_000_000);
        k.fire_timers();
        assert!(k
            .sys_rt_sigpending(tid)
            .unwrap()
            .contains(Signal::Sigalrm.number()));
        // Default SIGALRM kills.
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Killed { signo: 14 })
        ));
    }

    #[test]
    fn futex_wait_wake_protocol() {
        let (mut k, tid) = kernel_with_proc();
        let t2 = k.sys_clone(tid, CLONE_PTHREAD).unwrap() as Tid;
        let mm = k.task(tid).unwrap().mm;
        // t2 waits (value matched).
        assert!(matches!(
            k.sys_futex_wait(t2, mm, 0x1000, true, None),
            Err(SysError::Block(_))
        ));
        // Waker wakes one.
        assert_eq!(k.sys_futex_wake(mm, 0x1000, 1).unwrap(), 1);
        // Retry completes.
        assert_eq!(k.sys_futex_wait(t2, mm, 0x1000, true, None).unwrap(), 0);
        // Mismatched value is EAGAIN.
        assert_eq!(
            k.sys_futex_wait(t2, mm, 0x1000, false, None),
            Err(SysError::Err(Errno::Eagain))
        );
    }

    #[test]
    fn exit_thread_wakes_joiner_via_clear_child_tid() {
        let (mut k, tid) = kernel_with_proc();
        let t2 = k.sys_clone(tid, CLONE_PTHREAD).unwrap() as Tid;
        let mm = k.task(tid).unwrap().mm;
        k.sys_set_tid_address(t2, 0x2000).unwrap();
        // Main waits on the tid word.
        assert!(matches!(
            k.sys_futex_wait(tid, mm, 0x2000, true, None),
            Err(SysError::Block(_))
        ));
        k.sys_exit_thread(t2, 0).unwrap();
        // Woken now.
        assert_eq!(k.sys_futex_wait(tid, mm, 0x2000, true, None).unwrap(), 0);
    }

    #[test]
    fn nanosleep_blocks_until_virtual_deadline() {
        let (mut k, tid) = kernel_with_proc();
        let r = k.sys_nanosleep(tid, 1_000_000);
        let deadline = match r {
            Err(SysError::Block(b)) => b.deadline.unwrap(),
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            k.sys_nanosleep_retry(tid, deadline),
            Err(SysError::Block(_))
        ));
        k.clock.advance_to(deadline);
        assert_eq!(k.sys_nanosleep_retry(tid, deadline).unwrap(), 0);
    }

    #[test]
    fn getrandom_is_deterministic() {
        let mut k1 = Kernel::new();
        let mut k2 = Kernel::new();
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        k1.sys_getrandom(&mut a).unwrap();
        k2.sys_getrandom(&mut b).unwrap();
        assert_eq!(a, b);
        let mut c = [0u8; 16];
        k1.sys_getrandom(&mut c).unwrap();
        assert_ne!(a, c, "stream advances");
    }

    #[test]
    fn setsid_and_pgid() {
        let (mut k, tid) = kernel_with_proc();
        // Leader of its own group: setsid fails.
        assert_eq!(k.sys_setsid(tid), Err(SysError::Err(Errno::Eperm)));
        let child = k.sys_fork(tid).unwrap() as Tid;
        assert_eq!(k.sys_getpgid(child, 0).unwrap(), tid as i64);
        let sid = k.sys_setsid(child).unwrap();
        assert_eq!(sid, child as i64);
        assert_eq!(k.sys_getpgid(child, 0).unwrap(), child as i64);
    }

    #[test]
    fn leak_audit_clean_after_full_lifecycle() {
        let (mut k, tid) = kernel_with_proc();
        // Open a pipe, fork, exchange a byte, close everything, reap.
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let child = k.sys_fork(tid).unwrap() as Tid;
        k.sys_write(child, w, b"x").unwrap();
        let mut buf = [0u8; 1];
        k.sys_read(tid, r, &mut buf).unwrap();
        k.sys_exit_group(child, 0).unwrap();
        k.sys_wait4(tid, child, 0).unwrap();
        k.sys_close(tid, r).unwrap();
        k.sys_close(tid, w).unwrap();
        k.sys_exit_group(tid, 0).unwrap();
        let report = k.leak_audit();
        assert!(report.is_clean(), "leaks: {}", report.describe());
        // The main process's zombie group is expected residue.
        assert_eq!(report.zombie_tasks, vec![tid]);
    }

    #[test]
    fn leak_audit_flags_open_pipe_and_live_task() {
        let (mut k, tid) = kernel_with_proc();
        let (_r, _w) = k.sys_pipe2(tid, 0).unwrap();
        let report = k.leak_audit();
        assert!(!report.is_clean());
        assert_eq!(report.open_pipes, 1);
        assert_eq!(report.live_tasks, vec![tid]);
        assert!(report.describe().contains("pipe"));
    }

    #[test]
    fn leak_audit_flags_stranded_futex_waiter() {
        let (mut k, tid) = kernel_with_proc();
        let mm = k.task(tid).unwrap().mm;
        assert!(matches!(
            k.sys_futex_wait(tid, mm, 0x1000, true, None),
            Err(SysError::Block(_))
        ));
        let report = k.leak_audit();
        assert_eq!(report.futex_waiters, 1);
        assert!(report.wait_subscriptions > 0);
        // Once the task exits, the stale queue entry no longer counts.
        k.sys_exit_group(tid, 0).unwrap();
        assert_eq!(k.leak_audit().futex_waiters, 0);
    }

    #[test]
    fn orphans_are_reparented_to_init() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        let grandchild = k.sys_fork(child).unwrap() as Tid;
        k.sys_exit_group(child, 0).unwrap();
        assert_eq!(k.task(grandchild).unwrap().ppid, 1);
    }
}
