//! Kernel tasks: threads and processes.
//!
//! A *task* is one schedulable entity (Linux LWP). A *process* (thread
//! group) is the set of tasks sharing a `tgid`. Sharing of the fd table,
//! filesystem info, signal handlers and address space is governed by the
//! `clone` flags exactly as on Linux, which is what lets WALI explore the
//! paper's process-model spectrum (§3.1, Fig. 4).
//!
//! # What a new task costs
//!
//! `fork` makes three things: the child's descriptor slots, the lock
//! they sit behind, and one [`Shares`] block. Everything else the child
//! starts out equal to is either a scalar or shared until written
//! ([`SigHandlers`] copies its table on the first `rt_sigaction` after
//! the fork).

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};

use wali_abi::signals::SigSet;

use crate::fd::FdTable;
use crate::signal::{PendingSet, SigHandlers};
use crate::sync::{shared, HintFlag, MutexExt, Shared};
use crate::vfs::InodeId;
use crate::MmId;

/// A thread id.
pub type Tid = i32;
/// A process (thread-group) id.
pub type Pid = i32;

/// Filesystem info shared under `CLONE_FS`.
#[derive(Clone, Debug)]
pub struct FsInfo {
    /// Current working directory inode.
    pub cwd: InodeId,
    /// File-creation mask.
    pub umask: u32,
}

/// The state of a task that others hold on to, in one allocation made
/// with the task: its signal hint (the embedder's context polls it) and
/// the three things `clone` shares by flag. A task uses the cells of
/// *some* task's block through one handle each — its own after a
/// `fork`, its creator's for whatever `CLONE_THREAD`, `CLONE_FS` or
/// `CLONE_SIGHAND` said to share — so sharing costs a reference count
/// and not sharing costs nothing beyond this block.
#[derive(Debug)]
pub struct Shares {
    /// Set whenever a signal may be deliverable to the task or it was
    /// terminated ([`HintFlag`]).
    pub(crate) sig_hint: AtomicBool,
    /// Process-wide pending signals (one cell per thread group).
    pending: Mutex<PendingSet>,
    /// cwd/umask (one cell per `CLONE_FS` group).
    fs: Mutex<FsInfo>,
    /// Signal handlers (one cell per `CLONE_SIGHAND` group).
    handlers: Mutex<SigHandlers>,
}

impl Shares {
    /// A block whose cells start out as given.
    pub(crate) fn new(fs: FsInfo, handlers: SigHandlers) -> Arc<Shares> {
        Arc::new(Shares {
            sig_hint: AtomicBool::new(false),
            pending: Mutex::new(PendingSet::default()),
            fs: Mutex::new(fs),
            handlers: Mutex::new(handlers),
        })
    }
}

/// Scheduling/lifecycle state of a task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Runnable or running.
    Running,
    /// Stopped by a job-control signal; resumes on SIGCONT.
    Stopped,
    /// Exited but not yet reaped; wait-status attached.
    Zombie(i32),
    /// Fully reaped (slot reusable only after removal).
    Dead,
}

/// Per-process accounting (approximate rusage).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    /// Virtual user time (ns).
    pub utime_ns: u64,
    /// Virtual system time (ns).
    pub stime_ns: u64,
    /// Peak resident set (bytes, engine-reported).
    pub maxrss: u64,
}

/// One kernel task.
#[derive(Debug)]
pub struct Task {
    /// Thread id (unique).
    pub tid: Tid,
    /// Thread-group id (process id).
    pub tgid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Process group id.
    pub pgid: Pid,
    /// Session id.
    pub sid: Pid,
    /// Lifecycle state.
    pub state: TaskState,
    /// Descriptor table (shared under `CLONE_FILES`; own lock — a shard).
    pub fdtable: Shared<FdTable>,
    /// Whose [`Shares`] hold this task's cwd/umask (`CLONE_FS`).
    pub(crate) fs: Arc<Shares>,
    /// Whose hold its signal handlers (`CLONE_SIGHAND`).
    pub(crate) sighand: Arc<Shares>,
    /// Whose hold its thread group's pending signals (`CLONE_THREAD`).
    pub(crate) group: Arc<Shares>,
    /// Thread-private pending signals (`tkill`/`tgkill`).
    pub pending: PendingSet,
    /// Blocked-signal mask (per thread).
    pub sigmask: SigSet,
    /// Mask saved by `ppoll`/`epoll_pwait` for the duration of the wait;
    /// restored (atomically with respect to delivery) when the call
    /// returns. `None` outside such a wait.
    pub saved_sigmask: Option<SigSet>,
    /// Address-space identity (shared under `CLONE_VM`).
    pub mm: MmId,
    /// Real/effective/saved uid (simplified to one triple slot each).
    pub uid: u32,
    /// Effective uid.
    pub euid: u32,
    /// Real gid.
    pub gid: u32,
    /// Effective gid.
    pub egid: u32,
    /// Children pids (for `wait4`).
    pub children: Vec<Pid>,
    /// On a thread-group leader: the group's other tasks still in the
    /// task table, in creation (= tid) order.
    pub(crate) threads: Vec<Tid>,
    /// `set_tid_address` / `CLONE_CHILD_CLEARTID` address.
    pub clear_child_tid: u32,
    /// Accounting.
    pub rusage: Rusage,
    /// Pending `alarm(2)` deadline (virtual mono ns).
    pub alarm_deadline: Option<u64>,
    /// A futex wake hit this task while it was blocked.
    pub futex_woken: bool,
    /// Exit code passed to `exit_group`, once exited.
    pub exit_code: Option<i32>,
    /// Fast-path flag the embedder polls at safepoints: set whenever a
    /// signal may be deliverable or the task was terminated, cleared by
    /// the embedder once drained. Keeps safepoint polling O(1). It is
    /// the handle on this task's own [`Shares`].
    pub sig_hint: HintFlag,
}

/// What an embedder's context keeps of its task: read once, under the
/// kernel lock the `spawn`, `fork` or `clone` that made the task holds
/// anyway.
#[derive(Clone, Debug)]
pub struct TaskHot {
    /// The task.
    pub tid: Tid,
    /// Its address space.
    pub mm: MmId,
    /// Its signal hint.
    pub sig_hint: HintFlag,
    /// Its fd table (descriptor I/O resolves through it without the
    /// kernel lock).
    pub fdtable: Shared<FdTable>,
}

impl Task {
    /// Creates the init task (pid 1).
    pub fn init(root: InodeId) -> Task {
        let fs = FsInfo {
            cwd: root,
            umask: 0o022,
        };
        let own = Shares::new(fs, SigHandlers::new());
        Task {
            tid: 1,
            tgid: 1,
            ppid: 0,
            pgid: 1,
            sid: 1,
            state: TaskState::Running,
            fdtable: shared(FdTable::new()),
            fs: own.clone(),
            sighand: own.clone(),
            group: own.clone(),
            pending: PendingSet::default(),
            sigmask: SigSet::EMPTY,
            saved_sigmask: None,
            mm: MmId(1),
            uid: 1000,
            euid: 1000,
            gid: 1000,
            egid: 1000,
            children: Vec::new(),
            threads: Vec::new(),
            clear_child_tid: 0,
            rusage: Rusage::default(),
            alarm_deadline: None,
            futex_woken: false,
            exit_code: None,
            sig_hint: HintFlag::of(own),
        }
    }

    /// cwd and umask.
    pub fn fs(&self) -> MutexGuard<'_, FsInfo> {
        self.fs.fs.lock_ok()
    }

    /// The registered signal actions.
    pub fn handlers(&self) -> MutexGuard<'_, SigHandlers> {
        self.sighand.handlers.lock_ok()
    }

    /// The process-wide pending signals.
    pub fn shared_pending(&self) -> MutexGuard<'_, PendingSet> {
        self.group.pending.lock_ok()
    }

    /// The handles an embedder's context keeps.
    pub fn hot(&self) -> TaskHot {
        TaskHot {
            tid: self.tid,
            mm: self.mm,
            sig_hint: self.sig_hint.clone(),
            fdtable: self.fdtable.clone(),
        }
    }

    /// True when the task can be scheduled.
    pub fn runnable(&self) -> bool {
        self.state == TaskState::Running
    }

    /// True when the task has exited (zombie or dead).
    pub fn exited(&self) -> bool {
        matches!(self.state, TaskState::Zombie(_) | TaskState::Dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_task_shape() {
        let t = Task::init(0);
        assert_eq!(t.tid, 1);
        assert_eq!(t.tgid, 1);
        assert_eq!(t.sid, 1);
        assert!(t.runnable());
        assert!(!t.exited());
    }

    #[test]
    fn zombie_is_exited_not_runnable() {
        let mut t = Task::init(0);
        t.state = TaskState::Zombie(0);
        assert!(t.exited());
        assert!(!t.runnable());
    }
}
