//! A deterministic in-memory Linux kernel model.
//!
//! The paper's WALI implementation passes syscalls through to a real Linux
//! host. A library reproduction needs the *semantics* of that host without
//! its non-determinism, so this crate implements the userspace-visible
//! behaviour of the Linux syscalls WALI covers: a VFS with directories,
//! regular files, symlinks, devices and `/proc`; file-descriptor tables
//! with `dup`/`CLOEXEC`/shared-offset semantics; pipes; loopback
//! `AF_UNIX`/`AF_INET` sockets; processes, threads (`clone` flag
//! semantics), zombies and `wait4`; the full signal state machine
//! (handlers, masks, pending sets, default dispositions); futexes; virtual
//! clocks and interval timers; and resource limits.
//!
//! # Execution model
//!
//! The kernel is **single-threaded and cooperative**: every syscall either
//! completes immediately or returns [`SysError::Block`]. Before returning
//! `Block`, the kernel subscribes the task to the [`wait::Channel`]s that
//! can unblock it, and every unblocking state transition posts a wakeup
//! into the [`wait::WaitSet`]. The embedder (the WALI runner) drains the
//! woken list each scheduling round, parks blocked tasks, and advances the
//! [`clock::Clock`] to the earliest deadline when every task is parked.
//! This matches the paper's N-to-1 lightweight-process model (§3.1) and
//! makes every test and benchmark in the repository deterministic. The
//! 1-to-1 model is layered on top by giving each Wasm instance its own
//! kernel task.
//!
//! Blocked syscalls follow the classic *retry* convention: the embedder
//! re-issues the same call once the task is woken; the kernel guarantees
//! idempotence of the blocked path. Wakeups may be spurious (a retry may
//! block again); they are never missing.

pub mod clock;
pub mod fd;
pub mod kernel;
pub mod lockorder;
pub mod pipe;
pub mod signal;
pub mod slab;
pub mod socket;
pub mod sync;
pub mod task;
pub mod vfs;
pub mod wait;

pub use clock::Clock;
pub use kernel::{Kernel, KernelHandles, LeakReport};
pub use lockorder::{contention, KernelLock, LockClass, Tracked};
pub use slab::ObjSlab;
pub use sync::{shared, FastMap, FastSet, HintFlag, MutexExt, Shared};
pub use task::{Pid, Task, TaskHot, TaskState, Tid};
pub use wait::{Channel, WaitSet, WaitShard, WaitStats};

use wali_abi::Errno;

/// An address-space identity (used for futex keys and mm sharing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MmId(pub u64);

/// Why a syscall could not complete right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Virtual-monotonic deadline (ns) after which the call should fail or
    /// complete with a timeout, if any.
    pub deadline: Option<u64>,
}

/// A syscall error: a real errno or a would-block condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysError {
    /// Complete with `-errno`.
    Err(Errno),
    /// The task must block; retry after a wake-up (or the deadline).
    Block(Block),
}

impl From<Errno> for SysError {
    fn from(e: Errno) -> Self {
        SysError::Err(e)
    }
}

/// Result type of every kernel syscall method.
pub type SysResult<T = i64> = Result<T, SysError>;

/// Shorthand: a blocking condition with no deadline.
pub fn block() -> SysError {
    SysError::Block(Block { deadline: None })
}

/// Shorthand: a blocking condition with a deadline.
pub fn block_until(deadline: u64) -> SysError {
    SysError::Block(Block {
        deadline: Some(deadline),
    })
}
