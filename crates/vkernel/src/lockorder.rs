//! Lock classes, ordering assertions and contention counters for the
//! sharded kernel.
//!
//! PR 7 breaks the big kernel lock into per-subsystem shards. Sharding
//! only stays correct (and CI-debuggable) if two global properties hold:
//!
//! 1. **A lock-ordering DAG.** Every lock belongs to a [`LockClass`]
//!    with a fixed rank; a thread may only acquire a lock whose rank is
//!    *strictly greater* than every lock it already holds. Strictness
//!    outlaws holding two locks of the same class at once (e.g. two
//!    pipe locks), which is how classic AB/BA deadlocks are born. Debug
//!    builds enforce the rule with a thread-local rank stack, so an
//!    ordering bug fails a test with a message instead of deadlocking
//!    CI.
//! 2. **Observable contention.** Every acquisition first tries an
//!    uncontended `try_lock`; a miss bumps a per-class atomic counter.
//!    The counters let tests *assert* scalability claims — e.g. the
//!    shard stress test pins "threads hammering disjoint pipes never
//!    contend on an object lock" as `contention(Object) == 0`.
//!
//! The rank order (see DESIGN.md "Concurrency" for the full DAG):
//!
//! ```text
//! Kernel(0) → Files(6) → ReadyHub(12) → Epoll(18) → Object(20) → Description(25) → Vfs(30) → Waits(40)
//! ```
//!
//! Debug builds also count this thread's acquisitions, in all
//! ([`acquisitions`]) and per class ([`acquisitions_of`]):
//! `crates/wali/tests/locks_per_crossing.rs` and
//! `crates/vkernel/tests/lock_budget.rs` turn "a `read` takes three
//! locks" and "no call looks an id up in a slab" into assertions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// The lock classes of the sharded kernel, in acquisition order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockClass {
    /// The big kernel lock (outermost; syscall bodies).
    Kernel,
    /// A task's fd table ([`crate::fd::Files`]). A descriptor call on a
    /// table no other task uses holds it across the whole call, so
    /// everything the call takes ranks below it — and whoever holds it
    /// lets go before taking the kernel lock.
    Files,
    /// The epoll ready-hub routing table (channel → interested epoll
    /// registrations). Ranked *below* Epoll so the waitqueue's
    /// readiness router can look up targets and then take the epoll
    /// locks, never the reverse.
    ReadyHub,
    /// An epoll instance (its readiness scan takes pipe/socket locks).
    Epoll,
    /// A pipe or socket object lock.
    Object,
    /// An open file description's offset and eventfd counter
    /// ([`crate::fd::OpenFile::lock_ok`]): held across the inode access
    /// of a regular file's `read`/`write` (so a transfer and its offset
    /// advance are one step, like Linux's `f_pos_lock`) and across an
    /// eventfd's wait subscription.
    Description,
    /// The VFS inode table (reader/writer).
    Vfs,
    /// The waitqueue table (innermost: subscriptions happen under
    /// object locks so wakeups are never missed).
    Waits,
}

/// Number of lock classes (sizes the counter table).
const CLASS_COUNT: usize = 8;

impl LockClass {
    /// Rank in the ordering DAG; acquisitions must be strictly
    /// increasing per thread.
    pub fn rank(self) -> u32 {
        match self {
            LockClass::Kernel => 0,
            LockClass::Files => 6,
            LockClass::ReadyHub => 12,
            LockClass::Epoll => 18,
            LockClass::Object => 20,
            LockClass::Description => 25,
            LockClass::Vfs => 30,
            LockClass::Waits => 40,
        }
    }

    fn index(self) -> usize {
        match self {
            LockClass::Kernel => 0,
            LockClass::Files => 1,
            LockClass::ReadyHub => 2,
            LockClass::Epoll => 3,
            LockClass::Object => 4,
            LockClass::Description => 5,
            LockClass::Vfs => 6,
            LockClass::Waits => 7,
        }
    }
}

/// Process-global contended-acquisition counters, one per class.
static CONTENTION: [AtomicU64; CLASS_COUNT] = [const { AtomicU64::new(0) }; CLASS_COUNT];

/// Total contended acquisitions ever recorded for `class` in this
/// process. Monotone; tests compare before/after deltas.
pub fn contention(class: LockClass) -> u64 {
    CONTENTION[class.index()].load(Ordering::Relaxed)
}

/// Records one contended acquisition of `class`.
pub fn note_contention(class: LockClass) {
    CONTENTION[class.index()].fetch_add(1, Ordering::Relaxed);
}

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks of the tracked locks this thread currently holds, in
    /// acquisition order.
    static RANK_STACK: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Locks this thread has taken so far, ranked or not.
    static ACQUIRED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// The ranked ones among them, by class.
    static ACQUIRED_OF: [std::cell::Cell<u64>; CLASS_COUNT] =
        const { [const { std::cell::Cell::new(0) }; CLASS_COUNT] };
}

/// Locks the calling thread has taken since it started: every
/// [`OrderToken::enter`] (tracked mutexes, the VFS shard) and every [`crate::sync::MutexExt::lock_ok`]. Debug builds only — a
/// test reads it before and after a run on its own thread and divides
/// the difference by the number of crossings.
#[cfg(debug_assertions)]
pub fn acquisitions() -> u64 {
    ACQUIRED.with(std::cell::Cell::get)
}

/// The [`acquisitions`] that were of `class` (an [`OrderToken::enter`];
/// plain mutexes — pending sets, signal handlers — have no class).
#[cfg(debug_assertions)]
pub fn acquisitions_of(class: LockClass) -> u64 {
    ACQUIRED_OF.with(|c| c[class.index()].get())
}

/// Counts one acquisition on this thread (nothing in a release build).
#[inline]
pub(crate) fn note_acquired() {
    #[cfg(debug_assertions)]
    ACQUIRED.with(|c| c.set(c.get() + 1));
}

/// RAII witness that this thread holds a lock of a given class.
///
/// Created *before* blocking on the lock (a violation must assert, not
/// deadlock) and dropped when the guard drops. Also used standalone by
/// shards built on `RwLock` ([`crate::vfs::VfsShard`]), so every
/// tracked acquisition — mutex or not — participates in the same
/// ordering check.
#[derive(Debug)]
pub struct OrderToken {
    #[cfg(debug_assertions)]
    rank: u32,
}

impl OrderToken {
    /// Asserts the ordering DAG allows acquiring `class` now, and marks
    /// it held until the token drops.
    pub fn enter(class: LockClass) -> OrderToken {
        note_acquired();
        #[cfg(debug_assertions)]
        {
            ACQUIRED_OF.with(|c| c[class.index()].set(c[class.index()].get() + 1));
            let rank = class.rank();
            RANK_STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(&top) = s.last() {
                    assert!(
                        rank > top,
                        "lock-order violation: acquiring {class:?} (rank {rank}) \
                         while already holding rank {top} (held ranks: {s:?})",
                    );
                }
                s.push(rank);
            });
            OrderToken { rank }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = class;
            OrderToken {}
        }
    }
}

impl Drop for OrderToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        RANK_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards may be dropped out of acquisition order; ranks are
            // unique on the stack (strictly increasing), so remove by
            // value.
            if let Some(pos) = s.iter().rposition(|&r| r == self.rank) {
                s.remove(pos);
            }
        });
    }
}

/// A mutex that participates in lock-order checking and contention
/// accounting. The sharded kernel's replacement for a bare
/// [`std::sync::Mutex`] wherever the lock can be taken from more than
/// one subsystem.
#[derive(Debug)]
pub struct Tracked<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> Tracked<T> {
    /// Wraps `value` in a tracked mutex of the given class.
    pub fn new(class: LockClass, value: T) -> Tracked<T> {
        Tracked {
            class,
            inner: Mutex::new(value),
        }
    }

    /// The class this lock was created with.
    pub fn class(&self) -> LockClass {
        self.class
    }

    /// Locks, poison-tolerantly (see [`crate::sync::MutexExt`]),
    /// checking the ordering DAG and counting contention.
    pub fn lock_ok(&self) -> TrackedGuard<'_, T> {
        let token = OrderToken::enter(self.class);
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                note_contention(self.class);
                self.inner
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
            }
        };
        TrackedGuard {
            guard,
            _token: token,
        }
    }

    /// Unwraps the value (poison-tolerantly): for the holder of the last
    /// reference to a shared lock, which no one can be holding.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

/// Guard returned by [`Tracked::lock_ok`]. Field order matters: the
/// mutex guard drops (releasing the lock) before the order token pops.
#[derive(Debug)]
pub struct TrackedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _token: OrderToken,
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_ranks_are_allowed() {
        let a = Tracked::new(LockClass::Kernel, 1u32);
        let b = Tracked::new(LockClass::Object, 2u32);
        let c = Tracked::new(LockClass::Waits, 3u32);
        let ga = a.lock_ok();
        let gb = b.lock_ok();
        let gc = c.lock_ok();
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    fn out_of_order_guard_drops_are_fine() {
        let a = Tracked::new(LockClass::Epoll, 1u32);
        let b = Tracked::new(LockClass::Object, 2u32);
        let ga = a.lock_ok();
        let gb = b.lock_ok();
        drop(ga); // release the *outer* lock first
        drop(gb);
        // The stack healed: a fresh low-rank acquisition succeeds.
        let _ = a.lock_ok();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn decreasing_rank_asserts() {
        let hi = Tracked::new(LockClass::Waits, ());
        let lo = Tracked::new(LockClass::Object, ());
        let _g = hi.lock_ok();
        let _bad = lo.lock_ok();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn equal_rank_asserts() {
        let a = Tracked::new(LockClass::Object, ());
        let b = Tracked::new(LockClass::Object, ());
        let _g = a.lock_ok();
        let _bad = b.lock_ok();
    }

    #[test]
    fn contention_is_counted() {
        use std::sync::Arc;
        let m = Arc::new(Tracked::new(LockClass::ReadyHub, 0u64));
        let before = contention(LockClass::ReadyHub);
        let m2 = m.clone();
        let g = m.lock_ok();
        let t = std::thread::spawn(move || {
            let mut g = m2.lock_ok();
            *g += 1;
        });
        // Give the other thread a moment to hit the held lock. The
        // counter is monotone, so a scheduling fluke only weakens the
        // delta (>= 0 either way); the sleep makes a hit overwhelmingly
        // likely without being load-bearing for correctness.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(g);
        t.join().unwrap();
        assert_eq!(*m.lock_ok(), 1);
        assert!(contention(LockClass::ReadyHub) >= before);
    }
}
