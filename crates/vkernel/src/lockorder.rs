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
//!    uncontended take; a miss bumps a per-class atomic counter.
//!    The counters let tests *assert* scalability claims — e.g. the
//!    shard stress test pins "threads hammering disjoint pipes never
//!    contend on an object lock" as `contention(Object) == 0`.
//!
//! Two lock kinds, as in Linux: the kernel lock is a sleeping mutex
//! ([`KernelLock`]), every other class a leaf lock that costs one atomic
//! read-modify-write to take and a plain release store to give back
//! ([`Tracked`]). No leaf section sleeps, and no lock at all is held
//! where a worker may sleep ([`assert_none_held`]).
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
//! `crates/vkernel/tests/lock_budget.rs` turn "a `read` takes two
//! locks" and "no call looks an id up in a slab" into assertions.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// ([`crate::fd::OpenFile::pos`]): held across the inode access of
    /// a regular file's `read`/`write` on a description another
    /// reference can reach (so a transfer and its offset advance are
    /// one step, like Linux's `f_pos_lock`) and across an eventfd's wait
    /// subscription.
    Description,
    /// The VFS inode table.
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
/// [`Tracked`] or [`KernelLock`] acquisition and every [`crate::sync::MutexExt::lock_ok`]. Debug builds only — a
/// test reads it before and after a run on its own thread and divides
/// the difference by the number of crossings.
#[cfg(debug_assertions)]
pub fn acquisitions() -> u64 {
    ACQUIRED.with(std::cell::Cell::get)
}

/// The [`acquisitions`] that were of `class` (plain mutexes — pending
/// sets, signal handlers — have no class).
#[cfg(debug_assertions)]
pub fn acquisitions_of(class: LockClass) -> u64 {
    ACQUIRED_OF.with(|c| c[class.index()].get())
}

/// Asserts this thread holds no tracked lock (debug builds; nothing in
/// a release build). Called where a worker may sleep — at the end of
/// every slice, before the task parks, yields or retires, and before
/// the executor's condvar wait: a leaf lock carried into a sleep leaves
/// every other taker spinning until it wakes, and the kernel lock
/// carried there stops the machine (Linux's `might_sleep`).
#[inline]
pub fn assert_none_held() {
    #[cfg(debug_assertions)]
    RANK_STACK.with(|s| {
        let s = s.borrow();
        assert!(
            s.is_empty(),
            "might sleep while holding a lock (held ranks: {s:?})"
        );
    });
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
/// deadlock) and dropped when the guard drops.
#[derive(Debug)]
struct OrderToken {
    #[cfg(debug_assertions)]
    rank: u32,
}

impl OrderToken {
    /// Asserts the ordering DAG allows acquiring `class` now, and marks
    /// it held until the token drops.
    fn enter(class: LockClass) -> OrderToken {
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

/// Spins a contended taker makes before it yields its core: enough to
/// outlast a short leaf section held on another core, few enough that a
/// holder preempted on this one gets the core back soon.
const SPINS: u32 = 128;

/// A leaf lock — every class but [`LockClass::Kernel`] — that takes part
/// in lock-order checking and contention accounting: one CAS to take,
/// one release store to give back (Linux's `spinlock_t`). A taker that
/// finds it held counts the contention, spins a little, then yields its
/// core until the holder lets go. Nothing sleeps while holding one
/// ([`assert_none_held`] checks where a worker may), so no holder is
/// parked for long, and a panic releases it without poisoning it.
pub struct Tracked<T> {
    class: LockClass,
    held: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: `class` is a plain `Copy` value and `held` an atomic. The value
// is reached only through a `TrackedGuard`, and a guard exists only
// while its `lock_ok` holds `held` — one at a time, the acquire of the
// CAS and the release of the unlocking store ordering each holder's
// accesses after the previous holder's — so sharing a `Tracked<T>`
// hands `T` from thread to thread (`T: Send`), never to two at once.
unsafe impl<T: Send> Send for Tracked<T> {}
unsafe impl<T: Send> Sync for Tracked<T> {}

impl<T> Tracked<T> {
    /// Wraps `value` in a leaf lock of the given class.
    pub fn new(class: LockClass, value: T) -> Tracked<T> {
        assert!(
            class != LockClass::Kernel,
            "the kernel lock is a KernelLock"
        );
        Tracked {
            class,
            held: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// The class this lock was created with.
    pub fn class(&self) -> LockClass {
        self.class
    }

    /// Locks, checking the ordering DAG and counting contention.
    #[inline]
    pub fn lock_ok(&self) -> TrackedGuard<'_, T> {
        let token = OrderToken::enter(self.class);
        if !self.try_take() {
            note_contention(self.class);
            self.take_contended();
        }
        TrackedGuard {
            lock: self,
            _token: token,
            _not_send: PhantomData,
        }
    }

    #[inline]
    fn try_take(&self) -> bool {
        self.held
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[cold]
    fn take_contended(&self) {
        let mut spins = 0;
        loop {
            while self.held.load(Ordering::Relaxed) {
                if spins < SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            if self.try_take() {
                return;
            }
        }
    }

    /// Unwraps the value: for the holder of the last reference to a
    /// shared lock, which no one can be holding.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T> std::fmt::Debug for Tracked<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The value is not shown: reading it would take the lock.
        f.debug_struct("Tracked")
            .field("class", &self.class)
            .field("held", &self.held.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`Tracked::lock_ok`]: unlocks on drop, then its
/// order token pops. Not `Send`: the rank stack it pops is this
/// thread's.
pub struct TrackedGuard<'a, T> {
    lock: &'a Tracked<T>,
    _token: OrderToken,
    _not_send: PhantomData<*const ()>,
}

impl<T> Drop for TrackedGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.held.store(false, Ordering::Release);
    }
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard holds the lock, and `&mut self` is unique.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// The kernel lock ([`LockClass::Kernel`]): a sleeping mutex, because
/// its holder may run long — `fork`, `execve`, `exit` — and a waiter is
/// better parked than spinning (Linux's `mutex` beside `spinlock_t`).
/// Ordered, counted and poison-tolerant like the leaf locks.
#[derive(Debug)]
pub struct KernelLock<T> {
    inner: Mutex<T>,
}

impl<T> KernelLock<T> {
    /// Wraps `value` in the kernel lock.
    pub fn new(value: T) -> KernelLock<T> {
        KernelLock {
            inner: Mutex::new(value),
        }
    }

    /// Locks, poison-tolerantly (see [`crate::sync::MutexExt`]),
    /// checking the ordering DAG and counting contention.
    pub fn lock_ok(&self) -> KernelGuard<'_, T> {
        let token = OrderToken::enter(LockClass::Kernel);
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                note_contention(LockClass::Kernel);
                self.inner
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
            }
        };
        KernelGuard {
            guard,
            _token: token,
        }
    }
}

/// Guard returned by [`KernelLock::lock_ok`]. Field order matters: the
/// mutex guard drops (releasing the lock) before the order token pops.
#[derive(Debug)]
pub struct KernelGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _token: OrderToken,
}

impl<T> std::ops::Deref for KernelGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for KernelGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_ranks_are_allowed() {
        let a = KernelLock::new(1u32);
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "might sleep while holding a lock")]
    fn a_leaf_lock_held_where_a_worker_may_sleep_asserts() {
        let pipe = Tracked::new(LockClass::Object, ());
        let _g = pipe.lock_ok();
        assert_none_held();
    }

    #[test]
    #[should_panic(expected = "the kernel lock is a KernelLock")]
    fn the_kernel_class_is_not_a_leaf_lock() {
        let _ = Tracked::new(LockClass::Kernel, ());
    }

    #[test]
    fn nothing_held_is_nothing_held() {
        let a = Tracked::new(LockClass::Object, ());
        drop(a.lock_ok());
        drop(KernelLock::new(()).lock_ok());
        assert_none_held();
    }

    #[test]
    fn four_threads_never_lose_an_increment() {
        // A plain `u64` behind the lock: a lost update, or two holders at
        // once, shows in the total.
        const THREADS: u64 = 4;
        const EACH: u64 = 100_000;
        let counter = Tracked::new(LockClass::Vfs, 0u64);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..EACH {
                        *counter.lock_ok() += 1;
                    }
                });
            }
        });
        assert_eq!(counter.into_inner(), THREADS * EACH);
    }

    #[test]
    fn contention_is_counted() {
        let m = Tracked::new(LockClass::ReadyHub, 0u64);
        let before = contention(LockClass::ReadyHub);
        let g = m.lock_ok();
        std::thread::scope(|s| {
            s.spawn(|| *m.lock_ok() += 1);
            // Held until the taker has counted itself contended (or some
            // other test's taker has: either way the release follows).
            while contention(LockClass::ReadyHub) == before {
                std::thread::yield_now();
            }
            assert_eq!(*g, 0, "the taker waits for the release");
            drop(g);
        });
        assert_eq!(*m.lock_ok(), 1);
        assert!(contention(LockClass::ReadyHub) > before);
    }

    #[test]
    fn a_panicking_holder_leaves_the_lock_usable() {
        let m = Tracked::new(LockClass::Object, 7u32);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock_ok();
            panic!("unwinds through the guard");
        }));
        assert!(r.is_err());
        assert_eq!(*m.lock_ok(), 7);
    }
}
