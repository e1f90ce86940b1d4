//! Shared-state primitives for the SMP kernel.
//!
//! The kernel model used to be single-threaded (`Rc<RefCell<…>>`
//! everywhere). The SMP executor interprets runnable tasks on a pool of
//! host worker threads, so every piece of state that `clone` semantics
//! share between tasks — fd tables, open file descriptions, fs info,
//! signal handlers, pending sets — is now an [`Shared`] handle with its
//! own lock, independently lockable from the kernel core.
//!
//! Lock ordering (see DESIGN.md "Concurrency" and
//! [`crate::lockorder`]): the tracked classes form a DAG acquired
//! strictly downward — `Kernel → ReadyHub → Epoll → Object →
//! Description → Vfs → Waits` — enforced by a debug-build rank stack.
//! The other per-task shards (fd table, fs info, signal handlers,
//! pending sets) are plain mutexes nesting inside whatever class is
//! held; the scheduler's queue locks are never held across a kernel
//! call. The virtual clock is lock-free (atomics) and
//! may be read or ticked from any level.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::task::Shares;

/// A shared, independently lockable shard of kernel state.
pub type Shared<T> = Arc<Mutex<T>>;

/// Creates a [`Shared`] shard.
pub fn shared<T>(value: T) -> Shared<T> {
    Arc::new(Mutex::new(value))
}

/// Poison-tolerant locking: a worker that panics mid-slice must not
/// poison every sibling's view of the kernel (the state is still
/// consistent at syscall granularity — kernel methods never unwind while
/// holding partial updates in a way later calls observe).
pub trait MutexExt<T> {
    /// Locks, recovering the guard from a poisoned mutex.
    fn lock_ok(&self) -> MutexGuard<'_, T>;
}

impl<T> MutexExt<T> for Mutex<T> {
    fn lock_ok(&self) -> MutexGuard<'_, T> {
        crate::lockorder::note_acquired();
        self.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Multiply-rotate hasher for the kernel's own small keys (tids, fd
/// numbers, futex words, eventfd identities, socket addresses). The
/// event path probes such maps several times per wakeup, where SipHash
/// was a seventh of `prefork_serve`'s profile; none of these maps is
/// keyed by bytes a guest can choose freely enough to engineer
/// collisions worth defending against, and — unlike the randomly seeded
/// default — iteration order is the same in every process.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    // The keys these maps really have — a tid, an fd, a slab id, a futex
    // word — are one integer: one inlined mix instead of a call into the
    // byte loop (2.3 % of a `prefork_serve` request once the runner's
    // task map hashed), and the value `write` gives the integer's
    // little-endian bytes, so every map iterates as it always did.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.mix(n as u32 as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// A shared boolean hint flag (the per-task signal fast path): the
/// handle on the flag in a task's [`Shares`] block — the task, the
/// embedder's context and whoever signals it hold one each.
///
/// Safepoint polling happens on the worker running the task while signal
/// generation can happen on any other worker, so the flag is an atomic.
/// `Relaxed` suffices — the flag is a *hint*; the authoritative pending
/// state is read under the kernel lock, which orders the actual
/// delivery.
#[derive(Clone, Debug)]
pub struct HintFlag(Arc<Shares>);

impl HintFlag {
    /// The flag of `block`.
    pub(crate) fn of(block: Arc<Shares>) -> HintFlag {
        HintFlag(block)
    }

    /// Reads the hint.
    #[inline]
    pub fn get(&self) -> bool {
        self.as_atomic().load(Ordering::Relaxed)
    }

    /// Sets or clears the hint.
    #[inline]
    pub fn set(&self, value: bool) {
        self.as_atomic().store(value, Ordering::Relaxed);
    }

    /// The flag itself, for a reader that polls it in a loop of its own
    /// (the interpreter's safepoints) with the relaxed load [`get`] makes.
    ///
    /// [`get`]: HintFlag::get
    #[inline]
    pub fn as_atomic(&self) -> &AtomicBool {
        &self.0.sig_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_flag_is_shared_between_clones() {
        let a = crate::Task::init(0).sig_hint;
        let b = a.clone();
        assert!(!b.get());
        a.set(true);
        assert!(b.get());
        b.set(false);
        assert!(!a.get());
    }

    #[test]
    fn fast_map_behaves_like_a_map_over_clustered_keys() {
        // Slab ids and tids are small and dense; the low bits hashbrown
        // indexes by must still spread.
        let mut m: FastMap<(u64, u32), usize> = FastMap::default();
        for i in 0..10_000usize {
            m.insert((7, i as u32 * 4), i);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000usize).all(|i| m.get(&(7, i as u32 * 4)) == Some(&i)));
        let h = |k: u64| {
            let mut s = FastHasher::default();
            s.write(&k.to_le_bytes());
            s.finish()
        };
        // The integer entry points hash what their bytes would.
        let via = |f: &dyn Fn(&mut FastHasher)| {
            let mut s = FastHasher::default();
            s.write_u64(3); // some prior state
            f(&mut s);
            s.finish()
        };
        for n in [0u32, 1, 7, 0x8000_0001, u32::MAX] {
            let bytes = via(&|s| s.write(&n.to_le_bytes()));
            assert_eq!(via(&|s| s.write_u32(n)), bytes);
            assert_eq!(via(&|s| s.write_i32(n as i32)), bytes);
            let wide = n as u64 | (n as u64) << 33;
            assert_eq!(
                via(&|s| s.write_usize(wide as usize)),
                via(&|s| s.write(&wide.to_le_bytes()))
            );
        }
        let low7: FastSet<u64> = (0..128).map(|k| h(k) & 127).collect();
        assert!(low7.len() > 64, "low bits spread: {}", low7.len());
    }

    #[test]
    fn lock_ok_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock_ok(), 7);
    }
}
