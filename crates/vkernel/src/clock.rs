//! Virtual clocks.
//!
//! All kernel-visible time is virtual and advances deterministically: a
//! small quantum per syscall (mode-switch cost model) plus explicit
//! advances by the scheduler when every task is blocked. `CLOCK_REALTIME`
//! is the monotonic clock plus a fixed boot epoch.
//!
//! The clock is the lock-free shard of the kernel: its state is one
//! atomic counter, so any worker thread can read or tick it without
//! taking the kernel lock. [`Clock::clone`] shares the underlying
//! counter — the kernel hands clones to the scheduler and to the
//! syscall fast path as independent handles onto the same virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wali_abi::Errno;

/// Nanoseconds the clock advances per syscall entry (mode-switch model).
pub const SYSCALL_QUANTUM_NS: u64 = 180;

/// Fixed boot epoch for `CLOCK_REALTIME` (2025-01-01T00:00:00Z).
pub const BOOT_EPOCH_NS: u64 = 1_735_689_600_000_000_000;

/// A deterministic virtual clock. Clones share the counter.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    mono_ns: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock at boot (monotonic 0).
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Current monotonic time in nanoseconds.
    #[inline]
    pub fn monotonic_ns(&self) -> u64 {
        self.mono_ns.load(Ordering::Relaxed)
    }

    /// Current realtime in nanoseconds since the Unix epoch.
    #[inline]
    pub fn realtime_ns(&self) -> u64 {
        BOOT_EPOCH_NS + self.monotonic_ns()
    }

    /// Advances the clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.mono_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Advances to at least `deadline` (no-op if already past).
    pub fn advance_to(&self, deadline: u64) {
        self.mono_ns.fetch_max(deadline, Ordering::Relaxed);
    }

    /// Per-syscall tick.
    pub fn tick(&self) {
        self.advance(SYSCALL_QUANTUM_NS);
    }

    /// `clock_gettime(clock_id)`: a read of the counter, like Linux's
    /// vDSO — no lock.
    pub fn gettime(&self, clock_id: i32) -> Result<u64, Errno> {
        use wali_abi::flags::*;
        match clock_id {
            CLOCK_REALTIME => Ok(self.realtime_ns()),
            CLOCK_MONOTONIC
            | CLOCK_MONOTONIC_RAW
            | CLOCK_PROCESS_CPUTIME_ID
            | CLOCK_THREAD_CPUTIME_ID => Ok(self.monotonic_ns()),
            _ => Err(Errno::Einval),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let c = Clock::new();
        assert_eq!(c.monotonic_ns(), 0);
        c.tick();
        assert_eq!(c.monotonic_ns(), SYSCALL_QUANTUM_NS);
        c.advance(1_000);
        assert_eq!(c.monotonic_ns(), SYSCALL_QUANTUM_NS + 1_000);
        c.advance_to(500);
        assert_eq!(
            c.monotonic_ns(),
            SYSCALL_QUANTUM_NS + 1_000,
            "never goes backwards"
        );
        c.advance_to(10_000);
        assert_eq!(c.monotonic_ns(), 10_000);
    }

    #[test]
    fn realtime_tracks_monotonic() {
        let c = Clock::new();
        assert_eq!(c.realtime_ns(), BOOT_EPOCH_NS);
        c.advance(5);
        assert_eq!(c.realtime_ns(), BOOT_EPOCH_NS + 5);
    }

    #[test]
    fn clones_share_the_counter() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.monotonic_ns(), 42, "handles onto one virtual time");
    }
}
