//! Syscall tracing and time breakdown.
//!
//! Two experiments read this data: Fig. 2 (per-application syscall
//! frequency profiles) and Fig. 7 (wasm-app / kernel / wali runtime
//! breakdown). Kernel time is measured around kernel-model invocations and
//! WALI time is the remaining host-call time, exactly mirroring how the
//! paper splits the stack.
//!
//! Counts are always on. The Fig. 7 timings are recorded only when a run
//! asks for them ([`Trace::timing`], set through
//! `WaliRunner::set_layer_timing`): splitting one crossing takes four
//! clock reads, which cost more than the crossing itself and land in the
//! very slices being measured.
//!
//! Counting is on every syscall's hot path, so [`SysCounts`] stores one
//! cell per row of the syscall table, indexed by its
//! [`wali_abi::spec::Sysno`] — one add per call.
//!
//! A table is 174 counters, and a run may fork thousands of tasks that
//! make five calls each: the array is made by the first call counted in
//! it, and the runner lends a task the table of whoever runs it
//! (`task::run_slice`) — so a task counts into a table that already
//! exists, and nothing is added up when it exits.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wali_abi::spec::{self, Sysno};

/// Per-syscall invocation counters, one cell per table row. Owned by
/// whoever counts: every update is a plain add through `&mut`.
#[derive(Clone, Default)]
pub struct SysCounts {
    /// One cell per row, or none at all before the first count.
    dense: Vec<u64>,
}

impl SysCounts {
    /// Records one invocation (the hot path): an indexed add — the
    /// bounds check is the one indexing makes anyway, its failure the
    /// table's first use.
    #[inline]
    pub fn bump(&mut self, sysno: Sysno) {
        match self.dense.get_mut(sysno as usize) {
            Some(cell) => *cell += 1,
            None => self.table()[sysno as usize] += 1,
        }
    }

    /// The dense cells, made if this is their first use.
    #[cold]
    fn table(&mut self) -> &mut [u64] {
        self.dense.resize(spec::ROWS, 0);
        &mut self.dense
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &SysCounts) {
        // Only the nonzero cells: a table nobody counted in does not
        // make this one.
        for (i, n) in other.dense.iter().enumerate().filter(|(_, n)| **n != 0) {
            self.table()[i] += n;
        }
    }

    /// The count recorded for `sysno` (0 when never invoked).
    pub fn of(&self, sysno: Sysno) -> u64 {
        self.dense.get(sysno as usize).copied().unwrap_or(0)
    }

    /// The count for `sysno`, if any were recorded.
    pub fn get(&self, sysno: Sysno) -> Option<u64> {
        let c = self.of(sysno);
        (c > 0).then_some(c)
    }

    /// True if `sysno` was invoked at least once.
    pub fn contains_key(&self, sysno: Sysno) -> bool {
        self.get(sysno).is_some()
    }

    /// `(name, count)` pairs with nonzero counts, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let rows = self.dense.iter().zip(spec::rows());
        rows.filter(|(c, _)| **c > 0).map(|(c, s)| (s.name, *c))
    }

    /// Iterates over invoked syscall names.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.iter().map(|(n, _)| n)
    }

    /// Number of distinct invoked syscalls.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.dense.iter().sum()
    }

    /// Snapshot as an ordinary name-keyed map (report binaries).
    pub fn to_map(&self) -> BTreeMap<&'static str, u64> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for &'a SysCounts {
    type Item = (&'static str, u64);
    type IntoIter = Box<dyn Iterator<Item = (&'static str, u64)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Equal counts, whether or not either side ever made its table.
impl PartialEq for SysCounts {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for SysCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Per-task syscall counts and layer timings.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Number of invocations per syscall name.
    pub counts: SysCounts,
    /// Whether this run records the three layer timings below; they stay
    /// zero otherwise.
    pub timing: bool,
    /// Wall time spent inside host (WALI + kernel) calls.
    pub host_time: Duration,
    /// Wall time spent inside the kernel model.
    pub kernel_time: Duration,
    /// Total wall time of the task (set by the runner).
    pub total_time: Duration,
    /// `read`/`write` calls served by the kernel's shards alone — a
    /// regular file, a pipe, an eventfd, a stream socket with bytes or
    /// room ready — without the kernel lock (`crate::fastpath`).
    pub fastpath_hits: u64,
    /// Executed Wasm ops (engine step counter snapshot).
    pub wasm_steps: u64,
    /// Of `wasm_steps`, ops dispatched by the tier-2 register loop
    /// (`wasm_steps - reg_steps` ran on the stack tier).
    pub reg_steps: u64,
}

impl Trace {
    /// A fresh trace for a task forked or cloned off this one: same
    /// recording settings, nothing recorded.
    pub fn child(&self) -> Trace {
        Trace {
            timing: self.timing,
            ..Trace::default()
        }
    }

    /// Start of a timed layer section: the clock, if this run records
    /// layer timing.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        self.timing.then(Instant::now)
    }

    /// Total syscall invocations.
    pub fn total_syscalls(&self) -> u64 {
        self.counts.total()
    }

    /// Number of distinct syscalls used.
    pub fn unique_syscalls(&self) -> usize {
        self.counts.len()
    }

    /// Time attributed to the WALI interface layer itself.
    pub fn wali_time(&self) -> Duration {
        self.host_time.saturating_sub(self.kernel_time)
    }

    /// Time attributed to Wasm application code.
    pub fn wasm_time(&self) -> Duration {
        self.total_time.saturating_sub(self.host_time)
    }

    /// Fractional breakdown `(wasm, kernel, wali)` of total time.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.total_time.as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.wasm_time().as_secs_f64() / total,
            self.kernel_time.as_secs_f64() / total,
            self.wali_time().as_secs_f64() / total,
        )
    }

    /// Merges another trace into this one (multi-task aggregation).
    pub fn merge(&mut self, other: &Trace) {
        self.counts.merge(&other.counts);
        self.timing |= other.timing;
        self.host_time += other.host_time;
        self.kernel_time += other.kernel_time;
        self.total_time += other.total_time;
        self.fastpath_hits += other.fastpath_hits;
        self.wasm_steps += other.wasm_steps;
        self.reg_steps += other.reg_steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut t = Trace::default();
        t.counts.bump(Sysno::read);
        t.counts.bump(Sysno::read);
        t.counts.bump(Sysno::write);
        assert_eq!(t.counts.of(Sysno::read), 2);
        assert_eq!(t.total_syscalls(), 3);
        assert_eq!(t.unique_syscalls(), 2);
    }

    #[test]
    fn dense_and_named_counts_agree() {
        let mut c = SysCounts::default();
        assert!(
            c.is_empty() && c.of(Sysno::read) == 0,
            "no table yet, all zero"
        );
        c.bump(Sysno::read);
        c.bump(Sysno::read);
        // An extension row counts like a spec row.
        c.bump(Sysno::wali_ring_enter);
        assert_eq!(c.of(Sysno::read), 2);
        assert_eq!(c.of(Sysno::wali_ring_enter), 1);
        assert!(c.contains_key(Sysno::wali_ring_enter));
        assert!(!c.contains_key(Sysno::write));
        assert_eq!(c.total(), 3);
        assert_eq!(
            c.to_map().into_iter().collect::<Vec<_>>(),
            [("read", 2), ("wali_ring_enter", 1)]
        );
    }

    #[test]
    fn breakdown_partitions_total() {
        let t = Trace {
            total_time: Duration::from_millis(100),
            host_time: Duration::from_millis(40),
            kernel_time: Duration::from_millis(30),
            ..Default::default()
        };
        let (wasm, kernel, wali) = t.breakdown();
        assert!((wasm - 0.6).abs() < 1e-9);
        assert!((kernel - 0.3).abs() < 1e-9);
        assert!((wali - 0.1).abs() < 1e-9);
        assert!((wasm + kernel + wali - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Trace::default();
        a.counts.bump(Sysno::read);
        a.host_time = Duration::from_millis(5);
        let mut b = Trace::default();
        b.counts.bump(Sysno::read);
        b.counts.bump(Sysno::mmap);
        b.kernel_time = Duration::from_millis(3);
        a.merge(&b);
        assert_eq!(a.counts.of(Sysno::read), 2);
        assert_eq!(a.counts.of(Sysno::mmap), 1);
        assert_eq!(a.kernel_time, Duration::from_millis(3));
        // A table nobody counted in adds nothing and makes nothing.
        let mut sum = Trace::default();
        sum.merge(&Trace::default().child());
        assert!(sum.counts.dense.is_empty());
        sum.merge(&a);
        assert_eq!(sum.counts, a.counts);
        assert_ne!(sum.counts, b.counts);
    }
}
