//! The virtual signal table (§3.3, stage 1).
//!
//! When a module registers a handler via `wali.SYS_rt_sigaction`, the Wasm
//! *table index* it passes is dereferenced once into a function index and
//! stored here; the kernel keeps the opaque table index so the old action
//! round-trips back to the module on later `rt_sigaction` calls. The table
//! costs well under 1 KiB, matching the paper's bookkeeping claim.

#[cfg(test)]
use std::sync::Arc;

use vkernel::signal::{PerSignal, SigCell};
use wali_abi::signals::NSIG;

/// One registered virtual handler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigEntry {
    /// The table index the application registered (returned as old action).
    pub table_index: u32,
    /// The dereferenced function index used for delivery.
    pub func_index: u32,
}

/// signo → registered Wasm handler. A copy (`fork`) shares the entries
/// with its original until either registers a handler; a table nobody
/// registered in has none.
#[derive(Clone, Debug, Default)]
pub struct SigTable {
    entries: SigCell<Option<SigEntry>>,
}

impl SigTable {
    /// An empty table.
    pub fn new() -> SigTable {
        SigTable::default()
    }

    /// Registers a handler, returning the previous entry.
    pub fn set(&mut self, signo: i32, entry: Option<SigEntry>) -> Option<SigEntry> {
        self.entries.set_slot(signo, entry)
    }

    /// Looks up the handler for `signo`.
    pub fn get(&self, signo: i32) -> Option<SigEntry> {
        self.entries.get_slot(signo)
    }

    /// In-engine footprint of a table with a handler registered, in
    /// bytes (paper: "<1 kB").
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<[Option<SigEntry>; NSIG]>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_replace() {
        let mut t = SigTable::new();
        assert_eq!(t.get(2), None);
        let e = SigEntry {
            table_index: 3,
            func_index: 17,
        };
        assert_eq!(t.set(2, Some(e)), None);
        assert_eq!(t.get(2), Some(e));
        let e2 = SigEntry {
            table_index: 4,
            func_index: 18,
        };
        assert_eq!(t.set(2, Some(e2)), Some(e));
        assert_eq!(t.set(2, None), Some(e2));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn a_copy_shares_the_entries_until_either_side_registers() {
        let e = |func_index| SigEntry {
            table_index: 1,
            func_index,
        };
        let mut parent = SigTable::new();
        parent.set(17, Some(e(5)));
        let mut child = parent.clone();
        let shared = |a: &SigTable, b: &SigTable| match (&a.entries, &b.entries) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert!(shared(&parent, &child) && child.get(17) == Some(e(5)));
        child.set(10, Some(e(6)));
        assert!(!shared(&parent, &child));
        assert_eq!((parent.get(10), child.get(10)), (None, Some(e(6))));
        let later = parent.clone();
        parent.set(17, None);
        assert_eq!((parent.get(17), later.get(17)), (None, Some(e(5))));
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut t = SigTable::new();
        assert_eq!(t.set(0, Some(SigEntry::default())), None);
        assert_eq!(t.set(100, Some(SigEntry::default())), None);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(-1), None);
    }

    #[test]
    fn footprint_is_under_1kib() {
        assert!(SigTable::new().footprint_bytes() < 1024);
    }
}
