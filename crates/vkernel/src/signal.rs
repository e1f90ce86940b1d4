//! Signal state: handler tables, pending sets and delivery selection.
//!
//! The kernel owns *generation* and *pending/mask* state (paper §3.3 stages
//! 2–3); the WALI layer owns the virtual sigtable of Wasm function pointers
//! and handler *execution* at safepoints (stages 1 and 4).

use std::sync::Arc;

use wali_abi::layout::WaliSigaction;
use wali_abi::signals::{DefaultDisposition, SigSet, Signal, NSIG, SIG_DFL, SIG_IGN};

/// A copy-on-write table with one slot per signal number — the cell
/// behind the kernel's handler table ([`SigHandlers`]) and the WALI
/// layer's table of Wasm handlers (`wali::sigtable::SigTable`). A table
/// nobody has written is not there at all, and a copy shares its
/// original's slots until either side writes. [`PerSignal`] reads and
/// writes it.
pub type SigCell<T> = Option<Arc<[T; NSIG]>>;

/// Slot access to a [`SigCell`], and the one place a signal number is
/// range-checked: a number outside `1..NSIG` reads as the default and
/// writes nothing.
pub trait PerSignal<T> {
    /// The slot of `signo`.
    fn get_slot(&self, signo: i32) -> T;

    /// Replaces the slot of `signo`, returning what it held.
    fn set_slot(&mut self, signo: i32, value: T) -> T;

    /// The cell's own, writable slots: made on the first write, copied
    /// on the first write after a copy was taken.
    fn own_slots(&mut self) -> &mut [T; NSIG];
}

impl<T: Copy + Default> PerSignal<T> for SigCell<T> {
    fn get_slot(&self, signo: i32) -> T {
        match (self, slot_of(signo)) {
            (Some(slots), Some(i)) => slots[i],
            _ => T::default(),
        }
    }

    fn set_slot(&mut self, signo: i32, value: T) -> T {
        match slot_of(signo) {
            Some(i) => std::mem::replace(&mut self.own_slots()[i], value),
            None => T::default(),
        }
    }

    fn own_slots(&mut self) -> &mut [T; NSIG] {
        Arc::make_mut(self.get_or_insert_with(|| Arc::new([T::default(); NSIG])))
    }
}

fn slot_of(signo: i32) -> Option<usize> {
    (1..NSIG as i32).contains(&signo).then_some(signo as usize)
}

/// Per-process signal handler table (shared under `CLONE_SIGHAND`).
///
/// A copy shares the table with its original until one of them is
/// written (`fork` copies a process's handlers; few children ever call
/// `rt_sigaction`), and a table nobody has written is not there at all:
/// every action reads as the default.
#[derive(Clone, Debug, Default)]
pub struct SigHandlers {
    actions: SigCell<WaliSigaction>,
}

impl SigHandlers {
    /// All-default handler table.
    pub fn new() -> SigHandlers {
        SigHandlers::default()
    }

    /// The action registered for `signo`.
    pub fn get(&self, signo: i32) -> WaliSigaction {
        self.actions.get_slot(signo)
    }

    /// Replaces the action for `signo`, returning the old one.
    pub fn set(&mut self, signo: i32, action: WaliSigaction) -> WaliSigaction {
        self.actions.set_slot(signo, action)
    }

    /// Resets caught signals to default on `execve` (ignored dispositions
    /// are preserved, per POSIX).
    pub fn reset_for_exec(&mut self) {
        let caught = |a: &WaliSigaction| a.handler != SIG_IGN && *a != WaliSigaction::default();
        if !self.actions.as_ref().is_some_and(|a| a.iter().any(caught)) {
            return;
        }
        for a in self
            .actions
            .own_slots()
            .iter_mut()
            .filter(|a| a.handler != SIG_IGN)
        {
            *a = WaliSigaction::default();
        }
    }
}

/// A set of pending signals with FIFO arrival order for equal priority.
#[derive(Clone, Debug, Default)]
pub struct PendingSet {
    set: SigSet,
}

impl PendingSet {
    /// Adds `signo` (idempotent: classic signals do not queue).
    pub fn add(&mut self, signo: i32) {
        self.set.insert(signo);
    }

    /// True if `signo` is pending.
    pub fn contains(&self, signo: i32) -> bool {
        self.set.contains(signo)
    }

    /// The pending set as a mask.
    pub fn mask(&self) -> SigSet {
        self.set
    }

    /// Removes and returns the lowest-numbered pending signal not blocked
    /// by `mask`.
    pub fn take_deliverable(&mut self, mask: SigSet) -> Option<i32> {
        let deliverable = SigSet(self.set.0 & !mask.0);
        let signo = deliverable.lowest()?;
        self.set.remove(signo);
        Some(signo)
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.set.0 == 0
    }
}

/// What the kernel decides should happen for a deliverable signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Invoke the registered Wasm handler (table index in the action).
    Handler(WaliSigaction),
    /// Ignore silently.
    Ignore,
    /// Terminate the process with this signal (term or core).
    Kill,
    /// Stop the process.
    Stop,
    /// Continue the process.
    Continue,
}

/// Computes the disposition of `signo` under `action`.
pub fn disposition(signo: i32, action: WaliSigaction) -> Disposition {
    match action.handler {
        SIG_IGN => Disposition::Ignore,
        SIG_DFL => match Signal::from_number(signo).map(|s| s.default_disposition()) {
            Some(DefaultDisposition::Ignore) => Disposition::Ignore,
            Some(DefaultDisposition::Stop) => Disposition::Stop,
            Some(DefaultDisposition::Continue) => Disposition::Continue,
            Some(DefaultDisposition::Terminate) | Some(DefaultDisposition::CoreDump) => {
                Disposition::Kill
            }
            // Realtime-range signals default to terminate.
            None => Disposition::Kill,
        },
        _ => Disposition::Handler(action),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wali_abi::signals::SA_RESTART;

    #[test]
    fn handler_set_returns_old() {
        let mut h = SigHandlers::new();
        let a = WaliSigaction {
            handler: 5,
            flags: SA_RESTART,
            mask: 0,
        };
        let old = h.set(2, a);
        assert_eq!(old, WaliSigaction::default());
        assert_eq!(h.set(2, WaliSigaction::default()), a);
    }

    #[test]
    fn a_copy_shares_the_table_until_either_side_writes() {
        let act = |handler| WaliSigaction {
            handler,
            flags: 0,
            mask: 0,
        };
        let mut parent = SigHandlers::new();
        assert!(parent.actions.is_none(), "nothing written, nothing made");
        assert_eq!(parent.clone().get(17), WaliSigaction::default());
        parent.set(17, act(5));
        let mut child = parent.clone();
        let shared = |a: &SigHandlers, b: &SigHandlers| match (&a.actions, &b.actions) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert!(shared(&parent, &child));
        // Reads and an exec with nothing to reset leave it shared.
        assert_eq!(child.get(17), act(5));
        let mut ignoring = SigHandlers::new();
        ignoring.set(2, act(SIG_IGN));
        let mut image = ignoring.clone();
        image.reset_for_exec();
        assert!(shared(&ignoring, &image));
        // The child's write is the child's alone, and the parent's the
        // parent's.
        child.set(17, act(9));
        assert!(!shared(&parent, &child));
        assert_eq!((parent.get(17), child.get(17)), (act(5), act(9)));
        let third = parent.clone();
        parent.set(10, act(3));
        assert_eq!((parent.get(10), third.get(10)), (act(3), act(0)));
        // Out-of-range numbers read as the default.
        assert_eq!(parent.get(-1), WaliSigaction::default());
        assert_eq!(parent.get(1000), WaliSigaction::default());
    }

    #[test]
    fn an_out_of_range_number_reads_the_default_and_writes_nothing() {
        let act = WaliSigaction {
            handler: 5,
            flags: 0,
            mask: 0,
        };
        let mut h = SigHandlers::new();
        for signo in [i32::MIN, -1, 0, NSIG as i32, 1000] {
            assert_eq!(h.set(signo, act), WaliSigaction::default());
            assert_eq!(h.get(signo), WaliSigaction::default());
        }
        assert!(h.actions.is_none(), "no write, nothing made");
        h.set(NSIG as i32 - 1, act);
        assert_eq!(h.get(NSIG as i32 - 1), act);
    }

    #[test]
    fn exec_reset_preserves_ignored() {
        let mut h = SigHandlers::new();
        h.set(
            2,
            WaliSigaction {
                handler: SIG_IGN,
                flags: 0,
                mask: 0,
            },
        );
        h.set(
            15,
            WaliSigaction {
                handler: 7,
                flags: 0,
                mask: 0,
            },
        );
        h.reset_for_exec();
        assert_eq!(h.get(2).handler, SIG_IGN);
        assert_eq!(h.get(15).handler, SIG_DFL);
    }

    #[test]
    fn pending_respects_mask_and_priority() {
        let mut p = PendingSet::default();
        p.add(15);
        p.add(2);
        let mut mask = SigSet::EMPTY;
        mask.insert(2);
        // 2 is blocked: 15 is delivered first.
        assert_eq!(p.take_deliverable(mask), Some(15));
        assert_eq!(p.take_deliverable(mask), None);
        // Unblock: 2 is delivered.
        assert_eq!(p.take_deliverable(SigSet::EMPTY), Some(2));
        assert!(p.is_empty());
    }

    #[test]
    fn pending_does_not_queue_duplicates() {
        let mut p = PendingSet::default();
        p.add(10);
        p.add(10);
        assert_eq!(p.take_deliverable(SigSet::EMPTY), Some(10));
        assert_eq!(p.take_deliverable(SigSet::EMPTY), None);
    }

    #[test]
    fn dispositions_follow_defaults() {
        let dfl = WaliSigaction::default();
        assert_eq!(
            disposition(17, dfl),
            Disposition::Ignore,
            "SIGCHLD default ignore"
        );
        assert_eq!(
            disposition(15, dfl),
            Disposition::Kill,
            "SIGTERM default kill"
        );
        assert_eq!(disposition(19, dfl), Disposition::Stop, "SIGSTOP stops");
        assert_eq!(
            disposition(18, dfl),
            Disposition::Continue,
            "SIGCONT continues"
        );
        let ign = WaliSigaction {
            handler: SIG_IGN,
            ..dfl
        };
        assert_eq!(disposition(15, ign), Disposition::Ignore);
        let h = WaliSigaction { handler: 42, ..dfl };
        assert_eq!(disposition(15, h), Disposition::Handler(h));
    }
}
