//! Seccomp-like dynamic syscall policies, layered *over* WALI (§3.6).
//!
//! WALI deliberately does not implement `seccomp` in the engine; instead,
//! name-bound syscalls make it trivial to interpose uniform, ISA-agnostic
//! policies above the interface. A [`Policy`] is consulted before every
//! syscall; denial surfaces to the application as a plain errno (like
//! `SECCOMP_RET_ERRNO`) or a trap (like `SECCOMP_RET_KILL`).

use wali_abi::spec::{lookup, Sysno};
use wali_abi::Errno;

/// What to do with a denied syscall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenyAction {
    /// Fail the call with this errno.
    Errno(Errno),
    /// Trap (kill) the calling module.
    Kill,
}

/// Decision for one syscall attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Let the call through.
    Allow,
    /// Deny with the given action.
    Deny(DenyAction),
}

/// One bit per row of the syscall table.
#[derive(Clone, Copy, Debug, Default)]
struct RowSet([u64; Sysno::ALL.len().div_ceil(64)]);

impl RowSet {
    fn of(names: impl IntoIterator<Item = &'static str>) -> Box<RowSet> {
        let mut set = Box::<RowSet>::default();
        for s in names.into_iter().filter_map(lookup) {
            set.0[s as usize / 64] |= 1 << (s as usize % 64);
        }
        set
    }

    fn contains(&self, s: Sysno) -> bool {
        self.0[s as usize / 64] & 1 << (s as usize % 64) != 0
    }
}

/// A simple allow/deny-list syscall policy: one bit per syscall, looked
/// at by the row's index on every call.
#[derive(Clone, Debug)]
pub struct Policy {
    default_allow: bool,
    /// Boxed: every context carries an `Option<Policy>`.
    listed: Box<RowSet>,
    action: DenyAction,
    /// Names that were denied at least once, each once, in the order of
    /// their first denial (audit log).
    pub denied_log: Vec<&'static str>,
    /// Calls denied.
    pub denials: u64,
}

impl Policy {
    fn new(default_allow: bool, listed: Box<RowSet>, action: DenyAction) -> Policy {
        Policy {
            default_allow,
            listed,
            action,
            denied_log: Vec::new(),
            denials: 0,
        }
    }

    /// Allow everything except `denied` (deny-list mode). Names that are
    /// not syscalls of the table list nothing.
    pub fn deny_list(denied: impl IntoIterator<Item = &'static str>, action: DenyAction) -> Policy {
        Policy::new(true, RowSet::of(denied), action)
    }

    /// Deny everything except `allowed` (allow-list mode, the
    /// gVisor/Nabla-style restricted profile).
    pub fn allow_list(
        allowed: impl IntoIterator<Item = &'static str>,
        action: DenyAction,
    ) -> Policy {
        Policy::new(false, RowSet::of(allowed), action)
    }

    /// Decides whether `sysno` may proceed, logging denials.
    pub fn check(&mut self, sysno: Sysno) -> Verdict {
        if self.listed.contains(sysno) != self.default_allow {
            return Verdict::Allow;
        }
        self.denials += 1;
        let name = sysno.row().name;
        if !self.denied_log.contains(&name) {
            self.denied_log.push(name);
        }
        Verdict::Deny(self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_list_blocks_only_listed() {
        let mut p = Policy::deny_list(["execve", "fork"], DenyAction::Errno(Errno::Eperm));
        assert_eq!(p.check(Sysno::read), Verdict::Allow);
        assert_eq!(
            p.check(Sysno::execve),
            Verdict::Deny(DenyAction::Errno(Errno::Eperm))
        );
        assert_eq!(p.denied_log, vec!["execve"]);
    }

    #[test]
    fn allow_list_blocks_everything_else() {
        let mut p = Policy::allow_list(["read", "write", "exit_group"], DenyAction::Kill);
        assert_eq!(p.check(Sysno::write), Verdict::Allow);
        assert_eq!(p.check(Sysno::socket), Verdict::Deny(DenyAction::Kill));
        assert_eq!(p.check(Sysno::mmap), Verdict::Deny(DenyAction::Kill));
        assert_eq!(p.denied_log.len(), 2);
    }

    /// The log is the set of names denied, not a record of every call: a
    /// guest that retries a denied call forever grows a counter.
    #[test]
    fn the_denial_log_names_each_syscall_once() {
        let mut p = Policy::deny_list(["socket", "fork"], DenyAction::Errno(Errno::Eperm));
        for _ in 0..10_000 {
            assert_ne!(p.check(Sysno::socket), Verdict::Allow);
        }
        assert_ne!(p.check(Sysno::fork), Verdict::Allow);
        assert_ne!(p.check(Sysno::socket), Verdict::Allow);
        assert_eq!(p.denied_log, ["socket", "fork"]);
        assert_eq!(p.denials, 10_002);
        // Every row of the table has its bit, the last one included.
        let last = *Sysno::ALL.last().expect("rows");
        let mut p = Policy::allow_list([last.row().name], DenyAction::Kill);
        assert_eq!(p.check(last), Verdict::Allow);
        assert_ne!(p.check(Sysno::ALL[0]), Verdict::Allow);
    }
}
