//! The name-bound WALI syscall specification.
//!
//! WALI exposes syscalls as named Wasm host functions with statically
//! defined type signatures (§3.5). The specification below is the union of
//! implemented syscalls across ISAs; each entry records its implementation
//! class per the kernel-interface recipe (§5):
//!
//! * [`SyscallClass::Passthrough`] — scalar and raw-buffer arguments only;
//!   requires nothing beyond address-space translation (recipe steps 1–2)
//!   and is therefore mechanically generatable.
//! * [`SyscallClass::Translated`] — at least one ISA-variant structured
//!   argument, requiring explicit layout conversion (recipe step 3).
//! * [`SyscallClass::Stateful`] — requires engine-side bookkeeping (mmap
//!   pool, virtual sigtable, process model; recipe steps 4–6).
//!
//! The paper reports that >85 % of WALI could be auto-generated because
//! most calls are passthrough; `tests::autogen_fraction` asserts the same
//! property of this table.

use crate::isa::Isa;
use crate::tables;

/// Implementation class of a WALI syscall (recipe §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyscallClass {
    /// Pure address-space-translated passthrough.
    Passthrough,
    /// Needs ISA-portable struct layout conversion.
    Translated,
    /// Needs engine-side state (mmap pool, sigtable, process model).
    Stateful,
}

/// One entry of the WALI syscall specification.
#[derive(Clone, Copy, Debug)]
pub struct WaliSyscall {
    /// Linux syscall name; the Wasm import is `wali.SYS_<name>`.
    pub name: &'static str,
    /// Number of i64-typed Wasm parameters.
    pub args: u8,
    /// Implementation class.
    pub class: SyscallClass,
}

impl WaliSyscall {
    /// The Wasm import name for this syscall (`SYS_<name>` in module `wali`).
    pub fn import_name(&self) -> String {
        format!("SYS_{}", self.name)
    }

    /// Whether the host ISA implements this syscall natively.
    ///
    /// Calls absent from an ISA's table are still part of the WALI spec
    /// (name binding over the union); implementations either emulate them
    /// via newer alternatives (e.g. `open` via `openat`) or trap.
    pub fn native_on(&self, isa: Isa) -> bool {
        tables::syscalls(isa).contains(self.name)
    }
}

use SyscallClass::{Passthrough as P, Stateful as S, Translated as T};

macro_rules! sc {
    ($name:literal, $args:literal, $class:expr) => {
        WaliSyscall {
            name: $name,
            args: $args,
            class: $class,
        }
    };
}

/// The WALI syscall specification table.
///
/// Sized to the paper's "137 most common syscalls" coverage plus the
/// legacy x86-64 aliases needed to run unmodified applications.
pub const SPEC: &[WaliSyscall] = &[
    // File I/O.
    sc!("read", 3, P),
    sc!("write", 3, P),
    sc!("open", 3, P),
    sc!("openat", 4, P),
    sc!("close", 1, P),
    sc!("lseek", 3, P),
    sc!("pread64", 4, P),
    sc!("pwrite64", 4, P),
    sc!("readv", 3, T),
    sc!("writev", 3, T),
    sc!("preadv", 4, T),
    sc!("pwritev", 4, T),
    sc!("sendfile", 4, P),
    sc!("copy_file_range", 6, P),
    sc!("dup", 1, P),
    sc!("dup2", 2, P),
    sc!("dup3", 3, P),
    sc!("pipe", 1, P),
    sc!("pipe2", 2, P),
    sc!("fcntl", 3, P),
    sc!("ioctl", 3, P),
    sc!("flock", 2, P),
    sc!("fsync", 1, P),
    sc!("fdatasync", 1, P),
    sc!("sync", 0, P),
    sc!("truncate", 2, P),
    sc!("ftruncate", 2, P),
    sc!("fallocate", 4, P),
    // Filesystem namespace.
    sc!("stat", 2, T),
    sc!("fstat", 2, T),
    sc!("lstat", 2, T),
    sc!("newfstatat", 4, T),
    sc!("statx", 5, T),
    sc!("access", 2, P),
    sc!("faccessat", 3, P),
    sc!("faccessat2", 4, P),
    sc!("getdents64", 3, T),
    sc!("getcwd", 2, P),
    sc!("chdir", 1, P),
    sc!("fchdir", 1, P),
    sc!("mkdir", 2, P),
    sc!("mkdirat", 3, P),
    sc!("rmdir", 1, P),
    sc!("rename", 2, P),
    sc!("renameat", 4, P),
    sc!("renameat2", 5, P),
    sc!("link", 2, P),
    sc!("linkat", 5, P),
    sc!("unlink", 1, P),
    sc!("unlinkat", 3, P),
    sc!("symlink", 2, P),
    sc!("symlinkat", 3, P),
    sc!("readlink", 3, P),
    sc!("readlinkat", 4, P),
    sc!("chmod", 2, P),
    sc!("fchmod", 2, P),
    sc!("fchmodat", 3, P),
    sc!("chown", 3, P),
    sc!("fchown", 3, P),
    sc!("fchownat", 5, P),
    sc!("umask", 1, P),
    sc!("mknod", 3, P),
    sc!("utimensat", 4, T),
    sc!("statfs", 2, T),
    sc!("fstatfs", 2, T),
    // Memory management.
    sc!("mmap", 6, S),
    sc!("munmap", 2, S),
    sc!("mremap", 5, S),
    sc!("mprotect", 3, P),
    sc!("brk", 1, S),
    sc!("madvise", 3, P),
    sc!("msync", 3, P),
    sc!("mlock", 2, P),
    sc!("munlock", 2, P),
    sc!("membarrier", 3, P),
    sc!("mincore", 3, P),
    // Processes and threads.
    sc!("clone", 5, S),
    sc!("fork", 0, S),
    sc!("vfork", 0, S),
    sc!("execve", 3, S),
    sc!("exit", 1, S),
    sc!("exit_group", 1, S),
    sc!("wait4", 4, T),
    sc!("waitid", 5, T),
    sc!("getpid", 0, P),
    sc!("getppid", 0, P),
    sc!("gettid", 0, P),
    sc!("getpgid", 1, P),
    sc!("setpgid", 2, P),
    sc!("getpgrp", 0, P),
    sc!("setsid", 0, P),
    sc!("getsid", 1, P),
    sc!("kill", 2, P),
    sc!("tkill", 2, P),
    sc!("tgkill", 3, P),
    sc!("sched_yield", 0, P),
    sc!("sched_getaffinity", 3, P),
    sc!("sched_setaffinity", 3, P),
    sc!("getpriority", 2, P),
    sc!("setpriority", 3, P),
    sc!("getrlimit", 2, T),
    sc!("setrlimit", 2, T),
    sc!("prlimit64", 4, T),
    sc!("getrusage", 2, T),
    sc!("times", 1, T),
    sc!("set_tid_address", 1, S),
    sc!("prctl", 5, P),
    sc!("personality", 1, P),
    // Signals.
    sc!("rt_sigaction", 4, S),
    sc!("rt_sigprocmask", 4, P),
    sc!("rt_sigpending", 2, P),
    sc!("rt_sigsuspend", 2, S),
    sc!("rt_sigtimedwait", 4, T),
    sc!("rt_sigqueueinfo", 3, T),
    sc!("rt_sigreturn", 0, S),
    sc!("sigaltstack", 2, T),
    sc!("pause", 0, S),
    sc!("alarm", 1, S),
    // Identity.
    sc!("getuid", 0, P),
    sc!("geteuid", 0, P),
    sc!("getgid", 0, P),
    sc!("getegid", 0, P),
    sc!("setuid", 1, P),
    sc!("setgid", 1, P),
    sc!("getgroups", 2, P),
    sc!("setgroups", 2, P),
    sc!("getresuid", 3, P),
    sc!("getresgid", 3, P),
    sc!("setresuid", 3, P),
    sc!("setresgid", 3, P),
    sc!("setreuid", 2, P),
    sc!("setregid", 2, P),
    // Sockets.
    sc!("socket", 3, P),
    sc!("socketpair", 4, P),
    sc!("bind", 3, T),
    sc!("listen", 2, P),
    sc!("accept", 3, T),
    sc!("accept4", 4, T),
    sc!("connect", 3, T),
    sc!("getsockname", 3, T),
    sc!("getpeername", 3, T),
    sc!("sendto", 6, T),
    sc!("recvfrom", 6, T),
    sc!("sendmsg", 3, T),
    sc!("recvmsg", 3, T),
    sc!("setsockopt", 5, P),
    sc!("getsockopt", 5, P),
    sc!("shutdown", 2, P),
    // Readiness.
    sc!("poll", 3, T),
    sc!("ppoll", 4, T),
    sc!("select", 5, T),
    sc!("pselect6", 6, T),
    sc!("epoll_create1", 1, P),
    sc!("epoll_ctl", 4, T),
    sc!("epoll_wait", 4, T),
    sc!("epoll_pwait", 5, T),
    sc!("eventfd2", 2, P),
    // Time.
    sc!("nanosleep", 2, T),
    sc!("clock_gettime", 2, T),
    sc!("clock_getres", 2, T),
    sc!("clock_nanosleep", 4, T),
    sc!("gettimeofday", 2, T),
    sc!("settimeofday", 2, T),
    sc!("getitimer", 2, T),
    sc!("setitimer", 3, T),
    // Miscellaneous.
    sc!("uname", 1, T),
    sc!("sysinfo", 1, T),
    sc!("getrandom", 3, P),
    sc!("futex", 6, S),
    sc!("getcpu", 3, P),
    sc!("syslog", 3, P),
];

/// WALI support methods for external parameters (§3.4); not syscalls.
pub const SUPPORT_METHODS: &[&str] = &[
    "get_argc",
    "get_argv_len",
    "copy_argv",
    "get_envc",
    "get_env_len",
    "copy_env",
    "proc_exit",
];

/// Number of entries in [`SPEC`]; the size of dense per-syscall tables
/// (trace counters) indexed by [`sysno`].
pub const SPEC_LEN: usize = SPEC.len();

/// Resolves a syscall name to its dense index into [`SPEC`].
///
/// The index is the key of the dense trace counters: stable for a build, contiguous, and cheap to look up
/// (one hash over an interned map, done once at registration time — the
/// per-call paths only ever index with the result).
pub fn sysno(name: &str) -> Option<u16> {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static INDEX: OnceLock<HashMap<&'static str, u16>> = OnceLock::new();
    INDEX
        .get_or_init(|| {
            SPEC.iter()
                .enumerate()
                .map(|(i, s)| (s.name, i as u16))
                .collect()
        })
        .get(name)
        .copied()
}

/// Looks a spec entry up by syscall name.
pub fn lookup(name: &str) -> Option<&'static WaliSyscall> {
    SPEC.iter().find(|s| s.name == name)
}

/// Fraction of the spec that is mechanically generatable (recipe steps
/// 1–3): passthrough plus translated calls.
pub fn autogen_fraction() -> f64 {
    let auto = SPEC
        .iter()
        .filter(|s| {
            matches!(
                s.class,
                SyscallClass::Passthrough | SyscallClass::Translated
            )
        })
        .count();
    auto as f64 / SPEC.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn spec_has_no_duplicate_names() {
        let set: BTreeSet<_> = SPEC.iter().map(|s| s.name).collect();
        assert_eq!(set.len(), SPEC.len());
    }

    #[test]
    fn spec_size_matches_paper_coverage() {
        // The paper implements "the 137 most common syscalls"; the spec is
        // the superset including legacy aliases, approximately 150.
        assert!(SPEC.len() >= 137, "spec = {}", SPEC.len());
        assert!(SPEC.len() <= 200, "spec = {}", SPEC.len());
    }

    #[test]
    fn every_spec_entry_exists_on_some_isa() {
        use crate::isa::Isa;
        for s in SPEC {
            assert!(
                Isa::ALL.iter().any(|&isa| s.native_on(isa)),
                "{} is not in any ISA table",
                s.name
            );
        }
    }

    #[test]
    fn legacy_calls_are_x86_only() {
        for name in [
            "open", "stat", "fork", "pipe", "dup2", "access", "select", "poll",
        ] {
            let s = lookup(name).unwrap();
            assert!(s.native_on(Isa::X86_64), "{name}");
            assert!(!s.native_on(Isa::Riscv64), "{name}");
        }
    }

    #[test]
    fn modern_core_is_everywhere() {
        for name in [
            "openat",
            "read",
            "write",
            "mmap",
            "clone",
            "rt_sigaction",
            "futex",
        ] {
            let s = lookup(name).unwrap();
            for isa in Isa::ALL {
                assert!(s.native_on(isa), "{name} missing on {isa}");
            }
        }
    }

    #[test]
    fn autogen_fraction_exceeds_paper_claim() {
        // Paper §5: ">85% of the WALI implementation [was] auto-generated".
        assert!(
            autogen_fraction() > 0.85,
            "fraction = {}",
            autogen_fraction()
        );
    }

    #[test]
    fn import_names_are_name_bound() {
        assert_eq!(lookup("mmap").unwrap().import_name(), "SYS_mmap");
    }

    #[test]
    fn stateful_set_matches_design() {
        // The stateful set should stay small — that is what keeps the TCB
        // thin. Everything else must be derivable from the recipe.
        let stateful: Vec<_> = SPEC
            .iter()
            .filter(|s| s.class == SyscallClass::Stateful)
            .map(|s| s.name)
            .collect();
        assert!(stateful.len() <= 20, "stateful = {stateful:?}");
        for required in ["mmap", "munmap", "clone", "rt_sigaction", "execve", "fork"] {
            assert!(stateful.contains(&required), "{required} must be stateful");
        }
    }
}
