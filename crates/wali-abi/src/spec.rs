//! The name-bound WALI syscall specification.
//!
//! WALI exposes syscalls as named Wasm host functions with statically
//! defined type signatures (§3.5). The specification below is the union of
//! implemented syscalls across ISAs, written once as the
//! [`wali_syscalls!`](crate::wali_syscalls) table: each row gives the
//! name, the typed parameters, the implementation class per the
//! kernel-interface recipe (§5) and the kind of outcome.
//!
//! * [`SyscallClass::Passthrough`] — scalar and raw-buffer arguments only;
//!   requires nothing beyond address-space translation (recipe steps 1–2)
//!   and is therefore mechanically generatable.
//! * [`SyscallClass::Translated`] — at least one ISA-variant structured
//!   argument, requiring explicit layout conversion (recipe step 3).
//! * [`SyscallClass::Stateful`] — requires engine-side state (mmap
//!   pool, virtual sigtable, process model; recipe steps 4–6).
//!
//! This crate expands the table into [`SPEC`] (arity = the slots of the
//! parameters, see [`Param`]) and the dense index [`Sysno`]; the `wali`
//! crate expands the same table into its host-function registration, so
//! a row without a handler or a handler without a row does not build.
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

/// What a row's handler answers: the registration reads it, and the
/// hostile-argument sweep holds every answer to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    /// A value or `-errno` (`Result<i64, SysError>`).
    Value,
    /// Like [`SyscallKind::Value`], and the call may park the task.
    Block,
    /// The host outcome itself: exit, fork, exec, traps.
    Control,
    /// No handler: the call answers `-ENOSYS`.
    Nosys,
}

/// One entry of the WALI syscall specification.
#[derive(Clone, Copy, Debug)]
pub struct WaliSyscall {
    /// Linux syscall name.
    pub name: &'static str,
    /// The Wasm import, `SYS_<name>` in module `wali`.
    pub import: &'static str,
    /// Number of i64-typed Wasm parameters.
    pub args: u8,
    /// Implementation class.
    pub class: SyscallClass,
    /// What the handler answers.
    pub kind: SyscallKind,
}

impl WaliSyscall {
    /// Whether the host ISA implements this syscall natively.
    ///
    /// Calls absent from an ISA's table are still part of the WALI spec
    /// (name binding over the union); implementations either emulate them
    /// via newer alternatives (e.g. `open` via `openat`) or trap.
    pub fn native_on(&self, isa: Isa) -> bool {
        tables::syscalls(isa).contains(self.name)
    }
}

/// A parameter type of the table: how many i64 argument slots it takes.
/// Every integer type is one slot, truncated to its width; the kinds
/// below name what the slots point at.
pub trait Param {
    /// Argument slots the parameter occupies.
    const SLOTS: usize;
}

macro_rules! one_slot {
    ($($t:ty),*) => { $(impl Param for $t { const SLOTS: usize = 1; })* };
}
one_slot!(i32, u32, i64, u64, usize, Ptr, Path);

/// A wasm32 pointer whose target the handler reads or writes itself.
pub enum Ptr {}

/// A wasm32 pointer to a NUL-terminated UTF-8 path, read before the call
/// (`EFAULT` out of bounds, `EINVAL` not UTF-8).
pub enum Path {}

/// A `(pointer, length)` byte buffer the kernel reads: a zero-copy view,
/// bounds-checked before the call (`EFAULT`).
pub enum InBuf {}

/// A `(pointer, length)` byte buffer the kernel fills: a zero-copy view,
/// bounds-checked before the call (`EFAULT`).
pub enum OutBuf {}

/// A `(pointer, length)` socket address, read and converted before the
/// call.
pub enum SockAddr {}

impl Param for InBuf {
    const SLOTS: usize = 2;
}
impl Param for OutBuf {
    const SLOTS: usize = 2;
}
impl Param for SockAddr {
    const SLOTS: usize = 2;
}

/// A nullable pointer kind: `None` when its pointer slot is 0.
impl<T: Param> Param for Option<T> {
    const SLOTS: usize = T::SLOTS;
}

/// The WALI syscall table: the one declaration of every syscall.
///
/// Expands to `$callback! { spec { rows } extensions { rows } }`. A row
/// is `name(param: Type, …) CLASS kind;` — the class `P`, `T` or `S`
/// ([`SyscallClass`]), the kind `value`, `block`, `control` or `nosys`
/// ([`SyscallKind`]). Parameter types are integers, truncated from
/// their slot, or the kinds of [`Param`]. `spec` rows are [`SPEC`] —
/// sized to the paper's "137 most common syscalls" coverage plus the
/// legacy x86-64 aliases needed to run unmodified applications;
/// `extensions` rows are imports beyond the paper that share the
/// registration and the dense index [`Sysno`], but not the spec.
#[macro_export]
macro_rules! wali_syscalls {
    ($callback:ident) => {
        $callback! {
            spec {
                // File I/O.
                read(fd: i32, buf: OutBuf) P block;
                write(fd: i32, buf: InBuf) P block;
                open(path: Path, flags: i32, mode: u32) P value;
                openat(dirfd: i32, path: Path, flags: i32, mode: u32) P value;
                close(fd: i32) P value;
                lseek(fd: i32, offset: i64, whence: i32) P value;
                pread64(fd: i32, buf: OutBuf, offset: u64) P value;
                pwrite64(fd: i32, buf: InBuf, offset: u64) P value;
                readv(fd: i32, iov: Ptr, iovcnt: usize) T block;
                writev(fd: i32, iov: Ptr, iovcnt: usize) T block;
                preadv(fd: i32, iov: Ptr, iovcnt: usize, offset: u64) T value;
                pwritev(fd: i32, iov: Ptr, iovcnt: usize, offset: u64) T value;
                sendfile(out_fd: i32, in_fd: i32, offset: Option<Ptr>, count: usize) P block;
                copy_file_range(
                    fd_in: i32, off_in: Option<Ptr>, fd_out: i32, off_out: Option<Ptr>,
                    len: usize, flags: u32
                ) P block;
                dup(fd: i32) P value;
                dup2(oldfd: i32, newfd: i32) P value;
                dup3(oldfd: i32, newfd: i32, flags: i32) P value;
                pipe(fds: Ptr) P value;
                pipe2(fds: Ptr, flags: i32) P value;
                fcntl(fd: i32, cmd: i32, arg: i32) P value;
                ioctl(fd: i32, op: u64, argp: Ptr) P value;
                flock(fd: i32, op: i32) P value;
                fsync(fd: i32) P value;
                fdatasync(fd: i32) P value;
                sync() P value;
                truncate(path: Path, length: u64) P value;
                ftruncate(fd: i32, length: u64) P value;
                fallocate(fd: i32, mode: i32, offset: u64, len: u64) P value;
                // Filesystem namespace.
                stat(path: Path, statbuf: Ptr) T value;
                fstat(fd: i32, statbuf: Ptr) T value;
                lstat(path: Path, statbuf: Ptr) T value;
                newfstatat(dirfd: i32, path: Path, statbuf: Ptr, flags: i32) T value;
                // Libcs fall back to `newfstatat` on ENOSYS.
                statx(dirfd: i32, path: Path, flags: i32, mask: u32, statxbuf: Ptr) T nosys;
                access(path: Path, mode: i32) P value;
                faccessat(dirfd: i32, path: Path, mode: i32) P value;
                faccessat2(dirfd: i32, path: Path, mode: i32, flags: i32) P value;
                getdents64(fd: i32, dirp: Ptr, count: usize) T value;
                getcwd(buf: Ptr, size: usize) P value;
                chdir(path: Path) P value;
                fchdir(fd: i32) P value;
                mkdir(path: Path, mode: u32) P value;
                mkdirat(dirfd: i32, path: Path, mode: u32) P value;
                rmdir(path: Path) P value;
                rename(oldpath: Path, newpath: Path) P value;
                renameat(olddirfd: i32, oldpath: Path, newdirfd: i32, newpath: Path) P value;
                renameat2(
                    olddirfd: i32, oldpath: Path, newdirfd: i32, newpath: Path, flags: u32
                ) P value;
                link(oldpath: Path, newpath: Path) P value;
                linkat(
                    olddirfd: i32, oldpath: Path, newdirfd: i32, newpath: Path, flags: i32
                ) P value;
                unlink(path: Path) P value;
                unlinkat(dirfd: i32, path: Path, flags: i32) P value;
                symlink(target: Path, linkpath: Path) P value;
                symlinkat(target: Path, newdirfd: i32, linkpath: Path) P value;
                readlink(path: Path, buf: Ptr, bufsiz: usize) P value;
                readlinkat(dirfd: i32, path: Path, buf: Ptr, bufsiz: usize) P value;
                chmod(path: Path, mode: u32) P value;
                fchmod(fd: i32, mode: u32) P value;
                fchmodat(dirfd: i32, path: Path, mode: u32) P value;
                chown(path: Path, owner: u32, group: u32) P value;
                fchown(fd: i32, owner: u32, group: u32) P value;
                fchownat(dirfd: i32, path: Path, owner: u32, group: u32, flags: i32) P value;
                umask(mask: u32) P value;
                mknod(path: Path, mode: u32, dev: u64) P value;
                utimensat(dirfd: i32, path: Option<Path>, times: Option<Ptr>, flags: i32) T value;
                statfs(path: Path, buf: Ptr) T value;
                fstatfs(fd: i32, buf: Ptr) T value;
                // Memory management.
                mmap(addr: Ptr, length: u32, prot: i32, flags: i32, fd: i32, offset: u64) S value;
                munmap(addr: Ptr, length: u32) S value;
                mremap(
                    old_address: Ptr, old_size: u32, new_size: u32, flags: i32, new_address: Ptr
                ) S value;
                mprotect(addr: Ptr, len: u32, prot: i32) P value;
                brk(addr: Ptr) S value;
                madvise(addr: Ptr, length: u64, advice: i32) P value;
                msync(addr: Ptr, length: u32, flags: i32) P value;
                mlock(addr: Ptr, len: usize) P value;
                munlock(addr: Ptr, len: usize) P value;
                membarrier(cmd: i32, flags: u32, cpu_id: i32) P value;
                mincore(addr: Ptr, length: usize, vec: Ptr) P value;
                // Processes and threads.
                clone(
                    flags: u64, stack: Ptr, parent_tid: Option<Ptr>, child_tid: Ptr, tls: Ptr
                ) S control;
                fork() S control;
                vfork() S control;
                execve(path: Path, argv: Ptr, envp: Ptr) S control;
                exit(status: i32) S control;
                exit_group(status: i32) S control;
                wait4(pid: i32, wstatus: Option<Ptr>, options: i32, rusage: Option<Ptr>) T block;
                waitid(idtype: i32, id: i32, infop: Ptr, options: i32, rusage: Ptr) T block;
                getpid() P value;
                getppid() P value;
                gettid() P value;
                getpgid(pid: i32) P value;
                setpgid(pid: i32, pgid: i32) P value;
                getpgrp() P value;
                setsid() P value;
                getsid(pid: i32) P value;
                kill(pid: i32, sig: i32) P value;
                tkill(tid: i32, sig: i32) P value;
                tgkill(tgid: i32, tid: i32, sig: i32) P value;
                sched_yield() P value;
                sched_getaffinity(pid: i32, cpusetsize: usize, mask: Ptr) P value;
                sched_setaffinity(pid: i32, cpusetsize: usize, mask: Ptr) P value;
                getpriority(which: i32, who: i32) P value;
                setpriority(which: i32, who: i32, prio: i32) P value;
                getrlimit(resource: i32, rlim: Ptr) T value;
                setrlimit(resource: i32, rlim: Ptr) T value;
                prlimit64(
                    pid: i32, resource: i32, new_limit: Option<Ptr>, old_limit: Option<Ptr>
                ) T value;
                getrusage(who: i32, usage: Ptr) T value;
                times(buf: Ptr) T value;
                set_tid_address(tidptr: Ptr) S value;
                prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) P value;
                personality(persona: u32) P value;
                // Signals.
                rt_sigaction(
                    signum: i32, act: Option<Ptr>, oldact: Option<Ptr>, sigsetsize: usize
                ) S value;
                rt_sigprocmask(
                    how: i32, set: Option<Ptr>, oldset: Option<Ptr>, sigsetsize: usize
                ) P value;
                rt_sigpending(set: Ptr, sigsetsize: usize) P value;
                rt_sigsuspend(mask: Ptr, sigsetsize: usize) S block;
                rt_sigtimedwait(
                    set: Ptr, info: Option<Ptr>, timeout: Option<Ptr>, sigsetsize: usize
                ) T block;
                rt_sigqueueinfo(tgid: i32, sig: i32, info: Ptr) T value;
                rt_sigreturn() S control;
                sigaltstack(ss: Option<Ptr>, old_ss: Option<Ptr>) T value;
                pause() S block;
                alarm(seconds: u32) S value;
                // Identity.
                getuid() P value;
                geteuid() P value;
                getgid() P value;
                getegid() P value;
                setuid(uid: u32) P value;
                setgid(gid: u32) P value;
                getgroups(size: i32, list: Ptr) P value;
                setgroups(size: usize, list: Ptr) P value;
                getresuid(ruid: Option<Ptr>, euid: Option<Ptr>, suid: Option<Ptr>) P value;
                getresgid(rgid: Option<Ptr>, egid: Option<Ptr>, sgid: Option<Ptr>) P value;
                setresuid(ruid: u32, euid: u32, suid: u32) P value;
                setresgid(rgid: u32, egid: u32, sgid: u32) P value;
                setreuid(ruid: u32, euid: u32) P value;
                setregid(rgid: u32, egid: u32) P value;
                setfsuid(fsuid: u32) P value;
                setfsgid(fsgid: u32) P value;
                // Sockets.
                socket(domain: i32, ty: i32, protocol: i32) P value;
                socketpair(domain: i32, ty: i32, protocol: i32, sv: Ptr) P value;
                bind(fd: i32, addr: SockAddr) T value;
                listen(fd: i32, backlog: i32) P value;
                accept(fd: i32, addr: Option<Ptr>, addrlen: Option<Ptr>) T block;
                accept4(fd: i32, addr: Option<Ptr>, addrlen: Option<Ptr>, flags: i32) T block;
                connect(fd: i32, addr: SockAddr) T value;
                getsockname(fd: i32, addr: Option<Ptr>, addrlen: Option<Ptr>) T value;
                getpeername(fd: i32, addr: Option<Ptr>, addrlen: Option<Ptr>) T value;
                // The destination is read before the buffer is looked at.
                sendto(
                    fd: i32, buf: Ptr, len: usize, flags: i32, dest: Option<SockAddr>
                ) T block;
                recvfrom(
                    fd: i32, buf: OutBuf, flags: i32, src: Option<Ptr>, addrlen: Option<Ptr>
                ) T block;
                sendmsg(fd: i32, msg: Ptr, flags: i32) T block;
                recvmsg(fd: i32, msg: Ptr, flags: i32) T block;
                setsockopt(fd: i32, level: i32, optname: i32, optval: Ptr, optlen: u32) P value;
                getsockopt(
                    fd: i32, level: i32, optname: i32, optval: Ptr, optlen: Option<Ptr>
                ) P value;
                shutdown(fd: i32, how: i32) P value;
                // Readiness.
                poll(fds: Ptr, nfds: usize, timeout: i32) T block;
                ppoll(fds: Ptr, nfds: usize, tmo: Option<Ptr>, sigmask: Option<Ptr>) T block;
                select(
                    nfds: i32, readfds: Option<Ptr>, writefds: Option<Ptr>,
                    exceptfds: Option<Ptr>, timeout: Option<Ptr>
                ) T block;
                pselect6(
                    nfds: i32, readfds: Option<Ptr>, writefds: Option<Ptr>,
                    exceptfds: Option<Ptr>, timeout: Option<Ptr>, sigmask: Ptr
                ) T block;
                epoll_create1(flags: i32) P value;
                epoll_ctl(epfd: i32, op: i32, fd: i32, event: Option<Ptr>) T value;
                epoll_wait(epfd: i32, events: Ptr, maxevents: i32, timeout: i32) T block;
                epoll_pwait(
                    epfd: i32, events: Ptr, maxevents: i32, timeout: i32, sigmask: Option<Ptr>
                ) T block;
                eventfd2(initval: u32, flags: i32) P value;
                // Time.
                nanosleep(req: Ptr, rem: Option<Ptr>) T block;
                clock_gettime(clockid: i32, tp: Ptr) T value;
                clock_getres(clockid: i32, res: Option<Ptr>) T value;
                clock_nanosleep(clockid: i32, flags: i32, req: Ptr, rem: Option<Ptr>) T block;
                gettimeofday(tv: Option<Ptr>, tz: Option<Ptr>) T value;
                settimeofday(tv: Option<Ptr>, tz: Option<Ptr>) T value;
                getitimer(which: i32, curr_value: Ptr) T value;
                setitimer(which: i32, new_value: Ptr, old_value: Option<Ptr>) T value;
                // Miscellaneous.
                uname(buf: Ptr) T value;
                sysinfo(info: Ptr) T value;
                getrandom(buf: OutBuf, flags: u32) P value;
                futex(
                    uaddr: Ptr, futex_op: i32, val: u32, timeout: Option<Ptr>, uaddr2: Ptr,
                    val3: u32
                ) S block;
                getcpu(cpu: Option<Ptr>, node: Option<Ptr>, tcache: Option<Ptr>) P value;
                syslog(ty: i32, bufp: Ptr, len: i32) P value;
            }
            extensions {
                // The batched-syscall ring (`crate::ring`; DESIGN.md
                // "Substitutions": WALI proper is one import per syscall).
                wali_ring_enter(ring: Ptr, to_submit: u32, min_complete: u32, flags: u32) P block;
            }
        }
    };
}

use SyscallClass::{Passthrough as P, Stateful as S, Translated as T};
use SyscallKind::{Block as block, Control as control, Nosys as nosys, Value as value};

/// The table as data: [`SPEC`], [`EXTENSIONS`] and [`Sysno`].
macro_rules! spec_data {
    (
        spec { $($s:ident ($($sp:ident : $st:ty),*) $sc:ident $sk:ident;)* }
        extensions { $($e:ident ($($ep:ident : $et:ty),*) $ec:ident $ek:ident;)* }
    ) => {
        /// The WALI syscall specification: the `spec` rows of
        /// [`wali_syscalls!`](crate::wali_syscalls), in table order.
        pub const SPEC: &[WaliSyscall] = &[$(spec_data!(@row $s ($($st),*) $sc $sk)),*];

        /// Imports beyond the specification, registered and counted like
        /// its rows: the `extensions` rows of the table.
        pub const EXTENSIONS: &[WaliSyscall] = &[$(spec_data!(@row $e ($($et),*) $ec $ek)),*];

        /// The dense index of a table row — [`SPEC`] rows first, then
        /// [`EXTENSIONS`]: stable for a build and contiguous, the key of
        /// per-syscall counters (`Sysno::read as u16`).
        #[allow(non_camel_case_types, missing_docs)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u16)]
        pub enum Sysno { $($s,)* $($e,)* }

        impl Sysno {
            /// Every row's index, in order.
            pub const ALL: &[Sysno] = &[$(Sysno::$s,)* $(Sysno::$e,)*];

            /// The row this index names.
            pub const fn row(self) -> &'static WaliSyscall {
                let i = self as usize;
                if i < SPEC.len() { &SPEC[i] } else { &EXTENSIONS[i - SPEC.len()] }
            }
        }
    };
    (@row $name:ident ($($t:ty),*) $class:ident $kind:ident) => {
        WaliSyscall {
            name: stringify!($name),
            import: concat!("SYS_", stringify!($name)),
            args: (0 $(+ <$t as Param>::SLOTS)*) as u8,
            class: $class,
            kind: $kind,
        }
    };
}
wali_syscalls!(spec_data);

/// Number of table rows ([`SPEC`] and [`EXTENSIONS`]): the size of dense
/// per-syscall tables indexed by [`Sysno`].
pub const ROWS: usize = SPEC.len() + EXTENSIONS.len();

/// Every row in [`Sysno`] order.
pub fn rows() -> impl Iterator<Item = &'static WaliSyscall> {
    SPEC.iter().chain(EXTENSIONS)
}

/// Resolves a row name ([`SPEC`] or [`EXTENSIONS`]) to its index. A
/// linear scan: code names its rows as [`Sysno`] at compile time, so only
/// reports and policies look a name up.
pub fn lookup(name: &str) -> Option<Sysno> {
    Sysno::ALL.iter().copied().find(|s| s.row().name == name)
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
        let set: BTreeSet<_> = rows().map(|s| s.name).collect();
        assert_eq!(set.len(), ROWS);
        assert_eq!(lookup("read"), Some(Sysno::read));
        assert_eq!(lookup("wali_ring_enter"), Some(Sysno::wali_ring_enter));
        assert_eq!(Sysno::wali_ring_enter as usize, SPEC.len());
        assert_eq!(lookup("get_argc"), None);
        for (i, s) in Sysno::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(s.row().name, rows().nth(i).unwrap().name);
        }
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
            let s = lookup(name).unwrap().row();
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
            let s = lookup(name).unwrap().row();
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
        assert_eq!(Sysno::mmap.row().import, "SYS_mmap");
        // Arity is the parameters' slots: buffers take two.
        let args = |s: Sysno| s.row().args;
        assert_eq!(
            (args(Sysno::read), args(Sysno::sendto), args(Sysno::sync)),
            (3, 6, 0)
        );
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
