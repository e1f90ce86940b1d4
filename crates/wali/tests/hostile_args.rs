//! Hostile syscall arguments: whatever slots a guest passes, a call
//! answers a value, an errno or a block — never a host panic or abort —
//! and the task leaves nothing behind once it exits.
//!
//! Two parts: a case table of crashes found by hand, each with the answer
//! a fix must keep (`cargo test --release` runs it too: there overflow
//! wraps instead of panicking, and a wrapped deadline returns at once
//! where a saturated one blocks); and a sweep generated from the syscall
//! table itself — every row, each slot in turn set to a hostile value,
//! the others 0, against a task that has a directory, a regular file, a
//! pipe and a socket open, each in turn at descriptor 0 (the descriptor
//! a zeroed slot names).

use std::sync::Arc;

use vkernel::{Kernel, LeakReport, Tid};
use wali::context::KernelRef;
use wali::registry::WaliSuspend;
use wali::{build_linker, new_kernel_ref, WaliContext, WALI_MODULE};
use wali_abi::flags::{AF_UNIX, AT_FDCWD, FUTEX_WAIT, O_CREAT, O_DIRECTORY, O_RDWR, SOCK_STREAM};
use wali_abi::spec::{SyscallKind, Sysno};
use wali_abi::Errno;
use wasm::error::Trap;
use wasm::host::{Caller, HostOutcome};
use wasm::{Instance, Program, SafepointScheme};

/// What the object at descriptor 0 is.
#[derive(Clone, Copy, Debug)]
enum Fd0 {
    Dir,
    File,
    Pipe,
    Socket,
}

/// How a call answered.
#[derive(Debug, PartialEq)]
enum Answer {
    /// A value or `-errno`.
    Value(i64),
    /// Parked, to be retried at the deadline or a wakeup.
    Block(Option<u64>),
    /// Control transfer (exit, fork, clone, exec).
    Suspend,
    /// The sandbox refused it (`rt_sigreturn`).
    Forbidden,
}

/// One task of a fresh kernel, its instance and context.
struct Guest {
    kernel: KernelRef,
    tid: Tid,
    instance: Instance<WaliContext>,
    ctx: WaliContext,
}

/// The one-page module every guest instantiates.
fn program() -> Arc<Program<WaliContext>> {
    let mut mb = wasm::build::ModuleBuilder::new();
    mb.memory(1, Some(1));
    let program = Program::link(&mb.build(), &build_linker(), SafepointScheme::None);
    Arc::new(program.expect("link"))
}

impl Guest {
    fn new(program: &Arc<Program<WaliContext>>, fd0: Fd0) -> Guest {
        let kernel = new_kernel_ref(Kernel::new());
        let tid = {
            let mut k = kernel.lock_ok();
            let tid = k.spawn_process();
            k.sys_mkdirat(tid, AT_FDCWD, "/tmp/d", 0o755).unwrap();
            let dir = k
                .sys_openat(tid, AT_FDCWD, "/tmp/d", O_DIRECTORY, 0)
                .unwrap();
            let file = k
                .sys_openat(tid, AT_FDCWD, "/tmp/f", O_CREAT | O_RDWR, 0o644)
                .unwrap();
            k.sys_write(tid, file, b"hello").unwrap();
            k.sys_lseek(tid, file, 0, 0).unwrap();
            let (pipe, _) = k.sys_pipe2(tid, 0).unwrap();
            let (sock, _) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
            let at0 = match fd0 {
                Fd0::Dir => dir,
                Fd0::File => file,
                Fd0::Pipe => pipe,
                Fd0::Socket => sock,
            };
            k.sys_dup3(tid, at0, 0, 0).unwrap();
            tid
        };
        let instance = Instance::new(program.clone()).expect("instantiate");
        let ctx = WaliContext::new(kernel.clone(), tid, 4096, true);
        Guest {
            kernel,
            tid,
            instance,
            ctx,
        }
    }

    fn call(&mut self, sys: Sysno, slots: &[u64]) -> Answer {
        let linker = build_linker();
        let f = linker
            .resolve(WALI_MODULE, sys.row().import)
            .expect("registered");
        let mut caller = Caller {
            instance: &self.instance,
            data: &mut self.ctx,
            sig: None,
        };
        match f(&mut caller, slots) {
            Ok(v) => Answer::Value(v as i64),
            Err(HostOutcome::Block(b)) => Answer::Block(b.deadline),
            Err(HostOutcome::Suspend) => Answer::Suspend,
            Err(HostOutcome::Trap(Trap::Forbidden(_))) => Answer::Forbidden,
            Err(HostOutcome::Trap(t)) => panic!("{sys:?}{slots:x?} trapped: {t}"),
        }
    }

    fn poke(&self, at: u64, bytes: &[u8]) {
        self.instance.memory.write(at, bytes).expect("in bounds");
    }

    /// Exits the task and any task its call made; what the kernel still
    /// holds then is a leak.
    fn retire(mut self) -> LeakReport {
        let mut tids = vec![self.tid];
        if let Some(WaliSuspend::Fork { child, .. } | WaliSuspend::Clone { child, .. }) =
            self.ctx.take_suspend()
        {
            tids.push(child.tid);
        }
        let mut k = self.kernel.lock_ok();
        for tid in tids {
            k.wait_cancel(tid);
            let _ = k.sys_exit_group(tid, 0);
        }
        k.leak_audit()
    }
}

// ---------------------------------------------------------------------
// The case table.
// ---------------------------------------------------------------------

/// A timespec that is `u64::MAX` nanoseconds: 18446744073 s 709551615 ns.
const FOREVER: [u8; 16] = {
    let mut ts = [0u8; 16];
    let (sec, nsec) = (
        18_446_744_073u64.to_le_bytes(),
        709_551_615u64.to_le_bytes(),
    );
    let mut i = 0;
    while i < 8 {
        ts[i] = sec[i];
        ts[8 + i] = nsec[i];
        i += 1;
    }
    ts
};

const TS: u64 = 1024;
const WORD: u64 = 2048;
const SIGSET: u64 = 2056;
const ITIMER: u64 = 2064;
const DIRENTS: u64 = 4096;

/// Runs one case on a fresh task: the memory image, then the call; the
/// answer and the task's retirement are checked by the caller.
fn case(fd0: Fd0, image: &[(u64, &[u8])], sys: Sysno, slots: &[u64]) -> (Guest, Answer) {
    let mut g = Guest::new(&program(), fd0);
    for (at, bytes) in image {
        g.poke(*at, bytes);
    }
    let answer = g.call(sys, slots);
    (g, answer)
}

fn clean(g: Guest) {
    let audit = g.retire();
    assert!(audit.is_clean(), "{}", audit.describe());
}

#[test]
fn near_forever_sleeps_block_with_the_deadline_saturated() {
    let image: &[(u64, &[u8])] = &[(TS, &FOREVER)];
    for (name, slots) in [
        (Sysno::nanosleep, vec![TS, 0]),
        (Sysno::clock_nanosleep, vec![0, 0, TS, 0]),
    ] {
        let (g, answer) = case(Fd0::File, image, name, &slots);
        assert_eq!(answer, Answer::Block(Some(u64::MAX)), "{name:?}");
        clean(g);
    }
}

#[test]
fn a_futex_wait_with_a_near_forever_timeout_blocks() {
    let image: &[(u64, &[u8])] = &[(TS, &FOREVER), (WORD, &[0; 4])];
    let slots = [WORD, FUTEX_WAIT as u64, 0, TS, 0, 0];
    let (g, answer) = case(Fd0::File, image, Sysno::futex, &slots);
    assert_eq!(answer, Answer::Block(Some(u64::MAX)));
    clean(g);
}

#[test]
fn a_sigtimedwait_with_a_near_forever_timeout_blocks() {
    let usr1 = 1u64 << (wali_abi::Signal::Sigusr1.number() - 1);
    let image: &[(u64, &[u8])] = &[(TS, &FOREVER), (SIGSET, &usr1.to_le_bytes())];
    let slots = [SIGSET, 0, TS, 8];
    let (g, answer) = case(Fd0::File, image, Sysno::rt_sigtimedwait, &slots);
    assert_eq!(answer, Answer::Block(Some(u64::MAX)));
    clean(g);
}

#[test]
fn setitimer_clamps_a_huge_interval_to_the_longest_alarm() {
    // it_interval {0, 0}, it_value {i64::MAX s, 1 µs}: rounded up, that
    // is more seconds than `alarm` takes.
    let mut itimer = [0u8; 32];
    itimer[16..24].copy_from_slice(&i64::MAX.to_le_bytes());
    itimer[24..32].copy_from_slice(&1i64.to_le_bytes());
    let (mut g, answer) = case(
        Fd0::File,
        &[(ITIMER, &itimer)],
        Sysno::setitimer,
        &[0, ITIMER, 0],
    );
    assert_eq!(answer, Answer::Value(0));
    // `alarm(0)` disarms and answers what was left: all of it.
    assert_eq!(g.call(Sysno::alarm, &[0]), Answer::Value(u32::MAX as i64));
    clean(g);
}

#[test]
fn mincore_of_a_wrapping_range_is_enomem() {
    let (g, answer) = case(Fd0::File, &[], Sysno::mincore, &[4096, u64::MAX, 0]);
    assert_eq!(answer, Answer::Value(Errno::Enomem.as_ret()));
    clean(g);
}

#[test]
fn getdents64_sizes_its_image_by_the_entries_not_the_count() {
    let (g, answer) = case(Fd0::Dir, &[], Sysno::getdents64, &[0, DIRENTS, 1 << 40]);
    // `.` and `..`: two 24-byte records.
    assert_eq!(answer, Answer::Value(48));
    let name = g.instance.memory.read(DIRENTS + 19, 2).expect("in bounds");
    assert_eq!(name, b".\0");
    clean(g);
}

#[test]
fn ownership_and_statfs_calls_answer_for_what_is_not_there() {
    const MISSING: u64 = 512;
    const TMP: u64 = 528;
    const STATFS: u64 = 3072;
    let image: &[(u64, &[u8])] = &[(MISSING, b"/tmp/none\0"), (TMP, b"/tmp\0")];
    let (ebadf, enoent) = (Errno::Ebadf.as_ret(), Errno::Enoent.as_ret());
    // Descriptor 9 is not open.
    for (name, slots, want) in [
        (Sysno::fchown, vec![9, 0, 0], ebadf),
        (Sysno::fstatfs, vec![9, STATFS], ebadf),
        (Sysno::statfs, vec![MISSING, STATFS], enoent),
        (Sysno::fchown, vec![0, 7, u32::MAX as u64], 0),
        (Sysno::fstatfs, vec![0, STATFS], 0),
        (Sysno::statfs, vec![TMP, STATFS], 0),
    ] {
        let want = Answer::Value(want);
        let (g, answer) = case(Fd0::File, image, name, &slots);
        assert_eq!(answer, want, "{name:?}{slots:?}");
        clean(g);
    }
}

// ---------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------

/// The values each slot takes in turn.
const HOSTILE: [u64; 4] = [0, u32::MAX as u64, u64::MAX, 1 << 40];

#[test]
fn every_row_answers_hostile_slots_and_leaks_nothing() {
    let program = program();
    let mut calls = 0;
    for fd0 in [Fd0::Dir, Fd0::File, Fd0::Pipe, Fd0::Socket] {
        for &sys in Sysno::ALL {
            let row = sys.row();
            let n = row.args as usize;
            let mut inputs = vec![vec![0u64; n]];
            for slot in 0..n {
                for v in &HOSTILE[1..] {
                    let mut slots = vec![0u64; n];
                    slots[slot] = *v;
                    inputs.push(slots);
                }
            }
            for slots in inputs {
                let what = format!("{}{slots:x?} with {fd0:?} at fd 0", row.name);
                let mut g = Guest::new(&program, fd0);
                // The table says which rows may park and which transfer
                // control.
                match g.call(sys, &slots) {
                    Answer::Value(_) => {}
                    Answer::Block(_) => assert_eq!(row.kind, SyscallKind::Block, "{what}: blocked"),
                    Answer::Suspend => {
                        assert_eq!(row.kind, SyscallKind::Control, "{what}: suspended")
                    }
                    Answer::Forbidden => assert_eq!(sys, Sysno::rt_sigreturn, "{what}"),
                }
                let audit = g.retire();
                assert!(audit.is_clean(), "{what}: {}", audit.describe());
                calls += 1;
            }
        }
    }
    assert!(calls > 4 * wali_abi::spec::ROWS, "{calls} calls");
}
