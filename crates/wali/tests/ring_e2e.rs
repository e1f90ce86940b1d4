//! End-to-end tests for `wali_ring_enter`: batched inline completion,
//! blocked SQEs completing from the wakeup path, ring timeouts, and the
//! `WALI_NO_RING` fallback.

use wasm::build::{FuncBuilder, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};

use wali::testkit::{run_module, run_modules, sys, RunnerOpts};
use wali_abi::ring::op;

/// Deterministic scheduler with the ring pinned on, so these tests
/// still test the ring under the CI `WALI_NO_RING=1` gate (which pins
/// the *rest* of the suite to the fallback ABI).
fn ring_opts() -> RunnerOpts {
    RunnerOpts {
        ring: Some(true),
        ..RunnerOpts::single()
    }
}

/// Writes the ring header: `sq_entries`/`cq_entries` fixed, `sq_tail`
/// pre-advanced by `submit`, everything else zero.
fn store_hdr(b: &mut FuncBuilder, ring: u32, entries: u32, submit: u32) {
    b.i32(ring as i32)
        .i64(entries as i64 | ((entries as i64) << 32))
        .store64(0);
    b.i32(ring as i32).i64((submit as i64) << 32).store64(8);
    b.i32(ring as i32).i64(0).store64(16);
    b.i32(ring as i32).i64(0).store64(24);
}

/// Writes SQE `slot` with constant fields.
#[allow(clippy::too_many_arguments)]
fn store_sqe(
    b: &mut FuncBuilder,
    ring: u32,
    slot: u32,
    opcode: u8,
    fd: i64,
    addr: u32,
    len: u32,
    off: u64,
    user_data: u64,
) {
    let sqe = ring + 32 + 32 * slot;
    b.i32(sqe as i32).i32(opcode as i32).store32(0);
    b.i32(sqe as i32).i32(fd as i32).store32(4);
    b.i32(sqe as i32).i32(addr as i32).store32(8);
    b.i32(sqe as i32).i32(len as i32).store32(12);
    b.i32(sqe as i32).i64(off as i64).store64(16);
    b.i32(sqe as i32).i64(user_data as i64).store64(24);
}

/// Pushes `cqe[slot].user_data == ud && cqe[slot].res == res` (i32).
fn check_cqe(b: &mut FuncBuilder, ring: u32, sq_entries: u32, slot: u32, ud: u64, res: i64) {
    let cqe = ring + 32 + 32 * sq_entries + 16 * slot;
    b.i32(cqe as i32).load64(0).i64(ud as i64).eq64();
    b.i32(cqe as i32).load64(8).i64(res).eq64();
    b.and32();
}

#[test]
fn ring_batch_completes_inline_with_one_crossing() {
    let mut mb = ModuleBuilder::new();
    let ring_enter = sys(&mut mb, "wali_ring_enter", 4);
    mb.memory(2, Some(16));
    let msg = mb.c_str("batch\n");
    let abc = mb.c_str("abc");
    let def = mb.c_str("def");
    let iovs = mb.reserve(16);
    let ring = mb.reserve(32 + 4 * 32 + 4 * 16);
    let main_sig = mb.sig([], [I32]);

    let main = mb.func(main_sig, |b| {
        // Three SQEs — a NOP, a console WRITE and a vectored WRITEV —
        // drained by a single crossing.
        store_hdr(b, ring, 4, 3);
        store_sqe(b, ring, 0, op::NOP, 0, 0, 0, 0, 7);
        store_sqe(b, ring, 1, op::WRITE, 1, msg, 6, 0, 8);
        b.i32(iovs as i32).i32(abc as i32).store32(0);
        b.i32(iovs as i32).i32(3).store32(4);
        b.i32((iovs + 8) as i32).i32(def as i32).store32(0);
        b.i32((iovs + 8) as i32).i32(3).store32(4);
        store_sqe(b, ring, 2, op::WRITEV, 1, iovs, 2, 0, 9);
        b.i64(ring as i64).i64(3).i64(3).i64(0).call(ring_enter);
        b.i64(3).eq64();
        check_cqe(b, ring, 4, 0, 7, 0);
        b.and32();
        check_cqe(b, ring, 4, 1, 8, 6);
        b.and32();
        check_cqe(b, ring, 4, 2, 9, 6);
        b.and32();
        // The host must have advanced sq_head to 3 in guest memory.
        b.i32(ring as i32).load32(8).i32(3).eq32();
        b.and32();
        b.if_else(
            BlockType::Value(I32),
            |b| {
                b.i32(0);
            },
            |b| {
                b.i32(1);
            },
        );
    });
    mb.export("_start", main);
    let report = run_module(&mb.build(), &[], &[], ring_opts()).expect("run");
    let out = report.outcome;
    assert_eq!(out.exit_code(), Some(0), "stdout: {}", out.stdout());
    assert_eq!(out.stdout(), "batch\nabcdef");
    // One boundary crossing for three operations: the inner ops never
    // dispatch as their own syscalls.
    assert_eq!(out.trace.counts.of("wali_ring_enter"), 1);
    assert_eq!(out.trace.counts.of("write"), 0);
    assert_eq!(out.trace.counts.of("writev"), 0);
}

#[test]
fn ring_blocked_sqe_completes_from_wakeup() {
    let mut mb = ModuleBuilder::new();
    let ring_enter = sys(&mut mb, "wali_ring_enter", 4);
    let pipe = sys(&mut mb, "pipe", 1);
    let fork = sys(&mut mb, "fork", 0);
    let write = sys(&mut mb, "write", 3);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(2, Some(16));
    let ping = mb.c_str("ping");
    let pfds = mb.reserve(8);
    let rbuf = mb.reserve(8);
    let ring = mb.reserve(32 + 32 + 16);
    let main_sig = mb.sig([], [I32]);

    let main = mb.func(main_sig, |b| {
        let pid = b.local(I64);
        b.i64(pfds as i64).call(pipe).drop_();
        b.call(fork).local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // Child: feed the pipe the parent's parked READ waits on.
            b.i32(pfds as i32)
                .load32(4)
                .extend_u()
                .i64(ping as i64)
                .i64(4)
                .call(write)
                .drop_();
            b.i64(0).call(exit).drop_();
        });
        // Parent: submit a READ on the still-empty pipe; min_complete=1
        // parks the ring_enter until the child's write posts the CQE.
        store_hdr(b, ring, 1, 1);
        store_sqe(b, ring, 0, op::READ, 0, rbuf, 4, 0, 42);
        b.i32((ring + 36) as i32)
            .i32(pfds as i32)
            .load32(0)
            .store32(0);
        b.i64(ring as i64).i64(1).i64(1).i64(0).call(ring_enter);
        b.i64(1).eq64();
        check_cqe(b, ring, 1, 0, 42, 4);
        b.and32();
        b.if_else(
            BlockType::Value(I32),
            |b| {
                b.i64(1).i64(rbuf as i64).i64(4).call(write).drop_();
                b.i32(0);
            },
            |b| {
                b.i32(1);
            },
        );
        b.local_get(pid).i64(0).i64(0).i64(0).call(wait4).drop_();
    });
    mb.export("_start", main);
    let report = run_module(&mb.build(), &[], &[], ring_opts()).expect("run");
    let out = report.outcome;
    assert_eq!(out.exit_code(), Some(0), "stdout: {}", out.stdout());
    assert_eq!(out.stdout(), "ping");
    assert!(report.leaks.is_clean(), "{}", report.leaks.describe());
}

#[test]
fn ring_timeout_completes_with_etime() {
    let mut mb = ModuleBuilder::new();
    let ring_enter = sys(&mut mb, "wali_ring_enter", 4);
    mb.memory(2, Some(16));
    let ring = mb.reserve(32 + 32 + 16);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        // One TIMEOUT SQE, 1 ms of virtual time: the enter parks on the
        // timer wheel and the retry posts -ETIME.
        store_hdr(b, ring, 1, 1);
        store_sqe(b, ring, 0, op::TIMEOUT, 0, 0, 0, 1_000_000, 5);
        b.i64(ring as i64).i64(1).i64(1).i64(0).call(ring_enter);
        b.i64(1).eq64();
        check_cqe(b, ring, 1, 0, 5, -62);
        b.and32();
        b.if_else(
            BlockType::Value(I32),
            |b| {
                b.i32(0);
            },
            |b| {
                b.i32(1);
            },
        );
    });
    mb.export("_start", main);
    let report = run_module(&mb.build(), &[], &[], ring_opts()).expect("run");
    assert_eq!(report.outcome.exit_code(), Some(0));
}

/// A guest that exits 0 iff `wali_ring_enter` answers `-ENOSYS` and
/// consumes nothing (`sq_head` still 0) — the sync-fallback signal.
fn enosys_probe() -> wasm::Module {
    let mut mb = ModuleBuilder::new();
    let ring_enter = sys(&mut mb, "wali_ring_enter", 4);
    mb.memory(2, Some(16));
    let ring = mb.reserve(32 + 32 + 16);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        store_hdr(b, ring, 1, 1);
        store_sqe(b, ring, 0, op::NOP, 0, 0, 0, 0, 1);
        b.i64(ring as i64).i64(1).i64(1).i64(0).call(ring_enter);
        b.i64(-38).eq64();
        b.i32(ring as i32).load32(8).i32(0).eq32();
        b.and32();
        b.if_else(
            BlockType::Value(I32),
            |b| {
                b.i32(0);
            },
            |b| {
                b.i32(1);
            },
        );
    });
    mb.export("_start", main);
    mb.build()
}

fn ring_off(workers: usize) -> RunnerOpts {
    RunnerOpts {
        workers: Some(workers),
        ring: Some(false),
        ..RunnerOpts::default()
    }
}

#[test]
fn ring_disabled_returns_enosys() {
    let report = run_module(&enosys_probe(), &[], &[], ring_off(1)).expect("run");
    assert_eq!(report.outcome.exit_code(), Some(0));
}

/// `set_ring(false)` is the runner's setting, not the first program's:
/// the context `execve` builds must carry it on both schedulers.
#[test]
fn ring_override_survives_execve() {
    let mut mb = ModuleBuilder::new();
    let execve = sys(&mut mb, "execve", 3);
    mb.memory(2, Some(16));
    let path = mb.c_str("/usr/bin/probe");
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        b.i64(path as i64).i64(0).i64(0).call(execve).drop_();
        b.i32(99); // unreachable on success
    });
    mb.export("_start", main);
    let (execer, probe) = (mb.build(), enosys_probe());
    for workers in [1, 4] {
        let report = run_modules(
            &[("/usr/bin/app", &execer), ("/usr/bin/probe", &probe)],
            "/usr/bin/app",
            &[],
            &[],
            ring_off(workers),
        )
        .expect("run");
        assert_eq!(
            report.outcome.exit_code(),
            Some(0),
            "workers={workers}: the exec'd program must see -ENOSYS"
        );
    }
}
