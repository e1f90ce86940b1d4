//! Regression tests for the vectored-I/O fixes: positional
//! `preadv`/`pwritev` honoring their offset (file cursor unmoved), the
//! mid-vector blocking short-count rule (no duplicated bytes on retry),
//! and the `IOV_MAX` bound on `iovcnt`.

use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};

use wali::guest::{sys, Sysno};
use wali::runner::TaskEnd;
use wali::testkit::{run_module, RunnerOpts};

/// Writes a wasm32 iovec `{ base, len }` at `iovs + 8*slot`.
fn store_iov(b: &mut wasm::build::FuncBuilder, iovs: u32, slot: u32, base: u32, len: u32) {
    b.i32((iovs + 8 * slot) as i32).i32(base as i32).store32(0);
    b.i32((iovs + 8 * slot) as i32).i32(len as i32).store32(4);
}

#[test]
fn preadv_pwritev_honor_offset_and_leave_cursor() {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, Sysno::open);
    let write = sys(&mut mb, Sysno::write);
    let pwritev = sys(&mut mb, Sysno::pwritev);
    let preadv = sys(&mut mb, Sysno::preadv);
    let pread = sys(&mut mb, Sysno::pread64);
    let lseek = sys(&mut mb, Sysno::lseek);
    mb.memory(2, Some(16));
    let path = mb.c_str("/tmp/pv.dat");
    let base = mb.c_str("0123456789");
    let ab = mb.c_str("AB");
    let cd = mb.c_str("CD");
    let x = mb.c_str("X");
    let iovs = mb.reserve(32);
    let r0 = mb.reserve(2);
    let r1 = mb.reserve(2);
    let out = mb.reserve(16);
    let main_sig = mb.sig([], [I32]);

    let main = mb.func(main_sig, |b| {
        let fd = b.local(I64);
        let n = b.local(I64);
        // fd = open(path, O_CREAT|O_RDWR, 0o644); write 10 bytes → cursor 10.
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(fd);
        b.local_get(fd).i64(base as i64).i64(10).call(write).drop_();
        // pwritev(fd, [("AB",2),("CD",2)], 2, off=2): "ABCD" lands at 2,
        // the cursor must stay at 10.
        store_iov(b, iovs, 0, ab, 2);
        store_iov(b, iovs, 1, cd, 2);
        b.local_get(fd)
            .i64(iovs as i64)
            .i64(2)
            .i64(2)
            .call(pwritev)
            .drop_();
        // preadv(fd, [(r0,2),(r1,2)], 2, off=2) reads it back; echo to
        // stdout so the host can assert the scattered destinations.
        store_iov(b, iovs, 2, r0, 2);
        store_iov(b, iovs, 3, r1, 2);
        b.local_get(fd)
            .i64((iovs + 16) as i64)
            .i64(2)
            .i64(2)
            .call(preadv)
            .drop_();
        b.i64(1).i64(r0 as i64).i64(2).call(write).drop_();
        b.i64(1).i64(r1 as i64).i64(2).call(write).drop_();
        // A plain write must append at the (unmoved) cursor, offset 10.
        b.local_get(fd).i64(x as i64).i64(1).call(write).drop_();
        // Echo the whole file: expect "01ABCD6789X".
        b.local_get(fd)
            .i64(out as i64)
            .i64(16)
            .i64(0)
            .call(pread)
            .local_set(n);
        b.i64(1).i64(out as i64).local_get(n).call(write).drop_();
        // Exit with the cursor position before that plain write moved it
        // to 11: lseek(fd, 0, SEEK_CUR) == 11 now (10 + the 1-byte write).
        b.local_get(fd).i64(0).i64(1).call(lseek).wrap();
    });
    mb.export("_start", main);
    let report = run_module(&mb.build(), &[], &[], RunnerOpts::single()).expect("run");
    let out = report.outcome;
    assert_eq!(
        out.exit_code(),
        Some(11),
        "cursor moved only by plain writes; stdout: {}",
        out.stdout()
    );
    assert_eq!(out.stdout(), "ABCD01ABCD6789X");
}

/// Emits `for i in 0..len { mem[base + i] = byte }`.
fn emit_fill(b: &mut wasm::build::FuncBuilder, i: u32, base: u32, len: u32, byte: u8) {
    b.i32(0).local_set(i);
    b.loop_(BlockType::Empty, |b| {
        b.i32(base as i32)
            .local_get(i)
            .add32()
            .i32(byte as i32)
            .store8(0);
        b.local_get(i)
            .i32(1)
            .add32()
            .local_tee(i)
            .i32(len as i32)
            .lt_s32()
            .br_if(0);
    });
}

const A_LEN: u32 = 60_000;
const B_LEN: u32 = 10_000;
const TOTAL: i64 = (A_LEN + B_LEN) as i64;
const SUM: i64 = A_LEN as i64 * b'A' as i64 + B_LEN as i64 * b'B' as i64;

/// A writev larger than the pipe buffer blocks mid-vector: the call
/// must return the partial count instead of parking, or the retry would
/// re-run the completed iovs and duplicate their bytes. The forked
/// reader tallies byte count and sum; any duplication breaks both.
fn writev_pipe_module() -> wasm::Module {
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, Sysno::pipe);
    let fork = sys(&mut mb, Sysno::fork);
    let write = sys(&mut mb, Sysno::write);
    let writev = sys(&mut mb, Sysno::writev);
    let read = sys(&mut mb, Sysno::read);
    let close = sys(&mut mb, Sysno::close);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit_group);
    mb.memory(4, Some(16));
    let pfds = mb.reserve(8);
    let iovs = mb.reserve(16);
    let rbuf = mb.reserve(4096);
    let abuf = mb.reserve(A_LEN);
    let bbuf = mb.reserve(B_LEN);
    let main_sig = mb.sig([], [I32]);

    let main = mb.func(main_sig, |b| {
        let i = b.local(I32);
        let pid = b.local(I64);
        let n = b.local(I64);
        let total = b.local(I64);
        let sum = b.local(I64);
        emit_fill(b, i, abuf, A_LEN, b'A');
        emit_fill(b, i, bbuf, B_LEN, b'B');
        store_iov(b, iovs, 0, abuf, A_LEN);
        store_iov(b, iovs, 1, bbuf, B_LEN);
        b.i64(pfds as i64).call(pipe).drop_();
        b.call(fork).local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // Child: close the write end, drain to EOF, tally.
            b.i32(pfds as i32).load32(4).extend_u().call(close).drop_();
            b.block(BlockType::Empty, |b| {
                b.loop_(BlockType::Empty, |b| {
                    b.i32(pfds as i32)
                        .load32(0)
                        .extend_u()
                        .i64(rbuf as i64)
                        .i64(4096)
                        .call(read)
                        .local_tee(n);
                    b.i64(1).lt_s64().br_if(1); // n <= 0: EOF
                    b.local_get(total).local_get(n).add64().local_set(total);
                    b.i32(0).local_set(i);
                    b.loop_(BlockType::Empty, |b| {
                        b.local_get(sum)
                            .i32(rbuf as i32)
                            .local_get(i)
                            .add32()
                            .load8u(0)
                            .extend_u()
                            .add64()
                            .local_set(sum);
                        b.local_get(i)
                            .i32(1)
                            .add32()
                            .local_tee(i)
                            .extend_u()
                            .local_get(n)
                            .lt_s64()
                            .br_if(0);
                    });
                    b.br(0);
                });
            });
            // exit(0) iff every byte arrived exactly once.
            b.local_get(total).i64(TOTAL).eq64();
            b.local_get(sum).i64(SUM).eq64();
            b.and32();
            b.if_else(
                BlockType::Value(I64),
                |b| {
                    b.i64(0);
                },
                |b| {
                    b.i64(1);
                },
            );
            b.call(exit).drop_();
        });
        // Parent: one big writev (returns the partial count when the
        // pipe fills mid-vector), then push the remaining tail bytes —
        // all from the 'B' iov, since the pipe holds more than iov 0.
        b.i32(pfds as i32)
            .load32(4)
            .extend_u()
            .i64(iovs as i64)
            .i64(2)
            .call(writev)
            .local_set(n);
        b.block(BlockType::Empty, |b| {
            b.loop_(BlockType::Empty, |b| {
                b.local_get(n).i64(TOTAL).eq64().br_if(1);
                b.i32(pfds as i32)
                    .load32(4)
                    .extend_u()
                    .i64(bbuf as i64)
                    .i64(1)
                    .call(write)
                    .drop_();
                b.local_get(n).i64(1).add64().local_set(n);
                b.br(0);
            });
        });
        b.i32(pfds as i32).load32(4).extend_u().call(close).drop_();
        b.local_get(pid).i64(0).i64(0).i64(0).call(wait4).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

fn assert_exactly_once(opts: RunnerOpts) {
    let report = run_module(&writev_pipe_module(), &[], &[], opts).expect("run");
    let out = report.outcome;
    assert_eq!(out.exit_code(), Some(0), "parent exit");
    let ends: Vec<&TaskEnd> = out.ends.iter().map(|(_, e)| e).collect();
    assert!(
        ends.contains(&&TaskEnd::Exited(0)) && !ends.contains(&&TaskEnd::Exited(1)),
        "reader tally found duplicated or missing bytes: {ends:?}"
    );
    assert!(report.leaks.is_clean(), "{}", report.leaks.describe());
}

#[test]
fn writev_blocking_mid_vector_writes_each_byte_once() {
    assert_exactly_once(RunnerOpts::single());
}

#[test]
fn writev_blocking_mid_vector_writes_each_byte_once_smp() {
    assert_exactly_once(RunnerOpts {
        workers: Some(4),
        ..RunnerOpts::default()
    });
}

#[test]
fn vectored_calls_reject_iovcnt_over_iov_max() {
    let mut mb = ModuleBuilder::new();
    let readv = sys(&mut mb, Sysno::readv);
    let pwritev = sys(&mut mb, Sysno::pwritev);
    mb.memory(2, Some(16));
    let iovs = mb.reserve(16);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        // Both bound iovcnt before touching the array: EINVAL, not a
        // huge allocation or an EFAULT from walking garbage.
        b.i64(0).i64(iovs as i64).i64(1025).call(readv);
        b.i64(-22).eq64();
        b.i64(1).i64(iovs as i64).i64(1 << 32).i64(0).call(pwritev);
        b.i64(-22).eq64();
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
    let report = run_module(&mb.build(), &[], &[], RunnerOpts::single()).expect("run");
    assert_eq!(report.outcome.exit_code(), Some(0));
}

/// A vectored call on a descriptor whose transfers the kernel core
/// finishes — the tty, `/dev/zero`, a pipe nobody reads — hands the
/// first transfer to the core and makes every later one on the same
/// description: all of the bytes, in order, and the errno only when
/// nothing moved.
#[test]
fn a_vectored_call_the_core_finishes_moves_every_iovec_in_order() {
    const PAGE: u32 = 65_536;
    let mut mb = ModuleBuilder::new();
    let writev = sys(&mut mb, Sysno::writev);
    let readv = sys(&mut mb, Sysno::readv);
    let open = sys(&mut mb, Sysno::open);
    let pipe = sys(&mut mb, Sysno::pipe);
    let close = sys(&mut mb, Sysno::close);
    let sigaction = sys(&mut mb, Sysno::rt_sigaction);
    mb.memory(2, Some(16));
    let iovs = mb.reserve(32);
    let fds = mb.reserve(8);
    let act = mb.reserve(32);
    let zero = mb.c_str("/dev/zero");
    // "ab", nothing, "cd" across the page boundary, "ef".
    let ab = mb.data(b"ab");
    let ef = mb.data(b"ef");
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let (bad, fd) = (b.local(I32), b.local(I64));
        let check = |b: &mut wasm::build::FuncBuilder, want: i64| {
            b.i64(want).eq64().eqz32();
            b.local_get(bad).add32().local_set(bad);
        };
        b.i32(PAGE as i32 - 1).i32('c' as i32).store8(0);
        b.i32(PAGE as i32).i32('d' as i32).store8(0);
        store_iov(b, iovs, 0, ab, 2);
        store_iov(b, iovs, 1, ab, 0);
        store_iov(b, iovs, 2, PAGE - 1, 2);
        store_iov(b, iovs, 3, ef, 2);
        b.i64(1).i64(iovs as i64).i64(4).call(writev);
        check(b, 6);
        // Three pages' worth of zeros over the same iovecs' places.
        b.i64(zero as i64).i64(0).i64(0).call(open).local_set(fd);
        store_iov(b, iovs, 1, ab, 3);
        b.local_get(fd).i64(iovs as i64).i64(4).call(readv);
        check(b, 9);
        b.i32(PAGE as i32).load8u(0);
        b.extend_u();
        check(b, 0);
        // SIGPIPE ignored: a pipe nobody reads answers -EPIPE.
        b.i32(act as i32).i32(1).store32(0);
        b.i64(13)
            .i64(act as i64)
            .i64(0)
            .i64(8)
            .call(sigaction)
            .drop_();
        b.i64(fds as i64).call(pipe).drop_();
        b.i32(fds as i32).load32(0).extend_u().call(close).drop_();
        b.i32(fds as i32).load32(4).extend_u();
        b.i64(iovs as i64).i64(4).call(writev);
        check(b, -32);
        b.local_get(bad);
    });
    mb.export("_start", main);
    let module = mb.build();
    for workers in [1, 4] {
        let opts = RunnerOpts {
            workers: Some(workers),
            ..RunnerOpts::default()
        };
        let report = run_module(&module, &[], &[], opts).expect("run");
        assert_eq!(report.outcome.exit_code(), Some(0), "workers {workers}");
        assert_eq!(report.outcome.stdout(), "abcdef", "workers {workers}");
        assert!(report.leaks.is_clean(), "{}", report.leaks.describe());
    }
}
