//! A descriptor crossing takes a fixed, small number of locks.
//!
//! Shaped like `alloc_free_crossing.rs`: a guest makes `n`, then `2n`
//! rounds of one call (or one pair of calls) and the *difference* in
//! lock acquisitions, divided by `n`, is what a round costs — start-up
//! and teardown cancel. The counter is `vkernel::lockorder`'s
//! debug-build thread-local (every tracked mutex, the VFS shard, slab
//! lookups, every `MutexExt::lock_ok`); the runs pin one worker, so the
//! whole run happens on the counting thread, and a release build has no
//! counter to read.
//!
//! The budget, per call on a regular file: the fd table, the
//! description, the VFS — three locks, and no kernel lock. `getpid` and
//! `rt_sigprocmask` take the kernel lock and nothing else.
#![cfg(debug_assertions)]

use wasm::build::{FuncBuilder, FuncId, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use wali::runner::WaliRunner;
use wali::testkit::{roundtrip, sys};

const IO_BYTES: i64 = 64;

/// What a loop body may use: the imports, the open file (a local
/// holding its fd) and the reserved buffers.
struct Env {
    getpid: FuncId,
    lseek: FuncId,
    read: FuncId,
    write: FuncId,
    pread: FuncId,
    pwrite: FuncId,
    fstat: FuncId,
    sigprocmask: FuncId,
    fd: u32,
    buf: u32,
    scratch: u32,
    pipe_fds: u32,
}

impl Env {
    fn rewind(&self, b: &mut FuncBuilder) {
        b.local_get(self.fd).i64(0).i64(0).call(self.lseek).drop_();
    }

    fn rw(&self, b: &mut FuncBuilder, call: FuncId) {
        b.local_get(self.fd)
            .i64(self.buf as i64)
            .i64(IO_BYTES)
            .call(call)
            .drop_();
    }

    fn positional(&self, b: &mut FuncBuilder, call: FuncId) {
        b.local_get(self.fd)
            .i64(self.buf as i64)
            .i64(IO_BYTES)
            .i64(0)
            .call(call)
            .drop_();
    }

    fn pipe_end(&self, b: &mut FuncBuilder, end: u32, call: FuncId) {
        b.i32(self.pipe_fds as i32)
            .load32(4 * end)
            .extend_u()
            .i64(self.buf as i64)
            .i64(IO_BYTES)
            .call(call)
            .drop_();
    }
}

/// Opens a 64-byte file and a pipe, then runs `body` `rounds` times.
fn guest(rounds: u32, body: &dyn Fn(&mut FuncBuilder, &Env)) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let pipe = sys(&mut mb, "pipe", 1);
    let mut env = Env {
        getpid: sys(&mut mb, "getpid", 0),
        lseek: sys(&mut mb, "lseek", 3),
        read: sys(&mut mb, "read", 3),
        write: sys(&mut mb, "write", 3),
        pread: sys(&mut mb, "pread64", 4),
        pwrite: sys(&mut mb, "pwrite64", 4),
        fstat: sys(&mut mb, "fstat", 2),
        sigprocmask: sys(&mut mb, "rt_sigprocmask", 4),
        fd: 0,
        buf: 0,
        scratch: 0,
        pipe_fds: 0,
    };
    mb.memory(4, Some(16));
    let path = mb.c_str("/tmp/locks.dat");
    env.buf = mb.data(&[b'x'; IO_BYTES as usize]);
    env.scratch = mb.reserve(256);
    env.pipe_fds = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        env.fd = b.local(I64);
        let i = b.local(I32);
        // O_CREAT | O_RDWR
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(env.fd);
        env.rw(b, env.write);
        b.i64(env.pipe_fds as i64).call(pipe).drop_();
        b.loop_(BlockType::Empty, |b| {
            body(b, &env);
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(rounds as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

/// Locks taken on this thread by `run()` of a `rounds`-round guest.
fn locks_of_run(rounds: u32, regir: bool, body: &dyn Fn(&mut FuncBuilder, &Env)) -> u64 {
    let module = roundtrip(&guest(rounds, body));
    let mut runner = WaliRunner::new_default();
    runner.set_workers(1);
    runner.set_regir(regir);
    runner.register_program("/usr/bin/app", &module).unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let before = vkernel::lockorder::acquisitions();
    let out = runner.run().expect("run");
    let locks = vkernel::lockorder::acquisitions() - before;
    assert_eq!(out.exit_code(), Some(0));
    locks
}

/// Locks one round of `body` takes, on both dispatch tiers.
fn locks_per_round(body: &dyn Fn(&mut FuncBuilder, &Env)) -> u64 {
    const N: u32 = 500;
    let per_tier = [true, false].map(|regir| {
        let (few, many) = (
            locks_of_run(N, regir, body),
            locks_of_run(2 * N, regir, body),
        );
        assert_eq!(
            (many - few) % N as u64,
            0,
            "regir={regir}: a round takes a whole number of locks"
        );
        (many - few) / N as u64
    });
    assert_eq!(per_tier[0], per_tier[1], "the tiers cross alike");
    per_tier[0]
}

#[test]
fn calls_that_need_the_core_take_the_kernel_lock_and_nothing_else() {
    assert_eq!(
        locks_per_round(&|b, e| {
            b.call(e.getpid).drop_();
        }),
        1
    );
    assert_eq!(
        locks_per_round(&|b, e| {
            b.i64(0)
                .i64(0)
                .i64(e.scratch as i64)
                .i64(8)
                .call(e.sigprocmask)
                .drop_();
        }),
        1
    );
}

#[test]
fn a_regular_file_call_takes_the_fd_table_the_description_and_the_vfs() {
    let lseek = locks_per_round(&|b, e| e.rewind(b));
    assert_eq!(lseek, 3, "lseek");
    let fstat = locks_per_round(&|b, e| {
        b.local_get(e.fd)
            .i64(e.scratch as i64)
            .call(e.fstat)
            .drop_();
    });
    assert_eq!(fstat, 3, "fstat");
    assert_eq!(
        locks_per_round(&|b, e| e.positional(b, e.pread)),
        3,
        "pread64"
    );
    assert_eq!(
        locks_per_round(&|b, e| e.positional(b, e.pwrite)),
        3,
        "pwrite64"
    );
    // Sequential transfers rewind first so the file stays 64 bytes.
    let read = locks_per_round(&|b, e| {
        e.rewind(b);
        e.rw(b, e.read);
    });
    assert_eq!(read - lseek, 3, "read");
    let write = locks_per_round(&|b, e| {
        e.rewind(b);
        e.rw(b, e.write);
    });
    assert_eq!(write - lseek, 3, "write");
}

#[test]
fn the_dense_round_is_the_sum_of_its_calls() {
    let round = locks_per_round(&|b, e| {
        b.call(e.getpid).drop_();
        e.rewind(b);
        e.rw(b, e.write);
        e.rewind(b);
        e.rw(b, e.read);
        b.local_get(e.fd)
            .i64(e.scratch as i64)
            .call(e.fstat)
            .drop_();
        b.i64(0)
            .i64(0)
            .i64(e.scratch as i64)
            .i64(8)
            .call(e.sigprocmask)
            .drop_();
    });
    // getpid 1, lseek 3, write 3, lseek 3, read 3, fstat 3, sigprocmask 1.
    assert_eq!(round, 17);
}

#[test]
fn a_pipe_round_trip_in_one_task_takes_no_more_locks_than_it_did() {
    // Per call: the fd table, the description, the slab lookup, the
    // pipe, and the waitqueue for the post — 5, so 10 a pair. The PR-20
    // tree, measured with the same counter, took 14: its fd table kept
    // a one-entry lookup cache behind two holds of a mutex of its own.
    // (On that tree the regular-file calls above read 6 for `lseek`, 5
    // for `fstat`/`pread64`/`pwrite64`, 9 for `read`/`write`, and the
    // dense round 37.)
    let pair = locks_per_round(&|b, e| {
        e.pipe_end(b, 1, e.write);
        e.pipe_end(b, 0, e.read);
    });
    assert_eq!(pair, 10, "write+read on a pipe");
}
