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
//! `rt_sigprocmask` take the kernel lock and nothing else. A pipe or
//! stream-socket transfer takes the fd table, the description (which
//! holds the object), each object once and the waitqueue once; nothing
//! on a call's path looks an id up, and the slab tables that give ids
//! out have no lock to take
//! (`crates/vkernel/tests/lock_budget.rs` has the same ledger call by
//! call at the `Kernel` API, where an `accept` that parks or a `close`
//! after the peer is gone can be isolated). The last section prices
//! whole requests of the `apps` servers the benchmark runs, scheduler
//! included.
#![cfg(debug_assertions)]

use wasm::build::{FuncBuilder, FuncId, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use vkernel::lockorder::{acquisitions, acquisitions_of};
use vkernel::LockClass;
use wali::runner::WaliRunner;
use wali::testkit::{roundtrip, sockaddr_in, sys};

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
    socket: FuncId,
    connect: FuncId,
    accept: FuncId,
    close: FuncId,
    fd: u32,
    /// Local holding the listening socket of `addr`.
    listener: u32,
    buf: u32,
    scratch: u32,
    pipe_fds: u32,
    /// A connected `socketpair`.
    pair_fds: u32,
    addr: u32,
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

    /// `call(fds[end], buf, 64)` on a descriptor pair in memory.
    fn end_of(&self, b: &mut FuncBuilder, fds: u32, end: u32, call: FuncId) {
        b.i32(fds as i32)
            .load32(4 * end)
            .extend_u()
            .i64(self.buf as i64)
            .i64(IO_BYTES)
            .call(call)
            .drop_();
    }

    fn pipe_end(&self, b: &mut FuncBuilder, end: u32, call: FuncId) {
        self.end_of(b, self.pipe_fds, end, call);
    }

    /// `call(local, buf, 64)`.
    fn rw_local(&self, b: &mut FuncBuilder, local: u32, call: FuncId) {
        b.local_get(local)
            .i64(self.buf as i64)
            .i64(IO_BYTES)
            .call(call)
            .drop_();
    }
}

/// Opens a 64-byte file, a pipe, a socket pair and a listening socket,
/// then runs `body` `rounds` times.
fn guest(rounds: u32, body: &dyn Fn(&mut FuncBuilder, &Env)) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let pipe = sys(&mut mb, "pipe", 1);
    let socketpair = sys(&mut mb, "socketpair", 4);
    let bind = sys(&mut mb, "bind", 3);
    let listen = sys(&mut mb, "listen", 2);
    let mut env = Env {
        getpid: sys(&mut mb, "getpid", 0),
        lseek: sys(&mut mb, "lseek", 3),
        read: sys(&mut mb, "read", 3),
        write: sys(&mut mb, "write", 3),
        pread: sys(&mut mb, "pread64", 4),
        pwrite: sys(&mut mb, "pwrite64", 4),
        fstat: sys(&mut mb, "fstat", 2),
        sigprocmask: sys(&mut mb, "rt_sigprocmask", 4),
        socket: sys(&mut mb, "socket", 3),
        connect: sys(&mut mb, "connect", 3),
        accept: sys(&mut mb, "accept", 3),
        close: sys(&mut mb, "close", 1),
        fd: 0,
        listener: 0,
        buf: 0,
        scratch: 0,
        pipe_fds: 0,
        pair_fds: 0,
        addr: 0,
    };
    mb.memory(4, Some(16));
    let path = mb.c_str("/tmp/locks.dat");
    env.buf = mb.data(&[b'x'; IO_BYTES as usize]);
    env.scratch = mb.reserve(256);
    env.pipe_fds = mb.reserve(8);
    env.pair_fds = mb.reserve(8);
    env.addr = mb.data(&sockaddr_in(7100));
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        env.fd = b.local(I64);
        env.listener = b.local(I64);
        let i = b.local(I32);
        // O_CREAT | O_RDWR
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(env.fd);
        env.rw(b, env.write);
        b.i64(env.pipe_fds as i64).call(pipe).drop_();
        // AF_UNIX, SOCK_STREAM.
        b.i64(1)
            .i64(1)
            .i64(0)
            .i64(env.pair_fds as i64)
            .call(socketpair)
            .drop_();
        // AF_INET, SOCK_STREAM.
        b.i64(2)
            .i64(1)
            .i64(0)
            .call(env.socket)
            .local_set(env.listener);
        b.local_get(env.listener)
            .i64(env.addr as i64)
            .i64(16)
            .call(bind)
            .drop_();
        b.local_get(env.listener).i64(8).call(listen).drop_();
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

/// `(all locks, pipe/socket locks)` taken on this thread by `run()` of
/// `module`.
fn locks_of_run(module: &Module, regir: bool) -> (u64, u64) {
    let mut runner = WaliRunner::new_default();
    runner.set_workers(1);
    runner.set_regir(regir);
    runner
        .register_program("/usr/bin/app", &roundtrip(module))
        .unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let before = (acquisitions(), acquisitions_of(LockClass::Object));
    let out = runner.run().expect("run");
    let after = (acquisitions(), acquisitions_of(LockClass::Object));
    assert_eq!(out.exit_code(), Some(0));
    (after.0 - before.0, after.1 - before.1)
}

/// `(locks, of which pipe/socket locks)` one more unit of `program`'s
/// work takes
/// — `program(k)` does `k` units (`per` times as many as `k` says) —
/// on both dispatch tiers.
fn locks_per_unit(n: u32, per: u32, program: &dyn Fn(u32) -> Module) -> (u64, u64) {
    let units = (n * per) as u64;
    let per_tier = [true, false].map(|regir| {
        let few = locks_of_run(&program(n), regir);
        let many = locks_of_run(&program(2 * n), regir);
        let (locks, objects) = (many.0 - few.0, many.1 - few.1);
        assert_eq!(
            (locks % units, objects % units),
            (0, 0),
            "regir={regir}: a unit takes a whole number of locks"
        );
        (locks / units, objects / units)
    });
    assert_eq!(per_tier[0], per_tier[1], "the tiers cross alike");
    per_tier[0]
}

/// Locks one round of `body` takes.
fn locks_per_round(body: &dyn Fn(&mut FuncBuilder, &Env)) -> u64 {
    locks_per_unit(500, 1, &|rounds| guest(rounds, body)).0
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
    // Per call: the fd table, the description (which holds the pipe),
    // the pipe, and the waitqueue for the post — 4, so 8 a pair. The
    // PR-21 tree took 10 (it looked the pipe's id up in a slab); the
    // PR-20 tree, measured with the same counter, 14: its fd table kept
    // a one-entry lookup cache behind two holds of a mutex of its own.
    // (On that tree the regular-file calls above read 6 for `lseek`, 5
    // for `fstat`/`pread64`/`pwrite64`, 9 for `read`/`write`, and the
    // dense round 37.)
    let pair = locks_per_round(&|b, e| {
        e.pipe_end(b, 1, e.write);
        e.pipe_end(b, 0, e.read);
    });
    assert_eq!(pair, 8, "write+read on a pipe");
}

#[test]
fn a_stream_socket_transfer_holds_each_end_once() {
    // write: fd table, description, own socket, peer, waitqueue; read
    // (bytes there): fd table, description, socket, waitqueue. The PR-21
    // tree took 7 + 5, reaching both sockets through their slab's lock.
    let pair = locks_per_unit(500, 1, &|rounds| {
        guest(rounds, &|b, e| {
            e.end_of(b, e.pair_fds, 0, e.write);
            e.end_of(b, e.pair_fds, 1, e.read);
        })
    });
    assert_eq!(pair, (9, 3), "write+read on a socket pair");
    let pipe = locks_per_unit(500, 1, &|rounds| {
        guest(rounds, &|b, e| {
            e.pipe_end(b, 1, e.write);
            e.pipe_end(b, 0, e.read);
        })
    });
    assert_eq!(pipe, (8, 2), "write+read on a pipe");
}

#[test]
fn the_connection_round_is_the_sum_of_its_calls() {
    // One task plays both ends of a loopback connection: every call
    // finds what it needs, nothing parks. Each call but `read`/`write`
    // pays the kernel lock on top of `lock_budget.rs`'s count:
    //   socket   1 + fd table                                       2
    //   connect  1 + 6                                              7
    //   accept   1 + 4                                              5
    //   write, read, write, read                        5 + 4 + 5 + 4
    //   close    1 + 4 (connected), 1 + 3 (peer gone)               9
    // Socket locks: connect 3, accept 1, the transfers 2 + 1 + 2 + 1,
    // the closes 2 + 1. The PR-21 tree took 87.
    let round = locks_per_unit(200, 1, &|rounds| {
        guest(rounds, &|b, e| {
            let (cli, conn) = (b.local(I64), b.local(I64));
            b.i64(2).i64(1).i64(0).call(e.socket).local_set(cli);
            b.local_get(cli)
                .i64(e.addr as i64)
                .i64(16)
                .call(e.connect)
                .drop_();
            b.local_get(e.listener)
                .i64(0)
                .i64(0)
                .call(e.accept)
                .local_set(conn);
            e.rw_local(b, cli, e.write);
            e.rw_local(b, conn, e.read);
            e.rw_local(b, conn, e.write);
            e.rw_local(b, cli, e.read);
            b.local_get(cli).call(e.close).drop_();
            b.local_get(conn).call(e.close).drop_();
        })
    });
    assert_eq!(round, (41, 13));
}

/// The request-level budgets: what one more request (or job) of the
/// servers `wali_bench` runs costs at the runner — every crossing, every
/// park and wake, the scheduler's own locks. "Was" is this test against
/// commit `85e35f4`, the parent of the one-hold `epoll_wait` pop.
#[test]
fn a_request_stays_inside_its_lock_budget() {
    // `memcached_threads`: socket, connect, write, read (parks), close
    // against accept (parks), read, write, close. Was 62: a park took
    // the kernel lock and the waitqueue to ask what the blocked call now
    // says itself, and a drain of the woken list went through the kernel
    // lock.
    let loopback = locks_per_unit(64, 1, &|n| apps::memcached_sim(n).module);
    assert!(loopback.0 <= 56, "loopback request: {loopback:?}");
    // `prefork_serve`: the same connection, won by one of eight workers
    // all woken through their epoll instances. Was 164.
    let prefork = locks_per_unit(8, 8, &|n| apps::prefork_server_sim(8, n).module);
    assert!(prefork.0 <= 102, "prefork request: {prefork:?}");
    // `bash_jobs`: fork, a pipe between parent and child, wait4. Was 59.
    let job = locks_per_unit(32, 1, &|n| apps::bash_sim(n).module);
    assert!(job.0 <= 58, "bash job: {job:?}");
    println!("locks per unit: loopback {loopback:?} prefork {prefork:?} bash job {job:?}");
}

/// What the herd costs: every connection wakes every worker through its
/// own epoll instance, one wins and the rest find the listener drained
/// and park again. One more worker is one more such wake per request —
/// the push onto its ring, then the kernel lock, the instance, the
/// listener and the waitqueue of its retry: 5 locks. Was 12 (the
/// descriptor looked up again, the instance locked three times, the
/// listener through its description, two more in the scheduler's park).
#[test]
fn one_more_worker_in_the_herd_costs_a_request_five_locks() {
    let per_request =
        [1, 2, 4, 8].map(|w| locks_per_unit(8, w, &|n| apps::prefork_server_sim(w, n).module).0);
    println!("locks per prefork request at 1/2/4/8 workers: {per_request:?}");
    for (pair, workers) in per_request.windows(2).zip([1, 2, 4]) {
        assert_eq!(
            pair[1] - pair[0],
            5 * workers,
            "{workers} more workers: {per_request:?}"
        );
    }
}
