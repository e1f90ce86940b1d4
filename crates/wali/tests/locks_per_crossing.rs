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
//! The budget, per call on a regular file: the fd table, then only what
//! the call touches — the VFS for one that reads or writes the inode,
//! the description lock for one that moves the offset of a description
//! another reference can reach (a `dup`, a `fork`) — and no kernel lock.
//! `getpid` takes no lock at all (the context answers it), nor do
//! `clock_gettime` and `gettimeofday` (a read of the clock shard) and an
//! `rt_sigprocmask` that unblocks nothing (the task's own mask word);
//! one that unblocks takes the kernel lock and nothing else. A pipe or
//! stream-socket transfer takes the fd table, each object once (the
//! description holds it, and is read without its lock) and the
//! waitqueue once; nothing on a call's path looks an id up, and the
//! slab tables that give ids out have no lock to take
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
use wali::guest::{sys, Sysno};
use wali::runner::WaliRunner;
use wali::testkit::{roundtrip, sockaddr_in};

const IO_BYTES: i64 = 64;

/// What a loop body may use: the imports, the open file (a local
/// holding its fd) and the reserved buffers.
struct Env {
    getpid: FuncId,
    clock_gettime: FuncId,
    gettimeofday: FuncId,
    lseek: FuncId,
    read: FuncId,
    write: FuncId,
    pread: FuncId,
    pwrite: FuncId,
    fstat: FuncId,
    writev: FuncId,
    sigprocmask: FuncId,
    socket: FuncId,
    connect: FuncId,
    accept: FuncId,
    close: FuncId,
    fd: u32,
    /// Local holding a descriptor of a second file whose description a
    /// `dup` names too.
    shared: u32,
    /// Local holding the listening socket of `addr`.
    listener: u32,
    buf: u32,
    /// Four iovecs of 16 bytes over `buf`.
    iovs: u32,
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
    let open = sys(&mut mb, Sysno::open);
    let pipe = sys(&mut mb, Sysno::pipe);
    let socketpair = sys(&mut mb, Sysno::socketpair);
    let dup = sys(&mut mb, Sysno::dup);
    let bind = sys(&mut mb, Sysno::bind);
    let listen = sys(&mut mb, Sysno::listen);
    let mut env = Env {
        getpid: sys(&mut mb, Sysno::getpid),
        clock_gettime: sys(&mut mb, Sysno::clock_gettime),
        gettimeofday: sys(&mut mb, Sysno::gettimeofday),
        lseek: sys(&mut mb, Sysno::lseek),
        read: sys(&mut mb, Sysno::read),
        write: sys(&mut mb, Sysno::write),
        pread: sys(&mut mb, Sysno::pread64),
        pwrite: sys(&mut mb, Sysno::pwrite64),
        fstat: sys(&mut mb, Sysno::fstat),
        writev: sys(&mut mb, Sysno::writev),
        sigprocmask: sys(&mut mb, Sysno::rt_sigprocmask),
        socket: sys(&mut mb, Sysno::socket),
        connect: sys(&mut mb, Sysno::connect),
        accept: sys(&mut mb, Sysno::accept),
        close: sys(&mut mb, Sysno::close),
        fd: 0,
        shared: 0,
        listener: 0,
        buf: 0,
        iovs: 0,
        scratch: 0,
        pipe_fds: 0,
        pair_fds: 0,
        addr: 0,
    };
    mb.memory(4, Some(16));
    let path = mb.c_str("/tmp/locks.dat");
    let shared_path = mb.c_str("/tmp/locks-shared.dat");
    env.buf = mb.data(&[b'x'; IO_BYTES as usize]);
    let iovs: Vec<u8> = (0..4)
        .flat_map(|i| [env.buf + 16 * i, 16])
        .flat_map(u32::to_le_bytes)
        .collect();
    env.iovs = mb.data(&iovs);
    env.scratch = mb.reserve(256);
    env.pipe_fds = mb.reserve(8);
    env.pair_fds = mb.reserve(8);
    env.addr = mb.data(&sockaddr_in(7100));
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        env.fd = b.local(I64);
        env.shared = b.local(I64);
        env.listener = b.local(I64);
        let i = b.local(I32);
        // O_CREAT | O_RDWR
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(env.fd);
        env.rw(b, env.write);
        b.i64(shared_path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(env.shared);
        env.rw_local(b, env.shared, env.write);
        b.local_get(env.shared).call(dup).drop_();
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

/// `rt_sigprocmask(how, set, oldset)` with `set` at `scratch + 8` when
/// given.
fn sigprocmask(b: &mut FuncBuilder, e: &Env, how: i64, set: bool) {
    let set = if set { e.scratch as i64 + 8 } else { 0 };
    b.i64(how)
        .i64(set)
        .i64(e.scratch as i64)
        .i64(8)
        .call(e.sigprocmask)
        .drop_();
}

#[test]
fn calls_that_need_the_core_take_the_kernel_lock_and_nothing_else() {
    // `getpid` does not: its answer was fixed when the task was made.
    assert_eq!(
        locks_per_round(&|b, e| {
            b.call(e.getpid).drop_();
        }),
        0
    );
    // Nor does a mask query, or a call that blocks more: the mask is the
    // task's own word. Was 1 each: the kernel lock.
    assert_eq!(locks_per_round(&|b, e| sigprocmask(b, e, 0, false)), 0);
    let set_usr1 = |b: &mut FuncBuilder, e: &Env| {
        b.i32(e.scratch as i32).i64(1 << 9).store64(8);
    };
    let block = locks_per_round(&|b, e| {
        set_usr1(b, e);
        // SIG_BLOCK.
        sigprocmask(b, e, 0, true);
    });
    assert_eq!(block, 0, "SIG_BLOCK");
    // One that unblocks takes the kernel lock, and the process's pending
    // set to re-check what the call made deliverable.
    let block_unblock = locks_per_round(&|b, e| {
        set_usr1(b, e);
        sigprocmask(b, e, 0, true);
        // SIG_UNBLOCK.
        sigprocmask(b, e, 1, true);
    });
    assert_eq!(block_unblock - block, 2, "SIG_UNBLOCK");
}

/// Like Linux's vDSO: the time is a read of the clock shard, after the
/// task's deferred ticks are charged to it. Was 1 each: the kernel lock.
#[test]
fn reading_the_clock_takes_no_lock() {
    let clock_gettime = locks_per_round(&|b, e| {
        // CLOCK_MONOTONIC
        b.i64(1).i64(e.scratch as i64).call(e.clock_gettime).drop_();
    });
    assert_eq!(clock_gettime, 0, "clock_gettime");
    let gettimeofday = locks_per_round(&|b, e| {
        b.i64(e.scratch as i64).i64(0).call(e.gettimeofday).drop_();
    });
    assert_eq!(gettimeofday, 0, "gettimeofday");
}

#[test]
fn a_regular_file_call_takes_the_fd_table_and_only_what_it_touches() {
    // Neither the inode nor — on a description only this descriptor
    // names — the offset's lock: `lseek(SEEK_SET)` needs no size. Was 2.
    let lseek = locks_per_round(&|b, e| e.rewind(b));
    assert_eq!(lseek, 1, "lseek");
    // The inode, not the offset.
    let fstat = locks_per_round(&|b, e| {
        b.local_get(e.fd)
            .i64(e.scratch as i64)
            .call(e.fstat)
            .drop_();
    });
    assert_eq!(fstat, 2, "fstat");
    assert_eq!(
        locks_per_round(&|b, e| e.positional(b, e.pread)),
        2,
        "pread64"
    );
    assert_eq!(
        locks_per_round(&|b, e| e.positional(b, e.pwrite)),
        2,
        "pwrite64"
    );
    // The inode: a transfer and its offset advance are one step, which
    // nobody else can see half made. Sequential transfers rewind first
    // so the file stays 64 bytes. Was 3 each: the description lock.
    let read = locks_per_round(&|b, e| {
        e.rewind(b);
        e.rw(b, e.read);
    });
    assert_eq!(read - lseek, 2, "read");
    let write = locks_per_round(&|b, e| {
        e.rewind(b);
        e.rw(b, e.write);
    });
    assert_eq!(write - lseek, 2, "write");
}

#[test]
fn a_description_a_dup_names_still_locks_its_offset() {
    // `shared` and its dup are one description: a call through either
    // takes the description lock, as every call did before.
    let lseek = locks_per_round(&|b, e| {
        b.local_get(e.shared).i64(0).i64(0).call(e.lseek).drop_();
    });
    assert_eq!(lseek, 2, "lseek");
    let read = locks_per_round(&|b, e| {
        b.local_get(e.shared).i64(0).i64(0).call(e.lseek).drop_();
        e.rw_local(b, e.shared, e.read);
    });
    assert_eq!(read - lseek, 3, "read");
    let write = locks_per_round(&|b, e| {
        b.local_get(e.shared).i64(0).i64(0).call(e.lseek).drop_();
        e.rw_local(b, e.shared, e.write);
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
        sigprocmask(b, e, 0, false);
    });
    // getpid 0, lseek 1, write 2, lseek 1, read 2, fstat 2, sigprocmask
    // 0. Was 17 (getpid's kernel lock, the VFS under each `lseek`, the
    // description under `fstat`), then 13 (the description under each
    // `lseek`, `read` and `write`, the kernel lock under the mask
    // query).
    assert_eq!(round, 8);
}

#[test]
fn a_vectored_call_resolves_its_descriptor_once() {
    let writev = locks_per_round(&|b, e| {
        e.rewind(b);
        b.local_get(e.fd)
            .i64(e.iovs as i64)
            .i64(4)
            .call(e.writev)
            .drop_();
    });
    let lseek = locks_per_round(&|b, e| e.rewind(b));
    // The fd table once, then the VFS per iovec. Resolved per transfer,
    // four iovecs took 12; with the description locked per iovec, 9.
    assert_eq!(writev - lseek, 1 + 4, "writev of four iovecs");
}

#[test]
fn a_pipe_round_trip_in_one_task_takes_no_more_locks_than_it_did() {
    // Per call: the fd table, the pipe (held by the description, which
    // is read without its lock), and the waitqueue for the post — 3, so
    // 6 a pair. Commit `75d73ce` took 10 (it looked the pipe's id up in
    // a slab, and locked the description); `f744866`, measured with the
    // same counter, 14: its fd table kept a one-entry lookup cache
    // behind two holds of a mutex of its own. (On that tree the
    // regular-file calls above read 6 for `lseek`, 5 for
    // `fstat`/`pread64`/`pwrite64`, 9 for `read`/`write`, and the dense
    // round 37.)
    let pair = locks_per_round(&|b, e| {
        e.pipe_end(b, 1, e.write);
        e.pipe_end(b, 0, e.read);
    });
    assert_eq!(pair, 6, "write+read on a pipe");
}

#[test]
fn a_stream_socket_transfer_holds_each_end_once() {
    // write: fd table, own socket, peer, waitqueue; read (bytes there):
    // fd table, socket, waitqueue. Commit `75d73ce` took 7 + 5, reaching
    // both sockets through their slab's lock; `fc6723c` 5 + 4, the
    // description locked for the socket it holds.
    let pair = locks_per_unit(500, 1, &|rounds| {
        guest(rounds, &|b, e| {
            e.end_of(b, e.pair_fds, 0, e.write);
            e.end_of(b, e.pair_fds, 1, e.read);
        })
    });
    assert_eq!(pair, (7, 3), "write+read on a socket pair");
    let pipe = locks_per_unit(500, 1, &|rounds| {
        guest(rounds, &|b, e| {
            e.pipe_end(b, 1, e.write);
            e.pipe_end(b, 0, e.read);
        })
    });
    assert_eq!(pipe, (6, 2), "write+read on a pipe");
}

#[test]
fn the_connection_round_is_the_sum_of_its_calls() {
    // One task plays both ends of a loopback connection: every call
    // finds what it needs, nothing parks. Each call but `read`/`write`
    // pays the kernel lock on top of `lock_budget.rs`'s count:
    //   socket   1 + fd table                                       2
    //   connect  1 + 5                                              6
    //   accept   1 + 3                                              4
    //   write, read, write, read                        4 + 3 + 4 + 3
    //   close    1 + 4 (connected), 1 + 3 (peer gone)               9
    // Socket locks: connect 3, accept 1, the transfers 2 + 1 + 2 + 1,
    // the closes 2 + 1. Commit `75d73ce` took 87, `fc6723c` 41: one
    // description lock per call but `socket` and `close`.
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
    assert_eq!(round, (35, 13));
}

/// The request-level budgets: what one more request (or job) of the
/// servers `wali_bench` runs costs at the runner — every crossing, every
/// park and wake, the scheduler's own locks. "Was" is this test against
/// commit `85e35f4`, the parent of the one-hold `epoll_wait` pop, then
/// against `fc6723c`, whose descriptor calls locked the description to
/// read what it refers to.
#[test]
fn a_request_stays_inside_its_lock_budget() {
    // `memcached_threads`: socket, connect, write, read (parks), close
    // against accept (parks), read, write, close. Was 62: a park took
    // the kernel lock and the waitqueue to ask what the blocked call now
    // says itself, and a drain of the woken list went through the kernel
    // lock; then 56.
    let loopback = locks_per_unit(64, 1, &|n| apps::memcached_sim(n).module);
    assert!(loopback.0 <= 48, "loopback request: {loopback:?}");
    // `prefork_serve`: the same connection, won by one of eight workers
    // all woken through their epoll instances. Was 164, then 102, then
    // 94 (each `epoll_wait` attempt under the kernel lock, each park
    // under the waitqueue's).
    let prefork = locks_per_unit(8, 8, &|n| apps::prefork_server_sim(8, n).module);
    assert!(prefork.0 <= 80, "prefork request: {prefork:?}");
    // `bash_jobs`: fork, a pipe between parent and child, wait4. Was 59,
    // then 58, then 54 (SIGCHLD took the waitqueue lock to find the
    // parent's wait already over).
    let job = locks_per_unit(32, 1, &|n| apps::bash_sim(n).module);
    assert!(job.0 <= 53, "bash job: {job:?}");
    println!("locks per unit: loopback {loopback:?} prefork {prefork:?} bash job {job:?}");
}

/// What the herd costs: every connection wakes every worker through its
/// own epoll instance, one wins and the rest find the listener drained
/// and park again. One more worker is one more such wake per request —
/// the push onto its ring, then the instance and the listener of its
/// retry, which runs off the kernel lock and parks in the instance: 3
/// locks. Was 5 (the kernel lock around the retry, the waitqueue for
/// its park), then 12 before that (the descriptor looked up again, the
/// instance locked three times, the listener through its description,
/// two more in the scheduler's park).
#[test]
fn one_more_worker_in_the_herd_costs_a_request_three_locks() {
    let per_request =
        [1, 2, 4, 8].map(|w| locks_per_unit(8, w, &|n| apps::prefork_server_sim(w, n).module).0);
    println!("locks per prefork request at 1/2/4/8 workers: {per_request:?}");
    for (pair, workers) in per_request.windows(2).zip([1, 2, 4]) {
        assert_eq!(
            pair[1] - pair[0],
            3 * workers,
            "{workers} more workers: {per_request:?}"
        );
    }
}
