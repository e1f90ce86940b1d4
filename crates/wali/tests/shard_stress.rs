//! Contention stress for the sharded kernel: disjoint objects must not
//! serialize.
//!
//! Four forked processes run on four host workers, each hammering its
//! *own* pipe, its own socketpair and its own epoll instance. With the
//! kernel sharded into per-object locks, none of that I/O shares a
//! lock: the lock-order tracker's contention counter for the
//! [`vkernel::LockClass::Object`] class must not move at all, and the
//! syscalls must actually travel the sharded fast path (the run's own
//! `trace.fastpath_hits` must account for them).
//!
//! This file stays a single `#[test]` in its own integration-test
//! binary: the contention counters are process-global, so any parallel
//! test in the same process would make the zero-delta assertion
//! meaningless.

use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use wali::guest::{sys, Sysno};
use wali::runner::TaskEnd;
use wali::testkit::{run_module, RunnerOpts};

const CHILDREN: u32 = 4;
const ROUNDS: u32 = 400;
const CHUNK: u32 = 32;

/// `CHILDREN` forked processes, each bouncing `ROUNDS` × `CHUNK` bytes
/// through a private pipe, then a private socketpair, then checking a
/// private epoll instance; the parent reaps them all.
fn disjoint_hammer_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit);
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let socketpair = sys(&mut mb, Sysno::socketpair);
    let epoll_create1 = sys(&mut mb, Sysno::epoll_create1);
    let epoll_ctl = sys(&mut mb, Sysno::epoll_ctl);
    let epoll_wait = sys(&mut mb, Sysno::epoll_wait);
    mb.memory(4, Some(16));

    let fds = mb.reserve(8); // child's pipe [rfd, wfd]
    let sp = mb.reserve(8); // child's socketpair [a, b]
    let ev = mb.reserve(16); // epoll_event scratch (12 bytes used)
    let buf = mb.reserve(CHUNK); // I/O payload
    let status = mb.reserve(8); // wait4 status

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let i = b.local(I32);
        let j = b.local(I32);
        let pid = b.local(I64);
        let epfd = b.local(I64);

        // Fork the workers; each child runs the hammer and exits.
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            b.call(fork).local_set(pid);
            b.local_get(pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // --- child: private pipe ping --------------------------
                b.i64(fds as i64).call(pipe).drop_();
                b.i32(0).local_set(j);
                b.loop_(BlockType::Empty, |b| {
                    b.i32(fds as i32)
                        .load32(4)
                        .extend_u()
                        .i64(buf as i64)
                        .i64(CHUNK as i64)
                        .call(write)
                        .drop_();
                    b.i32(fds as i32)
                        .load32(0)
                        .extend_u()
                        .i64(buf as i64)
                        .i64(CHUNK as i64)
                        .call(read)
                        .drop_();
                    b.local_get(j)
                        .i32(1)
                        .add32()
                        .local_tee(j)
                        .i32(ROUNDS as i32)
                        .lt_s32()
                        .br_if(0);
                });
                // --- child: private socketpair ping --------------------
                // AF_UNIX, SOCK_STREAM; bytes written to end A surface
                // in end B's receive queue.
                b.i64(1)
                    .i64(1)
                    .i64(0)
                    .i64(sp as i64)
                    .call(socketpair)
                    .drop_();
                b.i32(0).local_set(j);
                b.loop_(BlockType::Empty, |b| {
                    b.i32(sp as i32)
                        .load32(0)
                        .extend_u()
                        .i64(buf as i64)
                        .i64(CHUNK as i64)
                        .call(write)
                        .drop_();
                    b.i32(sp as i32)
                        .load32(4)
                        .extend_u()
                        .i64(buf as i64)
                        .i64(CHUNK as i64)
                        .call(read)
                        .drop_();
                    b.local_get(j)
                        .i32(1)
                        .add32()
                        .local_tee(j)
                        .i32(ROUNDS as i32)
                        .lt_s32()
                        .br_if(0);
                });
                // --- child: private epoll readiness --------------------
                b.i64(0).call(epoll_create1).local_set(epfd);
                // event = { events: EPOLLIN, data: 7 } (packed layout).
                b.i32(ev as i32).i32(0x001).store32(0);
                b.i32(ev as i32).i64(7).store64(4);
                b.local_get(epfd)
                    .i64(1) // EPOLL_CTL_ADD
                    .i32(fds as i32)
                    .load32(0)
                    .extend_u()
                    .i64(ev as i64)
                    .call(epoll_ctl)
                    .drop_();
                b.i32(fds as i32)
                    .load32(4)
                    .extend_u()
                    .i64(buf as i64)
                    .i64(1)
                    .call(write)
                    .drop_();
                b.local_get(epfd)
                    .i64(ev as i64)
                    .i64(1)
                    .i64(0)
                    .call(epoll_wait)
                    .drop_();
                b.i32(fds as i32)
                    .load32(0)
                    .extend_u()
                    .i64(buf as i64)
                    .i64(1)
                    .call(read)
                    .drop_();
                b.i64(0).call(exit).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(CHILDREN as i32)
                .lt_s32()
                .br_if(0);
        });
        // Reap all children.
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            b.i64(-1)
                .i64(status as i64)
                .i64(0)
                .i64(0)
                .call(wait4)
                .drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(CHILDREN as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

#[test]
fn disjoint_objects_do_not_contend() {
    let module = disjoint_hammer_program();
    let obj_before = vkernel::contention(vkernel::LockClass::Object);

    let report = run_module(
        &module,
        &[],
        &[],
        RunnerOpts {
            workers: Some(4),
            ..RunnerOpts::single()
        },
    )
    .expect("run");
    assert_eq!(report.outcome.main_exit, Some(TaskEnd::Exited(0)));
    assert!(
        report.leaks.is_clean(),
        "leaks: {}",
        report.leaks.describe()
    );

    // Every object lock in the run guards a single child's private
    // pipe/socket/epoll: nothing may ever have waited on one.
    let obj_delta = vkernel::contention(vkernel::LockClass::Object) - obj_before;
    assert_eq!(
        obj_delta, 0,
        "disjoint per-object locks contended {obj_delta} time(s)"
    );

    // And the hot loops must actually have run shard-side: each child
    // pushes 2 * ROUNDS pipe + 2 * ROUNDS socket transfers through the
    // fast path (minus at most a handful of blocked-retry bails).
    let hits = report.outcome.trace.fastpath_hits;
    assert!(
        hits >= (CHILDREN * ROUNDS * 2) as u64,
        "fast path took only {hits} syscalls"
    );
}
