//! Park → wake → retry allocates nothing in steady state.
//!
//! Two threads bounce one byte through two pipes, so every round is two
//! blocked reads: a park, a post that hits, a wake, a drain, a retry
//! crossing. The counting allocator of `alloc_free_crossing.rs` watches
//! `run()`: the count may depend on start-up (the first park of a task
//! grows its wait record, the woken list and the run queue to size), but
//! not on the number of rounds. A second guest checks the other shape
//! `prefork_serve` lives on: an `epoll_wait` that is woken and finds
//! nothing ready re-parks without allocating. A third prices a loopback
//! connection per request (`memcached_threads`): it allocates — a
//! connection is made of objects — but the same amount each time.
//!
//! The counter is per thread and the runs pin one worker, so the whole
//! run happens on the counting thread.

use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::I32;
use wasm::Module;

use wali::guest::{sys, Sysno};
use wali::runner::WaliRunner;
use wali::testkit::{allocated, roundtrip, spawn_thread, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Main writes pipe A and reads pipe B `rounds` times; a `clone` thread
/// echoes A to B. Exit code: the last byte that came back.
fn pingpong_guest(rounds: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let clone = sys(&mut mb, Sysno::clone);
    let exit = sys(&mut mb, Sysno::exit);
    mb.memory(4, Some(16));
    let fds_a = mb.reserve(8);
    let fds_b = mb.reserve(8);
    let ping = mb.data(b"p");
    let pong = mb.reserve(8);
    let echo = mb.reserve(8);

    // `rounds` × { read(from), write(to) } or the reverse, on one buffer.
    let bounce =
        |b: &mut wasm::build::FuncBuilder, first: (u32, u32, bool), then: (u32, u32, bool)| {
            let i = b.local(I32);
            b.loop_(BlockType::Empty, |b| {
                for (fds, buf, is_write) in [first, then] {
                    let end = if is_write { 4 } else { 0 };
                    b.i32(fds as i32).load32(end).extend_u();
                    b.i64(buf as i64).i64(1);
                    b.call(if is_write { write } else { read }).drop_();
                }
                b.local_get(i)
                    .i32(1)
                    .add32()
                    .local_tee(i)
                    .i32(rounds as i32)
                    .lt_s32()
                    .br_if(0);
            });
        };

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i64(fds_a as i64).call(pipe).drop_();
        b.i64(fds_b as i64).call(pipe).drop_();
        spawn_thread(b, clone, |b| {
            bounce(b, (fds_a, echo, false), (fds_b, echo, true));
            b.i64(0).call(exit).drop_();
        });
        bounce(b, (fds_a, ping, true), (fds_b, pong, false));
        b.i32(pong as i32).load8u(0);
    });
    mb.export("_start", main);
    mb.build()
}

/// Allocations made on this thread by `run()` of a `rounds`-round
/// ping-pong.
fn allocs_of_pingpong(rounds: u32) -> u64 {
    let module = roundtrip(&pingpong_guest(rounds));
    let mut runner = WaliRunner::new_default();
    runner.set_workers(1);
    runner.register_program("/usr/bin/app", &module).unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let before = allocated().0;
    let out = runner.run().expect("run");
    let allocs = allocated().0 - before;
    assert_eq!(out.exit_code(), Some(b'p' as i32));
    assert_eq!(out.trace.counts.of(Sysno::write), 2 * rounds as u64);
    // Every round parks both sides; the kernel woke each park.
    assert!(out.sched.parks >= 2 * rounds as u64 - 2, "{:?}", out.sched);
    assert_eq!(out.sched.parks, out.sched.wakeups, "{:?}", out.sched);
    allocs
}

#[test]
fn pingpong_allocations_do_not_grow_with_rounds() {
    // A thread's first run also allocates the page buffers its later
    // ones recycle (`wasm::mem`'s pool).
    allocs_of_pingpong(1);
    let few = allocs_of_pingpong(64);
    let many = allocs_of_pingpong(1024);
    assert_eq!(
        few,
        many,
        "960 more rounds (≈ 1 920 more park/wake/retry cycles) made {} more allocations",
        many as i64 - few as i64
    );
}

/// `waiters` threads `epoll_wait` on the read end of pipe A through one
/// *edge-triggered* registration; main writes one byte to A and blocks
/// on pipe B, `events` times. Every write wakes the whole herd: the
/// first waiter to run wins the edge, drains the byte and acks on B;
/// the others find nothing and re-park — the `prefork_serve` shape.
fn herd_guest(waiters: u32, events: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let clone = sys(&mut mb, Sysno::clone);
    let exit = sys(&mut mb, Sysno::exit);
    let exit_group = sys(&mut mb, Sysno::exit_group);
    let epoll_create1 = sys(&mut mb, Sysno::epoll_create1);
    let epoll_ctl = sys(&mut mb, Sysno::epoll_ctl);
    let epoll_wait = sys(&mut mb, Sysno::epoll_wait);
    mb.memory(4, Some(16));
    let fds_a = mb.reserve(8);
    let fds_b = mb.reserve(8);
    let byte = mb.data(b"e");
    let sink = mb.reserve(8);
    let ack = mb.reserve(8);
    // epoll_event { events: EPOLLIN | EPOLLET, data: 7 }, packed.
    let mut ev = Vec::new();
    ev.extend_from_slice(&(0x001u32 | (1 << 31)).to_le_bytes());
    ev.extend_from_slice(&7u64.to_le_bytes());
    let ev_in = mb.data(&ev);
    let ev_out = mb.reserve(64);
    let epfd = mb.reserve(8);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let i = b.local(I32);
        b.i64(fds_a as i64).call(pipe).drop_();
        b.i64(fds_b as i64).call(pipe).drop_();
        b.i32(epfd as i32);
        b.i64(0).call(epoll_create1);
        b.store64(0);
        // epoll_ctl(epfd, EPOLL_CTL_ADD, a.read, &ev)
        b.i32(epfd as i32).load64(0);
        b.i64(1);
        b.i32(fds_a as i32).load32(0).extend_u();
        b.i64(ev_in as i64);
        b.call(epoll_ctl).drop_();
        for _ in 0..waiters {
            spawn_thread(b, clone, |b| {
                b.loop_(BlockType::Empty, |b| {
                    b.i32(epfd as i32).load64(0);
                    b.i64(ev_out as i64).i64(4).i64(-1);
                    b.call(epoll_wait).drop_();
                    b.i32(fds_a as i32).load32(0).extend_u();
                    b.i64(sink as i64).i64(1);
                    b.call(read).drop_();
                    b.i32(fds_b as i32).load32(4).extend_u();
                    b.i64(sink as i64).i64(1);
                    b.call(write).drop_();
                    b.br(0);
                });
                b.i64(0).call(exit).drop_();
            });
        }
        b.loop_(BlockType::Empty, |b| {
            b.i32(fds_a as i32).load32(4).extend_u();
            b.i64(byte as i64).i64(1);
            b.call(write).drop_();
            b.i32(fds_b as i32).load32(0).extend_u();
            b.i64(ack as i64).i64(1);
            b.call(read).drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(events as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i64(0).call(exit_group).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

/// `(allocations, blocked_retries)` of `run()` of the herd guest.
fn allocs_of_herd(events: u32) -> (u64, u64) {
    let module = roundtrip(&herd_guest(4, events));
    let mut runner = WaliRunner::new_default();
    runner.set_workers(1);
    runner.register_program("/usr/bin/app", &module).unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let before = allocated().0;
    let out = runner.run().expect("run");
    let allocs = allocated().0 - before;
    assert_eq!(out.exit_code(), Some(0));
    assert_eq!(out.trace.counts.of(Sysno::write), 2 * events as u64);
    (allocs, out.sched.blocked_retries)
}

#[test]
fn a_woken_epoll_wait_that_finds_nothing_allocates_nothing() {
    allocs_of_herd(1);
    let (few, few_retries) = allocs_of_herd(16);
    let (many, many_retries) = allocs_of_herd(256);
    // The extra events really were herd wakeups that found nothing:
    // three of four waiters lose every edge and re-park untouched.
    assert!(
        many_retries - few_retries >= 3 * 240,
        "spurious retries {few_retries} -> {many_retries}"
    );
    // One event reports one `(events, data)` pair: the answer is the
    // only thing an `epoll_wait` may allocate, and the losers' pops —
    // woken, nothing ready — allocate zero.
    assert_eq!(
        many - few,
        240,
        "240 more edges: one answer each, nothing for the {} spurious retries",
        many_retries - few_retries
    );
}

/// Allocations of `run()` of `apps::memcached_sim(requests)`: a client
/// thread and a server thread, one loopback connection per request.
fn allocs_of_loopback(requests: u32) -> u64 {
    let module = roundtrip(&apps::memcached_sim(requests).module);
    let mut runner = WaliRunner::new_default();
    runner.set_workers(1);
    runner.register_program("/usr/bin/app", &module).unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let before = allocated().0;
    let out = runner.run().expect("run");
    let allocs = allocated().0 - before;
    assert_eq!(out.exit_code(), Some(0));
    assert_eq!(out.trace.counts.of(Sysno::connect), requests as u64);
    allocs
}

#[test]
fn a_connection_round_trip_allocates_a_fixed_amount() {
    allocs_of_loopback(1);
    let [a, b, c] = [64, 128, 1024].map(allocs_of_loopback);
    // A connection is objects — two sockets, two descriptions, two
    // receive buffers, the waiter list of the wait head that comes and
    // goes with its id (the head's page stays: `slab::Paged` keeps the
    // one it emptied last), the parsed `sockaddr`: eight. What it must
    // not do is cost more as the run gets longer — no table that grows
    // with requests served, no list rebuilt per call.
    let per_request = (b - a) / 64;
    assert_eq!((b - a) % 64, 0, "a whole number per request");
    assert_eq!(
        c - a,
        960 * per_request,
        "request 1 000 costs what request 100 did"
    );
    assert_eq!(per_request, 8, "allocations per request");
}
