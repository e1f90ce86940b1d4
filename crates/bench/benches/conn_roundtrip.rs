//! What a loopback connection costs, end to end and per transfer.
//!
//! Differential rows, priced the way `table2_syscall_overhead` prices a
//! crossing (probe guest − base guest, ÷ rounds): one task plays both
//! ends, so every call finds what it needs and nothing parks — the rows
//! are the calls themselves (dispatch, host-call boundary, registry
//! wrapper, kernel model), not the scheduler.
//!
//! * `conn/loopback_roundtrip` — `socket` + `connect` + `accept` +
//!   request (`write`/`read`) + reply (`write`/`read`) + 2 × `close`:
//!   ns per connection, the per-request shape of `memcached_threads`.
//! * `conn/socketpair_rw` — `write` on one end of a connected pair +
//!   `read` on the other: ns per pair of transfers.
//!
//! `crates/wali/tests/locks_per_crossing.rs` counts the locks of the
//! same two rounds (41 and 9).

use std::time::Instant;

use bench::harness;
use wali::testkit::{sockaddr_in, sys};
use wali::WaliRunner;
use wasm::build::{FuncBuilder, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::{Module, SafepointScheme};

/// Rounds of every guest's loop.
const ITERS: u32 = 4_000;
/// Probe/base pairs each row takes its median over.
const PAIRS: usize = 15;
const IO_BYTES: i64 = 64;

/// The loop bodies.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    Empty,
    Connection,
    SocketpairRw,
}

/// Sets up a listener on 127.0.0.1:7500 and a connected socket pair,
/// then runs `body` `ITERS` times.
fn guest(body: Body) -> Module {
    let mut mb = ModuleBuilder::new();
    let socket = sys(&mut mb, "socket", 3);
    let socketpair = sys(&mut mb, "socketpair", 4);
    let bind = sys(&mut mb, "bind", 3);
    let listen = sys(&mut mb, "listen", 2);
    let connect = sys(&mut mb, "connect", 3);
    let accept = sys(&mut mb, "accept", 3);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    mb.memory(4, Some(64));
    let addr = mb.data(&sockaddr_in(7500));
    let buf = mb.data(&[b'x'; IO_BYTES as usize]);
    let pair = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (srv, cli, conn) = (b.local(I64), b.local(I64), b.local(I64));
        let (left, right) = (b.local(I64), b.local(I64));
        let i = b.local(I32);
        let rw = |b: &mut FuncBuilder, fd: u32, call| {
            b.local_get(fd).i64(buf as i64).i64(IO_BYTES);
            b.call(call).drop_();
        };
        // AF_INET, SOCK_STREAM.
        b.i64(2).i64(1).i64(0).call(socket).local_set(srv);
        b.local_get(srv).i64(addr as i64).i64(16);
        b.call(bind).drop_();
        b.local_get(srv).i64(8).call(listen).drop_();
        // AF_UNIX, SOCK_STREAM.
        b.i64(1).i64(1).i64(0).i64(pair as i64);
        b.call(socketpair).drop_();
        b.i32(pair as i32).load32(0).extend_u().local_set(left);
        b.i32(pair as i32).load32(4).extend_u().local_set(right);
        b.loop_(BlockType::Empty, |b| {
            match body {
                Body::Empty => {}
                Body::Connection => {
                    b.i64(2).i64(1).i64(0).call(socket).local_set(cli);
                    b.local_get(cli).i64(addr as i64).i64(16);
                    b.call(connect).drop_();
                    b.local_get(srv).i64(0).i64(0);
                    b.call(accept).local_set(conn);
                    rw(b, cli, write);
                    rw(b, conn, read);
                    rw(b, conn, write);
                    rw(b, cli, read);
                    b.local_get(cli).call(close).drop_();
                    b.local_get(conn).call(close).drop_();
                }
                Body::SocketpairRw => {
                    rw(b, left, write);
                    rw(b, right, read);
                }
            }
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(ITERS as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    bench::reload(&mb.build())
}

/// Wall ns of `run()` for one guest.
fn time_run(module: &Module) -> f64 {
    let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
    runner.set_workers(1);
    runner.register_program("/usr/bin/probe", module).unwrap();
    runner.spawn("/usr/bin/probe", &[], &[]).unwrap();
    let t0 = Instant::now();
    let out = runner.run().expect("run");
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(out.exit_code(), Some(0));
    ns
}

/// Median over [`PAIRS`] back-to-back pairs of `(probe − base) ÷ ITERS`.
fn differential(probe: Body) -> f64 {
    let (probe, base) = (guest(probe), guest(Body::Empty));
    let mut per_round: Vec<f64> = (0..PAIRS)
        .map(|_| (time_run(&probe) - time_run(&base)) / ITERS as f64)
        .collect();
    per_round.sort_by(|a, b| a.total_cmp(b));
    per_round[PAIRS / 2]
}

fn main() {
    // Whatever the first run of a process pays once (the import table,
    // the prepared image, page buffers) is paid here.
    time_run(&guest(Body::Empty));
    for (name, probe) in [
        ("loopback_roundtrip", Body::Connection),
        ("socketpair_rw", Body::SocketpairRw),
    ] {
        harness::report_value("conn", name, differential(probe));
    }
}
