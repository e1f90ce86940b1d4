//! What a process costs: one `fork → exit → wait4` cycle, in time and in
//! allocations (DESIGN.md "What a process costs").
//!
//! * `lifecycle/fork_exit_wait/live=2` — ns per cycle, differential like
//!   `table2/*` (probe guest − base guest, ÷ cycles): a process forks,
//!   the child exits at once, the process reaps it — two tasks alive
//!   besides init and the guest's main process.
//! * `lifecycle/fork_exit_wait/live=2048` — the same cycle with 2 046
//!   more processes parked in a pipe `read` the whole time (both guests
//!   fork and release them, so they cancel): anything on the cycle's
//!   path that walks every task in the kernel shows as the difference
//!   between the two rows.
//! * `alloc/bash_job`, `alloc/bash_job_bytes` — allocations and bytes
//!   one more `apps::bash_sim` job requests from the allocator (a fork,
//!   a pipe, five calls in the child, a read and a `wait4` in the
//!   parent), counted by `wali::testkit::CountingAlloc`: counts, not times —
//!   `crates/wali/tests/alloc_free_lifecycle.rs` asserts them, beside
//!   the `locks/bash_job` of `locks_per_crossing.rs`.

use std::time::Instant;

use bench::harness;
use wali::testkit::{allocated, sys, CountingAlloc};
use wali::WaliRunner;
use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::{Module, SafepointScheme};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cycles of every timed guest's loop.
const CYCLES: u32 = 4_000;
/// Probe/base pairs each timed row takes its median over.
const PAIRS: usize = 15;

/// The main process forks `parked` children that sit in a `read` on a
/// pipe nobody writes, then one more — the one that is timed: it runs
/// `CYCLES` rounds of { fork; child exits; `wait4` } if `cycle` (an empty
/// loop otherwise). When that one is done the main process closes the
/// pipe and the parked children see end-of-file and exit. (The parked
/// ones are siblings of the timed process, not its children: what
/// `wait4` pays to find a child among its own children is not what this
/// is about.)
fn guest(parked: u32, cycle: bool) -> Module {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, "fork", 0);
    let pipe = sys(&mut mb, "pipe", 1);
    let read = sys(&mut mb, "read", 3);
    let close = sys(&mut mb, "close", 1);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(1, Some(4));
    let fds = mb.reserve(8);
    let buf = mb.reserve(8);
    let status = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (pid, i) = (b.local(I64), b.local(I32));
        let close_end = |b: &mut wasm::build::FuncBuilder, end: u32| {
            b.i32(fds as i32).load32(4 * end).extend_u();
            b.call(close).drop_();
        };
        b.i64(fds as i64).call(pipe).drop_();
        if parked > 0 {
            b.loop_(BlockType::Empty, |b| {
                b.call(fork).i64(0).eq64();
                b.if_(BlockType::Empty, |b| {
                    close_end(b, 1);
                    b.i32(fds as i32).load32(0).extend_u();
                    b.i64(buf as i64).i64(1).call(read).drop_();
                    b.i64(0).call(exit).drop_();
                });
                b.local_get(i).i32(1).add32().local_tee(i);
                b.i32(parked as i32).lt_s32().br_if(0);
            });
        }
        b.call(fork).local_tee(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // The timed process.
            close_end(b, 0);
            close_end(b, 1);
            b.i32(0).local_set(i);
            b.loop_(BlockType::Empty, |b| {
                if cycle {
                    b.call(fork).local_set(pid);
                    b.local_get(pid).i64(0).eq64();
                    b.if_(BlockType::Empty, |b| {
                        b.i64(0).call(exit).drop_();
                    });
                    b.local_get(pid).i64(status as i64).i64(0).i64(0);
                    b.call(wait4).drop_();
                }
                b.local_get(i).i32(1).add32().local_tee(i);
                b.i32(CYCLES as i32).lt_s32().br_if(0);
            });
            b.i64(0).call(exit).drop_();
        });
        b.local_get(pid).i64(status as i64).i64(0).i64(0);
        b.call(wait4).drop_();
        close_end(b, 1);
        b.i32(0);
    });
    mb.export("_start", main);
    bench::reload(&mb.build())
}

fn runner_for(module: &Module) -> WaliRunner {
    let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
    runner.set_workers(1);
    runner.register_program("/usr/bin/probe", module).unwrap();
    runner.spawn("/usr/bin/probe", &[], &[]).unwrap();
    runner
}

/// Wall ns of `run()` for one guest.
fn time_run(module: &Module) -> f64 {
    let mut runner = runner_for(module);
    let t0 = Instant::now();
    let out = runner.run().expect("run");
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(out.exit_code(), Some(0));
    ns
}

/// Median over [`PAIRS`] back-to-back pairs of `(probe − base) ÷ CYCLES`.
fn ns_per_cycle(parked: u32) -> f64 {
    let (probe, base) = (guest(parked, true), guest(parked, false));
    let mut per_cycle: Vec<f64> = (0..PAIRS)
        .map(|_| (time_run(&probe) - time_run(&base)) / CYCLES as f64)
        .collect();
    per_cycle.sort_by(|a, b| a.total_cmp(b));
    per_cycle[PAIRS / 2]
}

/// `(allocations, bytes)` requested during `run()` of a `jobs`-job shell.
fn allocs_of_bash(jobs: u32) -> (u64, u64) {
    let mut runner = runner_for(&bench::reload(&apps::bash_sim(jobs).module));
    let before = allocated();
    let out = runner.run().expect("run");
    let after = allocated();
    assert_eq!(out.exit_code(), Some(0));
    (after.0 - before.0, after.1 - before.1)
}

fn main() {
    // Whatever the first run of a process pays once (the import table,
    // the prepared image, page buffers) is paid here.
    time_run(&guest(0, false));
    for live in [2u32, 2048] {
        let row = format!("fork_exit_wait/live={live}");
        harness::report_value("lifecycle", &row, ns_per_cycle(live - 2));
    }
    let (few, many) = (allocs_of_bash(1_000), allocs_of_bash(5_000));
    let per_job = |few: u64, many: u64| (many - few) as f64 / 4_000.0;
    // Counts, in the harness's one column.
    harness::report_value("alloc", "bash_job", per_job(few.0, many.0));
    harness::report_value("alloc", "bash_job_bytes", per_job(few.1, many.1));
}
