//! Scheduler scaling bench: M CPU-bound tasks × N host workers.
//!
//! The parent forks `TASKS` children; each child runs a pure-compute
//! LCG loop (no syscalls once spawned) and exits, while the parent
//! reaps them all. On the single-threaded scheduler the children share
//! one host core round-robin; with `WALI_WORKERS=N` the SMP executor
//! interprets them on `N` host threads, so wall time should drop by
//! ~min(N, TASKS)× — the tentpole claim of the SMP PR (≥ 2× at 4
//! workers).
//!
//! The syscall-dense group forks the same fan-out but each child
//! bounces bytes through its own private pipe instead of burning pure
//! CPU: with every syscall crossing the kernel, this is the shape the
//! sharded fast path accelerates and the worker-count CI matrix
//! watches. It runs at the *environment's* worker count
//! (`WALI_WORKERS`), so the matrix legs produce distinct rows.
//!
//! The second group runs the `prefork_server_sim` scenario — fork + one
//! inherited listening socket + epoll-parked workers — at 1 and 4
//! workers: the "parallel prefork" shape where forked server processes
//! genuinely serve concurrently.
//!
//! The A/B medians are recorded in `DESIGN.md`'s concurrency section.

use bench::harness;
use wali::guest::{sys, Sysno};
use wali::runner::WaliRunner;
use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

const TASKS: u32 = 8;
const ITERS: u32 = 150_000;

/// Fork `tasks` children; each burns `iters` LCG steps and exits; the
/// parent reaps them all.
fn cpu_fanout_program(tasks: u32, iters: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit_group);
    mb.memory(2, Some(4));
    let status = mb.reserve(8);
    let sink = mb.reserve(8);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let pid = b.local(I64);
        let f = b.local(I32);
        let x = b.local(I32);
        let j = b.local(I32);
        // Spawn loop.
        b.loop_(BlockType::Empty, |b| {
            b.call(fork).local_set(pid);
            b.local_get(pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // Child: seed from its spawn index, burn CPU.
                b.local_get(f)
                    .i32(0x9E37)
                    .mul32()
                    .i32(1)
                    .add32()
                    .local_set(x);
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(x)
                        .i32(1_664_525)
                        .mul32()
                        .i32(1_013_904_223)
                        .add32()
                        .local_set(x);
                    b.local_get(j)
                        .i32(1)
                        .add32()
                        .local_tee(j)
                        .i32(iters as i32)
                        .lt_s32()
                        .br_if(0);
                });
                // Keep the result observable so fusion cannot drop the loop.
                b.i32(sink as i32).local_get(x).store32(0);
                b.i64(0).call(exit).drop_();
            });
            b.local_get(f)
                .i32(1)
                .add32()
                .local_tee(f)
                .i32(tasks as i32)
                .lt_s32()
                .br_if(0);
        });
        // Reap loop.
        let r = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            b.i64(-1)
                .i64(status as i64)
                .i64(0)
                .i64(0)
                .call(wait4)
                .drop_();
            b.local_get(r)
                .i32(1)
                .add32()
                .local_tee(r)
                .i32(tasks as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

/// Fork `tasks` children; each bounces `rounds` x 32 bytes through its
/// own pipe (2 syscalls per round) and exits; the parent reaps them.
fn syscall_dense_program(tasks: u32, rounds: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit_group);
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    mb.memory(2, Some(4));
    let status = mb.reserve(8);
    let fds = mb.reserve(8);
    let buf = mb.reserve(32);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let pid = b.local(I64);
        let f = b.local(I32);
        let j = b.local(I32);
        // Spawn loop.
        b.loop_(BlockType::Empty, |b| {
            b.call(fork).local_set(pid);
            b.local_get(pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // Child: private pipe, write+read per round.
                b.i64(fds as i64).call(pipe).drop_();
                b.loop_(BlockType::Empty, |b| {
                    b.i32(fds as i32)
                        .load32(4)
                        .extend_u()
                        .i64(buf as i64)
                        .i64(32)
                        .call(write)
                        .drop_();
                    b.i32(fds as i32)
                        .load32(0)
                        .extend_u()
                        .i64(buf as i64)
                        .i64(32)
                        .call(read)
                        .drop_();
                    b.local_get(j)
                        .i32(1)
                        .add32()
                        .local_tee(j)
                        .i32(rounds as i32)
                        .lt_s32()
                        .br_if(0);
                });
                b.i64(0).call(exit).drop_();
            });
            b.local_get(f)
                .i32(1)
                .add32()
                .local_tee(f)
                .i32(tasks as i32)
                .lt_s32()
                .br_if(0);
        });
        // Reap loop.
        let r = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            b.i64(-1)
                .i64(status as i64)
                .i64(0)
                .i64(0)
                .call(wait4)
                .drop_();
            b.local_get(r)
                .i32(1)
                .add32()
                .local_tee(r)
                .i32(tasks as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

fn run_fanout(module: &Module, workers: usize) {
    let mut runner = WaliRunner::new_default();
    runner.set_workers(workers);
    runner
        .register_program("/usr/bin/fanout", module)
        .expect("register");
    runner.spawn("/usr/bin/fanout", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert_eq!(out.exit_code(), Some(0), "{:?}", out.main_exit);
}

fn run_prefork(module: &Module, workers: usize) {
    let mut runner = WaliRunner::new_default();
    runner.set_workers(workers);
    runner
        .register_program("/usr/bin/prefork", module)
        .expect("register");
    runner.spawn("/usr/bin/prefork", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert_eq!(out.exit_code(), Some(0), "{:?}", out.main_exit);
}

fn main() {
    // The scaling headroom is bounded by the host: on a single-core
    // machine every worker count measures the same serial interpreter
    // throughput (that the 4-worker row is then *no slower* is the
    // no-lock-overhead half of the claim).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores available: {cores} (speedup ceiling: min(workers, cores, {TASKS}))");
    let module = bench::reload(&cpu_fanout_program(TASKS, ITERS));
    let mut g = harness::group("sched_scale");
    for &workers in &[1usize, 2, 4] {
        g.bench_function(&format!("cpu/tasks={TASKS}/workers={workers}"), |b| {
            b.iter(|| run_fanout(&module, workers))
        });
    }

    // Syscall-dense fan-out at the environment's worker count: the
    // row name carries the effective count so CI's WALI_WORKERS matrix
    // legs fold into distinct trajectory entries.
    let wenv = wali::runner::workers_default();
    let dense = bench::reload(&syscall_dense_program(TASKS, 300));
    g.bench_function(&format!("dense/tasks={TASKS}/workers={wenv}"), |b| {
        b.iter(|| {
            let mut runner = WaliRunner::new_default();
            runner
                .register_program("/usr/bin/dense", &dense)
                .expect("register");
            runner.spawn("/usr/bin/dense", &[], &[]).expect("spawn");
            let out = runner.run().expect("run");
            assert_eq!(out.exit_code(), Some(0), "{:?}", out.main_exit);
        })
    });

    // Parallel prefork: the PR-3 server scenario with genuinely
    // concurrent forked workers.
    let prefork = bench::reload(&apps::progs::prefork_server_sim(3, 4).module);
    for &workers in &[1usize, 4] {
        g.bench_function(&format!("prefork/workers={workers}"), |b| {
            b.iter(|| run_prefork(&prefork, workers))
        });
    }
    g.finish();

    // The headline ratio: CPU-bound fan-out speedup at 4 workers.
    let rows: Vec<(String, harness::Stats)> =
        g.results().map(|(n, s)| (n.to_string(), s)).collect();
    let median = |suffix: &str| {
        rows.iter()
            .find(|(n, _)| n.ends_with(suffix))
            .map(|(_, s)| s.median_ns)
    };
    if let (Some(w1), Some(w4)) = (median("workers=1"), median("workers=4")) {
        println!(
            "\ncpu fan-out speedup at 4 workers: {:.2}x  ({} -> {})",
            w1 / w4,
            harness::fmt_ns(w1),
            harness::fmt_ns(w4)
        );
    }
}
