//! Scheduler wakeup bench: what one park → wake → retry costs, and what
//! it does not depend on.
//!
//! **Ping-pong.** A pair of threads bounces one byte through two pipes
//! while `P` extra threads sit parked on a futex word for the whole run.
//! Event-driven scheduling makes the per-round cost independent of `P`:
//! a pipe write wakes exactly the subscribed reader, so blocked-syscall
//! retries stay O(tasks) (asserted below; the retired
//! poll-every-blocked-task loop retried all `P` parked futexes on every
//! pass — DESIGN.md "Retired baselines"). The whole-run rows
//! (`pingpong/evt/parked=P`) also time spawning the `P` bystanders, so
//! the claim is read off the differential rows: the same program at 512
//! and at 256 rounds, `per_round = (T(512) − T(256)) / 256`, in which
//! start-up, the `P` clones and teardown cancel.
//!
//! **Herd.** `apps::prefork_server_sim`: `W` forked workers each
//! `epoll_wait` on the one inherited listener, so every connection wakes
//! all `W` and `W − 1` of them find nothing and re-park — the
//! `prefork_serve` shape. Differential in both directions: requests
//! (512 vs. 256 round trips, cancelling fork/COW set-up and shutdown) and
//! workers (8 vs. 1, cancelling the connection itself); what remains,
//! divided by the spurious retries the scheduler counted, is the cost of
//! one woken-for-nothing `epoll_wait` (`herd/waiters=8`).

use apps::progs::sys;
use bench::harness;
use wali::runner::WaliRunner;
use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

const ROUNDS: u32 = 256;

/// Ping-pong over two pipes, `rounds` times, with `parked` futex waiters
/// in the background. The waiters block until process exit (`exit_group`
/// finalizes them).
fn pingpong_program(parked: u32, rounds: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let clone = sys(&mut mb, "clone", 5);
    let futex = sys(&mut mb, "futex", 6);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(4, Some(64));
    let fds_a = mb.reserve(8);
    let fds_b = mb.reserve(8);
    let fword = mb.reserve(8);
    let buf = mb.reserve(16);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let t = b.local(I64);
        let i = b.local(I32);
        b.i64(fds_a as i64).call(pipe).drop_();
        b.i64(fds_b as i64).call(pipe).drop_();

        // Background parkers: FUTEX_WAIT on a word that never changes.
        if parked > 0 {
            b.loop_(BlockType::Empty, |b| {
                b.i64(0x10900)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .call(clone)
                    .local_set(t);
                b.local_get(t).i64(0).eq64();
                b.if_(BlockType::Empty, |b| {
                    b.i64(fword as i64)
                        .i64(0)
                        .i64(0)
                        .i64(0)
                        .i64(0)
                        .i64(0)
                        .call(futex)
                        .drop_();
                    b.i64(0).call(exit).drop_();
                });
                b.local_get(i)
                    .i32(1)
                    .add32()
                    .local_tee(i)
                    .i32(parked as i32)
                    .lt_s32()
                    .br_if(0);
            });
        }

        // Ponger thread: A → B echo.
        b.i64(0x10900)
            .i64(0)
            .i64(0)
            .i64(0)
            .i64(0)
            .call(clone)
            .local_set(t);
        b.local_get(t).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            let j = b.local(I32);
            b.loop_(BlockType::Empty, |b| {
                b.i32(fds_a as i32)
                    .load32(0)
                    .extend_u()
                    .i64(buf as i64)
                    .i64(1)
                    .call(read)
                    .drop_();
                b.i32(fds_b as i32)
                    .load32(4)
                    .extend_u()
                    .i64(buf as i64)
                    .i64(1)
                    .call(write)
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

        // Pinger (main): write A, read B, ROUNDS times.
        let j = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            b.i32(fds_a as i32)
                .load32(4)
                .extend_u()
                .i64(buf as i64)
                .i64(1)
                .call(write)
                .drop_();
            b.i32(fds_b as i32)
                .load32(0)
                .extend_u()
                .i64(buf as i64)
                .i64(1)
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
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

/// One run of `module` to completion: its scheduler counters.
fn run_program(module: &Module) -> wali::runner::SchedStats {
    let mut runner = WaliRunner::new_default();
    runner
        .register_program("/usr/bin/guest", module)
        .expect("register");
    runner.spawn("/usr/bin/guest", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert_eq!(out.exit_code(), Some(0));
    out.sched
}

fn main() {
    let mut g = harness::group("sched_wakeup");
    for &parked in &[0u32, 64, 256] {
        let mut medians = [0.0; 2];
        for (i, rounds) in [ROUNDS, 2 * ROUNDS].into_iter().enumerate() {
            let module = bench::reload(&pingpong_program(parked, rounds));
            // The 256-round rows keep their trajectory names.
            let name = match i {
                0 => format!("pingpong/evt/parked={parked}"),
                _ => format!("pingpong/evt/parked={parked}/rounds={rounds}"),
            };
            g.bench_function(&name, |b| b.iter(|| run_program(&module)));
            medians[i] = g.results().last().expect("just ran").1.median_ns;
        }
        harness::report_value(
            "sched_wakeup",
            &format!("pingpong/per_round/parked={parked}"),
            (medians[1] - medians[0]) / ROUNDS as f64,
        );
    }

    // (workers, total round trips) → (median ns, spurious retries).
    let mut herd = |workers: u32, total: u32| {
        let module =
            bench::reload(&apps::progs::prefork_server_sim(workers, total / workers).module);
        let name = format!("herd/raw/waiters={workers}/reqs={total}");
        g.bench_function(&name, |b| b.iter(|| run_program(&module)));
        let median = g.results().last().expect("just ran").1.median_ns;
        (median, run_program(&module).blocked_retries as f64)
    };
    let (few, many) = (256, 512);
    let (t8_few, r8_few) = herd(8, few);
    let (t8_many, r8_many) = herd(8, many);
    let (t1_few, r1_few) = herd(1, few);
    let (t1_many, r1_many) = herd(1, many);
    let spurious = (r8_many - r8_few) - (r1_many - r1_few);
    println!(
        "herd: {:.2} spurious retries per connection with 8 waiters",
        spurious / (many - few) as f64
    );
    assert!(spurious > 0.0, "8 waiters on one listener retry spuriously");
    harness::report_value(
        "sched_wakeup",
        "herd/waiters=8",
        ((t8_many - t8_few) - (t1_many - t1_few)) / spurious,
    );
    g.finish();

    // No retry storm: parked tasks cost nothing per round.
    let parked = 256;
    let tasks = parked as u64 + 2;
    let module = bench::reload(&pingpong_program(parked, ROUNDS));
    let retries = run_program(&module).blocked_retries;
    println!("\nblocked retries over {ROUNDS} rounds with {parked} parked tasks: {retries}");
    assert!(retries <= 6 * tasks, "retry storm: {retries} > 6 x {tasks}");
}
