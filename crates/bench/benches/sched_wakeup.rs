//! Scheduler wakeup bench: blocked-task wakeup cost vs. parked-task count.
//!
//! A ping-pong pair of threads bounces one byte through two pipes for a
//! fixed number of rounds while `P` extra threads sit parked on a futex
//! word for the whole run. Event-driven scheduling makes the per-round
//! cost independent of `P`: a pipe write wakes exactly the subscribed
//! reader, so blocked-syscall retries stay O(tasks) (asserted below; the
//! retired poll-every-blocked-task loop retried all `P` parked futexes on
//! every pass — DESIGN.md "Retired baselines").

use apps::progs::sys;
use bench::harness;
use wali::runner::WaliRunner;
use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

const ROUNDS: u32 = 256;

/// Ping-pong over two pipes with `parked` futex waiters in the background.
/// The waiters block until process exit (`exit_group` finalizes them).
fn pingpong_program(parked: u32) -> Module {
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
                    .i32(ROUNDS as i32)
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
                .i32(ROUNDS as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

fn run_pingpong(module: &Module) -> wali::runner::SchedStats {
    let mut runner = WaliRunner::new_default();
    runner
        .register_program("/usr/bin/pingpong", module)
        .expect("register");
    runner.spawn("/usr/bin/pingpong", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert_eq!(out.exit_code(), Some(0));
    out.sched
}

fn main() {
    let mut g = harness::group("sched_wakeup");
    for &parked in &[0u32, 64, 256] {
        let module = bench::reload(&pingpong_program(parked));
        g.bench_function(&format!("pingpong/evt/parked={parked}"), |b| {
            b.iter(|| run_pingpong(&module))
        });
    }
    g.finish();

    // No retry storm: parked tasks cost nothing per round.
    let parked = 256;
    let tasks = parked as u64 + 2;
    let retries = run_pingpong(&bench::reload(&pingpong_program(parked))).blocked_retries;
    println!("\nblocked retries over {ROUNDS} rounds with {parked} parked tasks: {retries}");
    assert!(retries <= 6 * tasks, "retry storm: {retries} > 6 x {tasks}");
}
