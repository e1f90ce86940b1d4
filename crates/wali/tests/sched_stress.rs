//! Scheduler stress: many tasks parked across pipes, futexes and timers.
//!
//! 65 threads block at once — 24 on pipe reads, 24 on a futex word, 16 in
//! `nanosleep`, plus the main thread sleeping before it triggers the
//! wake-ups. The test asserts the waitqueue contract:
//!
//! * **no starvation** — every task is woken by its event and the run
//!   terminates with every wake observed;
//! * **no busy-retry storms** — a blocked task is retried only when its
//!   channel fires or its deadline lapses, so the number of
//!   retried-and-reblocked attempts stays bounded by the task count
//!   instead of growing with scheduler passes.

use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use wali::testkit::{emit_sleep, run_module, spawn_thread, sys, RunnerOpts};

const PIPE_TASKS: u32 = 24;
const FUTEX_TASKS: u32 = 24;
const TIMER_TASKS: u32 = 16;
const TASKS: u32 = PIPE_TASKS + FUTEX_TASKS + TIMER_TASKS;

/// Builds the stress program: spawn `TASKS` threads that all block, then
/// wake every one of them with its own event (pipe write, futex wake,
/// deadline) and count the wake-ups at a shared word.
///
/// Layout: `[512]` = woken counter; the futex word and per-thread pipe
/// fds live in reserved data.
fn stress_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let clone = sys(&mut mb, "clone", 5);
    let futex = sys(&mut mb, "futex", 6);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(4, Some(64));

    let fds = mb.reserve(PIPE_TASKS * 8); // [read_fd, write_fd] pairs
    let fword = mb.reserve(8);
    let ts = mb.reserve(16);
    let buf = mb.reserve(16);
    let counter = 512i32;

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let i = b.local(I32);
        let rfd = b.local(I64);

        // --- pipe readers: each blocks on its own empty pipe. ------------
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            b.i32(fds as i32)
                .local_get(i)
                .i32(8)
                .mul32()
                .add32()
                .extend_u()
                .call(pipe)
                .drop_();
            b.i32(fds as i32)
                .local_get(i)
                .i32(8)
                .mul32()
                .add32()
                .load32(0)
                .extend_u()
                .local_set(rfd);
            spawn_thread(b, clone, |b| {
                // Child: block until the main thread writes one byte.
                b.local_get(rfd).i64(buf as i64).i64(1).call(read).drop_();
                b.i32(counter)
                    .i32(counter)
                    .load32(0)
                    .i32(1)
                    .add32()
                    .store32(0);
                b.i64(0).call(exit).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(PIPE_TASKS as i32)
                .lt_s32()
                .br_if(0);
        });

        // --- futex waiters: all park on one word. ------------------------
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            spawn_thread(b, clone, |b| {
                // FUTEX_WAIT while *fword == 0; returns once woken.
                b.i64(fword as i64)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .call(futex)
                    .drop_();
                b.i32(counter)
                    .i32(counter)
                    .load32(0)
                    .i32(1)
                    .add32()
                    .store32(0);
                b.i64(0).call(exit).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(FUTEX_TASKS as i32)
                .lt_s32()
                .br_if(0);
        });

        // --- timer sleepers: park on a virtual deadline. -----------------
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            spawn_thread(b, clone, |b| {
                emit_sleep(b, nanosleep, ts, 0, 2_000_000); // 2 ms virtual
                b.i32(counter)
                    .i32(counter)
                    .load32(0)
                    .i32(1)
                    .add32()
                    .store32(0);
                b.i64(0).call(exit).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(TIMER_TASKS as i32)
                .lt_s32()
                .br_if(0);
        });

        // --- main: sleep (timer path), then fire every wake-up. ----------
        emit_sleep(b, nanosleep, ts, 0, 1_000_000); // 1 ms virtual
                                                    // One byte into each pipe.
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            b.i32(fds as i32)
                .local_get(i)
                .i32(8)
                .mul32()
                .add32()
                .load32(4)
                .extend_u()
                .i64(buf as i64)
                .i64(1)
                .call(write)
                .drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(PIPE_TASKS as i32)
                .lt_s32()
                .br_if(0);
        });
        // Set the word and wake every futex waiter.
        b.i32(fword as i32).i32(1).store32(0);
        b.i64(fword as i64)
            .i64(1)
            .i64(i32::MAX as i64)
            .i64(0)
            .i64(0)
            .i64(0)
            .call(futex)
            .drop_();
        // Wait for all wake-ups to be observed (sleep-poll rather than a
        // wasm spin), then report.
        b.loop_(BlockType::Empty, |b| {
            b.i32(counter).load32(0).i32(TASKS as i32).lt_s32();
            b.if_(BlockType::Empty, |b| {
                emit_sleep(b, nanosleep, ts, 0, 100_000); // 100 µs virtual
                b.br(1);
            });
        });
        b.i32(counter).load32(0).i32(TASKS as i32).ne32();
    });
    mb.export("_start", main);
    mb.build()
}

fn run_stress() -> wali::RunOutcome {
    // This suite pins the *deterministic scheduler's* counter contract
    // (parks/wakeups/retries of the cooperative loop); the SMP executor
    // has its own contract, covered by tests/smp_stress.rs at
    // WALI_WORKERS=4.
    run_module(&stress_program(), &[], &[], RunnerOpts::single())
        .expect("run")
        .outcome
}

#[test]
fn stress_wakes_every_task() {
    let out = run_stress();
    // Every task was woken by its event: the counter reached TASKS.
    assert_eq!(
        out.exit_code(),
        Some(0),
        "no starvation: {:?}",
        out.main_exit
    );
    // Wakeup work is bounded by the task count, not by scheduler passes:
    // each task parks about once and is retried about once. The bound is
    // deliberately loose (spurious wakeups are legal) but far below any
    // busy-retry storm.
    let budget = 6 * TASKS as u64;
    assert!(
        out.sched.blocked_retries <= budget,
        "busy-retry storm: {} retries for {} tasks (sched={:?})",
        out.sched.blocked_retries,
        TASKS,
        out.sched
    );
    assert!(
        out.sched.parks >= TASKS as u64,
        "every blocked task parks: {:?}",
        out.sched
    );
    assert!(
        out.sched.wakeups >= PIPE_TASKS as u64 + FUTEX_TASKS as u64,
        "{:?}",
        out.sched
    );
}

#[test]
fn deadline_wakes_promptly_while_queue_stays_busy() {
    // Regression: a sleeper's deadline must lapse via ordinary syscall
    // clock ticks even when the run queue never drains — the scheduler
    // compares the earliest parked deadline against the clock every
    // round, it does not wait for an idle step (the queue here is never
    // empty) or a fuel-slice boundary (fuel is refilled per attempt, so
    // a blocking ping-pong never exhausts a slice).
    //
    // A two-thread pipe ping-pong keeps the scheduler busy (≈ 4 syscalls
    // ≈ 720 virtual ns per round) while a third thread sleeps 50 µs. The
    // sleep must complete after ~70 rounds; without the per-round
    // deadline check it never completes and the round cap is hit.
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let clone = sys(&mut mb, "clone", 5);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(4, Some(16));
    let fds_a = mb.reserve(8);
    let fds_b = mb.reserve(8);
    let ts = mb.reserve(16);
    let buf = mb.reserve(8);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let rounds = b.local(I32);
        b.i64(fds_a as i64).call(pipe).drop_();
        b.i64(fds_b as i64).call(pipe).drop_();
        // Sleeper: 50 µs, then raise the flag at [512].
        spawn_thread(b, clone, |b| {
            emit_sleep(b, nanosleep, ts, 0, 50_000);
            b.i32(512).i32(1).store32(0);
            b.i64(0).call(exit).drop_();
        });
        // Ponger: echo A → B forever (killed by main's exit_group).
        spawn_thread(b, clone, |b| {
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
                b.i32(1).br_if(0);
            });
        });
        // Pinger (main): bounce until the flag rises or the cap is hit.
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
            b.local_get(rounds).i32(1).add32().local_set(rounds);
            b.i32(512).load32(0).eqz32();
            b.local_get(rounds).i32(20_000).lt_s32().and32();
            b.br_if(0);
        });
        // Exit 0 iff the flag rose within the prompt-wakeup budget.
        b.i32(512).load32(0).eqz32();
        b.local_get(rounds)
            .i32(5000)
            .ge_s32()
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I32Or));
    });
    mb.export("_start", main);

    // The ~70-round promptness budget is a property of the cooperative
    // round-robin schedule; under SMP the ping-pong races ahead of the
    // sleeper's requeue in wall-clock time and the round count is
    // meaningless. Deterministic scheduler only.
    let out = run_module(&mb.build(), &[], &[], RunnerOpts::single())
        .expect("run")
        .outcome;
    assert_eq!(
        out.exit_code(),
        Some(0),
        "sleep completed promptly: {:?}",
        out.main_exit
    );
}

#[test]
fn sched_stats_expose_idle_clock_steps() {
    // The timer sleepers force at least one earliest-deadline clock jump.
    let out = run_stress();
    assert!(out.sched.idle_advances >= 1, "{:?}", out.sched);
}
