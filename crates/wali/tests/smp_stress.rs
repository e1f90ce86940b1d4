//! Cross-worker stress for the SMP executor (`WALI_WORKERS > 1`).
//!
//! The mix parks tasks across every wait-channel family the kernel has —
//! pipe reads, one shared futex word, virtual timers — forks and reaps
//! child processes, then fires every wake-up, all while four host
//! workers interpret runnable tasks concurrently. The assertions are the
//! *semantic* contract (every task woken, every child reaped, clean
//! exit); counter values and console interleavings are scheduler-timing
//! dependent under SMP and deliberately not pinned (those contracts
//! live in `sched_stress.rs`, pinned to `WALI_WORKERS=1`).
//!
//! Unlike `sched_stress.rs`, completion is tracked in per-thread flag
//! slots, not one shared counter: plain wasm stores from threads running
//! on different workers can lose concurrent read-modify-write updates —
//! exactly the application-level race Linux threads have.
//!
//! The determinism tests pin the other half of the tentpole: at
//! `WALI_WORKERS=1` the runner dispatches to the *unchanged*
//! single-threaded scheduler, so two runs must be bit-identical —
//! console bytes, completion order, scheduler counters and syscall
//! totals.

use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use wali::testkit::{emit_sleep, fork_reap_loop, run_module, spawn_thread, sys, RunnerOpts};

const PIPE_TASKS: u32 = 12;
const FUTEX_TASKS: u32 = 12;
const TIMER_TASKS: u32 = 8;
const THREADS: u32 = PIPE_TASKS + FUTEX_TASKS + TIMER_TASKS;
const FORKS: u32 = 4;

/// The cross-worker mix: `THREADS` threads park across pipes, a futex
/// word and timers (each reporting completion in its own flag slot);
/// the main thread forks and reaps `FORKS` processes, fires every
/// wake-up, and sleep-polls until every flag is up.
fn smp_mix_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let clone = sys(&mut mb, "clone", 5);
    let futex = sys(&mut mb, "futex", 6);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit", 1);
    let exit_group = sys(&mut mb, "exit_group", 1);
    mb.memory(4, Some(64));

    let fds = mb.reserve(PIPE_TASKS * 8);
    let fword = mb.reserve(8);
    let ts = mb.reserve(16);
    let buf = mb.reserve(16);
    let status = mb.reserve(8);
    let flags = mb.reserve(THREADS * 4);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let i = b.local(I32);
        let rfd = b.local(I64);

        // --- pipe readers -----------------------------------------------
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
                b.local_get(rfd).i64(buf as i64).i64(1).call(read).drop_();
                // flags[i] = 1 (own slot; i was cloned with the stack).
                b.i32(flags as i32)
                    .local_get(i)
                    .i32(4)
                    .mul32()
                    .add32()
                    .i32(1)
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

        // --- futex waiters ----------------------------------------------
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            spawn_thread(b, clone, |b| {
                b.i64(fword as i64)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .call(futex)
                    .drop_();
                b.i32(flags as i32)
                    .local_get(i)
                    .i32(PIPE_TASKS as i32)
                    .add32()
                    .i32(4)
                    .mul32()
                    .add32()
                    .i32(1)
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

        // --- timer sleepers ---------------------------------------------
        b.i32(0).local_set(i);
        b.loop_(BlockType::Empty, |b| {
            spawn_thread(b, clone, |b| {
                emit_sleep(b, nanosleep, ts, 0, 2_000_000); // 2 ms virtual
                b.i32(flags as i32)
                    .local_get(i)
                    .i32((PIPE_TASKS + FUTEX_TASKS) as i32)
                    .add32()
                    .i32(4)
                    .mul32()
                    .add32()
                    .i32(1)
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

        // --- fork + reap FORKS child processes --------------------------
        fork_reap_loop(b, fork, wait4, status, FORKS, |b, _i| {
            b.i64(0).call(exit_group).drop_();
        });

        // --- fire every wake-up -----------------------------------------
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
        b.i32(fword as i32).i32(1).store32(0);
        b.i64(fword as i64)
            .i64(1)
            .i64(i32::MAX as i64)
            .i64(0)
            .i64(0)
            .i64(0)
            .call(futex)
            .drop_();

        // --- sleep-poll until every flag is up --------------------------
        let all = b.local(I32);
        let j = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            b.i32(1).local_set(all);
            b.i32(0).local_set(j);
            b.loop_(BlockType::Empty, |b| {
                b.i32(flags as i32)
                    .local_get(j)
                    .i32(4)
                    .mul32()
                    .add32()
                    .load32(0)
                    .eqz32();
                b.if_(BlockType::Empty, |b| {
                    b.i32(0).local_set(all);
                });
                b.local_get(j)
                    .i32(1)
                    .add32()
                    .local_tee(j)
                    .i32(THREADS as i32)
                    .lt_s32()
                    .br_if(0);
            });
            b.local_get(all).eqz32();
            b.if_(BlockType::Empty, |b| {
                emit_sleep(b, nanosleep, ts, 0, 100_000); // 100 µs virtual
                b.br(1);
            });
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

fn run_mix(workers: usize) -> wali::RunOutcome {
    let opts = RunnerOpts {
        workers: Some(workers),
        ..RunnerOpts::single()
    };
    run_module(&smp_mix_program(), &[], &[], opts)
        .expect("run")
        .outcome
}

fn assert_mix_contract(out: &wali::RunOutcome) {
    assert_eq!(
        out.exit_code(),
        Some(0),
        "every thread woken, every child reaped: {:?}",
        out.main_exit
    );
    // 1 main + THREADS sibling threads + FORKS forked processes.
    assert_eq!(
        out.ends.len(),
        (1 + THREADS + FORKS) as usize,
        "every task reports an end: {:?}",
        out.ends
    );
    assert_eq!(out.trace.counts.of("fork"), FORKS as u64);
    assert!(out.trace.counts.of("wait4") >= FORKS as u64);
    assert_eq!(out.trace.counts.of("pipe"), PIPE_TASKS as u64);
}

#[test]
fn cross_worker_mix() {
    assert_mix_contract(&run_mix(4));
}

#[test]
fn cross_worker_mix_survives_repetition() {
    // The lost-wakeup and park-vs-wake races are probabilistic; a few
    // back-to-back runs catch regressions far more often than one.
    for _ in 0..5 {
        assert_mix_contract(&run_mix(4));
    }
}

#[test]
fn single_worker_runs_are_bit_identical() {
    // WALI_WORKERS=1 dispatches to the unchanged pre-SMP scheduler: two
    // runs of the same program must agree bit-for-bit on everything a
    // run reports — console bytes, per-task end order, scheduler
    // counters and syscall totals. (This is the determinism baseline the
    // refactor promises to preserve; the SMP schedule makes no such
    // claim.)
    let a = run_mix(1);
    let b = run_mix(1);
    assert_eq!(a.console, b.console, "console bit-identical");
    assert_eq!(a.ends, b.ends, "completion order identical");
    assert_eq!(a.sched, b.sched, "scheduler counters identical");
    assert_eq!(
        a.trace.total_syscalls(),
        b.trace.total_syscalls(),
        "syscall totals identical"
    );
    assert_eq!(a.peak_memory_pages, b.peak_memory_pages);
}

#[test]
fn single_worker_counters_match_deterministic_scheduler() {
    // Spot-pin the deterministic schedule: with one worker the whole
    // mix parks each blocked task at least once and wakes exactly the
    // parked set (no spurious SMP requeues exist in this mode).
    let out = run_mix(1);
    assert_mix_contract(&out);
    assert!(
        out.sched.parks >= THREADS as u64,
        "every thread parked at least once: {:?}",
        out.sched
    );
    assert!(
        out.sched.wakeups >= (PIPE_TASKS + FUTEX_TASKS) as u64,
        "pipe and futex wakes delivered through the waitqueues: {:?}",
        out.sched
    );
}

#[test]
fn exit_group_ends_a_sibling_spinning_without_a_host_call() {
    // A thread raises a flag and then spins in `loop { br 0 }`: no host
    // call, so nothing but the loop's own safepoint can end it. The main
    // thread sleep-polls for the flag and calls `exit_group(7)`. With
    // four workers the spinner is mid-loop on another worker when the
    // kernel raises its signal hint, and the next back edge's poll must
    // take it down; with one worker it is preempted mid-loop and found
    // dead in the queue. Either way the run ends, with the group's code.
    let mut mb = ModuleBuilder::new();
    let clone = sys(&mut mb, "clone", 5);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    let exit_group = sys(&mut mb, "exit_group", 1);
    mb.memory(1, Some(1));
    let ts = mb.reserve(16);
    let started = mb.reserve(4) as i32;
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        spawn_thread(b, clone, |b| {
            b.i32(started).i32(1).store32(0);
            b.loop_(BlockType::Empty, |b| {
                b.br(0);
            });
        });
        b.loop_(BlockType::Empty, |b| {
            emit_sleep(b, nanosleep, ts, 0, 1_000);
            b.i32(started).load32(0).eqz32().br_if(0);
        });
        b.i64(7).call(exit_group).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    let module = mb.build();
    for workers in [1, 4] {
        let opts = RunnerOpts {
            workers: Some(workers),
            ..RunnerOpts::single()
        };
        let out = run_module(&module, &[], &[], opts).expect("run").outcome;
        assert_eq!(out.exit_code(), Some(7), "workers={workers}");
        assert_eq!(out.ends.len(), 2, "workers={workers}: {:?}", out.ends);
        // The spinner ran: whole fuel slices of nothing but back edges.
        assert!(out.trace.wasm_steps > 1 << 19, "workers={workers}");
    }
}

#[test]
fn blocked_call_outside_the_waitqueue_protocol_completes() {
    // A layered host function registered through `linker_mut` may block
    // without subscribing a wait channel or setting a deadline. Both
    // schedulers park it on a one-quantum backoff deadline and retry; no
    // in-tree blocker takes this path, so this is its only coverage.
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use wasm::host::{Blocked, HostOutcome};
    use wasm::interp::Value;

    let mut mb = ModuleBuilder::new();
    let gate_sig = mb.sig([], [I64]);
    let gate = mb.import_func("layer", "gate", gate_sig);
    mb.memory(1, Some(1));
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        b.call(gate).wrap();
    });
    mb.export("_start", main);
    let module = wali::testkit::roundtrip(&mb.build());

    let run = |workers: usize| {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let mut runner = wali::WaliRunner::new_default();
        runner.set_workers(workers);
        runner.linker_mut().func("layer", "gate", move |_, _| {
            if seen.fetch_add(1, Ordering::Relaxed) < 3 {
                return Err(HostOutcome::Block(Blocked {
                    import: "gate",
                    deadline: None,
                }));
            }
            Ok(vec![Value::I64(7)])
        });
        runner.register_program("/usr/bin/app", &module).unwrap();
        runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        let out = runner.run().expect("run");
        assert_eq!(calls.load(Ordering::Relaxed), 4, "workers={workers}");
        out
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.exit_code(), Some(7), "{:?}", one.main_exit);
    assert_eq!(one.observables(), four.observables());
    // Parked, not busy-polled: each block is one park and one idle
    // clock step to its backoff deadline.
    assert_eq!((one.sched.parks, one.sched.idle_advances), (3, 3));
}
