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

// --- What the kernel lock used to serialise ------------------------------
//
// Descriptor I/O on regular files runs against the kernel's shards
// without the kernel lock (`wali::fastpath`), so what that lock made
// atomic is now the description lock's and the VFS write lock's to
// keep: a read and its offset advance, `O_APPEND`'s end-of-file and its
// copy, and the last reference to a description releasing it. Each
// guest below runs at one worker and at four, on both dispatch tiers.

use wasm::build::{FuncBuilder, FuncId};

const RECORD: u32 = 64;
const RECORDS: u32 = 400;
const APPENDS: u32 = 1_000;
const APPEND_BYTES: u32 = 16;
const SEEKS: u32 = 600;
const MARK: i32 = -1;

/// `do { body } while (++i < n)`.
fn counted(b: &mut FuncBuilder, i: u32, n: u32, body: impl FnOnce(&mut FuncBuilder)) {
    b.i32(0).local_set(i);
    b.loop_(BlockType::Empty, |b| {
        body(b);
        b.local_get(i)
            .i32(1)
            .add32()
            .local_tee(i)
            .i32(n as i32)
            .lt_s32()
            .br_if(0);
    });
}

/// Every worker count and tier a guest of this section runs under.
fn configs() -> impl Iterator<Item = (usize, bool)> {
    [1, 4]
        .into_iter()
        .flat_map(|w| [true, false].map(|r| (w, r)))
}

/// Runs `module` with `path` holding `content`; returns the outcome,
/// the file afterwards and the teardown audit.
fn run_on_file(
    module: &Module,
    path: &str,
    content: &[u8],
    (workers, regir): (usize, bool),
) -> (wali::RunOutcome, Vec<u8>, vkernel::LeakReport) {
    let mut runner = wali::WaliRunner::new_default();
    runner.set_workers(workers);
    runner.set_regir(regir);
    let vfs = runner.kernel.lock_ok().vfs.clone();
    vfs.write_file(path, content).expect("std layout has /tmp");
    runner
        .register_program("/usr/bin/app", &wali::testkit::roundtrip(module))
        .unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let out = runner.run().expect("run");
    let after = vfs.read_file(path).expect("still there");
    (out, after, runner.leak_audit())
}

/// Two readers — `clone` threads or forked processes — share one
/// description of a file of numbered records and read it to the end,
/// reporting every record's number through a pipe; the main task
/// tallies. Exit code: the records not reported exactly once.
fn shared_reader_program(fork_readers: bool) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let pipe = sys(&mut mb, "pipe", 1);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let clone = sys(&mut mb, "clone", 5);
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(4, Some(16));
    let path = mb.c_str("/tmp/records.dat");
    let fds = mb.reserve(8);
    let recs = mb.reserve(2 * RECORD); // one buffer per reader
    let id = mb.reserve(4);
    let seen = mb.reserve(RECORDS * 4);
    let status = mb.reserve(8);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let r = b.local(I32);
        let i = b.local(I32);
        let done = b.local(I32);
        let bad = b.local(I32);
        let pid = b.local(I64);
        b.i64(path as i64).i64(0).i64(0).call(open).local_set(fd);
        b.i64(fds as i64).call(pipe).drop_();

        let reader = |b: &mut FuncBuilder| {
            // buf = recs + r * RECORD (r came along with the stack).
            let report = |b: &mut FuncBuilder| {
                b.i32(fds as i32).load32(4).extend_u();
                b.i32(recs as i32)
                    .local_get(r)
                    .i32(RECORD as i32)
                    .mul32()
                    .add32()
                    .extend_u();
                b.i64(4).call(write).drop_();
            };
            b.block(BlockType::Empty, |b| {
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(fd);
                    b.i32(recs as i32)
                        .local_get(r)
                        .i32(RECORD as i32)
                        .mul32()
                        .add32()
                        .extend_u();
                    b.i64(RECORD as i64).call(read);
                    b.i64(RECORD as i64).eq64().eqz32().br_if(1);
                    report(b);
                    b.br(0);
                });
            });
            b.i32(recs as i32)
                .local_get(r)
                .i32(RECORD as i32)
                .mul32()
                .add32()
                .i32(MARK)
                .store32(0);
            report(b);
            b.i64(0).call(exit).drop_();
        };
        counted(b, r, 2, |b| {
            if fork_readers {
                b.call(fork).local_set(pid);
                b.local_get(pid).i64(0).eq64();
                b.if_(BlockType::Empty, reader);
            } else {
                spawn_thread(b, clone, reader);
            }
        });

        // Tally until both readers have reported their end.
        b.loop_(BlockType::Empty, |b| {
            b.i32(fds as i32)
                .load32(0)
                .extend_u()
                .i64(id as i64)
                .i64(4)
                .call(read)
                .drop_();
            b.i32(id as i32).load32(0).i32(MARK).eq32();
            b.if_else(
                BlockType::Empty,
                |b| {
                    b.local_get(done).i32(1).add32().local_set(done);
                },
                |b| {
                    // seen[id] += 1
                    b.i32(seen as i32)
                        .i32(id as i32)
                        .load32(0)
                        .i32(4)
                        .mul32()
                        .add32()
                        .local_tee(i);
                    b.local_get(i).load32(0).i32(1).add32().store32(0);
                },
            );
            b.local_get(done).i32(2).lt_s32().br_if(0);
        });
        if fork_readers {
            counted(b, r, 2, |b| {
                b.i64(-1)
                    .i64(status as i64)
                    .i64(0)
                    .i64(0)
                    .call(wait4)
                    .drop_();
            });
        }
        counted(b, i, RECORDS, |b| {
            b.i32(seen as i32)
                .local_get(i)
                .i32(4)
                .mul32()
                .add32()
                .load32(0)
                .i32(1)
                .ne32();
            b.local_get(bad).add32().local_set(bad);
        });
        b.local_get(bad);
    });
    mb.export("_start", main);
    mb.build()
}

#[test]
fn readers_sharing_a_description_get_every_record_exactly_once() {
    let mut file = vec![0u8; (RECORDS * RECORD) as usize];
    for (n, record) in file.chunks_mut(RECORD as usize).enumerate() {
        record[..4].copy_from_slice(&(n as u32).to_le_bytes());
    }
    for fork_readers in [false, true] {
        let module = shared_reader_program(fork_readers);
        for config in configs() {
            let (out, _, leaks) = run_on_file(&module, "/tmp/records.dat", &file, config);
            let what = format!("fork={fork_readers} (workers, regir)={config:?}");
            assert_eq!(out.exit_code(), Some(0), "{what}: records lost or doubled");
            assert!(leaks.is_clean(), "{what}: {}", leaks.describe());
        }
    }
}

/// Two forked processes each open the log `O_WRONLY | O_APPEND` and
/// append `APPENDS` records `[who, seq, who, seq]`; the main task
/// meanwhile asks where the end is, `SEEKS` times, through a
/// description of its own. Exit code: the answers no append produced
/// (off a record boundary, backwards, or past the final length).
fn append_race_program() -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let write = sys(&mut mb, "write", 3);
    let lseek = sys(&mut mb, "lseek", 3);
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(4, Some(16));
    let path = mb.c_str("/tmp/append.log");
    let rec = mb.reserve(APPEND_BYTES);
    let status = mb.reserve(8);
    let total = (2 * APPENDS * APPEND_BYTES) as i32;

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let who = b.local(I32);
        let seq = b.local(I32);
        let pid = b.local(I64);
        let end = b.local(I32);
        let last = b.local(I32);
        let bad = b.local(I32);
        counted(b, who, 2, |b| {
            b.call(fork).local_set(pid);
            b.local_get(pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // O_WRONLY | O_APPEND
                b.i64(path as i64)
                    .i64(0o2001)
                    .i64(0)
                    .call(open)
                    .local_set(fd);
                counted(b, seq, APPENDS, |b| {
                    for (at, word) in [(0, who), (4, seq), (8, who), (12, seq)] {
                        b.i32(rec as i32).local_get(word).store32(at);
                    }
                    b.local_get(fd)
                        .i64(rec as i64)
                        .i64(APPEND_BYTES as i64)
                        .call(write)
                        .drop_();
                });
                b.i64(0).call(exit).drop_();
            });
        });
        b.i64(path as i64).i64(0).i64(0).call(open).local_set(fd);
        let check_end = |b: &mut FuncBuilder| {
            // SEEK_END
            b.local_get(fd)
                .i64(0)
                .i64(2)
                .call(lseek)
                .wrap()
                .local_set(end);
            b.local_get(end).i32(APPEND_BYTES as i32 - 1).and32();
            b.i32(0).ne32();
            b.local_get(end).local_get(last).lt_s32().add32();
            b.i32(total).local_get(end).lt_s32().add32();
            b.local_get(bad).add32().local_set(bad);
            b.local_get(end).local_set(last);
        };
        counted(b, seq, SEEKS, check_end);
        counted(b, seq, 2, |b| {
            b.i64(-1)
                .i64(status as i64)
                .i64(0)
                .i64(0)
                .call(wait4)
                .drop_();
        });
        check_end(b);
        b.local_get(end).i32(total).ne32();
        b.local_get(bad).add32();
    });
    mb.export("_start", main);
    mb.build()
}

#[test]
fn separate_append_descriptions_never_overwrite_and_the_end_is_always_a_record_boundary() {
    let module = append_race_program();
    for config in configs() {
        let what = format!("(workers, regir)={config:?}");
        let (out, log, leaks) = run_on_file(&module, "/tmp/append.log", b"", config);
        assert_eq!(out.exit_code(), Some(0), "{what}: lseek(SEEK_END) lied");
        assert_eq!(log.len(), (2 * APPENDS * APPEND_BYTES) as usize, "{what}");
        let mut next = [0u32; 2];
        for record in log.chunks(APPEND_BYTES as usize) {
            let word = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().unwrap());
            let (who, seq) = (word(0), word(4));
            assert_eq!((word(8), word(12)), (who, seq), "{what}: torn record");
            // Each appender's records keep their order; none is missing.
            assert_eq!(seq, next[who as usize], "{what}: appender {who}");
            next[who as usize] += 1;
        }
        assert_eq!(next, [APPENDS; 2], "{what}");
        assert!(leaks.is_clean(), "{what}: {}", leaks.describe());
    }
}

#[test]
fn a_description_closed_under_a_reader_on_another_worker_is_still_released() {
    // Each round makes a pipe, starts a thread — one that shares the fd
    // table — reading its read end until nothing more can come, writes
    // to it and closes both ends from the main thread: possibly while
    // the reader, which needs no kernel lock, is inside `read` holding
    // the description. Whichever of the two drops the last reference
    // must release the pipe end: the teardown audit finds no pipe left.
    // (A descriptor number is reused by the next round's pipe, so a
    // reader may go on to that one; every reader still ends once the
    // last round has closed its ends.)
    const ROUNDS: u32 = 64;
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let clone = sys(&mut mb, "clone", 5);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(4, Some(16));
    let fds = mb.reserve(8);
    let bufs = mb.reserve(ROUNDS * 8);
    let ts = mb.reserve(16);
    let flags = mb.reserve(ROUNDS * 4);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let i = b.local(I32);
        let rfd = b.local(I64);
        counted(b, i, ROUNDS, |b| {
            b.i64(fds as i64).call(pipe).drop_();
            b.i32(fds as i32).load32(0).extend_u().local_set(rfd);
            // CLONE_VM | CLONE_FS | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD
            b.i64(0x10d00).i64(0).i64(0).i64(0).i64(0).call(clone);
            b.i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // While bytes come: until end-of-file or `-EBADF`.
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(rfd);
                    b.i32(bufs as i32)
                        .local_get(i)
                        .i32(8)
                        .mul32()
                        .add32()
                        .extend_u();
                    b.i64(8).call(read);
                    b.i64(1).lt_s64().eqz32();
                    b.br_if(0);
                });
                b.i32(flags as i32)
                    .local_get(i)
                    .i32(4)
                    .mul32()
                    .add32()
                    .i32(1)
                    .store32(0);
                b.i64(0).call(exit).drop_();
            });
            b.i32(fds as i32)
                .load32(4)
                .extend_u()
                .i64(fds as i64)
                .i64(8)
                .call(write)
                .drop_();
            b.local_get(rfd).call(close).drop_();
            b.i32(fds as i32).load32(4).extend_u().call(close).drop_();
        });
        // Sleep-poll until every reader has seen its descriptor go.
        counted(b, i, ROUNDS, |b| {
            b.loop_(BlockType::Empty, |b| {
                emit_sleep(b, nanosleep, ts, 0, 1_000);
                b.i32(flags as i32)
                    .local_get(i)
                    .i32(4)
                    .mul32()
                    .add32()
                    .load32(0)
                    .eqz32()
                    .br_if(0);
            });
        });
        b.i32(0);
    });
    mb.export("_start", main);
    let module = mb.build();
    for (workers, regir) in configs() {
        let opts = RunnerOpts {
            workers: Some(workers),
            regir: Some(regir),
            ..RunnerOpts::single()
        };
        let report = run_module(&module, &[], &[], opts).expect("run");
        let what = format!("workers={workers} regir={regir}");
        assert_eq!(report.outcome.exit_code(), Some(0), "{what}");
        assert_eq!(report.outcome.ends.len(), 1 + ROUNDS as usize, "{what}");
        assert!(
            report.leaks.is_clean(),
            "{what}: {}",
            report.leaks.describe()
        );
    }
}

// --- What the merged holds used to serialise ------------------------------
//
// `read` and `write` on a socket run without the kernel lock too, park
// included, and every other socket call takes each socket's lock once
// and posts once, after its last unlock. What the longer, repeated
// holds under the kernel lock used to make atomic is now down to the
// order "store under the object's lock, then post": a close or a
// shutdown racing a call that is about to park must still wake it, a
// listener torn down under a storm of connects must strand no client
// and leak no queued connection, and a link to a peer must never lead
// to whoever got the peer's slab id next. Each guest runs at one worker
// and at four, on both dispatch tiers; threads share the fd table
// (`CLONE_FILES`), so a `close` closes for everyone.

/// `CLONE_VM | CLONE_FS | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD`.
const THREAD_SHARING_FDS: i64 = 0x10d00;
const EPIPE: i64 = -32;
const EAGAIN: i64 = -11;

/// The socket calls the guests below use.
struct Net {
    socket: FuncId,
    socketpair: FuncId,
    bind: FuncId,
    listen: FuncId,
    connect: FuncId,
    shutdown: FuncId,
    recvfrom: FuncId,
    dup: FuncId,
    read: FuncId,
    write: FuncId,
    close: FuncId,
    clone: FuncId,
    exit: FuncId,
    nanosleep: FuncId,
    sigaction: FuncId,
    ts: u32,
}

impl Net {
    fn import(mb: &mut ModuleBuilder) -> Net {
        let mut net = Net {
            socket: sys(mb, "socket", 3),
            socketpair: sys(mb, "socketpair", 4),
            bind: sys(mb, "bind", 3),
            listen: sys(mb, "listen", 2),
            connect: sys(mb, "connect", 3),
            shutdown: sys(mb, "shutdown", 2),
            recvfrom: sys(mb, "recvfrom", 6),
            dup: sys(mb, "dup", 1),
            read: sys(mb, "read", 3),
            write: sys(mb, "write", 3),
            close: sys(mb, "close", 1),
            clone: sys(mb, "clone", 5),
            exit: sys(mb, "exit", 1),
            nanosleep: sys(mb, "nanosleep", 2),
            sigaction: sys(mb, "rt_sigaction", 4),
            ts: 0,
        };
        mb.memory(4, Some(16));
        net.ts = mb.reserve(16);
        net
    }

    /// A thread sharing the fd table; `body` must not fall through.
    fn thread(&self, b: &mut FuncBuilder, body: impl FnOnce(&mut FuncBuilder)) {
        b.i64(THREAD_SHARING_FDS).i64(0).i64(0).i64(0).i64(0);
        b.call(self.clone).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            body(b);
            b.i64(0).call(self.exit).drop_();
        });
    }

    /// `socketpair(AF_UNIX, SOCK_STREAM)` into `fds`, then into locals.
    fn pair(&self, b: &mut FuncBuilder, fds: u32, (x, y): (u32, u32)) {
        b.i64(1).i64(1).i64(0).i64(fds as i64);
        b.call(self.socketpair).drop_();
        b.i32(fds as i32).load32(0).extend_u().local_set(x);
        b.i32(fds as i32).load32(4).extend_u().local_set(y);
    }

    /// A write to a broken connection is `-EPIPE`, not the guest's death.
    fn ignore_sigpipe(&self, b: &mut FuncBuilder, act: u32) {
        b.i32(act as i32).i32(1).store32(0); // SIG_IGN
        b.i64(13).i64(act as i64).i64(0).i64(8);
        b.call(self.sigaction).drop_();
    }

    /// Sleep-polls until the `n` flag words at `flags` are all up, at
    /// most `POLLS` sleeps in all (a stranded thread fails the test, it
    /// does not hang it); leaves the number still down on the stack.
    fn await_flags(&self, b: &mut FuncBuilder, flags: u32, n: u32) {
        const POLLS: i32 = 20_000;
        let (i, polls, down) = (b.local(I32), b.local(I32), b.local(I32));
        let flag = |b: &mut FuncBuilder| {
            b.i32(flags as i32).local_get(i).i32(4).mul32().add32();
            b.load32(0);
        };
        counted(b, i, n, |b| {
            b.loop_(BlockType::Empty, |b| {
                flag(b);
                b.eqz32();
                b.if_(BlockType::Empty, |b| {
                    emit_sleep(b, self.nanosleep, self.ts, 0, 1_000);
                    b.local_get(polls).i32(1).add32().local_tee(polls);
                    b.i32(POLLS).lt_s32().br_if(1);
                });
            });
            flag(b);
            b.eqz32().local_get(down).add32().local_set(down);
        });
        b.local_get(down);
    }
}

/// `flags[i] = 1`.
fn raise(b: &mut FuncBuilder, flags: u32, i: u32) {
    b.i32(flags as i32).local_get(i).i32(4).mul32().add32();
    b.i32(1).store32(0);
}

fn run_everywhere(module: &Module, tasks: usize) {
    for (workers, regir) in configs() {
        let opts = RunnerOpts {
            workers: Some(workers),
            regir: Some(regir),
            ..RunnerOpts::single()
        };
        let what = format!("workers={workers} regir={regir}");
        let report = run_module(module, &[], &[], opts).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(report.outcome.exit_code(), Some(0), "{what}");
        assert_eq!(report.outcome.ends.len(), tasks, "{what}");
        assert!(
            report.leaks.is_clean(),
            "{what}: {}",
            report.leaks.describe()
        );
    }
}

#[test]
fn both_ends_closed_under_a_reader_is_one_release_each_and_an_eof() {
    // Each round: a connected pair `(a, b)`; a reader reads `a` through
    // a descriptor of its own (a `dup`) until the read answers 0 or an
    // error — in `read`, about to park or parked when the ends go; a
    // second thread closes `a`, the main thread writes a byte and
    // closes `b`. `b`'s release closes `a`'s state and must wake the
    // reader wherever it was; the reader's own close then releases `a`,
    // whose peer is gone. Exit code: readers that did not end on 0.
    const ROUNDS: u32 = 64;
    let mut mb = ModuleBuilder::new();
    let net = Net::import(&mut mb);
    let fds = mb.reserve(8);
    let bufs = mb.reserve(ROUNDS * 8);
    let flags = mb.reserve(ROUNDS * 4);
    let ends = mb.reserve(ROUNDS * 8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (i, bad) = (b.local(I32), b.local(I32));
        let (a, pb, a2, n) = (b.local(I64), b.local(I64), b.local(I64), b.local(I64));
        let slot = |b: &mut FuncBuilder, base: u32| {
            b.i32(base as i32).local_get(i).i32(8).mul32().add32();
        };
        counted(b, i, ROUNDS, |b| {
            net.pair(b, fds, (a, pb));
            b.local_get(a).call(net.dup).local_set(a2);
            net.thread(b, |b| {
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(a2);
                    slot(b, bufs);
                    b.extend_u().i64(8).call(net.read).local_tee(n);
                    b.i64(0).lt_s64().eqz32();
                    b.local_get(n).i64(0).eq64().eqz32().and32();
                    b.br_if(0);
                });
                slot(b, ends);
                b.local_get(n).store64(0);
                b.local_get(a2).call(net.close).drop_();
                raise(b, flags, i);
            });
            net.thread(b, |b| {
                b.local_get(a).call(net.close).drop_();
            });
            b.local_get(pb).i64(fds as i64).i64(1);
            b.call(net.write).drop_();
            b.local_get(pb).call(net.close).drop_();
        });
        net.await_flags(b, flags, ROUNDS);
        b.local_set(bad);
        counted(b, i, ROUNDS, |b| {
            slot(b, ends);
            b.load64(0).i64(0).eq64().eqz32();
            b.local_get(bad).add32().local_set(bad);
        });
        b.local_get(bad);
    });
    mb.export("_start", main);
    run_everywhere(&mb.build(), 1 + 2 * ROUNDS as usize);
}

#[test]
fn a_connect_storm_against_a_closing_listener_strands_and_leaks_nothing() {
    // Three clients connect over and over; whoever gets through reads —
    // nobody ever accepts, so the read can only end when the listener
    // goes and takes its queue with it: reset, 0. The main thread opens
    // and closes the listener `LIFETIMES` times under them. A queued
    // connection that outlives its listener would park its client for
    // good (the bounded wait below gives up on it) and show in the
    // audit as a socket.
    const CLIENTS: u32 = 3;
    const ATTEMPTS: u32 = 48;
    const LIFETIMES: u32 = 24;
    let mut mb = ModuleBuilder::new();
    let net = Net::import(&mut mb);
    let addr = mb.data(&wali::testkit::sockaddr_in(7400));
    let bufs = mb.reserve(CLIENTS * 8);
    let flags = mb.reserve(CLIENTS * 4);
    let wrong = mb.reserve(CLIENTS * 4);
    let go = mb.reserve(4);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (c, j, bad) = (b.local(I32), b.local(I32), b.local(I32));
        let (s, l) = (b.local(I64), b.local(I64));
        let tcp = |b: &mut FuncBuilder, into: u32| {
            b.i64(2).i64(1).i64(0).call(net.socket).local_set(into);
        };
        counted(b, c, CLIENTS, |b| {
            net.thread(b, |b| {
                // A new thread runs before its parent goes on: wait for
                // the first listener.
                b.loop_(BlockType::Empty, |b| {
                    b.i32(go as i32).load32(0).eqz32().br_if(0);
                });
                counted(b, j, ATTEMPTS, |b| {
                    tcp(b, s);
                    b.local_get(s).i64(addr as i64).i64(16);
                    b.call(net.connect).i64(0).eq64();
                    b.if_(BlockType::Empty, |b| {
                        b.local_get(s);
                        b.i32(bufs as i32).local_get(c).i32(8).mul32().add32();
                        b.extend_u().i64(8).call(net.read);
                        b.i64(0).eq64().eqz32();
                        b.if_(BlockType::Empty, |b| raise(b, wrong, c));
                    });
                    b.local_get(s).call(net.close).drop_();
                });
                raise(b, flags, c);
            });
        });
        counted(b, j, LIFETIMES, |b| {
            tcp(b, l);
            b.local_get(l).i64(addr as i64).i64(16);
            b.call(net.bind).drop_();
            b.local_get(l).i64(2).call(net.listen).drop_();
            b.i32(go as i32).i32(1).store32(0);
            emit_sleep(b, net.nanosleep, net.ts, 0, 1_000);
            b.local_get(l).call(net.close).drop_();
        });
        net.await_flags(b, flags, CLIENTS);
        b.local_set(bad);
        counted(b, c, CLIENTS, |b| {
            b.i32(wrong as i32).local_get(c).i32(4).mul32().add32();
            b.load32(0).local_get(bad).add32().local_set(bad);
        });
        b.local_get(bad);
    });
    mb.export("_start", main);
    run_everywhere(&mb.build(), 1 + CLIENTS as usize);
}

#[test]
fn shutdown_for_writing_reaches_a_sender_however_close_to_its_park() {
    // A sender fills its peer's receive buffer (nobody reads) and parks
    // in the write that finds no room; the main thread waits until the
    // sender is at that write and shuts the sender's own socket down
    // for writing. The sender checks "may I send" under its own lock
    // and parks under the peer's: a shutdown between the two must still
    // end the write with `-EPIPE`. Exit code: senders that ended on
    // anything else, or never.
    const ROUNDS: u32 = 6;
    const CHUNK: u32 = 32 * 1024;
    let filling_writes = (vkernel::socket::SOCK_BUF_SIZE as u32).div_ceil(CHUNK);
    let mut mb = ModuleBuilder::new();
    let net = Net::import(&mut mb);
    let fds = mb.reserve(8);
    let act = mb.reserve(24);
    let chunk = mb.reserve(CHUNK);
    let flags = mb.reserve(ROUNDS * 4);
    let wrote = mb.reserve(ROUNDS * 4);
    let ends = mb.reserve(ROUNDS * 8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (i, bad) = (b.local(I32), b.local(I32));
        let (a, pb, n) = (b.local(I64), b.local(I64), b.local(I64));
        let word = |b: &mut FuncBuilder, base: u32| {
            b.i32(base as i32).local_get(i).i32(4).mul32().add32();
        };
        net.ignore_sigpipe(b, act);
        counted(b, i, ROUNDS, |b| {
            net.pair(b, fds, (a, pb));
            net.thread(b, |b| {
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(a).i64(chunk as i64).i64(CHUNK as i64);
                    b.call(net.write).local_set(n);
                    word(b, wrote);
                    word(b, wrote);
                    b.load32(0).i32(1).add32().store32(0);
                    b.local_get(n).i64(0).lt_s64().eqz32().br_if(0);
                });
                b.i32(ends as i32).local_get(i).i32(8).mul32().add32();
                b.local_get(n).store64(0);
                raise(b, flags, i);
            });
            // Until the sender has made every write that finds room.
            b.loop_(BlockType::Empty, |b| {
                word(b, wrote);
                b.load32(0).i32(filling_writes as i32).lt_s32().br_if(0);
            });
            b.local_get(a).i64(1).call(net.shutdown).drop_();
        });
        net.await_flags(b, flags, ROUNDS);
        b.local_set(bad);
        counted(b, i, ROUNDS, |b| {
            b.i32(ends as i32).local_get(i).i32(8).mul32().add32();
            b.load64(0).i64(EPIPE).eq64().eqz32();
            b.local_get(bad).add32().local_set(bad);
        });
        b.local_get(bad);
    });
    mb.export("_start", main);
    run_everywhere(&mb.build(), 1 + ROUNDS as usize);
}

#[test]
fn a_peer_link_never_leads_to_the_next_owner_of_the_peers_id() {
    // A writer sends chunk after chunk down `a` while the main thread
    // closes `b` — freeing `b`'s slab id — and at once makes a new
    // pair, which takes that id. A writer that read its peer link just
    // before the close holds the old socket, not the id: its bytes go
    // nowhere (`-EPIPE`), and the new pair, which nobody writes to, has
    // nothing to receive. (At one worker the writer runs first and is
    // parked on a full buffer when the close comes.) Exit code: new
    // pairs that received something, plus writers that never ended.
    const ROUNDS: u32 = 96;
    const CHUNK: u32 = 512;
    let mut mb = ModuleBuilder::new();
    let net = Net::import(&mut mb);
    let fds = mb.reserve(8);
    let act = mb.reserve(24);
    let chunk = mb.data(&[b'w'; CHUNK as usize]);
    let sink = mb.reserve(8);
    let flags = mb.reserve(ROUNDS * 4);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (i, bad) = (b.local(I32), b.local(I32));
        let (a, pb, c, d) = (b.local(I64), b.local(I64), b.local(I64), b.local(I64));
        net.ignore_sigpipe(b, act);
        counted(b, i, ROUNDS, |b| {
            net.pair(b, fds, (a, pb));
            net.thread(b, |b| {
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(a).i64(chunk as i64).i64(CHUNK as i64);
                    b.call(net.write).i64(0).lt_s64().eqz32().br_if(0);
                });
                b.local_get(a).call(net.close).drop_();
                raise(b, flags, i);
            });
            b.local_get(pb).call(net.close).drop_();
            net.pair(b, fds, (c, d));
            for end in [c, d] {
                b.local_get(end).i64(sink as i64).i64(8);
                b.i64(0x40).i64(0).i64(0); // MSG_DONTWAIT
                b.call(net.recvfrom).i64(EAGAIN).eq64().eqz32();
                b.local_get(bad).add32().local_set(bad);
            }
            for end in [c, d] {
                b.local_get(end).call(net.close).drop_();
            }
        });
        net.await_flags(b, flags, ROUNDS);
        b.local_get(bad).add32();
    });
    mb.export("_start", main);
    run_everywhere(&mb.build(), 1 + ROUNDS as usize);
}

// --- What the one-hold pop has to keep --------------------------------------
//
// `epoll_wait` drains its instance's ring, verifies what it popped and —
// when there is nothing to report — subscribes, all under one hold of
// the instance's lock, and does not look at the ring again. A producer
// changes its object, pushes under that same lock and posts after it.
// Whichever side takes the lock second must see the other: a push that
// waited out the pop finds the subscription.

/// The interleaving, forced: the consumer is stopped *inside* its hold
/// of the instance (at the lock of a pipe the test holds), the producer
/// is seen waiting for the instance, and only then is the consumer let
/// go. It finds nothing, parks and returns; the producer's push and post
/// come after — and must wake it. (The contention counters are
/// process-wide: another test of this binary can end a wait early, which
/// only makes the round less forced, never wrong.)
#[test]
fn a_post_that_waits_out_the_one_hold_pop_finds_the_subscription() {
    use std::sync::mpsc::channel;
    use vkernel::fd::FileKind;
    use vkernel::kernel::io::Intr;
    use vkernel::{contention, Kernel, LockClass, MutexExt, Tid};
    use wali_abi::flags::{EPOLLIN, EPOLL_CTL_ADD};

    for round in 0..16 {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        let writer = k.sys_fork(tid).unwrap() as Tid;
        let (stale_r, stale_w) = k.sys_pipe2(tid, 0).unwrap();
        let (fresh_r, fresh_w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        for (fd, data) in [(stale_r, 1), (fresh_r, 2)] {
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, fd, EPOLLIN, data)
                .unwrap();
        }
        // One candidate on the ring that will verify as drained: the
        // pop takes its pipe's lock under the instance's.
        k.sys_write(tid, stale_w, b"x").unwrap();
        k.sys_read(tid, stale_r, &mut [0u8; 1]).unwrap();
        let file_of = |k: &Kernel, fd| k.task(tid).unwrap().fdtable.lock_ok().file(fd).unwrap();
        let stale = match &file_of(&k, stale_r).lock_ok().kind {
            FileKind::PipeRead(pipe) => pipe.clone(),
            other => panic!("{other:?}"),
        };
        let fresh_end = file_of(&k, fresh_w);
        let handles = k.handles();
        let hold = k.epoll_hold(tid, ep).unwrap();
        let mut out = Vec::new();

        let (release, released) = channel::<()>();
        let parked = std::thread::scope(|s| {
            let held = stale.lock_ok();
            let in_pop = contention(LockClass::Object);
            let consumer = s.spawn(|| k.epoll_wait(tid, &hold, 8, true, &mut out));
            // Inside its hold of the instance, stopped at the pipe.
            while contention(LockClass::Object) == in_pop {
                std::thread::yield_now();
            }
            let at_ring = contention(LockClass::Epoll);
            let producer = s.spawn(|| {
                let wrote = handles.write(writer, &fresh_end, b"y", Intr::HintDown);
                release.send(()).unwrap();
                wrote
            });
            // Past its own pipe, stopped at the instance (the push).
            while contention(LockClass::Epoll) == at_ring {
                std::thread::yield_now();
            }
            assert!(released.try_recv().is_err(), "the push waits for the pop");
            drop(held);
            assert_eq!(producer.join().unwrap(), Ok(Ok(1)), "round {round}");
            consumer.join().unwrap()
        });
        assert!(parked, "round {round}: nothing to report yet");
        let mut woken = Vec::new();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid], "round {round}: the post was lost");
        assert!(!k.epoll_wait(tid, &hold, 8, true, &mut out));
        assert_eq!(out, vec![(EPOLLIN, 2)], "round {round}");
        k.epoll_release(hold);
    }
}

/// The same race, unforced and at scale: four threads each wait on an
/// epoll instance of their own, all watching one non-blocking pipe; the
/// main thread writes a byte and blocks until whoever got it
/// acknowledges, 300 times. Every write wakes the whole herd; one wins
/// the byte, the rest read `-EAGAIN`, pop a drained candidate and park
/// again in the same hold. A lost wake-up ends the run in a deadlock
/// report, a leaked instance in the audit.
#[test]
fn an_epoll_herd_loses_no_event_however_its_pops_and_pushes_interleave() {
    const WAITERS: u32 = 4;
    const EVENTS: u32 = 300;
    const O_NONBLOCK: i64 = 0o4000;
    let mut mb = ModuleBuilder::new();
    let net = Net::import(&mut mb);
    let pipe2 = sys(&mut mb, "pipe2", 2);
    let epoll_create1 = sys(&mut mb, "epoll_create1", 1);
    let epoll_ctl = sys(&mut mb, "epoll_ctl", 4);
    let epoll_wait = sys(&mut mb, "epoll_wait", 4);
    let exit_group = sys(&mut mb, "exit_group", 1);
    let events = mb.reserve(8);
    let acks = mb.reserve(8);
    let mut ev = 1u32.to_le_bytes().to_vec(); // EPOLLIN
    ev.extend_from_slice(&7u64.to_le_bytes());
    let ev_in = mb.data(&ev);
    let ev_out = mb.reserve(WAITERS * 16);
    let sinks = mb.reserve(WAITERS * 8);
    let byte = mb.data(b"e");
    let ack = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (i, w, ep) = (b.local(I32), b.local(I32), b.local(I64));
        b.i64(events as i64).i64(O_NONBLOCK).call(pipe2).drop_();
        b.i64(acks as i64).i64(0).call(pipe2).drop_();
        let slot = |b: &mut FuncBuilder, base: u32, size: i32| {
            b.i32(base as i32).local_get(w).i32(size).mul32().add32();
            b.extend_u();
        };
        counted(b, w, WAITERS, |b| {
            net.thread(b, |b| {
                b.i64(0).call(epoll_create1).local_set(ep);
                b.local_get(ep).i64(1);
                b.i32(events as i32).load32(0).extend_u();
                b.i64(ev_in as i64).call(epoll_ctl).drop_();
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(ep);
                    slot(b, ev_out, 16);
                    b.i64(1).i64(-1).call(epoll_wait).drop_();
                    b.i32(events as i32).load32(0).extend_u();
                    slot(b, sinks, 8);
                    b.i64(1).call(net.read).i64(1).eq64();
                    b.if_(BlockType::Empty, |b| {
                        b.i32(acks as i32).load32(4).extend_u();
                        b.i64(byte as i64).i64(1).call(net.write).drop_();
                    });
                    b.br(0);
                });
            });
        });
        counted(b, i, EVENTS, |b| {
            b.i32(events as i32).load32(4).extend_u();
            b.i64(byte as i64).i64(1).call(net.write).drop_();
            b.i32(acks as i32).load32(0).extend_u();
            b.i64(ack as i64).i64(1).call(net.read).drop_();
        });
        b.i64(0).call(exit_group).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    run_everywhere(&mb.build(), 1 + WAITERS as usize);
}
