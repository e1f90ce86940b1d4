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

use wali::guest::{sys, Sysno};
use wali::testkit::{emit_sleep, fork_reap_loop, run_module, spawn_thread, RunnerOpts};

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
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let clone = sys(&mut mb, Sysno::clone);
    let futex = sys(&mut mb, Sysno::futex);
    let nanosleep = sys(&mut mb, Sysno::nanosleep);
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit);
    let exit_group = sys(&mut mb, Sysno::exit_group);
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
    assert_eq!(out.trace.counts.of(Sysno::fork), FORKS as u64);
    assert!(out.trace.counts.of(Sysno::wait4) >= FORKS as u64);
    assert_eq!(out.trace.counts.of(Sysno::pipe), PIPE_TASKS as u64);
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
    let clone = sys(&mut mb, Sysno::clone);
    let nanosleep = sys(&mut mb, Sysno::nanosleep);
    let exit_group = sys(&mut mb, Sysno::exit_group);
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
    let open = sys(&mut mb, Sysno::open);
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let clone = sys(&mut mb, Sysno::clone);
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit);
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
    let open = sys(&mut mb, Sysno::open);
    let write = sys(&mut mb, Sysno::write);
    let lseek = sys(&mut mb, Sysno::lseek);
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit);
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
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let close = sys(&mut mb, Sysno::close);
    let clone = sys(&mut mb, Sysno::clone);
    let nanosleep = sys(&mut mb, Sysno::nanosleep);
    let exit = sys(&mut mb, Sysno::exit);
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

/// A writer thread writes a pipe a byte a call while a `CLONE_FILES`
/// sibling of the main thread replaces the write end's descriptor — a
/// `dup2` of the read end over it — and then closes it; the main thread
/// reads to the end. A writer that shares the table loses the write end
/// (its next write answers `-EBADF`); one cloned without `CLONE_FILES`
/// (`shares_table = false`) has a copy of the table of its own, so its
/// writes run on a description borrowed from a table nobody else uses,
/// and the end stays open until that thread exits. Either way the
/// reader gets every byte a write reported, then end-of-file. Exit
/// code: the rounds where it did not.
fn a_writer_loses_its_descriptor_program(shares_table: bool) -> Module {
    const WRITES: i32 = 200;
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let dup2 = sys(&mut mb, Sysno::dup2);
    let close = sys(&mut mb, Sysno::close);
    let clone = sys(&mut mb, Sysno::clone);
    let nanosleep = sys(&mut mb, Sysno::nanosleep);
    let exit = sys(&mut mb, Sysno::exit);
    mb.memory(4, Some(16));
    let fds = mb.reserve(8);
    let wbuf = mb.reserve(8);
    let rbuf = mb.reserve(64);
    let ts = mb.reserve(16);
    let written = mb.reserve(REPLACED_ROUNDS * 4);
    // Per round: the writer's flag, then the replacer's.
    let done = mb.reserve(REPLACED_ROUNDS * 8);
    let writer_flags = match shares_table {
        true => THREAD_SHARING_FDS,
        false => THREAD_SHARING_FDS & !CLONE_FILES,
    };
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (i, bad) = (b.local(I32), b.local(I32));
        let (r, w, n, got) = (b.local(I64), b.local(I64), b.local(I64), b.local(I64));
        let count = |b: &mut FuncBuilder| {
            b.i32(written as i32).local_get(i).i32(4).mul32().add32();
        };
        let flag = |b: &mut FuncBuilder, which: u32| {
            b.i32((done + 4 * which) as i32)
                .local_get(i)
                .i32(8)
                .mul32()
                .add32();
        };
        let thread = |b: &mut FuncBuilder, flags: i64, body: &dyn Fn(&mut FuncBuilder)| {
            b.i64(flags).i64(0).i64(0).i64(0).i64(0).call(clone);
            b.i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                body(b);
                b.i64(0).call(exit).drop_();
            });
        };
        counted(b, i, REPLACED_ROUNDS, |b| {
            b.i64(fds as i64).call(pipe).drop_();
            b.i32(fds as i32).load32(0).extend_u().local_set(r);
            b.i32(fds as i32).load32(4).extend_u().local_set(w);
            thread(b, writer_flags, &|b| {
                b.block(BlockType::Empty, |b| {
                    b.loop_(BlockType::Empty, |b| {
                        count(b);
                        b.load32(0).i32(WRITES).lt_s32().eqz32().br_if(1);
                        b.local_get(w).i64(wbuf as i64).i64(1).call(write);
                        b.i64(1).eq64().eqz32().br_if(1);
                        count(b);
                        count(b);
                        b.load32(0).i32(1).add32().store32(0);
                        // Let the replacer in between two writes.
                        emit_sleep(b, nanosleep, ts, 0, 1_000);
                        b.br(0);
                    });
                });
                flag(b, 0);
                b.i32(1).store32(0);
            });
            thread(b, THREAD_SHARING_FDS, &|b| {
                // A few writes through first (or all of them).
                b.loop_(BlockType::Empty, |b| {
                    emit_sleep(b, nanosleep, ts, 0, 1_000);
                    count(b);
                    b.load32(0).i32(4).lt_s32();
                    flag(b, 0);
                    b.load32(0).eqz32().and32().br_if(0);
                });
                b.local_get(r).local_get(w).call(dup2).drop_();
                b.local_get(w).call(close).drop_();
                flag(b, 1);
                b.i32(1).store32(0);
            });
            b.i64(0).local_set(got);
            b.block(BlockType::Empty, |b| {
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(r).i64(rbuf as i64).i64(64).call(read);
                    b.local_tee(n).i64(1).lt_s64().br_if(1);
                    b.local_get(got).local_get(n).add64().local_set(got);
                    b.br(0);
                });
            });
            // Both threads done: the count is final.
            b.loop_(BlockType::Empty, |b| {
                emit_sleep(b, nanosleep, ts, 0, 1_000);
                flag(b, 0);
                b.load32(0);
                flag(b, 1);
                b.load32(0).and32().eqz32().br_if(0);
            });
            b.local_get(n).i64(0).eq64().eqz32();
            count(b);
            b.load32(0).extend_u().local_get(got).eq64().eqz32();
            b.add32().local_get(bad).add32().local_set(bad);
            b.local_get(r).call(close).drop_();
        });
        b.local_get(bad);
    });
    mb.export("_start", main);
    mb.build()
}

const REPLACED_ROUNDS: u32 = 16;
const CLONE_FILES: i64 = 0x400;

#[test]
fn a_pipe_end_replaced_under_a_writer_sharing_the_table_reads_to_eof() {
    let module = a_writer_loses_its_descriptor_program(true);
    run_everywhere(&module, 1 + 2 * REPLACED_ROUNDS as usize);
}

#[test]
fn a_pipe_end_replaced_under_a_writer_with_a_table_of_its_own_reads_to_eof() {
    let module = a_writer_loses_its_descriptor_program(false);
    run_everywhere(&module, 1 + 2 * REPLACED_ROUNDS as usize);
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
            socket: sys(mb, Sysno::socket),
            socketpair: sys(mb, Sysno::socketpair),
            bind: sys(mb, Sysno::bind),
            listen: sys(mb, Sysno::listen),
            connect: sys(mb, Sysno::connect),
            shutdown: sys(mb, Sysno::shutdown),
            recvfrom: sys(mb, Sysno::recvfrom),
            dup: sys(mb, Sysno::dup),
            read: sys(mb, Sysno::read),
            write: sys(mb, Sysno::write),
            close: sys(mb, Sysno::close),
            clone: sys(mb, Sysno::clone),
            exit: sys(mb, Sysno::exit),
            nanosleep: sys(mb, Sysno::nanosleep),
            sigaction: sys(mb, Sysno::rt_sigaction),
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
    use vkernel::{contention, Kernel, LockClass, Tid};
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
        let stale = match &file_of(&k, stale_r).kind {
            FileKind::PipeRead(pipe) => pipe.clone(),
            other => panic!("{other:?}"),
        };
        let fresh_end = file_of(&k, fresh_w);
        let handles = k.handles();
        let writer_task = k.task(writer).unwrap().sig_hint.clone();
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
                let wrote = handles.write(writer, &fresh_end, b"y", Intr::HintDown(&writer_task));
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
    let pipe2 = sys(&mut mb, Sysno::pipe2);
    let epoll_create1 = sys(&mut mb, Sysno::epoll_create1);
    let epoll_ctl = sys(&mut mb, Sysno::epoll_ctl);
    let epoll_wait = sys(&mut mb, Sysno::epoll_wait);
    let exit_group = sys(&mut mb, Sysno::exit_group);
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

// --- What the waiters in an instance have to keep -----------------------
//
// An `epoll_wait` — or a `poll` on an epoll fd — waits in its instance,
// and a signal is a bit of the waiter's own sleep word. An entry left in
// an instance by a wait that something else ended (a deadline, a kill)
// must wake nobody, whatever its task does next; and the waiters of one
// instance wake in the order they parked.

/// The epoll calls the guests below use, over [`Net`].
struct Ep {
    net: Net,
    pipe2: FuncId,
    create: FuncId,
    ctl: FuncId,
    wait: FuncId,
    /// `struct epoll_event { EPOLLIN, 7 }`.
    ev_in: u32,
    ev_out: u32,
}

impl Ep {
    fn import(mb: &mut ModuleBuilder) -> Ep {
        let net = Net::import(mb);
        let mut ev = 1u32.to_le_bytes().to_vec(); // EPOLLIN
        ev.extend_from_slice(&7u64.to_le_bytes());
        Ep {
            net,
            pipe2: sys(mb, Sysno::pipe2),
            create: sys(mb, Sysno::epoll_create1),
            ctl: sys(mb, Sysno::epoll_ctl),
            wait: sys(mb, Sysno::epoll_wait),
            ev_in: mb.data(&ev),
            ev_out: mb.reserve(16),
        }
    }

    /// `pipe2(fds, 0)`.
    fn pipe(&self, b: &mut FuncBuilder, fds: u32) {
        b.i64(fds as i64).i64(0).call(self.pipe2).drop_();
    }

    /// An instance watching the read end of the pipe at `fds`, into `ep`.
    fn watching(&self, b: &mut FuncBuilder, fds: u32, ep: u32) {
        b.i64(0).call(self.create).local_set(ep);
        b.local_get(ep).i64(1);
        b.i32(fds as i32).load32(0).extend_u();
        b.i64(self.ev_in as i64).call(self.ctl).drop_();
    }

    /// `epoll_wait(ep, ev_out, 1, timeout_ms)`, its answer dropped.
    fn wait(&self, b: &mut FuncBuilder, ep: u32, timeout_ms: i64) {
        b.local_get(ep)
            .i64(self.ev_out as i64)
            .i64(1)
            .i64(timeout_ms);
        b.call(self.wait).drop_();
    }

    /// One byte from `buf` into end `end` of the pipe at `fds`.
    fn put(&self, b: &mut FuncBuilder, fds: u32, end: u32, buf: u32) {
        b.i32(fds as i32).load32(end).extend_u();
        b.i64(buf as i64).i64(1).call(self.net.write).drop_();
    }

    /// One byte from end `end` of the pipe at `fds` into `buf`.
    fn get(&self, b: &mut FuncBuilder, fds: u32, end: u32, buf: u32) {
        b.i32(fds as i32).load32(end).extend_u();
        b.i64(buf as i64).i64(1).call(self.net.read).drop_();
    }
}

/// Two waits end otherwise than by their instance, and a push onto the
/// instance follows:
///
/// * a thread's `epoll_wait` times out and the thread parks in a `read`
///   of another pipe; the main task then writes the watched pipe. The
///   thread counts its parks (`getrusage`'s voluntary switches): the
///   wait and the read, two at most — a third is a wake by the old
///   entry;
/// * a thread of a forked child blocks in `epoll_wait` on an instance
///   the child shares with the main task; the child's `exit_group` kills
///   it, the main task reaps the child and writes the watched pipe: the
///   push finds the dead waiter's entry, and the audit finds no state
///   grown for it. (A `SIGKILL` would not do: a task parked in
///   `epoll_wait` does not take it until an event ends the wait.)
///
/// Exit code: 1 for a third park of the thread, plus the flags left
/// down.
#[test]
fn a_waiter_a_deadline_or_a_kill_woke_is_not_woken_by_its_old_instance() {
    let mut mb = ModuleBuilder::new();
    let ep = Ep::import(&mut mb);
    let net = &ep.net;
    let getrusage = sys(&mut mb, Sysno::getrusage);
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit_group = sys(&mut mb, Sysno::exit_group);
    let (watched, release, shared) = (mb.reserve(8), mb.reserve(8), mb.reserve(8));
    let ru = mb.reserve(144);
    let parks = mb.reserve(8);
    let flags = mb.reserve(8);
    let byte = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (e1, e2, child, bad) = (b.local(I64), b.local(I64), b.local(I64), b.local(I32));
        let i = b.local(I32);
        for fds in [watched, release, shared] {
            ep.pipe(b, fds);
        }
        ep.watching(b, watched, e1);
        ep.watching(b, shared, e2);
        net.thread(b, |b| {
            ep.wait(b, e1, 1);
            b.i32(0).local_set(i);
            raise(b, flags, i);
            ep.get(b, release, 0, byte);
            b.i64(0).i64(ru as i64).call(getrusage).drop_();
            b.i32(parks as i32).i32(ru as i32).load64(120).store64(0);
            b.i32(1).local_set(i);
            raise(b, flags, i);
        });
        net.await_flags(b, flags, 1);
        b.local_set(bad);
        emit_sleep(b, net.nanosleep, net.ts, 0, 1_000_000);
        ep.put(b, watched, 4, byte);
        emit_sleep(b, net.nanosleep, net.ts, 0, 1_000_000);
        ep.put(b, release, 4, byte);
        net.await_flags(b, flags + 4, 1);
        b.local_get(bad).add32().local_set(bad);
        // More than two parks.
        b.i64(2).i32(parks as i32).load64(0).lt_s64();
        b.local_get(bad).add32().local_set(bad);
        b.call(fork).local_tee(child).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            net.thread(b, |b| ep.wait(b, e2, -1));
            emit_sleep(b, net.nanosleep, net.ts, 0, 1_000_000);
            b.i64(3).call(exit_group).drop_();
        });
        b.local_get(child).i64(0).i64(0).i64(0).call(wait4).drop_();
        ep.put(b, shared, 4, byte);
        b.local_get(bad);
    });
    mb.export("_start", main);
    run_everywhere(&mb.build(), 4);
}

/// A `poll` on an epoll fd waits in the instance beside an `epoll_wait`
/// on it: one push wakes both, in the order they parked — the poller
/// first here, so at one worker its report reaches the main task first.
/// At four, both reach it. Exit code: 0 for "poller, then waiter", 1
/// for the other order.
#[test]
fn a_poll_on_an_epoll_fd_and_an_epoll_wait_on_it_wake_in_the_order_they_parked() {
    let mut mb = ModuleBuilder::new();
    let ep = Ep::import(&mut mb);
    let net = &ep.net;
    let poll = sys(&mut mb, Sysno::poll);
    let exit_group = sys(&mut mb, Sysno::exit_group);
    let (watched, reports) = (mb.reserve(8), mb.reserve(8));
    let pollfd = mb.reserve(8);
    let (poller, waiter) = (mb.data(b"p"), mb.data(b"w"));
    let got = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let e = b.local(I64);
        ep.pipe(b, watched);
        ep.pipe(b, reports);
        ep.watching(b, watched, e);
        // struct pollfd { fd, POLLIN }
        b.i32(pollfd as i32).local_get(e).wrap().store32(0);
        b.i32(pollfd as i32 + 4).i32(1).store32(0);
        net.thread(b, |b| {
            b.i64(pollfd as i64).i64(1).i64(-1).call(poll).drop_();
            ep.put(b, reports, 4, poller);
        });
        emit_sleep(b, net.nanosleep, net.ts, 0, 1_000_000);
        net.thread(b, |b| {
            ep.wait(b, e, -1);
            ep.put(b, reports, 4, waiter);
        });
        emit_sleep(b, net.nanosleep, net.ts, 0, 1_000_000);
        ep.put(b, watched, 4, got);
        ep.get(b, reports, 0, got);
        ep.get(b, reports, 0, got + 1);
        b.i32(got as i32).load32(0).i32(0xffff).and32();
        b.i32(i32::from_le_bytes([b'p', b'w', 0, 0])).ne32();
        b.extend_u().call(exit_group).drop_();
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
        let what = format!("workers={workers} regir={regir}");
        let report = run_module(&module, &[], &[], opts).unwrap_or_else(|e| panic!("{what}: {e}"));
        let code = report.outcome.exit_code();
        match workers {
            1 => assert_eq!(code, Some(0), "{what}: the waiter woke first"),
            _ => assert!(matches!(code, Some(0 | 1)), "{what}: {code:?}"),
        }
        assert_eq!(report.outcome.ends.len(), 3, "{what}");
        assert!(
            report.leaks.is_clean(),
            "{what}: {}",
            report.leaks.describe()
        );
    }
}
