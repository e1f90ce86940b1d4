//! End-to-end tests: Wasm modules built with the module builder, encoded
//! to real binary bytes, decoded, validated, linked against the WALI
//! registry and executed by the runner over the virtual kernel.

use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use wali::runner::{TaskEnd, WaliRunner};
use wali::testkit::{roundtrip, sys};

fn run(module: &Module, args: &[&str]) -> wali::RunOutcome {
    let module = roundtrip(module);
    WaliRunner::run_to_exit(&module, args, &["HOME=/home/user"]).expect("run")
}

#[test]
fn hello_world_via_sys_write() {
    let mut mb = ModuleBuilder::new();
    let write = sys(&mut mb, "write", 3);
    mb.memory(2, Some(16));
    let msg = mb.c_str("hello, wali!\n");
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        b.i64(1).i64(msg as i64).i64(13).call(write).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(0));
    assert_eq!(out.stdout(), "hello, wali!\n");
    assert_eq!(out.trace.counts.of("write"), 1);
}

#[test]
fn open_write_read_file_round_trip() {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let lseek = sys(&mut mb, "lseek", 3);
    let read = sys(&mut mb, "read", 3);
    mb.memory(2, Some(16));
    let path = mb.c_str("/tmp/data.txt");
    let content = mb.c_str("persisted");
    let buf = mb.reserve(64);
    let main_sig = mb.sig([], [I32]);

    let main = mb.func(main_sig, |b| {
        let fd_local = b.local(I64);
        // fd = open(path, O_CREAT|O_RDWR = 0o102, 0o644)
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(fd_local);
        // write(fd, content, 9)
        b.local_get(fd_local)
            .i64(content as i64)
            .i64(9)
            .call(write)
            .drop_();
        // lseek(fd, 0, SEEK_SET)
        b.local_get(fd_local).i64(0).i64(0).call(lseek).drop_();
        // n = read(fd, buf, 64)
        b.local_get(fd_local).i64(buf as i64).i64(64).call(read);
        // close(fd)
        b.local_get(fd_local).call(close).drop_();
        // return n == 9 && buf[0] == 'p' ? 0 : 1
        b.i64(9).eq64();
        b.i32(buf as i32).load8u(0).i32('p' as i32).eq32();
        b.and32();
        b.if_else(
            BlockType::Value(I32),
            |b| {
                b.i32(0);
            },
            |b| {
                b.i32(1);
            },
        );
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(0), "stdout: {}", out.stdout());
}

#[test]
fn fork_parent_and_child_diverge() {
    // parent: fork(); if pid == 0 { write "child"; exit(7) }
    //         else { wait4(pid); write "parent"; exit(0) }
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, "fork", 0);
    let write = sys(&mut mb, "write", 3);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(2, Some(16));
    let child_msg = mb.c_str("child\n");
    let parent_msg = mb.c_str("parent\n");
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let pid = b.local(I64);
        b.call(fork).local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            b.i64(1).i64(child_msg as i64).i64(6).call(write).drop_();
            b.i64(7).call(exit).drop_();
        });
        // parent
        b.local_get(pid).i64(0).i64(0).i64(0).call(wait4).drop_();
        b.i64(1).i64(parent_msg as i64).i64(7).call(write).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(0));
    // Child runs after the parent blocks in wait4 (cooperative schedule).
    assert_eq!(out.stdout(), "child\nparent\n");
    let exits: Vec<&TaskEnd> = out.ends.iter().map(|(_, e)| e).collect();
    assert!(exits.contains(&&TaskEnd::Exited(7)));
}

/// Builds the vfork probe: the child stores 42 into a shared-or-copied
/// word and exits; the parent (suspended until then under COW vfork)
/// exits with whatever it reads back.
fn vfork_probe() -> (Module, u32) {
    let mut mb = ModuleBuilder::new();
    let vfork = sys(&mut mb, "vfork", 0);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(2, Some(16));
    let flag = mb.reserve(8);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let pid = b.local(I64);
        b.call(vfork).local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            b.i32(flag as i32).i32(42).store32(0);
            b.i64(5).call(exit).drop_();
        });
        // Parent: report what the child's write left behind.
        b.i32(flag as i32).load32(0);
    });
    mb.export("_start", main);
    (mb.build(), flag)
}

#[test]
fn vfork_shares_pages_and_suspends_parent_until_exit() {
    let (module, _) = vfork_probe();
    let out = run(&module, &[]);
    // The child borrowed the parent's pages: its write is visible, and
    // seeing it proves the parent stayed suspended until the child exited.
    assert_eq!(out.exit_code(), Some(42), "{:?}", out.ends);
    let exits: Vec<&TaskEnd> = out.ends.iter().map(|(_, e)| e).collect();
    assert!(exits.contains(&&TaskEnd::Exited(5)));
}

#[test]
fn cow_fork_isolates_parent_and_child_writes() {
    // fork (not vfork): the COW snapshot must keep the halves independent
    // even though they share pages until first write.
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(2, Some(16));
    let word = mb.reserve(8);
    mb.data_at(word, &7u32.to_le_bytes());
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let pid = b.local(I64);
        b.call(fork).local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // Child: overwrite the word, exit with its own view.
            b.i32(word as i32).i32(1000).store32(0);
            b.i32(word as i32).load32(0).extend_u().call(exit).drop_();
        });
        b.local_get(pid).i64(0).i64(0).i64(0).call(wait4).drop_();
        // Parent: must still see the pre-fork value.
        b.i32(word as i32).load32(0).i32(7).ne32();
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(0), "{:?}", out.ends);
    let exits: Vec<&TaskEnd> = out.ends.iter().map(|(_, e)| e).collect();
    assert!(
        exits.contains(&&TaskEnd::Exited(1000)),
        "child saw its own write: {exits:?}"
    );
}

#[test]
fn pipe_between_fork_halves() {
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let fork = sys(&mut mb, "fork", 0);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(2, Some(16));
    let fds = mb.reserve(8);
    let msg = mb.c_str("through-pipe");
    let buf = mb.reserve(64);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let pid = b.local(I64);
        b.i64(fds as i64).call(pipe).drop_();
        b.call(fork).local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // child: write then exit.
            b.i32(fds as i32 + 4).load32(0).extend_u();
            b.i64(msg as i64).i64(12).call(write).drop_();
            b.i64(0).call(exit).drop_();
        });
        // parent: read (blocks until child writes), compare first byte.
        b.i32(fds as i32).load32(0).extend_u();
        b.i64(buf as i64).i64(64).call(read);
        b.i64(12).eq64();
        b.i32(buf as i32).load8u(0).i32('t' as i32).eq32();
        b.and32();
        b.if_else(
            BlockType::Value(I32),
            |b| {
                b.i32(0);
            },
            |b| {
                b.i32(1);
            },
        );
        // tidy: close both ends.
        b.i32(fds as i32).load32(0).extend_u().call(close).drop_();
        b.i32(fds as i32 + 4)
            .load32(0)
            .extend_u()
            .call(close)
            .drop_();
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(0));
}

#[test]
fn ppoll_sigmask_defers_delivery_until_return() {
    // The ppoll temporary-mask contract: SIGALRM is blocked by the mask
    // ppoll installs for the wait, fires mid-wait (alarm at +1 s, ppoll
    // timeout 2 s), must NOT interrupt the wait (no EINTR, the full
    // timeout elapses), and is delivered exactly once after ppoll
    // returns and the original (empty) mask is restored.
    let mut mb = ModuleBuilder::new();
    let sigaction = sys(&mut mb, "rt_sigaction", 4);
    let alarm = sys(&mut mb, "alarm", 1);
    let ppoll = sys(&mut mb, "ppoll", 4);
    mb.memory(2, Some(16));

    let handler_sig = mb.sig([I32], []);
    let dummy = mb.func(handler_sig, |_| {});
    let handler = mb.func(handler_sig, |b| {
        // Count deliveries at [516] (exactly-once assertion).
        b.i32(516).i32(516).load32(0).i32(1).add32().store32(0);
    });
    let base = mb.table_entries(&[dummy, dummy, handler]);
    assert_eq!(base, 0);
    let act = mb.reserve(24);
    let ts = mb.reserve(16);
    let mask = mb.reserve(8);

    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let ret = b.local(I64);
        // Handler for SIGALRM (14) at table index 2.
        b.i32(act as i32).i32(2).store32(0);
        b.i64(14)
            .i64(act as i64)
            .i64(0)
            .i64(8)
            .call(sigaction)
            .drop_();
        // Temporary mask blocking SIGALRM: bit 1 << (14 - 1).
        b.i32(mask as i32).i64(1 << 13).store64(0);
        // Timeout 2 s (virtual); the alarm fires at +1 s, mid-wait.
        b.i32(ts as i32).i64(2).store64(0);
        b.i32(ts as i32).i64(0).store64(8);
        b.i64(1).call(alarm).drop_();
        b.i64(0)
            .i64(0)
            .i64(ts as i64)
            .i64(mask as i64)
            .call(ppoll)
            .local_set(ret);
        // Timed out cleanly (0 events), not EINTR: the mask held.
        b.local_get(ret).i64(0).eq64().eqz32();
        b.if_(BlockType::Empty, |b| {
            b.i32(100);
            b.ret();
        });
        // The pending SIGALRM is delivered at a safepoint after return;
        // spin until the handler ran, then report the delivery count.
        b.loop_(BlockType::Empty, |b| {
            b.i32(516).load32(0).eqz32().br_if(0);
        });
        b.i32(516).load32(0);
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(
        out.exit_code(),
        Some(1),
        "one timeout return, one delivery: {:?} (stdout {:?})",
        out.main_exit,
        out.stdout()
    );
    // Dispatch counting is per retry: the initial call, the (masked,
    // non-delivering) signal-wake retry when the alarm fires, and the
    // deadline-lapse retry that reports the timeout.
    assert!(out.trace.counts.of("ppoll") >= 1, "{:?}", out.trace.counts);
}

#[test]
fn signal_handler_runs_at_safepoint() {
    // Register a SIGUSR1 handler that stores 42 at mem[512]; kill(self);
    // spin until mem[512] != 0; return it.
    let mut mb = ModuleBuilder::new();
    let sigaction = sys(&mut mb, "rt_sigaction", 4);
    let kill = sys(&mut mb, "kill", 2);
    let getpid = sys(&mut mb, "getpid", 0);
    mb.memory(2, Some(16));

    let handler_sig = mb.sig([I32], []);
    let dummy = mb.func(handler_sig, |_| {});
    let handler = mb.func(handler_sig, |b| {
        b.i32(512).i32(42).store32(0);
    });
    // Slots 0 and 1 are reserved: they collide with the SIG_DFL/SIG_IGN
    // handler encodings, exactly like address 0/1 in the native ABI.
    let base = mb.table_entries(&[dummy, dummy, handler]);
    assert_eq!(base, 0);
    let act = mb.reserve(24);

    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        // act.handler = table index 2; flags = 0; mask = 0.
        b.i32(act as i32).i32(2).store32(0);
        // rt_sigaction(SIGUSR1=10, act, 0, 8)
        b.i64(10)
            .i64(act as i64)
            .i64(0)
            .i64(8)
            .call(sigaction)
            .drop_();
        // kill(getpid(), SIGUSR1)
        b.call(getpid).i64(10).call(kill).drop_();
        // Spin until the handler fires (loop-header safepoints poll).
        b.loop_(BlockType::Empty, |b| {
            b.i32(512).load32(0).eqz32().br_if(0);
        });
        b.i32(512).load32(0);
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(42));
    assert_eq!(out.trace.counts.of("rt_sigaction"), 1);
}

#[test]
fn uncaught_sigterm_kills_process() {
    let mut mb = ModuleBuilder::new();
    let kill = sys(&mut mb, "kill", 2);
    let getpid = sys(&mut mb, "getpid", 0);
    mb.memory(1, Some(4));
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        b.call(getpid).i64(15).call(kill).drop_();
        // Never reached: the post-syscall poll kills us.
        b.loop_(BlockType::Empty, |b| {
            b.br(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    // Shell convention: 128 + signo.
    assert_eq!(out.exit_code(), Some(143));
}

#[test]
fn nanosleep_advances_virtual_clock() {
    let mut mb = ModuleBuilder::new();
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    let clock_gettime = sys(&mut mb, "clock_gettime", 2);
    mb.memory(2, Some(16));
    let req = mb.reserve(16);
    let ts = mb.reserve(16);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        // req = { sec: 2, nsec: 0 }
        b.i32(req as i32).i64(2).store64(0);
        b.i64(req as i64).i64(0).call(nanosleep).drop_();
        // ts = clock_gettime(CLOCK_MONOTONIC)
        b.i64(1).i64(ts as i64).call(clock_gettime).drop_();
        // return ts.sec >= 2
        b.i32(ts as i32).load64(0).i64(2);
        b.emit(wasm::instr::Instr::Rel(wasm::instr::RelOp::I64GeS));
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(1));
}

#[test]
fn mmap_munmap_and_brk() {
    let mut mb = ModuleBuilder::new();
    let mmap = sys(&mut mb, "mmap", 6);
    let munmap = sys(&mut mb, "munmap", 2);
    let brk = sys(&mut mb, "brk", 1);
    mb.memory(2, Some(64));
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let p = b.local(I64);
        let b0 = b.local(I64);
        // p = mmap(0, 8192, RW=3, MAP_PRIVATE|ANON=0x22, -1, 0)
        b.i64(0)
            .i64(8192)
            .i64(3)
            .i64(0x22)
            .i64(-1)
            .i64(0)
            .call(mmap)
            .local_set(p);
        // *(i32*)p = 7 — the mapping is real linear memory.
        b.local_get(p).wrap().i32(7).store32(0);
        b.local_get(p).wrap().load32(0).i32(7).ne32();
        b.if_(BlockType::Empty, |b| {
            b.i32(1).ret();
        });
        // munmap(p, 8192) == 0
        b.local_get(p).i64(8192).call(munmap).i64(0).eq64().eqz32();
        b.if_(BlockType::Empty, |b| {
            b.i32(2).ret();
        });
        // brk grows: b0 = brk(0); brk(b0 + 4096) == b0 + 4096
        b.i64(0).call(brk).local_set(b0);
        b.local_get(b0).i64(4096).add64().call(brk);
        b.local_get(b0).i64(4096).add64().eq64().eqz32();
        b.if_(BlockType::Empty, |b| {
            b.i32(3).ret();
        });
        b.i32(0);
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(0));
    assert_eq!(out.trace.counts.of("mmap"), 1);
}

#[test]
fn execve_replaces_program() {
    // Program A execs /usr/bin/b which writes "B ran" and exits 5.
    let mut a = ModuleBuilder::new();
    let execve = sys(&mut a, "execve", 3);
    let write_a = sys(&mut a, "write", 3);
    a.memory(2, Some(16));
    let path = a.c_str("/usr/bin/b");
    let pre = a.c_str("A before exec\n");
    let main_sig = a.sig([], [I32]);
    let main_a = a.func(main_sig, |b| {
        b.i64(1).i64(pre as i64).i64(14).call(write_a).drop_();
        b.i64(path as i64).i64(0).i64(0).call(execve).drop_();
        // Unreachable on success.
        b.i32(99);
    });
    a.export("_start", main_a);

    let mut bm = ModuleBuilder::new();
    let write_b = sys(&mut bm, "write", 3);
    bm.memory(2, Some(16));
    let msg = bm.c_str("B ran\n");
    let main_sig_b = bm.sig([], [I32]);
    let main_b = bm.func(main_sig_b, |b| {
        b.i64(1).i64(msg as i64).i64(6).call(write_b).drop_();
        b.i32(5);
    });
    bm.export("_start", main_b);

    let mut runner = WaliRunner::new_default();
    runner.register_program("/usr/bin/a", &a.build()).unwrap();
    runner.register_program("/usr/bin/b", &bm.build()).unwrap();
    runner.spawn("/usr/bin/a", &[], &[]).unwrap();
    let out = runner.run().unwrap();
    assert_eq!(out.exit_code(), Some(5));
    assert_eq!(out.stdout(), "A before exec\nB ran\n");
}

/// A `spawn` that fails after the program lookup (here: no `_start` or
/// `main` export) must not leave a kernel process behind, and the runner
/// stays usable.
#[test]
fn failed_spawn_leaves_no_kernel_task() {
    let mut bad = ModuleBuilder::new();
    let sig = bad.sig([], [I32]);
    let f = bad.func(sig, |b| {
        b.i32(0);
    });
    bad.export("not_an_entry", f);

    let mut good = ModuleBuilder::new();
    let sig = good.sig([], [I32]);
    let main = good.func(sig, |b| {
        b.i32(7);
    });
    good.export("_start", main);

    let mut runner = WaliRunner::new_default();
    runner
        .register_program("/usr/bin/bad", &bad.build())
        .unwrap();
    runner
        .register_program("/usr/bin/good", &good.build())
        .unwrap();
    assert!(matches!(
        runner.spawn("/usr/bin/bad", &[], &[]),
        Err(wali::runner::RunnerError::NoEntry(_))
    ));
    let leaks = runner.leak_audit();
    assert!(leaks.is_clean(), "{}", leaks.describe());
    runner.spawn("/usr/bin/good", &[], &[]).unwrap();
    let out = runner.run().unwrap();
    assert_eq!(out.exit_code(), Some(7));
    assert_eq!(out.ends.len(), 1, "{:?}", out.ends);
    assert!(runner.leak_audit().is_clean());
}

/// A program registered outside the standard layout's directories is a
/// real file to the guest: `faccessat` finds what `execve` will run.
#[test]
fn registered_program_is_a_file_wherever_it_is_registered() {
    // The shell: exits 5.
    let mut sh = ModuleBuilder::new();
    sh.memory(1, Some(1));
    let sh_sig = sh.sig([], [I32]);
    let sh_main = sh.func(sh_sig, |b| {
        b.i32(5);
    });
    sh.export("_start", sh_main);
    let sh = sh.build();

    // The caller: `faccessat(AT_FDCWD, "/bin/sh", X_OK)`, and only when
    // that succeeds, `execve` it. Any other exit code is 90 + the errno.
    let mut a = ModuleBuilder::new();
    let faccessat = sys(&mut a, "faccessat", 4);
    let execve = sys(&mut a, "execve", 3);
    a.memory(2, Some(16));
    let path = a.c_str("/bin/sh");
    let a_sig = a.sig([], [I32]);
    let a_main = a.func(a_sig, |b| {
        let r = b.local(I64);
        b.i64(-100)
            .i64(path as i64)
            .i64(1)
            .i64(0)
            .call(faccessat)
            .local_set(r);
        b.local_get(r).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            b.i64(path as i64).i64(0).i64(0).call(execve).drop_();
        });
        b.i32(90).local_get(r).wrap().sub32();
    });
    a.export("_start", a_main);

    let mut runner = WaliRunner::new_default();
    runner.register_program("/usr/bin/a", &a.build()).unwrap();
    runner.register_program("/bin/sh", &sh).unwrap();
    runner.register_program("tools/sh", &sh).unwrap();
    {
        let kernel = runner.kernel.lock_ok();
        let vfs = kernel.vfs.read();
        for stub in ["/bin/sh", "/tools/sh", "/usr/bin/a"] {
            let id = vfs.resolve(vfs.root, stub, true).unwrap().inode.unwrap();
            assert_eq!(vfs.get(id).unwrap().mode() & 0o7777, 0o755, "{stub}");
        }
    }
    // A stub that cannot be created is an error, not a silent no-op.
    let err = runner.register_program("/etc/passwd/sh", &sh);
    assert!(
        matches!(
            err,
            Err(wali::runner::RunnerError::Vfs(wali_abi::Errno::Enotdir))
        ),
        "{:?}",
        err.err()
    );

    runner.spawn("/usr/bin/a", &[], &[]).unwrap();
    let out = runner.run().unwrap();
    assert_eq!(out.exit_code(), Some(5));
    assert_eq!(out.trace.counts.of("faccessat"), 1);
    assert_eq!(out.trace.counts.of("execve"), 1);
}

/// The specification table is built once per process and shared, yet a
/// registration made through one runner's `linker_mut` is that runner's
/// alone: runners built before and after it still run the real `getpid`.
#[test]
fn a_runner_linker_override_is_invisible_to_other_runners() {
    use std::sync::Arc;

    let mut mb = ModuleBuilder::new();
    let getpid = sys(&mut mb, "getpid", 0);
    mb.memory(1, Some(1));
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.call(getpid).wrap();
    });
    mb.export("_start", main);
    let module = roundtrip(&mb.build());
    let run = |mut runner: WaliRunner| {
        runner.register_program("/usr/bin/app", &module).unwrap();
        let pid = runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        (runner.run().unwrap().exit_code(), pid)
    };

    let before = WaliRunner::new_default();
    let mut a = WaliRunner::new_default();
    a.linker_mut()
        .func_raw(wali::WALI_MODULE, "SYS_getpid", |_, _| Ok(77));
    let after = WaliRunner::new_default();

    let handle = |l: &wasm::host::Linker<wali::WaliContext>| {
        l.resolve(wali::WALI_MODULE, "SYS_getpid").unwrap().clone()
    };
    let (one, two) = (wali::build_linker(), wali::build_linker());
    assert!(Arc::ptr_eq(&handle(&one), &handle(&two)));
    assert!(!Arc::ptr_eq(&handle(&one), &handle(a.linker_mut())));
    assert_eq!(one.len(), a.linker_mut().len());

    assert_eq!(run(a).0, Some(77));
    for runner in [before, after] {
        let (code, pid) = run(runner);
        assert_eq!(code, Some(pid));
        assert_ne!(code, Some(77));
    }
}

#[test]
fn argv_support_methods() {
    let mut mb = ModuleBuilder::new();
    let argc_sig = mb.sig([], [I32]);
    let get_argc = mb.import_func("wali", "get_argc", argc_sig);
    let len_sig = mb.sig([I32], [I32]);
    let get_argv_len = mb.import_func("wali", "get_argv_len", len_sig);
    let copy_sig = mb.sig([I32, I32], [I32]);
    let copy_argv = mb.import_func("wali", "copy_argv", copy_sig);
    let write = sys(&mut mb, "write", 3);
    mb.memory(2, Some(16));
    let buf = mb.reserve(256);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let n = b.local(I32);
        // copy argv[1] into buf and write it (length excludes the NUL).
        b.i32(buf as i32)
            .i32(1)
            .call(copy_argv)
            .i32(1)
            .sub32()
            .local_set(n);
        b.i64(1)
            .i64(buf as i64)
            .local_get(n)
            .extend_u()
            .call(write)
            .drop_();
        b.call(get_argc);
        b.i32(1).call(get_argv_len).add32();
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &["hello-arg"]);
    assert_eq!(out.stdout(), "hello-arg");
    // argc (2) + len("hello-arg")+1 (10) = 12.
    assert_eq!(out.exit_code(), Some(12));
}

#[test]
fn sigreturn_is_forbidden() {
    let mut mb = ModuleBuilder::new();
    let sigreturn = sys(&mut mb, "rt_sigreturn", 0);
    mb.memory(1, Some(4));
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        b.call(sigreturn).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    let module = roundtrip(&mb.build());
    let out = WaliRunner::run_to_exit(&module, &[], &[]).unwrap();
    match &out.main_exit {
        Some(TaskEnd::Trapped(wasm::Trap::Forbidden("rt_sigreturn"))) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn proc_self_mem_is_interposed() {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    mb.memory(2, Some(16));
    let path = mb.c_str("/proc/self/mem");
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        // open returns -EACCES (-13): return the negated errno.
        b.i64(path as i64).i64(2).i64(0).call(open);
        b.emit(wasm::instr::Instr::I64Const(-1))
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I64Mul));
        b.wrap();
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(13), "EACCES from the interposition");
}

#[test]
fn clone_thread_shares_memory() {
    // Main clones a thread that stores 99 at mem[600]; main futex-waits
    // on a flag the thread sets, then reads mem[600].
    let mut mb = ModuleBuilder::new();
    let clone = sys(&mut mb, "clone", 5);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(2, Some(16));
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let pid = b.local(I64);
        // CLONE_VM|CLONE_THREAD|CLONE_SIGHAND = 0x10900
        b.i64(0x10900)
            .i64(0)
            .i64(0)
            .i64(0)
            .i64(0)
            .call(clone)
            .local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // "thread": share the same linear memory.
            b.i32(600).i32(99).store32(0);
            b.i64(0).call(exit).drop_();
        });
        // main: spin until the store is visible.
        b.loop_(BlockType::Empty, |b| {
            b.i32(600).load32(0).eqz32().br_if(0);
        });
        b.i32(600).load32(0);
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(99));
}

#[test]
fn policy_denies_sockets() {
    use wali::policy::{DenyAction, Policy};
    use wali_abi::Errno;
    let mut mb = ModuleBuilder::new();
    let socket = sys(&mut mb, "socket", 3);
    mb.memory(1, Some(4));
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        b.i64(2).i64(1).i64(0).call(socket);
        b.emit(wasm::instr::Instr::I64Const(-1))
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I64Mul));
        b.wrap();
    });
    mb.export("_start", main);
    let module = roundtrip(&mb.build());

    let mut runner = WaliRunner::new_default();
    runner.register_program("/usr/bin/app", &module).unwrap();
    runner
        .spawn_with_policy(
            "/usr/bin/app",
            &[],
            &[],
            Policy::deny_list(["socket"], DenyAction::Errno(Errno::Eperm)),
        )
        .unwrap();
    let out = runner.run().unwrap();
    assert_eq!(out.exit_code(), Some(1), "EPERM (1) from the policy layer");
}

/// The Fig. 7 time breakdown is populated when a run asks for it, and
/// only then — and asking changes nothing else about the run.
#[test]
fn time_breakdown_is_populated() {
    use wali::testkit::{emit_sleep, fork_reap_loop};

    // The parent parks in a nanosleep, forks and reaps three children
    // that write a line each, then writes 200 bytes of its own.
    let mut mb = ModuleBuilder::new();
    let write = sys(&mut mb, "write", 3);
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    mb.memory(2, Some(16));
    let ts = mb.reserve(16);
    let msg = mb.c_str("x");
    let line = mb.c_str("child\n");
    let status = mb.reserve(8);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        emit_sleep(b, nanosleep, ts, 0, 5_000_000);
        fork_reap_loop(b, fork, wait4, status, 3, |b, _| {
            b.i64(1).i64(line as i64).i64(6).call(write).drop_();
            b.i64(0).call(exit).drop_();
        });
        let i = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            b.i64(1).i64(msg as i64).i64(1).call(write).drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(200)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    let module = roundtrip(&mb.build());
    let run = |timing: bool| {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(1);
        runner.set_layer_timing(timing);
        runner.register_program("/usr/bin/app", &module).unwrap();
        runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        runner.run().expect("run")
    };
    let (off, on) = (run(false), run(true));

    // Recording off: no clock is read, the three durations stay zero.
    let zero = std::time::Duration::ZERO;
    assert!(!off.trace.timing);
    assert_eq!(
        (
            off.trace.total_time,
            off.trace.host_time,
            off.trace.kernel_time
        ),
        (zero, zero, zero)
    );

    // Recording on: the Fig. 7 split, forked children included.
    assert!(on.trace.timing);
    assert!(on.trace.kernel_time > zero);
    assert!(on.trace.kernel_time <= on.trace.host_time);
    assert!(on.trace.host_time <= on.trace.total_time);

    // Everything else is the same run.
    assert_eq!(off.exit_code(), Some(0));
    assert_eq!(off.trace.counts.of("write"), 203);
    assert_eq!((off.sched.parks, off.sched.idle_advances), (1, 1));
    assert!(off.trace.wasm_steps > 1000);
    assert_eq!(off.main_exit, on.main_exit);
    assert_eq!(off.ends, on.ends);
    assert_eq!(off.console, on.console);
    assert_eq!(off.sched, on.sched);
    assert_eq!(off.trace.counts, on.trace.counts);
    assert_eq!(off.trace.wasm_steps, on.trace.wasm_steps);
}

/// A module whose only function, exported as `export`, returns `code`.
fn returns(code: i32, export: &str, tweak: impl FnOnce(&mut ModuleBuilder)) -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    tweak(&mut mb);
    let sig = mb.sig([], [I32]);
    let f = mb.func(sig, |b| {
        b.i32(code);
    });
    mb.export(export, f);
    mb.build()
}

/// What the runner was told — the §3.6 policy, `set_ring(false)`,
/// `set_layer_timing(true)` — holds for the program a task execs, on
/// both schedulers: the exec image is derived from the old context.
#[test]
fn policy_ring_and_timing_survive_execve() {
    use wali::policy::{DenyAction, Policy};
    use wali_abi::Errno;

    // A makes no kernel call of its own: it only execs B.
    let mut a = ModuleBuilder::new();
    let execve = sys(&mut a, "execve", 3);
    a.memory(1, Some(2));
    let path = a.c_str("/usr/bin/b");
    let sig = a.sig([], [I32]);
    let main_a = a.func(sig, |b| {
        b.i64(path as i64).i64(0).i64(0).call(execve).drop_();
        b.i32(99);
    });
    a.export("_start", main_a);

    // B exits 3 - (socket() == -EPERM) - 2 * (wali_ring_enter() == -ENOSYS).
    let mut bm = ModuleBuilder::new();
    let socket = sys(&mut bm, "socket", 3);
    let ring_enter = sys(&mut bm, "wali_ring_enter", 4);
    let write = sys(&mut bm, "write", 3);
    bm.memory(1, Some(2));
    let msg = bm.c_str("B\n");
    let sig = bm.sig([], [I32]);
    let main_b = bm.func(sig, |b| {
        b.i64(1).i64(msg as i64).i64(2).call(write).drop_();
        b.i32(3);
        b.i64(2).i64(1).i64(0).call(socket);
        b.i64(Errno::Eperm.as_ret()).eq64().sub32();
        b.i64(0).i64(0).i64(0).i64(0).call(ring_enter);
        b.i64(Errno::Enosys.as_ret()).eq64().i32(2).mul32().sub32();
    });
    bm.export("_start", main_b);
    let (a, bm) = (roundtrip(&a.build()), roundtrip(&bm.build()));

    for workers in [1, 4] {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(workers);
        runner.set_ring(false);
        runner.set_layer_timing(true);
        runner.register_program("/usr/bin/a", &a).unwrap();
        runner.register_program("/usr/bin/b", &bm).unwrap();
        let deny = Policy::deny_list(["socket"], DenyAction::Errno(Errno::Eperm));
        runner
            .spawn_with_policy("/usr/bin/a", &[], &[], deny)
            .unwrap();
        let out = runner.run().unwrap();
        assert_eq!(out.stdout(), "B\n", "workers {workers}");
        assert_eq!(
            out.exit_code(),
            Some(0),
            "workers {workers}: 1 = B's socket() got past the policy, 2 = its ring was on"
        );
        // Only B entered the kernel.
        assert!(out.trace.timing, "workers {workers}");
        assert!(
            out.trace.kernel_time > std::time::Duration::ZERO,
            "workers {workers}"
        );
    }
}

/// An `execve` target that is registered but cannot start — no entry
/// export, or a data segment that does not fit its memory — is the
/// caller's `-ENOEXEC`, found before the point of no return: the caller
/// keeps its close-on-exec fds, and the run and its other tasks go on.
#[test]
fn a_bad_execve_target_is_enoexec_for_the_caller_only() {
    use wali_abi::flags::O_CLOEXEC;
    use wali_abi::Errno;

    // Exits 3 - (execve(target) == -ENOEXEC) - 2 * (write(cloexec_fd) == 1).
    let prober = |target: &str| {
        let mut mb = ModuleBuilder::new();
        let open = sys(&mut mb, "open", 3);
        let execve = sys(&mut mb, "execve", 3);
        let write = sys(&mut mb, "write", 3);
        mb.memory(1, Some(2));
        let file = mb.c_str("/tmp/keep");
        let path = mb.c_str(target);
        let sig = mb.sig([], [I32]);
        let main = mb.func(sig, |b| {
            let fd = b.local(I64);
            b.i64(file as i64)
                .i64((0o102 | O_CLOEXEC) as i64)
                .i64(0o644)
                .call(open)
                .local_set(fd);
            b.i32(3);
            b.i64(path as i64).i64(0).i64(0).call(execve);
            b.i64(Errno::Enoexec.as_ret()).eq64().sub32();
            b.local_get(fd).i64(file as i64).i64(1).call(write);
            b.i64(1).eq64().i32(2).mul32().sub32();
        });
        mb.export("_start", main);
        roundtrip(&mb.build())
    };
    let no_entry = returns(0, "not_an_entry", |_| {});
    let oob = returns(0, "_start", |mb| mb.data_at(70_000, b"x"));
    let third = returns(7, "_start", |_| {});

    for workers in [1, 4] {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(workers);
        for (path, module) in [
            ("/usr/bin/probe-noentry", &prober("/usr/bin/noentry")),
            ("/usr/bin/probe-oob", &prober("/usr/bin/oob")),
            ("/usr/bin/noentry", &no_entry),
            ("/usr/bin/oob", &oob),
            ("/usr/bin/third", &third),
        ] {
            runner.register_program(path, module).unwrap();
        }
        for path in [
            "/usr/bin/probe-noentry",
            "/usr/bin/probe-oob",
            "/usr/bin/third",
        ] {
            runner.spawn(path, &[], &[]).unwrap();
        }
        let out = runner
            .run()
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
        let mut ends: Vec<&TaskEnd> = out.ends.iter().map(|(_, e)| e).collect();
        ends.sort_by_key(|e| format!("{e:?}"));
        assert_eq!(
            ends,
            [
                &TaskEnd::Exited(0),
                &TaskEnd::Exited(0),
                &TaskEnd::Exited(7)
            ],
            "workers {workers}: 1 = not ENOEXEC, 2 = the close-on-exec fd was swept"
        );
        let leaks = runner.leak_audit();
        assert!(leaks.is_clean(), "workers {workers}: {}", leaks.describe());
    }
}

/// One deadlock report for both schedulers: a lone `read` on an empty
/// pipe whose write end stays open has no wake-up source, and the entry
/// says what the task was doing, where the scheduler held it and what
/// the kernel thought of it.
#[test]
fn deadlock_report_names_the_call_the_place_and_the_kernel_state() {
    let mut mb = ModuleBuilder::new();
    let pipe2 = sys(&mut mb, "pipe2", 2);
    let read = sys(&mut mb, "read", 3);
    mb.memory(1, Some(2));
    let fds = mb.reserve(8);
    let buf = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i64(fds as i64).i64(0).call(pipe2).drop_();
        b.i32(fds as i32).load32(0).extend_u();
        b.i64(buf as i64).i64(1).call(read).wrap();
    });
    mb.export("_start", main);
    let module = roundtrip(&mb.build());

    for workers in [1, 4] {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(workers);
        runner.register_program("/usr/bin/app", &module).unwrap();
        let tid = runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        let Err(wali::runner::RunnerError::Deadlock(stuck)) = runner.run() else {
            panic!("workers {workers}: expected a deadlock")
        };
        assert_eq!(
            stuck,
            [(tid, "retry SYS_read; parked; kernel Running".to_string())],
            "workers {workers}"
        );
    }
}

#[test]
fn far_offsets_and_wrong_access_modes_are_errnos_not_host_panics() {
    // Offsets and lengths are the guest's to choose: a write, pwrite or
    // truncate that would end past the per-file cap answers -EFBIG (the
    // host used to compute `offset + len` and resize to it), and a
    // description refuses the direction it was not opened for. Each call
    // stores what it returned; the slots go out through stdout.
    const EFBIG: i64 = -27;
    const EBADF: i64 = -9;
    const EINVAL: i64 = -22;
    const SLOTS: u32 = 10;
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let pwrite = sys(&mut mb, "pwrite64", 4);
    let pwritev = sys(&mut mb, "pwritev", 4);
    let lseek = sys(&mut mb, "lseek", 3);
    let ftruncate = sys(&mut mb, "ftruncate", 2);
    let truncate = sys(&mut mb, "truncate", 2);
    let fallocate = sys(&mut mb, "fallocate", 4);
    mb.memory(2, Some(16));
    let path = mb.c_str("/tmp/far.dat");
    let buf = mb.data(b"x");
    let iov = mb.data(&[buf.to_le_bytes(), 1u32.to_le_bytes()].concat());
    let out = mb.reserve(SLOTS * 8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let rw = b.local(I64);
        let rd = b.local(I64);
        let wr = b.local(I64);
        let mut slot = 0;
        let mut store = |b: &mut wasm::build::FuncBuilder,
                         call: &dyn Fn(&mut wasm::build::FuncBuilder)| {
            b.i32((out + 8 * slot) as i32);
            call(b);
            b.store64(0);
            slot += 1;
        };
        // O_CREAT | O_RDWR, O_RDONLY, O_WRONLY
        for (flags, fd) in [(0o102, rw), (0, rd), (1, wr)] {
            b.i64(path as i64)
                .i64(flags)
                .i64(0o644)
                .call(open)
                .local_set(fd);
        }
        store(b, &|b| {
            b.local_get(rw).i64(buf as i64).i64(1).i64(i64::MIN);
            b.call(pwrite);
        });
        store(b, &|b| {
            b.local_get(rw).i64(iov as i64).i64(1).i64(i64::MAX);
            b.call(pwritev);
        });
        store(b, &|b| {
            b.local_get(rw).i64(i64::MAX).i64(0).call(lseek).drop_();
            b.local_get(rw).i64(buf as i64).i64(1).call(write);
        });
        store(b, &|b| {
            b.local_get(rw).i64(1 << 62).call(ftruncate);
        });
        store(b, &|b| {
            b.i64(path as i64).i64(-1).call(truncate);
        });
        store(b, &|b| {
            b.local_get(rw).i64(0).i64(i64::MAX).i64(i64::MAX);
            b.call(fallocate);
        });
        store(b, &|b| {
            b.local_get(wr).i64(buf as i64).i64(1).call(read);
        });
        store(b, &|b| {
            b.local_get(rd).i64(buf as i64).i64(1).call(write);
        });
        store(b, &|b| {
            b.local_get(rd).i64(buf as i64).i64(1).i64(0).call(pwrite);
        });
        store(b, &|b| {
            b.local_get(rd).i64(0).call(ftruncate);
        });
        assert_eq!(slot, SLOTS);
        b.i64(1)
            .i64(out as i64)
            .i64(SLOTS as i64 * 8)
            .call(write)
            .drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    let module = roundtrip(&mb.build());
    for workers in [1, 4] {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(workers);
        runner.register_program("/usr/bin/app", &module).unwrap();
        runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        let run = runner.run().expect("the run survives");
        assert_eq!(run.exit_code(), Some(0), "workers={workers}");
        let got: Vec<i64> = run
            .console
            .chunks(8)
            .map(|word| i64::from_le_bytes(word.try_into().unwrap()))
            .collect();
        let want = [
            EFBIG, EFBIG, EFBIG, EFBIG, EFBIG, EFBIG, EBADF, EBADF, EBADF, EINVAL,
        ];
        assert_eq!(got, want, "workers={workers}");
    }
}

/// A listener closes while a connection nobody accepted sits in its
/// queue and the connection's client is parked in `read`: the client
/// must be woken (its read answers 0 — the connection was reset) and the
/// server-side socket freed. Before PR 22 neither happened: the run
/// ended as a deadlock (client parked on the socket, main on the pipe)
/// and the audit counted a socket.
#[test]
fn a_listener_closed_over_a_pending_connection_resets_its_client() {
    use wali::testkit::{emit_sleep, sockaddr_in, spawn_thread};
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let socket = sys(&mut mb, "socket", 3);
    let bind = sys(&mut mb, "bind", 3);
    let listen = sys(&mut mb, "listen", 2);
    let connect = sys(&mut mb, "connect", 3);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let clone = sys(&mut mb, "clone", 5);
    let exit = sys(&mut mb, "exit", 1);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    mb.memory(2, Some(16));
    let addr = mb.data(&sockaddr_in(7300));
    let fds = mb.reserve(8);
    let ready = mb.reserve(4);
    let note = mb.reserve(8);
    let got = mb.reserve(8);
    let ts = mb.reserve(16);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (srv, cli, n) = (b.local(I64), b.local(I64), b.local(I64));
        let pipe_end = |b: &mut wasm::build::FuncBuilder, end: u32| {
            b.i32(fds as i32).load32(4 * end).extend_u();
        };
        b.i64(fds as i64).call(pipe).drop_();
        // The client: spawned before the listener exists, so its copy of
        // the fd table does not keep the listener open.
        spawn_thread(b, clone, |b| {
            b.loop_(BlockType::Empty, |b| {
                b.i32(ready as i32).load32(0).eqz32().br_if(0);
            });
            b.i64(2).i64(1).i64(0).call(socket).local_set(cli);
            b.local_get(cli)
                .i64(addr as i64)
                .i64(16)
                .call(connect)
                .drop_();
            // "connected", then park in read.
            pipe_end(b, 1);
            b.i64(note as i64).i64(1).call(write).drop_();
            b.local_get(cli)
                .i64(got as i64)
                .i64(8)
                .call(read)
                .local_set(n);
            b.local_get(cli).call(close).drop_();
            b.i32(note as i32).local_get(n).wrap().store8(0);
            pipe_end(b, 1);
            b.i64(note as i64).i64(1).call(write).drop_();
            b.i64(0).call(exit).drop_();
        });
        b.i64(2).i64(1).i64(0).call(socket).local_set(srv);
        b.local_get(srv).i64(addr as i64).i64(16).call(bind).drop_();
        b.local_get(srv).i64(4).call(listen).drop_();
        b.i32(ready as i32).i32(1).store32(0);
        pipe_end(b, 0);
        b.i64(got as i64).i64(1).call(read).drop_();
        // Virtual time passes only once nothing can run: the client is
        // parked in its read by the time this returns.
        emit_sleep(b, nanosleep, ts, 0, 1_000_000);
        b.local_get(srv).call(close).drop_();
        b.i32(got as i32).i32(99).store8(0);
        pipe_end(b, 0);
        b.i64(got as i64).i64(1).call(read).drop_();
        // What the client's read returned.
        b.i32(got as i32).load8u(0);
    });
    mb.export("_start", main);
    let module = roundtrip(&mb.build());
    for workers in [1, 4] {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(workers);
        runner.register_program("/usr/bin/app", &module).unwrap();
        runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        let out = runner
            .run()
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
        assert_eq!(out.exit_code(), Some(0), "workers {workers}: read != 0");
        let leaks = runner.leak_audit();
        assert!(leaks.is_clean(), "workers {workers}: {}", leaks.describe());
    }
}

/// pipe(7) atomicity, end to end: two forked writers each `write` a
/// 100-byte message into a pipe with 40 bytes free. Each message goes in
/// whole once the reader has made room — none is split, so the two
/// cannot interleave — and each `write` answers 100.
#[test]
fn two_small_writers_into_a_nearly_full_pipe_do_not_interleave() {
    const CAPACITY: i32 = 65_536;
    const MESSAGE: i32 = 100;
    let mut mb = ModuleBuilder::new();
    let pipe = sys(&mut mb, "pipe", 1);
    let fork = sys(&mut mb, "fork", 0);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(2, Some(16));
    let fds = mb.reserve(8);
    let filler = mb.data(&[b'f'; 4096]);
    let msg_a = mb.data(&[b'a'; MESSAGE as usize]);
    let msg_b = mb.data(&[b'b'; MESSAGE as usize]);
    let sink = mb.reserve(4096);
    let tail = mb.reserve(512);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let (n, left, got, i, ok) = (
            b.local(I64),
            b.local(I32),
            b.local(I32),
            b.local(I32),
            b.local(I32),
        );
        let rfd = |b: &mut wasm::build::FuncBuilder| {
            b.i32(fds as i32).load32(0).extend_u();
        };
        let wfd = |b: &mut wasm::build::FuncBuilder| {
            b.i32(fds as i32 + 4).load32(0).extend_u();
        };
        b.i64(fds as i64).call(pipe).drop_();
        // Fill the pipe to 40 bytes short: 15 × 4096 + 4056.
        for len in std::iter::repeat_n(4096, 15).chain([4096 - 40]) {
            wfd(b);
            b.i64(filler as i64).i64(len).call(write).drop_();
        }
        // Two writers, one blocking 100-byte `write` each; the exit code
        // says whether it answered 100.
        for msg in [msg_a, msg_b] {
            b.call(fork).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                wfd(b);
                b.i64(msg as i64).i64(MESSAGE as i64).call(write);
                b.i64(MESSAGE as i64)
                    .eq64()
                    .eqz32()
                    .extend_u()
                    .call(exit)
                    .drop_();
            });
        }
        wfd(b);
        b.call(close).drop_();
        // Drain the filler …
        b.i32(CAPACITY - 40).local_set(left);
        b.loop_(BlockType::Empty, |b| {
            rfd(b);
            b.i64(sink as i64);
            // min(left, 4096)
            b.local_get(left)
                .i32(4096)
                .local_get(left)
                .i32(4096)
                .lt_s32()
                .select();
            b.extend_u().call(read).local_set(n);
            b.local_get(left)
                .local_get(n)
                .wrap()
                .sub32()
                .local_set(left);
            b.i32(0).local_get(left).lt_s32().br_if(0);
        });
        // … then everything up to EOF: the two messages.
        b.loop_(BlockType::Empty, |b| {
            rfd(b);
            b.i32(tail as i32).local_get(got).add32().extend_u();
            b.i32(512).local_get(got).sub32().extend_u();
            b.call(read).local_set(n);
            b.local_get(got).local_get(n).wrap().add32().local_set(got);
            b.i64(0).local_get(n).lt_s64().br_if(0);
        });
        // 200 bytes: 100 of one letter, then 100 of the other.
        b.local_get(got).i32(2 * MESSAGE).eq32();
        b.i32(tail as i32)
            .load8u(0)
            .i32(tail as i32)
            .load8u(MESSAGE as u32)
            .ne32();
        b.and32().local_set(ok);
        b.loop_(BlockType::Empty, |b| {
            for half in [0, MESSAGE as u32] {
                b.i32(tail as i32).local_get(i).add32().load8u(half);
                b.i32(tail as i32).load8u(half).eq32();
                b.local_get(ok).and32().local_set(ok);
            }
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(MESSAGE)
                .lt_s32()
                .br_if(0);
        });
        b.local_get(ok).eqz32();
    });
    mb.export("_start", main);
    let out = run(&mb.build(), &[]);
    assert_eq!(out.exit_code(), Some(0), "a message was split or lost");
    assert_eq!(out.ends.len(), 3);
    assert!(
        out.ends.iter().all(|(_, end)| *end == TaskEnd::Exited(0)),
        "a writer's `write` did not answer 100: {:?}",
        out.ends
    );
}

/// A daemon that ignores `SIGCHLD` forks a thousand children and never
/// waits: each is reaped as it exits, so the run ends with the kernel
/// holding what it held before the first fork — no zombie, no wait
/// record — and `wait4` has nothing to report.
#[test]
fn a_thousand_unwaited_children_of_a_sigchld_ignorer_leave_nothing() {
    use wali::testkit::{run_module, RunnerOpts};
    const FORKS: i32 = 1000;
    let mut mb = ModuleBuilder::new();
    let sigaction = sys(&mut mb, "rt_sigaction", 4);
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(1, Some(2));
    let act = mb.reserve(24);
    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let i = b.local(I32);
        // SIGCHLD (17) := SIG_IGN (1).
        b.i32(act as i32).i32(1).store32(0);
        b.i64(17)
            .i64(act as i64)
            .i64(0)
            .i64(8)
            .call(sigaction)
            .drop_();
        b.loop_(BlockType::Empty, |b| {
            b.call(fork).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                b.i64(0).call(exit).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(FORKS)
                .lt_s32()
                .br_if(0);
        });
        // Blocks while any child still runs, then: -ECHILD (10).
        b.i64(-1).i64(0).i64(0).i64(0).call(wait4);
        b.i64(-10).eq64().eqz32();
    });
    mb.export("_start", main);
    let report = run_module(&mb.build(), &[], &[], RunnerOpts::default()).expect("run");
    assert_eq!(report.outcome.exit_code(), Some(0), "wait4 found a child");
    assert_eq!(report.outcome.ends.len(), FORKS as usize + 1);
    assert!(report.leaks.is_clean(), "{}", report.leaks.describe());
    assert_eq!(report.leaks.zombie_tasks.len(), 1, "the main task alone");
}

// --- A blocked `epoll_wait`, its arguments and its instance ---------------

use wali::testkit::{emit_sleep, run_module, sockaddr_in, RunnerOpts};
use wasm::build::{FuncBuilder, FuncId};

const EFAULT: i64 = -14;
const EPOLLIN: u32 = 0x001;
const EPOLLET: u32 = 1 << 31;
/// Past the end of every guest's memory below.
const BAD_PTR: i64 = 0xFFFF_FF00;
/// `CLONE_VM | CLONE_FS | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD`.
const THREAD_SHARING_FDS: i64 = 0x10d00;

/// The packed `epoll_event { events, data }` image.
fn epoll_event(events: u32, data: u64) -> Vec<u8> {
    let mut ev = events.to_le_bytes().to_vec();
    ev.extend_from_slice(&data.to_le_bytes());
    ev
}

/// Runs `module` at one worker and at four: exit code 0 and a clean
/// teardown audit, or the panic says which.
fn exits_clean_at_1_and_4(module: &Module, what: &str) {
    for workers in [1, 4] {
        let opts = RunnerOpts {
            workers: Some(workers),
            ..RunnerOpts::default()
        };
        let report = run_module(module, &[], &[], opts)
            .unwrap_or_else(|e| panic!("{what}, workers {workers}: {e}"));
        assert_eq!(
            report.outcome.exit_code(),
            Some(0),
            "{what}, workers {workers}: {:?}",
            report.outcome.main_exit
        );
        assert!(
            report.leaks.is_clean(),
            "{what}, workers {workers}: {}",
            report.leaks.describe()
        );
    }
}

/// The epoll calls, a pipe to watch and the rest the guests below use.
struct Ep {
    create: FuncId,
    ctl: FuncId,
    wait: FuncId,
    pipe: FuncId,
    write: FuncId,
    close: FuncId,
    clone: FuncId,
    exit: FuncId,
    nanosleep: FuncId,
    /// Scratch `timespec`.
    ts: u32,
    /// Room for four reported events.
    evbuf: u32,
}

impl Ep {
    fn import(mb: &mut ModuleBuilder) -> Ep {
        let mut ep = Ep {
            create: sys(mb, "epoll_create1", 1),
            ctl: sys(mb, "epoll_ctl", 4),
            wait: sys(mb, "epoll_wait", 4),
            pipe: sys(mb, "pipe", 1),
            write: sys(mb, "write", 3),
            close: sys(mb, "close", 1),
            clone: sys(mb, "clone", 5),
            exit: sys(mb, "exit", 1),
            nanosleep: sys(mb, "nanosleep", 2),
            ts: 0,
            evbuf: 0,
        };
        mb.memory(2, Some(16));
        ep.ts = mb.reserve(16);
        ep.evbuf = mb.reserve(4 * 12);
        ep
    }

    /// `ep = epoll_create1(0); epoll_ctl(ep, ADD, fds[0], ev)`, with
    /// `fds` a fresh pipe.
    fn watch_new_pipe(&self, b: &mut FuncBuilder, ep: u32, fds: u32, ev: u32) {
        b.i64(fds as i64).call(self.pipe).drop_();
        b.i64(0).call(self.create).local_set(ep);
        b.local_get(ep).i64(1);
        b.i32(fds as i32).load32(0).extend_u();
        b.i64(ev as i64).call(self.ctl).drop_();
    }

    /// `write(fds[1], fds, 1)`: one byte into the pipe at `fds`.
    fn feed(&self, b: &mut FuncBuilder, fds: u32) {
        b.i32(fds as i32).load32(4).extend_u();
        b.i64(fds as i64).i64(1).call(self.write).drop_();
    }

    /// `epoll_wait(ep, events, 1, timeout)`, result left on the stack.
    fn wait_one(&self, b: &mut FuncBuilder, ep: u32, events: i64, timeout: i64) {
        b.local_get(ep).i64(events).i64(1).i64(timeout);
        b.call(self.wait);
    }

    /// A thread; `body` must not fall through.
    fn thread(&self, b: &mut FuncBuilder, flags: i64, body: impl FnOnce(&mut FuncBuilder)) {
        b.i64(flags).i64(0).i64(0).i64(0).i64(0);
        b.call(self.clone).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            body(b);
            b.i64(0).call(self.exit).drop_();
        });
    }
}

/// The timeout of `epoll_wait` is a C `int`, whatever a guest puts in
/// the 64-bit slot: `i64::MAX` is `-1` (forever), not a number of
/// milliseconds to multiply into a deadline (the host used to overflow
/// doing that: a panic in a debug build, a deadline in the past — an
/// immediate 0 — in a release one). Each blocking flavour is ended by
/// an event a second thread makes once the waiter is parked.
#[test]
fn epoll_wait_takes_its_timeout_as_a_c_int() {
    for (timeout, blocks) in [
        (i32::MAX as i64, true),
        (i64::MAX, true),
        (-1, true),
        (0, false),
    ] {
        let mut mb = ModuleBuilder::new();
        let e = Ep::import(&mut mb);
        let fds = mb.reserve(8);
        let ev = mb.data(&epoll_event(EPOLLIN, 7));
        let sig = mb.sig([], [I32]);
        let main = mb.func(sig, |b| {
            let ep = b.local(I64);
            e.watch_new_pipe(b, ep, fds, ev);
            if blocks {
                e.thread(b, THREAD_SHARING_FDS, |b| {
                    emit_sleep(b, e.nanosleep, e.ts, 0, 1_000_000);
                    e.feed(b, fds);
                });
            }
            e.wait_one(b, ep, e.evbuf as i64, timeout);
            b.i64(blocks as i64).eq64().eqz32();
        });
        mb.export("_start", main);
        exits_clean_at_1_and_4(&mb.build(), &format!("timeout {timeout}"));
    }
}

/// `accept` with an `addr` it cannot write answers `-EFAULT` — after the
/// connection was taken off the listener and given a descriptor. The
/// descriptor must go with the call (the guest never learns its number):
/// the next `accept` gets the *next* connection under the *same* number,
/// and nothing is left open at the end.
#[test]
fn an_accept_that_faults_on_its_address_leaves_no_descriptor() {
    let mut mb = ModuleBuilder::new();
    let socket = sys(&mut mb, "socket", 3);
    let bind = sys(&mut mb, "bind", 3);
    let listen = sys(&mut mb, "listen", 2);
    let connect = sys(&mut mb, "connect", 3);
    let accept = sys(&mut mb, "accept", 3);
    let dup = sys(&mut mb, "dup", 1);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    mb.memory(2, Some(16));
    let addr = mb.data(&sockaddr_in(7310));
    // The clients are bound: a peer with an address is what `accept`
    // has something to write about.
    let from = [7311, 7312].map(|port| mb.data(&sockaddr_in(port)));
    let len = mb.data(&16u32.to_le_bytes());
    let first = mb.data(b"1");
    let second = mb.data(b"2");
    let got = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (srv, c1, c2, conn, next_fd) = (
            b.local(I64),
            b.local(I64),
            b.local(I64),
            b.local(I64),
            b.local(I64),
        );
        b.i64(2).i64(1).i64(0).call(socket).local_set(srv);
        b.local_get(srv).i64(addr as i64).i64(16).call(bind).drop_();
        b.local_get(srv).i64(8).call(listen).drop_();
        for (cli, byte, from) in [(c1, first, from[0]), (c2, second, from[1])] {
            b.i64(2).i64(1).i64(0).call(socket).local_set(cli);
            b.local_get(cli).i64(from as i64).i64(16).call(bind).drop_();
            b.local_get(cli).i64(addr as i64).i64(16);
            b.call(connect).drop_();
            b.local_get(cli).i64(byte as i64).i64(1).call(write).drop_();
        }
        // The number the next descriptor gets.
        b.local_get(srv)
            .call(dup)
            .local_tee(next_fd)
            .call(close)
            .drop_();
        let fail = |b: &mut FuncBuilder, code: i32| {
            b.if_(BlockType::Empty, |b| {
                b.i32(code).ret();
            });
        };
        b.local_get(srv).i64(BAD_PTR).i64(len as i64).call(accept);
        b.i64(EFAULT).eq64().eqz32();
        fail(b, 1);
        b.local_get(srv).i64(0).i64(0).call(accept).local_tee(conn);
        b.local_get(next_fd).eq64().eqz32();
        fail(b, 2);
        // The first connection went with the failed call: this is the
        // second, and the first client reads end-of-file.
        b.local_get(conn).i64(got as i64).i64(1).call(read).drop_();
        b.i32(got as i32).load8u(0).i32('2' as i32).ne32();
        fail(b, 3);
        b.local_get(c1).i64(got as i64).i64(1).call(read);
        b.i64(0).eq64().eqz32();
        fail(b, 4);
        for fd in [conn, c1, c2, srv] {
            b.local_get(fd).call(close).drop_();
        }
        b.i32(0);
    });
    mb.export("_start", main);
    exits_clean_at_1_and_4(&mb.build(), "accept into a bad address");
}

/// `epoll_wait` into a buffer it cannot write answers `-EFAULT` and
/// consumes nothing: the edge of an `EPOLLET` registration is still
/// there for the call that brings a buffer.
#[test]
fn an_epoll_wait_that_faults_on_its_buffer_keeps_the_event() {
    let mut mb = ModuleBuilder::new();
    let e = Ep::import(&mut mb);
    let fds = mb.reserve(8);
    let ev = mb.data(&epoll_event(EPOLLIN | EPOLLET, 0x5EED));
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let ep = b.local(I64);
        e.watch_new_pipe(b, ep, fds, ev);
        e.feed(b, fds);
        let fail = |b: &mut FuncBuilder, code: i32| {
            b.if_(BlockType::Empty, |b| {
                b.i32(code).ret();
            });
        };
        // Out of range altogether, then a span whose tail is: both are
        // refused before anything is popped.
        e.wait_one(b, ep, BAD_PTR, 0);
        b.i64(EFAULT).eq64().eqz32();
        fail(b, 1);
        b.local_get(ep).i64(2 * 65536 - 12).i64(2).i64(-1);
        b.call(e.wait).i64(EFAULT).eq64().eqz32();
        fail(b, 2);
        e.wait_one(b, ep, e.evbuf as i64, 0);
        b.i64(1).eq64().eqz32();
        fail(b, 3);
        b.i32(e.evbuf as i32).load64(4).i64(0x5EED).eq64().eqz32();
        fail(b, 4);
        // Reported once: the edge is consumed now.
        e.wait_one(b, ep, e.evbuf as i64, 0);
        b.i64(0).eq64().eqz32();
    });
    mb.export("_start", main);
    exits_clean_at_1_and_4(&mb.build(), "epoll_wait into a bad buffer");
}

/// A waiter stays on the instance it blocked on (Linux's `fdget`): a
/// sibling sharing the fd table closes the epoll descriptor under a
/// parked `epoll_wait` and a pipe takes the number. The old instance's
/// event still wakes the waiter and is what it reports; the instance is
/// released when that call returns — the audit finds no epoll instance.
#[test]
fn a_parked_epoll_wait_survives_its_descriptor_being_closed_and_reused() {
    let mut mb = ModuleBuilder::new();
    let e = Ep::import(&mut mb);
    let fds = mb.reserve(8);
    let other = mb.reserve(8);
    let ev = mb.data(&epoll_event(EPOLLIN, 0xA1));
    let result = mb.reserve(8);
    let done = mb.reserve(4);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (ep, polls) = (b.local(I64), b.local(I32));
        e.watch_new_pipe(b, ep, fds, ev);
        e.thread(b, THREAD_SHARING_FDS, |b| {
            b.i32(result as i32);
            e.wait_one(b, ep, e.evbuf as i64, -1);
            b.store64(0);
            b.i32(done as i32).i32(1).store32(0);
        });
        // Virtual time passes only once nothing can run: the waiter is
        // parked by the time this returns.
        emit_sleep(b, e.nanosleep, e.ts, 0, 1_000_000);
        b.local_get(ep).call(e.close).drop_();
        b.i64(other as i64).call(e.pipe).drop_();
        let fail = |b: &mut FuncBuilder, code: i32| {
            b.if_(BlockType::Empty, |b| {
                b.i32(code).ret();
            });
        };
        // The number was reused.
        b.i32(other as i32).load32(0).extend_u();
        b.local_get(ep).eq64().eqz32();
        fail(b, 1);
        e.feed(b, fds);
        b.loop_(BlockType::Empty, |b| {
            b.i32(done as i32).load32(0).eqz32();
            b.if_(BlockType::Empty, |b| {
                emit_sleep(b, e.nanosleep, e.ts, 0, 1_000);
                b.local_get(polls).i32(1).add32().local_tee(polls);
                b.i32(20_000).lt_s32().br_if(1);
            });
        });
        b.i32(result as i32).load64(0).i64(1).eq64().eqz32();
        fail(b, 2);
        b.i32(e.evbuf as i32).load64(4).i64(0xA1).eq64().eqz32();
        fail(b, 3);
        for end in [0, 4] {
            for pair in [fds, other] {
                b.i32(pair as i32).load32(end).extend_u();
                b.call(e.close).drop_();
            }
        }
        b.i32(0);
    });
    mb.export("_start", main);
    exits_clean_at_1_and_4(&mb.build(), "epfd closed under a waiter");
}

/// The instance a blocked `epoll_wait` keeps belongs to that call. A
/// signal wakes the waiter (in this model the retry finds nothing and
/// parks again — signals do not interrupt `epoll_wait` — and the handler
/// runs when the call returns); the handler then blocks in `epoll_wait`
/// on a *second* instance, from inside its own frame. Each call reports
/// its own instance's event, and both instances are released at the end.
#[test]
fn a_handler_waiting_on_a_second_instance_does_not_inherit_the_first() {
    let mut mb = ModuleBuilder::new();
    let e = Ep::import(&mut mb);
    let sigaction = sys(&mut mb, "rt_sigaction", 4);
    let tgkill = sys(&mut mb, "tgkill", 3);
    let getpid = sys(&mut mb, "getpid", 0);
    let fds = mb.reserve(8);
    let other = mb.reserve(8);
    let ev1 = mb.data(&epoll_event(EPOLLIN, 0xA1));
    let ev2 = mb.data(&epoll_event(EPOLLIN, 0xB2));
    let ep2_at = mb.reserve(8);
    let hbuf = mb.reserve(12);
    let hres = mb.reserve(8);
    let act = mb.reserve(24);

    let handler_sig = mb.sig([I32], []);
    let dummy = mb.func(handler_sig, |_| {});
    let handler = mb.func(handler_sig, |b| {
        // hres = epoll_wait(ep2, hbuf, 1, -1): parks until pipe B is fed.
        b.i32(hres as i32);
        b.i32(ep2_at as i32).load64(0);
        b.i64(hbuf as i64).i64(1).i64(-1).call(e.wait);
        b.store64(0);
    });
    assert_eq!(mb.table_entries(&[dummy, dummy, handler]), 0);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (ep1, ep2, me) = (b.local(I64), b.local(I64), b.local(I64));
        e.watch_new_pipe(b, ep1, fds, ev1);
        e.watch_new_pipe(b, ep2, other, ev2);
        b.i32(ep2_at as i32).local_get(ep2).store64(0);
        // SIGUSR1 (10) → table index 2.
        b.i32(act as i32).i32(2).store32(0);
        b.i64(10).i64(act as i64).i64(0).i64(8);
        b.call(sigaction).drop_();
        b.call(getpid).local_set(me);
        e.thread(b, THREAD_SHARING_FDS, |b| {
            // Each sleep ends once everything else is parked.
            emit_sleep(b, e.nanosleep, e.ts, 0, 1_000_000);
            b.local_get(me).local_get(me).i64(10).call(tgkill).drop_();
            emit_sleep(b, e.nanosleep, e.ts, 0, 1_000_000);
            e.feed(b, fds);
            emit_sleep(b, e.nanosleep, e.ts, 0, 1_000_000);
            e.feed(b, other);
        });
        let fail = |b: &mut FuncBuilder, code: i32| {
            b.if_(BlockType::Empty, |b| {
                b.i32(code).ret();
            });
        };
        e.wait_one(b, ep1, e.evbuf as i64, -1);
        b.i64(1).eq64().eqz32();
        fail(b, 1);
        b.i32(e.evbuf as i32).load64(4).i64(0xA1).eq64().eqz32();
        fail(b, 2);
        // The handler runs at the next safepoint: this loop's header.
        b.loop_(BlockType::Empty, |b| {
            b.i32(hres as i32).load32(0).eqz32().br_if(0);
        });
        b.i32(hres as i32).load64(0).i64(1).eq64().eqz32();
        fail(b, 3);
        b.i32(hbuf as i32).load64(4).i64(0xB2).eq64().eqz32();
        fail(b, 4);
        for fd in [ep1, ep2] {
            b.local_get(fd).call(e.close).drop_();
        }
        for end in [0, 4] {
            for pair in [fds, other] {
                b.i32(pair as i32).load32(end).extend_u();
                b.call(e.close).drop_();
            }
        }
        b.i32(0);
    });
    mb.export("_start", main);
    exits_clean_at_1_and_4(&mb.build(), "handler waits on a second instance");
}

/// A task whose process exits while it is parked in `epoll_wait` never
/// makes the retry that would give the kept instance back: retiring the
/// task does. Its descriptors close at its death; the instance must not
/// outlive the run.
#[test]
fn a_task_that_dies_in_epoll_wait_gives_its_instance_back() {
    let mut mb = ModuleBuilder::new();
    let e = Ep::import(&mut mb);
    let exit_group = sys(&mut mb, "exit_group", 1);
    let fds = mb.reserve(8);
    let ev = mb.data(&epoll_event(EPOLLIN, 1));
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let ep = b.local(I64);
        e.watch_new_pipe(b, ep, fds, ev);
        e.thread(b, THREAD_SHARING_FDS, |b| {
            emit_sleep(b, e.nanosleep, e.ts, 0, 1_000_000);
            b.i64(0).call(exit_group).drop_();
        });
        e.wait_one(b, ep, e.evbuf as i64, -1);
        b.drop_().i32(7);
    });
    mb.export("_start", main);
    exits_clean_at_1_and_4(&mb.build(), "exit_group under a parked epoll_wait");
}
