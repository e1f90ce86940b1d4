//! What a process costs: the allocations of one `fork → exit → wait4`
//! cycle are counted, exactly, and do not depend on how many came before.
//!
//! `fork` shares what the child is born equal to and copies on the first
//! write, at every layer (DESIGN.md "What a process costs"): the kernel
//! task is three allocations (its descriptor slots, their lock, one
//! block), the engine side five (page-pointer table, memory, the boxed
//! slot, two stacks sized for their next push), the context one. The
//! counting allocator of `alloc_free_crossing.rs` watches `run()` — here
//! with bytes as well — at three run lengths: the per-job cost is the
//! slope, and it is the same between 256 and 1 024 jobs as between 1 024
//! and 4 096. What is left over is the run's own lists doubling (task
//! ends, console, page indexes), a handful per run.
//!
//! The second half checks the seams: state written after a `fork` stays
//! on the side that wrote it.
//!
//! The counters are per thread and the counted runs pin one worker, so a
//! `cargo test` sibling or a `WALI_WORKERS` environment changes nothing.

use wasm::build::{FuncBuilder, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use wali::guest::{sys, Sysno};
use wali::runner::WaliRunner;
use wali::testkit::{allocated, roundtrip, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` this thread requested during `run()`.
fn cost_of_run(module: &Module, regir: bool) -> (u64, u64) {
    let mut runner = WaliRunner::new_default();
    runner.set_workers(1);
    runner.set_regir(regir);
    runner
        .register_program("/usr/bin/app", &roundtrip(module))
        .unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let before = allocated();
    let out = runner.run().expect("run");
    let cost = (allocated().0 - before.0, allocated().1 - before.1);
    assert_eq!(out.exit_code(), Some(0));
    assert!(runner.leak_audit().is_clean());
    cost
}

/// Allocations a run's own lists may add on top of its per-unit cost
/// between two run lengths a factor of four apart: each list doubles
/// twice, and there are fewer than sixteen of them.
const LIST_GROWTH: u64 = 32;

/// `(allocations, bytes)` one more unit of `guest(n)` costs — the same
/// from 256 to 1 024 units as from 1 024 to 4 096, or this fails.
fn cost_per_unit(what: &str, regir: bool, guest: &dyn Fn(u32) -> Module) -> (u64, u64) {
    // The first run of a thread also allocates the 64 KiB page buffers
    // every later one recycles (`wasm::mem`'s pool).
    cost_of_run(&guest(2), regir);
    let [a, b, c] = [256, 1024, 4096].map(|n| cost_of_run(&guest(n), regir));
    let slope = |(a0, b0): (u64, u64), (a1, b1): (u64, u64), units: u64| {
        let (allocs, bytes) = (a1 - a0, b1 - b0);
        assert!(
            allocs % units <= LIST_GROWTH,
            "{what} regir={regir}: {allocs} allocations over {units} more units"
        );
        (allocs / units, bytes / units)
    };
    let (early, late) = (slope(a, b, 768), slope(b, c, 3072));
    assert_eq!(
        early.0, late.0,
        "{what} regir={regir}: unit 4 000 allocates what unit 500 did"
    );
    // The lists' doublings are bytes too: a few per unit, in either
    // direction, depending on where a doubling falls.
    assert!(
        early.1.abs_diff(late.1) <= 64,
        "{what} regir={regir}: {} then {} bytes per unit",
        early.1,
        late.1
    );
    (late.0, early.1.max(late.1))
}

/// `n` × { fork; the child exits; the parent reaps it }, on a memory of
/// `max` pages at most.
fn fork_guest(n: u32, max: Option<u32>) -> Module {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, Sysno::fork);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit_group);
    mb.memory(1, max);
    let status = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        wali::testkit::fork_reap_loop(b, fork, wait4, status, n, |b, _| {
            b.i64(0).call(exit).drop_();
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

/// `n` × { `clone` a thread; it exits }: the thread runs before its
/// creator does again, so each is gone before the next is made.
fn thread_guest(n: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let clone = sys(&mut mb, Sysno::clone);
    let exit = sys(&mut mb, Sysno::exit);
    mb.shared_memory(1, 2);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let i = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            let flags = wali_abi::flags::CLONE_PTHREAD as i64;
            b.i64(flags).i64(0).i64(0).i64(0).i64(0).call(clone);
            b.i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                b.i64(0).call(exit).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(n as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

#[test]
fn a_shell_job_costs_a_fixed_dozen_allocations() {
    for regir in [true, false] {
        let (allocs, bytes) = cost_per_unit("bash job", regir, &|n| apps::bash_sim(n).module);
        // fork: 3 kernel (fd slots, their lock, the shared block), 3
        // memory (page-pointer table, owner list, `Memory`), the boxed
        // slot, 2 stacks, the context's address space; the job's pipe: 2
        // descriptions, the pipe, its buffer. exit and wait4: none.
        assert_eq!(allocs, 14, "regir={regir}");
        // 41 allocations and 10.6 KB before the tables, handler copies
        // and counters were shared until written.
        assert!(
            allocs <= 20 && bytes <= 4096,
            "regir={regir}: {bytes} bytes"
        );
    }
}

#[test]
fn a_fork_pays_for_its_reservation_with_one_table_and_nothing_else() {
    for regir in [true, false] {
        let small = cost_per_unit("fork/64", regir, &|n| fork_guest(n, Some(64)));
        let large = cost_per_unit("fork/1024", regir, &|n| fork_guest(n, None));
        assert_eq!(small.0, large.0, "regir={regir}: same allocations");
        // Two pointers per reservable page, in the one table.
        let table = |pages: u64| pages * 2 * std::mem::size_of::<usize>() as u64;
        let grew = large.1 - small.1;
        assert!(
            grew.abs_diff(table(1024) - table(64)) <= 64,
            "regir={regir}: {} vs {} bytes per fork",
            small.1,
            large.1
        );
        // No pipe: ten of the shell job's fourteen.
        assert_eq!(small.0, 10, "regir={regir}");
    }
}

#[test]
fn a_thread_costs_its_slot_its_stacks_and_its_block() {
    for regir in [true, false] {
        // The memory, the fd table, the address space and the function
        // table are shared: the boxed slot, two stacks, the kernel block.
        // (A thread that exits stays in the task table until its group
        // is reaped, which adds a table page per 32.)
        cost_of_run(&thread_guest(2), regir);
        let [a, b] = [256, 1024].map(|n| cost_of_run(&thread_guest(n), regir));
        let (allocs, bytes) = (b.0 - a.0, b.1 - a.1);
        assert_eq!(allocs / 768, 4, "regir={regir}: {allocs} for 768 threads");
        assert!(
            allocs % 768 <= 768 / 32 + LIST_GROWTH,
            "regir={regir}: {allocs}"
        );
        assert!(
            bytes / 768 <= 1536,
            "regir={regir}: {bytes} for 768 threads"
        );
    }
}

// --- The copy-on-write seams ---------------------------------------------

const SIGUSR1: i64 = 10;
const SIGUSR2: i64 = 12;
/// Where the handlers leave their mark.
const MARK: u32 = 512;

/// Parent and child each change their handlers, working directory and
/// mappings *after* the fork — in an order two pipes enforce — and each
/// then checks that it still sees its own and none of the other's. Exit
/// code 0 from both means every seam held.
fn seams_guest() -> Module {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, Sysno::fork);
    let pipe = sys(&mut mb, Sysno::pipe);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let wait4 = sys(&mut mb, Sysno::wait4);
    let exit = sys(&mut mb, Sysno::exit_group);
    let sigaction = sys(&mut mb, Sysno::rt_sigaction);
    let kill = sys(&mut mb, Sysno::kill);
    let getpid = sys(&mut mb, Sysno::getpid);
    let chdir = sys(&mut mb, Sysno::chdir);
    let getcwd = sys(&mut mb, Sysno::getcwd);
    let mmap = sys(&mut mb, Sysno::mmap);
    mb.memory(2, Some(64));

    // A handler stores its table index at MARK (0 and 1 are taken: as
    // `rt_sigaction` handler values they mean SIG_DFL and SIG_IGN).
    let hsig = mb.sig([I32], []);
    let handlers: Vec<_> = (0..5)
        .map(|id| {
            mb.func(hsig, move |b| {
                b.i32(MARK as i32).i32(id).store32(0);
            })
        })
        .collect();
    mb.table_entries(&handlers);

    let act = mb.reserve(24);
    let old = mb.reserve(24);
    let to_child = mb.reserve(8);
    let to_parent = mb.reserve(8);
    let cwd = mb.reserve(64);
    let word = mb.reserve(8);
    let status = mb.reserve(8);
    let tmp = mb.c_str("/tmp");
    let usr = mb.c_str("/usr");

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let (ok, mine) = (b.local(I32), b.local(I64));
        // ok &= (top of stack, an i32 truth value)
        let check = |b: &mut FuncBuilder| {
            b.local_get(ok).and32().local_set(ok);
        };
        let install = |b: &mut FuncBuilder, signo: i64, handler: i32| {
            b.i32(act as i32).i32(handler).store32(0);
            b.i64(signo).i64(act as i64).i64(0).i64(8);
            b.call(sigaction).drop_();
        };
        // The table index registered for `signo`, as an i32.
        let installed = |b: &mut FuncBuilder, signo: i64| {
            b.i64(signo).i64(0).i64(old as i64).i64(8);
            b.call(sigaction).drop_();
            b.i32(old as i32).load32(0);
        };
        // Raise `signo` at oneself and read the handler's mark.
        let raised = |b: &mut FuncBuilder, signo: i64| {
            b.i32(MARK as i32).i32(0).store32(0);
            b.call(getpid).i64(signo).call(kill).drop_();
            b.i32(MARK as i32).load32(0);
        };
        // The second byte of the working directory: `t`, `u`, or NUL.
        let cwd_letter = |b: &mut FuncBuilder| {
            b.i64(cwd as i64).i64(64).call(getcwd).drop_();
            b.i32(cwd as i32).load8u(1);
        };
        let map_a_page = |b: &mut FuncBuilder| {
            // PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANONYMOUS
            b.i64(0)
                .i64(4096)
                .i64(3)
                .i64(0x22)
                .i64(-1)
                .i64(0)
                .call(mmap);
        };
        let fd = |b: &mut FuncBuilder, pair: u32, end: u32| {
            b.i32(pair as i32 + 4 * end as i32).load32(0).extend_u();
        };

        b.i32(1).local_set(ok);
        install(b, SIGUSR1, 2);
        b.i64(to_child as i64).call(pipe).drop_();
        b.i64(to_parent as i64).call(pipe).drop_();
        b.call(fork).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // Child: its own handler, directory and mapping …
            install(b, SIGUSR2, 3);
            b.i64(tmp as i64).call(chdir).drop_();
            map_a_page(b);
            b.local_set(mine);
            b.i32(word as i32).local_get(mine).store64(0);
            fd(b, to_parent, 1);
            b.i64(word as i64).i64(8).call(write).drop_();
            // … then, once the parent has made its changes:
            fd(b, to_child, 0);
            b.i64(word as i64).i64(1).call(read).drop_();
            installed(b, SIGUSR1);
            b.i32(2).eq32();
            check(b);
            raised(b, SIGUSR1);
            b.i32(2).eq32();
            check(b);
            raised(b, SIGUSR2);
            b.i32(3).eq32();
            check(b);
            cwd_letter(b);
            b.i32('t' as i32).eq32();
            check(b);
            b.local_get(ok).eqz32().extend_u().call(exit).drop_();
        });
        // Parent: the child's changes are made, and none is visible.
        fd(b, to_parent, 0);
        b.i64(word as i64).i64(8).call(read).drop_();
        installed(b, SIGUSR2);
        b.eqz32();
        check(b);
        cwd_letter(b);
        b.eqz32();
        check(b);
        // Its own, after the fork: a mapping lands where the child's did
        // — two pools, not one shared.
        install(b, SIGUSR1, 4);
        b.i64(usr as i64).call(chdir).drop_();
        map_a_page(b);
        b.i32(word as i32).load64(0).eq64();
        check(b);
        fd(b, to_child, 1);
        b.i64(word as i64).i64(1).call(write).drop_();
        raised(b, SIGUSR1);
        b.i32(4).eq32();
        check(b);
        b.i64(-1)
            .i64(status as i64)
            .i64(0)
            .i64(0)
            .call(wait4)
            .drop_();
        b.i32(status as i32).load32(0).eqz32();
        check(b);
        b.local_get(ok).eqz32();
    });
    mb.export("_start", main);
    mb.build()
}

#[test]
fn what_either_side_writes_after_a_fork_stays_on_its_side() {
    let module = roundtrip(&seams_guest());
    for workers in [1, 4] {
        for regir in [true, false] {
            let mut runner = WaliRunner::new_default();
            runner.set_workers(workers);
            runner.set_regir(regir);
            runner.register_program("/usr/bin/app", &module).unwrap();
            runner.spawn("/usr/bin/app", &[], &[]).unwrap();
            let out = runner.run().expect("run");
            assert_eq!(
                out.exit_code(),
                Some(0),
                "workers={workers} regir={regir}: the parent saw the child's state, \
                 lost its own, or the child did: {:?}",
                out.ends
            );
            assert_eq!(out.ends.len(), 2);
            assert!(runner.leak_audit().is_clean());
        }
    }
}
