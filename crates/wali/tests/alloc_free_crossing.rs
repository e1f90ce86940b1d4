//! A non-blocking syscall crossing allocates nothing.
//!
//! The guest makes `n` rounds of {`getpid`, `lseek`, `write`, `lseek`,
//! `read`, `fstat`, `rt_sigprocmask`} on one file. A counting global
//! allocator watches `run()`: the count may depend on start-up and
//! teardown, but not on `n` — on either dispatch tier.
//!
//! The same allocator bounds start-up: once the process-wide import table
//! exists, building and dropping a runner costs the kernel model it owns,
//! not the specification.
//!
//! The counter is per thread (a `cargo test` sibling allocating on its
//! own thread must not be charged to this one) and the runs pin one
//! worker, so the whole run happens on the counting thread.

use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::prep::FuncDef;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use wali::guest::{sys, Sysno};
use wali::runner::WaliRunner;
use wali::testkit::{allocated, roundtrip, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const IO_BYTES: i64 = 64;

/// `rounds` × the seven Table-2 crossings on one file (rewound before
/// each transfer, so it stays `IO_BYTES` long).
fn dense_guest(rounds: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, Sysno::open);
    let getpid = sys(&mut mb, Sysno::getpid);
    let lseek = sys(&mut mb, Sysno::lseek);
    let write = sys(&mut mb, Sysno::write);
    let read = sys(&mut mb, Sysno::read);
    let fstat = sys(&mut mb, Sysno::fstat);
    let sigprocmask = sys(&mut mb, Sysno::rt_sigprocmask);
    mb.memory(4, Some(16));
    let path = mb.c_str("/tmp/dense.dat");
    let src = mb.data(&[b'x'; IO_BYTES as usize]);
    let dst = mb.reserve(IO_BYTES as u32);
    let stat = mb.reserve(256);
    let oldset = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let i = b.local(I32);
        // O_CREAT | O_RDWR
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(fd);
        b.loop_(BlockType::Empty, |b| {
            b.call(getpid).drop_();
            b.local_get(fd).i64(0).i64(0).call(lseek).drop_();
            b.local_get(fd)
                .i64(src as i64)
                .i64(IO_BYTES)
                .call(write)
                .drop_();
            b.local_get(fd).i64(0).i64(0).call(lseek).drop_();
            b.local_get(fd)
                .i64(dst as i64)
                .i64(IO_BYTES)
                .call(read)
                .drop_();
            b.local_get(fd).i64(stat as i64).call(fstat).drop_();
            b.i64(0)
                .i64(0)
                .i64(oldset as i64)
                .i64(8)
                .call(sigprocmask)
                .drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(rounds as i32)
                .lt_s32()
                .br_if(0);
        });
        // The last byte read back: the payload made the round trip.
        b.i32(dst as i32).load8u(IO_BYTES as u32 - 1);
    });
    mb.export("_start", main);
    mb.build()
}

/// Allocations made on this thread by `run()` of a `rounds`-round guest.
fn allocs_of_run(rounds: u32, regir: bool) -> u64 {
    let module = roundtrip(&dense_guest(rounds));
    let mut runner = WaliRunner::new_default();
    runner.set_workers(1);
    runner.set_regir(regir);
    runner.register_program("/usr/bin/app", &module).unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    let before = allocated().0;
    let out = runner.run().expect("run");
    let allocs = allocated().0 - before;
    assert_eq!(out.exit_code(), Some(b'x' as i32));
    assert_eq!(out.trace.counts.of(Sysno::read), rounds as u64);
    assert_eq!(out.trace.total_syscalls(), 7 * rounds as u64 + 1);
    allocs
}

#[test]
fn allocations_do_not_grow_with_the_number_of_crossings() {
    // The first run of a process also allocates the 64 KiB page buffers
    // every later one recycles (`wasm::mem`'s pool).
    allocs_of_run(1, true);
    for regir in [true, false] {
        let few = allocs_of_run(10_000, regir);
        let many = allocs_of_run(40_000, regir);
        assert_eq!(
            few,
            many,
            "regir={regir}: 210 000 more crossings made {} more allocations",
            many as i64 - few as i64
        );
    }
}

#[test]
fn a_second_runner_does_not_rebuild_the_import_table() {
    // Whichever runner comes first in this process builds the table and
    // the standard VFS layout.
    drop(WaliRunner::new_default());
    let before = allocated().0;
    drop(WaliRunner::new_default());
    let allocs = allocated().0 - before;
    // 29: the kernel's own tables plus one clone of the inode table.
    // Replaying the layout per runner made it 103; one registration per
    // spec entry would be > 1 000.
    assert!(allocs < 40, "a fresh runner made {allocs} allocations");
}

#[test]
fn a_second_start_of_a_seen_module_prepares_nothing() {
    let guest = dense_guest(3);
    let link = |module: &Module| {
        let mut runner = WaliRunner::new_default();
        let before = allocated().0;
        runner.register_program("/usr/bin/app", module).unwrap();
        let allocs = allocated().0 - before;
        (runner, allocs)
    };
    let (first, _) = link(&roundtrip(&guest));
    // An equal module, decoded again from the same bytes, on a fresh
    // runner: the image is found, only the imports are bound.
    let (second, allocs) = link(&roundtrip(&guest));
    assert!(allocs <= 20, "the second link made {allocs} allocations");
    let a = first.program("/usr/bin/app").expect("registered");
    let b = second.program("/usr/bin/app").expect("registered");
    assert!(std::sync::Arc::ptr_eq(&a.image, &b.image));
    let mut locals = 0;
    for (fa, fb) in a.funcs.iter().zip(&b.funcs) {
        if let (FuncDef::Local(fa), FuncDef::Local(fb)) = (fa, fb) {
            assert!(std::sync::Arc::ptr_eq(fa, fb));
            locals += 1;
        }
    }
    assert_eq!(locals, 1);
}
