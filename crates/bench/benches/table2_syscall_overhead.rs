//! Bench for Table 2: what one WALI crossing costs, per syscall.
//!
//! Each row is a differential, the way `examples/wali_bench` prices its
//! `wali.sys.*` probes, so the two instruments report one number per
//! quantity: a guest runs the call `ITERS` times in a counted loop, the
//! same guest with the call left out is its base, and
//! `(probe − base) ÷ ITERS` is the call — interpreter dispatch of the
//! call, host-call boundary, registry wrapper and kernel model, with the
//! loop, the start-up and the exit cancelled. `read` and `write` rewind
//! the file first, so their base is the `lseek` loop. (Until PR 21 the
//! rows timed `bench::call_sys` in a host loop, which charged a name
//! lookup and the loop itself to the syscall: `getpid` read 112.7 ns
//! here against 48.5 there. DESIGN.md "Retired baselines" keeps those.)

use std::time::Instant;

use bench::harness;
use wali::guest::{sys, Sysno};
use wali::WaliRunner;
use wasm::build::{FuncBuilder, FuncId, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::{Module, SafepointScheme};

/// Rounds of every guest's loop.
const ITERS: u32 = 20_000;
/// Probe/base pairs each row takes its median over.
const PAIRS: usize = 15;
const IO_BYTES: i64 = 64;

/// The loop bodies.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    Empty,
    Getpid,
    Lseek,
    /// `lseek` + `read`.
    Read,
    /// `lseek` + `write`.
    Write,
    Fstat,
    RtSigprocmask,
    /// `mmap` of one anonymous page + `munmap`.
    MmapMunmap,
}

/// Opens a 64-byte file, then runs `body` `ITERS` times.
fn guest(body: Body) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, Sysno::open);
    let getpid = sys(&mut mb, Sysno::getpid);
    let lseek = sys(&mut mb, Sysno::lseek);
    let read = sys(&mut mb, Sysno::read);
    let write = sys(&mut mb, Sysno::write);
    let fstat = sys(&mut mb, Sysno::fstat);
    let sigprocmask = sys(&mut mb, Sysno::rt_sigprocmask);
    let mmap = sys(&mut mb, Sysno::mmap);
    let munmap = sys(&mut mb, Sysno::munmap);
    mb.memory(4, Some(64));
    let path = mb.c_str("/tmp/table2.dat");
    let buf = mb.data(&[b'x'; IO_BYTES as usize]);
    let scratch = mb.reserve(256);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let i = b.local(I32);
        let addr = b.local(I64);
        // O_CREAT | O_RDWR
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(fd);
        let rw = |b: &mut FuncBuilder, call: FuncId| {
            b.local_get(fd).i64(0).i64(0).call(lseek).drop_();
            b.local_get(fd)
                .i64(buf as i64)
                .i64(IO_BYTES)
                .call(call)
                .drop_();
        };
        rw(b, write);
        b.loop_(BlockType::Empty, |b| {
            match body {
                Body::Empty => {}
                Body::Getpid => {
                    b.call(getpid).drop_();
                }
                Body::Lseek => {
                    b.local_get(fd).i64(0).i64(0).call(lseek).drop_();
                }
                Body::Read => rw(b, read),
                Body::Write => rw(b, write),
                Body::Fstat => {
                    b.local_get(fd).i64(scratch as i64).call(fstat).drop_();
                }
                Body::RtSigprocmask => {
                    b.i64(0)
                        .i64(0)
                        .i64(scratch as i64)
                        .i64(8)
                        .call(sigprocmask)
                        .drop_();
                }
                Body::MmapMunmap => {
                    b.i64(0)
                        .i64(4096)
                        .i64(3)
                        .i64(0x22)
                        .i64(-1)
                        .i64(0)
                        .call(mmap)
                        .local_set(addr);
                    b.local_get(addr).i64(4096).call(munmap).drop_();
                }
            }
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(ITERS as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    bench::reload(&mb.build())
}

/// Wall ns of `run()` for one guest.
fn time_run(module: &Module) -> f64 {
    let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
    runner.set_workers(1);
    runner.register_program("/usr/bin/probe", module).unwrap();
    runner.spawn("/usr/bin/probe", &[], &[]).unwrap();
    let t0 = Instant::now();
    let out = runner.run().expect("run");
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(out.exit_code(), Some(0));
    ns
}

/// Median over [`PAIRS`] back-to-back pairs of `(probe − base) ÷ ITERS`.
fn differential(probe: Body, base: Body) -> f64 {
    let (probe, base) = (guest(probe), guest(base));
    let mut per_call: Vec<f64> = (0..PAIRS)
        .map(|_| (time_run(&probe) - time_run(&base)) / ITERS as f64)
        .collect();
    per_call.sort_by(|a, b| a.total_cmp(b));
    per_call[PAIRS / 2]
}

fn main() {
    // Whatever the first run of a process pays once (the import table,
    // the prepared image, page buffers) is paid here.
    time_run(&guest(Body::Empty));
    for (name, probe, base) in [
        ("getpid", Body::Getpid, Body::Empty),
        ("lseek", Body::Lseek, Body::Empty),
        ("read", Body::Read, Body::Lseek),
        ("write", Body::Write, Body::Lseek),
        ("fstat", Body::Fstat, Body::Empty),
        ("rt_sigprocmask", Body::RtSigprocmask, Body::Empty),
        ("mmap_munmap", Body::MmapMunmap, Body::Empty),
    ] {
        harness::report_value("table2", name, differential(probe, base));
    }
}
