//! Batched-syscall ring bench: per-op boundary-crossing cost vs. batch
//! size.
//!
//! A syscall-dense guest performs `TOTAL` one-byte `pread`s of a small
//! file. The `sync` row issues them as individual `SYS_pread64` calls —
//! one host crossing each. The `ring/batch=N` rows issue the same reads
//! as PREAD SQEs on an N-entry `wali_ring_enter` ring, so N operations
//! share one crossing. `batch=1` pays the ring bookkeeping with none of
//! the amortization (it should sit at or above `sync`); `batch=32` and
//! `batch=256` show the crossing cost amortizing away — the per-op
//! `report_value` rows below are the figures quoted in `DESIGN.md` and
//! `BENCH_PR10.json`.

use bench::harness;
use wali::guest::{sys, Sysno};
use wali::runner::WaliRunner;
use wali_abi::ring::op;
use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

/// Reads per guest run — every config issues exactly this many.
const TOTAL: u32 = 4096;

/// The syscall-dense guest. `batch == 0` issues `TOTAL` plain `pread64`
/// calls; otherwise the reads go through a `batch`-entry ring, one
/// `wali_ring_enter` per full batch.
fn pread_program(batch: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, Sysno::open);
    let write = sys(&mut mb, Sysno::write);
    let pread = sys(&mut mb, Sysno::pread64);
    let ring_enter = sys(&mut mb, Sysno::wali_ring_enter);
    mb.memory(4, Some(64));
    let path = mb.c_str("/tmp/ring_bench.dat");
    let data = mb.c_str("ringbench");
    let buf = mb.reserve(8);
    let ring = mb.reserve(32 + 256 * 32 + 256 * 16);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let i = b.local(I32);
        b.i64(path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(fd);
        b.local_get(fd).i64(data as i64).i64(8).call(write).drop_();

        if batch == 0 {
            b.loop_(BlockType::Empty, |b| {
                b.local_get(fd)
                    .i64(buf as i64)
                    .i64(1)
                    .i64(0)
                    .call(pread)
                    .drop_();
                b.local_get(i)
                    .i32(1)
                    .add32()
                    .local_tee(i)
                    .i32(TOTAL as i32)
                    .lt_s32()
                    .br_if(0);
            });
        } else {
            // The SQEs never change (same fd/buf/off every round), so
            // they are written once; each round only rewinds the ring
            // indexes and crosses the boundary a single time.
            b.i32(ring as i32)
                .i64(batch as i64 | ((batch as i64) << 32))
                .store64(0);
            b.i32(ring as i32).i64(0).store64(24);
            for s in 0..batch {
                let sqe = ring + 32 + 32 * s;
                b.i32(sqe as i32).i32(op::PREAD as i32).store32(0);
                b.i32(sqe as i32).local_get(fd).wrap().store32(4);
                b.i32(sqe as i32).i32(buf as i32).store32(8);
                b.i32(sqe as i32).i32(1).store32(12);
                b.i32(sqe as i32).i64(0).store64(16);
                b.i32(sqe as i32).i64(s as i64).store64(24);
            }
            b.loop_(BlockType::Empty, |b| {
                b.i32(ring as i32).i64((batch as i64) << 32).store64(8);
                b.i32(ring as i32).i64(0).store64(16);
                b.i64(ring as i64)
                    .i64(batch as i64)
                    .i64(batch as i64)
                    .i64(0)
                    .call(ring_enter)
                    .drop_();
                b.local_get(i)
                    .i32(batch as i32)
                    .add32()
                    .local_tee(i)
                    .i32(TOTAL as i32)
                    .lt_s32()
                    .br_if(0);
            });
        }
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

fn run(module: &Module) {
    let mut runner = WaliRunner::new_default();
    runner
        .register_program("/usr/bin/ringbench", module)
        .expect("register");
    runner.spawn("/usr/bin/ringbench", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert_eq!(out.exit_code(), Some(0));
}

fn main() {
    let mut g = harness::group("ring_enter");
    let mut medians: Vec<(String, f64)> = Vec::new();
    let configs: [(String, u32); 4] = [
        ("pread/sync".into(), 0),
        ("pread/ring/batch=1".into(), 1),
        ("pread/ring/batch=32".into(), 32),
        ("pread/ring/batch=256".into(), 256),
    ];
    for (name, batch) in &configs {
        let module = bench::reload(&pread_program(*batch));
        g.bench_function(name, |b| b.iter(|| run(&module)));
        let (_, stats) = g.results().last().expect("row just recorded");
        medians.push((name.clone(), stats.median_ns));
    }
    g.finish();

    // Per-op cost: whole-run median over the fixed op count. The run
    // includes spawn/teardown, identical across configs, so the deltas
    // are pure boundary-crossing amortization.
    for (name, median) in &medians {
        harness::report_value(
            "ring_enter",
            &format!("{name}/per_op"),
            median / TOTAL as f64,
        );
    }
}
