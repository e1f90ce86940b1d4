//! Fork/spawn bench: process-spawn cost vs. reservation and touched
//! memory on the paged copy-on-write backing.
//!
//! A process declares a linear-memory reservation of `resv` pages,
//! dirties `touched` of them, then forks `FORKS` children that exit
//! immediately while the parent reaps each one. Fork shares `Arc`'d
//! pages, so its cost tracks `touched`, not `resv` (the retired flat
//! deep-copy backing was O(reservation) — DESIGN.md "Retired
//! baselines"; resident-page accounting is in its memory section).

use apps::progs::sys;
use bench::harness;
use wali::runner::WaliRunner;
use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

const FORKS: u32 = 4;

/// Builds the fork workload: touch `touched` pages of a `resv`-page
/// memory, then fork/reap `FORKS` children.
fn fork_program(resv: u32, touched: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(resv, Some(resv));
    let status = mb.reserve(8);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let pid = b.local(I64);
        let i = b.local(I32);
        // Dirty `touched` pages (one byte each, page-strided).
        b.loop_(BlockType::Empty, |b| {
            b.local_get(i).i32(65536).mul32().i32(1).store8(16);
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(touched.max(1) as i32)
                .lt_s32()
                .br_if(0);
        });
        // Spawn/reap loop: the paper's prefork shape at its bare minimum.
        let f = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            b.call(fork).local_set(pid);
            b.local_get(pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                b.i64(0).call(exit).drop_();
            });
            b.local_get(pid)
                .i64(status as i64)
                .i64(0)
                .i64(0)
                .call(wait4)
                .drop_();
            b.local_get(f)
                .i32(1)
                .add32()
                .local_tee(f)
                .i32(FORKS as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

fn run_forks(module: &Module) -> wali::RunOutcome {
    let mut runner = WaliRunner::new_default();
    runner
        .register_program("/usr/bin/forker", module)
        .expect("register");
    runner.spawn("/usr/bin/forker", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert_eq!(out.exit_code(), Some(0));
    out
}

fn main() {
    // Axis 1: reservation size at fixed dirty set (8 pages = 512 KiB).
    // COW fork latency must stay ~flat.
    let mut g = harness::group("fork_spawn");
    for &resv in &[64u32, 256, 1024] {
        let module = bench::reload(&fork_program(resv, 8));
        g.bench_function(&format!("cow/resv={resv}"), |b| {
            b.iter(|| run_forks(&module))
        });
    }
    // Axis 2: dirty-set size at fixed reservation — COW cost tracks this.
    for &touched in &[8u32, 64, 256] {
        let module = bench::reload(&fork_program(256, touched));
        g.bench_function(&format!("cow/touched={touched}"), |b| {
            b.iter(|| run_forks(&module))
        });
    }
    g.finish();

    // Residency: the footprint numbers Fig. 8 now reports.
    println!("\nresident vs. reserved (8 of `resv` pages touched, {FORKS} forks):");
    for &resv in &[64u32, 256, 1024] {
        let module = bench::reload(&fork_program(resv, 8));
        let resident = run_forks(&module).peak_resident_pages;
        println!(
            "  resv={resv:>4} pages: resident {resident:>4} pages ({} KiB)",
            resident as u64 * 64,
        );
    }
}
