//! Bench for Fig. 8: one workload across execution tiers.
//!
//! Two kinds of row, so that tiers are compared like with like (ROADMAP
//! 6b). `*/cold` is bytes → exit at scale 5: decode, link, instantiate,
//! run — what a first start of the program costs on that tier (the link
//! finds the module prepared from the second iteration on; a module this
//! process has never seen is `startup/*/first_seen` in
//! `benches/startup.rs`). `*/steady` has the module built, encoded and
//! decoded outside the timed closure on every tier and runs at scale 100,
//! so execution dominates: the ratio the paper's Fig. 8 is about. All
//! steady rows read the same seeded script.
//!
//! The unsuffixed rows are the pre-PR-20 ones. `fig8_lua/wali` builds,
//! encodes, decodes and links inside its closure while `emulator` hoists
//! its module — not comparable, which is why the split exists; the key is
//! kept for one more trajectory file so the series has an overlap, then
//! goes.

use bench::harness;
use virt::{Container, EmuRunner, Image};
use wasm::{Module, SafepointScheme};

const COLD_SCALE: u32 = 5;
const STEADY_SCALE: u32 = 100;

fn run_wali(module: &Module) {
    bench::run_module(module, SafepointScheme::LoopHeaders, |_| {});
}

fn run_emulator(module: &Module) {
    let mut e = EmuRunner::new(module).unwrap();
    bench::seed_kernel(&e.kernel());
    let _ = e.run(&[]).unwrap();
}

fn main() {
    let mut g = harness::group("fig8_lua");
    g.bench_function("native", |b| {
        b.iter(|| {
            let mut k = vkernel::Kernel::new();
            let tid = k.spawn_process();
            apps::native::lua_native(&mut k, tid, COLD_SCALE);
        })
    });
    g.bench_function("wali", |b| {
        b.iter(|| {
            let app = apps::lua_sim(COLD_SCALE);
            let _ = bench::run_on_wali(&app, SafepointScheme::LoopHeaders);
        })
    });
    g.bench_function("container", |b| {
        let image = Image::typical();
        b.iter(|| {
            let mut k = vkernel::Kernel::new();
            let cont = Container::start(&mut k, &image, "bench");
            apps::native::lua_native(&mut k, cont.tid, COLD_SCALE);
        })
    });
    g.bench_function("emulator", |b| {
        let module = bench::reload(&apps::lua_sim(COLD_SCALE).module);
        b.iter(|| run_emulator(&module))
    });

    let bytes = wasm::encode::encode(&apps::lua_sim(COLD_SCALE).module);
    g.bench_function("wali/cold", |b| {
        b.iter(|| run_wali(&wasm::decode::decode(&bytes).expect("decode")))
    });
    g.bench_function("emulator/cold", |b| {
        b.iter(|| run_emulator(&wasm::decode::decode(&bytes).expect("decode")))
    });

    let module = bench::reload(&apps::lua_sim(STEADY_SCALE).module);
    g.bench_function("native/steady", |b| {
        b.iter(|| {
            let kernel = wali::new_kernel_ref(vkernel::Kernel::new());
            bench::seed_kernel(&kernel);
            let mut k = kernel.lock_ok();
            let tid = k.spawn_process();
            apps::native::lua_native(&mut k, tid, STEADY_SCALE);
        })
    });
    g.bench_function("wali/steady", |b| b.iter(|| run_wali(&module)));
    g.bench_function("emulator/steady", |b| b.iter(|| run_emulator(&module)));
    g.finish();
}
