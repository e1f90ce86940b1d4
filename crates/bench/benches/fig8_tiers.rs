//! Bench for Fig. 8: one workload across execution tiers.

use bench::harness;
use virt::{Container, EmuRunner, Image};
use wasm::SafepointScheme;

fn main() {
    let mut g = harness::group("fig8_lua");
    g.bench_function("native", |b| {
        b.iter(|| {
            let mut k = vkernel::Kernel::new();
            let tid = k.spawn_process();
            apps::native::lua_native(&mut k, tid, 5);
        })
    });
    // This row links inside the timed closure (ROADMAP 6b), and since the
    // prepared-module table every iteration after the first finds its
    // module already prepared: the row dropped with PR 19 for that reason,
    // not because anything it runs got faster. `startup/*/first_seen`
    // (`benches/startup.rs`) are the cold numbers.
    g.bench_function("wali", |b| {
        b.iter(|| {
            let app = apps::lua_sim(5);
            let _ = bench::run_on_wali(&app, SafepointScheme::LoopHeaders);
        })
    });
    g.bench_function("container", |b| {
        let image = Image::typical();
        b.iter(|| {
            let mut k = vkernel::Kernel::new();
            let cont = Container::start(&mut k, &image, "bench");
            apps::native::lua_native(&mut k, cont.tid, 5);
        })
    });
    g.bench_function("emulator", |b| {
        let module = bench::reload(&apps::lua_sim(5).module);
        b.iter(|| {
            let mut e = EmuRunner::new(&module).unwrap();
            bench::seed_kernel(&e.kernel());
            let _ = e.run(&[]).unwrap();
        })
    });
    g.finish();
}
