//! Interpreter fast-path bench: the reference stack loop vs. the tier-2
//! register IR on a compute-heavy workload (the lua interpreter-style app
//! at a scale where execution, not module preparation, dominates). The
//! stack row keeps the name `unfused` it has had since PR 7 so the
//! `BENCH_PR<N>.json` trajectory lines up.
//!
//! The group was renamed from `interp_lua100` to `interp_hot` (PR 8) to
//! match DESIGN.md's experiment index; trajectory diffs across PRs line
//! up on the binary name either way.

use bench::harness;
use wali::runner::{TaskEnd, WaliRunner};
use wasm::SafepointScheme;

fn main() {
    let app = apps::lua_sim(100);
    let module = bench::reload(&app.module);
    let mut g = harness::group("interp_hot");
    for (name, regir) in [("unfused", false), ("regir", true)] {
        let run = || {
            let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
            runner.set_regir(regir);
            bench::seed_files(&runner);
            runner
                .register_program("/usr/bin/app", &module)
                .expect("register");
            runner.spawn("/usr/bin/app", &[], &[]).expect("spawn");
            let out = runner.run().expect("run");
            assert!(matches!(out.main_exit, Some(TaskEnd::Exited(0))));
            out
        };
        let (stack, reg) = run().dispatches();
        println!("{name:<8} dispatches: stack={stack} regir={reg}");
        g.bench_function(name, |b| {
            b.iter(&run);
        });
    }
    g.finish();
}
