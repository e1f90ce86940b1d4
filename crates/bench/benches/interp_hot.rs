//! Interpreter fast-path bench: the reference stack loop vs. the tier-2
//! register IR on a compute-heavy workload (the lua interpreter-style app
//! at a scale where execution, not module preparation, dominates). The
//! stack row keeps the name `unfused` it has had since PR 7 so the
//! `BENCH_PR<N>.json` trajectory lines up.
//!
//! The group was renamed from `interp_lua100` to `interp_hot` (PR 8) to
//! match DESIGN.md's experiment index; trajectory diffs across PRs line
//! up on the binary name either way.
//!
//! Every row also reports its wall time per dispatch
//! (`<row>/ns_per_dispatch`, median ÷ `dispatches()`): the dispatch
//! *count* of a row only moves when lowering changes, so this is the
//! quantity a change to the loop itself shows up in. It is an upper
//! bound — the runner's start-up and the guest's syscalls are in the
//! numerator too. The `calls` row is a recursive `fib` on the register
//! tier: two calls, two returns and seven other ops per invocation, so
//! call/return cost is on the trajectory next to straight-line dispatch.

use bench::harness;
use wali::runner::RunOutcome;
use wasm::build::ModuleBuilder;
use wasm::instr::BlockType;
use wasm::types::ValType::I32;
use wasm::{Module, SafepointScheme};

/// `_start` computes `fib(N)` by naive recursion and exits 0 if it is
/// `FIB_N`.
fn fib_guest() -> Module {
    const N: i32 = 20;
    const FIB_N: i32 = 6765;
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([I32], [I32]);
    let fib = mb.declare(sig);
    mb.define(fib, |b| {
        b.local_get(0).i32(2).lt_s32();
        b.if_(BlockType::Empty, |b| {
            b.local_get(0).ret();
        });
        b.local_get(0).i32(1).sub32().call(fib);
        b.local_get(0).i32(2).sub32().call(fib);
        b.add32();
    });
    let sig = mb.sig([], [I32]);
    let start = mb.func(sig, |b| {
        b.i32(N).call(fib).i32(FIB_N).ne32();
    });
    mb.export("_start", start);
    mb.build()
}

fn run(module: &Module, regir: bool) -> RunOutcome {
    bench::run_module(module, SafepointScheme::LoopHeaders, |r| r.set_regir(regir))
}

fn main() {
    let lua = bench::reload(&apps::lua_sim(100).module);
    let fib = bench::reload(&fib_guest());
    let mut g = harness::group("interp_hot");
    let mut dispatches = Vec::new();
    for (name, module, regir) in [
        ("unfused", &lua, false),
        ("regir", &lua, true),
        ("calls", &fib, true),
    ] {
        let (stack, reg) = run(module, regir).dispatches();
        println!("{name:<8} dispatches: stack={stack} regir={reg}");
        dispatches.push(stack + reg);
        g.bench_function(name, |b| {
            b.iter(|| run(module, regir));
        });
    }
    let rows: Vec<(String, f64)> = g
        .results()
        .map(|(name, stats)| (name.to_string(), stats.median_ns))
        .collect();
    for ((name, median_ns), n) in rows.iter().zip(dispatches) {
        harness::report_value(
            "interp_hot",
            &format!("{name}/ns_per_dispatch"),
            median_ns / n as f64,
        );
    }
    g.finish();
}
