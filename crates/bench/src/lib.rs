//! Shared measurement helpers for the per-table/per-figure report
//! binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation has one regenerating
//! entry point (see `DESIGN.md`'s experiment index):
//!
//! | Artifact | Binary |
//! |----------|--------|
//! | Fig. 2   | `fig2_syscall_profile` |
//! | Fig. 3   | `fig3_isa_similarity` |
//! | Table 1  | `table1_porting` |
//! | Table 2  | `table2_report` (+ `table2_syscall_overhead` bench) |
//! | Table 3  | `table3_report` (+ `table3_sigpoll` bench) |
//! | Fig. 7   | `fig7_breakdown` |
//! | Fig. 8   | `fig8_virtualization` |
//! | §5.1     | `wazi_demo` |

use std::time::{Duration, Instant};

use apps::App;

pub mod harness;
use wali::runner::WaliRunner;
use wali::RunOutcome;
use wasm::{Module, SafepointScheme};

/// Decodes an app module through the real binary pipeline.
pub fn reload(module: &Module) -> Module {
    let bytes = wasm::encode::encode(module);
    wasm::decode::decode(&bytes).expect("round trip")
}

/// Runs an app on WALI with the given safepoint scheme, returning the
/// outcome and total wall time (startup + execution).
pub fn run_on_wali(app: &App, scheme: SafepointScheme) -> (RunOutcome, Duration) {
    run_on_wali_with(app, scheme, |_| {})
}

/// [`run_on_wali`] with the runner adjusted by `configure` before the
/// program is registered (Fig. 7 switches layer timing on here).
pub fn run_on_wali_with(
    app: &App,
    scheme: SafepointScheme,
    configure: impl FnOnce(&mut WaliRunner),
) -> (RunOutcome, Duration) {
    let module = reload(&app.module);
    let t0 = Instant::now();
    let out = run_module(&module, scheme, configure);
    (out, t0.elapsed())
}

/// One start of an already decoded module: a fresh runner adjusted by
/// `configure`, the workload files seeded, the program registered,
/// spawned and run to its exit, which must be 0. What the benches that
/// hoist their module out of the timed closure put inside it.
pub fn run_module(
    module: &Module,
    scheme: SafepointScheme,
    configure: impl FnOnce(&mut WaliRunner),
) -> RunOutcome {
    let mut runner = WaliRunner::new(scheme);
    configure(&mut runner);
    seed_files(&runner);
    runner
        .register_program("/usr/bin/app", module)
        .expect("register");
    runner.spawn("/usr/bin/app", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert!(
        matches!(out.main_exit, Some(wali::runner::TaskEnd::Exited(0))),
        "guest failed: {:?}",
        out.main_exit
    );
    out
}

/// Invokes `wali.SYS_<name>` directly on its resolved handle — the
/// registry wrapper plus the kernel model, no interpreter — with `args`
/// laid out as the raw slots the interpreter would lend it. Returns the
/// syscall's return value, or -1 when it did not return (blocked,
/// suspended or trapped).
pub fn call_sys(
    linker: &wasm::host::Linker<wali::WaliContext>,
    ctx: &mut wali::WaliContext,
    instance: &wasm::Instance<wali::WaliContext>,
    name: &str,
    args: &[i64],
) -> i64 {
    let f = linker
        .resolve(wali::WALI_MODULE, &format!("SYS_{name}"))
        .expect("in the WALI registry");
    let mut slots = [0u64; 6];
    for (slot, v) in slots.iter_mut().zip(args) {
        *slot = *v as u64;
    }
    let mut caller = wasm::host::Caller {
        instance,
        data: ctx,
        sig: None,
    };
    f(&mut caller, &slots[..args.len()]).map_or(-1, |ret| ret as i64)
}

/// Seeds workload input files (the lua "script").
pub fn seed_files(runner: &WaliRunner) {
    seed_kernel(&runner.kernel);
}

/// Seeds input files on a raw kernel handle (emulator tier).
pub fn seed_kernel(kernel: &wali::context::KernelRef) {
    kernel
        .lock_ok()
        .vfs
        .write_file(
            "/tmp/script.lua",
            b"local acc = 0; for i = 1, 100 do acc = acc + i * 31 end; print(acc)",
        )
        .expect("seed");
}

/// Renders a 0..1 value as a fixed-width ASCII bar.
pub fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(n), ".".repeat(width - n))
}

/// Median wall time of `f` over `n` runs (n >= 1).
pub fn median_time(n: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..n.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_renders_fixed_width() {
        assert_eq!(bar(0.0, 10), "..........");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10).len(), 10);
    }

    #[test]
    fn lua_hot_dispatch_counts_are_pinned() {
        // `interp_hot`'s two lua rows, as read at PR 19: a change to what
        // a dispatch costs leaves the count alone; one to the lowering
        // moves it on purpose and says so here.
        for (regir, want) in [(true, (0, 42_666)), (false, (218_899, 0))] {
            let app = apps::lua_sim(100);
            let (out, _) =
                run_on_wali_with(&app, SafepointScheme::LoopHeaders, |r| r.set_regir(regir));
            assert_eq!(out.dispatches(), want, "regir={regir}");
        }
    }

    #[test]
    fn run_on_wali_exercises_an_app() {
        let (out, wall) = run_on_wali(&apps::lua_sim(2), SafepointScheme::LoopHeaders);
        assert!(out.trace.total_syscalls() > 0);
        assert!(wall.as_nanos() > 0);
    }
}
