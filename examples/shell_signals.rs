//! A bash-style shell session: pipelines, fork/wait job control and
//! SIGCHLD handling — the workloads WASI cannot express (paper Table 1).
//!
//! ```sh
//! cargo run --example shell_signals
//! ```

use wali::guest::Sysno;
use wasm::SafepointScheme;

fn main() {
    let app = apps::bash_sim(4);
    let bytes = wasm::encode::encode(&app.module);
    let module = wasm::decode::decode(&bytes).expect("valid");

    let mut runner = wali::WaliRunner::new(SafepointScheme::LoopHeaders);
    runner
        .register_program("/bin/bash", &module)
        .expect("register");
    runner
        .spawn("/bin/bash", &["-c", "echo hello | wc -l"], &[])
        .expect("spawn");
    let out = runner.run().expect("run");

    println!("shell output:\n{}", out.stdout());
    println!(
        "exit: {:?} (0 = every child reaped via SIGCHLD)",
        out.main_exit
    );
    println!(
        "job-control syscalls: fork={} wait4={} pipe={} dup3={} rt_sigaction={}",
        out.trace.counts.of(Sysno::fork),
        out.trace.counts.of(Sysno::wait4),
        out.trace.counts.of(Sysno::pipe),
        out.trace.counts.of(Sysno::dup3),
        out.trace.counts.of(Sysno::rt_sigaction),
    );
}
