//! `wazi fingerprint`: the "same schedule" proof, as a dump.
//!
//! One line per fuzz seed and per app/server sim — the exact string
//! [`crate::oracle::fingerprint`] computes for a `WALI_WORKERS=1` run —
//! for each of the three single-worker configurations (default, the
//! reference stack loop, rings off), followed by a checksum of each
//! configuration's lines. Two commits with equal checksums ran every
//! scenario with the same console bytes, end order, scheduler counters,
//! per-syscall counts, executed ops and page peaks; when they differ,
//! `diff` of the two dumps names the seed.

use std::fmt::Write;

use apps::progs::{self, App};
use wali::testkit::{roundtrip, run_modules, RunnerOpts};
use wali::{RunOutcome, WaliRunner};

use crate::oracle::fingerprint;

/// The single-worker configurations a dump covers, by the name of the
/// environment switch each stands for.
pub fn configs() -> [(&'static str, RunnerOpts); 3] {
    let single = RunnerOpts::single();
    [
        ("default", single),
        (
            "WALI_NO_REGIR",
            RunnerOpts {
                regir: Some(false),
                ..single
            },
        ),
        (
            "WALI_NO_RING",
            RunnerOpts {
                ring: Some(false),
                ..single
            },
        ),
    ]
}

/// The app suite at its benchmark scales plus the larger lua/bash runs
/// and the two server sims — the non-fuzz half of every dump.
fn apps() -> Vec<App> {
    let mut apps = progs::suite();
    apps.extend([
        progs::lua_sim(100),
        progs::bash_builtin_sim(50),
        progs::epoll_server_sim(4, 3),
        progs::prefork_server_sim(3, 4),
    ]);
    apps
}

fn run_app(app: &App, opts: RunnerOpts) -> RunOutcome {
    let mut runner = WaliRunner::new_default();
    opts.apply(&mut runner);
    // The script `lua_sim` loads.
    runner
        .kernel
        .lock_ok()
        .vfs
        .write_file(
            "/tmp/script.lua",
            b"print('x'); local t = {1,2,3}; return #t",
        )
        .expect("std layout has /tmp");
    runner
        .register_program("/usr/bin/app", &roundtrip(&app.module))
        .expect("suite apps link");
    runner.spawn("/usr/bin/app", &[], &[]).expect("spawn");
    runner.run().expect("suite apps run to completion")
}

/// FNV-1a over the bytes of one configuration's lines.
fn checksum(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The dump of `count` fuzz seeds from `start` plus the app suite under
/// one configuration: `(lines, checksum)`.
pub fn dump_config(start: u64, count: u64, config: &str, opts: RunnerOpts) -> (String, u64) {
    let mut out = String::new();
    for i in 0..count {
        let seed = start.wrapping_add(i);
        let modules = crate::gen::generate(seed).emit();
        let fp = match run_modules(
            &modules.programs(),
            apps::scenario::MAIN_PATH,
            &["app"],
            &[],
            opts,
        ) {
            Ok(report) => fingerprint(&report.outcome),
            Err(e) => format!("error={e}"),
        };
        writeln!(out, "[{config}] seed={seed} {fp}").expect("write to a String");
    }
    for (i, app) in apps().iter().enumerate() {
        let fp = fingerprint(&run_app(app, opts));
        writeln!(out, "[{config}] app={i}:{} {fp}", app.name).expect("write to a String");
    }
    let sum = checksum(&out);
    (out, sum)
}

/// The whole dump: every configuration's lines, then one
/// `checksum[<config>] = <hex>` line per configuration.
pub fn dump(start: u64, count: u64) -> String {
    let mut lines = String::new();
    let mut sums = String::new();
    for (config, opts) in configs() {
        let (text, sum) = dump_config(start, count, config, opts);
        lines.push_str(&text);
        writeln!(sums, "checksum[{config}] = {sum:016x}").expect("write to a String");
    }
    lines + &sums
}
