//! `wazi` — the scenario fuzzer's command-line front end.
//!
//! ```text
//! wazi fuzz   [--seeds N] [--seed S] [--smp-workers W] [--no-smp]
//!             [--no-toggles] [--fault scan-split] [--retries K]
//!             [--out DIR]
//! wazi replay <artifact.txt> [--fault scan-split] [--smp-workers W]
//! wazi gen    --seed S
//! wazi fingerprint [--seeds N] [--seed S]
//! ```
//!
//! `fuzz` walks seeds from `--seed` (or `WALI_FUZZ_SEED`, default 1),
//! running each generated scenario through the oracle battery; the
//! first failure is shrunk and written to `--out` (default
//! `fuzz-artifacts/`) as `seed-<S>.txt`, exit code 1. A clean sweep
//! exits 0. An oracle battery that runs past 120 s ends the process
//! with exit code 3, naming the seed and the time it ran: a hang fails,
//! it does not run until a CI job's timeout. `replay` re-runs a written
//! artifact (exit 0 iff green) and `gen` prints a seed's scenario in
//! artifact form — the way corpus
//! entries are authored. `fingerprint` prints the `WALI_WORKERS=1`
//! replay fingerprint of every seed and of the app suite under the
//! default, `WALI_NO_REGIR` and `WALI_NO_RING` configurations, then one
//! checksum per configuration (see `fuzzer::fingerprint`) — diff two
//! commits' dumps to prove a change kept the schedule. `--fault
//! scan-split` arms the fault-injection gate (see `wali::fault`) so CI
//! can prove the net catches a re-introduced race. The process-global
//! resident-page balance check is always on here: the CLI owns the
//! whole process.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fuzzer::artifact::Artifact;
use fuzzer::oracle::OracleConfig;
use fuzzer::Battery;

/// How long one oracle battery may run before `wazi fuzz` calls it
/// stuck. A battery (five runs of one scenario) takes well under a
/// second; a hung one never ends.
const BATTERY_BOUND: Duration = Duration::from_secs(120);

/// The clock on the oracle battery that is running, read by
/// [`Watchdog::watch`] on a thread of its own.
#[derive(Default)]
struct Watchdog {
    state: Mutex<Watch>,
    changed: Condvar,
}

#[derive(Clone, Copy, Default)]
enum Watch {
    #[default]
    Idle,
    Running(Battery, Instant),
    Over,
}

impl Watchdog {
    /// Starts the clock for `battery`.
    fn arm(&self, battery: Battery) {
        self.set(Watch::Running(battery, Instant::now()));
    }

    /// Ends [`Watchdog::watch`].
    fn stop(&self) {
        self.set(Watch::Over);
    }

    fn set(&self, watch: Watch) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = watch;
        self.changed.notify_one();
    }

    /// Returns at [`Watchdog::stop`], or once a battery has run longer
    /// than `bound` — after calling `expired` with it and the time it ran.
    fn watch(&self, bound: Duration, expired: impl FnOnce(Battery, Duration)) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let wait = match *state {
                Watch::Over => return,
                Watch::Idle => bound,
                Watch::Running(battery, since) => match bound.checked_sub(since.elapsed()) {
                    Some(left) if !left.is_zero() => left,
                    _ => {
                        drop(state);
                        return expired(battery, since.elapsed());
                    }
                },
            };
            state = self
                .changed
                .wait_timeout(state, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: wazi fuzz [--seeds N] [--seed S] [--smp-workers W] [--no-smp] \
         [--no-toggles] [--fault scan-split] [--retries K] [--out DIR]\n\
         \x20      wazi replay <artifact.txt> [--fault scan-split] [--smp-workers W]\n\
         \x20      wazi gen --seed S\n\
         \x20      wazi fingerprint [--seeds N] [--seed S]"
    );
    std::process::exit(2)
}

struct Args {
    positional: Vec<String>,
    seeds: u64,
    seed: u64,
    smp_workers: usize,
    no_smp: bool,
    no_toggles: bool,
    retries: u32,
    out: String,
}

fn parse_args(argv: &[String]) -> Args {
    let env_seed = std::env::var("WALI_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    let mut a = Args {
        positional: Vec::new(),
        seeds: 200,
        seed: env_seed.unwrap_or(1),
        smp_workers: 4,
        no_smp: false,
        no_toggles: false,
        retries: 1,
        out: "fuzz-artifacts".into(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--seeds" => a.seeds = val("--seeds").parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--smp-workers" => {
                a.smp_workers = val("--smp-workers").parse().unwrap_or_else(|_| usage())
            }
            "--retries" => a.retries = val("--retries").parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = val("--out"),
            "--no-smp" => a.no_smp = true,
            "--no-toggles" => a.no_toggles = true,
            "--fault" => match val("--fault").as_str() {
                "scan-split" => wali::fault::set_scan_split(true),
                other => {
                    eprintln!("unknown fault gate `{other}`");
                    usage()
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage()
            }
            pos => a.positional.push(pos.to_string()),
        }
    }
    a
}

fn oracle_config(a: &Args) -> OracleConfig {
    OracleConfig {
        smp_workers: a.smp_workers,
        check_smp: !a.no_smp,
        check_toggles: !a.no_toggles,
        page_check: true, // the CLI owns the process: the balance must hold
    }
}

fn cmd_fuzz(a: &Args) -> i32 {
    let cfg = oracle_config(a);
    println!(
        "fuzzing {} seed(s) from {} (smp={}, toggles={}, retries={})",
        a.seeds, a.seed, !a.no_smp, !a.no_toggles, a.retries
    );
    let watchdog = Watchdog::default();
    let mut done = 0u64;
    let found = std::thread::scope(|s| {
        s.spawn(|| {
            watchdog.watch(BATTERY_BOUND, |battery, ran| {
                let (what, seed) = match battery {
                    Battery::Seed(seed) => ("its oracle battery", seed),
                    Battery::Shrink(seed) => ("a shrink battery", seed),
                };
                eprintln!(
                    "STUCK: seed {seed} — {what} has run {:.1} s, past the {} s bound",
                    ran.as_secs_f64(),
                    BATTERY_BOUND.as_secs()
                );
                std::process::exit(3)
            })
        });
        let found = fuzzer::fuzz(a.seed, a.seeds, &cfg, a.retries, |battery| {
            watchdog.arm(battery);
            if let Battery::Seed(_) = battery {
                done += 1;
                if done.is_multiple_of(25) {
                    println!("  … {done} scenarios checked");
                }
            }
        });
        watchdog.stop();
        found
    });
    match found {
        None => {
            println!("PASS: {done} scenarios, every oracle green");
            0
        }
        Some(found) => {
            println!(
                "FAIL: seed {} — {}\n  shrunk in {} oracle evaluations: {} procs, artifact below",
                found.seed,
                found.failure,
                found.shrink_evals,
                found.artifact.scenario.procs.len()
            );
            let dir = std::path::Path::new(&a.out);
            let path = dir.join(format!("seed-{}.txt", found.seed));
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, found.artifact.to_text()))
            {
                eprintln!("could not write artifact {}: {e}", path.display());
            } else {
                println!("artifact: {}", path.display());
            }
            print!("{}", found.artifact.to_text());
            1
        }
    }
}

fn cmd_replay(a: &Args) -> i32 {
    let [path] = &a.positional[..] else { usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let art = match Artifact::parse(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return 2;
        }
    };
    match fuzzer::replay(&art, &oracle_config(a)) {
        Ok(()) => {
            println!("PASS: {path} replays green");
            0
        }
        Err(f) => {
            println!("FAIL: {path}: {f}");
            1
        }
    }
}

fn cmd_gen(a: &Args) -> i32 {
    let art = Artifact {
        seed: a.seed,
        failure: String::new(),
        scenario: fuzzer::gen::generate(a.seed),
    };
    print!("{}", art.to_text());
    0
}

fn cmd_fingerprint(a: &Args) -> i32 {
    print!("{}", fuzzer::fingerprint::dump(a.seed, a.seeds));
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let a = parse_args(&argv[1..]);
    let code = match cmd.as_str() {
        "fuzz" => cmd_fuzz(&a),
        "replay" => cmd_replay(&a),
        "gen" => cmd_gen(&a),
        "fingerprint" => cmd_fingerprint(&a),
        _ => usage(),
    };
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_watchdog_names_the_battery_that_ran_past_its_bound() {
        let (bound, watchdog) = (Duration::from_millis(400), Watchdog::default());
        let reported = std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut reported = None;
                watchdog.watch(bound, |battery, ran| reported = Some((battery, ran)));
                reported
            });
            // Batteries that each finish in time, together longer than
            // the bound …
            for seed in 1..=4 {
                watchdog.arm(Battery::Seed(seed));
                std::thread::sleep(bound * 3 / 10);
            }
            // … and one that does not.
            watchdog.arm(Battery::Shrink(7));
            watcher.join().expect("the watcher returns")
        });
        let (battery, ran) = reported.expect("reported");
        assert_eq!(battery, Battery::Shrink(7));
        assert!(ran >= bound);
    }

    #[test]
    fn a_stopped_watchdog_reports_nothing() {
        let watchdog = Watchdog::default();
        std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut reported = false;
                watchdog.watch(Duration::from_secs(10), |_, _| reported = true);
                reported
            });
            watchdog.arm(Battery::Seed(1));
            watchdog.stop();
            assert!(!watcher.join().expect("the watcher returns"));
        });
    }
}
