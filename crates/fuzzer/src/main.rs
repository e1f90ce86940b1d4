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
//! exits 0. `replay` re-runs a written artifact (exit 0 iff green) and
//! `gen` prints a seed's scenario in artifact form — the way corpus
//! entries are authored. `fingerprint` prints the `WALI_WORKERS=1`
//! replay fingerprint of every seed and of the app suite under the
//! default, `WALI_NO_REGIR` and `WALI_NO_RING` configurations, then one
//! checksum per configuration (see `fuzzer::fingerprint`) — diff two
//! commits' dumps to prove a change kept the schedule. `--fault
//! scan-split` arms the fault-injection gate (see `wali::fault`) so CI
//! can prove the net catches a re-introduced race. The process-global
//! resident-page balance check is always on here: the CLI owns the
//! whole process.

use fuzzer::artifact::Artifact;
use fuzzer::oracle::OracleConfig;

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
    let mut done = 0u64;
    let found = fuzzer::fuzz(a.seed, a.seeds, &cfg, a.retries, |_seed| {
        done += 1;
        if done.is_multiple_of(25) {
            println!("  … {done} scenarios checked");
        }
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
