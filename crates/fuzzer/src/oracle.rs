//! The three oracles: bit-determinism, toggle equivalence, liveness.
//!
//! Each scenario is executed five times — two `WALI_WORKERS=1` runs,
//! no-regir, no-ring and `WALI_WORKERS=4` — and every run is judged
//! three ways:
//!
//! 1. **Bit-determinism** — two `WALI_WORKERS=1` runs must agree on the
//!    exact console bytes, per-task ending order (tids included),
//!    scheduler counters, per-syscall counts and executed ops
//!    ([`fingerprint`]). The cooperative scheduler
//!    promises bit-for-bit replay; any divergence is a hidden source of
//!    nondeterminism (wall clock, hash order, …).
//! 2. **Toggle equivalence** — `WALI_NO_REGIR` (the reference stack
//!    loop), `WALI_NO_RING` and `WALI_WORKERS=4` must leave the
//!    *observable* outcome unchanged. Single-worker toggles are compared on the
//!    order-insensitive [`wali::Observables`] too (their schedule
//!    legitimately shifts when blocking behavior changes); the model
//!    oracle below pins the exact content.
//! 3. **Liveness / leaks** — every run must terminate (the runners
//!    detect true deadlock on a quiesced virtual clock), match the
//!    scenario's own predicted console multiset and exit code, and
//!    leave the kernel clean: no live task, open pipe/socket/epoll,
//!    wait subscription or futex waiter at teardown, and (when the
//!    process-global page check is enabled) no resident page either.
//!
//! A scenario passes only if every run under every configuration passes
//! all applicable checks.

use apps::scenario::Scenario;
use wali::runner::TaskEnd;
use wali::testkit::{run_modules, RunReport, RunnerOpts};

/// How thoroughly to exercise one scenario.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Worker-pool width for the SMP equivalence run.
    pub smp_workers: usize,
    /// Run the SMP equivalence leg at all.
    pub check_smp: bool,
    /// Run the single-worker toggle legs (regir / ring).
    pub check_toggles: bool,
    /// Compare process-global resident pages before/after. Only valid
    /// when nothing else in the process touches guest memory
    /// concurrently (the CLI); parallel test harnesses must leave it
    /// off.
    pub page_check: bool,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            smp_workers: 4,
            check_smp: true,
            check_toggles: true,
            page_check: false,
        }
    }
}

/// Which oracle rejected the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The runner itself failed (deadlock detection, trap, link error).
    RunError,
    /// Output disagreed with the scenario's own prediction.
    ModelMismatch,
    /// Two single-worker runs disagreed.
    Determinism,
    /// Observables changed under a toggle or worker-count change.
    ToggleMismatch,
    /// Kernel teardown audit (or the page balance) found residue.
    Leak,
}

/// A failed oracle check: what failed, under which configuration, and a
/// human-readable diff.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which oracle fired.
    pub kind: FailureKind,
    /// The run configuration under which it fired.
    pub config: String,
    /// What differed or leaked.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} under [{}]: {}",
            self.kind, self.config, self.detail
        )
    }
}

fn fail(kind: FailureKind, config: &str, detail: String) -> Failure {
    Failure {
        kind,
        config: config.into(),
        detail,
    }
}

/// Truncates long diffs so artifacts stay readable.
fn clip(s: String) -> String {
    const MAX: usize = 600;
    if s.len() <= MAX {
        s
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}… ({} bytes total)", &s[..end], s.len())
    }
}

/// One oracle-checked run: executes `scn`'s modules under `opts`,
/// requiring termination, a clean teardown, and agreement with the
/// model's predicted console multiset and root exit code.
fn checked_run(
    scn: &Scenario,
    modules: &apps::scenario::ScenarioModules,
    opts: RunnerOpts,
    config: &str,
) -> Result<RunReport, Failure> {
    let report = run_modules(
        &modules.programs(),
        apps::scenario::MAIN_PATH,
        &["app"],
        &[],
        opts,
    )
    .map_err(|e| fail(FailureKind::RunError, config, clip(format!("{e:?}"))))?;
    if !report.leaks.is_clean() {
        return Err(fail(FailureKind::Leak, config, report.leaks.describe()));
    }
    let obs = report.outcome.observables();
    let expect_console = scn.expected_console();
    if obs.console_lines != expect_console {
        return Err(fail(
            FailureKind::ModelMismatch,
            config,
            clip(format!(
                "console {:?} != model {:?}",
                obs.console_lines, expect_console
            )),
        ));
    }
    let expect_exit = TaskEnd::Exited(scn.expected_main_exit());
    match &report.outcome.main_exit {
        Some(e) if *e == expect_exit => {}
        other => {
            return Err(fail(
                FailureKind::ModelMismatch,
                config,
                format!("main exit {other:?} != model {expect_exit:?}"),
            ));
        }
    }
    Ok(report)
}

/// The exact replay fingerprint of a single-worker run: everything two
/// `WALI_WORKERS=1` runs must agree on bit-for-bit — console bytes, end
/// order, scheduler counters, per-syscall counts, executed ops per tier
/// and page peaks. `wazi fingerprint` prints the same string, so a PR
/// proves "same schedule" by diffing two dumps.
pub fn fingerprint(o: &wali::RunOutcome) -> String {
    format!(
        "console={:?} ends={:?} sched={:?} syscalls={:?} wasm_steps={} reg_steps={} peak_pages={} peak_resident={}",
        String::from_utf8_lossy(&o.console),
        o.ends,
        o.sched,
        o.trace.counts.to_map(),
        o.trace.wasm_steps,
        o.trace.reg_steps,
        o.peak_memory_pages,
        o.peak_resident_pages,
    )
}

/// Runs the full oracle battery on an already-validated scenario.
pub fn check(scn: &Scenario, cfg: &OracleConfig) -> Result<(), Failure> {
    let pages_before = wasm::mem::global_resident_pages();
    let modules = scn.emit();

    // Oracle 1+3: deterministic baseline, twice.
    let base = checked_run(scn, &modules, RunnerOpts::single(), "workers=1")?;
    let again = checked_run(scn, &modules, RunnerOpts::single(), "workers=1 (replay)")?;
    let (fp_a, fp_b) = (fingerprint(&base.outcome), fingerprint(&again.outcome));
    if fp_a != fp_b {
        return Err(fail(
            FailureKind::Determinism,
            "workers=1 x2",
            clip(format!("run A {fp_a}\nrun B {fp_b}")),
        ));
    }
    let baseline_obs = base.outcome.observables();

    // Oracle 2: single-worker toggles.
    if cfg.check_toggles {
        let toggles: [(&str, RunnerOpts); 2] = [
            (
                "workers=1 no-regir",
                RunnerOpts {
                    regir: Some(false),
                    ..RunnerOpts::single()
                },
            ),
            // Ring-vs-sync equivalence: scenarios that consume through
            // `wali_ring_enter` must fall back to the identical per-op
            // synchronous path when rings are off.
            (
                "workers=1 no-ring",
                RunnerOpts {
                    ring: Some(false),
                    ..RunnerOpts::single()
                },
            ),
        ];
        for (name, opts) in toggles {
            let rep = checked_run(scn, &modules, opts, name)?;
            let obs = rep.outcome.observables();
            if obs != baseline_obs {
                return Err(fail(
                    FailureKind::ToggleMismatch,
                    name,
                    clip(format!("observables {obs:?} != baseline {baseline_obs:?}")),
                ));
            }
        }
    }

    // Oracle 2: SMP equivalence on order-insensitive observables.
    if cfg.check_smp {
        let name = format!("workers={}", cfg.smp_workers);
        let rep = checked_run(
            scn,
            &modules,
            RunnerOpts {
                workers: Some(cfg.smp_workers),
                ..RunnerOpts::default()
            },
            &name,
        )?;
        let obs = rep.outcome.observables();
        if obs != baseline_obs {
            return Err(fail(
                FailureKind::ToggleMismatch,
                &name,
                clip(format!("observables {obs:?} != baseline {baseline_obs:?}")),
            ));
        }
    }

    // Oracle 3: page balance — every page a run touched must be gone
    // once its runner is dropped.
    if cfg.page_check {
        let pages_after = wasm::mem::global_resident_pages();
        if pages_after != pages_before {
            return Err(fail(
                FailureKind::Leak,
                "page balance",
                format!("resident pages {pages_before} -> {pages_after} across the battery"),
            ));
        }
    }
    Ok(())
}
