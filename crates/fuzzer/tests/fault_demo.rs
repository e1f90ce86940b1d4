//! End-to-end proof the net is live: re-introduce a fixed race through
//! the `scan-split` fault gate, watch an oracle catch it, shrink the
//! scenario, and verify the shrunk artifact still reproduces.
//!
//! This lives in its own integration-test binary (its own process): the
//! fault gate is process-global, and no other test may run with the
//! race armed.

use apps::scenario::{Mechanism, Op, Scenario};
use fuzzer::oracle::{self, FailureKind, OracleConfig};

/// A scenario tuned to the re-opened window: four single-token pipes,
/// each consumed via level-triggered `epoll_wait` by its own
/// single-threaded process while four producer threads in the root race
/// the writes. Any lost wakeup parks a consumer forever, the root parks
/// in `wait4` behind it, and the SMP run reports a deadlock. (Every
/// consumer is its process's main thread on purpose: a stuck *sibling*
/// thread would leave its main thread sleep-polling the join flags
/// forever — virtual time keeps advancing, so that is a hang, not a
/// detectable deadlock. Under one worker the split halves cannot
/// interleave, so the cooperative legs stay green — the determinism
/// oracle is not the one that fires.)
fn race_bait() -> Scenario {
    use apps::scenario::{ChanKind, Proc, ProcKind, ThreadPlan};
    let proc_with = |children: Vec<usize>, threads: usize| Proc {
        kind: ProcKind::Normal,
        children,
        handles: Vec::new(),
        threads: vec![
            ThreadPlan {
                phases: vec![Vec::new(); 2]
            };
            threads
        ],
    };
    let mut procs = vec![proc_with((1..=4).collect(), 4)];
    for c in 0..4 {
        procs[0].threads[c].phases[0].push(Op::Produce { chan: c, tokens: 1 });
        let mut consumer = proc_with(Vec::new(), 1);
        consumer.threads[0].phases[1].push(Op::Consume {
            chan: c,
            tokens: 1,
            via: Mechanism::EpollLt,
        });
        procs.push(consumer);
    }
    let scn = Scenario {
        chans: vec![ChanKind::Pipe; 4],
        futex_words: 0,
        procs,
    };
    scn.validate().expect("race bait is structurally valid");
    scn
}

#[test]
fn scan_split_fault_is_caught_and_shrunk() {
    // The planted race: a producer's fast-path pipe write pushes the
    // ring entry and posts `EpollReady` between the consumer's split
    // pop and subscribe — to no subscriber. Pin the stack interpreter
    // tier: the register tier's faster dispatch narrows the window the
    // planted race needs, and this test is about the catch-and-shrink
    // machinery, not the interp tier. Own-process binary, so the env
    // var is safe to set.
    std::env::set_var("WALI_NO_REGIR", "1");
    wali::fault::set_scan_split(true);
    let cfg = OracleConfig {
        check_toggles: false, // the race is SMP-only; spend runs there
        page_check: false,
        ..OracleConfig::default()
    };
    let scn = race_bait();

    // The race is probabilistic per attempt; the widened window makes
    // it land well within this budget.
    let mut caught = None;
    for attempt in 0..400 {
        if let Err(f) = oracle::check(&scn, &cfg) {
            caught = Some((attempt, f));
            break;
        }
    }
    let (attempt, failure) = caught.expect("armed scan-split race never caught in 400 attempts");
    assert_eq!(
        failure.kind,
        FailureKind::RunError,
        "expected the liveness oracle (deadlock) to fire, got {failure}"
    );
    assert!(
        failure.detail.contains("Deadlock"),
        "lost wakeup should surface as a detected deadlock: {failure}"
    );
    println!("caught on attempt {attempt}: {failure}");

    // Shrink with retries: one green run proves nothing for a race.
    let fails = |s: &Scenario| (0..25).any(|_| oracle::check(s, &cfg).is_err());
    let (small, evals) = shrink_with(&scn, fails);
    println!(
        "shrunk from {} to {} in {evals} evaluations",
        fuzzer::shrink::size(&scn),
        fuzzer::shrink::size(&small)
    );
    assert!(fuzzer::shrink::size(&small) < fuzzer::shrink::size(&scn));
    // The shrunk scenario is the *minimal* — and therefore least
    // probable — reproducer, and on a loaded 1-core host the per-run
    // repro odds sag further; give the final proof a generous budget.
    assert!(
        (0..150).any(|_| oracle::check(&small, &cfg).is_err()),
        "shrunk scenario no longer reproduces"
    );

    // Disarm and confirm the same scenario runs green again — the
    // failure was the injected fault, not the scenario.
    wali::fault::set_scan_split(false);
    oracle::check(&small, &cfg).expect("disarmed gate must run green");
}

fn shrink_with(scn: &Scenario, mut fails: impl FnMut(&Scenario) -> bool) -> (Scenario, usize) {
    fuzzer::shrink::shrink(scn, 60, &mut fails)
}
