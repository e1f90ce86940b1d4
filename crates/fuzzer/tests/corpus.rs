//! The regression corpus, replayed as named tier-1 tests.
//!
//! Each corpus file under `corpus/` pins a bug this repository fixed
//! (or a scenario shape that once exposed one); every entry must replay
//! green through the *full* oracle battery — two bit-deterministic
//! `WALI_WORKERS=1` runs, the `WALI_NO_REGIR`/`WALI_NO_RING` toggles,
//! and the `WALI_WORKERS=4` SMP equivalence leg — exactly as `wazi
//! replay <file>` would run it. The process-global page-balance check
//! stays off here (tests share the process); the per-kernel leak audit
//! still runs on every leg.

use fuzzer::artifact::Artifact;
use fuzzer::oracle::OracleConfig;

fn replay_corpus(name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let art = Artifact::parse(&text).unwrap_or_else(|e| panic!("cannot parse {name}: {e}"));
    let cfg = OracleConfig {
        page_check: false,
        ..OracleConfig::default()
    };
    if let Err(f) = fuzzer::replay(&art, &cfg) {
        panic!("corpus entry {name} no longer replays green: {f}");
    }
}

/// The fuzzer-found false deadlock: a `wait4` parent's wakeup was held
/// by a draining worker (kernel woken set already cleared, run queues
/// not yet fed) while another worker's quiescence check fired.
#[test]
fn corpus_deadlock_vs_drain_replays_green() {
    replay_corpus("deadlock-vs-drain.txt");
}

/// Edge-triggered and oneshot epoll consumes under SMP: the PR-4
/// wakeup-racing-park requeue and scan-then-subscribe atomicity races.
#[test]
fn corpus_epoll_edge_oneshot_replays_green() {
    replay_corpus("epoll-edge-oneshot.txt");
}

/// Victims, handled-signal kills and futex set/wait: the PR-3 false
/// deadlock (a woken retry declared idle before its attempt) and the
/// mid-slice-death wait-subscription leak.
#[test]
fn corpus_signal_victim_futex_replays_green() {
    replay_corpus("signal-victim-futex.txt");
}

/// Two epoll-churn consumes on one socket: the emitter's post-consume
/// SHUT_WR raced a still-pending producer (EPIPE'd its writes) and
/// deadlocked the second consume. Half-closing is now restricted to a
/// channel's sole consume op.
#[test]
fn corpus_churn_shutdown_late_producer_replays_green() {
    replay_corpus("churn-shutdown-late-producer.txt");
}
