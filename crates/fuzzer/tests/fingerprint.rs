//! `wazi fingerprint`: the dump is a pure function of the tree, and it
//! tells the configurations apart.

use fuzzer::fingerprint::{configs, dump_config};

#[test]
fn dump_repeats_exactly_and_separates_the_tiers() {
    let [(default, d_opts), (no_regir, r_opts), _] = configs();
    let (text, sum) = dump_config(7, 3, default, d_opts);
    assert_eq!(dump_config(7, 3, default, d_opts), (text.clone(), sum));
    // Three seeds, then the nine apps; no run errored.
    assert_eq!(text.lines().count(), 3 + 9, "{text}");
    assert!(text.lines().all(|l| l.starts_with("[default] ")));
    assert!(!text.contains("error="), "{text}");
    for field in ["console=", "ends=", "sched=", "syscalls={", "reg_steps="] {
        assert!(text.contains(field), "missing {field}");
    }
    // The reference stack loop runs the same schedule in more steps, none
    // of them register ops: same lines but for the step counts.
    let (stack, stack_sum) = dump_config(7, 3, no_regir, r_opts);
    assert_ne!(sum, stack_sum);
    assert!(
        stack.lines().all(|l| l.contains(" reg_steps=0 ")),
        "{stack}"
    );
}

/// The `WALI_WORKERS=1` schedule, pinned: 48 seeds plus the app suite
/// under the three configurations must checksum to the checked-in lines.
/// A PR that claims "same schedule" leaves the golden files alone; one
/// that moves the schedule shows it in its diff.
#[test]
fn schedule_matches_the_checked_in_checksums() {
    let dump = fuzzer::fingerprint::dump(1, 48);
    let sums: Vec<&str> = dump
        .lines()
        .filter(|l| l.starts_with("checksum["))
        .collect();
    let golden: Vec<&str> = include_str!("../corpus/fingerprint.golden")
        .lines()
        .collect();
    assert_eq!(
        sums, golden,
        "the WALI_WORKERS=1 schedule moved. If that is the point of the change, regenerate \
         both golden files and show them in the diff:\n  \
         cargo run --release -p fuzzer -- fingerprint --seeds 48 --seed 1 | grep '^checksum' \
         > crates/fuzzer/corpus/fingerprint.golden\n  \
         cargo run --release -p fuzzer -- fingerprint --seeds 360 --seed 1 | grep '^checksum' \
         > crates/fuzzer/corpus/fingerprint-360.golden\n\
         (diff the full dumps of the two commits to find the seed that moved)"
    );
}
