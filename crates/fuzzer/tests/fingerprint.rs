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
