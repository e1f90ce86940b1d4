//! First use of the process-wide import table, raced.
//!
//! This file holds one test on purpose: nothing else in the process may
//! have touched `build_linker` before the threads are released.

use std::sync::Barrier;

use wasm::build::ModuleBuilder;
use wasm::types::ValType::I32;

use wali::runner::WaliRunner;
use wali::testkit::{roundtrip, sys};

const THREADS: i32 = 8;

#[test]
fn concurrent_first_runners_all_get_a_complete_table() {
    let gate = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let gate = &gate;
                s.spawn(move || {
                    // `40 + i`, after a `getpid` that must link and run.
                    let mut mb = ModuleBuilder::new();
                    let getpid = sys(&mut mb, "getpid", 0);
                    mb.memory(1, Some(1));
                    let sig = mb.sig([], [I32]);
                    let main = mb.func(sig, |b| {
                        b.call(getpid).drop_();
                        b.i32(40 + i);
                    });
                    mb.export("_start", main);
                    let module = roundtrip(&mb.build());

                    gate.wait();
                    let mut runner = WaliRunner::new_default();
                    assert!(runner.linker_mut().len() >= wali_abi::spec::SPEC.len());
                    runner.register_program("/usr/bin/app", &module).unwrap();
                    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
                    let out = runner.run().expect("run");
                    assert_eq!(out.trace.counts.of("getpid"), 1);
                    out.exit_code()
                })
            })
            .collect();
        for (i, h) in (0..THREADS).zip(handles) {
            assert_eq!(h.join().expect("runner thread"), Some(40 + i));
        }
    });
}
