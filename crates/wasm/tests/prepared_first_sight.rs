//! First sight of a module by the process-wide table of prepared images,
//! raced.
//!
//! This file holds one test on purpose: nothing else in the process may
//! have prepared a module before the threads are released.

use std::sync::{Arc, Barrier};

use wasm::build::ModuleBuilder;
use wasm::host::Linker;
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::prep::Program;
use wasm::types::ValType::I32;
use wasm::SafepointScheme;

const THREADS: i32 = 8;

/// `main` returns `v + 1` by way of an import, so that the link has
/// something to bind per thread.
fn guest(v: i32) -> wasm::Module {
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([I32], [I32]);
    let inc = mb.import_func("env", "inc", sig);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i32(v).call(inc);
    });
    mb.export("main", main);
    mb.build()
}

#[test]
fn concurrent_first_links_share_or_split_images_and_all_run() {
    let gate = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let gate = &gate;
                s.spawn(move || {
                    // The first half race on one module, the rest bring
                    // one each.
                    let v = if i < THREADS / 2 { 0 } else { i };
                    let module = guest(v);
                    let mut linker: Linker<()> = Linker::new();
                    linker.func_raw("env", "inc", |_, args| Ok(args[0] + 1));

                    gate.wait();
                    let program = Program::link(&module, &linker, SafepointScheme::LoopHeaders);
                    let program = Arc::new(program.expect("link"));
                    let mut inst = Instance::new(program.clone()).expect("instantiate");
                    let main = inst.export_func("main").expect("main");
                    match Thread::new().call(&mut inst, &mut (), main, &[]) {
                        RunResult::Done(r) => assert_eq!(r, vec![Value::I32(v + 1)]),
                        other => panic!("thread {i}: {other:?}"),
                    }
                    program.image.clone()
                })
            })
            .collect();
        let images: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("linking thread"))
            .collect();
        // Racing threads may each have prepared the shared module; one
        // insert won and every one of them was handed that image.
        for (i, a) in images.iter().enumerate() {
            for (j, b) in images.iter().enumerate() {
                let same_module = i == j || (i as i32) < THREADS / 2 && (j as i32) < THREADS / 2;
                assert_eq!(Arc::ptr_eq(a, b), same_module, "threads {i} and {j}");
            }
        }
    });
}
