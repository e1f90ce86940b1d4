//! Integration tests for the engine: host calls, traps, suspension/resume,
//! fork-style thread cloning and safepoint re-entrancy — the exact
//! capabilities WALI builds on.

use std::sync::Arc;

use wasm::build::ModuleBuilder;
use wasm::host::{HostCtx, HostOutcome, Linker, PendingCall};
use wasm::instr::{BlockType, Instr};
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::prep::Program;
use wasm::safepoint::SafepointScheme;
use wasm::types::ValType;
use wasm::Trap;

#[derive(Default)]
struct Ctx {
    log: Vec<i64>,
    pending: Option<PendingCall>,
}

impl HostCtx for Ctx {
    fn poll_signal(&mut self) -> Option<PendingCall> {
        self.pending.take()
    }
}

fn link(module: &wasm::Module, linker: &Linker<Ctx>, scheme: SafepointScheme) -> Instance<Ctx> {
    let bytes = wasm::encode::encode(module);
    let module = wasm::decode::decode(&bytes).expect("round trip");
    let program = Arc::new(Program::link(&module, linker, scheme).expect("link"));
    Instance::new(program).expect("instantiate")
}

#[test]
fn host_function_receives_args_and_returns() {
    let mut mb = ModuleBuilder::new();
    let host_sig = mb.sig([ValType::I64], [ValType::I64]);
    let log = mb.import_func("env", "log_and_double", host_sig);
    let main_sig = mb.sig([], [ValType::I64]);
    let f = mb.func(main_sig, |b| {
        b.i64(21).call(log);
    });
    mb.export("main", f);
    let module = mb.build();

    let mut linker: Linker<Ctx> = Linker::new();
    linker.func("env", "log_and_double", |caller, args| {
        let v = args[0].as_i64().unwrap();
        caller.data.log.push(v);
        Ok(vec![Value::I64(v * 2)])
    });

    let mut inst = link(&module, &linker, SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();
    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[]) {
        RunResult::Done(v) => assert_eq!(v, vec![Value::I64(42)]),
        other => panic!("{other:?}"),
    }
    assert_eq!(ctx.log, vec![21]);
}

#[test]
fn division_by_zero_traps() {
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([ValType::I32, ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local_get(0)
            .local_get(1)
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I32DivS));
    });
    mb.export("main", f);
    let module = mb.build();
    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();

    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[Value::I32(1), Value::I32(0)]) {
        RunResult::Trapped(Trap::DivisionByZero) => {}
        other => panic!("{other:?}"),
    }
    let mut t = Thread::new();
    match t.call(
        &mut inst,
        &mut ctx,
        main,
        &[Value::I32(i32::MIN), Value::I32(-1)],
    ) {
        RunResult::Trapped(Trap::IntegerOverflow) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn memory_oob_traps_as_sigsegv_analogue() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local_get(0).load32(0);
    });
    mb.export("main", f);
    let module = mb.build();
    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();
    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[Value::I32(65536)]) {
        RunResult::Trapped(Trap::MemoryOutOfBounds) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn call_indirect_checks_signatures() {
    let mut mb = ModuleBuilder::new();
    let sig_i32 = mb.sig([], [ValType::I32]);
    let sig_i64 = mb.sig([], [ValType::I64]);
    let good = mb.func(sig_i32, |b| {
        b.i32(7);
    });
    let bad = mb.func(sig_i64, |b| {
        b.i64(8);
    });
    let base = mb.table_entries(&[good, bad]);
    let main_sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(main_sig, |b| {
        b.local_get(0).call_indirect(sig_i32);
    });
    mb.export("main", f);
    let module = mb.build();
    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();

    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[Value::I32(base as i32)]) {
        RunResult::Done(v) => assert_eq!(v, vec![Value::I32(7)]),
        other => panic!("{other:?}"),
    }
    // Wrong signature: the paper notes this trap catches latent C bugs.
    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[Value::I32(base as i32 + 1)]) {
        RunResult::Trapped(Trap::IndirectCallTypeMismatch) => {}
        other => panic!("{other:?}"),
    }
    // Out of bounds index.
    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[Value::I32(99)]) {
        RunResult::Trapped(Trap::TableOutOfBounds) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn call_indirect_matches_equal_signatures_declared_twice() {
    // Types 0 and 3 are both `[] -> [i32]`; type 1 is `[] -> [i64]`.
    // `via_dup` calls through type 3, `via_first` through type 0; the
    // table holds a function of type 0, one of type 3 and one of type 1.
    let mut mb = ModuleBuilder::new();
    let sig_i32 = mb.sig([], [ValType::I32]);
    let sig_i64 = mb.sig([], [ValType::I64]);
    let first = mb.func(sig_i32, |b| {
        b.i32(7);
    });
    let dup = mb.func(sig_i32, |b| {
        b.i32(9);
    });
    let other = mb.func(sig_i64, |b| {
        b.i64(8);
    });
    let base = mb.table_entries(&[first, dup, other]) as i32;
    let main_sig = mb.sig([ValType::I32], [ValType::I32]);
    let via_dup = mb.func(main_sig, |b| {
        b.local_get(0).call_indirect(sig_i32);
    });
    let via_first = mb.func(main_sig, |b| {
        b.local_get(0).call_indirect(sig_i32);
    });
    mb.export("via_dup", via_dup).export("via_first", via_first);
    let mut module = mb.build();
    let sig_dup = module.types.len() as u32;
    module.types.push(module.types[sig_i32 as usize].clone());
    module.funcs[1] = sig_dup;
    module.code[3].instrs = vec![Instr::LocalGet(0), Instr::CallIndirect(sig_dup)];

    for regir in [false, true] {
        let linker: Linker<Ctx> = Linker::new();
        let program =
            Program::link_tiered(&module, &linker, SafepointScheme::LoopHeaders, regir).unwrap();
        assert_eq!(program.regir, regir);
        assert_eq!(program.sig_of_type(sig_dup), program.sig_of_type(sig_i32));
        assert_ne!(program.sig_of_type(sig_i64), program.sig_of_type(sig_i32));
        let mut inst = Instance::new(Arc::new(program)).unwrap();
        let mut ctx = Ctx::default();
        for entry in ["via_dup", "via_first"] {
            let f = inst.export_func(entry).unwrap();
            for (slot, want) in [(0, Some(7)), (1, Some(9)), (2, None)] {
                let r = Thread::new().call(&mut inst, &mut ctx, f, &[Value::I32(base + slot)]);
                match (r, want) {
                    (RunResult::Done(v), Some(want)) => assert_eq!(v, [Value::I32(want)]),
                    (RunResult::Trapped(Trap::IndirectCallTypeMismatch), None) => {}
                    (other, _) => panic!("{entry}({slot}) regir={regir}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn a_safepoint_polls_only_under_a_raised_hint_and_then_within_one_back_edge() {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Aborts as soon as it is asked with the hint up; counts the asks.
    #[derive(Default)]
    struct Gated {
        hint: AtomicBool,
        asked: u32,
    }
    impl HostCtx for Gated {
        fn check_abort(&mut self) -> Option<Trap> {
            self.asked += 1;
            self.hint.load(Ordering::Relaxed).then_some(Trap::Aborted)
        }
        fn sig_hint(&self) -> &AtomicBool {
            &self.hint
        }
    }

    // `loop { br 0 }`: nothing but the back edge's safepoint.
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([], []);
    let f = mb.func(sig, |b| {
        b.loop_(BlockType::Empty, |b| {
            b.br(0);
        });
    });
    mb.export("main", f);
    let module = mb.build();

    for regir in [true, false] {
        let linker: Linker<Gated> = Linker::new();
        let program =
            Program::link_tiered(&module, &linker, SafepointScheme::LoopHeaders, regir).unwrap();
        let mut inst = Instance::new(Arc::new(program)).unwrap();
        let main = inst.export_func("main").unwrap();
        let mut ctx = Gated::default();
        let mut t = Thread::new();
        t.refuel(Some(1000));
        match t.call(&mut inst, &mut ctx, main, &[]) {
            RunResult::Preempted => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(t.steps, 1000);
        // The register tier reads the flag and asks nothing; the
        // reference loop asks at every safepoint, to the same effect.
        if regir {
            assert_eq!(ctx.asked, 0);
        } else {
            assert!(ctx.asked > 100);
        }
        ctx.hint.store(true, Ordering::Relaxed);
        let asked = ctx.asked;
        t.refuel(Some(1000));
        match t.resume(&mut inst, &mut ctx, &[]) {
            RunResult::Trapped(Trap::Aborted) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(
            ctx.asked,
            asked + 1,
            "the first poll under the hint ends it"
        );
        assert!(t.steps <= 1002, "within one back edge: {}", t.steps);
    }
}

#[test]
fn suspension_resume_and_fork_style_clone() {
    let mut mb = ModuleBuilder::new();
    let fork_sig = mb.sig([], [ValType::I64]);
    let fork = mb.import_func("wali", "SYS_fork", fork_sig);
    let main_sig = mb.sig([], [ValType::I64]);
    let f = mb.func(main_sig, |b| {
        // return fork() * 2 + 1
        b.call(fork)
            .i64(2)
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I64Mul));
        b.i64(1).add64();
    });
    mb.export("main", f);
    let module = mb.build();

    let mut linker: Linker<Ctx> = Linker::new();
    // What it suspends for, the host function leaves in the context.
    linker.func("wali", "SYS_fork", |caller, _| {
        caller.data.log.push(-1);
        Err(HostOutcome::Suspend)
    });

    let mut inst = link(&module, &linker, SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();

    let mut parent = Thread::new();
    match parent.call(&mut inst, &mut ctx, main, &[]) {
        RunResult::Suspended => {}
        other => panic!("{other:?}"),
    }
    assert_eq!(ctx.log, [-1]);
    assert!(parent.is_suspended());

    // Snapshot the suspended state: this is exactly how WALI implements
    // fork — clone the thread, resume parent with the child pid and the
    // child with 0.
    let mut child = parent.clone();

    match parent.resume(&mut inst, &mut ctx, &[Value::I64(123)]) {
        RunResult::Done(v) => assert_eq!(v, vec![Value::I64(247)]),
        other => panic!("{other:?}"),
    }
    match child.resume(&mut inst, &mut ctx, &[Value::I64(0)]) {
        RunResult::Done(v) => assert_eq!(v, vec![Value::I64(1)]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn safepoint_reentrancy_runs_signal_handler() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    // handler(sig): mem[100] = sig
    let handler_sig = mb.sig([ValType::I32], []);
    let handler = mb.func(handler_sig, |b| {
        b.i32(100).local_get(0).store32(0);
    });
    // main: loop until mem[100] != 0, return mem[100]
    let main_sig = mb.sig([], [ValType::I32]);
    let main = mb.func(main_sig, |b| {
        b.loop_(BlockType::Empty, |b| {
            b.i32(100).load32(0).eqz32().br_if(0);
        });
        b.i32(100).load32(0);
    });
    mb.export("main", main);
    mb.export("handler", handler);
    let module = mb.build();

    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::LoopHeaders);
    let handler_idx = inst.export_func("handler").unwrap();
    let main_idx = inst.export_func("main").unwrap();
    // Queue a pending "SIGINT" delivered at the first loop-header
    // safepoint.
    let mut ctx = Ctx {
        pending: Some(PendingCall {
            func: handler_idx,
            arg: Some(Value::I32(2)),
        }),
        ..Default::default()
    };

    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main_idx, &[]) {
        RunResult::Done(v) => assert_eq!(v, vec![Value::I32(2)]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn no_safepoints_means_no_delivery() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let handler_sig = mb.sig([ValType::I32], []);
    let handler = mb.func(handler_sig, |b| {
        b.i32(100).local_get(0).store32(0);
    });
    let main_sig = mb.sig([], [ValType::I32]);
    // Bounded loop so the test terminates even without delivery.
    let main = mb.func(main_sig, |b| {
        let i = b.local(ValType::I32);
        b.loop_(BlockType::Empty, |b| {
            b.local_get(i).i32(1).add32().local_set(i);
            b.local_get(i).i32(1000).lt_s32().br_if(0);
        });
        b.i32(100).load32(0);
    });
    mb.export("main", main);
    mb.export("handler", handler);
    let module = mb.build();

    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::None);
    let handler_idx = inst.export_func("handler").unwrap();
    let main_idx = inst.export_func("main").unwrap();
    let mut ctx = Ctx {
        pending: Some(PendingCall {
            func: handler_idx,
            arg: Some(Value::I32(2)),
        }),
        ..Default::default()
    };

    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main_idx, &[]) {
        // Never delivered: memory stays 0.
        RunResult::Done(v) => assert_eq!(v, vec![Value::I32(0)]),
        other => panic!("{other:?}"),
    }
    assert!(ctx.pending.is_some(), "signal still pending");
}

#[test]
fn recursion_overflow_traps() {
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([], []);
    let f = mb.declare(sig);
    mb.define(f, |b| {
        b.call(f);
    });
    mb.export("main", f);
    let module = mb.build();
    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();
    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[]) {
        RunResult::Trapped(Trap::StackOverflow) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn fib_exercises_control_flow() {
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([ValType::I64], [ValType::I64]);
    let fib = mb.declare(sig);
    mb.define(fib, |b| {
        b.local_get(0).i64(2).lt_s64();
        b.if_(BlockType::Empty, |b| {
            b.local_get(0).ret();
        });
        b.local_get(0)
            .i64(1)
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I64Sub))
            .call(fib);
        b.local_get(0)
            .i64(2)
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I64Sub))
            .call(fib);
        b.add64();
    });
    mb.export("main", fib);
    let module = mb.build();
    let mut inst = link(
        &module,
        &Linker::<Ctx>::new(),
        SafepointScheme::FunctionEntry,
    );
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();
    let mut t = Thread::new();
    match t.call(&mut inst, &mut ctx, main, &[Value::I64(20)]) {
        RunResult::Done(v) => assert_eq!(v, vec![Value::I64(6765)]),
        other => panic!("{other:?}"),
    }
    assert!(t.steps > 1000, "fib(20) should take many steps");
}

#[test]
fn globals_and_memory_persist_across_calls() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(4));
    let g = mb.global(ValType::I64, true, wasm::module::ConstExpr::I64(0));
    let sig = mb.sig([], [ValType::I64]);
    let f = mb.func(sig, |b| {
        b.global_get(g).i64(1).add64().global_set(g);
        b.global_get(g);
    });
    mb.export("main", f);
    let module = mb.build();
    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();
    for want in 1..=3i64 {
        let mut t = Thread::new();
        match t.call(&mut inst, &mut ctx, main, &[]) {
            RunResult::Done(v) => assert_eq!(v, vec![Value::I64(want)]),
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn br_table_dispatch() {
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.block(BlockType::Empty, |b| {
            b.block(BlockType::Empty, |b| {
                b.block(BlockType::Empty, |b| {
                    b.local_get(0);
                    b.emit(wasm::instr::Instr::BrTable(
                        vec![0, 1].into_boxed_slice(),
                        2,
                    ));
                });
                b.i32(100).ret();
            });
            b.i32(200).ret();
        });
        b.i32(300);
    });
    mb.export("main", f);
    let module = mb.build();
    let mut inst = link(&module, &Linker::<Ctx>::new(), SafepointScheme::LoopHeaders);
    let mut ctx = Ctx::default();
    let main = inst.export_func("main").unwrap();
    for (arg, want) in [(0, 100), (1, 200), (2, 300), (99, 300)] {
        let mut t = Thread::new();
        match t.call(&mut inst, &mut ctx, main, &[Value::I32(arg)]) {
            RunResult::Done(v) => assert_eq!(v, vec![Value::I32(want)], "arg {arg}"),
            other => panic!("{other:?}"),
        }
    }
}
