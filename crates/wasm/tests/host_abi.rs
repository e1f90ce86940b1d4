//! The host calling convention: raw operand-stack slots in, one slot out
//! ([`Linker::func_raw`]), with the typed `Linker::func` closure shape as
//! an adapter over it — on both dispatch tiers.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use wasm::build::ModuleBuilder;
use wasm::host::{Blocked, Caller, HostOutcome, Linker};
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::prep::{LinkError, Program};
use wasm::safepoint::SafepointScheme;
use wasm::types::ValType::{F64, I32, I64};
use wasm::Trap;

fn instantiate(module: &wasm::Module, linker: &Linker<()>, regir: bool) -> Instance<()> {
    let bytes = wasm::encode::encode(module);
    let module = wasm::decode::decode(&bytes).expect("round trip");
    let program =
        Program::link_tiered(&module, linker, SafepointScheme::LoopHeaders, regir).expect("link");
    Instance::new(Arc::new(program)).expect("instantiate")
}

/// `main() = scale(7, 1.5) + 0.25` where `scale(n: i32, x: f64) -> f64`
/// is a typed host closure that blocks on its first call.
#[test]
fn typed_closure_with_mixed_params_round_trips_through_a_blocking_retry() {
    let mut mb = ModuleBuilder::new();
    let scale_sig = mb.sig([I32, F64], [F64]);
    let scale = mb.import_func("env", "scale", scale_sig);
    let main_sig = mb.sig([], [F64]);
    let main = mb.func(main_sig, |b| {
        b.i32(7).f64(1.5).call(scale);
        b.f64(0.25)
            .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::F64Add));
    });
    mb.export("main", main);
    let module = mb.build();

    for regir in [true, false] {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let mut linker: Linker<()> = Linker::new();
        linker.func("env", "scale", move |_, args| {
            assert_eq!(args, [Value::I32(7), Value::F64(1.5)]);
            if seen.fetch_add(1, Ordering::Relaxed) == 0 {
                return Err(HostOutcome::Block(Blocked {
                    import: "scale",
                    deadline: Some(9),
                }));
            }
            let (Value::I32(n), Value::F64(x)) = (args[0], args[1]) else {
                unreachable!("asserted above");
            };
            Ok(vec![Value::F64(n as f64 * x)])
        });

        let mut inst = instantiate(&module, &linker, regir);
        let main = inst.export_func("main").unwrap();
        let mut thread = Thread::new();
        match thread.call(&mut inst, &mut (), main, &[]) {
            RunResult::Blocked(b) => assert_eq!((b.import, b.deadline), ("scale", Some(9))),
            other => panic!("regir={regir}: {other:?}"),
        }
        assert!(thread.is_suspended());

        // The embedder retries; the arguments never left the operand
        // stack, and the adapter types them again from the import
        // signature.
        match thread.retry(&mut inst, &mut ()) {
            RunResult::Done(v) => assert_eq!(v, vec![Value::F64(10.75)], "regir={regir}"),
            other => panic!("regir={regir}: {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert!(!thread.is_suspended());
        assert!(matches!(
            thread.retry(&mut inst, &mut ()),
            RunResult::Trapped(Trap::Host(_))
        ));
    }
}

/// A raw function sees the caller's slots and answers with one; the
/// answer of a result-less import is dropped.
#[test]
fn raw_functions_borrow_slots_and_return_a_scalar() {
    let mut mb = ModuleBuilder::new();
    let sub_sig = mb.sig([I64, I32], [I64]);
    let sub = mb.import_func("env", "sub", sub_sig);
    let note_sig = mb.sig([I64], []);
    let note = mb.import_func("env", "note", note_sig);
    let main_sig = mb.sig([], [I64]);
    let main = mb.func(main_sig, |b| {
        b.i64(5).call(note);
        b.i64(-40).i32(-2).call(sub);
    });
    mb.export("main", main);
    let module = mb.build();

    let noted = Arc::new(AtomicU32::new(0));
    let seen = noted.clone();
    let mut linker: Linker<()> = Linker::new();
    linker.func_raw("env", "sub", |_, slots| {
        // An i32 travels in the low half of its slot.
        assert_eq!(slots, [-40i64 as u64, -2i32 as u32 as u64]);
        Ok((slots[0] as i64 - slots[1] as u32 as i32 as i64) as u64)
    });
    linker.func_raw("env", "note", move |_, slots| {
        seen.store(slots[0] as u32, Ordering::Relaxed);
        Ok(0xdead)
    });
    for regir in [true, false] {
        let mut inst = instantiate(&module, &linker, regir);
        let main = inst.export_func("main").unwrap();
        match Thread::new().call(&mut inst, &mut (), main, &[]) {
            RunResult::Done(v) => assert_eq!(v, vec![Value::I64(-38)], "regir={regir}"),
            other => panic!("regir={regir}: {other:?}"),
        }
        assert_eq!(noted.load(Ordering::Relaxed), 5);
    }
}

#[test]
fn multi_result_imports_do_not_link() {
    let mut mb = ModuleBuilder::new();
    let pair_sig = mb.sig([], [I64, I64]);
    mb.import_func("env", "pair", pair_sig);
    let mut linker: Linker<()> = Linker::new();
    linker.func_raw("env", "pair", |_, _| Ok(0));
    let err = Program::link(&mb.build(), &linker, SafepointScheme::None)
        .err()
        .expect("a host function returns one slot");
    assert!(matches!(err, LinkError::UnsupportedImport(m, n) if m == "env" && n == "pair"));
}

/// The typed adapter needs the import signature; a handle invoked
/// directly has none and traps instead of guessing types.
#[test]
fn typed_handle_without_a_signature_traps() {
    let mut linker: Linker<()> = Linker::new();
    linker.func("env", "id", |_, args| Ok(args.to_vec()));
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let inst = instantiate(&mb.build(), &linker, true);
    let id = linker.resolve("env", "id").unwrap();
    let mut caller = Caller {
        instance: &inst,
        data: &mut (),
        sig: None,
    };
    assert!(matches!(
        id(&mut caller, &[1]),
        Err(HostOutcome::Trap(Trap::Host(_)))
    ));
}
