//! Tier equivalence: the tier-2 register IR may not be observable.
//!
//! Every program in the corpus is prepared on both execution tiers — the
//! reference stack loop and the register IR — and executed with the same
//! inputs; results, traps, final memory and globals must match exactly.
//! The corpus leans on the patterns the register lowering collapses into
//! one dispatch (`local.get local.get binop`, `const binop`,
//! compare+`br_if`, `local.get` + load) and on stack shapes that stress
//! it: deep operand stacks, `br_table` back edges into loop headers,
//! multi-value blocks, branch targets landing between the ops of such a
//! pattern, and lazy values parked below a branch boundary.
//!
//! (The file name dates from when a third, fused stack tier was compared
//! here too; it is kept so the test ids stay stable.)

use std::sync::Arc;

use wasm::build::ModuleBuilder;
use wasm::host::Linker;
use wasm::instr::{BinOp, BlockType, Instr, LoadKind, MemArg, RelOp, StoreKind};
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::prep::Program;
use wasm::safepoint::SafepointScheme;
use wasm::types::ValType;

/// Builds each corpus module fresh (ModuleBuilder is consumed by build).
fn corpus() -> Vec<(&'static str, wasm::Module, Vec<Value>)> {
    let mut out: Vec<(&'static str, wasm::Module, Vec<Value>)> = Vec::new();

    // local.get+local.get+binop and local.get+const+binop in a counted
    // loop with compare+br_if as the back edge.
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local(ValType::I32); // acc = local 1
        b.local(ValType::I32); // i   = local 2
        b.emit(Instr::Block(BlockType::Empty))
            .emit(Instr::Loop(BlockType::Empty))
            // if i >= n break
            .local_get(2)
            .local_get(0)
            .emit(Instr::Rel(RelOp::I32GeS))
            .emit(Instr::BrIf(1))
            // acc = acc + i*31
            .local_get(1)
            .local_get(2)
            .i32(31)
            .emit(Instr::Bin(BinOp::I32Mul))
            .emit(Instr::Bin(BinOp::I32Add))
            .local_set(1)
            // i += 1
            .local_get(2)
            .i32(1)
            .emit(Instr::Bin(BinOp::I32Add))
            .local_set(2)
            .emit(Instr::Br(0))
            .emit(Instr::End)
            .emit(Instr::End)
            .local_get(1);
    });
    mb.export("main", f);
    out.push(("loop_arith", mb.build(), vec![Value::I32(100)]));

    // local.get + load / store round trip over memory.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(2));
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local(ValType::I32);
        // mem[64] = n * 3
        b.i32(64)
            .local_get(0)
            .i32(3)
            .emit(Instr::Bin(BinOp::I32Mul))
            .emit(Instr::Store(StoreKind::I32, MemArg::offset(0)))
            // return mem[64] + n  (the load reads its address straight
            // from the local's register)
            .local_get(0)
            .emit(Instr::Load(LoadKind::I32, MemArg::offset(64)))
            .local_get(0)
            .emit(Instr::Bin(BinOp::I32Add));
    });
    mb.export("main", f);
    out.push(("load_store", mb.build(), vec![Value::I32(0)]));

    // if/else on a compare (Rel + BrIfZero: one compare-and-branch in
    // the register IR), both arms.
    for (name, x) in [("if_else_cmp", 9), ("if_else_cmp_taken", 2)] {
        let mut mb2 = ModuleBuilder::new();
        let sig = mb2.sig([ValType::I32, ValType::I32], [ValType::I32]);
        let f2 = mb2.func(sig, |b| {
            b.local_get(0)
                .local_get(1)
                .emit(Instr::Rel(RelOp::I32LtS))
                .emit(Instr::If(BlockType::Value(ValType::I32)))
                .i32(-1)
                .emit(Instr::Else)
                .local_get(0)
                .local_get(1)
                .emit(Instr::Bin(BinOp::I32Sub))
                .emit(Instr::End);
        });
        mb2.export("main", f2);
        out.push((name, mb2.build(), vec![Value::I32(x), Value::I32(4)]));
    }

    // Forward branch landing exactly *on* a `const; binop` pair whose
    // left operand was pushed (lazily, in the register IR) before the
    // block: the taken and the fall-through path must both compute n+7.
    for (name, v) in [("branch_into_pair", 5), ("branch_into_pair_fall", 0)] {
        let mut mb2 = ModuleBuilder::new();
        let sig = mb2.sig([ValType::I32], [ValType::I32]);
        let f2 = mb2.func(sig, |b| {
            b.local(ValType::I32);
            b.local_get(0)
                .local_set(1)
                .local_get(1) // value flowing out of the block
                .emit(Instr::Block(BlockType::Empty))
                .local_get(0)
                .emit(Instr::BrIf(0)) // jumps to End: next op executes
                .emit(Instr::End)
                // target lands here
                .i32(7)
                .emit(Instr::Bin(BinOp::I32Add));
        });
        mb2.export("main", f2);
        out.push((name, mb2.build(), vec![Value::I32(v)]));
    }

    // Trap parity: division by zero by a constant divisor (must not be
    // folded away at lowering time).
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local_get(0).i32(0).emit(Instr::Bin(BinOp::I32DivS));
    });
    mb.export("main", f);
    out.push(("div_by_zero_const", mb.build(), vec![Value::I32(10)]));

    // Trap parity: OOB via local.get+load.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local_get(0)
            .emit(Instr::Load(LoadKind::I32, MemArg::offset(0)));
    });
    mb.export("main", f);
    out.push(("oob_local_load", mb.build(), vec![Value::I32(70000)]));

    // Loop header landing *between* `local.get` and its load: the address
    // is pushed before the loop and the load is the loop's first op, so
    // the back edge targets the load. The load must read the loop
    // parameter's canonical register on every iteration, not the local
    // it was first pushed from.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let loop_sig;
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    {
        loop_sig = mb.sig([ValType::I32], [ValType::I32]);
    }
    let f = mb.func(sig, |b| {
        b.local(ValType::I32); // counter = local 1
        b.i32(3)
            .local_set(1)
            .local_get(0) // addr, becomes the loop parameter
            .emit(Instr::Loop(BlockType::Func(loop_sig)))
            .emit(Instr::Load(LoadKind::I32, MemArg::offset(0))) // loop header region
            .emit(Instr::Drop)
            .local_get(0) // fresh addr for the back edge / result
            .local_get(1)
            .i32(1)
            .emit(Instr::Bin(BinOp::I32Sub))
            .local_tee(1)
            .emit(Instr::BrIf(0))
            .emit(Instr::End);
    });
    mb.export("main", f);
    out.push(("loop_header_load", mb.build(), vec![Value::I32(8)]));

    // Deep operand stack: 16 pending values folded by a chain of adds —
    // the register lowering must track every canonical slot.
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        for i in 0..8 {
            b.local_get(0).i32(i + 1);
        }
        for _ in 0..15 {
            b.emit(Instr::Bin(BinOp::I32Add));
        }
    });
    mb.export("main", f);
    out.push(("deep_stack", mb.build(), vec![Value::I32(6)]));

    // br_table whose default arm is the back edge into a loop header:
    // every dispatch of the table re-enters the label barrier.
    let mut mb = ModuleBuilder::new();
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local(ValType::I32); // i = local 1
        b.emit(Instr::Block(BlockType::Empty))
            .emit(Instr::Loop(BlockType::Empty))
            .local_get(1)
            .i32(1)
            .emit(Instr::Bin(BinOp::I32Add))
            .local_set(1)
            .local_get(1)
            .local_get(0)
            .emit(Instr::Rel(RelOp::I32LtS))
            // 0 (done) -> depth 1 exits the block; 1 (continue) -> the
            // default, depth 0, jumps back to the loop header.
            .emit(Instr::BrTable(Box::new([1]), 0))
            .emit(Instr::End)
            .emit(Instr::End)
            .local_get(1);
    });
    mb.export("main", f);
    out.push(("br_table_loop_header", mb.build(), vec![Value::I32(5)]));

    // Multi-value block: a conditional branch carries *two* values out
    // (keep = 2); the fallthrough edits one of them first.
    for (name, v) in [("multi_value_taken", 4), ("multi_value_fall", 0)] {
        let mut mb2 = ModuleBuilder::new();
        let sig = mb2.sig([ValType::I32], [ValType::I32]);
        let pair = mb2.sig([], [ValType::I32, ValType::I32]);
        let f2 = mb2.func(sig, |b| {
            b.emit(Instr::Block(BlockType::Func(pair)))
                .local_get(0)
                .i32(1)
                .emit(Instr::Bin(BinOp::I32Add)) // a = n + 1
                .local_get(0)
                .i32(3)
                .emit(Instr::Bin(BinOp::I32Mul)) // b = n * 3
                .local_get(0)
                .emit(Instr::BrIf(0)) // taken: yields (a, b)
                .i32(7)
                .emit(Instr::Bin(BinOp::I32Add)) // fallthrough: (a, b + 7)
                .emit(Instr::End)
                .emit(Instr::Bin(BinOp::I32Add));
        });
        mb2.export("main", f2);
        out.push((name, mb2.build(), vec![Value::I32(v)]));
    }

    // A lazy constant parked *below* the branch boundary: the br_if
    // drops to a height above it, so the lowering must still spill it
    // before the branch (the taken path reads it after the block).
    for (name, v) in [
        ("lazy_below_branch_taken", 3),
        ("lazy_below_branch_fall", 0),
    ] {
        let mut mb2 = ModuleBuilder::new();
        let sig = mb2.sig([ValType::I32], [ValType::I32]);
        let one = mb2.sig([], [ValType::I32]);
        let f2 = mb2.func(sig, |b| {
            b.i32(42) // stays below the block for its whole lifetime
                .emit(Instr::Block(BlockType::Func(one)))
                .local_get(0)
                .i32(5)
                .emit(Instr::Bin(BinOp::I32Mul))
                .local_get(0)
                .emit(Instr::BrIf(0)) // carries n*5 out, over the 42
                .i32(1)
                .emit(Instr::Bin(BinOp::I32Add))
                .emit(Instr::End)
                .emit(Instr::Bin(BinOp::I32Add)); // 42 + result
        });
        mb2.export("main", f2);
        out.push((name, mb2.build(), vec![Value::I32(v)]));
    }

    // Local wasm→wasm calls: arguments must land in the callee's
    // canonical registers, results back in the caller's.
    let mut mb = ModuleBuilder::new();
    let helper_sig = mb.sig([ValType::I32], [ValType::I32]);
    let helper = mb.func(helper_sig, |b| {
        b.local_get(0)
            .i32(2)
            .emit(Instr::Bin(BinOp::I32Mul))
            .i32(1)
            .emit(Instr::Bin(BinOp::I32Add));
    });
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local_get(0)
            .call(helper)
            .local_get(0)
            .i32(1)
            .emit(Instr::Bin(BinOp::I32Add))
            .call(helper)
            .emit(Instr::Bin(BinOp::I32Add));
    });
    mb.export("main", f);
    out.push(("call_chain", mb.build(), vec![Value::I32(10)]));

    // br_table with `local.get; const; binop` arithmetic in the arms.
    for (name, v) in [
        ("br_table_0", 0),
        ("br_table_1", 1),
        ("br_table_default", 9),
    ] {
        let mut mb2 = ModuleBuilder::new();
        let sig = mb2.sig([ValType::I32], [ValType::I32]);
        let f2 = mb2.func(sig, |b| {
            b.local(ValType::I32);
            b.emit(Instr::Block(BlockType::Empty))
                .emit(Instr::Block(BlockType::Empty))
                .emit(Instr::Block(BlockType::Empty))
                .local_get(0)
                .emit(Instr::BrTable(Box::new([0, 1]), 2))
                .emit(Instr::End)
                .local_get(0)
                .i32(10)
                .emit(Instr::Bin(BinOp::I32Add))
                .local_set(1)
                .emit(Instr::Br(1))
                .emit(Instr::End)
                .local_get(0)
                .i32(20)
                .emit(Instr::Bin(BinOp::I32Add))
                .local_set(1)
                .emit(Instr::End)
                .local_get(1);
        });
        mb2.export("main", f2);
        out.push((name, mb2.build(), vec![Value::I32(v)]));
    }

    out
}

/// Runs `module` on the stack loop (`regir = false`) or the register tier.
fn run(
    module: &wasm::Module,
    regir: bool,
    args: &[Value],
    scheme: SafepointScheme,
) -> (RunResult, Vec<u64>, Vec<u8>) {
    let linker: Linker<()> = Linker::new();
    let program = Arc::new(Program::link_tiered(module, &linker, scheme, regir).expect("link"));
    // Requesting the register tier must actually produce it — a silent
    // bail-out to the stack tier would hollow this suite out.
    assert_eq!(program.regir, regir, "lowering must fire");
    let mut inst = Instance::new(program).expect("instantiate");
    let main = inst.export_func("main").expect("main export");
    let mut t = Thread::new();
    let r = t.call(&mut inst, &mut (), main, args);
    let image = inst.memory.read(0, inst.memory.size()).expect("image");
    (r, inst.globals.clone(), image)
}

#[test]
fn tiers_are_observationally_equivalent() {
    for scheme in [
        SafepointScheme::None,
        SafepointScheme::LoopHeaders,
        SafepointScheme::EveryInstruction,
    ] {
        for (name, module, args) in corpus() {
            let (stack, g0, m0) = run(&module, false, &args, scheme);
            let (regir, g, m) = run(&module, true, &args, scheme);
            match (&stack, &regir) {
                (RunResult::Done(a), RunResult::Done(b)) => {
                    assert_eq!(a, b, "{name} ({scheme:?}): results diverge")
                }
                (RunResult::Trapped(a), RunResult::Trapped(b)) => {
                    assert_eq!(a, b, "{name} ({scheme:?}): traps diverge")
                }
                other => panic!("{name} ({scheme:?}): outcome shape diverges: {other:?}"),
            }
            assert_eq!(g0, g, "{name} ({scheme:?}): globals diverge");
            assert_eq!(m0, m, "{name} ({scheme:?}): final memory diverges");
        }
    }
}

#[test]
fn register_tier_collapses_dispatches() {
    let (_, module, args) = corpus()
        .into_iter()
        .find(|(n, _, _)| *n == "loop_arith")
        .unwrap();
    let steps = |regir: bool| {
        let linker: Linker<()> = Linker::new();
        let program = Arc::new(
            Program::link_tiered(&module, &linker, SafepointScheme::LoopHeaders, regir).unwrap(),
        );
        let mut inst = Instance::new(program).expect("instantiate");
        let main = inst.export_func("main").unwrap();
        let mut t = Thread::new();
        match t.call(&mut inst, &mut (), main, &args) {
            RunResult::Done(_) => {}
            other => panic!("{other:?}"),
        }
        (t.steps, t.reg_steps)
    };
    let (stack, stack_reg) = steps(false);
    let (regir, regir_reg) = steps(true);
    assert_eq!(
        stack_reg, 0,
        "stack tier must not count register dispatches"
    );
    assert_eq!(
        regir_reg, regir,
        "register tier runs entirely in the register loop"
    );
    assert!(
        regir < stack,
        "register IR should collapse dispatches: {regir} vs {stack}"
    );
}
