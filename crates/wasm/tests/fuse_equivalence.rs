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
use wasm::instr::{BinOp, BlockType, CvtOp, Instr, LoadKind, MemArg, RelOp, StoreKind, UnOp};
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
    // The exact counts, as read at PR 19: a change to what a dispatch
    // costs must not change how many there are.
    assert_eq!((stack, regir), (1607, 404));
}

#[test]
fn preemption_lands_on_the_same_op() {
    // A run cut into fuel slices of `k` ops is the unfuelled run: same
    // results, memory and total step count, and every slice but the last
    // executes exactly `k` ops — on both tiers, so a slice boundary falls
    // behind the same op whatever a dispatch costs.
    let programs = [
        "loop_arith",
        "load_store",
        "loop_header_load",
        "br_table_loop_header",
        "call_chain",
    ];
    let scheme = SafepointScheme::LoopHeaders;
    for (name, module, args) in corpus() {
        if !programs.contains(&name) {
            continue;
        }
        for regir in [false, true] {
            let linker: Linker<()> = Linker::new();
            let program =
                Arc::new(Program::link_tiered(&module, &linker, scheme, regir).expect("link"));
            let start = |fuel: Option<u64>| {
                let mut inst = Instance::new(program.clone()).expect("instantiate");
                let main = inst.export_func("main").expect("main export");
                let mut t = Thread::new();
                t.refuel(fuel);
                let r = t.call(&mut inst, &mut (), main, &args);
                (inst, t, r)
            };
            let (inst, t, r) = start(None);
            let image = |inst: &Instance<()>| inst.memory.read(0, inst.memory.size()).unwrap();
            let (want, want_image, want_steps) = (observed(r), image(&inst), t.steps);
            for k in [1, 2, 3, 7, 64, 1000] {
                let (mut inst, mut t, mut r) = start(Some(k));
                let mut slices = 0;
                while let RunResult::Preempted = r {
                    slices += 1;
                    assert_eq!(t.steps, slices * k, "{name} regir={regir} k={k}");
                    t.refuel(Some(k));
                    r = t.resume(&mut inst, &mut (), &[]);
                }
                let what = format!("{name} regir={regir} k={k}");
                assert_eq!(observed(r), want, "{what}");
                assert_eq!(image(&inst), want_image, "{what}");
                assert_eq!(t.steps, want_steps, "{what}");
                assert_eq!(slices, (want_steps - 1) / k, "{what}");
            }
        }
    }
}

// ---- the generated corpus: every operator, every operand form --------
//
// The register tier runs an operator through the generic arm or, for the
// families `wasm::regir`'s table names, through a variant that spells the
// operator and its operand kinds. Each program below computes one operator
// once, with each operand either a parameter (a register) or a constant,
// so that every arm runs in every operand form lowering can emit — named
// or generic, whatever the table holds — on edge operands, against the
// stack loop, under all three schemes (the schemes also decide what fuses,
// so each operator runs both inside and outside the fused pairs).

/// The operands of a generated program, in push order.
type Operands = Vec<(ValType, From)>;

/// What one call showed: the result slots or the trap, the globals, and
/// the memory around the accesses.
type Observed = (Result<Vec<u64>, String>, Vec<u64>, Vec<u8>);

/// Where an operand comes from.
#[derive(Clone, Copy, Debug)]
enum From {
    /// Parameter `n` of the function: a register operand.
    Param(u32),
    /// A constant in the code: a pool operand (or folded, when every
    /// operand is one and the operator cannot trap).
    Const(u64),
}

fn konst(ty: ValType, raw: u64) -> Instr {
    match ty {
        ValType::I32 => Instr::I32Const(raw as u32 as i32),
        ValType::I64 => Instr::I64Const(raw as i64),
        ValType::F32 => Instr::F32Const(raw as u32),
        ValType::F64 => Instr::F64Const(raw),
        ValType::FuncRef => unreachable!("no funcref operands"),
    }
}

/// Zero, ±1, the extremes, shift and rotate counts at and past the
/// width; for floats the signed zeros, infinities, NaNs with payloads
/// (quiet and signalling, both signs) and values past every integer
/// range a truncation converts to.
fn edges(ty: ValType) -> Vec<u64> {
    match ty {
        ValType::I32 => [0, 1, -1, i32::MIN, i32::MAX, 31, 32, 33]
            .map(|v| v as u32 as u64)
            .to_vec(),
        ValType::I64 => [0, 1, -1, i64::MIN, i64::MAX, 63, 64, 65]
            .map(|v| v as u64)
            .to_vec(),
        ValType::F32 => [
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            1.5f32.to_bits(),
            (-2.5f32).to_bits(),
            f32::INFINITY.to_bits(),
            0x7fc0_0000, // the canonical NaN
            0x7fc0_0001, // a quiet NaN with a payload
            0xffa0_0000, // a negative signalling NaN
            3e9f32.to_bits(),
            (-1e19f32).to_bits(),
        ]
        .map(u64::from)
        .to_vec(),
        ValType::F64 => vec![
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            1.5f64.to_bits(),
            (-2.5f64).to_bits(),
            f64::NEG_INFINITY.to_bits(),
            0x7ff8_0000_0000_0000,
            0x7ff8_0000_0000_0001,
            0xfff4_0000_0000_0000,
            3e9f64.to_bits(),
            (-1e19f64).to_bits(),
        ],
        ValType::FuncRef => unreachable!("no funcref operands"),
    }
}

/// One generated program: `main(params) -> results` over `pages` pages
/// of patterned memory, and the argument lists to call it with.
struct Case {
    name: String,
    module: wasm::Module,
    calls: Vec<Vec<Value>>,
}

/// Bytes with their sign bits set, so every extending load has something
/// to extend, laid over the end of each page.
const PATTERN: [u8; 16] = [
    0x81, 0x92, 0xa3, 0xb4, 0xc5, 0xd6, 0xe7, 0xf8, 0x89, 0x9a, 0xab, 0xbc, 0xcd, 0xde, 0xef, 0xf1,
];
const PAGE: u32 = 65536;
const PAGES: u32 = 2;

/// Builds `main`: runs `prologue`, pushes `operands` in order (parameter
/// `n` has type `params[n]`), then runs `ops`.
#[allow(clippy::too_many_arguments)]
fn case(
    name: String,
    params: &[ValType],
    results: &[ValType],
    prologue: &[Instr],
    operands: &[(ValType, From)],
    ops: &[Instr],
    with_memory: bool,
    calls: Vec<Vec<Value>>,
) -> Case {
    let mut mb = ModuleBuilder::new();
    if with_memory {
        mb.memory(PAGES, Some(PAGES));
        mb.data_at(PAGE - 8, &PATTERN);
        mb.data_at(PAGES * PAGE - 16, &PATTERN);
    }
    let sig = mb.sig(params.to_vec(), results.to_vec());
    let f = mb.func(sig, |b| {
        for op in prologue {
            b.emit(op.clone());
        }
        for (ty, from) in operands {
            match from {
                From::Param(n) => b.local_get(*n),
                From::Const(raw) => b.emit(konst(*ty, *raw)),
            };
        }
        for op in ops {
            b.emit(op.clone());
        }
    });
    mb.export("main", f);
    Case {
        name,
        module: mb.build(),
        calls,
    }
}

/// Every way to take operands of types `tys` from parameters and
/// constants, as `(operand sources, parameter types)`: all parameters
/// once; one constant, once per edge value; several constants, walking
/// their edge lists together — equal indices, the second one ahead and
/// the second one behind, so that constant pairs include `x op x`,
/// `x / 0` and `MIN / -1`.
fn operand_forms(tys: &[ValType]) -> Vec<(Operands, Vec<ValType>)> {
    let longest = tys.iter().map(|t| edges(*t).len()).max().unwrap();
    let mut out = Vec::new();
    for mask in 0u32..1 << tys.len() {
        let strides: &[usize] = match mask.count_ones() {
            0 | 1 => &[0],
            _ => &[0, 1, longest - 1],
        };
        let rounds = if mask == 0 { 1 } else { longest };
        for (round, stride) in (0..rounds).flat_map(|r| strides.iter().map(move |s| (r, *s))) {
            let (mut params, mut consts) = (Vec::new(), 0);
            let operands = tys
                .iter()
                .enumerate()
                .map(|(i, ty)| {
                    if mask & (1 << i) == 0 {
                        params.push(*ty);
                        return (*ty, From::Param(params.len() as u32 - 1));
                    }
                    let e = edges(*ty);
                    consts += 1;
                    (
                        *ty,
                        From::Const(e[(round + (consts - 1) * stride) % e.len()]),
                    )
                })
                .collect();
            out.push((operands, params));
        }
    }
    out
}

/// The cartesian product of the edge values of `params`, as argument
/// lists.
fn edge_calls(params: &[ValType]) -> Vec<Vec<Value>> {
    let mut calls = vec![Vec::new()];
    for ty in params {
        calls = calls
            .into_iter()
            .flat_map(|c| {
                edges(*ty).into_iter().map(move |raw| {
                    let mut c = c.clone();
                    c.push(Value::from_raw(*ty, raw));
                    c
                })
            })
            .collect();
    }
    calls
}

/// One program per operator and operand form.
fn value_op_cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |name: String, tys: &[ValType], result: ValType, op: Instr| {
        for (n, (operands, params)) in operand_forms(tys).into_iter().enumerate() {
            out.push(case(
                format!("{name}/{n}"),
                &params,
                &[result],
                &[],
                &operands,
                std::slice::from_ref(&op),
                false,
                edge_calls(&params),
            ));
        }
    };
    for &op in BinOp::ALL {
        push(format!("{op:?}"), &[op.ty(); 2], op.ty(), Instr::Bin(op));
    }
    for &op in RelOp::ALL {
        let ty = op.operand();
        push(format!("{op:?}"), &[ty; 2], ValType::I32, Instr::Rel(op));
    }
    for &op in UnOp::ALL {
        push(format!("{op:?}"), &[op.sig().0], op.sig().1, Instr::Un(op));
    }
    for &op in CvtOp::ALL {
        push(format!("{op:?}"), &[op.sig().0], op.sig().1, Instr::Cvt(op));
    }
    push(
        "select".into(),
        &[ValType::I64, ValType::I64, ValType::I32],
        ValType::I64,
        Instr::Select,
    );
    out
}

/// A comparison feeding a branch, both polarities: `br_if` out of a
/// block (branch when true) and `if`/`else` (branch when false).
fn compare_and_branch_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for &op in RelOp::ALL {
        let ty = op.operand();
        // `block { a b rel br_if 0; 10 return } 20`
        let br_if = [
            Instr::Rel(op),
            Instr::BrIf(0),
            Instr::I32Const(10),
            Instr::Return,
            Instr::End,
            Instr::I32Const(20),
        ];
        // `a b rel if { 30 } else { 40 }`
        let if_else = [
            Instr::Rel(op),
            Instr::If(BlockType::Value(ValType::I32)),
            Instr::I32Const(30),
            Instr::Else,
            Instr::I32Const(40),
            Instr::End,
        ];
        let block = [Instr::Block(BlockType::Empty)];
        for (n, (operands, params)) in operand_forms(&[ty; 2]).into_iter().enumerate() {
            for (shape, prologue, ops) in [
                ("br_if", &block[..], &br_if[..]),
                ("if_else", &[], &if_else[..]),
            ] {
                out.push(case(
                    format!("{op:?}/{shape}/{n}"),
                    &params,
                    &[ValType::I32],
                    prologue,
                    &operands,
                    ops,
                    false,
                    edge_calls(&params),
                ));
            }
        }
    }
    out
}

/// Loads and stores of every kind, with the address (and the index, and
/// the stored value) from a parameter or a constant, at: the start of
/// the pattern, the last in-bounds position, one past it, and a position
/// straddling the 64 KiB page boundary.
fn memory_cases() -> Vec<Case> {
    let mut out = Vec::new();
    let size = PAGES * PAGE;
    let addresses = |width: u32| {
        [
            PAGE - 8,
            PAGE - 1,
            PAGE - width,
            PAGE - width + 1,
            size - width,
            size - width + 1,
            size,
            u32::MAX,
        ]
    };
    let i32s = |vs: &[u32]| {
        vs.iter()
            .map(|v| vec![Value::I32(*v as i32)])
            .collect::<Vec<_>>()
    };
    for &kind in LoadKind::ALL {
        let at = addresses(kind.bytes());
        for offset in [0, 3] {
            let load = [Instr::Load(kind, MemArg::offset(offset))];
            // Address in a register.
            out.push(case(
                format!("load/{kind:?}+{offset}/r"),
                &[ValType::I32],
                &[kind.result()],
                &[],
                &[(ValType::I32, From::Param(0))],
                &load,
                true,
                i32s(&at.map(|a| a.wrapping_sub(offset))),
            ));
            for a in at {
                let a = a.wrapping_sub(offset) as u64;
                // Address a constant.
                out.push(case(
                    format!("load/{kind:?}+{offset}/c{a}"),
                    &[],
                    &[kind.result()],
                    &[],
                    &[(ValType::I32, From::Const(a))],
                    &load,
                    true,
                    vec![vec![]],
                ));
                // Base + index: reg·reg, reg·const, const·reg.
                let indexed = [Instr::Bin(BinOp::I32Add), load[0].clone()];
                let (base, index) = (a.wrapping_sub(5) as u32 as u64, 5);
                for (form, operands, params, call) in [
                    (
                        "rr",
                        [From::Param(0), From::Param(1)],
                        vec![ValType::I32; 2],
                        vec![Value::I32(base as i32), Value::I32(index as i32)],
                    ),
                    (
                        "rc",
                        [From::Param(0), From::Const(index)],
                        vec![ValType::I32],
                        vec![Value::I32(base as i32)],
                    ),
                    (
                        "cr",
                        [From::Const(base), From::Param(0)],
                        vec![ValType::I32],
                        vec![Value::I32(index as i32)],
                    ),
                ] {
                    out.push(case(
                        format!("load_idx/{kind:?}+{offset}/{form}{a}"),
                        &params,
                        &[kind.result()],
                        &[],
                        &operands.map(|from| (ValType::I32, from)),
                        &indexed,
                        true,
                        vec![call],
                    ));
                }
            }
        }
    }
    for &kind in StoreKind::ALL {
        let ty = kind.operand();
        let value = edges(ty)[3] ^ 0x0102_0304_0506_0708;
        let store = [Instr::Store(kind, MemArg::offset(2)), Instr::I32Const(0)];
        for a in addresses(kind.bytes()) {
            let a = a.wrapping_sub(2);
            for (form, operands, params, call) in [
                (
                    "rr",
                    [(ValType::I32, From::Param(0)), (ty, From::Param(1))],
                    vec![ValType::I32, ty],
                    vec![Value::I32(a as i32), Value::from_raw(ty, value)],
                ),
                (
                    "rc",
                    [(ValType::I32, From::Param(0)), (ty, From::Const(value))],
                    vec![ValType::I32],
                    vec![Value::I32(a as i32)],
                ),
                (
                    "cr",
                    [(ValType::I32, From::Const(a as u64)), (ty, From::Param(0))],
                    vec![ty],
                    vec![Value::from_raw(ty, value)],
                ),
                (
                    "cc",
                    [
                        (ValType::I32, From::Const(a as u64)),
                        (ty, From::Const(value)),
                    ],
                    vec![],
                    vec![],
                ),
            ] {
                out.push(case(
                    format!("store/{kind:?}/{form}{a}"),
                    &params,
                    &[ValType::I32],
                    &[],
                    &operands,
                    &store,
                    true,
                    vec![call],
                ));
            }
        }
    }
    out
}

/// The counted-loop back edge, `i += k; if (i rel n) continue`, with the
/// limit in a register and as a constant, and the branch taken on true
/// (`br_if` back to the loop) and on false (an `if` around the `br`).
fn back_edge_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (rel, step, limits) in [
        (RelOp::I32LtS, 3, vec![-5, 0, 1, 10]),
        (RelOp::I32LtU, 3, vec![0, 1, 10]),
        (RelOp::I32Ne, 1, vec![1, 10]),
        // Not in the table: stays a generic fused op.
        (RelOp::I32LeS, 2, vec![-5, 0, 9]),
    ] {
        // `None`: the limit is the parameter, one call per limit.
        for constant in [None].into_iter().chain(limits.iter().copied().map(Some)) {
            for via_if in [false, true] {
                let mut mb = ModuleBuilder::new();
                let sig = mb.sig([ValType::I32], [ValType::I32]);
                let f = mb.func(sig, |b| {
                    let i = b.local(ValType::I32);
                    b.loop_(BlockType::Empty, |b| {
                        b.local_get(i).i32(step).add32().local_tee(i);
                        match constant {
                            Some(k) => b.i32(k),
                            None => b.local_get(0),
                        };
                        b.emit(Instr::Rel(rel));
                        if via_if {
                            b.if_(BlockType::Empty, |b| {
                                b.br(1);
                            });
                        } else {
                            b.br_if(0);
                        }
                    });
                    b.local_get(i);
                });
                mb.export("main", f);
                out.push(Case {
                    name: format!("back_edge/{rel:?}/{constant:?}/via_if={via_if}"),
                    module: mb.build(),
                    calls: match constant {
                        Some(_) => vec![vec![Value::I32(0)]],
                        None => limits.iter().map(|n| vec![Value::I32(*n)]).collect(),
                    },
                });
            }
        }
    }
    out
}

/// What a run showed: result slots bit for bit (a `NaN` payload is part
/// of the result), or the trap.
fn observed(r: RunResult) -> Result<Vec<u64>, String> {
    match r {
        RunResult::Done(values) => Ok(values.iter().map(Value::raw).collect()),
        RunResult::Trapped(t) => Err(format!("{t:?}")),
        other => panic!("a pure program ran into {other:?}"),
    }
}

/// Runs every call of `case` on fresh instances of one link.
fn run_case(case: &Case, regir: bool, scheme: SafepointScheme) -> Vec<Observed> {
    let linker: Linker<()> = Linker::new();
    let program = Program::link_tiered(&case.module, &linker, scheme, regir).expect("link");
    assert_eq!(program.regir, regir, "{}: lowering must fire", case.name);
    let program = Arc::new(program);
    case.calls
        .iter()
        .map(|args| {
            let mut inst = Instance::new(program.clone()).expect("instantiate");
            let main = inst.export_func("main").expect("main export");
            let r = Thread::new().call(&mut inst, &mut (), main, args);
            // Every access is within 16 bytes of the end of a page.
            let (page, size) = (PAGE as u64, inst.memory.size() as u64);
            let windows = match size {
                0 => Vec::new(),
                _ => [(page - 32, 64), (size - 32, 32)]
                    .into_iter()
                    .flat_map(|(at, len)| inst.memory.read(at, len).expect("window"))
                    .collect(),
            };
            (observed(r), inst.globals.clone(), windows)
        })
        .collect()
}

fn assert_tiers_agree(cases: Vec<Case>) {
    assert!(!cases.is_empty());
    for scheme in [
        SafepointScheme::None,
        SafepointScheme::LoopHeaders,
        SafepointScheme::EveryInstruction,
    ] {
        for case in &cases {
            let stack = run_case(case, false, scheme);
            let regir = run_case(case, true, scheme);
            for ((args, s), r) in case.calls.iter().zip(&stack).zip(&regir) {
                assert_eq!(s, r, "{} {args:?} ({scheme:?})", case.name);
            }
        }
    }
}

#[test]
fn every_value_operator_agrees_on_edge_operands_in_every_operand_form() {
    assert_tiers_agree(value_op_cases());
}

#[test]
fn every_comparison_agrees_as_a_branch_condition_in_both_polarities() {
    assert_tiers_agree(compare_and_branch_cases());
}

#[test]
fn every_load_and_store_agrees_at_the_edges_of_memory_and_of_a_page() {
    assert_tiers_agree(memory_cases());
}

#[test]
fn counted_loop_back_edges_agree() {
    assert_tiers_agree(back_edge_cases());
}
