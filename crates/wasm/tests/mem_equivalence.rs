//! Backing equivalence: the paged copy-on-write store must be
//! unobservable relative to the flat reservation.
//!
//! Every program in the corpus is instantiated twice — over the flat
//! backing shared memories get and the paged backing private ones get —
//! and executed with the same inputs; results, traps, globals and the
//! full final memory image must match exactly. A second family of tests drives the `Memory` API
//! directly through fork/write interleavings, checking the COW snapshot
//! against the deep-copy reference.

use std::sync::Arc;

use wasm::build::ModuleBuilder;
use wasm::host::Linker;
use wasm::instr::{BinOp, BlockType, Instr, LoadKind, MemArg, StoreKind};
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::mem::Memory;
use wasm::prep::Program;
use wasm::safepoint::SafepointScheme;
use wasm::types::ValType;
use wasm::PAGE_SIZE;

/// Builds each corpus module fresh (ModuleBuilder is consumed by build).
fn corpus() -> Vec<(&'static str, wasm::Module, Vec<Value>)> {
    let mut out: Vec<(&'static str, wasm::Module, Vec<Value>)> = Vec::new();

    // Data-segment init + every load/store width, striding across pages.
    let mut mb = ModuleBuilder::new();
    mb.memory(3, Some(4));
    mb.data_at(64, b"segment seeded bytes");
    mb.data_at(PAGE_SIZE as u32 - 4, &[1, 2, 3, 4, 5, 6, 7, 8]); // straddles pages 0/1
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local(ValType::I32); // stride index (local 1)
        b.local(ValType::I32); // checksum accumulator (local 2)
                               // Write a stride pattern: mem[i*8191 .. +4] = i across 3 pages.
        b.loop_(BlockType::Empty, |b| {
            b.local_get(1).i32(8191).mul32();
            b.local_get(1).store32(0);
            b.local_get(1)
                .i32(1)
                .add32()
                .local_tee(1)
                .i32(24)
                .lt_s32()
                .br_if(0);
        });
        // Read the pattern back (mixed widths) plus the straddling bytes.
        b.i32(0).local_set(1);
        b.loop_(BlockType::Empty, |b| {
            b.local_get(2);
            b.local_get(1).i32(8191).mul32().load32(0);
            b.add32().local_set(2);
            b.local_get(2);
            b.local_get(1).i32(8191).mul32().load8u(0);
            b.add32().local_set(2);
            b.local_get(1)
                .i32(1)
                .add32()
                .local_tee(1)
                .i32(24)
                .lt_s32()
                .br_if(0);
        });
        b.local_get(2);
        b.i32(PAGE_SIZE as i32 - 4)
            .emit(Instr::Load(LoadKind::I64, MemArg::offset(0)))
            .wrap();
        b.add32();
        b.i32(64).load8u(0);
        b.add32().local_get(0).add32();
    });
    mb.export("main", f);
    out.push(("stride_widths", mb.build(), vec![Value::I32(7)]));

    // memory.grow + memory.fill + memory.copy over the grown region.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(6));
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        // grow by 4 pages; fill a cross-page stripe; copy it forward.
        b.i32(4).emit(Instr::MemoryGrow).drop_();
        b.i32(PAGE_SIZE as i32 - 100)
            .i32(0xab)
            .i32(200)
            .emit(Instr::MemoryFill);
        b.i32(3 * PAGE_SIZE as i32 + 50)
            .i32(PAGE_SIZE as i32 - 100)
            .i32(200)
            .emit(Instr::MemoryCopy);
        // Overlapping copy (memmove semantics) inside the stripe.
        b.i32(PAGE_SIZE as i32 - 90)
            .i32(PAGE_SIZE as i32 - 100)
            .i32(60)
            .emit(Instr::MemoryCopy);
        // Checksum a few probes + the page count.
        b.i32(3 * PAGE_SIZE as i32 + 50).load8u(0);
        b.i32(PAGE_SIZE as i32 - 90).load8u(0);
        b.add32();
        b.i32(5 * PAGE_SIZE as i32 - 1).load8u(0); // untouched: zero
        b.add32();
        b.emit(Instr::MemorySize).add32();
        b.local_get(0).add32();
    });
    mb.export("main", f);
    out.push(("grow_fill_copy", mb.build(), vec![Value::I32(1)]));

    // Out-of-bounds trap parity on the paged backing.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.local_get(0)
            .local_get(0)
            .emit(Instr::Store(StoreKind::I32, MemArg::offset(0)));
        b.local_get(0);
    });
    mb.export("main", f);
    out.push((
        "oob_store",
        mb.build(),
        vec![Value::I32(PAGE_SIZE as i32 - 2)],
    ));

    // Atomics on both backings (aligned RMW + cmpxchg).
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let sig = mb.sig([ValType::I32], [ValType::I32]);
    let f = mb.func(sig, |b| {
        b.i32(128).local_get(0).store32(0);
        b.i32(128).load32(0);
        b.i32(64).load32(0); // untouched word reads zero
        b.emit(Instr::Bin(BinOp::I32Add));
    });
    mb.export("main", f);
    out.push(("zero_reads", mb.build(), vec![Value::I32(41)]));

    out
}

fn new_memory(min: u32, max: Option<u32>, paged: bool) -> Memory {
    if paged {
        Memory::new(min, max)
    } else {
        Memory::new_flat(min, max)
    }
}

fn run(module: &wasm::Module, paged: bool, args: &[Value]) -> (RunResult, Vec<u64>, Vec<u8>) {
    let linker: Linker<()> = Linker::new();
    let program =
        Arc::new(Program::link(module, &linker, SafepointScheme::LoopHeaders).expect("link"));
    let limits = program
        .memory
        .expect("corpus modules declare a memory")
        .limits;
    let memory = Arc::new(new_memory(limits.min, limits.max, paged));
    let mut inst = Instance::with_memory(program, memory).expect("instantiate");
    let main = inst.export_func("main").expect("main export");
    let mut t = Thread::new();
    let r = t.call(&mut inst, &mut (), main, args);
    let image = inst.memory.read(0, inst.memory.size()).expect("image");
    (r, inst.globals.clone(), image)
}

#[test]
fn backings_are_observationally_equivalent() {
    for (name, module, args) in corpus() {
        let (flat, gf, mf) = run(&module, false, &args);
        let (paged, gp, mp) = run(&module, true, &args);
        match (&flat, &paged) {
            (RunResult::Done(a), RunResult::Done(b)) => {
                assert_eq!(a, b, "{name}: results diverge")
            }
            (RunResult::Trapped(a), RunResult::Trapped(b)) => {
                assert_eq!(a, b, "{name}: traps diverge")
            }
            other => panic!("{name}: outcome shape diverges: {other:?}"),
        }
        assert_eq!(gf, gp, "{name}: globals diverge");
        assert_eq!(mf, mp, "{name}: final memory diverges");
    }
}

#[test]
fn paged_run_stays_lazy() {
    let (_, module, args) = corpus().remove(1); // grow_fill_copy
    let linker: Linker<()> = Linker::new();
    let program = Arc::new(Program::link(&module, &linker, SafepointScheme::LoopHeaders).unwrap());
    let mut inst = Instance::new(program).unwrap();
    assert!(inst.memory.is_paged(), "private memories are paged");
    let main = inst.export_func("main").unwrap();
    let mut t = Thread::new();
    let r = t.call(&mut inst, &mut (), main, &args);
    assert!(matches!(r, RunResult::Done(_)));
    assert_eq!(inst.memory.pages(), 5, "grew to 5 pages");
    assert!(
        inst.memory.resident_pages() < inst.memory.pages(),
        "untouched grown pages must not materialize: resident={} pages={}",
        inst.memory.resident_pages(),
        inst.memory.pages()
    );
}

/// A deterministic op script applied to a (parent, child-after-fork)
/// pair; the same script must produce identical bytes on the COW pair and
/// on the deep-copy pair.
#[derive(Clone, Copy)]
enum ForkOp {
    /// Write `len` bytes of `val` at `addr` on the parent (0) / child (1).
    Write(u8, u32, u8, u32),
    /// Fill on one side.
    Fill(u8, u32, u8, u32),
    /// Release a range on one side.
    Release(u8, u32, u32),
}

fn apply(m: &Memory, side: &Memory, op: ForkOp) {
    let pick = |who: u8| if who == 0 { m } else { side };
    match op {
        ForkOp::Write(who, addr, val, len) => {
            let bytes = vec![val; len as usize];
            pick(who).write(addr as u64, &bytes).unwrap();
        }
        ForkOp::Fill(who, addr, val, len) => {
            pick(who).fill(addr as u64, val, len as u64).unwrap();
        }
        ForkOp::Release(who, addr, len) => {
            pick(who).release(addr as u64, len as u64).unwrap();
        }
    }
}

#[test]
fn fork_write_interleavings_match_deep_copy() {
    let page = PAGE_SIZE as u32;
    let scripts: Vec<Vec<ForkOp>> = vec![
        // Parent writes after fork; child must keep the snapshot.
        vec![
            ForkOp::Write(0, 100, 0x11, 64),
            ForkOp::Write(0, 100, 0x22, 64),
            ForkOp::Write(1, page + 10, 0x33, 32),
        ],
        // Child writes first (COW copy on the child side).
        vec![
            ForkOp::Write(1, 0, 0xaa, 128),
            ForkOp::Write(0, 0, 0xbb, 128),
            ForkOp::Write(1, 64, 0xcc, 16),
        ],
        // Cross-page writes and whole-page release interleaved.
        vec![
            ForkOp::Write(1, page - 8, 0x5a, 16),
            ForkOp::Release(0, page, page),
            ForkOp::Write(0, 2 * page + 7, 0x66, 9),
            ForkOp::Fill(1, 2 * page, 0x77, 64),
            ForkOp::Release(1, 0, 2 * page),
        ],
    ];
    for (si, script) in scripts.iter().enumerate() {
        let run_pair = |paged: bool| -> (Vec<u8>, Vec<u8>) {
            let parent = new_memory(4, Some(4), paged);
            // Pre-fork state: two dirty pages, one straddling write.
            parent.write(50, b"pre-fork parent state").unwrap();
            parent
                .write(PAGE_SIZE as u64 - 4, &[9, 8, 7, 6, 5, 4, 3, 2])
                .unwrap();
            let child = parent.fork_clone();
            for &op in script {
                apply(&parent, &child, op);
            }
            (
                parent.read(0, parent.size()).unwrap(),
                child.read(0, child.size()).unwrap(),
            )
        };
        let (pf, cf) = run_pair(false);
        let (pp, cp) = run_pair(true);
        assert_eq!(pf, pp, "script {si}: parent images diverge");
        assert_eq!(cf, cp, "script {si}: child images diverge");
    }
}

#[test]
fn cow_fork_shares_until_first_write() {
    let parent = Memory::new(16, Some(16));
    for p in 0..8u64 {
        parent
            .store::<8>(p * PAGE_SIZE as u64, [p as u8; 8])
            .unwrap();
    }
    assert_eq!(parent.resident_pages(), 8);
    let child = parent.fork_clone();
    assert_eq!(child.resident_pages(), 8, "fork is O(dirty), shared");
    // One child write copies exactly one page; the rest stay shared.
    child.store::<1>(3 * PAGE_SIZE as u64, [0xff]).unwrap();
    for p in 0..8u64 {
        let expect = if p == 3 { 0xff } else { p as u8 };
        assert_eq!(child.load::<1>(p * PAGE_SIZE as u64).unwrap(), [expect]);
        assert_eq!(parent.load::<1>(p * PAGE_SIZE as u64).unwrap(), [p as u8]);
    }
}
