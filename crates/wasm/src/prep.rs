//! Preparation ("compilation"): validated structured code → flat op arrays
//! with resolved branch targets, plus safepoint insertion.
//!
//! One [`Op`] per Wasm instruction, in program order: this flat program is
//! what the reference stack loop executes and what [`crate::regir`] lowers
//! to the register tier (all superinstruction selection lives there).
//! Branches are pre-resolved to `(pc, stack-fixup)` pairs so the
//! interpreter never scans for block boundaries; the naive QEMU-analogue
//! tier in `wali-virt` deliberately skips this step.
//!
//! The result has two halves. [`Prepared`] is everything that depends on
//! the module alone — validated once, flattened, lowered, kept in a small
//! process-wide table and shared by every later link of an equal module.
//! [`Program`] is one link: that image plus the imports resolved in one
//! [`Linker`].

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use crate::error::ValidateError;
use crate::host::{HostFn, Linker};
use crate::instr::{BlockType, Instr};
use crate::module::{
    ConstExpr, DataSegment, ElemSegment, Export, FuncBody, Global, ImportDesc, Module,
};
use crate::safepoint::SafepointScheme;
use crate::types::{FuncType, MemoryType, TableType};

/// A resolved branch destination with its stack fixup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrDest {
    /// Target op index.
    pub target: u32,
    /// Absolute operand-stack height to truncate to (above locals).
    pub drop_to: u32,
    /// Number of top values carried across the branch.
    pub keep: u16,
}

/// A flattened executable operation.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum Op {
    Unreachable,
    /// Poll for pending asynchronous signals (paper §3.3).
    Safepoint,
    Br(BrDest),
    BrIf(BrDest),
    /// Inverted conditional used to lower `if`.
    BrIfZero(BrDest),
    BrTable(Box<[BrDest]>, BrDest),
    Return,
    Call(u32),
    CallIndirect(u32),
    Drop,
    Select,
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),
    Load(crate::instr::LoadKind, u64),
    Store(crate::instr::StoreKind, u64),
    MemorySize,
    MemoryGrow,
    MemoryCopy,
    MemoryFill,
    /// Raw 64-bit constant (type erased after validation).
    Const(u64),
    Un(crate::instr::UnOp),
    Bin(crate::instr::BinOp),
    Rel(crate::instr::RelOp),
    Cvt(crate::instr::CvtOp),
    AtomicNotify(u64),
    AtomicWait32(u64),
    AtomicFence,
    AtomicLoad(crate::instr::AtomicWidth, u64),
    AtomicStore(crate::instr::AtomicWidth, u64),
    AtomicRmw(crate::instr::RmwOp, u64),
    AtomicCmpxchg(u64),
}

/// A prepared function body.
#[derive(Clone, Debug)]
pub struct PreparedFunc {
    /// Type index.
    pub ty: u32,
    /// Number of parameters.
    pub params: u32,
    /// Number of declared (non-param) locals.
    pub locals: u32,
    /// Number of results.
    pub results: u32,
    /// Flat op array.
    pub ops: Box<[Op]>,
    /// Tier-2 register-IR body, when the program was lowered
    /// ([`crate::regir`]). Present on every function or on none: the
    /// interpreter never mixes tiers inside one call stack. Set by
    /// [`Prepared`]'s own lowering pass and by nothing outside the crate.
    pub(crate) reg: Option<crate::regir::RegFunc>,
}

/// A function in the combined index space.
pub enum FuncDef<T> {
    /// Imported host function.
    Host {
        /// Type index.
        ty: u32,
        /// Resolved implementation.
        f: HostFn<T>,
    },
    /// Local prepared function.
    Local(Arc<PreparedFunc>),
}

/// An error while linking a module against a [`Linker`].
#[derive(Debug)]
pub enum LinkError {
    /// Validation failed.
    Validate(ValidateError),
    /// An imported function had no host registration.
    MissingImport(String, String),
    /// Non-function imports, and function imports of more than one
    /// result, are not supported.
    UnsupportedImport(String, String),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Validate(e) => write!(f, "{e}"),
            LinkError::MissingImport(m, n) => write!(f, "missing import {m}.{n}"),
            LinkError::UnsupportedImport(m, n) => write!(f, "unsupported import kind {m}.{n}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<ValidateError> for LinkError {
    fn from(e: ValidateError) -> Self {
        LinkError::Validate(e)
    }
}

/// The linker-independent half of a program: the module's metadata and
/// its code, validated, flattened and lowered for one safepoint scheme
/// and tier. Nothing in it depends on who links it or can be changed by
/// who runs it, so every [`Program`] linked from an equal module shares
/// one image (see [`Prepared::of`]).
pub struct Prepared {
    /// Function signatures.
    pub types: Vec<FuncType>,
    /// Exports (a valid module has no two of one name).
    pub exports: Vec<Export>,
    /// Memory declaration, if any.
    pub memory: Option<MemoryType>,
    /// Table declaration, if any.
    pub table: Option<TableType>,
    /// Global declarations and initializers.
    pub globals: Vec<Global>,
    /// Active element segments.
    pub elems: Vec<ElemSegment>,
    /// Active data segments.
    pub datas: Vec<DataSegment>,
    /// Start function.
    pub start: Option<u32>,
    /// The prepared local functions, in index order: function `f` of the
    /// combined index space is `bodies[f - nimports]`.
    pub bodies: Vec<Arc<PreparedFunc>>,
    /// How many functions the module imports — the combined index space
    /// puts them first, so `f < nimports` is "`f` is a host function".
    pub nimports: u32,
    /// The canonical signature of every function in the combined index
    /// space, as [`Prepared::sig_of_type`] numbers it.
    func_sigs: Vec<u32>,
    /// A canonical id per type index: two indices get one id exactly
    /// when their [`FuncType`]s are equal.
    type_sigs: Vec<u32>,
    /// Safepoint scheme the code was prepared with.
    pub scheme: SafepointScheme,
    /// Whether the tier-2 register IR is in effect (requested *and*
    /// every local function lowered successfully).
    pub regir: bool,
    // The rest of what the image was made from, kept for
    // `is_image_of` alone: what each import is (never its name — the
    // image does not depend on it, a link resolves names from its own
    // module), the structured code, and the tier that was asked for.
    imports: Vec<ImportDesc>,
    code: Vec<FuncBody>,
    regir_requested: bool,
}

/// How many prepared images the process keeps, oldest out first. A
/// constant: the table is a memo, not a tunable.
const PREPARED_CAPACITY: usize = 16;

/// Prepared images by structural hash, oldest first (see
/// [`Prepared::of`] for the process-wide one).
struct PreparedTable {
    entries: VecDeque<(u64, Arc<Prepared>)>,
}

impl PreparedTable {
    const fn new() -> PreparedTable {
        PreparedTable {
            entries: VecDeque::new(),
        }
    }

    /// The image prepared from a module equal to `module` under the same
    /// scheme and tier. `hash` only narrows the scan: a hit is decided by
    /// comparing the modules, because the register loop runs unchecked on
    /// what was validated and a module must never run another's code.
    fn lookup(
        &self,
        hash: u64,
        module: &Module,
        scheme: SafepointScheme,
        regir: bool,
    ) -> Option<Arc<Prepared>> {
        self.entries
            .iter()
            .find(|(h, p)| *h == hash && p.is_image_of(module, scheme, regir))
            .map(|(_, p)| p.clone())
    }

    /// Adds `image`, prepared from `module`, unless an equal one got
    /// there first (two threads may both prepare a module on first
    /// sight). Returns the image kept and the one pushed out, if any, for
    /// the caller to drop once the lock is released.
    fn insert(
        &mut self,
        hash: u64,
        module: &Module,
        image: Prepared,
    ) -> (Arc<Prepared>, Option<Arc<Prepared>>) {
        if let Some(winner) = self.lookup(hash, module, image.scheme, image.regir_requested) {
            return (winner, None);
        }
        let evicted = if self.entries.len() == PREPARED_CAPACITY {
            self.entries.pop_front().map(|(_, old)| old)
        } else {
            None
        };
        let image = Arc::new(image);
        self.entries.push_back((hash, image.clone()));
        (image, evicted)
    }
}

/// Word-at-a-time multiply-rotate hasher for [`structural_hash`]. It
/// need not resist crafted collisions: the table is a bounded scan and
/// a colliding module costs one failed comparison, never a wrong hit.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The table key's hash: the scheme, the requested tier and the
/// module's declarations (imports by what they are, not by name), but
/// of the code only its shape. It narrows the scan and no more — a hit
/// compares every instruction anyway, and hashing them first would cost
/// more than that comparison; modules of one shape that differ in an
/// instruction are told apart by [`Prepared::is_image_of`].
fn structural_hash(module: &Module, scheme: SafepointScheme, regir: bool) -> u64 {
    let Module {
        types,
        imports,
        funcs,
        tables,
        memories,
        globals,
        exports,
        start,
        elems,
        datas,
        code,
    } = module;
    let mut h = WordHasher::default();
    for imp in imports {
        imp.desc.hash(&mut h);
    }
    (types, funcs, tables, memories, globals, exports).hash(&mut h);
    (start, elems, datas, scheme, regir).hash(&mut h);
    for body in code {
        (&body.locals, body.instrs.len()).hash(&mut h);
    }
    h.finish()
}

impl Prepared {
    /// The prepared image of `module`: the one this process already made
    /// from a structurally equal module under the same `scheme` and
    /// `regir` request, or a new one — validated, flattened, lowered,
    /// and remembered for the next caller. `scheme` and `regir` come
    /// from the caller, never from the environment, so the table is a
    /// memo of a pure function and invisible in results.
    pub fn of(
        module: &Module,
        scheme: SafepointScheme,
        regir: bool,
    ) -> Result<Arc<Prepared>, ValidateError> {
        static TABLE: Mutex<PreparedTable> = Mutex::new(PreparedTable::new());
        Self::of_in(&TABLE, module, scheme, regir)
    }

    /// [`Prepared::of`] on a given table. The lock is a leaf: held for a
    /// scan or an insert, never across validate/prepare/lower.
    fn of_in(
        table: &Mutex<PreparedTable>,
        module: &Module,
        scheme: SafepointScheme,
        regir: bool,
    ) -> Result<Arc<Prepared>, ValidateError> {
        // Every update leaves the deque whole, so a poisoned lock is usable.
        let lock = || table.lock().unwrap_or_else(|p| p.into_inner());
        let hash = structural_hash(module, scheme, regir);
        if let Some(seen) = lock().lookup(hash, module, scheme, regir) {
            return Ok(seen);
        }
        let image = Prepared::build(module, scheme, regir)?;
        // The guard is gone by the end of this statement: an image pushed
        // out of the table is freed after the lock, not under it.
        let (image, _evicted) = lock().insert(hash, module, image);
        Ok(image)
    }

    /// Whether this image was prepared from a module structurally equal
    /// to `module`, under the same scheme and tier request. Every field
    /// is named, so one added to [`Module`] cannot be left out.
    fn is_image_of(&self, module: &Module, scheme: SafepointScheme, regir: bool) -> bool {
        let Module {
            types,
            imports,
            funcs,
            tables,
            memories,
            globals,
            exports,
            start,
            elems,
            datas,
            code,
        } = module;
        self.scheme == scheme
            && self.regir_requested == regir
            && self.types == *types
            && self.imports.iter().eq(imports.iter().map(|i| &i.desc))
            && self.bodies.iter().map(|b| &b.ty).eq(funcs)
            // A validated module declares at most one of each.
            && self.table.as_slice() == tables.as_slice()
            && self.memory.as_slice() == memories.as_slice()
            && self.globals == *globals
            && self.exports == *exports
            && self.start == *start
            && self.elems == *elems
            && self.datas == *datas
            && self.code == *code
    }

    /// Validates `module` and prepares every local function. When
    /// `regir` is requested, every function is lowered to the register
    /// IR; if any bails, the whole program stays on the stack tier
    /// (`regir` records the effective state).
    fn build(
        module: &Module,
        scheme: SafepointScheme,
        regir: bool,
    ) -> Result<Prepared, ValidateError> {
        crate::validate::validate(module)?;

        let mut prepared: Vec<PreparedFunc> = module
            .code
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let ty_idx = module.funcs[i];
                let ty = &module.types[ty_idx as usize];
                prepare_func(module, ty_idx, ty, body, scheme)
            })
            .collect();

        // The type index of every function in the combined index space,
        // imports first.
        let nimports = module.func_imports().count();
        let func_types: Vec<u32> = module
            .func_imports()
            .map(|(_, _, ty)| ty)
            .chain(module.funcs.iter().copied())
            .collect();

        // Tier-2 lowering is all-or-nothing: a single bail keeps the
        // whole program on the stack tier so one call stack never mixes
        // frame layouts mid-flight.
        let mut regir_on = regir;
        if regir_on {
            let sigs: Vec<(u16, u16)> = func_types
                .iter()
                .map(|ty| {
                    let ty = &module.types[*ty as usize];
                    (ty.params.len() as u16, ty.results.len() as u16)
                })
                .collect();
            let lowered: Option<Vec<crate::regir::RegFunc>> = prepared
                .iter()
                .map(|p| crate::regir::lower(p, &sigs, &module.types))
                .collect();
            match lowered {
                Some(lowered) => {
                    for (p, r) in prepared.iter_mut().zip(lowered) {
                        p.reg = Some(r);
                    }
                }
                None => regir_on = false,
            }
        }

        // The lowest index holding an equal type names the signature. By
        // sorting, not by comparing all pairs: a hostile module may
        // declare as many types as it has bytes.
        let mut by_type: Vec<u32> = (0..module.types.len() as u32).collect();
        by_type.sort_unstable_by_key(|i| (&module.types[*i as usize], *i));
        let mut type_sigs = vec![0; by_type.len()];
        let mut first = 0;
        for (n, i) in by_type.into_iter().enumerate() {
            if n == 0 || module.types[i as usize] != module.types[first as usize] {
                first = i;
            }
            type_sigs[i as usize] = first;
        }
        let func_sigs = func_types
            .iter()
            .map(|ty| type_sigs[*ty as usize])
            .collect();

        Ok(Prepared {
            nimports: nimports as u32,
            func_sigs,
            type_sigs,
            types: module.types.clone(),
            exports: module.exports.clone(),
            memory: module.memories.first().copied(),
            table: module.tables.first().copied(),
            globals: module.globals.clone(),
            elems: module.elems.clone(),
            datas: module.datas.clone(),
            start: module.start,
            bodies: prepared.into_iter().map(Arc::new).collect(),
            scheme,
            regir: regir_on,
            imports: module.imports.iter().map(|i| i.desc.clone()).collect(),
            code: module.code.clone(),
            regir_requested: regir,
        })
    }

    /// The canonical id of type index `ty`: equal signatures declared at
    /// different indices share one, so the `call_indirect` check is an
    /// integer compare ([`Prepared::sig_of_func`] is the other side).
    /// `None` past the type section.
    #[inline]
    pub fn sig_of_type(&self, ty: u32) -> Option<u32> {
        self.type_sigs.get(ty as usize).copied()
    }

    /// The canonical signature id of function `func` of the combined
    /// index space; `None` when there is no such function.
    #[inline]
    pub fn sig_of_func(&self, func: u32) -> Option<u32> {
        self.func_sigs.get(func as usize).copied()
    }

    /// The signature of function `func` of the combined index space.
    pub fn func_type(&self, func: u32) -> Option<&FuncType> {
        self.types.get(self.sig_of_func(func)? as usize)
    }

    /// One past the highest byte any active data segment initializes
    /// (the conventional heap base for WALI contexts).
    pub fn data_end(&self) -> u32 {
        self.datas
            .iter()
            .map(|d| match d.offset {
                ConstExpr::I32(v) => v as u32 + d.bytes.len() as u32,
                _ => 0,
            })
            .max()
            .unwrap_or(1024)
    }

    /// Counts safepoint ops across all prepared functions (Table 3
    /// instrumentation).
    pub fn safepoint_count(&self) -> usize {
        self.bodies
            .iter()
            .map(|p| p.ops.iter().filter(|o| matches!(o, Op::Safepoint)).count())
            .sum()
    }
}

/// A validated, prepared, linked program ready to instantiate: a shared
/// [`Prepared`] image (reachable through `Deref`) plus this link's
/// binding of its imports.
pub struct Program<T> {
    /// The linker-independent image.
    pub image: Arc<Prepared>,
    /// Combined function index space (imports first), the imports
    /// resolved in the [`Linker`] this program was linked against.
    pub funcs: Vec<FuncDef<T>>,
}

impl<T> std::ops::Deref for Program<T> {
    type Target = Prepared;
    fn deref(&self) -> &Prepared {
        &self.image
    }
}

impl<T> Program<T> {
    /// Validates, prepares and links `module` against `linker`, on the
    /// tier [`crate::regir::regir_default`] selects.
    pub fn link(
        module: &Module,
        linker: &Linker<T>,
        scheme: SafepointScheme,
    ) -> Result<Program<T>, LinkError> {
        Self::link_tiered(module, linker, scheme, crate::regir::regir_default())
    }

    /// Links with explicit control over the execution tier: takes the
    /// module's [`Prepared`] image (`regir` records the effective tier)
    /// and resolves its imports in `linker`. For a module this process
    /// has prepared before, that is a hash, a comparison and one lookup
    /// per import.
    pub fn link_tiered(
        module: &Module,
        linker: &Linker<T>,
        scheme: SafepointScheme,
        regir: bool,
    ) -> Result<Program<T>, LinkError> {
        let image = Prepared::of(module, scheme, regir)?;

        let mut funcs = Vec::with_capacity(module.imports.len() + image.bodies.len());
        for imp in &module.imports {
            match &imp.desc {
                ImportDesc::Func(ty) => {
                    // A host function returns one raw slot.
                    if module.types[*ty as usize].results.len() > 1 {
                        return Err(LinkError::UnsupportedImport(
                            imp.module.clone(),
                            imp.name.clone(),
                        ));
                    }
                    let f = linker
                        .resolve(&imp.module, &imp.name)
                        .ok_or_else(|| {
                            LinkError::MissingImport(imp.module.clone(), imp.name.clone())
                        })?
                        .clone();
                    funcs.push(FuncDef::Host { ty: *ty, f });
                }
                _ => {
                    return Err(LinkError::UnsupportedImport(
                        imp.module.clone(),
                        imp.name.clone(),
                    ))
                }
            }
        }
        funcs.extend(image.bodies.iter().cloned().map(FuncDef::Local));

        Ok(Program { image, funcs })
    }
}

/// Identifies one branch-destination slot within an op, so forward-target
/// patching is precise (a `br_table` can mix loop and block targets).
#[derive(Clone, Copy, Debug)]
struct PatchRef {
    op: usize,
    slot: Slot,
}

#[derive(Clone, Copy, Debug)]
enum Slot {
    /// The single destination of `Br`/`BrIf`/`BrIfZero`.
    Single,
    /// Entry `i` of a `BrTable`.
    Table(usize),
    /// The default destination of a `BrTable`.
    TableDefault,
}

struct CtrlEntry {
    /// Op-stack height at frame entry (params already pushed below it).
    height: u32,
    /// Branch arity (start types for loops, end types otherwise).
    arity: u16,
    /// For loops, the header pc; for blocks/ifs, patch list of forward refs.
    kind: CtrlKind,
    /// Height to restore on Else/End (height + result arity).
    end_height: u32,
    /// Result arity (to restore at end).
    end_arity: u16,
    /// Start arity (params), needed by `else` re-entry.
    start_arity: u16,
}

enum CtrlKind {
    Loop {
        header: u32,
    },
    Block {
        patches: Vec<PatchRef>,
    },
    If {
        patches: Vec<PatchRef>,
        else_jump: Option<usize>,
    },
}

fn block_sig(module: &Module, bt: &BlockType) -> (u16, u16) {
    match bt {
        BlockType::Empty => (0, 0),
        BlockType::Value(_) => (0, 1),
        BlockType::Func(i) => {
            let ty = &module.types[*i as usize];
            (ty.params.len() as u16, ty.results.len() as u16)
        }
    }
}

/// Flattens one function body.
fn prepare_func(
    module: &Module,
    ty_idx: u32,
    ty: &FuncType,
    body: &FuncBody,
    scheme: SafepointScheme,
) -> PreparedFunc {
    let mut ops: Vec<Op> = Vec::with_capacity(body.instrs.len() + 8);
    let mut ctrls: Vec<CtrlEntry> = Vec::new();
    // Absolute operand-stack height (above locals); `None` in dead code.
    let mut height: Option<u32> = Some(0);

    let every = scheme == SafepointScheme::EveryInstruction;
    if scheme == SafepointScheme::FunctionEntry {
        ops.push(Op::Safepoint);
    }

    macro_rules! h {
        () => {
            height.unwrap_or(0)
        };
    }

    // The function body itself acts as the outermost block.
    ctrls.push(CtrlEntry {
        height: 0,
        arity: ty.results.len() as u16,
        kind: CtrlKind::Block {
            patches: Vec::new(),
        },
        end_height: ty.results.len() as u32,
        end_arity: ty.results.len() as u16,
        start_arity: 0,
    });

    for instr in &body.instrs {
        if every
            && !matches!(
                instr,
                Instr::Block(_) | Instr::Loop(_) | Instr::Else | Instr::End
            )
        {
            ops.push(Op::Safepoint);
        }
        match instr {
            Instr::Unreachable => {
                ops.push(Op::Unreachable);
                height = None;
            }
            Instr::Nop => {}
            Instr::Block(bt) => {
                let (p, r) = block_sig(module, bt);
                let entry = h!().saturating_sub(p as u32);
                ctrls.push(CtrlEntry {
                    height: entry,
                    arity: r,
                    kind: CtrlKind::Block {
                        patches: Vec::new(),
                    },
                    end_height: entry + r as u32,
                    end_arity: r,
                    start_arity: p,
                });
            }
            Instr::Loop(bt) => {
                let (p, r) = block_sig(module, bt);
                let entry = h!().saturating_sub(p as u32);
                let header = ops.len() as u32;
                if scheme == SafepointScheme::LoopHeaders || every {
                    ops.push(Op::Safepoint);
                }
                ctrls.push(CtrlEntry {
                    height: entry,
                    arity: p,
                    kind: CtrlKind::Loop { header },
                    end_height: entry + r as u32,
                    end_arity: r,
                    start_arity: p,
                });
            }
            Instr::If(bt) => {
                let (p, r) = block_sig(module, bt);
                // Pop the condition first.
                let after_cond = h!().saturating_sub(1);
                height = height.map(|h| h.saturating_sub(1));
                let entry = after_cond.saturating_sub(p as u32);
                let dest = BrDest {
                    target: 0,
                    drop_to: entry,
                    keep: p,
                };
                ops.push(Op::BrIfZero(dest));
                let patch_pos = ops.len() - 1;
                ctrls.push(CtrlEntry {
                    height: entry,
                    arity: r,
                    kind: CtrlKind::If {
                        patches: Vec::new(),
                        else_jump: Some(patch_pos),
                    },
                    end_height: entry + r as u32,
                    end_arity: r,
                    start_arity: p,
                });
            }
            Instr::Else => {
                let top = ctrls.last_mut().expect("validated");
                // Jump over the else arm from the end of the then arm.
                let over = ops.len();
                ops.push(Op::Br(BrDest {
                    target: 0,
                    drop_to: top.height,
                    keep: top.end_arity,
                }));
                if let CtrlKind::If { patches, else_jump } = &mut top.kind {
                    patches.push(PatchRef {
                        op: over,
                        slot: Slot::Single,
                    });
                    if let Some(pos) = else_jump.take() {
                        // The false-branch of `if` lands right here.
                        let here = ops.len() as u32;
                        patch(
                            &mut ops,
                            PatchRef {
                                op: pos,
                                slot: Slot::Single,
                            },
                            here,
                        );
                    }
                }
                height = Some(top.height + top.start_arity as u32);
            }
            Instr::End => {
                let top = ctrls.pop().expect("validated");
                let end_pc = ops.len() as u32;
                match top.kind {
                    CtrlKind::Loop { .. } => {}
                    CtrlKind::Block { patches } => {
                        for p in patches {
                            patch(&mut ops, p, end_pc);
                        }
                    }
                    CtrlKind::If { patches, else_jump } => {
                        for p in patches {
                            patch(&mut ops, p, end_pc);
                        }
                        if let Some(pos) = else_jump {
                            // No else arm: the false branch falls through
                            // to the end (keep = result arity = param
                            // arity for valid no-else ifs).
                            patch(
                                &mut ops,
                                PatchRef {
                                    op: pos,
                                    slot: Slot::Single,
                                },
                                end_pc,
                            );
                        }
                    }
                }
                height = Some(top.end_height);
                if ctrls.is_empty() {
                    // Implicit function end: emit the return below.
                    ops.push(Op::Return);
                    // Re-push a dummy root so stray trailing code (none in
                    // valid modules) does not panic.
                    ctrls.push(CtrlEntry {
                        height: top.end_height,
                        arity: top.end_arity,
                        kind: CtrlKind::Block {
                            patches: Vec::new(),
                        },
                        end_height: top.end_height,
                        end_arity: top.end_arity,
                        start_arity: 0,
                    });
                }
            }
            Instr::Br(depth) => {
                let dest = br_dest(&mut ctrls, *depth, ops.len(), Slot::Single);
                ops.push(Op::Br(dest));
                height = None;
            }
            Instr::BrIf(depth) => {
                height = height.map(|h| h.saturating_sub(1));
                let dest = br_dest(&mut ctrls, *depth, ops.len(), Slot::Single);
                ops.push(Op::BrIf(dest));
            }
            Instr::BrTable(targets, default) => {
                let pos = ops.len();
                // Reserve the op slot first so patch refs can point at it.
                ops.push(Op::Return);
                let dests: Vec<BrDest> = targets
                    .iter()
                    .enumerate()
                    .map(|(i, d)| br_dest(&mut ctrls, *d, pos, Slot::Table(i)))
                    .collect();
                let def = br_dest(&mut ctrls, *default, pos, Slot::TableDefault);
                ops[pos] = Op::BrTable(dests.into_boxed_slice(), def);
                height = None;
            }
            Instr::Return => {
                ops.push(Op::Return);
                height = None;
            }
            Instr::Call(f) => {
                let ft = module.func_type(*f).expect("validated");
                height = height
                    .map(|h| h.saturating_sub(ft.params.len() as u32) + ft.results.len() as u32);
                ops.push(Op::Call(*f));
            }
            Instr::CallIndirect(t) => {
                let ft = &module.types[*t as usize];
                height = height.map(|h| {
                    h.saturating_sub(1 + ft.params.len() as u32) + ft.results.len() as u32
                });
                ops.push(Op::CallIndirect(*t));
            }
            Instr::Drop => {
                height = height.map(|h| h.saturating_sub(1));
                ops.push(Op::Drop);
            }
            Instr::Select => {
                height = height.map(|h| h.saturating_sub(2));
                ops.push(Op::Select);
            }
            Instr::LocalGet(i) => {
                height = height.map(|h| h + 1);
                ops.push(Op::LocalGet(*i));
            }
            Instr::LocalSet(i) => {
                height = height.map(|h| h.saturating_sub(1));
                ops.push(Op::LocalSet(*i));
            }
            Instr::LocalTee(i) => ops.push(Op::LocalTee(*i)),
            Instr::GlobalGet(i) => {
                height = height.map(|h| h + 1);
                ops.push(Op::GlobalGet(*i));
            }
            Instr::GlobalSet(i) => {
                height = height.map(|h| h.saturating_sub(1));
                ops.push(Op::GlobalSet(*i));
            }
            Instr::Load(k, a) => ops.push(Op::Load(*k, a.offset as u64)),
            Instr::Store(k, a) => {
                height = height.map(|h| h.saturating_sub(2));
                ops.push(Op::Store(*k, a.offset as u64));
            }
            Instr::MemorySize => {
                height = height.map(|h| h + 1);
                ops.push(Op::MemorySize);
            }
            Instr::MemoryGrow => ops.push(Op::MemoryGrow),
            Instr::MemoryCopy => {
                height = height.map(|h| h.saturating_sub(3));
                ops.push(Op::MemoryCopy);
            }
            Instr::MemoryFill => {
                height = height.map(|h| h.saturating_sub(3));
                ops.push(Op::MemoryFill);
            }
            Instr::I32Const(v) => {
                height = height.map(|h| h + 1);
                ops.push(Op::Const(*v as u32 as u64));
            }
            Instr::I64Const(v) => {
                height = height.map(|h| h + 1);
                ops.push(Op::Const(*v as u64));
            }
            Instr::F32Const(bits) => {
                height = height.map(|h| h + 1);
                ops.push(Op::Const(*bits as u64));
            }
            Instr::F64Const(bits) => {
                height = height.map(|h| h + 1);
                ops.push(Op::Const(*bits));
            }
            Instr::Un(op) => ops.push(Op::Un(*op)),
            Instr::Bin(op) => {
                height = height.map(|h| h.saturating_sub(1));
                ops.push(Op::Bin(*op));
            }
            Instr::Rel(op) => {
                height = height.map(|h| h.saturating_sub(1));
                ops.push(Op::Rel(*op));
            }
            Instr::Cvt(op) => ops.push(Op::Cvt(*op)),
            Instr::AtomicNotify(a) => {
                height = height.map(|h| h.saturating_sub(1));
                ops.push(Op::AtomicNotify(a.offset as u64));
            }
            Instr::AtomicWait32(a) => {
                height = height.map(|h| h.saturating_sub(2));
                ops.push(Op::AtomicWait32(a.offset as u64));
            }
            Instr::AtomicFence => ops.push(Op::AtomicFence),
            Instr::AtomicLoad(w, a) => ops.push(Op::AtomicLoad(*w, a.offset as u64)),
            Instr::AtomicStore(w, a) => {
                height = height.map(|h| h.saturating_sub(2));
                ops.push(Op::AtomicStore(*w, a.offset as u64));
            }
            Instr::AtomicRmw(op, a) => {
                height = height.map(|h| h.saturating_sub(1));
                ops.push(Op::AtomicRmw(*op, a.offset as u64));
            }
            Instr::AtomicCmpxchg(a) => {
                height = height.map(|h| h.saturating_sub(2));
                ops.push(Op::AtomicCmpxchg(a.offset as u64));
            }
        }
    }
    // Implicit end of the outermost body (validated code always ends with
    // the body's own End only when nested; here instrs have no trailing
    // End, so close the root frame).
    let root = ctrls.pop().expect("root frame");
    let end_pc = ops.len() as u32;
    match root.kind {
        CtrlKind::Block { patches } => {
            for p in patches {
                patch(&mut ops, p, end_pc);
            }
        }
        _ => unreachable!("root frame is a block"),
    }
    ops.push(Op::Return);

    PreparedFunc {
        ty: ty_idx,
        params: ty.params.len() as u32,
        locals: body.local_count(),
        results: ty.results.len() as u32,
        ops: ops.into_boxed_slice(),
        reg: None,
    }
}

/// Computes a branch destination for `depth`, registering a patch if the
/// target is forward.
fn br_dest(ctrls: &mut [CtrlEntry], depth: u32, op_pos: usize, slot: Slot) -> BrDest {
    let idx = ctrls.len() - 1 - depth as usize;
    let entry = &mut ctrls[idx];
    let dest = BrDest {
        target: 0,
        drop_to: entry.height,
        keep: entry.arity,
    };
    match &mut entry.kind {
        CtrlKind::Loop { header } => BrDest {
            target: *header,
            ..dest
        },
        CtrlKind::Block { patches } | CtrlKind::If { patches, .. } => {
            patches.push(PatchRef { op: op_pos, slot });
            dest
        }
    }
}

/// Patches one branch-destination slot.
fn patch(ops: &mut [Op], at: PatchRef, target: u32) {
    let dest = match (&mut ops[at.op], at.slot) {
        (Op::Br(d), Slot::Single)
        | (Op::BrIf(d), Slot::Single)
        | (Op::BrIfZero(d), Slot::Single) => d,
        (Op::BrTable(dests, _), Slot::Table(i)) => &mut dests[i],
        (Op::BrTable(_, def), Slot::TableDefault) => def,
        (other, slot) => panic!("patching op {other:?} with slot {slot:?}"),
    };
    dest.target = target;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BinOp;
    use crate::module::FuncBody;
    use crate::types::ValType;

    fn prep_body(instrs: Vec<Instr>, results: Vec<ValType>) -> PreparedFunc {
        let module = Module {
            types: vec![FuncType {
                params: vec![],
                results,
            }],
            funcs: vec![0],
            code: vec![FuncBody {
                locals: vec![],
                instrs,
            }],
            memories: vec![MemoryType {
                limits: crate::types::Limits {
                    min: 1,
                    max: Some(2),
                },
                shared: false,
            }],
            ..Default::default()
        };
        crate::validate::validate(&module).expect("valid");
        prepare_func(
            &module,
            0,
            &module.types[0],
            &module.code[0],
            SafepointScheme::LoopHeaders,
        )
    }

    #[test]
    fn flat_code_ends_with_return() {
        let p = prep_body(vec![Instr::I32Const(7)], vec![ValType::I32]);
        assert_eq!(p.ops.last(), Some(&Op::Return));
        assert_eq!(p.ops[0], Op::Const(7));
    }

    #[test]
    fn loop_gets_safepoint_at_header() {
        let p = prep_body(
            vec![
                Instr::Loop(BlockType::Empty),
                Instr::I32Const(0),
                Instr::BrIf(0),
                Instr::End,
            ],
            vec![],
        );
        assert_eq!(p.ops[0], Op::Safepoint);
        // The back-edge must target the safepoint so every iteration polls.
        match &p.ops[2] {
            Op::BrIf(d) => assert_eq!(d.target, 0),
            other => panic!("expected BrIf, got {other:?}"),
        }
    }

    #[test]
    fn forward_branch_is_patched_past_end() {
        let p = prep_body(
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Br(0),
                Instr::I32Const(9),
                Instr::Drop,
                Instr::End,
            ],
            vec![],
        );
        // ops: Br, Const, Drop, Return — Br target = 3 (after Drop).
        match &p.ops[0] {
            Op::Br(d) => assert_eq!(d.target, 3),
            other => panic!("expected Br, got {other:?}"),
        }
    }

    #[test]
    fn if_else_lowering_targets() {
        let p = prep_body(
            vec![
                Instr::I32Const(1),
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::I32Const(10),
                Instr::Else,
                Instr::I32Const(20),
                Instr::End,
                Instr::Drop,
            ],
            vec![],
        );
        // ops: Const(1), BrIfZero->else, Const(10), Br->end, Const(20), Drop, Return
        match &p.ops[1] {
            Op::BrIfZero(d) => assert_eq!(d.target, 4),
            other => panic!("{other:?}"),
        }
        match &p.ops[3] {
            Op::Br(d) => assert_eq!(d.target, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_instruction_scheme_polls_densely() {
        let module = Module {
            types: vec![FuncType {
                params: vec![],
                results: vec![ValType::I32],
            }],
            funcs: vec![0],
            code: vec![FuncBody {
                locals: vec![],
                instrs: vec![
                    Instr::I32Const(1),
                    Instr::I32Const(2),
                    Instr::Bin(BinOp::I32Add),
                ],
            }],
            ..Default::default()
        };
        crate::validate::validate(&module).unwrap();
        let p = prepare_func(
            &module,
            0,
            &module.types[0],
            &module.code[0],
            SafepointScheme::EveryInstruction,
        );
        let polls = p.ops.iter().filter(|o| matches!(o, Op::Safepoint)).count();
        assert_eq!(polls, 3);
    }

    /// `main` returns `v`, after a loop so the schemes differ; with
    /// `import`, it also imports (and never calls) `env.<import>`.
    fn konst(v: i32, import: Option<&str>) -> Module {
        let mut mb = crate::build::ModuleBuilder::new();
        if let Some(name) = import {
            let sig = mb.sig([], []);
            mb.import_func("env", name, sig);
        }
        let sig = mb.sig([], [ValType::I32]);
        let main = mb.func(sig, |b| {
            b.loop_(BlockType::Empty, |b| {
                b.i32(0).br_if(0);
            });
            b.i32(v);
        });
        mb.export("main", main);
        mb.build()
    }

    const LOOPS: SafepointScheme = SafepointScheme::LoopHeaders;

    fn table() -> Mutex<PreparedTable> {
        Mutex::new(PreparedTable::new())
    }

    fn len(table: &Mutex<PreparedTable>) -> usize {
        table.lock().unwrap().entries.len()
    }

    #[test]
    fn an_equal_module_shares_the_image_and_one_immediate_splits_it() {
        let t = table();
        let one = Prepared::of_in(&t, &konst(1, None), LOOPS, true).unwrap();
        let again = Prepared::of_in(&t, &konst(1, None), LOOPS, true).unwrap();
        let two = Prepared::of_in(&t, &konst(2, None), LOOPS, true).unwrap();
        assert!(Arc::ptr_eq(&one, &again));
        assert!(!Arc::ptr_eq(&one, &two));
        assert_ne!(one.bodies[0].ops, two.bodies[0].ops);
        assert_eq!(len(&t), 2);
        // The two have one shape, so the hash alone cannot tell them
        // apart: the comparison did.
        assert_eq!(
            structural_hash(&konst(1, None), LOOPS, true),
            structural_hash(&konst(2, None), LOOPS, true)
        );
    }

    #[test]
    fn a_hash_collision_is_a_miss() {
        let t = table();
        let (a, b) = (konst(1, None), konst(1, Some("f")));
        let hash_a = structural_hash(&a, LOOPS, true);
        assert_ne!(hash_a, structural_hash(&b, LOOPS, true));
        Prepared::of_in(&t, &a, LOOPS, true).unwrap();
        let t = t.lock().unwrap();
        assert!(t.lookup(hash_a, &a, LOOPS, true).is_some());
        // `b` presented under `a`'s hash — a collision — finds nothing.
        assert!(t.lookup(hash_a, &b, LOOPS, true).is_none());
    }

    #[test]
    fn import_names_are_not_part_of_the_image() {
        let t = table();
        let f = Prepared::of_in(&t, &konst(1, Some("f")), LOOPS, true).unwrap();
        let g = Prepared::of_in(&t, &konst(1, Some("g")), LOOPS, true).unwrap();
        assert!(Arc::ptr_eq(&f, &g));
        // Each link still binds its own module's names.
        let mut linker: Linker<()> = Linker::new();
        linker.func_raw("env", "f", |_, _| Ok(0));
        assert!(Program::link_tiered(&konst(1, Some("f")), &linker, LOOPS, true).is_ok());
        assert!(matches!(
            Program::link_tiered(&konst(1, Some("g")), &linker, LOOPS, true),
            Err(LinkError::MissingImport(_, name)) if name == "g"
        ));
    }

    #[test]
    fn scheme_and_tier_are_part_of_the_key() {
        let t = table();
        let m = konst(1, None);
        let loops = Prepared::of_in(&t, &m, LOOPS, true).unwrap();
        let entry = Prepared::of_in(&t, &m, SafepointScheme::FunctionEntry, true).unwrap();
        let stack = Prepared::of_in(&t, &m, LOOPS, false).unwrap();
        assert_eq!(len(&t), 3);
        assert_ne!(loops.bodies[0].ops, entry.bodies[0].ops);
        assert_eq!(loops.bodies[0].ops, stack.bodies[0].ops);
        assert!(loops.regir && loops.bodies[0].reg.is_some());
        assert!(!stack.regir && stack.bodies[0].reg.is_none());
    }

    #[test]
    fn an_invalid_module_is_never_kept_and_fails_the_same_way_twice() {
        // `main` promises an i32 and leaves nothing.
        let mut bad = konst(1, Some("missing"));
        bad.code[0].instrs.pop();
        let t = table();
        for _ in 0..2 {
            assert!(Prepared::of_in(&t, &bad, LOOPS, true).is_err());
            assert_eq!(len(&t), 0);
        }
        // Validation comes before import resolution, on first sight and
        // on every later one; a valid module's missing import is reported
        // by the link that misses it, image found or not.
        let linker: Linker<()> = Linker::new();
        let good = konst(1, Some("missing"));
        for _ in 0..2 {
            assert!(matches!(
                Program::link_tiered(&bad, &linker, LOOPS, true),
                Err(LinkError::Validate(_))
            ));
            assert!(matches!(
                Program::link_tiered(&good, &linker, LOOPS, true),
                Err(LinkError::MissingImport(..))
            ));
        }
    }

    #[test]
    fn the_oldest_image_is_pushed_out_and_prepared_again_on_demand() {
        let t = table();
        let first = Prepared::of_in(&t, &konst(100, None), LOOPS, true).unwrap();
        for i in 1..=PREPARED_CAPACITY as i32 {
            Prepared::of_in(&t, &konst(100 + i, None), LOOPS, true).unwrap();
        }
        assert_eq!(len(&t), PREPARED_CAPACITY);
        let again = Prepared::of_in(&t, &konst(100, None), LOOPS, true).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "the first image was evicted");
        assert_eq!(first.bodies[0].ops, again.bodies[0].ops);
        assert_eq!(len(&t), PREPARED_CAPACITY);
    }

    #[test]
    fn function_entry_scheme_polls_once() {
        let module = Module {
            types: vec![FuncType {
                params: vec![],
                results: vec![],
            }],
            funcs: vec![0],
            code: vec![FuncBody {
                locals: vec![],
                instrs: vec![Instr::Nop],
            }],
            ..Default::default()
        };
        crate::validate::validate(&module).unwrap();
        let p = prepare_func(
            &module,
            0,
            &module.types[0],
            &module.code[0],
            SafepointScheme::FunctionEntry,
        );
        assert_eq!(p.ops[0], Op::Safepoint);
        let polls = p.ops.iter().filter(|o| matches!(o, Op::Safepoint)).count();
        assert_eq!(polls, 1);
    }
}
