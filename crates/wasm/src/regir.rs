//! Tier-2 lowering: the flattened stack machine → a virtual-register IR.
//!
//! [`lower`] abstract-interprets a [`PreparedFunc`]'s operand stack at
//! prepare time and emits three-address superinstructions
//! (`r3 = add r1, r2`, `br_if_lt r1, #c, L`) that [`crate::interp`]
//! executes with no value-stack traffic on straight-line code. Its input
//! is the plain one-op-per-instruction program of [`crate::prep`]; every
//! superinstruction the engine has is chosen here (lazy operands, the
//! store-redirect and compare-branch rewrites, the `peephole` pass, the
//! chains and the operator-specialised variants).
//!
//! # Register frame layout
//!
//! The register file of a frame *is* a fixed-size window of the thread's
//! value stack: register `r` lives at `stack[frame.base + r]`. Registers
//! `0..nlocals` are the params + declared locals (the same slots the
//! stack tier uses); register `nlocals + d` is the **canonical** home of
//! operand-stack position `d`. `nregs = nlocals + max_height` and the
//! stack is kept at exactly `base + nregs` slots while a register frame
//! runs. Because the layout is a superset of the stack tier's frame
//! prefix, `Thread` clone (fork), suspension (execve/clone/exit) and
//! safepoint re-entry for signal handlers all work unchanged — every
//! live value is always spilled in the frame, there is no hidden cache
//! to reconcile.
//!
//! # Lowering rules (the "linear-scan" allocator)
//!
//! The abstract stack holds `Abs` values: `Reg(r)` (the value lives in
//! register `r`) or `Imm(k)` (a compile-time constant). Allocation is a
//! degenerate linear scan with zero interference: position `d` always
//! maps to register `nlocals + d`, so lifetimes never overlap and no
//! spilling beyond the canonical home is ever needed. Laziness is the
//! win: `local.get` pushes `Reg(local)` and `const` pushes `Imm` without
//! emitting code, so a stack-machine `local.get x; local.get y; add;
//! local.set z` collapses to one `Bin { dst: z, a: Reg(x), b: Reg(y) }`.
//!
//! Only side-effect-free values (constants and local reads) are
//! deferred; loads, calls and global reads are emitted at their original
//! program point, so trap order and memory-effect order are preserved
//! exactly. Constant operands fold at lowering time when the operation
//! cannot trap (a `div` by a constant zero is emitted, not folded, so
//! the trap still fires in program order).
//!
//! # Branch-target barrier
//!
//! Every branch target ("label") requires the abstract stack in
//! **canonical form** — position `d` in register `nlocals + d`.
//! Fallthrough paths flush lazy entries with `Mov`s *before* the label's
//! pc; taken branches flush what the target reads and carry a statically
//! resolved copy `(src, dst, keep)` in [`RBr`] (a no-op when
//! `src == dst`). No lazy state flows across a label, and the same
//! barrier index blocks the store-redirect and compare-branch peepholes
//! from rewriting ops emitted before one: a jump must land on code that
//! does exactly what the instructions after the label do.
//!
//! # Specialisation
//!
//! Lowering and the peephole emit *generic* instructions: a value op
//! carries its operator as a field (`Bin { op, a, b }`) and each operand
//! as an [`RSrc`], so executing one means a second `match` on the
//! operator and a register-or-constant select per operand. For four
//! families the engine also has variants that *name* the operator and
//! the operand kinds — `I64AddRC { dst, a, b }` is `i64.add` of register
//! `a` and pool constant `b` — which the dispatch loop reaches with one
//! indirect branch (`spec_table!`): the integer binary operators that
//! cannot trap, the base-plus-index load, the back edge of a counted
//! loop (`i32.add` of a constant, then `lt_s`/`lt_u`/`ne` and a branch),
//! and fused pairs with both operators named (`I64MulI32AddRCRC` is
//! `i64.mul` by a constant, then `i32.add` of a constant, in one arm).
//! The table is sized from measured traffic, not from the operator
//! enums: these are the families that the one interpreter-bound workload
//! spends its dispatches in and whose removal shows end to end, and a
//! pair gets a row when it is at least 1 % of some workload's dispatches
//! (DESIGN.md "Tier-2 register IR" has the execution histograms over
//! every workload and the ablations); everything else — moves, compares,
//! branches, unary operators, conversions, plain loads and stores,
//! `select`, all floating point, the other pairs — stays generic, because
//! switching its variants off moved no workload. The last pass,
//! `specialise`, rewrites `Bin`, the fused pairs and the fused back edge
//! in place; the indexed load is built
//! named by the peephole that fuses it. Either way the rewrite is one for
//! one — same op count, same pcs, same branch targets — so it moves no
//! step count, preemption point or handler resume pc; and a variant's arm
//! in the loop calls the same `eval_*` function as the generic arm, with
//! a literal operator, so arithmetic has one definition (which the
//! reference stack loop shares).
//!
//! # Chains
//!
//! The pass before `specialise`, `chain`, is the one that changes op
//! counts on purpose. A chain row of the table names a run of adjacent
//! ops — at most `MAX_CHAIN` steps, a fused pair being two — in which
//! later steps read earlier steps' results; the run becomes one op, one
//! dispatch and one step of fuel. Its arm keeps each such result (a
//! *link*) in a host register for the steps that read it, and the links
//! are not fields of the op, which is how five steps fit in 24 bytes. It
//! still writes every destination to the frame, in program order, so the
//! frame stays canonical. The round fuses a run only where its registers
//! carry every link (the operand reads the register its step wrote, and
//! no step between wrote it again), where no step but a leading load can
//! trap, and where no op but the first is a branch target; a run that
//! ends in a branch ends the chain. Two rows exist, the two runs that are
//! at least 1 % of some workload's dispatches.
//!
//! # Bail-out
//!
//! `lower` returns `None` when a function cannot be lowered (register
//! index beyond `u16`, inconsistent label heights — both defensive; they
//! do not occur for validated modules) or when the result does not pass
//! `validated`, the bounds check the unchecked dispatch loop relies on.
//! The caller then runs the whole program on the stack tier: mixing tiers
//! inside one call stack is never attempted.

use std::collections::HashMap;

use crate::instr::{AtomicWidth, BinOp, CvtOp, LoadKind, RelOp, RmwOp, StoreKind, UnOp};
use crate::interp::{eval_bin, eval_cvt, eval_rel, eval_un};
use crate::prep::{BrDest, Op, PreparedFunc};
use crate::types::FuncType;

/// A register-or-immediate operand of a register-IR instruction.
///
/// Immediates are indices into the function's constant pool
/// ([`RegFunc::consts`]) rather than inline `u64`s: that keeps `RSrc` at
/// 4 bytes and the whole [`ROp`] within 24, so the dispatch loop walks a
/// dense op array instead of a 64-byte-stride one (the op fetch is the
/// hottest load in the interpreter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RSrc {
    /// Register index (slot `frame.base + r` of the value stack).
    Reg(u16),
    /// Constant-pool index (raw 64-bit representation in the pool).
    Const(u16),
}

/// A resolved register-IR branch destination with its register fixup:
/// jump to `target` after copying `keep` registers from `src..` down to
/// `dst..` (the canonical home of the values carried across the branch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RBr {
    /// Target op index in the lowered code.
    pub target: u32,
    /// First source register of the kept values.
    pub src: u16,
    /// First destination register (`nlocals + drop_to`).
    pub dst: u16,
    /// Number of values carried across the branch.
    pub keep: u16,
    /// Poll for signals after the jump. Set by [`lower`]'s safepoint
    /// fold: a branch whose target is a `Safepoint` (the loop-header
    /// scheme's back edge) is retargeted one op past it and polls
    /// inline, saving the header dispatch on every iteration while
    /// keeping the poll points — and the handler resume pc — identical
    /// to the stack tier's.
    pub poll: bool,
}

/// The specialisation table — every operator-specialised variant of
/// [`ROp`], named once. `spec_table!(callback)` hands the whole table to
/// `callback!`; its four consumers are the enum definition, the rewrite
/// ([`specialise`] and the indexed-load constructor), the bounds check of
/// the variants ([`validated`]) and the dispatch arms in
/// [`crate::interp`]. A variant's suffix spells its operand kinds in
/// operand order: `R` a register index, `C` a constant-pool index.
///
/// A family is in the table because its traffic and its effect were
/// measured (module docs, "Specialisation"), in every operand form
/// lowering emits for it: reg·reg and reg·const for a three-address op,
/// both halves' forms for a pair. What the table does not name runs the
/// generic arm, which is total.
macro_rules! spec_table {
    ($callback:ident) => {
        $callback! {
            // `dst = a op b` for the integer operators that cannot trap:
            // operator => reg·reg reg·const. A constant on the left of an
            // operator that commutes is turned around; on the left of one
            // that does not, the instruction stays generic.
            bin {
                I32Add => I32AddRR I32AddRC;
                I32Sub => I32SubRR I32SubRC;
                I32Mul => I32MulRR I32MulRC;
                I32And => I32AndRR I32AndRC;
                I32Or => I32OrRR I32OrRC;
                I32Xor => I32XorRR I32XorRC;
                I32Shl => I32ShlRR I32ShlRC;
                I32ShrS => I32ShrSRR I32ShrSRC;
                I32ShrU => I32ShrURR I32ShrURC;
                I32Rotl => I32RotlRR I32RotlRC;
                I32Rotr => I32RotrRR I32RotrRC;
                I64Add => I64AddRR I64AddRC;
                I64Sub => I64SubRR I64SubRC;
                I64Mul => I64MulRR I64MulRC;
                I64And => I64AndRR I64AndRC;
                I64Or => I64OrRR I64OrRC;
                I64Xor => I64XorRR I64XorRC;
                I64Shl => I64ShlRR I64ShlRC;
                I64ShrS => I64ShrSRR I64ShrSRC;
                I64ShrU => I64ShrURR I64ShrURC;
                I64Rotl => I64RotlRR I64RotlRC;
                I64Rotr => I64RotrRR I64RotrRC;
            }
            // `dst = load(a + b + offset)`, the base-plus-index load the
            // peephole fuses, by what the load does to the bytes (kinds that
            // agree share a row): kinds => reg·reg reg·const (`i32.add`
            // commutes, and two constants fold before they get here).
            load_idx {
                I32 | F32 | I64_32U => LoadIdx32RR LoadIdx32RC;
                I64 | F64 => LoadIdx64RR LoadIdx64RC;
                I32_8U | I64_8U => LoadIdx8URR LoadIdx8URC;
                I32_8S => LoadIdx8S32RR LoadIdx8S32RC;
                I64_8S => LoadIdx8S64RR LoadIdx8S64RC;
                I32_16U | I64_16U => LoadIdx16URR LoadIdx16URC;
                I32_16S => LoadIdx16S32RR LoadIdx16S32RC;
                I64_16S => LoadIdx16S64RR LoadIdx16S64RC;
                I64_32S => LoadIdx32S64RR LoadIdx32S64RC;
            }
            // `dst = a + #b; if (dst op c) == if_true goto target` — the back
            // edge of a counted loop, the one shape of [`ROp::BinRelBr`] worth
            // its own arm: comparison => limit in a register, limit a constant.
            addbr {
                I32LtS => AddI32LtSBrR AddI32LtSBrC;
                I32LtU => AddI32LtUBrR AddI32LtUBrC;
                I32Ne => AddI32NeBrR AddI32NeBrC;
            }
            // A fused pair with both operators named, by shape: the pairs
            // that are at least 1 % of some workload's dispatches. Each in
            // every operand form its halves take, turned around as `bin`
            // turns them (the conversion's operand is always a register:
            // lowering folds a constant one).
            pair {
                // `dst1 = a op1 b; dst2 = a2 op2 b2` => RRRR RRRC RCRR RCRC.
                bin2 {
                    I64Mul; I32Add => I64MulI32AddRRRR I64MulI32AddRRRC
                        I64MulI32AddRCRR I64MulI32AddRCRC;
                }
                // `dst1 = cvt a; dst2 = a2 op b2` => RRR RRC.
                cvt_bin {
                    I64ExtendI32U; I64Add => ExtendUI64AddRRR ExtendUI64AddRRC;
                }
                // `dst = a op b; if (dst rel c) == if_true goto target`
                // off the back edge => RRR RRC RCR RCC.
                bin_rel_br {
                    I32And; I32Eq => I32AndEqBrRRR I32AndEqBrRRC
                        I32AndEqBrRCR I32AndEqBrRCC;
                }
            }
            // Chains: runs of adjacent ops, each at least 1 % of some
            // workload's dispatches, in one arm that hands each result to
            // the steps that read it in a host register (a link, `l i`:
            // step `i`'s result) and still writes every destination. A step
            // is `i: kind operator (operands) -> dst`; an operand is `r f`
            // (register field `f`), `k f` (pool field `f`) or a link. Links
            // are not fields. Only a load may trap, and only as step 0.
            chain {
                // The lua loop's accumulator: `acc + #k`, `extend_u op`,
                // their sum, `* #31` — and its independent `i += #1`.
                I64AddExtendAddMulI32AddRCRCRC {
                    a0: u16, b0: u16, d0: u16, a1: u16, d1: u16, d2: u16,
                    b3: u16, d3: u16, a4: u16, b4: u16, d4: u16
                } =
                    0: bin I64Add (r a0, k b0) -> d0;
                    1: cvt I64ExtendI32U (r a1) -> d1;
                    2: bin I64Add (l 0, l 1) -> d2;
                    3: bin I64Mul (l 2, k b3) -> d3;
                    4: bin I32Add (r a4, k b4) -> d4;
            }
            // Chains that end in a compare-and-branch on a link (`=> rel`),
            // `if (x rel y) == if_true goto target`.
            chain_br {
                // The lua loop's opcode decode: `script[pc] & #7 == #4`.
                Load8UAndEqBrRCCC { a0: u16, b0: u16, off: u32, d0: u16, b1: u16, d1: u16, c: u16 } =
                    0: load_idx I32_8U (r a0, k b0) + off -> d0;
                    1: bin I32And (l 0, k b1) -> d1;
                    => I32Eq (l 1, k c);
            }
        }
    };
}
pub(crate) use spec_table;

/// The longest chain, in steps (a fused pair is two).
pub(crate) const MAX_CHAIN: usize = 5;

/// Defines [`ROp`]: the generic instructions written out here, then one
/// variant per entry of [`spec_table!`].
macro_rules! define_rop {
    (
        bin { $($bop:ident => $brr:ident $brc:ident;)* }
        load_idx { $($lk:ident $(| $lks:ident)* => $xrr:ident $xrc:ident;)* }
        addbr { $($aop:ident => $ar:ident $ac:ident;)* }
        pair {
            bin2 {
                $($p1:ident; $p2:ident => $prrrr:ident $prrrc:ident $prcrr:ident $prcrc:ident;)*
            }
            cvt_bin { $($pcvt:ident; $pbin:ident => $crrr:ident $crrc:ident;)* }
            bin_rel_br {
                $($qop:ident; $qrel:ident => $qrrr:ident $qrrc:ident $qrcr:ident $qrcc:ident;)*
            }
        }
        chain {
            $(
                $chn:ident { $($cf:ident: $cty:ty),* } =
                $($ci:literal: $ck:ident $cop:ident ($($cm:ident $cv:tt),*) $(+ $coff:ident)? -> $cd:ident;)*
            )*
        }
        chain_br {
            $(
                $bn:ident { $($bf:ident: $bty:ty),* } =
                $($bi:literal: $bk:ident $bo:ident ($($bm:ident $bv:tt),*) $(+ $boff:ident)? -> $bd:ident;)*
                => $brel:ident ($xm:ident $xv:tt, $ym:ident $yv:tt);
            )*
        }
    ) => {
        /// A register-IR instruction. `dst` fields are always register
        /// indices. The generic forms come first: their operands are
        /// [`RSrc`] so immediates fold into the using instruction, and
        /// value operators are a field. After them, the variants of
        /// `spec_table!`, which *name* their operator and operand
        /// kinds — the `R`/`C` suffixes, see the module docs — and whose
        /// operands are bare register or pool indices.
        #[derive(Clone, Debug, PartialEq)]
        #[allow(missing_docs)]
        pub enum ROp {
            Unreachable,
            /// Poll for pending asynchronous signals (paper §3.3). Registers are
            /// already canonical in-frame, so handler re-entry needs no spill.
            Safepoint,
            Mov {
                dst: u16,
                src: RSrc,
            },
            Br(RBr),
            BrIf {
                cond: RSrc,
                dest: RBr,
            },
            BrIfZero {
                cond: RSrc,
                dest: RBr,
            },
            /// Fused compare-and-branch (`br_if_lt r1, #c, L`): branch when the
            /// relation's truth equals `if_true`.
            RelBr {
                op: RelOp,
                a: RSrc,
                b: RSrc,
                if_true: bool,
                dest: RBr,
            },
            /// The jump table is boxed out-of-line: it is the one
            /// unbounded-payload op and would otherwise set the size of every
            /// `ROp` in the array.
            BrTable {
                idx: RSrc,
                table: Box<RTable>,
            },
            /// Copy `n` result registers starting at `src` down to the frame
            /// base and pop the frame.
            Return {
                src: u16,
                n: u16,
            },
            /// Call with the arguments already in canonical registers ending at
            /// `top`; the stack is truncated to `base + top` so the callee frame
            /// starts right on the arguments.
            Call {
                func: u32,
                top: u16,
                nargs: u16,
            },
            CallIndirect {
                ty: u32,
                idx: RSrc,
                top: u16,
                nargs: u16,
            },
            Select {
                dst: u16,
                cond: RSrc,
                a: RSrc,
                b: RSrc,
            },
            GlobalGet {
                dst: u16,
                idx: u32,
            },
            GlobalSet {
                idx: u32,
                src: RSrc,
            },
            Load {
                dst: u16,
                kind: LoadKind,
                addr: RSrc,
                offset: u32,
            },
            Store {
                kind: StoreKind,
                addr: RSrc,
                val: RSrc,
                offset: u32,
            },
            MemorySize {
                dst: u16,
            },
            MemoryGrow {
                dst: u16,
                delta: RSrc,
            },
            MemoryCopy {
                dst: RSrc,
                src: RSrc,
                len: RSrc,
            },
            MemoryFill {
                dst: RSrc,
                val: RSrc,
                len: RSrc,
            },
            Un {
                dst: u16,
                op: UnOp,
                a: RSrc,
            },
            Bin {
                dst: u16,
                op: BinOp,
                a: RSrc,
                b: RSrc,
            },
            Rel {
                dst: u16,
                op: RelOp,
                a: RSrc,
                b: RSrc,
            },
            Cvt {
                dst: u16,
                op: CvtOp,
                a: RSrc,
            },
            /// Peephole superinstruction: two adjacent binary ops in one
            /// dispatch. `dst1` is written before the second op's operands are
            /// read, so the register file is observably identical to the two-op
            /// sequence whether or not the second consumes the first's result —
            /// the fusion needs no liveness or dataflow information.
            Bin2 {
                op1: BinOp,
                a: RSrc,
                b: RSrc,
                dst1: u16,
                op2: BinOp,
                a2: RSrc,
                b2: RSrc,
                dst2: u16,
            },
            /// Peephole superinstruction: a conversion followed by a binary op
            /// (same write-before-read contract as [`ROp::Bin2`]).
            CvtBin {
                cvt: CvtOp,
                a: RSrc,
                dst1: u16,
                op: BinOp,
                a2: RSrc,
                b2: RSrc,
                dst2: u16,
            },
            /// Peephole superinstruction: a binary op whose result is the left
            /// operand of a compare-and-branch (`dst = a op b; br_if (v rel c)
            /// == if_true, target`) — the shape of every `i += 1; if i < n`
            /// back edge. Only fuses register-fixup-free branches
            /// (`keep == 0`), so the destination is a bare `target`/`poll`
            /// pair.
            BinRelBr {
                op: BinOp,
                a: RSrc,
                b: RSrc,
                dst: u16,
                rel: RelOp,
                c: RSrc,
                if_true: bool,
                target: u32,
                poll: bool,
            },
            AtomicNotify {
                dst: u16,
                addr: RSrc,
                count: RSrc,
                offset: u32,
            },
            AtomicWait32 {
                dst: u16,
                addr: RSrc,
                expected: RSrc,
                timeout: RSrc,
                offset: u32,
            },
            AtomicFence,
            AtomicLoad {
                dst: u16,
                width: AtomicWidth,
                addr: RSrc,
                offset: u32,
            },
            AtomicStore {
                width: AtomicWidth,
                addr: RSrc,
                val: RSrc,
                offset: u32,
            },
            AtomicRmw {
                dst: u16,
                op: RmwOp,
                addr: RSrc,
                val: RSrc,
                offset: u32,
            },
            AtomicCmpxchg {
                dst: u16,
                addr: RSrc,
                expected: RSrc,
                new: RSrc,
                offset: u32,
            },
            $(
                $brr { dst: u16, a: u16, b: u16 },
                $brc { dst: u16, a: u16, b: u16 },
            )*
            // Peephole superinstruction (`a + b` address feeding a load whose
            // result overwrites the address scratch): one dispatch for the
            // ubiquitous base-plus-index addressing pattern. It has no
            // generic form: `load_idx` builds it named.
            $(
                $xrr { dst: u16, a: u16, b: u16, offset: u32 },
                $xrc { dst: u16, a: u16, b: u16, offset: u32 },
            )*
            $(
                $ar { a: u16, b: u16, dst: u16, c: u16, if_true: bool, target: u32, poll: bool },
                $ac { a: u16, b: u16, dst: u16, c: u16, if_true: bool, target: u32, poll: bool },
            )*
            // The named fused pairs: the fields of `Bin2`, `CvtBin` and
            // `BinRelBr`, the operators dropped.
            $(
                $prrrr { a: u16, b: u16, dst1: u16, a2: u16, b2: u16, dst2: u16 },
                $prrrc { a: u16, b: u16, dst1: u16, a2: u16, b2: u16, dst2: u16 },
                $prcrr { a: u16, b: u16, dst1: u16, a2: u16, b2: u16, dst2: u16 },
                $prcrc { a: u16, b: u16, dst1: u16, a2: u16, b2: u16, dst2: u16 },
            )*
            $(
                $crrr { a: u16, dst1: u16, a2: u16, b2: u16, dst2: u16 },
                $crrc { a: u16, dst1: u16, a2: u16, b2: u16, dst2: u16 },
            )*
            $(
                $qrrr { a: u16, b: u16, dst: u16, c: u16, if_true: bool, target: u32, poll: bool },
                $qrrc { a: u16, b: u16, dst: u16, c: u16, if_true: bool, target: u32, poll: bool },
                $qrcr { a: u16, b: u16, dst: u16, c: u16, if_true: bool, target: u32, poll: bool },
                $qrcc { a: u16, b: u16, dst: u16, c: u16, if_true: bool, target: u32, poll: bool },
            )*
            // The chains: each step's register and pool fields and its
            // destination; a chain that branches adds the branch's.
            $($chn { $($cf: $cty),* },)*
            $($bn { $($bf: $bty,)* if_true: bool, target: u32, poll: bool },)*
        }
    };
}
spec_table!(define_rop);

/// An out-of-line `br_table` jump table (see [`ROp::BrTable`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RTable {
    /// Destination per index value.
    pub dests: Box<[RBr]>,
    /// Destination for out-of-range indices.
    pub default: RBr,
}

/// A function body lowered to the register IR.
///
/// The dispatch loop runs it without bounds checks, on the strength of
/// what `validated` established — so the fields are private to this
/// module and a body exists only as [`lower`] made it: nothing can build
/// one from parts or edit one in place.
///
/// ```compile_fail
/// // Private fields: no struct literal outside `wasm::regir`.
/// let _ = wasm::regir::RegFunc {
///     nregs: 1,
///     ops: Box::new([]),
///     consts: Box::new([]),
/// };
/// ```
#[derive(Clone, Debug)]
pub struct RegFunc {
    /// Frame size in registers: `params + locals + max operand height`.
    nregs: u32,
    /// Flat register-IR op array (branch targets index into it).
    ops: Box<[ROp]>,
    /// Constant pool referenced by [`RSrc::Const`] operands.
    consts: Box<[u64]>,
}

impl RegFunc {
    /// Frame size in registers: `params + locals + max operand height`.
    pub fn nregs(&self) -> u32 {
        self.nregs
    }

    /// The flat register-IR op array (branch targets index into it).
    pub fn ops(&self) -> &[ROp] {
        &self.ops
    }

    /// The constant pool [`RSrc::Const`] operands refer to.
    pub fn consts(&self) -> &[u64] {
        &self.consts
    }

    /// Whether the body passes the bounds check the unchecked dispatch
    /// loop relies on (`validated`), as every body [`lower`] returns does
    /// — test support for code that reaches a body only from outside.
    pub fn in_bounds(&self) -> bool {
        validated(self.clone()).is_some()
    }

    /// The pool value behind a [`RSrc::Const`] operand (`None` for
    /// registers) — diagnostics and test support.
    pub fn const_of(&self, s: RSrc) -> Option<u64> {
        match s {
            RSrc::Reg(_) => None,
            RSrc::Const(i) => self.consts.get(i as usize).copied(),
        }
    }
}

/// The process-wide default for the register tier: on, unless the
/// `WALI_NO_REGIR` environment variable is set (selects the reference
/// stack loop, which the tier gates and the fuzzer compare against).
pub fn regir_default() -> bool {
    std::env::var_os("WALI_NO_REGIR").is_none()
}

/// An abstract operand-stack entry during lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Abs {
    /// The value lives in register `r` (a local, or a canonical slot).
    Reg(u16),
    /// Compile-time constant.
    Imm(u64),
}

struct Lowerer {
    nlocals: u32,
    results: u32,
    out: Vec<ROp>,
    stack: Vec<Abs>,
    max_height: usize,
    /// Ops below this index sit before a label: peepholes must not
    /// rewrite or remove them (the register-IR branch-target barrier).
    barrier: usize,
    /// Deduplicated constant pool (`RSrc::Const` operands index it).
    consts: Vec<u64>,
    const_ix: HashMap<u64, u16>,
}

impl Lowerer {
    /// Interns a constant into the pool (bails past `u16::MAX` entries —
    /// the caller falls back to the stack tier).
    fn imm(&mut self, k: u64) -> Option<RSrc> {
        if let Some(&i) = self.const_ix.get(&k) {
            return Some(RSrc::Const(i));
        }
        let i = u16::try_from(self.consts.len()).ok()?;
        self.consts.push(k);
        self.const_ix.insert(k, i);
        Some(RSrc::Const(i))
    }

    /// Abstract value → instruction operand (interning immediates).
    fn rsrc(&mut self, a: Abs) -> Option<RSrc> {
        match a {
            Abs::Reg(r) => Some(RSrc::Reg(r)),
            Abs::Imm(k) => self.imm(k),
        }
    }
    /// Canonical register of operand-stack position `d`.
    fn canon(&self, d: usize) -> Option<u16> {
        u16::try_from(self.nlocals as usize + d).ok()
    }

    fn push(&mut self, a: Abs) {
        self.stack.push(a);
        self.max_height = self.max_height.max(self.stack.len());
    }

    fn pop(&mut self) -> Option<Abs> {
        self.stack.pop()
    }

    /// Canonical register for a value pushed at the current height.
    fn dst_here(&self) -> Option<u16> {
        self.canon(self.stack.len())
    }

    /// Spills lazy entries in `from..to` to their canonical registers.
    fn flush_range(&mut self, from: usize, to: usize) -> Option<()> {
        for d in from..to.min(self.stack.len()) {
            let c = self.canon(d)?;
            if self.stack[d] != Abs::Reg(c) {
                let src = self.rsrc(self.stack[d])?;
                self.out.push(ROp::Mov { dst: c, src });
                self.stack[d] = Abs::Reg(c);
            }
        }
        Some(())
    }

    /// Copies every abstract entry below `upto` that aliases local `i`
    /// into its canonical register (the write-after-read hazard of
    /// `local.set`/`local.tee` against lazy `local.get`s).
    fn materialize_local(&mut self, i: u16, upto: usize) -> Option<()> {
        for d in 0..upto.min(self.stack.len()) {
            if self.stack[d] == Abs::Reg(i) {
                let c = self.canon(d)?;
                self.out.push(ROp::Mov {
                    dst: c,
                    src: RSrc::Reg(i),
                });
                self.stack[d] = Abs::Reg(c);
            }
        }
        Some(())
    }

    /// Builds the register fixup for a branch taken at abstract height
    /// `h` (after any condition pop), flushing the registers the target
    /// label will read: everything below `drop_to` plus the `keep`
    /// values carried across. Entries in between are dropped by the
    /// branch and stay lazy (their flush would only burden fallthrough
    /// paths that never need it).
    fn branch_to(&mut self, d: &BrDest, h: usize) -> Option<RBr> {
        let keep = d.keep as usize;
        let drop_to = d.drop_to as usize;
        if drop_to + keep > h {
            return None;
        }
        self.flush_range(0, drop_to)?;
        self.flush_range(h - keep, h)?;
        Some(RBr {
            target: d.target, // old pc; retargeted after the walk
            src: self.canon(h - keep)?,
            dst: self.canon(drop_to)?,
            keep: d.keep,
            poll: false,
        })
    }

    /// If the last emitted op wrote register `r` (and sits after the
    /// label barrier), returns its `dst` slot for rewriting — the
    /// store-redirect peephole behind `local.set`/`local.tee`.
    fn redirectable_dst(&mut self, r: u16) -> Option<&mut u16> {
        if self.out.len() <= self.barrier {
            return None;
        }
        let dst = match self.out.last_mut()? {
            ROp::Mov { dst, .. }
            | ROp::Select { dst, .. }
            | ROp::GlobalGet { dst, .. }
            | ROp::Load { dst, .. }
            | ROp::MemorySize { dst }
            | ROp::MemoryGrow { dst, .. }
            | ROp::Un { dst, .. }
            | ROp::Bin { dst, .. }
            | ROp::Rel { dst, .. }
            | ROp::Cvt { dst, .. }
            | ROp::AtomicNotify { dst, .. }
            | ROp::AtomicWait32 { dst, .. }
            | ROp::AtomicLoad { dst, .. }
            | ROp::AtomicRmw { dst, .. }
            | ROp::AtomicCmpxchg { dst, .. } => dst,
            _ => return None,
        };
        if *dst == r {
            Some(dst)
        } else {
            None
        }
    }

    /// `local.set`/`local.tee` write to local `i`; `tee` keeps the top.
    fn set_local(&mut self, i: u16, tee: bool) -> Option<()> {
        if i as u32 >= self.nlocals {
            return None;
        }
        let top_pos = self.stack.len().checked_sub(1)?;
        let has_alias = self.stack[..top_pos].contains(&Abs::Reg(i));
        let v = self.stack[top_pos];
        // Redirect: if the value was just computed into its canonical
        // register by the previous op and no lazy entry still reads the
        // local's old value, retarget that op to write the local
        // directly (saves the Mov entirely).
        if !has_alias {
            if let Abs::Reg(r) = v {
                if Some(r) == self.canon(top_pos) {
                    if let Some(dst) = self.redirectable_dst(r) {
                        *dst = i;
                        if tee {
                            self.stack[top_pos] = Abs::Reg(i);
                        } else {
                            self.pop()?;
                        }
                        return Some(());
                    }
                }
            }
        }
        self.materialize_local(i, top_pos)?;
        if v != Abs::Reg(i) {
            let src = self.rsrc(v)?;
            self.out.push(ROp::Mov { dst: i, src });
        }
        if !tee {
            self.pop()?;
        }
        Some(())
    }

    /// Compare-and-branch peephole: when the branch condition is the
    /// result of the immediately preceding `Rel`, fold both into one
    /// `RelBr` dispatch. Safe against the branch flush: the `Rel`
    /// operands reference registers at or above the condition's position
    /// (or locals/immediates), which the flush — writing only canonical
    /// slots below it — never touches.
    fn take_rel_producer(&mut self, cond: Abs) -> Option<(RelOp, RSrc, RSrc)> {
        if self.out.len() <= self.barrier {
            return None;
        }
        let want = self.canon(self.stack.len())?;
        if cond != Abs::Reg(want) {
            return None;
        }
        match self.out.last() {
            Some(ROp::Rel { dst, op, a, b }) if *dst == want => {
                let (op, a, b) = (*op, *a, *b);
                self.out.pop();
                Some((op, a, b))
            }
            _ => None,
        }
    }
}

/// Collects every branch target with its canonical entry shape
/// `(drop_to, keep)`. The shapes are structural per label (they come
/// from the control-frame entries in `prep`), so a conflict means the
/// input is malformed — the caller bails to the stack tier.
fn collect_labels(ops: &[Op]) -> Option<HashMap<u32, (u32, u16)>> {
    use std::collections::hash_map::Entry;
    let mut labels: HashMap<u32, (u32, u16)> = HashMap::new();
    let mut add = |d: &BrDest| -> bool {
        match labels.entry(d.target) {
            Entry::Occupied(e) => *e.get() == (d.drop_to, d.keep),
            Entry::Vacant(e) => {
                e.insert((d.drop_to, d.keep));
                true
            }
        }
    };
    for op in ops {
        let ok = match op {
            Op::Br(d) | Op::BrIf(d) | Op::BrIfZero(d) => add(d),
            Op::BrTable(dests, def) => dests.iter().all(&mut add) && add(def),
            _ => true,
        };
        if !ok {
            return None;
        }
    }
    Some(labels)
}

/// Lowers one prepared function to the register IR. `sigs` gives
/// `(params, results)` for every function in the combined index space;
/// `types` resolves `call_indirect` signatures.
pub fn lower(func: &PreparedFunc, sigs: &[(u16, u16)], types: &[FuncType]) -> Option<RegFunc> {
    let nlocals = func.params + func.locals;
    if nlocals > u16::MAX as u32 {
        return None;
    }
    let labels = collect_labels(&func.ops)?;
    let mut lw = Lowerer {
        nlocals,
        results: func.results,
        out: Vec::with_capacity(func.ops.len()),
        stack: Vec::new(),
        max_height: 0,
        barrier: 0,
        consts: Vec::new(),
        const_ix: HashMap::new(),
    };
    let mut new_pc: Vec<u32> = vec![0; func.ops.len() + 1];
    let mut live = true;

    for (pc, op) in func.ops.iter().enumerate() {
        if let Some(&(drop_to, keep)) = labels.get(&(pc as u32)) {
            let h = drop_to as usize + keep as usize;
            if live {
                if lw.stack.len() != h {
                    return None;
                }
                lw.flush_range(0, h)?;
            } else {
                // Resurrect at the label: every entry path leaves the
                // registers canonical, so the abstract state is exactly
                // the canonical slots up to the label height.
                lw.stack.clear();
                for d in 0..h {
                    let c = lw.canon(d)?;
                    lw.push(Abs::Reg(c));
                }
                live = true;
            }
            lw.barrier = lw.out.len();
        }
        // Recorded *after* the label flush: fallthrough runs the Movs,
        // branches land past them on canonical registers.
        new_pc[pc] = lw.out.len() as u32;
        if !live {
            continue;
        }
        live = lower_op(&mut lw, op, sigs, types)?;
        if !live {
            lw.stack.clear();
        }
    }

    // Retarget branches from old pcs to lowered pcs.
    for op in &mut lw.out {
        match op {
            ROp::Br(d)
            | ROp::BrIf { dest: d, .. }
            | ROp::BrIfZero { dest: d, .. }
            | ROp::RelBr { dest: d, .. } => d.target = new_pc[d.target as usize],
            ROp::BrTable { table, .. } => {
                for d in table.dests.iter_mut() {
                    d.target = new_pc[d.target as usize];
                }
                table.default.target = new_pc[table.default.target as usize];
            }
            _ => {}
        }
    }

    let mut out = peephole(lw.out);
    fold_safepoint_polls(&mut out);
    let mut out = chain(out);
    specialise(&mut out);

    validated(RegFunc {
        nregs: nlocals + lw.max_height as u32,
        ops: out.into_boxed_slice(),
        consts: lw.consts.into_boxed_slice(),
    })
}

/// Whether `a op b == b op a` bit for bit, for the integer operators the
/// table names.
fn commutes(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        I32Add | I32Mul | I32And | I32Or | I32Xor | I64Add | I64Mul | I64And | I64Or | I64Xor
    )
}

/// The operands of `a op b` in the order the table names them: a constant
/// on the left of an operator that commutes is turned around; on the left
/// of one that does not, it stays (and the instruction stays generic).
fn turned(op: BinOp, a: RSrc, b: RSrc) -> (RSrc, RSrc) {
    match (a, b) {
        (RSrc::Const(_), RSrc::Reg(_)) if commutes(op) => (b, a),
        _ => (a, b),
    }
}

/// One step of a run of ops as a chain would run it, in program order (a
/// fused pair is two), with its operands as the generic op carries them.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Bin {
        op: BinOp,
        a: RSrc,
        b: RSrc,
        dst: u16,
    },
    Cvt {
        op: CvtOp,
        a: RSrc,
        dst: u16,
    },
    /// The indexed load, by the first kind of its `load_idx` row.
    LoadIdx {
        kind: LoadKind,
        a: RSrc,
        b: RSrc,
        offset: u32,
        dst: u16,
    },
    /// A compare-and-branch that moves no register.
    Br {
        rel: RelOp,
        a: RSrc,
        b: RSrc,
        if_true: bool,
        target: u32,
        poll: bool,
    },
}

#[cfg(test)]
impl Step {
    fn dst(&self) -> Option<u16> {
        match *self {
            Step::Bin { dst, .. } | Step::Cvt { dst, .. } | Step::LoadIdx { dst, .. } => Some(dst),
            Step::Br { .. } => None,
        }
    }
}

/// The steps of `op`, appended to `out`; `false`, and nothing appended,
/// for an op no chain holds (a call, a store, a move, a branch that moves
/// registers, …).
fn steps_of(op: &ROp, out: &mut Vec<Step>) -> bool {
    let (first, second) = match *op {
        ROp::Bin { dst, op, a, b } => (Step::Bin { op, a, b, dst }, None),
        ROp::Cvt { dst, op, a } => (Step::Cvt { op, a, dst }, None),
        ROp::RelBr {
            op: rel,
            a,
            b,
            if_true,
            dest,
        } if dest.keep == 0 => {
            let (target, poll) = (dest.target, dest.poll);
            let br = Step::Br {
                rel,
                a,
                b,
                if_true,
                target,
                poll,
            };
            (br, None)
        }
        ROp::Bin2 {
            op1,
            a,
            b,
            dst1,
            op2,
            a2,
            b2,
            dst2,
        } => (
            Step::Bin {
                op: op1,
                a,
                b,
                dst: dst1,
            },
            Some(Step::Bin {
                op: op2,
                a: a2,
                b: b2,
                dst: dst2,
            }),
        ),
        ROp::CvtBin {
            cvt,
            a,
            dst1,
            op,
            a2,
            b2,
            dst2,
        } => (
            Step::Cvt {
                op: cvt,
                a,
                dst: dst1,
            },
            Some(Step::Bin {
                op,
                a: a2,
                b: b2,
                dst: dst2,
            }),
        ),
        ROp::BinRelBr {
            op,
            a,
            b,
            dst,
            rel,
            c,
            if_true,
            target,
            poll,
        } => (
            Step::Bin { op, a, b, dst },
            Some(Step::Br {
                rel,
                a: RSrc::Reg(dst),
                b: c,
                if_true,
                target,
                poll,
            }),
        ),
        _ => match load_idx_step(op) {
            Some(load) => (load, None),
            None => return false,
        },
    };
    out.push(first);
    out.extend(second);
    true
}

/// A chain row matched step by step against a run ([`chained`]): the
/// steps it has not matched yet and the register each matched one wrote.
struct Cursor<'a> {
    rest: &'a [Step],
    wrote: Vec<u16>,
}

impl<'a> Cursor<'a> {
    fn new(steps: &'a [Step]) -> Self {
        Cursor {
            rest: steps,
            wrote: Vec::with_capacity(MAX_CHAIN),
        }
    }

    fn next(&mut self) -> Option<Step> {
        let (step, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(*step)
    }

    /// A binary operator that cannot trap, its operands turned as `bin`
    /// turns them.
    fn bin(&mut self, want: BinOp) -> Option<(RSrc, RSrc, u16)> {
        use BinOp::*;
        let traps = matches!(
            want,
            I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU
        );
        match self.next()? {
            Step::Bin { op, a, b, dst } if op == want && !traps => {
                let (a, b) = turned(op, a, b);
                Some((a, b, dst))
            }
            _ => None,
        }
    }

    /// A conversion that cannot trap.
    fn cvt(&mut self, want: CvtOp) -> Option<(RSrc, u16)> {
        use CvtOp::*;
        let traps = matches!(
            want,
            I32TruncF32S
                | I32TruncF32U
                | I32TruncF64S
                | I32TruncF64U
                | I64TruncF32S
                | I64TruncF32U
                | I64TruncF64S
                | I64TruncF64U
        );
        match self.next()? {
            Step::Cvt { op, a, dst } if op == want && !traps => Some((a, dst)),
            _ => None,
        }
    }

    /// The indexed load, which may trap, so only as the first step: a
    /// trap then leaves every destination of the chain unwritten, as it
    /// would the run.
    fn load_idx(&mut self, want: LoadKind) -> Option<(RSrc, RSrc, u32, u16)> {
        if !self.wrote.is_empty() {
            return None;
        }
        match self.next()? {
            Step::LoadIdx {
                kind,
                a,
                b,
                offset,
                dst,
            } if kind == want => Some((a, b, offset, dst)),
            _ => None,
        }
    }

    /// The closing compare-and-branch.
    fn br(&mut self, want: RelOp) -> Option<(RSrc, RSrc, bool, u32, bool)> {
        match self.next()? {
            Step::Br {
                rel,
                a,
                b,
                if_true,
                target,
                poll,
            } if rel == want => Some((a, b, if_true, target, poll)),
            _ => None,
        }
    }

    /// Records the register the step just matched writes.
    fn wrote(&mut self, dst: u16) -> u16 {
        self.wrote.push(dst);
        dst
    }

    fn reg(s: RSrc) -> Option<u16> {
        match s {
            RSrc::Reg(r) => Some(r),
            RSrc::Const(_) => None,
        }
    }

    fn konst(s: RSrc) -> Option<u16> {
        match s {
            RSrc::Const(i) => Some(i),
            RSrc::Reg(_) => None,
        }
    }

    /// Operand `s` is step `i`'s result: it reads the register step `i`
    /// wrote, and no step since has written that register.
    fn link(&self, s: RSrc, i: usize) -> Option<()> {
        let r = *self.wrote.get(i)?;
        (s == RSrc::Reg(r) && !self.wrote[i + 1..].contains(&r)).then_some(())
    }

    /// The row took the whole run.
    fn done(&self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

/// Matches one step of a chain row in `chained`: binds the row's fields to
/// the step's registers, pool indices and offset, and checks its links.
macro_rules! match_step {
    ($c:ident, bin $op:ident ($am:ident $av:tt, $bm:ident $bv:tt) [] -> $d:ident) => {
        let (a, b, dst) = $c.bin(BinOp::$op)?;
        match_operand!($c, $am $av, a);
        match_operand!($c, $bm $bv, b);
        let $d = $c.wrote(dst);
    };
    ($c:ident, cvt $op:ident ($am:ident $av:tt) [] -> $d:ident) => {
        let (a, dst) = $c.cvt(CvtOp::$op)?;
        match_operand!($c, $am $av, a);
        let $d = $c.wrote(dst);
    };
    ($c:ident, load_idx $kind:ident ($am:ident $av:tt, $bm:ident $bv:tt) [$off:ident] -> $d:ident) => {
        let (a, b, offset, dst) = $c.load_idx(LoadKind::$kind)?;
        match_operand!($c, $am $av, a);
        match_operand!($c, $bm $bv, b);
        let $off = offset;
        let $d = $c.wrote(dst);
    };
}

/// Matches one operand of a chain step: `r f` a register, `k f` a pool
/// index, each bound to field `f`; `l i` a link to step `i`.
macro_rules! match_operand {
    ($c:ident, r $f:ident, $s:expr) => {
        let $f = Cursor::reg($s)?;
    };
    ($c:ident, k $f:ident, $s:expr) => {
        let $f = Cursor::konst($s)?;
    };
    ($c:ident, l $i:tt, $s:expr) => {
        $c.link($s, $i)?;
    };
}

/// A chain operand within `bounds` (`variant_in_bounds`).
macro_rules! in_bounds {
    ($b:ident; r $f:ident) => {
        $b.reg($f)
    };
    ($b:ident; k $f:ident) => {
        $b.pool($f)
    };
    ($b:ident; l $i:tt) => {
        Some(())
    };
}

/// A chain operand as the step it came from read it, with the step it
/// links to (`chain_parts`).
#[cfg(test)]
macro_rules! part_src {
    ($p:ident; r $f:ident) => {
        (RSrc::Reg($f), None)
    };
    ($p:ident; k $f:ident) => {
        (RSrc::Const($f), None)
    };
    ($p:ident; l $i:tt) => {
        (RSrc::Reg($p[$i].0.dst().expect("a value step")), Some($i))
    };
}

/// A chain step as a [`Step`] and its links (`chain_parts`).
#[cfg(test)]
macro_rules! part_of {
    ($p:ident; bin $op:ident ($am:ident $av:tt, $bm:ident $bv:tt) [] -> $d:ident) => {{
        let ((a, la), (b, lb)) = (part_src!($p; $am $av), part_src!($p; $bm $bv));
        (Step::Bin { op: BinOp::$op, a, b, dst: $d }, [la, lb])
    }};
    ($p:ident; cvt $op:ident ($am:ident $av:tt) [] -> $d:ident) => {{
        let (a, la) = part_src!($p; $am $av);
        (Step::Cvt { op: CvtOp::$op, a, dst: $d }, [la, None])
    }};
    ($p:ident; load_idx $kind:ident ($am:ident $av:tt, $bm:ident $bv:tt) [$off:ident] -> $d:ident) => {{
        let ((a, la), (b, lb)) = (part_src!($p; $am $av), part_src!($p; $bm $bv));
        let (kind, offset, dst) = (LoadKind::$kind, $off, $d);
        (Step::LoadIdx { kind, a, b, offset, dst }, [la, lb])
    }};
}

/// A chain operand's field with its kind, if it has one (`chain_slots_mut`).
#[cfg(test)]
macro_rules! slot_of {
    ($s:ident; r $f:ident) => {
        $s.push((stringify!($f), true, $f))
    };
    ($s:ident; k $f:ident) => {
        $s.push((stringify!($f), false, $f))
    };
    ($s:ident; l $i:tt) => {};
}

/// Defines, from [`spec_table!`]: the specialising rewrite `specialised`
/// (generic → named variant, `None` when the table has none for these
/// operators and operand kinds); `load_idx`, which builds the indexed
/// load; and `variant_in_bounds`, the part of [`validated`] that checks
/// the named variants.
macro_rules! define_rewrites {
    (
        bin { $($bop:ident => $brr:ident $brc:ident;)* }
        load_idx { $($lk:ident $(| $lks:ident)* => $xrr:ident $xrc:ident;)* }
        addbr { $($aop:ident => $ar:ident $ac:ident;)* }
        pair {
            bin2 {
                $($p1:ident; $p2:ident => $prrrr:ident $prrrc:ident $prcrr:ident $prcrc:ident;)*
            }
            cvt_bin { $($pcvt:ident; $pbin:ident => $crrr:ident $crrc:ident;)* }
            bin_rel_br {
                $($qop:ident; $qrel:ident => $qrrr:ident $qrrc:ident $qrcr:ident $qrcc:ident;)*
            }
        }
        chain {
            $(
                $chn:ident { $($cf:ident: $cty:ty),* } =
                $($ci:literal: $ck:ident $cop:ident ($($cm:ident $cv:tt),*) $(+ $coff:ident)? -> $cd:ident;)*
            )*
        }
        chain_br {
            $(
                $bn:ident { $($bf:ident: $bty:ty),* } =
                $($bi:literal: $bk:ident $bo:ident ($($bm:ident $bv:tt),*) $(+ $boff:ident)? -> $bd:ident;)*
                => $brel:ident ($xm:ident $xv:tt, $ym:ident $yv:tt);
            )*
        }
    ) => {
        fn specialised(op: &ROp) -> Option<ROp> {
            use RSrc::{Const as C, Reg as R};
            Some(match *op {
                ROp::Bin { dst, op, a, b } => match (op, turned(op, a, b)) {
                    $(
                        (BinOp::$bop, (R(a), R(b))) => ROp::$brr { dst, a, b },
                        (BinOp::$bop, (R(a), C(b))) => ROp::$brc { dst, a, b },
                    )*
                    _ => return None,
                },
                ROp::Bin2 { op1, a, b, dst1, op2, a2, b2, dst2 } => {
                    match (op1, op2, turned(op1, a, b), turned(op2, a2, b2)) {
                        $(
                            (BinOp::$p1, BinOp::$p2, (R(a), R(b)), (R(a2), R(b2))) => {
                                ROp::$prrrr { a, b, dst1, a2, b2, dst2 }
                            }
                            (BinOp::$p1, BinOp::$p2, (R(a), R(b)), (R(a2), C(b2))) => {
                                ROp::$prrrc { a, b, dst1, a2, b2, dst2 }
                            }
                            (BinOp::$p1, BinOp::$p2, (R(a), C(b)), (R(a2), R(b2))) => {
                                ROp::$prcrr { a, b, dst1, a2, b2, dst2 }
                            }
                            (BinOp::$p1, BinOp::$p2, (R(a), C(b)), (R(a2), C(b2))) => {
                                ROp::$prcrc { a, b, dst1, a2, b2, dst2 }
                            }
                        )*
                        _ => return None,
                    }
                }
                ROp::CvtBin { cvt, a, dst1, op, a2, b2, dst2 } => {
                    match (cvt, op, a, turned(op, a2, b2)) {
                        $(
                            (CvtOp::$pcvt, BinOp::$pbin, R(a), (R(a2), R(b2))) => {
                                ROp::$crrr { a, dst1, a2, b2, dst2 }
                            }
                            (CvtOp::$pcvt, BinOp::$pbin, R(a), (R(a2), C(b2))) => {
                                ROp::$crrc { a, dst1, a2, b2, dst2 }
                            }
                        )*
                        _ => return None,
                    }
                }
                ROp::BinRelBr { op, a, b, dst, rel, c, if_true, target, poll } => {
                    match (op, rel, turned(op, a, b), c) {
                        $(
                            (BinOp::I32Add, RelOp::$aop, (R(a), C(b)), R(c)) => {
                                ROp::$ar { a, b, dst, c, if_true, target, poll }
                            }
                            (BinOp::I32Add, RelOp::$aop, (R(a), C(b)), C(c)) => {
                                ROp::$ac { a, b, dst, c, if_true, target, poll }
                            }
                        )*
                        $(
                            (BinOp::$qop, RelOp::$qrel, (R(a), R(b)), R(c)) => {
                                ROp::$qrrr { a, b, dst, c, if_true, target, poll }
                            }
                            (BinOp::$qop, RelOp::$qrel, (R(a), R(b)), C(c)) => {
                                ROp::$qrrc { a, b, dst, c, if_true, target, poll }
                            }
                            (BinOp::$qop, RelOp::$qrel, (R(a), C(b)), R(c)) => {
                                ROp::$qrcr { a, b, dst, c, if_true, target, poll }
                            }
                            (BinOp::$qop, RelOp::$qrel, (R(a), C(b)), C(c)) => {
                                ROp::$qrcc { a, b, dst, c, if_true, target, poll }
                            }
                        )*
                        _ => return None,
                    }
                }
                _ => return None,
            })
        }

        /// `dst = load(a + b + offset)` of shape `kind` (`a + b` an
        /// `i32.add`, so a constant on the left is turned around). `None`
        /// for two constants — lowering folds that sum, so the peephole
        /// never sees one, and would leave the pair unfused if it did.
        fn load_idx(dst: u16, kind: LoadKind, a: RSrc, b: RSrc, offset: u32) -> Option<ROp> {
            use RSrc::{Const as C, Reg as R};
            let (a, b) = turned(BinOp::I32Add, a, b);
            Some(match (kind, a, b) {
                $(
                    (LoadKind::$lk $(| LoadKind::$lks)*, R(a), R(b)) => {
                        ROp::$xrr { dst, a, b, offset }
                    }
                    (LoadKind::$lk $(| LoadKind::$lks)*, R(a), C(b)) => {
                        ROp::$xrc { dst, a, b, offset }
                    }
                )*
                _ => return None,
            })
        }

        /// The indexed load as a chain step, its kind the first of its
        /// row's kinds.
        fn load_idx_step(op: &ROp) -> Option<Step> {
            use RSrc::{Const as C, Reg as R};
            let (kind, a, b, offset, dst) = match *op {
                $(
                    ROp::$xrr { dst, a, b, offset } => (LoadKind::$lk, R(a), R(b), offset, dst),
                    ROp::$xrc { dst, a, b, offset } => (LoadKind::$lk, R(a), C(b), offset, dst),
                )*
                _ => return None,
            };
            Some(Step::LoadIdx { kind, a, b, offset, dst })
        }

        /// The chain row that `steps` — a whole run of ops — is, if any:
        /// every step as the row names it, every link an operand that
        /// reads its step's register with no write to it in between.
        fn chained(steps: &[Step]) -> Option<ROp> {
            $(
                let row = |c: &mut Cursor| -> Option<ROp> {
                    $(match_step!(c, $ck $cop ($($cm $cv),*) [$($coff)?] -> $cd);)*
                    c.done()?;
                    Some(ROp::$chn { $($cf),* })
                };
                if let Some(op) = row(&mut Cursor::new(steps)) {
                    return Some(op);
                }
            )*
            $(
                let row = |c: &mut Cursor| -> Option<ROp> {
                    $(match_step!(c, $bk $bo ($($bm $bv),*) [$($boff)?] -> $bd);)*
                    let (x, y, if_true, target, poll) = c.br(RelOp::$brel)?;
                    match_operand!(c, $xm $xv, x);
                    match_operand!(c, $ym $yv, y);
                    c.done()?;
                    Some(ROp::$bn { $($bf,)* if_true, target, poll })
                };
                if let Some(op) = row(&mut Cursor::new(steps)) {
                    return Some(op);
                }
            )*
            None
        }

        /// The branch destination of a chain that ends in one.
        fn chain_dest(op: &mut ROp) -> Option<(&mut u32, &mut bool)> {
            match op {
                $(ROp::$bn { target, poll, .. } => Some((target, poll)),)*
                _ => None,
            }
        }

        /// A chain's steps in program order, each link an operand that
        /// reads its step's register, with the step each operand links to.
        #[cfg(test)]
        fn chain_parts(op: &ROp) -> Option<Vec<(Step, [Option<usize>; 2])>> {
            let mut parts: Vec<(Step, [Option<usize>; 2])> = Vec::new();
            match *op {
                $(
                    #[allow(unused_variables)]
                    ROp::$chn { $($cf),* } => {
                        $(parts.push(part_of!(parts; $ck $cop ($($cm $cv),*) [$($coff)?] -> $cd));)*
                    }
                )*
                $(
                    #[allow(unused_variables)]
                    ROp::$bn { $($bf,)* if_true, target, poll } => {
                        $(parts.push(part_of!(parts; $bk $bo ($($bm $bv),*) [$($boff)?] -> $bd));)*
                        let ((a, la), (b, lb)) = (part_src!(parts; $xm $xv), part_src!(parts; $ym $yv));
                        let rel = RelOp::$brel;
                        parts.push((Step::Br { rel, a, b, if_true, target, poll }, [la, lb]));
                    }
                )*
                _ => return None,
            }
            Some(parts)
        }

        /// A chain's register (`true`) and pool (`false`) fields, by name.
        #[cfg(test)]
        fn chain_slots_mut(op: &mut ROp) -> Vec<(&'static str, bool, &mut u16)> {
            let mut slots = Vec::new();
            match op {
                $(
                    #[allow(unused_variables)]
                    ROp::$chn { $($cf),* } => {
                        $($(slot_of!(slots; $cm $cv);)* slots.push((stringify!($cd), true, $cd));)*
                    }
                )*
                $(
                    #[allow(unused_variables)]
                    ROp::$bn { $($bf,)* .. } => {
                        $($(slot_of!(slots; $bm $bv);)* slots.push((stringify!($bd), true, $bd));)*
                        slot_of!(slots; $xm $xv);
                        slot_of!(slots; $ym $yv);
                    }
                )*
                _ => {}
            }
            slots
        }

        /// One instance of every chain row, every field zero.
        #[cfg(test)]
        fn chain_rows() -> Vec<ROp> {
            vec![
                $(ROp::$chn { $($cf: 0u16.into()),* },)*
                $(ROp::$bn { $($bf: 0u16.into(),)* if_true: true, target: 0, poll: false },)*
            ]
        }

        /// Whether a specialised variant keeps within `bounds`: the rules
        /// [`validated`] holds the generic instructions to, spelled per
        /// family — an `R` operand (a chain's `r` field, every `dst`) is a
        /// register, a `C` operand (`k` field) a pool index; a link is no
        /// field. `None` when `op` is a generic instruction.
        fn variant_in_bounds(op: &ROp, bounds: &Bounds) -> Option<Option<()>> {
            let (reg, pool) = (|r: u16| bounds.reg(r), |i: u16| bounds.pool(i));
            Some(match *op {
                $(
                    ROp::$brr { dst, a, b } => reg(dst).and(reg(a)).and(reg(b)),
                    ROp::$brc { dst, a, b } => reg(dst).and(reg(a)).and(pool(b)),
                )*
                $(
                    ROp::$xrr { dst, a, b, .. } => reg(dst).and(reg(a)).and(reg(b)),
                    ROp::$xrc { dst, a, b, .. } => reg(dst).and(reg(a)).and(pool(b)),
                )*
                $(
                    ROp::$ar { a, b, dst, c, target, .. } => {
                        reg(a).and(pool(b)).and(reg(dst)).and(reg(c)).and(bounds.target(target))
                    }
                    ROp::$ac { a, b, dst, c, target, .. } => {
                        reg(a).and(pool(b)).and(reg(dst)).and(pool(c)).and(bounds.target(target))
                    }
                )*
                $(
                    ROp::$prrrr { a, b, dst1, a2, b2, dst2 } => {
                        reg(a).and(reg(b)).and(reg(dst1)).and(reg(a2)).and(reg(b2)).and(reg(dst2))
                    }
                    ROp::$prrrc { a, b, dst1, a2, b2, dst2 } => {
                        reg(a).and(reg(b)).and(reg(dst1)).and(reg(a2)).and(pool(b2)).and(reg(dst2))
                    }
                    ROp::$prcrr { a, b, dst1, a2, b2, dst2 } => {
                        reg(a).and(pool(b)).and(reg(dst1)).and(reg(a2)).and(reg(b2)).and(reg(dst2))
                    }
                    ROp::$prcrc { a, b, dst1, a2, b2, dst2 } => {
                        reg(a).and(pool(b)).and(reg(dst1)).and(reg(a2)).and(pool(b2)).and(reg(dst2))
                    }
                )*
                $(
                    ROp::$crrr { a, dst1, a2, b2, dst2 } => {
                        reg(a).and(reg(dst1)).and(reg(a2)).and(reg(b2)).and(reg(dst2))
                    }
                    ROp::$crrc { a, dst1, a2, b2, dst2 } => {
                        reg(a).and(reg(dst1)).and(reg(a2)).and(pool(b2)).and(reg(dst2))
                    }
                )*
                $(
                    ROp::$qrrr { a, b, dst, c, target, .. } => {
                        reg(a).and(reg(b)).and(reg(dst)).and(reg(c)).and(bounds.target(target))
                    }
                    ROp::$qrrc { a, b, dst, c, target, .. } => {
                        reg(a).and(reg(b)).and(reg(dst)).and(pool(c)).and(bounds.target(target))
                    }
                    ROp::$qrcr { a, b, dst, c, target, .. } => {
                        reg(a).and(pool(b)).and(reg(dst)).and(reg(c)).and(bounds.target(target))
                    }
                    ROp::$qrcc { a, b, dst, c, target, .. } => {
                        reg(a).and(pool(b)).and(reg(dst)).and(pool(c)).and(bounds.target(target))
                    }
                )*
                $(
                    #[allow(unused_variables)]
                    ROp::$chn { $($cf),* } => Some(())
                        $($(.and(in_bounds!(bounds; $cm $cv)))*.and(reg($cd)))*,
                )*
                $(
                    #[allow(unused_variables)]
                    ROp::$bn { $($bf,)* target, .. } => Some(())
                        $($(.and(in_bounds!(bounds; $bm $bv)))*.and(reg($bd)))*
                        .and(in_bounds!(bounds; $xm $xv))
                        .and(in_bounds!(bounds; $ym $yv))
                        .and(bounds.target(target)),
                )*
                _ => return None,
            })
        }
    };
}
spec_table!(define_rewrites);

/// The last lowering pass: rewrites every instruction the table has a
/// variant for into that variant, in place and one for one — same op
/// count, same pcs, same branch targets, so step counts, preemption
/// points and handler resume pcs are those of the generic code. What it
/// leaves generic the dispatch loop runs through the same `eval_*`
/// functions with the operator read from the instruction.
fn specialise(ops: &mut [ROp]) {
    for op in ops {
        if let Some(named) = specialised(op) {
            *op = named;
        }
    }
}

/// Visits every branch destination of `op` (including jump-table
/// entries) as a `(target, poll)` pair.
fn for_each_dest(op: &mut ROp, f: &mut impl FnMut(&mut u32, &mut bool)) {
    match op {
        ROp::Br(d)
        | ROp::BrIf { dest: d, .. }
        | ROp::BrIfZero { dest: d, .. }
        | ROp::RelBr { dest: d, .. } => f(&mut d.target, &mut d.poll),
        ROp::BrTable { table, .. } => {
            for d in table.dests.iter_mut() {
                f(&mut d.target, &mut d.poll);
            }
            f(&mut table.default.target, &mut table.default.poll);
        }
        ROp::BinRelBr { target, poll, .. } => f(target, poll),
        _ => {
            if let Some((target, poll)) = chain_dest(op) {
                f(target, poll);
            }
        }
    }
}

/// Merges `first; second` into one dispatch when the pair matches a
/// superinstruction pattern. Every fusion writes the same registers the
/// sequence wrote (both destinations for [`ROp::Bin2`]/[`ROp::CvtBin`]),
/// so it needs no liveness information to be sound.
fn fuse_pair(first: &ROp, second: &ROp) -> Option<ROp> {
    match (first, second) {
        // Base-plus-index addressing: the add's scratch result is
        // consumed and overwritten by the load, so dropping the
        // intermediate write is invisible.
        (
            ROp::Bin {
                dst: t,
                op: BinOp::I32Add,
                a,
                b,
            },
            ROp::Load {
                dst,
                kind,
                addr: RSrc::Reg(r),
                offset,
            },
        ) if r == t && dst == t => load_idx(*dst, *kind, *a, *b, *offset),
        // `i += 1; if i rel n goto L`: a binary op feeding the left
        // operand of a compare-and-branch with no register fixup.
        (
            ROp::Bin { dst: t, op, a, b },
            ROp::RelBr {
                op: rel,
                a: RSrc::Reg(r),
                b: c,
                if_true,
                dest,
            },
        ) if r == t && dest.keep == 0 => Some(ROp::BinRelBr {
            op: *op,
            a: *a,
            b: *b,
            dst: *t,
            rel: *rel,
            c: *c,
            if_true: *if_true,
            target: dest.target,
            poll: dest.poll,
        }),
        // Any two adjacent binary ops — chained or independent, the
        // write-before-read contract makes both cases sequential.
        (
            ROp::Bin {
                dst: dst1,
                op: op1,
                a,
                b,
            },
            ROp::Bin {
                dst: dst2,
                op: op2,
                a: a2,
                b: b2,
            },
        ) => Some(ROp::Bin2 {
            op1: *op1,
            a: *a,
            b: *b,
            dst1: *dst1,
            op2: *op2,
            a2: *a2,
            b2: *b2,
            dst2: *dst2,
        }),
        // A conversion followed by a binary op.
        (
            ROp::Cvt {
                dst: dst1,
                op: cvt,
                a,
            },
            ROp::Bin {
                dst: dst2,
                op,
                a: a2,
                b: b2,
            },
        ) => Some(ROp::CvtBin {
            cvt: *cvt,
            a: *a,
            dst1: *dst1,
            op: *op,
            a2: *a2,
            b2: *b2,
            dst2: *dst2,
        }),
        _ => None,
    }
}

/// Rewrites `ops` front to back: where `fuse(&ops[i..], &targets[i..])`
/// names one op for the `n` ops from `i` on, that op replaces them.
/// `targets[k]` says whether op `i + k` is a branch target; `fuse` never
/// covers one past its first op (execution can never enter a fused op in
/// the middle: the only other entry points are frame-resume pcs, which
/// always follow `Call`/`CallIndirect`/`Safepoint`/host ops — never the
/// value ops fused here). Branch targets are then remapped through the
/// compaction.
fn compact(mut ops: Vec<ROp>, fuse: impl Fn(&[ROp], &[bool]) -> Option<(ROp, usize)>) -> Vec<ROp> {
    let mut is_target = vec![false; ops.len() + 1];
    for op in &mut ops {
        for_each_dest(op, &mut |t, _| {
            if let Some(slot) = is_target.get_mut(*t as usize) {
                *slot = true;
            }
        });
    }

    let mut out: Vec<ROp> = Vec::with_capacity(ops.len());
    let mut new_pc: Vec<u32> = vec![0; ops.len() + 1];
    let mut i = 0;
    while i < ops.len() {
        new_pc[i] = out.len() as u32;
        if let Some((fused, n)) = fuse(&ops[i..], &is_target[i..]) {
            debug_assert!(n >= 2 && !is_target[i + 1..i + n].contains(&true));
            // Unreachable as targets: only the first op of a fused run is.
            new_pc[i + 1..i + n].fill(out.len() as u32);
            out.push(fused);
            i += n;
            continue;
        }
        out.push(ops[i].clone());
        i += 1;
    }
    new_pc[ops.len()] = out.len() as u32;

    for op in &mut out {
        for_each_dest(op, &mut |t, _| *t = new_pc[*t as usize]);
    }
    out
}

/// Pairwise superinstruction pass over the retargeted code: a pair
/// `(i, i+1)` merges when it matches a `fuse_pair` pattern and `i + 1` is
/// not a branch target.
fn peephole(ops: Vec<ROp>) -> Vec<ROp> {
    compact(ops, |ops, targets| match (ops, targets) {
        ([first, second, ..], [_, false, ..]) => Some((fuse_pair(first, second)?, 2)),
        _ => None,
    })
}

/// The chain round: the longest run of 2 or more ops from each point on
/// that is a `chain` or `chain_br` row of [`spec_table!`] becomes that one
/// op (`chained`). A run may start at a branch target but holds no other;
/// its steps — a pair is two — number at most [`MAX_CHAIN`]. This is the
/// one pass that changes op counts on purpose: a chain is one dispatch,
/// one step of fuel.
fn chain(ops: Vec<ROp>) -> Vec<ROp> {
    compact(ops, |ops, targets| {
        let mut steps = Vec::with_capacity(MAX_CHAIN + 1);
        // `ends[n - 1]`: the steps of the run's first `n` ops.
        let mut ends = Vec::new();
        for (n, op) in ops.iter().enumerate() {
            if (n > 0 && targets[n]) || !steps_of(op, &mut steps) || steps.len() > MAX_CHAIN {
                break;
            }
            ends.push(steps.len());
        }
        (2..=ends.len())
            .rev()
            .find_map(|n| Some((chained(&steps[..ends[n - 1]])?, n)))
    })
}

/// Folds loop-header safepoints into the branches that enter them: a
/// branch targeting a `Safepoint` jumps one past it and polls inline
/// ([`RBr::poll`]). The fallthrough entry still executes the header
/// `Safepoint` op, so poll count and poll points — and the handler's
/// resume pc — are exactly those of the unfused code; only the
/// per-back-edge dispatch is saved.
fn fold_safepoint_polls(ops: &mut [ROp]) {
    let sp: Vec<bool> = ops.iter().map(|o| matches!(o, ROp::Safepoint)).collect();
    for op in ops.iter_mut() {
        for_each_dest(op, &mut |target, poll| {
            let t = *target as usize;
            if t + 1 < sp.len() && sp[t] {
                *poll = true;
                *target += 1;
            }
        });
    }
}

/// The limits [`validated`] holds every index of a lowered function to.
struct Bounds {
    nregs: u32,
    npool: usize,
    nops: u32,
}

impl Bounds {
    fn reg(&self, r: u16) -> Option<()> {
        ((r as u32) < self.nregs).then_some(())
    }

    fn pool(&self, i: u16) -> Option<()> {
        ((i as usize) < self.npool).then_some(())
    }

    fn target(&self, t: u32) -> Option<()> {
        (t < self.nops).then_some(())
    }

    /// `n` registers from `at` on are within the frame.
    fn span(&self, at: u16, n: u16) -> Option<()> {
        (at as u32 + n as u32 <= self.nregs).then_some(())
    }

    fn br(&self, d: &RBr) -> Option<()> {
        self.target(d.target)
            .and(self.span(d.src, d.keep))
            .and(self.span(d.dst, d.keep))
    }
}

/// Bounds-checks a lowered function once. The clauses, which the
/// `SAFETY` comments of [`crate::interp`]'s register loop cite by name:
///
/// * **registers** — every register an instruction reads or writes is
///   below `nregs`;
/// * **pool** — every constant-pool index is within the pool;
/// * **fixups** — a branch's `src + keep` and `dst + keep` are within the
///   frame's registers;
/// * **targets** — every branch target, jump-table entries and fused back
///   edges included, is within the code;
/// * **terminator** — the last op is `Return`/`Unreachable`/`Br`/
///   `BrTable`, so the code is not empty and the pc cannot step past it.
///
/// The generic instructions are checked here, the specialised variants by
/// `variant_in_bounds` (generated from the table, an `R` operand or a
/// chain's `r` field held to *registers*, a `C` operand or `k` field to
/// *pool*, a chain's branch to *targets*); a variant neither knows is
/// rejected. The dispatch loop relies on all five to elide per-access
/// bounds checks on the register file, the pool *and* the op fetch.
/// `lower` never emits code violating them, so a failure is a lowering
/// bug and the caller bails to the stack tier.
fn validated(rf: RegFunc) -> Option<RegFunc> {
    let bounds = Bounds {
        nregs: rf.nregs,
        npool: rf.consts.len(),
        nops: rf.ops.len() as u32,
    };
    let reg = |r: u16| bounds.reg(r);
    let src = |s: &RSrc| match *s {
        RSrc::Reg(r) => bounds.reg(r),
        RSrc::Const(i) => bounds.pool(i),
    };
    let br = |d: &RBr| bounds.br(d);
    matches!(
        rf.ops.last()?,
        ROp::Return { .. } | ROp::Unreachable | ROp::Br(_) | ROp::BrTable { .. }
    )
    .then_some(())?;
    let span = |at: u16, n: u16| bounds.span(at, n);
    for op in &rf.ops {
        if let Some(in_bounds) = variant_in_bounds(op, &bounds) {
            in_bounds?;
            continue;
        }
        match op {
            ROp::Unreachable | ROp::Safepoint | ROp::AtomicFence => Some(()),
            ROp::Mov { dst, src: s } => reg(*dst).and(src(s)),
            ROp::Br(d) => br(d),
            ROp::BrIf { cond, dest } | ROp::BrIfZero { cond, dest } => src(cond).and(br(dest)),
            ROp::RelBr { a, b, dest, .. } => src(a).and(src(b)).and(br(dest)),
            ROp::BrTable { idx, table } => table
                .dests
                .iter()
                .chain([&table.default])
                .try_for_each(|d| br(d).ok_or(()))
                .ok()
                .and(src(idx)),
            ROp::Return { src: s, n } => span(*s, *n),
            ROp::Call { top, nargs, .. } => span(0, *top).filter(|()| nargs <= top),
            ROp::CallIndirect {
                idx, top, nargs, ..
            } => span(0, *top).filter(|()| nargs <= top).and(src(idx)),
            ROp::Select { dst, cond, a, b } => reg(*dst).and(src(cond)).and(src(a)).and(src(b)),
            ROp::GlobalGet { dst, .. } => reg(*dst),
            ROp::GlobalSet { src: s, .. } => src(s),
            ROp::Load { dst, addr, .. } => reg(*dst).and(src(addr)),
            ROp::Store { addr, val, .. } => src(addr).and(src(val)),
            ROp::MemorySize { dst } => reg(*dst),
            ROp::MemoryGrow { dst, delta } => reg(*dst).and(src(delta)),
            ROp::MemoryCopy { dst, src: s, len } => src(dst).and(src(s)).and(src(len)),
            ROp::MemoryFill { dst, val, len } => src(dst).and(src(val)).and(src(len)),
            ROp::Un { dst, a, .. } | ROp::Cvt { dst, a, .. } => reg(*dst).and(src(a)),
            ROp::Bin { dst, a, b, .. } | ROp::Rel { dst, a, b, .. } => {
                reg(*dst).and(src(a)).and(src(b))
            }
            ROp::Bin2 {
                a,
                b,
                dst1,
                a2,
                b2,
                dst2,
                ..
            } => reg(*dst1)
                .and(reg(*dst2))
                .and(src(a))
                .and(src(b))
                .and(src(a2))
                .and(src(b2)),
            ROp::CvtBin {
                a,
                dst1,
                a2,
                b2,
                dst2,
                ..
            } => reg(*dst1)
                .and(reg(*dst2))
                .and(src(a))
                .and(src(a2))
                .and(src(b2)),
            ROp::BinRelBr {
                a,
                b,
                dst,
                c,
                target,
                ..
            } => bounds
                .target(*target)
                .and(reg(*dst))
                .and(src(a))
                .and(src(b))
                .and(src(c)),
            ROp::AtomicNotify {
                dst, addr, count, ..
            } => reg(*dst).and(src(addr)).and(src(count)),
            ROp::AtomicWait32 {
                dst,
                addr,
                expected,
                timeout,
                ..
            } => reg(*dst)
                .and(src(addr))
                .and(src(expected))
                .and(src(timeout)),
            ROp::AtomicLoad { dst, addr, .. } => reg(*dst).and(src(addr)),
            ROp::AtomicStore { addr, val, .. } => src(addr).and(src(val)),
            ROp::AtomicRmw { dst, addr, val, .. } => reg(*dst).and(src(addr)).and(src(val)),
            ROp::AtomicCmpxchg {
                dst,
                addr,
                expected,
                new,
                ..
            } => reg(*dst).and(src(addr)).and(src(expected)).and(src(new)),
            // `variant_in_bounds` knows every specialised variant; one it
            // missed must not reach the loop unchecked.
            _ => None,
        }?;
    }
    Some(rf)
}

/// Lowers one op; returns `Some(false)` when the op ends the live path.
fn lower_op(lw: &mut Lowerer, op: &Op, sigs: &[(u16, u16)], types: &[FuncType]) -> Option<bool> {
    match op {
        Op::Unreachable => {
            lw.out.push(ROp::Unreachable);
            return Some(false);
        }
        Op::Safepoint => lw.out.push(ROp::Safepoint),
        Op::Br(d) => {
            let h = lw.stack.len();
            let dest = lw.branch_to(d, h)?;
            lw.out.push(ROp::Br(dest));
            return Some(false);
        }
        Op::BrIf(d) | Op::BrIfZero(d) => {
            let if_true = matches!(op, Op::BrIf(_));
            let cond = lw.pop()?;
            let h = lw.stack.len();
            if let Some((rel, a, b)) = lw.take_rel_producer(cond) {
                let dest = lw.branch_to(d, h)?;
                lw.out.push(ROp::RelBr {
                    op: rel,
                    a,
                    b,
                    if_true,
                    dest,
                });
            } else {
                let dest = lw.branch_to(d, h)?;
                let cond = lw.rsrc(cond)?;
                lw.out.push(if if_true {
                    ROp::BrIf { cond, dest }
                } else {
                    ROp::BrIfZero { cond, dest }
                });
            }
        }
        Op::BrTable(dests, def) => {
            let idx = lw.pop()?;
            let h = lw.stack.len();
            // All targets share one pre-branch register state: flush
            // everything any of them could read.
            lw.flush_range(0, h)?;
            let rdests: Option<Box<[RBr]>> = dests.iter().map(|d| lw.branch_to(d, h)).collect();
            let default = lw.branch_to(def, h)?;
            let idx = lw.rsrc(idx)?;
            lw.out.push(ROp::BrTable {
                idx,
                table: Box::new(RTable {
                    dests: rdests?,
                    default,
                }),
            });
            return Some(false);
        }
        Op::Return => {
            let n = u16::try_from(lw.results).ok()?;
            let h = lw.stack.len();
            let from = h.checked_sub(n as usize)?;
            lw.flush_range(from, h)?;
            lw.out.push(ROp::Return {
                src: lw.canon(from)?,
                n,
            });
            return Some(false);
        }
        Op::Call(f) => {
            let (p, r) = *sigs.get(*f as usize)?;
            emit_call(lw, p, r, |_, top| ROp::Call {
                func: *f,
                top,
                nargs: p,
            })?;
        }
        Op::CallIndirect(t) => {
            let ft = types.get(*t as usize)?;
            let p = u16::try_from(ft.params.len()).ok()?;
            let r = u16::try_from(ft.results.len()).ok()?;
            let idx = lw.pop()?;
            let idx = lw.rsrc(idx)?;
            emit_call(lw, p, r, |_, top| ROp::CallIndirect {
                ty: *t,
                idx,
                top,
                nargs: p,
            })?;
        }
        Op::Drop => {
            lw.pop()?;
        }
        Op::Select => {
            let c = lw.pop()?;
            let b = lw.pop()?;
            let a = lw.pop()?;
            if let Abs::Imm(cv) = c {
                // Constant condition: the select is a plain move.
                lw.push(if cv as u32 != 0 { a } else { b });
            } else {
                let dst = lw.dst_here()?;
                let (cond, a, b) = (lw.rsrc(c)?, lw.rsrc(a)?, lw.rsrc(b)?);
                lw.out.push(ROp::Select { dst, cond, a, b });
                lw.push(Abs::Reg(dst));
            }
        }
        Op::LocalGet(i) => {
            if *i >= lw.nlocals {
                return None;
            }
            lw.push(Abs::Reg(*i as u16));
        }
        Op::LocalSet(i) => lw.set_local(u16::try_from(*i).ok()?, false)?,
        Op::LocalTee(i) => lw.set_local(u16::try_from(*i).ok()?, true)?,
        Op::GlobalGet(i) => {
            let dst = lw.dst_here()?;
            lw.out.push(ROp::GlobalGet { dst, idx: *i });
            lw.push(Abs::Reg(dst));
        }
        Op::GlobalSet(i) => {
            let v = lw.pop()?;
            let src = lw.rsrc(v)?;
            lw.out.push(ROp::GlobalSet { idx: *i, src });
        }
        Op::Load(kind, offset) => {
            let addr = lw.pop()?;
            let dst = lw.dst_here()?;
            let addr = lw.rsrc(addr)?;
            lw.out.push(ROp::Load {
                dst,
                kind: *kind,
                addr,
                offset: u32::try_from(*offset).ok()?,
            });
            lw.push(Abs::Reg(dst));
        }
        Op::Store(kind, offset) => {
            let v = lw.pop()?;
            let addr = lw.pop()?;
            let (addr, val) = (lw.rsrc(addr)?, lw.rsrc(v)?);
            lw.out.push(ROp::Store {
                kind: *kind,
                addr,
                val,
                offset: u32::try_from(*offset).ok()?,
            });
        }
        Op::MemorySize => {
            let dst = lw.dst_here()?;
            lw.out.push(ROp::MemorySize { dst });
            lw.push(Abs::Reg(dst));
        }
        Op::MemoryGrow => {
            let delta = lw.pop()?;
            let dst = lw.dst_here()?;
            let delta = lw.rsrc(delta)?;
            lw.out.push(ROp::MemoryGrow { dst, delta });
            lw.push(Abs::Reg(dst));
        }
        Op::MemoryCopy => {
            let len = lw.pop()?;
            let src = lw.pop()?;
            let dst = lw.pop()?;
            let (dst, src, len) = (lw.rsrc(dst)?, lw.rsrc(src)?, lw.rsrc(len)?);
            lw.out.push(ROp::MemoryCopy { dst, src, len });
        }
        Op::MemoryFill => {
            let len = lw.pop()?;
            let val = lw.pop()?;
            let dst = lw.pop()?;
            let (dst, val, len) = (lw.rsrc(dst)?, lw.rsrc(val)?, lw.rsrc(len)?);
            lw.out.push(ROp::MemoryFill { dst, val, len });
        }
        Op::Const(v) => lw.push(Abs::Imm(*v)),
        Op::Un(op) => {
            let a = lw.pop()?;
            if let Abs::Imm(x) = a {
                if let Ok(v) = eval_un(*op, x) {
                    lw.push(Abs::Imm(v));
                    return Some(true);
                }
            }
            let dst = lw.dst_here()?;
            let a = lw.rsrc(a)?;
            lw.out.push(ROp::Un { dst, op: *op, a });
            lw.push(Abs::Reg(dst));
        }
        Op::Bin(op) => {
            let b = lw.pop()?;
            let a = lw.pop()?;
            if let (Abs::Imm(x), Abs::Imm(y)) = (a, b) {
                if let Ok(v) = eval_bin(*op, x, y) {
                    lw.push(Abs::Imm(v));
                    return Some(true);
                }
                // Trapping constants (e.g. div by zero): emit the op so
                // the trap fires at the original program point.
            }
            let dst = lw.dst_here()?;
            let (a, b) = (lw.rsrc(a)?, lw.rsrc(b)?);
            lw.out.push(ROp::Bin { dst, op: *op, a, b });
            lw.push(Abs::Reg(dst));
        }
        Op::Rel(op) => {
            let b = lw.pop()?;
            let a = lw.pop()?;
            if let (Abs::Imm(x), Abs::Imm(y)) = (a, b) {
                lw.push(Abs::Imm(eval_rel(*op, x, y) as u64));
                return Some(true);
            }
            let dst = lw.dst_here()?;
            let (a, b) = (lw.rsrc(a)?, lw.rsrc(b)?);
            lw.out.push(ROp::Rel { dst, op: *op, a, b });
            lw.push(Abs::Reg(dst));
        }
        Op::Cvt(op) => {
            let a = lw.pop()?;
            if let Abs::Imm(x) = a {
                if let Ok(v) = eval_cvt(*op, x) {
                    lw.push(Abs::Imm(v));
                    return Some(true);
                }
            }
            let dst = lw.dst_here()?;
            let a = lw.rsrc(a)?;
            lw.out.push(ROp::Cvt { dst, op: *op, a });
            lw.push(Abs::Reg(dst));
        }
        Op::AtomicNotify(offset) => {
            let count = lw.pop()?;
            let addr = lw.pop()?;
            let dst = lw.dst_here()?;
            let (addr, count) = (lw.rsrc(addr)?, lw.rsrc(count)?);
            lw.out.push(ROp::AtomicNotify {
                dst,
                addr,
                count,
                offset: u32::try_from(*offset).ok()?,
            });
            lw.push(Abs::Reg(dst));
        }
        Op::AtomicWait32(offset) => {
            let timeout = lw.pop()?;
            let expected = lw.pop()?;
            let addr = lw.pop()?;
            let dst = lw.dst_here()?;
            let (addr, expected, timeout) = (lw.rsrc(addr)?, lw.rsrc(expected)?, lw.rsrc(timeout)?);
            lw.out.push(ROp::AtomicWait32 {
                dst,
                addr,
                expected,
                timeout,
                offset: u32::try_from(*offset).ok()?,
            });
            lw.push(Abs::Reg(dst));
        }
        Op::AtomicFence => lw.out.push(ROp::AtomicFence),
        Op::AtomicLoad(w, offset) => {
            let addr = lw.pop()?;
            let dst = lw.dst_here()?;
            let addr = lw.rsrc(addr)?;
            lw.out.push(ROp::AtomicLoad {
                dst,
                width: *w,
                addr,
                offset: u32::try_from(*offset).ok()?,
            });
            lw.push(Abs::Reg(dst));
        }
        Op::AtomicStore(w, offset) => {
            let v = lw.pop()?;
            let addr = lw.pop()?;
            let (addr, val) = (lw.rsrc(addr)?, lw.rsrc(v)?);
            lw.out.push(ROp::AtomicStore {
                width: *w,
                addr,
                val,
                offset: u32::try_from(*offset).ok()?,
            });
        }
        Op::AtomicRmw(op, offset) => {
            let v = lw.pop()?;
            let addr = lw.pop()?;
            let dst = lw.dst_here()?;
            let (addr, val) = (lw.rsrc(addr)?, lw.rsrc(v)?);
            lw.out.push(ROp::AtomicRmw {
                dst,
                op: *op,
                addr,
                val,
                offset: u32::try_from(*offset).ok()?,
            });
            lw.push(Abs::Reg(dst));
        }
        Op::AtomicCmpxchg(offset) => {
            let new = lw.pop()?;
            let expected = lw.pop()?;
            let addr = lw.pop()?;
            let dst = lw.dst_here()?;
            let (addr, expected, new) = (lw.rsrc(addr)?, lw.rsrc(expected)?, lw.rsrc(new)?);
            lw.out.push(ROp::AtomicCmpxchg {
                dst,
                addr,
                expected,
                new,
                offset: u32::try_from(*offset).ok()?,
            });
            lw.push(Abs::Reg(dst));
        }
    }
    Some(true)
}

/// Shared tail of `call`/`call_indirect`: flush the arguments to their
/// canonical registers, emit the call with the operand `top`, then model
/// the results as canonical registers.
fn emit_call(
    lw: &mut Lowerer,
    params: u16,
    results: u16,
    build: impl FnOnce(&mut Lowerer, u16) -> ROp,
) -> Option<()> {
    let h = lw.stack.len();
    let p = params as usize;
    let argbase = h.checked_sub(p)?;
    lw.flush_range(argbase, h)?;
    let top = lw.canon(h)?;
    let op = build(lw, top);
    lw.out.push(op);
    for _ in 0..p {
        lw.pop()?;
    }
    for _ in 0..results {
        let dst = lw.dst_here()?;
        lw.push(Abs::Reg(dst));
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf(params: u32, locals: u32, results: u32, ops: Vec<Op>) -> PreparedFunc {
        PreparedFunc {
            ty: 0,
            params,
            locals,
            results,
            ops: ops.into_boxed_slice(),
            reg: None,
        }
    }

    #[test]
    fn fused_add_collapses_to_one_bin() {
        // (param i32 i32) (result i32): local.get 0; local.get 1; add.
        let f = pf(
            2,
            0,
            1,
            vec![
                Op::LocalGet(0),
                Op::LocalGet(1),
                Op::Bin(BinOp::I32Add),
                Op::Return,
            ],
        );
        let r = lower(&f, &[], &[]).expect("lowers");
        // Two locals + the operand stack's peak of two: the lazy
        // `local.get`s emit nothing but still own their canonical slots.
        assert_eq!(r.nregs, 4);
        assert_eq!(
            &*r.ops,
            &[
                ROp::I32AddRR { dst: 2, a: 0, b: 1 },
                ROp::Return { src: 2, n: 1 },
            ]
        );
    }

    #[test]
    fn constants_fold_at_lowering_time() {
        let f = pf(
            0,
            0,
            1,
            vec![
                Op::Const(2),
                Op::Const(3),
                Op::Bin(BinOp::I32Add),
                Op::Return,
            ],
        );
        let r = lower(&f, &[], &[]).expect("lowers");
        // The sum spills once at the return flush; no Bin survives.
        match r.ops[0] {
            ROp::Mov { dst: 0, src } => assert_eq!(r.const_of(src), Some(5)),
            ref other => panic!("expected folded Mov, got {other:?}"),
        }
        assert_eq!(r.ops[1], ROp::Return { src: 0, n: 1 });
        assert_eq!(r.ops.len(), 2);
    }

    #[test]
    fn trapping_const_div_is_not_folded() {
        let f = pf(
            0,
            0,
            1,
            vec![
                Op::Const(1),
                Op::Const(0),
                Op::Bin(BinOp::I32DivU),
                Op::Return,
            ],
        );
        let r = lower(&f, &[], &[]).expect("lowers");
        assert!(
            matches!(
                r.ops[0],
                ROp::Bin {
                    op: BinOp::I32DivU,
                    ..
                }
            ),
            "div-by-zero must stay an op so the trap fires: {:?}",
            r.ops
        );
    }

    #[test]
    fn counter_loop_needs_no_movs() {
        // Body of `loop { l0 += 1; if l0 < 10 continue }` as `prep` emits
        // it (index 0 is the loop header, the back-edge target).
        let f = pf(
            1,
            0,
            0,
            vec![
                Op::Safepoint,
                Op::LocalGet(0),
                Op::Const(1),
                Op::Bin(BinOp::I32Add),
                Op::LocalSet(0),
                Op::LocalGet(0),
                Op::Const(10),
                Op::Rel(crate::instr::RelOp::I32LtU),
                Op::BrIf(BrDest {
                    target: 0,
                    drop_to: 0,
                    keep: 0,
                }),
                Op::Return,
            ],
        );
        let r = lower(&f, &[], &[]).expect("lowers");
        // Safepoint; then the whole steady state — increment, compare
        // and back edge — is ONE fused dispatch (the back-edge variant of
        // `BinRelBr`) whose poll flag absorbed the header safepoint;
        // Return. Zero Movs, zero stack traffic.
        assert_eq!(r.ops.len(), 3, "loop should lower Mov-free: {:?}", r.ops);
        match r.ops[1] {
            ROp::AddI32LtUBrC {
                dst: 0,
                a: 0,
                b,
                c,
                if_true: true,
                target,
                poll,
            } => {
                assert_eq!(r.consts[b as usize], 1);
                assert_eq!(r.consts[c as usize], 10);
                assert_eq!(target, 1, "back edge skips the header safepoint");
                assert!(poll, "back edge absorbs the header safepoint poll");
            }
            ref other => panic!(
                "increment + compare + back edge should fuse: {other:?} in {:?}",
                r.ops
            ),
        }
    }

    #[test]
    fn value_held_across_branch_is_flushed() {
        // A lazy constant sits *below* the branch's drop_to boundary: the
        // taken path lands on a label that expects it in its canonical
        // register, so the flush must happen before the branch.
        //   0: Const(42)
        //   1: Const(1)
        //   2: BrIf -> 3 (drop_to 1, keep 0)
        //   3: Return (result = the 42)
        let f = pf(
            0,
            0,
            1,
            vec![
                Op::Const(42),
                Op::Const(1),
                Op::BrIf(BrDest {
                    target: 3,
                    drop_to: 1,
                    keep: 0,
                }),
                Op::Return,
            ],
        );
        let r = lower(&f, &[], &[]).expect("lowers");
        match r.ops[0] {
            ROp::Mov { dst: 0, src } => assert_eq!(r.const_of(src), Some(42)),
            ref other => panic!(
                "the 42 must be canonical before the branch: {other:?} in {:?}",
                r.ops
            ),
        }
        match &r.ops[1] {
            ROp::BrIf { cond, dest } => {
                assert_eq!(r.const_of(*cond), Some(1));
                // Retargeted past the flush Mov to the Return.
                assert_eq!(dest.target, 2);
            }
            other => panic!("expected BrIf, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_label_shapes_bail() {
        let f = pf(
            0,
            0,
            0,
            vec![
                Op::Br(BrDest {
                    target: 2,
                    drop_to: 0,
                    keep: 0,
                }),
                Op::Br(BrDest {
                    target: 2,
                    drop_to: 1,
                    keep: 0,
                }),
                Op::Return,
            ],
        );
        assert!(lower(&f, &[], &[]).is_none());
    }

    #[test]
    fn op_layout_is_pinned() {
        // The op fetch is the hottest load in the interpreter: three ops
        // to a cache line, whatever the table grows to.
        assert_eq!(std::mem::size_of::<ROp>(), 24);
        assert_eq!(std::mem::size_of::<RSrc>(), 4);
        assert_eq!(std::mem::size_of::<RBr>(), 12);
    }

    // ---- the specialised variants --------------------------------------

    /// A frame of 8 registers and a pool of 12 constants. The valid
    /// instructions below use pool indices from 9 up, so a `C` operand
    /// checked as a register fails a valid instruction, and an `R` operand
    /// checked as a pool index passes an invalid one: either confusion
    /// fails a test.
    const NREGS: u16 = 8;
    const NPOOL: u16 = 12;

    /// An instruction of a table family before it is named: a generic
    /// instruction for [`specialise`], or the operands of [`load_idx`].
    #[derive(Clone, Debug)]
    enum Form {
        Generic(ROp),
        LoadIdx {
            dst: u16,
            kind: LoadKind,
            a: RSrc,
            b: RSrc,
        },
    }

    impl Form {
        fn named(&self) -> Option<ROp> {
            match self {
                Form::Generic(op) => specialised(op),
                Form::LoadIdx { dst, kind, a, b } => load_idx(*dst, *kind, *a, *b, 16),
            }
        }

        /// The `dst` registers, the operands and the branch target.
        fn slots(&mut self) -> (Vec<&mut u16>, Vec<&mut RSrc>, Option<&mut u32>) {
            match self {
                Form::Generic(ROp::Bin { dst, a, b, .. }) | Form::LoadIdx { dst, a, b, .. } => {
                    (vec![dst], vec![a, b], None)
                }
                Form::Generic(ROp::BinRelBr {
                    a,
                    b,
                    dst,
                    c,
                    target,
                    ..
                }) => (vec![dst], vec![a, b, c], Some(target)),
                Form::Generic(ROp::Bin2 {
                    a,
                    b,
                    dst1,
                    a2,
                    b2,
                    dst2,
                    ..
                }) => (vec![dst1, dst2], vec![a, b, a2, b2], None),
                Form::Generic(ROp::CvtBin {
                    a,
                    dst1,
                    a2,
                    b2,
                    dst2,
                    ..
                }) => (vec![dst1, dst2], vec![a, a2, b2], None),
                other => panic!("not a table family: {other:?}"),
            }
        }
    }

    /// Every operator (pair of operators) of the shapes the table covers ×
    /// each operand-kind combination lowering can emit, on in-range indices
    /// that differ slot by slot.
    fn forms() -> Vec<Form> {
        use RSrc::{Const as C, Reg as R};
        let pairs = [(R(1), R(3)), (R(1), C(10)), (C(9), R(3))];
        let seconds = [(R(2), R(4)), (R(2), C(11)), (C(9), R(4))];
        let (dst, dst2, if_true) = (7, 5, true);
        let mut out = Vec::new();
        for (a, b) in pairs {
            for &op in BinOp::ALL {
                out.push(Form::Generic(ROp::Bin { dst, op, a, b }));
                for &rel in RelOp::ALL {
                    for c in [R(6), C(11)] {
                        out.push(Form::Generic(ROp::BinRelBr {
                            op,
                            a,
                            b,
                            dst,
                            rel,
                            c,
                            if_true,
                            target: 0,
                            poll: true,
                        }));
                    }
                }
                for &op2 in BinOp::ALL {
                    for (a2, b2) in seconds {
                        out.push(Form::Generic(ROp::Bin2 {
                            op1: op,
                            a,
                            b,
                            dst1: dst,
                            op2,
                            a2,
                            b2,
                            dst2,
                        }));
                    }
                }
            }
            for &kind in LoadKind::ALL {
                out.push(Form::LoadIdx { dst, kind, a, b });
            }
        }
        // A conversion's operand is a register: lowering folds a constant.
        for &cvt in CvtOp::ALL {
            for &op in BinOp::ALL {
                for (a2, b2) in seconds {
                    out.push(Form::Generic(ROp::CvtBin {
                        cvt,
                        a: R(1),
                        dst1: dst,
                        op,
                        a2,
                        b2,
                        dst2,
                    }));
                }
            }
        }
        out
    }

    /// `op` followed by a terminator, in a frame of [`NREGS`] and a pool
    /// of [`NPOOL`].
    fn checked(op: ROp) -> Option<RegFunc> {
        validated(RegFunc {
            nregs: NREGS as u32,
            ops: vec![op, ROp::Return { src: 0, n: 0 }].into_boxed_slice(),
            consts: vec![0; NPOOL as usize].into_boxed_slice(),
        })
    }

    /// What the table leaves generic, said without the table: a `Bin`
    /// whose operator can trap or is floating point, or has a constant on
    /// the left of an operator that does not commute; a fused back edge
    /// other than `i32.add` of a constant then `lt_s`/`lt_u`/`ne`; a fused
    /// pair other than the three measured ones.
    fn stays_generic(form: &Form) -> bool {
        use BinOp::*;
        use RSrc::{Const as C, Reg as R};
        let Form::Generic(op) = form else {
            return false;
        };
        match *op {
            ROp::Bin { op, a, b, .. } => {
                let traps_or_float = matches!(
                    op,
                    I32DivS
                        | I32DivU
                        | I32RemS
                        | I32RemU
                        | I64DivS
                        | I64DivU
                        | I64RemS
                        | I64RemU
                        | F32Add
                        | F32Sub
                        | F32Mul
                        | F32Div
                        | F32Min
                        | F32Max
                        | F32Copysign
                        | F64Add
                        | F64Sub
                        | F64Mul
                        | F64Div
                        | F64Min
                        | F64Max
                        | F64Copysign
                );
                traps_or_float || (matches!((a, b), (C(_), R(_))) && !commutes(op))
            }
            ROp::BinRelBr { op, a, b, rel, .. } => {
                let add_const = op == I32Add && matches!((a, b), (R(_), C(_)) | (C(_), R(_)));
                let back_edge = matches!(rel, RelOp::I32LtS | RelOp::I32LtU | RelOp::I32Ne);
                !(add_const && back_edge) && (op, rel) != (I32And, RelOp::I32Eq)
            }
            ROp::Bin2 { op1, op2, .. } => (op1, op2) != (I64Mul, I32Add),
            ROp::CvtBin { cvt, op, .. } => (cvt, op) != (CvtOp::I64ExtendI32U, I64Add),
            _ => panic!("not a table family: {op:?}"),
        }
    }

    #[test]
    fn every_table_operator_and_operand_form_gets_its_variant() {
        let mut variants = std::collections::HashSet::new();
        for form in forms() {
            let Some(named) = form.named() else {
                assert!(stays_generic(&form), "no variant for {form:?}");
                continue;
            };
            assert!(
                !stays_generic(&form),
                "{form:?} is not in the table: {named:?}"
            );
            // Not a generic instruction any more, and within bounds as
            // built: every `C` operand is held to the pool.
            assert_eq!(specialised(&named), None, "{named:?}");
            assert!(checked(named.clone()).is_some(), "{named:?}");
            variants.insert(format!("{named:?}").split(' ').next().unwrap().to_string());
        }
        // 22 integer operators, 9 load shapes and 3 back edges, each reg·reg
        // (reg·reg-limit) and reg·const; then the pairs, each in every form
        // of its halves (4 + 2 + 4): the whole table is reachable.
        assert_eq!(variants.len(), (22 + 9 + 3) * 2 + 10);
    }

    #[test]
    fn what_the_table_does_not_name_stays_generic() {
        use RSrc::{Const as C, Reg as R};
        let (dst, a, b) = (0, R(0), R(1));
        for op in [BinOp::I32DivU, BinOp::I64RemS, BinOp::F64Add, BinOp::F32Min] {
            assert_eq!(specialised(&ROp::Bin { dst, op, a, b }), None);
        }
        // `c - r` is not `r - c`; `c + r` is `r + c`.
        let (a, b) = (C(0), R(1));
        let op = BinOp::I64Sub;
        assert_eq!(specialised(&ROp::Bin { dst, op, a, b }), None);
        let op = BinOp::I64Add;
        assert_eq!(
            specialised(&ROp::Bin { dst, op, a, b }),
            Some(ROp::I64AddRC { dst, a: 1, b: 0 })
        );
        // The families switching which off moved no workload.
        for op in [
            ROp::Mov { dst, src: a },
            ROp::Load {
                dst,
                kind: LoadKind::I32,
                addr: a,
                offset: 0,
            },
            ROp::Un {
                dst,
                op: UnOp::I32Eqz,
                a,
            },
        ] {
            assert_eq!(specialised(&op), None);
        }
        // Of the fused compare-and-branches, the counted loop's back edge
        // and the one measured pair.
        let fused = |op, rel| ROp::BinRelBr {
            op,
            a: R(0),
            b: C(0),
            dst,
            rel,
            c: C(1),
            if_true: true,
            target: 0,
            poll: false,
        };
        assert!(specialised(&fused(BinOp::I32Add, RelOp::I32LtS)).is_some());
        assert!(specialised(&fused(BinOp::I32And, RelOp::I32Eq)).is_some());
        assert_eq!(specialised(&fused(BinOp::I32And, RelOp::I32Ne)), None);
        assert_eq!(specialised(&fused(BinOp::I32Add, RelOp::I32GeU)), None);
        // Of the other fused pairs, the measured two; a pair one operator
        // away from one stays generic.
        let bin2 = |op2| ROp::Bin2 {
            op1: BinOp::I64Mul,
            a: R(0),
            b: C(0),
            dst1: dst,
            op2,
            a2: R(1),
            b2: C(1),
            dst2: 2,
        };
        assert_eq!(
            specialised(&bin2(BinOp::I32Add)),
            Some(ROp::I64MulI32AddRCRC {
                a: 0,
                b: 0,
                dst1: dst,
                a2: 1,
                b2: 1,
                dst2: 2
            })
        );
        assert_eq!(specialised(&bin2(BinOp::I32Sub)), None);
        let cvt_bin = |cvt| ROp::CvtBin {
            cvt,
            a: R(0),
            dst1: dst,
            op: BinOp::I64Add,
            a2: R(1),
            b2: R(0),
            dst2: 2,
        };
        assert!(specialised(&cvt_bin(CvtOp::I64ExtendI32U)).is_some());
        assert_eq!(specialised(&cvt_bin(CvtOp::I64ExtendI32S)), None);
    }

    /// For every specialised variant of the family `family` picks: the
    /// variant passes [`validated`] as built, and fails it with any one of
    /// its register, pool or branch indices moved out of range — so
    /// `lower` would bail to the stack tier instead of handing it to the
    /// unchecked loop.
    fn assert_out_of_range_is_rejected(family: fn(&Form) -> bool) {
        let mut seen = 0;
        for form in forms().into_iter().filter(family) {
            let Some(named) = form.named() else {
                continue;
            };
            seen += 1;
            assert!(checked(named).is_some());
            let reject = |what: &str, bad: Form| {
                let named = bad.named().expect("the same variant, another index");
                assert!(checked(named.clone()).is_none(), "{what} of {named:?}");
            };
            let (ndst, nsrc) = {
                let mut probe = form.clone();
                let (dsts, srcs, _) = probe.slots();
                (dsts.len(), srcs.len())
            };
            for i in 0..ndst {
                let mut bad = form.clone();
                *bad.slots().0.swap_remove(i) = NREGS;
                reject("dst", bad);
            }
            for i in 0..nsrc {
                let mut bad = form.clone();
                let src = bad.slots().1.swap_remove(i);
                *src = match *src {
                    RSrc::Reg(_) => RSrc::Reg(NREGS),
                    RSrc::Const(_) => RSrc::Const(NPOOL),
                };
                reject("operand", bad);
            }
            let mut bad = form.clone();
            if let Some(target) = bad.slots().2 {
                *target = 2;
                reject("branch target", bad);
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn out_of_range_bin_variants_are_rejected() {
        assert_out_of_range_is_rejected(|f| matches!(f, Form::Generic(ROp::Bin { .. })));
    }

    #[test]
    fn out_of_range_indexed_load_variants_are_rejected() {
        assert_out_of_range_is_rejected(|f| matches!(f, Form::LoadIdx { .. }));
    }

    #[test]
    fn out_of_range_back_edge_variants_are_rejected() {
        assert_out_of_range_is_rejected(|f| {
            matches!(
                f,
                Form::Generic(ROp::BinRelBr {
                    op: BinOp::I32Add,
                    ..
                })
            )
        });
    }

    #[test]
    fn out_of_range_pair_variants_are_rejected() {
        assert_out_of_range_is_rejected(|f| match f {
            Form::Generic(ROp::Bin2 { .. } | ROp::CvtBin { .. }) => true,
            Form::Generic(ROp::BinRelBr { op, .. }) => *op != BinOp::I32Add,
            _ => false,
        });
    }

    /// Runs `op` on the register loop as the body of a function of
    /// [`NREGS`] parameters that returns its whole register file:
    /// `op; return` — or, if `op` branches, to op 2: `r0 = pool[8];
    /// return`. The pool holds `pool`.
    fn run_alone(op: ROp, pool: &[u64], args: &[u64]) -> Vec<u64> {
        let (all, marker) = return_all();
        run_body(vec![op, all.clone(), marker, all], NREGS as u32, pool, args)
            .unwrap_or_else(|trap| panic!("{trap}"))
    }

    /// `return` of the whole register file, and the branch marker `r0 =
    /// pool[8]`.
    fn return_all() -> (ROp, ROp) {
        let all = ROp::Return { src: 0, n: NREGS };
        let marker = ROp::Mov {
            dst: 0,
            src: RSrc::Const(8),
        };
        (all, marker)
    }

    /// Runs `body` on the register loop as a function of [`NREGS`]
    /// parameters and a frame of `nregs`, over one page of memory that
    /// reads zero (and that no page is made for, so the process-wide
    /// resident count `mem`'s tests watch does not move): what it
    /// returns, or its trap.
    fn run_body(
        body: Vec<ROp>,
        nregs: u32,
        pool: &[u64],
        args: &[u64],
    ) -> Result<Vec<u64>, String> {
        use crate::build::ModuleBuilder;
        use crate::interp::{Instance, RunResult, Thread, Value};
        use crate::prep::{FuncDef, Prepared, Program};
        use crate::safepoint::SafepointScheme;
        use crate::types::ValType;
        use std::sync::Arc;

        let regs = [ValType::I64; NREGS as usize];
        let mut mb = ModuleBuilder::new();
        mb.memory(1, Some(1));
        let sig = mb.sig(regs, regs);
        let f = mb.func(sig, |b| {
            for r in 0..NREGS {
                b.local_get(r as u32);
            }
        });
        mb.export("main", f);
        let module = mb.build();
        let mut image = Prepared::build(&module, SafepointScheme::None, true).expect("valid");
        let code = Arc::get_mut(&mut image.bodies[0]).expect("a fresh image");
        code.reg = Some(
            validated(RegFunc {
                nregs,
                ops: body.into_boxed_slice(),
                consts: pool.into(),
            })
            .expect("in bounds"),
        );
        let image = Arc::new(image);
        let funcs = image.bodies.iter().cloned().map(FuncDef::Local).collect();
        let mut inst = Instance::new(Arc::new(Program { image, funcs })).expect("instance");
        let main = inst.export_func("main").expect("main");
        let args: Vec<Value> = args.iter().map(|v| Value::I64(*v as i64)).collect();
        match Thread::new().call(&mut inst, &mut (), main, &args) {
            RunResult::Done(values) => Ok(values.iter().map(Value::raw).collect()),
            RunResult::Trapped(t) => Err(format!("{t:?}")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_named_variant_computes_what_its_generic_form_computes_under_any_aliasing() {
        // Every variant `specialise` makes runs beside the generic form it
        // came from, as built and with one slot made to alias another —
        // the first half's result read by the second half, a result
        // written over an operand — which the named arms must do in the
        // generic arm's order: `dst1` before the second half reads. Some
        // of these aliasings no valid module produces (`i64.mul`'s result
        // read by `i32.add`), so the equivalence corpus cannot reach them.
        let pool: Vec<u64> = (0..NPOOL as u64)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(i as u32 * 7) | 4)
            .collect();
        let argsets: [[u64; NREGS as usize]; 3] = [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [u64::MAX, 7, 0x8000_0000, 4, 0xffff_ffff, 1 << 63, 3, 12],
            [4, 0xffff_ffff_0000_0004, 7, u64::MAX, 9, 31, 0x7fff_ffff, 5],
        ];
        let mut runs = 0;
        for form in forms() {
            let Form::Generic(generic) = form else {
                continue;
            };
            let mut variants = vec![generic.clone()];
            let (ndst, nsrc) = {
                let mut probe = Form::Generic(generic.clone());
                let (dsts, srcs, _) = probe.slots();
                (dsts.len(), srcs.len())
            };
            for d in 0..ndst {
                for s in 0..nsrc {
                    // An operand reads a result register ...
                    let mut v = Form::Generic(generic.clone());
                    let (mut dsts, mut srcs, _) = v.slots();
                    let reg = *dsts.swap_remove(d);
                    let src = srcs.swap_remove(s);
                    if matches!(src, RSrc::Reg(_)) {
                        *src = RSrc::Reg(reg);
                        let Form::Generic(op) = v else { unreachable!() };
                        variants.push(op);
                    }
                    // ... or a result lands on an operand's register.
                    let mut v = Form::Generic(generic.clone());
                    let (mut dsts, mut srcs, _) = v.slots();
                    if let RSrc::Reg(r) = *srcs.swap_remove(s) {
                        *dsts.swap_remove(d) = r;
                        let Form::Generic(op) = v else { unreachable!() };
                        variants.push(op);
                    }
                }
            }
            for mut generic in variants {
                if let ROp::BinRelBr { target, .. } = &mut generic {
                    *target = 2;
                }
                let Some(named) = specialised(&generic) else {
                    continue;
                };
                for args in &argsets {
                    let want = run_alone(generic.clone(), &pool, args);
                    assert_eq!(run_alone(named.clone(), &pool, args), want, "{named:?}");
                    runs += 1;
                }
            }
        }
        assert!(runs > 1000, "{runs}");
    }

    #[test]
    fn lowering_ends_specialised_and_keeps_its_pcs() {
        // The counted loop of `counter_loop_needs_no_movs`, plus a
        // trapping division that has to stay generic.
        let f = pf(
            1,
            0,
            1,
            vec![
                Op::Safepoint,
                Op::LocalGet(0),
                Op::Const(1),
                Op::Bin(BinOp::I32Add),
                Op::LocalSet(0),
                Op::LocalGet(0),
                Op::Const(10),
                Op::Rel(RelOp::I32LtU),
                Op::BrIf(BrDest {
                    target: 0,
                    drop_to: 0,
                    keep: 0,
                }),
                Op::LocalGet(0),
                Op::Const(0),
                Op::Bin(BinOp::I32DivU),
                Op::Return,
            ],
        );
        let named = lower(&f, &[], &[]).expect("lowers");
        // Safepoint, the fused back edge, the division, Return: the
        // rewrite is one for one, so the back edge still targets op 1.
        assert_eq!(named.ops.len(), 4, "{:?}", named.ops);
        assert!(
            matches!(
                named.ops[1],
                ROp::AddI32LtUBrC {
                    target: 1,
                    poll: true,
                    ..
                }
            ),
            "{:?}",
            named.ops
        );
        assert!(matches!(named.ops[2], ROp::Bin { .. }), "{:?}", named.ops);
    }

    // ---- the chains ----------------------------------------------------

    /// Every chain row with its fields made distinct: registers from 0 up,
    /// pool indices from 9 up (so an `R`/`C` confusion fails `checked`),
    /// offsets 0, a branch to op 0.
    fn chain_instances() -> Vec<ROp> {
        let mut rows = chain_rows();
        for row in &mut rows {
            let (mut reg, mut pool) = (0, 9);
            for (_, is_reg, slot) in chain_slots_mut(row) {
                let next = if is_reg { &mut reg } else { &mut pool };
                *slot = *next;
                *next += 1;
            }
        }
        rows
    }

    /// `op` as built, then with each register field in turn set to each
    /// other one's register: results over operands and over each other,
    /// operands on results — aliasings valid code gives a chain and ones
    /// it does not.
    fn aliasings(op: &ROp) -> Vec<ROp> {
        let mut out = vec![op.clone()];
        let regs: Vec<u16> = chain_slots_mut(&mut op.clone())
            .into_iter()
            .filter(|(_, is_reg, _)| *is_reg)
            .map(|(_, _, r)| *r)
            .collect();
        for i in 0..regs.len() {
            for (j, &r) in regs.iter().enumerate() {
                if i != j && regs[i] != r {
                    let mut v = op.clone();
                    let mut slots = chain_slots_mut(&mut v);
                    slots.retain(|(_, is_reg, _)| *is_reg);
                    *slots.swap_remove(i).2 = r;
                    out.push(v);
                }
            }
        }
        out
    }

    /// Two pools: indices 9 up are the chains' constants — an address base
    /// that keeps the load in memory for small registers, a mask or
    /// factor, and a comparand (or addend) the loaded zero equals in one
    /// pool and not in the other. Index 8 is the branch marker.
    fn chain_pools() -> [Vec<u64>; 2] {
        let pool = |c: u64| {
            let mut pool: Vec<u64> = (0..8).map(|i| 0x5bd1_e995u64 << i).collect();
            pool.extend([0xdead, 40, 7 | 5 << 33, c]);
            pool
        };
        [pool(4), pool(0)]
    }

    /// Register files to run a chain on: the load in memory twice, then
    /// past it.
    const CHAIN_ARGS: [[u64; NREGS as usize]; 3] = [
        [3, 1, 2, 3, 4, 5, 6, 7],
        [200, u64::MAX, 0x8000_0000, 9, 0xffff_ffff, 1 << 63, 3, 12],
        [
            70_000,
            0xffff_ffff_0000_0004,
            7,
            u64::MAX,
            9,
            31,
            0x7fff_ffff,
            5,
        ],
    ];

    /// A step as the generic op that runs it.
    fn step_op(step: Step) -> ROp {
        match step {
            Step::Bin { op, a, b, dst } => ROp::Bin { dst, op, a, b },
            Step::Cvt { op, a, dst } => ROp::Cvt { dst, op, a },
            Step::LoadIdx {
                kind,
                a,
                b,
                offset,
                dst,
            } => load_idx(dst, kind, a, b, offset).expect("a load_idx row"),
            Step::Br {
                rel,
                a,
                b,
                if_true,
                target,
                poll,
            } => ROp::RelBr {
                op: rel,
                a,
                b,
                if_true,
                dest: RBr {
                    target,
                    src: 0,
                    dst: 0,
                    keep: 0,
                    poll,
                },
            },
        }
    }

    /// Runs `body` then returns the register file; a branch in it skips
    /// to the marker. The frame has [`MAX_CHAIN`] registers past the
    /// [`NREGS`] it returns.
    fn run_chain_code(mut body: Vec<ROp>, pool: &[u64], args: &[u64]) -> Result<Vec<u64>, String> {
        let marker_at = body.len() as u32 + 1;
        for op in &mut body {
            for_each_dest(op, &mut |t, _| *t = marker_at);
        }
        let (all, marker) = return_all();
        body.extend([all.clone(), marker, all]);
        let nregs = NREGS as u32 + MAX_CHAIN as u32;
        run_body(body, nregs, pool, args)
    }

    /// The run a chain stands for with every link carried in a register no
    /// step writes (step `i`'s result is copied to `NREGS + i`): what the
    /// chain computes whatever its fields alias.
    fn linked_run(op: &ROp) -> Vec<ROp> {
        let mut out = Vec::new();
        for (i, (mut step, links)) in chain_parts(op).expect("a chain").into_iter().enumerate() {
            let via = |l: Option<usize>, s: &mut RSrc| {
                if let Some(l) = l {
                    *s = RSrc::Reg(NREGS + l as u16);
                }
            };
            match &mut step {
                Step::Bin { a, b, .. } | Step::LoadIdx { a, b, .. } | Step::Br { a, b, .. } => {
                    via(links[0], a);
                    via(links[1], b);
                }
                Step::Cvt { a, .. } => via(links[0], a),
            }
            out.push(step_op(step));
            if let Some(dst) = step.dst() {
                out.push(ROp::Mov {
                    dst: NREGS + i as u16,
                    src: RSrc::Reg(dst),
                });
            }
        }
        out
    }

    /// Whether every link of a chain reads a register no step between
    /// wrote: the one condition under which the plain run computes what
    /// the chain does.
    fn links_hold(parts: &[(Step, [Option<usize>; 2])]) -> bool {
        parts.iter().enumerate().all(|(j, (_, links))| {
            links.iter().flatten().all(|&i| {
                let r = parts[i].0.dst();
                parts[i + 1..j].iter().all(|(s, _)| s.dst() != r)
            })
        })
    }

    #[test]
    fn every_chain_row_is_the_run_of_its_steps() {
        let rows = chain_instances();
        assert_eq!(rows.len(), 2);
        for op in rows {
            let steps: Vec<Step> = chain_parts(&op).unwrap().into_iter().map(|p| p.0).collect();
            assert!((2..=MAX_CHAIN).contains(&steps.len()), "{op:?}");
            assert_eq!(chained(&steps), Some(op.clone()));
            assert_eq!(chained(&steps[..steps.len() - 1]), None);
            // Trap order: only a leading load may fail.
            assert!(!steps[1..].iter().any(|s| matches!(s, Step::LoadIdx { .. })));
            assert!(checked(op.clone()).is_some(), "{op:?}");
            assert_eq!(specialised(&op), None);
        }
    }

    #[test]
    fn out_of_range_chain_variants_are_rejected() {
        for op in chain_instances() {
            let n = chain_slots_mut(&mut op.clone()).len();
            for i in 0..n {
                let mut bad = op.clone();
                let (name, is_reg, slot) = chain_slots_mut(&mut bad).swap_remove(i);
                *slot = if is_reg { NREGS } else { NPOOL };
                assert!(checked(bad).is_none(), "{name} of {op:?}");
            }
            let mut bad = op.clone();
            if let Some((target, _)) = chain_dest(&mut bad) {
                *target = 2;
                assert!(checked(bad).is_none(), "branch target of {op:?}");
            }
        }
    }

    #[test]
    fn a_chain_forms_only_where_its_links_hold_and_computes_what_its_run_computes() {
        // Each row's run of generic steps, its fields as built and under
        // every aliasing: where the run's registers carry every link, the
        // round makes the row, and the one op leaves the register file —
        // or the trap — the run leaves; where a step between overwrote a
        // link's register, it leaves the run alone.
        let (mut formed, mut refused) = (0, 0);
        for row in chain_instances() {
            for op in aliasings(&row) {
                let parts = chain_parts(&op).unwrap();
                let steps: Vec<Step> = parts.iter().map(|p| p.0).collect();
                let Some(chain) = chained(&steps) else {
                    assert!(!links_hold(&parts), "a run it could fuse: {op:?}");
                    refused += 1;
                    continue;
                };
                assert!(links_hold(&parts), "a broken link fused: {op:?}");
                assert_eq!(chain, op);
                for (pool, args) in chain_pools()
                    .iter()
                    .flat_map(|p| CHAIN_ARGS.map(|a| (p, a)))
                {
                    let run: Vec<ROp> = steps.iter().map(|s| step_op(*s)).collect();
                    let want = run_chain_code(run, pool, &args);
                    assert_eq!(
                        run_chain_code(vec![chain.clone()], pool, &args),
                        want,
                        "{chain:?}"
                    );
                }
                formed += 1;
            }
        }
        assert!(formed > 20 && refused > 0, "{formed} {refused}");
    }

    #[test]
    fn a_chain_keeps_its_links_in_host_registers_under_any_aliasing() {
        // A chain's arm against its run with every link carried in a
        // register of its own, under every aliasing of its fields — those
        // no module produces included (a result written over a link's
        // register before the link is read): an arm that re-reads a link
        // from the frame, or skips a write, disagrees here.
        let mut runs = 0;
        for row in chain_instances() {
            for op in aliasings(&row) {
                for (pool, args) in chain_pools()
                    .iter()
                    .flat_map(|p| CHAIN_ARGS.map(|a| (p, a)))
                {
                    let want = run_chain_code(linked_run(&op), pool, &args);
                    assert_eq!(
                        run_chain_code(vec![op.clone()], pool, &args),
                        want,
                        "{op:?}"
                    );
                    runs += 1;
                }
            }
        }
        assert!(runs > 100, "{runs}");
    }

    #[test]
    fn the_chain_round_fuses_a_whole_run_and_never_across_a_branch_target() {
        use RSrc::{Const as C, Reg as R};
        // The lua loop's accumulator as the pair pass leaves it, then a
        // branch back to its first op (a run may start at a target) or to
        // its second (it may not hold one).
        let run = vec![
            ROp::Bin {
                dst: 6,
                op: BinOp::I64Add,
                a: R(1),
                b: C(9),
            },
            ROp::CvtBin {
                cvt: CvtOp::I64ExtendI32U,
                a: R(2),
                dst1: 7,
                op: BinOp::I64Add,
                a2: R(6),
                b2: R(7),
                dst2: 6,
            },
            ROp::Bin2 {
                op1: BinOp::I64Mul,
                a: R(6),
                b: C(10),
                dst1: 1,
                op2: BinOp::I32Add,
                a2: R(3),
                b2: C(11),
                dst2: 3,
            },
        ];
        let back = |target| {
            ROp::Br(RBr {
                target,
                src: 0,
                dst: 0,
                keep: 0,
                poll: true,
            })
        };
        let fused = chain([run.clone(), vec![back(0)]].concat());
        assert_eq!(fused.len(), 2, "{fused:?}");
        assert!(matches!(
            fused[0],
            ROp::I64AddExtendAddMulI32AddRCRCRC { .. }
        ));
        assert_eq!(fused[1], back(0));
        let into_the_run = [run.clone(), vec![back(1)]].concat();
        assert_eq!(chain(into_the_run.clone()), into_the_run);
        // Without the independent `i32.add` the run is no row.
        let mut short = run;
        short[2] = ROp::Bin {
            dst: 1,
            op: BinOp::I64Mul,
            a: R(6),
            b: C(10),
        };
        assert_eq!(chain(short.clone()), short);
    }
}
