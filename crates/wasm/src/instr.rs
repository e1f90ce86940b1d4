//! The structured instruction set: core Wasm MVP plus sign-extension,
//! bulk-memory (`memory.copy`/`memory.fill`) and the threads-proposal
//! subset WALI needs for instance-per-thread workloads.

use crate::types::ValType;

/// Alignment/offset immediate of a memory instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemArg {
    /// log2 of the alignment hint.
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    /// Convenience constructor with natural alignment 0.
    pub fn offset(offset: u32) -> Self {
        MemArg { align: 0, offset }
    }
}

/// Result/continuation type of a block-like construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockType {
    /// `[] -> []`
    Empty,
    /// `[] -> [t]`
    Value(ValType),
    /// Full signature by type index (multi-value / block params).
    Func(u32),
}

/// Width of an atomic access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicWidth {
    /// 32-bit.
    I32,
    /// 64-bit.
    I64,
}

impl AtomicWidth {
    /// The value type moved by this access.
    pub fn ty(self) -> ValType {
        match self {
            AtomicWidth::I32 => ValType::I32,
            AtomicWidth::I64 => ValType::I64,
        }
    }

    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            AtomicWidth::I32 => 4,
            AtomicWidth::I64 => 8,
        }
    }
}

/// Read-modify-write operator for `i32.atomic.rmw.*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum RmwOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Xchg,
}

/// Declares a fieldless operator enum together with `ALL`, the list of
/// its variants in declaration order — one declaration, so the list
/// cannot miss an operator (the specialisation table in [`crate::regir`]
/// and the tier-equivalence corpus both walk it).
macro_rules! op_enum {
    ($(#[$meta:meta])* $name:ident { $($variant:ident),* $(,)? }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum $name {
            $($variant),*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];
        }
    };
}

op_enum! {
    /// A memory load shape.
    LoadKind {
        I32,
        I64,
        F32,
        F64,
        I32_8S,
        I32_8U,
        I32_16S,
        I32_16U,
        I64_8S,
        I64_8U,
        I64_16S,
        I64_16U,
        I64_32S,
        I64_32U,
    }
}

impl LoadKind {
    /// The type pushed by the load.
    pub fn result(self) -> ValType {
        use LoadKind::*;
        match self {
            I32 | I32_8S | I32_8U | I32_16S | I32_16U => ValType::I32,
            I64 | I64_8S | I64_8U | I64_16S | I64_16U | I64_32S | I64_32U => ValType::I64,
            F32 => ValType::F32,
            F64 => ValType::F64,
        }
    }

    /// Access width in bytes.
    pub fn bytes(self) -> u32 {
        use LoadKind::*;
        match self {
            I32_8S | I32_8U | I64_8S | I64_8U => 1,
            I32_16S | I32_16U | I64_16S | I64_16U => 2,
            I32 | F32 | I64_32S | I64_32U => 4,
            I64 | F64 => 8,
        }
    }
}

op_enum! {
    /// A memory store shape.
    StoreKind {
        I32,
        I64,
        F32,
        F64,
        I32_8,
        I32_16,
        I64_8,
        I64_16,
        I64_32,
    }
}

impl StoreKind {
    /// The operand type popped by the store.
    pub fn operand(self) -> ValType {
        use StoreKind::*;
        match self {
            I32 | I32_8 | I32_16 => ValType::I32,
            I64 | I64_8 | I64_16 | I64_32 => ValType::I64,
            F32 => ValType::F32,
            F64 => ValType::F64,
        }
    }

    /// Access width in bytes.
    pub fn bytes(self) -> u32 {
        use StoreKind::*;
        match self {
            I32_8 | I64_8 => 1,
            I32_16 | I64_16 => 2,
            I32 | F32 | I64_32 => 4,
            I64 | F64 => 8,
        }
    }
}

op_enum! {
    /// Unary operators (one operand, one result).
    UnOp {
        I32Clz,
        I32Ctz,
        I32Popcnt,
        I32Eqz,
        I64Clz,
        I64Ctz,
        I64Popcnt,
        I64Eqz,
        F32Abs,
        F32Neg,
        F32Ceil,
        F32Floor,
        F32Trunc,
        F32Nearest,
        F32Sqrt,
        F64Abs,
        F64Neg,
        F64Ceil,
        F64Floor,
        F64Trunc,
        F64Nearest,
        F64Sqrt,
        I32Extend8S,
        I32Extend16S,
        I64Extend8S,
        I64Extend16S,
        I64Extend32S,
    }
}

impl UnOp {
    /// `(input, output)` value types.
    pub fn sig(self) -> (ValType, ValType) {
        use UnOp::*;
        use ValType::*;
        match self {
            I32Clz | I32Ctz | I32Popcnt | I32Extend8S | I32Extend16S => (I32, I32),
            I32Eqz => (I32, I32),
            I64Clz | I64Ctz | I64Popcnt | I64Extend8S | I64Extend16S | I64Extend32S => (I64, I64),
            I64Eqz => (I64, I32),
            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt => (F32, F32),
            F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt => (F64, F64),
        }
    }
}

op_enum! {
    /// Binary operators (`(t, t) -> t`).
    BinOp {
        I32Add,
        I32Sub,
        I32Mul,
        I32DivS,
        I32DivU,
        I32RemS,
        I32RemU,
        I32And,
        I32Or,
        I32Xor,
        I32Shl,
        I32ShrS,
        I32ShrU,
        I32Rotl,
        I32Rotr,
        I64Add,
        I64Sub,
        I64Mul,
        I64DivS,
        I64DivU,
        I64RemS,
        I64RemU,
        I64And,
        I64Or,
        I64Xor,
        I64Shl,
        I64ShrS,
        I64ShrU,
        I64Rotl,
        I64Rotr,
        F32Add,
        F32Sub,
        F32Mul,
        F32Div,
        F32Min,
        F32Max,
        F32Copysign,
        F64Add,
        F64Sub,
        F64Mul,
        F64Div,
        F64Min,
        F64Max,
        F64Copysign,
    }
}

impl BinOp {
    /// The operand/result value type.
    pub fn ty(self) -> ValType {
        use BinOp::*;
        match self {
            I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU | I32And | I32Or
            | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr => ValType::I32,
            I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or
            | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr => ValType::I64,
            F32Add | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign => ValType::F32,
            F64Add | F64Sub | F64Mul | F64Div | F64Min | F64Max | F64Copysign => ValType::F64,
        }
    }
}

op_enum! {
    /// Comparison operators (`(t, t) -> i32`).
    RelOp {
        I32Eq,
        I32Ne,
        I32LtS,
        I32LtU,
        I32GtS,
        I32GtU,
        I32LeS,
        I32LeU,
        I32GeS,
        I32GeU,
        I64Eq,
        I64Ne,
        I64LtS,
        I64LtU,
        I64GtS,
        I64GtU,
        I64LeS,
        I64LeU,
        I64GeS,
        I64GeU,
        F32Eq,
        F32Ne,
        F32Lt,
        F32Gt,
        F32Le,
        F32Ge,
        F64Eq,
        F64Ne,
        F64Lt,
        F64Gt,
        F64Le,
        F64Ge,
    }
}

impl RelOp {
    /// The operand value type (result is always `i32`).
    pub fn operand(self) -> ValType {
        use RelOp::*;
        match self {
            I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS
            | I32GeU => ValType::I32,
            I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS
            | I64GeU => ValType::I64,
            F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge => ValType::F32,
            F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge => ValType::F64,
        }
    }
}

op_enum! {
    /// Conversion operators.
    CvtOp {
        I32WrapI64,
        I32TruncF32S,
        I32TruncF32U,
        I32TruncF64S,
        I32TruncF64U,
        I64ExtendI32S,
        I64ExtendI32U,
        I64TruncF32S,
        I64TruncF32U,
        I64TruncF64S,
        I64TruncF64U,
        F32ConvertI32S,
        F32ConvertI32U,
        F32ConvertI64S,
        F32ConvertI64U,
        F32DemoteF64,
        F64ConvertI32S,
        F64ConvertI32U,
        F64ConvertI64S,
        F64ConvertI64U,
        F64PromoteF32,
        I32ReinterpretF32,
        I64ReinterpretF64,
        F32ReinterpretI32,
        F64ReinterpretI64,
    }
}

impl CvtOp {
    /// `(from, to)` value types.
    pub fn sig(self) -> (ValType, ValType) {
        use CvtOp::*;
        use ValType::*;
        match self {
            I32WrapI64 => (I64, I32),
            I32TruncF32S | I32TruncF32U => (F32, I32),
            I32TruncF64S | I32TruncF64U => (F64, I32),
            I64ExtendI32S | I64ExtendI32U => (I32, I64),
            I64TruncF32S | I64TruncF32U => (F32, I64),
            I64TruncF64S | I64TruncF64U => (F64, I64),
            F32ConvertI32S | F32ConvertI32U => (I32, F32),
            F32ConvertI64S | F32ConvertI64U => (I64, F32),
            F32DemoteF64 => (F64, F32),
            F64ConvertI32S | F64ConvertI32U => (I32, F64),
            F64ConvertI64S | F64ConvertI64U => (I64, F64),
            F64PromoteF32 => (F32, F64),
            I32ReinterpretF32 => (F32, I32),
            I64ReinterpretF64 => (F64, I64),
            F32ReinterpretI32 => (I32, F32),
            F64ReinterpretI64 => (I64, F64),
        }
    }
}

/// A structured (pre-flattening) instruction, mirroring the binary format.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum Instr {
    Unreachable,
    Nop,
    Block(BlockType),
    Loop(BlockType),
    If(BlockType),
    Else,
    End,
    Br(u32),
    BrIf(u32),
    /// Targets plus the default label.
    BrTable(Box<[u32]>, u32),
    Return,
    Call(u32),
    /// Type index (table index fixed to 0).
    CallIndirect(u32),
    Drop,
    Select,
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),
    Load(LoadKind, MemArg),
    Store(StoreKind, MemArg),
    MemorySize,
    MemoryGrow,
    MemoryCopy,
    MemoryFill,
    I32Const(i32),
    I64Const(i64),
    /// Bit pattern (NaN-exact).
    F32Const(u32),
    /// Bit pattern (NaN-exact).
    F64Const(u64),
    Un(UnOp),
    Bin(BinOp),
    Rel(RelOp),
    Cvt(CvtOp),
    AtomicNotify(MemArg),
    AtomicWait32(MemArg),
    AtomicFence,
    AtomicLoad(AtomicWidth, MemArg),
    AtomicStore(AtomicWidth, MemArg),
    /// i32-only read-modify-write.
    AtomicRmw(RmwOp, MemArg),
    /// i32-only compare-exchange.
    AtomicCmpxchg(MemArg),
}

#[cfg(test)]
mod tests {
    use super::*;
    use ValType::*;

    #[test]
    fn all_lists_every_variant_in_declaration_order() {
        assert_eq!(LoadKind::ALL.len(), 14);
        assert_eq!(StoreKind::ALL.len(), 9);
        assert_eq!(UnOp::ALL.len(), 27);
        assert_eq!(BinOp::ALL.len(), 44);
        assert_eq!(RelOp::ALL.len(), 32);
        assert_eq!(CvtOp::ALL.len(), 25);
        assert!(BinOp::ALL
            .iter()
            .enumerate()
            .all(|(i, op)| *op as usize == i));
        assert_eq!(BinOp::ALL.last(), Some(&BinOp::F64Copysign));
    }

    #[test]
    fn load_kinds_have_consistent_widths() {
        assert_eq!(LoadKind::I32.bytes(), 4);
        assert_eq!(LoadKind::I64.bytes(), 8);
        assert_eq!(LoadKind::I32_8U.bytes(), 1);
        assert_eq!(LoadKind::I64_32S.bytes(), 4);
        assert_eq!(LoadKind::I64_32S.result(), I64);
        assert_eq!(LoadKind::F64.result(), F64);
    }

    #[test]
    fn store_kinds_have_consistent_widths() {
        assert_eq!(StoreKind::I64_32.bytes(), 4);
        assert_eq!(StoreKind::I64_32.operand(), I64);
        assert_eq!(StoreKind::F32.bytes(), 4);
    }

    #[test]
    fn unop_signatures() {
        assert_eq!(UnOp::I32Eqz.sig(), (I32, I32));
        assert_eq!(UnOp::I64Eqz.sig(), (I64, I32));
        assert_eq!(UnOp::F64Sqrt.sig(), (F64, F64));
        assert_eq!(UnOp::I64Extend32S.sig(), (I64, I64));
    }

    #[test]
    fn cvt_signatures() {
        assert_eq!(CvtOp::I32WrapI64.sig(), (I64, I32));
        assert_eq!(CvtOp::I64ExtendI32U.sig(), (I32, I64));
        assert_eq!(CvtOp::F64PromoteF32.sig(), (F32, F64));
        assert_eq!(CvtOp::I32ReinterpretF32.sig(), (F32, I32));
    }

    #[test]
    fn relops_are_typed() {
        assert_eq!(RelOp::I32LtU.operand(), I32);
        assert_eq!(RelOp::I64GeS.operand(), I64);
        assert_eq!(RelOp::F64Le.operand(), F64);
    }
}
