//! Binary-format decoder: bytes → [`Module`].

use crate::error::DecodeError;
use crate::instr::{AtomicWidth, BlockType, Instr, LoadKind, MemArg, RmwOp, StoreKind};
use crate::leb::Reader;
use crate::module::{
    ConstExpr, DataSegment, ElemSegment, Export, ExportDesc, FuncBody, Global, Import, ImportDesc,
    Module,
};
use crate::types::{FuncType, GlobalType, Limits, MemoryType, TableType, ValType};

const MAGIC: [u8; 4] = *b"\0asm";
const VERSION: [u8; 4] = [1, 0, 0, 0];

/// Decodes a complete binary module.
pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.bytes(4)? != MAGIC || r.bytes(4)? != VERSION {
        return Err(DecodeError::BadHeader);
    }

    let mut m = Module::default();
    let mut last_section = 0u8;
    while !r.is_empty() {
        let id = r.byte()?;
        let size = r.u32()? as usize;
        let body = r.bytes(size)?;
        if id != 0 {
            // Non-custom sections must appear in ascending order, once.
            if id <= last_section {
                return Err(DecodeError::SectionOrder(id));
            }
            last_section = id;
        }
        let mut s = Reader::new(body);
        match id {
            0 => { /* custom section: skipped */ }
            1 => decode_types(&mut s, &mut m)?,
            2 => decode_imports(&mut s, &mut m)?,
            3 => decode_funcs(&mut s, &mut m)?,
            4 => decode_tables(&mut s, &mut m)?,
            5 => decode_memories(&mut s, &mut m)?,
            6 => decode_globals(&mut s, &mut m)?,
            7 => decode_exports(&mut s, &mut m)?,
            8 => m.start = Some(s.u32()?),
            9 => decode_elems(&mut s, &mut m)?,
            10 => decode_code(&mut s, &mut m)?,
            11 => decode_datas(&mut s, &mut m)?,
            12 => { /* data count: informational */ }
            other => return Err(DecodeError::UnknownSection(other)),
        }
        if id != 8 && id != 0 && id != 12 && !s.is_empty() {
            return Err(DecodeError::SectionSize);
        }
    }
    if m.funcs.len() != m.code.len() {
        return Err(DecodeError::Malformed("function/code count mismatch"));
    }
    Ok(m)
}

/// Reads an element count and reserves room for that many elements in
/// `v` — clamped to the bytes left, as every element costs at least one.
/// The count is guest input: on its own it must not size an allocation.
fn count<T>(r: &mut Reader, v: &mut Vec<T>) -> Result<usize, DecodeError> {
    let n = r.u32()? as usize;
    v.reserve_exact(n.min(r.remaining()));
    Ok(n)
}

fn valtype(r: &mut Reader) -> Result<ValType, DecodeError> {
    let b = r.byte()?;
    ValType::from_byte(b).ok_or(DecodeError::Malformed("value type"))
}

fn limits(r: &mut Reader) -> Result<(Limits, bool), DecodeError> {
    let kind = r.byte()?;
    let (has_max, shared) = match kind {
        0x00 => (false, false),
        0x01 => (true, false),
        0x03 => (true, true), // threads proposal: shared memory
        _ => return Err(DecodeError::Malformed("limits kind")),
    };
    let min = r.u32()?;
    let max = if has_max { Some(r.u32()?) } else { None };
    Ok((Limits { min, max }, shared))
}

fn decode_types(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.types)? {
        if r.byte()? != 0x60 {
            return Err(DecodeError::Malformed("functype tag"));
        }
        let mut params = Vec::new();
        for _ in 0..count(r, &mut params)? {
            params.push(valtype(r)?);
        }
        let mut results = Vec::new();
        for _ in 0..count(r, &mut results)? {
            results.push(valtype(r)?);
        }
        m.types.push(FuncType { params, results });
    }
    Ok(())
}

fn decode_imports(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.imports)? {
        let module = r.name()?;
        let name = r.name()?;
        let desc = match r.byte()? {
            0x00 => ImportDesc::Func(r.u32()?),
            0x01 => {
                if r.byte()? != 0x70 {
                    return Err(DecodeError::Malformed("table elem type"));
                }
                let (l, _) = limits(r)?;
                ImportDesc::Table(TableType { limits: l })
            }
            0x02 => {
                let (l, shared) = limits(r)?;
                ImportDesc::Memory(MemoryType { limits: l, shared })
            }
            0x03 => {
                let ty = valtype(r)?;
                let mutable = match r.byte()? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::Malformed("global mutability")),
                };
                ImportDesc::Global(GlobalType { ty, mutable })
            }
            _ => return Err(DecodeError::Malformed("import kind")),
        };
        m.imports.push(Import { module, name, desc });
    }
    Ok(())
}

fn decode_funcs(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.funcs)? {
        m.funcs.push(r.u32()?);
    }
    Ok(())
}

fn decode_tables(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.tables)? {
        if r.byte()? != 0x70 {
            return Err(DecodeError::Malformed("table elem type"));
        }
        let (l, _) = limits(r)?;
        m.tables.push(TableType { limits: l });
    }
    Ok(())
}

fn decode_memories(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.memories)? {
        let (l, shared) = limits(r)?;
        m.memories.push(MemoryType { limits: l, shared });
    }
    Ok(())
}

fn const_expr(r: &mut Reader) -> Result<ConstExpr, DecodeError> {
    let op = r.byte()?;
    let e = match op {
        0x41 => ConstExpr::I32(r.i32()?),
        0x42 => ConstExpr::I64(r.i64()?),
        0x43 => ConstExpr::F32(r.f32_bits()?),
        0x44 => ConstExpr::F64(r.f64_bits()?),
        0x23 => ConstExpr::GlobalGet(r.u32()?),
        0xd0 => {
            r.byte()?; // heap type
            ConstExpr::RefNull
        }
        0xd2 => ConstExpr::RefFunc(r.u32()?),
        _ => return Err(DecodeError::Malformed("const expr opcode")),
    };
    if r.byte()? != 0x0b {
        return Err(DecodeError::Malformed("const expr terminator"));
    }
    Ok(e)
}

fn decode_globals(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.globals)? {
        let ty = valtype(r)?;
        let mutable = match r.byte()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Malformed("global mutability")),
        };
        let init = const_expr(r)?;
        m.globals.push(Global {
            ty: GlobalType { ty, mutable },
            init,
        });
    }
    Ok(())
}

fn decode_exports(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.exports)? {
        let name = r.name()?;
        let kind = r.byte()?;
        let idx = r.u32()?;
        let desc = match kind {
            0x00 => ExportDesc::Func(idx),
            0x01 => ExportDesc::Table(idx),
            0x02 => ExportDesc::Memory(idx),
            0x03 => ExportDesc::Global(idx),
            _ => return Err(DecodeError::Malformed("export kind")),
        };
        m.exports.push(Export { name, desc });
    }
    Ok(())
}

fn decode_elems(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.elems)? {
        if r.u32()? != 0 {
            return Err(DecodeError::Malformed("element segment kind"));
        }
        let offset = const_expr(r)?;
        let mut funcs = Vec::new();
        for _ in 0..count(r, &mut funcs)? {
            funcs.push(r.u32()?);
        }
        m.elems.push(ElemSegment { offset, funcs });
    }
    Ok(())
}

fn decode_datas(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.datas)? {
        if r.u32()? != 0 {
            return Err(DecodeError::Malformed("data segment kind"));
        }
        let offset = const_expr(r)?;
        let n = r.u32()? as usize;
        let bytes = r.bytes(n)?.to_vec();
        m.datas.push(DataSegment { offset, bytes });
    }
    Ok(())
}

fn decode_code(r: &mut Reader, m: &mut Module) -> Result<(), DecodeError> {
    for _ in 0..count(r, &mut m.code)? {
        let size = r.u32()? as usize;
        let body = r.bytes(size)?;
        let mut br = Reader::new(body);
        let mut locals = Vec::new();
        let mut total: u64 = 0;
        for _ in 0..count(&mut br, &mut locals)? {
            let n = br.u32()?;
            let t = valtype(&mut br)?;
            total += n as u64;
            if total > 100_000 {
                return Err(DecodeError::Malformed("too many locals"));
            }
            locals.push((n, t));
        }
        let instrs = decode_expr(&mut br)?;
        if !br.is_empty() {
            return Err(DecodeError::SectionSize);
        }
        m.code.push(FuncBody { locals, instrs });
    }
    Ok(())
}

fn block_type(r: &mut Reader) -> Result<BlockType, DecodeError> {
    // Peek: 0x40 is empty, a valtype byte is single-result, otherwise an
    // SLEB type index.
    let b = r.byte()?;
    if b == 0x40 {
        return Ok(BlockType::Empty);
    }
    if let Some(t) = ValType::from_byte(b) {
        return Ok(BlockType::Value(t));
    }
    // Signed LEB index whose first byte we already consumed: only support
    // the single-byte positive form (type indices < 64), which covers all
    // modules this repo builds.
    if b & 0x80 == 0 && b & 0x40 == 0 {
        Ok(BlockType::Func(b as u32))
    } else {
        Err(DecodeError::Malformed("block type"))
    }
}

/// Decodes an instruction sequence terminated by a balanced final `End`
/// (the terminator itself is consumed but not included).
pub fn decode_expr(r: &mut Reader) -> Result<Vec<Instr>, DecodeError> {
    // An instruction is at least one byte.
    let mut out = Vec::with_capacity(r.remaining());
    let mut depth = 0usize;
    loop {
        let op = r.byte()?;
        let instr = match op {
            0x00 => Instr::Unreachable,
            0x01 => Instr::Nop,
            0x02 => {
                depth += 1;
                Instr::Block(block_type(r)?)
            }
            0x03 => {
                depth += 1;
                Instr::Loop(block_type(r)?)
            }
            0x04 => {
                depth += 1;
                Instr::If(block_type(r)?)
            }
            0x05 => Instr::Else,
            0x0b => {
                if depth == 0 {
                    return Ok(out);
                }
                depth -= 1;
                Instr::End
            }
            0x0c => Instr::Br(r.u32()?),
            0x0d => Instr::BrIf(r.u32()?),
            0x0e => {
                let mut targets = Vec::new();
                for _ in 0..count(r, &mut targets)? {
                    targets.push(r.u32()?);
                }
                let default = r.u32()?;
                Instr::BrTable(targets.into_boxed_slice(), default)
            }
            0x0f => Instr::Return,
            0x10 => Instr::Call(r.u32()?),
            0x11 => {
                let ty = r.u32()?;
                let table = r.u32()?;
                if table != 0 {
                    return Err(DecodeError::Malformed("call_indirect table"));
                }
                Instr::CallIndirect(ty)
            }
            0x1a => Instr::Drop,
            0x1b => Instr::Select,
            0x20 => Instr::LocalGet(r.u32()?),
            0x21 => Instr::LocalSet(r.u32()?),
            0x22 => Instr::LocalTee(r.u32()?),
            0x23 => Instr::GlobalGet(r.u32()?),
            0x24 => Instr::GlobalSet(r.u32()?),
            0x28..=0x35 => {
                let kind = match op {
                    0x28 => LoadKind::I32,
                    0x29 => LoadKind::I64,
                    0x2a => LoadKind::F32,
                    0x2b => LoadKind::F64,
                    0x2c => LoadKind::I32_8S,
                    0x2d => LoadKind::I32_8U,
                    0x2e => LoadKind::I32_16S,
                    0x2f => LoadKind::I32_16U,
                    0x30 => LoadKind::I64_8S,
                    0x31 => LoadKind::I64_8U,
                    0x32 => LoadKind::I64_16S,
                    0x33 => LoadKind::I64_16U,
                    0x34 => LoadKind::I64_32S,
                    _ => LoadKind::I64_32U,
                };
                Instr::Load(kind, memarg(r)?)
            }
            0x36..=0x3e => {
                let kind = match op {
                    0x36 => StoreKind::I32,
                    0x37 => StoreKind::I64,
                    0x38 => StoreKind::F32,
                    0x39 => StoreKind::F64,
                    0x3a => StoreKind::I32_8,
                    0x3b => StoreKind::I32_16,
                    0x3c => StoreKind::I64_8,
                    0x3d => StoreKind::I64_16,
                    _ => StoreKind::I64_32,
                };
                Instr::Store(kind, memarg(r)?)
            }
            0x3f => {
                r.byte()?;
                Instr::MemorySize
            }
            0x40 => {
                r.byte()?;
                Instr::MemoryGrow
            }
            0x41 => Instr::I32Const(r.i32()?),
            0x42 => Instr::I64Const(r.i64()?),
            0x43 => Instr::F32Const(r.f32_bits()?),
            0x44 => Instr::F64Const(r.f64_bits()?),
            0x45..=0xc4 => simple_op(op)?,
            0xfc => {
                let sub = r.u32()?;
                match sub {
                    10 => {
                        r.byte()?;
                        r.byte()?;
                        Instr::MemoryCopy
                    }
                    11 => {
                        r.byte()?;
                        Instr::MemoryFill
                    }
                    _ => return Err(DecodeError::UnknownOpcode(0xfc00 | sub)),
                }
            }
            0xfe => {
                let sub = r.u32()?;
                match sub {
                    0x00 => Instr::AtomicNotify(memarg(r)?),
                    0x01 => Instr::AtomicWait32(memarg(r)?),
                    0x03 => {
                        r.byte()?;
                        Instr::AtomicFence
                    }
                    0x10 => Instr::AtomicLoad(AtomicWidth::I32, memarg(r)?),
                    0x11 => Instr::AtomicLoad(AtomicWidth::I64, memarg(r)?),
                    0x17 => Instr::AtomicStore(AtomicWidth::I32, memarg(r)?),
                    0x18 => Instr::AtomicStore(AtomicWidth::I64, memarg(r)?),
                    0x1e => Instr::AtomicRmw(RmwOp::Add, memarg(r)?),
                    0x25 => Instr::AtomicRmw(RmwOp::Sub, memarg(r)?),
                    0x2c => Instr::AtomicRmw(RmwOp::And, memarg(r)?),
                    0x33 => Instr::AtomicRmw(RmwOp::Or, memarg(r)?),
                    0x3a => Instr::AtomicRmw(RmwOp::Xor, memarg(r)?),
                    0x41 => Instr::AtomicRmw(RmwOp::Xchg, memarg(r)?),
                    0x48 => Instr::AtomicCmpxchg(memarg(r)?),
                    _ => return Err(DecodeError::UnknownOpcode(0xfe00 | sub)),
                }
            }
            other => return Err(DecodeError::UnknownOpcode(other as u32)),
        };
        out.push(instr);
    }
}

fn memarg(r: &mut Reader) -> Result<MemArg, DecodeError> {
    let align = r.u32()?;
    let offset = r.u32()?;
    Ok(MemArg { align, offset })
}

/// Decodes the dense single-byte numeric opcode range 0x45..=0xc4.
fn simple_op(op: u8) -> Result<Instr, DecodeError> {
    use crate::instr::{BinOp::*, CvtOp::*, RelOp::*, UnOp::*};
    let instr = match op {
        0x45 => Instr::Un(I32Eqz),
        0x46 => Instr::Rel(I32Eq),
        0x47 => Instr::Rel(I32Ne),
        0x48 => Instr::Rel(I32LtS),
        0x49 => Instr::Rel(I32LtU),
        0x4a => Instr::Rel(I32GtS),
        0x4b => Instr::Rel(I32GtU),
        0x4c => Instr::Rel(I32LeS),
        0x4d => Instr::Rel(I32LeU),
        0x4e => Instr::Rel(I32GeS),
        0x4f => Instr::Rel(I32GeU),
        0x50 => Instr::Un(I64Eqz),
        0x51 => Instr::Rel(I64Eq),
        0x52 => Instr::Rel(I64Ne),
        0x53 => Instr::Rel(I64LtS),
        0x54 => Instr::Rel(I64LtU),
        0x55 => Instr::Rel(I64GtS),
        0x56 => Instr::Rel(I64GtU),
        0x57 => Instr::Rel(I64LeS),
        0x58 => Instr::Rel(I64LeU),
        0x59 => Instr::Rel(I64GeS),
        0x5a => Instr::Rel(I64GeU),
        0x5b => Instr::Rel(F32Eq),
        0x5c => Instr::Rel(F32Ne),
        0x5d => Instr::Rel(F32Lt),
        0x5e => Instr::Rel(F32Gt),
        0x5f => Instr::Rel(F32Le),
        0x60 => Instr::Rel(F32Ge),
        0x61 => Instr::Rel(F64Eq),
        0x62 => Instr::Rel(F64Ne),
        0x63 => Instr::Rel(F64Lt),
        0x64 => Instr::Rel(F64Gt),
        0x65 => Instr::Rel(F64Le),
        0x66 => Instr::Rel(F64Ge),
        0x67 => Instr::Un(I32Clz),
        0x68 => Instr::Un(I32Ctz),
        0x69 => Instr::Un(I32Popcnt),
        0x6a => Instr::Bin(I32Add),
        0x6b => Instr::Bin(I32Sub),
        0x6c => Instr::Bin(I32Mul),
        0x6d => Instr::Bin(I32DivS),
        0x6e => Instr::Bin(I32DivU),
        0x6f => Instr::Bin(I32RemS),
        0x70 => Instr::Bin(I32RemU),
        0x71 => Instr::Bin(I32And),
        0x72 => Instr::Bin(I32Or),
        0x73 => Instr::Bin(I32Xor),
        0x74 => Instr::Bin(I32Shl),
        0x75 => Instr::Bin(I32ShrS),
        0x76 => Instr::Bin(I32ShrU),
        0x77 => Instr::Bin(I32Rotl),
        0x78 => Instr::Bin(I32Rotr),
        0x79 => Instr::Un(I64Clz),
        0x7a => Instr::Un(I64Ctz),
        0x7b => Instr::Un(I64Popcnt),
        0x7c => Instr::Bin(I64Add),
        0x7d => Instr::Bin(I64Sub),
        0x7e => Instr::Bin(I64Mul),
        0x7f => Instr::Bin(I64DivS),
        0x80 => Instr::Bin(I64DivU),
        0x81 => Instr::Bin(I64RemS),
        0x82 => Instr::Bin(I64RemU),
        0x83 => Instr::Bin(I64And),
        0x84 => Instr::Bin(I64Or),
        0x85 => Instr::Bin(I64Xor),
        0x86 => Instr::Bin(I64Shl),
        0x87 => Instr::Bin(I64ShrS),
        0x88 => Instr::Bin(I64ShrU),
        0x89 => Instr::Bin(I64Rotl),
        0x8a => Instr::Bin(I64Rotr),
        0x8b => Instr::Un(F32Abs),
        0x8c => Instr::Un(F32Neg),
        0x8d => Instr::Un(F32Ceil),
        0x8e => Instr::Un(F32Floor),
        0x8f => Instr::Un(F32Trunc),
        0x90 => Instr::Un(F32Nearest),
        0x91 => Instr::Un(F32Sqrt),
        0x92 => Instr::Bin(F32Add),
        0x93 => Instr::Bin(F32Sub),
        0x94 => Instr::Bin(F32Mul),
        0x95 => Instr::Bin(F32Div),
        0x96 => Instr::Bin(F32Min),
        0x97 => Instr::Bin(F32Max),
        0x98 => Instr::Bin(F32Copysign),
        0x99 => Instr::Un(F64Abs),
        0x9a => Instr::Un(F64Neg),
        0x9b => Instr::Un(F64Ceil),
        0x9c => Instr::Un(F64Floor),
        0x9d => Instr::Un(F64Trunc),
        0x9e => Instr::Un(F64Nearest),
        0x9f => Instr::Un(F64Sqrt),
        0xa0 => Instr::Bin(F64Add),
        0xa1 => Instr::Bin(F64Sub),
        0xa2 => Instr::Bin(F64Mul),
        0xa3 => Instr::Bin(F64Div),
        0xa4 => Instr::Bin(F64Min),
        0xa5 => Instr::Bin(F64Max),
        0xa6 => Instr::Bin(F64Copysign),
        0xa7 => Instr::Cvt(I32WrapI64),
        0xa8 => Instr::Cvt(I32TruncF32S),
        0xa9 => Instr::Cvt(I32TruncF32U),
        0xaa => Instr::Cvt(I32TruncF64S),
        0xab => Instr::Cvt(I32TruncF64U),
        0xac => Instr::Cvt(I64ExtendI32S),
        0xad => Instr::Cvt(I64ExtendI32U),
        0xae => Instr::Cvt(I64TruncF32S),
        0xaf => Instr::Cvt(I64TruncF32U),
        0xb0 => Instr::Cvt(I64TruncF64S),
        0xb1 => Instr::Cvt(I64TruncF64U),
        0xb2 => Instr::Cvt(F32ConvertI32S),
        0xb3 => Instr::Cvt(F32ConvertI32U),
        0xb4 => Instr::Cvt(F32ConvertI64S),
        0xb5 => Instr::Cvt(F32ConvertI64U),
        0xb6 => Instr::Cvt(F32DemoteF64),
        0xb7 => Instr::Cvt(F64ConvertI32S),
        0xb8 => Instr::Cvt(F64ConvertI32U),
        0xb9 => Instr::Cvt(F64ConvertI64S),
        0xba => Instr::Cvt(F64ConvertI64U),
        0xbb => Instr::Cvt(F64PromoteF32),
        0xbc => Instr::Cvt(I32ReinterpretF32),
        0xbd => Instr::Cvt(I64ReinterpretF64),
        0xbe => Instr::Cvt(F32ReinterpretI32),
        0xbf => Instr::Cvt(F64ReinterpretI64),
        0xc0 => Instr::Un(I32Extend8S),
        0xc1 => Instr::Un(I32Extend16S),
        0xc2 => Instr::Un(I64Extend8S),
        0xc3 => Instr::Un(I64Extend16S),
        0xc4 => Instr::Un(I64Extend32S),
        other => return Err(DecodeError::UnknownOpcode(other as u32)),
    };
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_header() {
        assert_eq!(decode(b"\0nope\x01\0\0\0"), Err(DecodeError::BadHeader));
        assert_eq!(decode(b"\0asm\x02\0\0\0"), Err(DecodeError::BadHeader));
    }

    #[test]
    fn decodes_empty_module() {
        let bytes = [b'\0', b'a', b's', b'm', 1, 0, 0, 0];
        let m = decode(&bytes).unwrap();
        assert_eq!(m, Module::default());
    }

    #[test]
    fn rejects_out_of_order_sections() {
        // type section (1) after function section (3).
        let bytes = [
            b'\0', b'a', b's', b'm', 1, 0, 0, 0, //
            3, 1, 0, // function section, empty
            1, 1, 0, // type section, empty
        ];
        assert_eq!(decode(&bytes), Err(DecodeError::SectionOrder(1)));
    }

    #[test]
    fn a_count_beyond_the_input_is_eof_not_an_allocation() {
        // One function whose body claims 0xFFFF_FFFF local runs: sizing
        // the vector from that count asked the allocator for 32 GiB and
        // aborted the host.
        let bytes = [
            0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00, //
            0x01, 0x04, 0x01, 0x60, 0x00, 0x00, // type: () -> ()
            0x03, 0x02, 0x01, 0x00, // one function of type 0
            0x0a, 0x08, 0x01, 0x06, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x0b,
        ];
        assert_eq!(decode(&bytes), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn rejects_unknown_opcode() {
        let mut r = Reader::new(&[0xf5, 0x0b]);
        assert!(matches!(
            decode_expr(&mut r),
            Err(DecodeError::UnknownOpcode(0xf5))
        ));
    }
}
