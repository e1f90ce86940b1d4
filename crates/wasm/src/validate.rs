//! Module validation (type checking).
//!
//! Implements the algorithm from the Wasm spec appendix: a value-stack of
//! possibly-unknown types plus a control stack with per-frame unreachable
//! polymorphism. Everything that executes in this repository is validated
//! first — WALI's security story leans on it ("statically validated prior
//! to execution", paper §1.1).

use crate::error::ValidateError;
use crate::instr::{BlockType, Instr};
use crate::module::{ConstExpr, ImportDesc, Module};
use crate::types::{FuncType, GlobalType, ValType};

/// Validates a whole module.
pub fn validate(m: &Module) -> Result<(), ValidateError> {
    // Type indices in function declarations.
    for (i, imp) in m.imports.iter().enumerate() {
        if let ImportDesc::Func(t) = imp.desc {
            if t as usize >= m.types.len() {
                return Err(ValidateError::msg(format!(
                    "import {i}: bad type index {t}"
                )));
            }
        }
    }
    for (i, t) in m.funcs.iter().enumerate() {
        if *t as usize >= m.types.len() {
            return Err(ValidateError::msg(format!("func {i}: bad type index {t}")));
        }
    }
    if m.funcs.len() != m.code.len() {
        return Err(ValidateError::msg("function/code count mismatch"));
    }

    let num_memories = m.memories.len()
        + m.imports
            .iter()
            .filter(|i| matches!(i.desc, ImportDesc::Memory(_)))
            .count();
    if num_memories > 1 {
        return Err(ValidateError::msg("at most one memory is supported"));
    }
    let num_tables = m.tables.len()
        + m.imports
            .iter()
            .filter(|i| matches!(i.desc, ImportDesc::Table(_)))
            .count();
    if num_tables > 1 {
        return Err(ValidateError::msg("at most one table is supported"));
    }
    for mem in &m.memories {
        if !mem.limits.valid() {
            return Err(ValidateError::msg("memory limits min > max"));
        }
        if mem.shared && mem.limits.max.is_none() {
            return Err(ValidateError::msg("shared memory requires a max"));
        }
    }
    for t in &m.tables {
        if !t.limits.valid() {
            return Err(ValidateError::msg("table limits min > max"));
        }
    }

    let globals = global_env(m);
    let imported_globals: Vec<GlobalType> = m
        .imports
        .iter()
        .filter_map(|i| match i.desc {
            ImportDesc::Global(g) => Some(g),
            _ => None,
        })
        .collect();

    // Global initializers: const exprs of matching type, referencing only
    // imported globals.
    for (i, g) in m.globals.iter().enumerate() {
        let ty = g
            .init
            .ty(&imported_globals)
            .ok_or_else(|| ValidateError::msg(format!("global {i}: bad init global index")))?;
        if ty != g.ty.ty {
            return Err(ValidateError::msg(format!(
                "global {i}: init type mismatch"
            )));
        }
        if let ConstExpr::RefFunc(f) = g.init {
            check_func_index(m, f)?;
        }
    }

    // Element segments.
    let total_funcs = m.num_imported_funcs() as usize + m.funcs.len();
    for (i, e) in m.elems.iter().enumerate() {
        let ty = e
            .offset
            .ty(&imported_globals)
            .ok_or_else(|| ValidateError::msg(format!("elem {i}: bad offset global")))?;
        if ty != ValType::I32 {
            return Err(ValidateError::msg(format!("elem {i}: offset must be i32")));
        }
        for f in &e.funcs {
            if *f as usize >= total_funcs {
                return Err(ValidateError::msg(format!("elem {i}: bad func index {f}")));
            }
        }
    }

    // Data segments.
    for (i, d) in m.datas.iter().enumerate() {
        let ty = d
            .offset
            .ty(&imported_globals)
            .ok_or_else(|| ValidateError::msg(format!("data {i}: bad offset global")))?;
        if ty != ValType::I32 {
            return Err(ValidateError::msg(format!("data {i}: offset must be i32")));
        }
        if num_memories == 0 {
            return Err(ValidateError::msg("data segment without memory"));
        }
    }

    // Exports reference valid indices, unique names.
    let mut names = std::collections::HashSet::new();
    for e in &m.exports {
        if !names.insert(e.name.as_str()) {
            return Err(ValidateError::msg(format!("duplicate export {}", e.name)));
        }
        match e.desc {
            crate::module::ExportDesc::Func(f) => check_func_index(m, f)?,
            crate::module::ExportDesc::Memory(i) => {
                if i as usize >= num_memories {
                    return Err(ValidateError::msg("export: bad memory index"));
                }
            }
            crate::module::ExportDesc::Table(i) => {
                if i as usize >= num_tables {
                    return Err(ValidateError::msg("export: bad table index"));
                }
            }
            crate::module::ExportDesc::Global(i) => {
                if i as usize >= globals.len() {
                    return Err(ValidateError::msg("export: bad global index"));
                }
            }
        }
    }

    // Start function: [] -> [].
    if let Some(s) = m.start {
        let ty = m
            .func_type(s)
            .ok_or_else(|| ValidateError::msg("start: bad func index"))?;
        if !ty.params.is_empty() || !ty.results.is_empty() {
            return Err(ValidateError::msg("start function must be [] -> []"));
        }
    }

    // Function bodies.
    let has_memory = num_memories > 0;
    let has_table = num_tables > 0;
    for (i, body) in m.code.iter().enumerate() {
        let func_idx = m.num_imported_funcs() + i as u32;
        let ty = m.func_type(func_idx).expect("checked above").clone();
        FuncValidator::new(m, &globals, has_memory, has_table)
            .validate(&ty, body)
            .map_err(|mut e| {
                e.func = Some(func_idx);
                e
            })?;
    }
    Ok(())
}

fn check_func_index(m: &Module, f: u32) -> Result<(), ValidateError> {
    let total = m.num_imported_funcs() as usize + m.funcs.len();
    if f as usize >= total {
        return Err(ValidateError::msg(format!("bad function index {f}")));
    }
    Ok(())
}

/// Flattened global environment: imported globals first, then defined ones.
fn global_env(m: &Module) -> Vec<GlobalType> {
    let mut v: Vec<GlobalType> = m
        .imports
        .iter()
        .filter_map(|i| match i.desc {
            ImportDesc::Global(g) => Some(g),
            _ => None,
        })
        .collect();
    v.extend(m.globals.iter().map(|g| g.ty));
    v
}

/// `Some(t)` is a known type; `None` is the unknown (polymorphic) type.
type MaybeType = Option<ValType>;

struct CtrlFrame {
    is_loop: bool,
    start_types: Vec<ValType>,
    end_types: Vec<ValType>,
    height: usize,
    unreachable: bool,
}

struct FuncValidator<'m> {
    module: &'m Module,
    globals: &'m [GlobalType],
    has_memory: bool,
    has_table: bool,
    vals: Vec<MaybeType>,
    ctrls: Vec<CtrlFrame>,
    locals: Vec<ValType>,
}

impl<'m> FuncValidator<'m> {
    fn new(
        module: &'m Module,
        globals: &'m [GlobalType],
        has_memory: bool,
        has_table: bool,
    ) -> Self {
        FuncValidator {
            module,
            globals,
            has_memory,
            has_table,
            vals: Vec::new(),
            ctrls: Vec::new(),
            locals: Vec::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ValidateError {
        ValidateError::msg(msg)
    }

    fn push(&mut self, t: MaybeType) {
        self.vals.push(t);
    }

    fn pop(&mut self) -> Result<MaybeType, ValidateError> {
        let frame = self
            .ctrls
            .last()
            .ok_or_else(|| self.err("pop with no frame"))?;
        if self.vals.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return Err(self.err("value stack underflow"));
        }
        Ok(self.vals.pop().expect("non-empty"))
    }

    fn pop_expect(&mut self, want: ValType) -> Result<(), ValidateError> {
        match self.pop()? {
            None => Ok(()),
            Some(got) if got == want => Ok(()),
            Some(got) => Err(self.err(format!("type mismatch: expected {want}, got {got}"))),
        }
    }

    fn pop_types(&mut self, types: &[ValType]) -> Result<(), ValidateError> {
        for t in types.iter().rev() {
            self.pop_expect(*t)?;
        }
        Ok(())
    }

    fn push_types(&mut self, types: &[ValType]) {
        for t in types {
            self.push(Some(*t));
        }
    }

    fn push_frame(&mut self, is_loop: bool, start: Vec<ValType>, end: Vec<ValType>) {
        let height = self.vals.len();
        self.push_types(&start.clone());
        self.ctrls.push(CtrlFrame {
            is_loop,
            start_types: start,
            end_types: end,
            height,
            unreachable: false,
        });
    }

    fn pop_frame(&mut self) -> Result<CtrlFrame, ValidateError> {
        let end_types = self
            .ctrls
            .last()
            .ok_or_else(|| self.err("end with no frame"))?
            .end_types
            .clone();
        self.pop_types(&end_types)?;
        let frame = self.ctrls.pop().expect("non-empty");
        if self.vals.len() != frame.height {
            return Err(self.err("values left on stack at block end"));
        }
        Ok(frame)
    }

    fn mark_unreachable(&mut self) -> Result<(), ValidateError> {
        if self.ctrls.is_empty() {
            return Err(self.err("unreachable with no frame"));
        }
        let frame = self.ctrls.last_mut().expect("non-empty");
        self.vals.truncate(frame.height);
        frame.unreachable = true;
        Ok(())
    }

    fn label_types(&self, depth: u32) -> Result<Vec<ValType>, ValidateError> {
        let idx = self
            .ctrls
            .len()
            .checked_sub(1 + depth as usize)
            .ok_or_else(|| self.err(format!("bad label depth {depth}")))?;
        let frame = &self.ctrls[idx];
        Ok(if frame.is_loop {
            frame.start_types.clone()
        } else {
            frame.end_types.clone()
        })
    }

    fn block_sig(&self, bt: &BlockType) -> Result<(Vec<ValType>, Vec<ValType>), ValidateError> {
        match bt {
            BlockType::Empty => Ok((vec![], vec![])),
            BlockType::Value(t) => Ok((vec![], vec![*t])),
            BlockType::Func(i) => {
                let ty = self
                    .module
                    .types
                    .get(*i as usize)
                    .ok_or_else(|| self.err(format!("bad block type index {i}")))?;
                Ok((ty.params.clone(), ty.results.clone()))
            }
        }
    }

    fn local(&self, i: u32) -> Result<ValType, ValidateError> {
        self.locals
            .get(i as usize)
            .copied()
            .ok_or_else(|| self.err(format!("bad local {i}")))
    }

    fn global(&self, i: u32) -> Result<GlobalType, ValidateError> {
        self.globals
            .get(i as usize)
            .copied()
            .ok_or_else(|| self.err(format!("bad global {i}")))
    }

    fn need_memory(&self) -> Result<(), ValidateError> {
        if self.has_memory {
            Ok(())
        } else {
            Err(self.err("memory instruction without memory"))
        }
    }

    fn validate(
        mut self,
        ty: &FuncType,
        body: &crate::module::FuncBody,
    ) -> Result<(), ValidateError> {
        self.locals = ty.params.clone();
        for (n, t) in &body.locals {
            for _ in 0..*n {
                self.locals.push(*t);
            }
        }
        self.push_frame(false, vec![], ty.results.clone());
        for instr in &body.instrs {
            self.step(instr)?;
        }
        // The implicit end of the function body.
        let frame = self.pop_frame()?;
        self.push_types(&frame.end_types);
        if !self.ctrls.is_empty() {
            return Err(self.err("unclosed block at function end"));
        }
        Ok(())
    }

    fn step(&mut self, instr: &Instr) -> Result<(), ValidateError> {
        use ValType::*;
        match instr {
            Instr::Unreachable => self.mark_unreachable()?,
            Instr::Nop => {}
            Instr::Block(bt) => {
                let (params, results) = self.block_sig(bt)?;
                self.pop_types(&params)?;
                self.push_frame(false, params, results);
            }
            Instr::Loop(bt) => {
                let (params, results) = self.block_sig(bt)?;
                self.pop_types(&params)?;
                self.push_frame(true, params, results);
            }
            Instr::If(bt) => {
                self.pop_expect(I32)?;
                let (params, results) = self.block_sig(bt)?;
                self.pop_types(&params)?;
                self.push_frame(false, params, results);
            }
            Instr::Else => {
                let frame = self.pop_frame()?;
                if frame.is_loop {
                    return Err(self.err("else on a loop frame"));
                }
                self.push_frame(false, frame.start_types, frame.end_types);
            }
            Instr::End => {
                let frame = self.pop_frame()?;
                self.push_types(&frame.end_types);
            }
            Instr::Br(depth) => {
                let tys = self.label_types(*depth)?;
                self.pop_types(&tys)?;
                self.mark_unreachable()?;
            }
            Instr::BrIf(depth) => {
                self.pop_expect(I32)?;
                let tys = self.label_types(*depth)?;
                self.pop_types(&tys)?;
                self.push_types(&tys);
            }
            Instr::BrTable(targets, default) => {
                self.pop_expect(I32)?;
                let def = self.label_types(*default)?;
                for t in targets.iter() {
                    let tys = self.label_types(*t)?;
                    if tys.len() != def.len() {
                        return Err(self.err("br_table arity mismatch"));
                    }
                }
                self.pop_types(&def)?;
                self.mark_unreachable()?;
            }
            Instr::Return => {
                let tys = self.ctrls.first().expect("root frame").end_types.clone();
                self.pop_types(&tys)?;
                self.mark_unreachable()?;
            }
            Instr::Call(f) => {
                // Borrowed from the module, not from `self`.
                let module = self.module;
                let ty = module
                    .func_type(*f)
                    .ok_or_else(|| self.err(format!("call: bad func {f}")))?;
                self.pop_types(&ty.params)?;
                self.push_types(&ty.results);
            }
            Instr::CallIndirect(t) => {
                if !self.has_table {
                    return Err(self.err("call_indirect without table"));
                }
                self.pop_expect(I32)?;
                let module = self.module;
                let ty = module
                    .types
                    .get(*t as usize)
                    .ok_or_else(|| self.err(format!("call_indirect: bad type {t}")))?;
                self.pop_types(&ty.params)?;
                self.push_types(&ty.results);
            }
            Instr::Drop => {
                self.pop()?;
            }
            Instr::Select => {
                self.pop_expect(I32)?;
                let a = self.pop()?;
                let b = self.pop()?;
                match (a, b) {
                    (Some(x), Some(y)) if x == y => self.push(Some(x)),
                    (Some(x), None) | (None, Some(x)) => self.push(Some(x)),
                    (None, None) => self.push(None),
                    _ => return Err(self.err("select operand type mismatch")),
                }
            }
            Instr::LocalGet(i) => {
                let t = self.local(*i)?;
                self.push(Some(t));
            }
            Instr::LocalSet(i) => {
                let t = self.local(*i)?;
                self.pop_expect(t)?;
            }
            Instr::LocalTee(i) => {
                let t = self.local(*i)?;
                self.pop_expect(t)?;
                self.push(Some(t));
            }
            Instr::GlobalGet(i) => {
                let g = self.global(*i)?;
                self.push(Some(g.ty));
            }
            Instr::GlobalSet(i) => {
                let g = self.global(*i)?;
                if !g.mutable {
                    return Err(self.err(format!("global {i} is immutable")));
                }
                self.pop_expect(g.ty)?;
            }
            Instr::Load(kind, arg) => {
                self.need_memory()?;
                if 1u32.checked_shl(arg.align).is_none_or(|a| a > kind.bytes()) {
                    return Err(self.err("load alignment too large"));
                }
                self.pop_expect(I32)?;
                self.push(Some(kind.result()));
            }
            Instr::Store(kind, arg) => {
                self.need_memory()?;
                if 1u32.checked_shl(arg.align).is_none_or(|a| a > kind.bytes()) {
                    return Err(self.err("store alignment too large"));
                }
                self.pop_expect(kind.operand())?;
                self.pop_expect(I32)?;
            }
            Instr::MemorySize => {
                self.need_memory()?;
                self.push(Some(I32));
            }
            Instr::MemoryGrow => {
                self.need_memory()?;
                self.pop_expect(I32)?;
                self.push(Some(I32));
            }
            Instr::MemoryCopy | Instr::MemoryFill => {
                self.need_memory()?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
            }
            Instr::I32Const(_) => self.push(Some(I32)),
            Instr::I64Const(_) => self.push(Some(I64)),
            Instr::F32Const(_) => self.push(Some(F32)),
            Instr::F64Const(_) => self.push(Some(F64)),
            Instr::Un(op) => {
                let (input, output) = op.sig();
                self.pop_expect(input)?;
                self.push(Some(output));
            }
            Instr::Bin(op) => {
                let t = op.ty();
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(Some(t));
            }
            Instr::Rel(op) => {
                let t = op.operand();
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(Some(I32));
            }
            Instr::Cvt(op) => {
                let (from, to) = op.sig();
                self.pop_expect(from)?;
                self.push(Some(to));
            }
            Instr::AtomicNotify(_) => {
                self.need_memory()?;
                self.pop_expect(I32)?; // count
                self.pop_expect(I32)?; // addr
                self.push(Some(I32));
            }
            Instr::AtomicWait32(_) => {
                self.need_memory()?;
                self.pop_expect(I64)?; // timeout
                self.pop_expect(I32)?; // expected
                self.pop_expect(I32)?; // addr
                self.push(Some(I32));
            }
            Instr::AtomicFence => {}
            Instr::AtomicLoad(w, _) => {
                self.need_memory()?;
                self.pop_expect(I32)?;
                self.push(Some(w.ty()));
            }
            Instr::AtomicStore(w, _) => {
                self.need_memory()?;
                self.pop_expect(w.ty())?;
                self.pop_expect(I32)?;
            }
            Instr::AtomicRmw(_, _) => {
                self.need_memory()?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
                self.push(Some(I32));
            }
            Instr::AtomicCmpxchg(_) => {
                self.need_memory()?;
                self.pop_expect(I32)?; // new
                self.pop_expect(I32)?; // expected
                self.pop_expect(I32)?; // addr
                self.push(Some(I32));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BinOp;
    use crate::module::{FuncBody, Global};
    use crate::types::{Limits, MemoryType};

    fn module_with_body(params: Vec<ValType>, results: Vec<ValType>, instrs: Vec<Instr>) -> Module {
        Module {
            types: vec![FuncType { params, results }],
            funcs: vec![0],
            memories: vec![MemoryType {
                limits: Limits {
                    min: 1,
                    max: Some(2),
                },
                shared: false,
            }],
            code: vec![FuncBody {
                locals: vec![],
                instrs,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn accepts_simple_add() {
        let m = module_with_body(
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::Bin(BinOp::I32Add),
            ],
        );
        validate(&m).unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![
                Instr::I64Const(1),
                Instr::I32Const(2),
                Instr::Bin(BinOp::I32Add),
            ],
        );
        assert!(validate(&m).is_err());
    }

    #[test]
    fn rejects_stack_underflow() {
        let m = module_with_body(vec![], vec![ValType::I32], vec![Instr::Bin(BinOp::I32Add)]);
        assert!(validate(&m).is_err());
    }

    #[test]
    fn rejects_leftover_values() {
        let m = module_with_body(vec![], vec![], vec![Instr::I32Const(1)]);
        assert!(validate(&m).is_err());
    }

    #[test]
    fn unreachable_is_polymorphic() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![Instr::Unreachable, Instr::Bin(BinOp::I32Add)],
        );
        validate(&m).unwrap();
    }

    #[test]
    fn br_checks_label_arity() {
        // block (result i32) with a br 0 providing nothing: error.
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![
                Instr::Block(BlockType::Value(ValType::I32)),
                Instr::Br(0),
                Instr::End,
            ],
        );
        assert!(validate(&m).is_err());

        let ok = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![
                Instr::Block(BlockType::Value(ValType::I32)),
                Instr::I32Const(3),
                Instr::Br(0),
                Instr::End,
            ],
        );
        validate(&ok).unwrap();
    }

    #[test]
    fn loop_label_uses_start_types() {
        // br to a loop header carries the loop's params (empty here), so an
        // extra value on the stack is fine at the br point.
        let m = module_with_body(
            vec![],
            vec![],
            vec![
                Instr::Loop(BlockType::Empty),
                Instr::I32Const(1),
                Instr::BrIf(0),
                Instr::End,
            ],
        );
        validate(&m).unwrap();
    }

    #[test]
    fn if_else_must_match() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![
                Instr::I32Const(1),
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::I32Const(1),
                Instr::Else,
                Instr::I64Const(2),
                Instr::End,
            ],
        );
        assert!(validate(&m).is_err());
    }

    #[test]
    fn immutable_global_cannot_be_set() {
        let mut m = module_with_body(
            vec![],
            vec![],
            vec![Instr::I32Const(1), Instr::GlobalSet(0)],
        );
        m.globals.push(Global {
            ty: GlobalType {
                ty: ValType::I32,
                mutable: false,
            },
            init: ConstExpr::I32(0),
        });
        assert!(validate(&m).is_err());
        m.globals[0].ty.mutable = true;
        validate(&m).unwrap();
    }

    #[test]
    fn memory_ops_require_memory() {
        let mut m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![
                Instr::I32Const(0),
                Instr::Load(crate::instr::LoadKind::I32, Default::default()),
            ],
        );
        m.memories.clear();
        assert!(validate(&m).is_err());
    }

    #[test]
    fn rejects_duplicate_exports() {
        let mut m = module_with_body(vec![], vec![], vec![]);
        m.exports = vec![
            crate::module::Export {
                name: "a".into(),
                desc: crate::module::ExportDesc::Func(0),
            },
            crate::module::Export {
                name: "a".into(),
                desc: crate::module::ExportDesc::Func(0),
            },
        ];
        assert!(validate(&m).is_err());
    }

    #[test]
    fn start_must_be_nullary() {
        let mut m = module_with_body(
            vec![ValType::I32],
            vec![],
            vec![Instr::LocalGet(0), Instr::Drop],
        );
        m.start = Some(0);
        assert!(validate(&m).is_err());
    }

    #[test]
    fn alignment_must_not_exceed_width() {
        // 32 and up used to overflow the shift that computes the width:
        // a panic in debug builds, accepted (as `1 << 0`) in release.
        for align in [3, 32, u32::MAX] {
            let m = module_with_body(
                vec![],
                vec![ValType::I32],
                vec![
                    Instr::I32Const(0),
                    Instr::Load(
                        crate::instr::LoadKind::I32,
                        crate::instr::MemArg { align, offset: 0 },
                    ),
                ],
            );
            assert!(validate(&m).is_err(), "align {align}");
        }
    }
}
