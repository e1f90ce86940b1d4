//! The decoded (in-memory) representation of a Wasm module.

use crate::instr::Instr;
use crate::types::{FuncType, GlobalType, MemoryType, TableType, ValType};

/// A constant initializer expression (globals, element/data offsets).
#[derive(Clone, Copy, Debug, PartialEq, Hash)]
#[allow(missing_docs)]
pub enum ConstExpr {
    I32(i32),
    I64(i64),
    F32(u32),
    F64(u64),
    /// Value of an imported global.
    GlobalGet(u32),
    /// A function reference (for funcref globals).
    RefFunc(u32),
    /// A null function reference.
    RefNull,
}

impl ConstExpr {
    /// The value type this expression produces (imported-global case
    /// resolved by the validator).
    pub fn ty(&self, imported_globals: &[GlobalType]) -> Option<ValType> {
        match self {
            ConstExpr::I32(_) => Some(ValType::I32),
            ConstExpr::I64(_) => Some(ValType::I64),
            ConstExpr::F32(_) => Some(ValType::F32),
            ConstExpr::F64(_) => Some(ValType::F64),
            ConstExpr::GlobalGet(i) => imported_globals.get(*i as usize).map(|g| g.ty),
            ConstExpr::RefFunc(_) | ConstExpr::RefNull => Some(ValType::FuncRef),
        }
    }
}

/// What an import provides.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum ImportDesc {
    /// Function with the given type index.
    Func(u32),
    /// Table.
    Table(TableType),
    /// Memory.
    Memory(MemoryType),
    /// Global.
    Global(GlobalType),
}

/// One import entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Import {
    /// Module namespace, e.g. `"wali"`.
    pub module: String,
    /// Field name, e.g. `"SYS_write"`.
    pub name: String,
    /// Kind and type.
    pub desc: ImportDesc,
}

/// What an export exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExportDesc {
    /// Function index (into the combined import+local space).
    Func(u32),
    /// Table index.
    Table(u32),
    /// Memory index.
    Memory(u32),
    /// Global index.
    Global(u32),
}

/// One export entry.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Export {
    /// Export name.
    pub name: String,
    /// Kind and index.
    pub desc: ExportDesc,
}

/// A defined (non-imported) global.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Global {
    /// Type and mutability.
    pub ty: GlobalType,
    /// Initializer.
    pub init: ConstExpr,
}

/// An active element segment for table 0.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct ElemSegment {
    /// Offset expression.
    pub offset: ConstExpr,
    /// Function indices to place.
    pub funcs: Vec<u32>,
}

/// An active data segment for memory 0.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct DataSegment {
    /// Offset expression.
    pub offset: ConstExpr,
    /// Bytes to copy.
    pub bytes: Vec<u8>,
}

/// The body of a defined function.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FuncBody {
    /// Extra locals as `(count, type)` runs, exactly as encoded.
    pub locals: Vec<(u32, ValType)>,
    /// Structured instruction sequence, **without** the trailing `End`.
    pub instrs: Vec<Instr>,
}

impl FuncBody {
    /// Total number of declared locals (excluding parameters).
    pub fn local_count(&self) -> u32 {
        self.locals.iter().map(|(n, _)| *n).sum()
    }
}

/// A fully decoded module.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// Type section.
    pub types: Vec<FuncType>,
    /// Import section.
    pub imports: Vec<Import>,
    /// Type indices of defined functions.
    pub funcs: Vec<u32>,
    /// Defined tables (at most one in MVP).
    pub tables: Vec<TableType>,
    /// Defined memories (at most one in MVP).
    pub memories: Vec<MemoryType>,
    /// Defined globals.
    pub globals: Vec<Global>,
    /// Exports.
    pub exports: Vec<Export>,
    /// Start function, if any.
    pub start: Option<u32>,
    /// Active element segments.
    pub elems: Vec<ElemSegment>,
    /// Active data segments.
    pub datas: Vec<DataSegment>,
    /// Bodies, parallel to `funcs`.
    pub code: Vec<FuncBody>,
}

impl Module {
    /// Number of imported functions (local function index base).
    pub fn num_imported_funcs(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.desc, ImportDesc::Func(_)))
            .count() as u32
    }

    /// The signature of any function in the combined index space.
    pub fn func_type(&self, idx: u32) -> Option<&FuncType> {
        let mut seen = 0;
        for imp in &self.imports {
            if let ImportDesc::Func(t) = imp.desc {
                if seen == idx {
                    return self.types.get(t as usize);
                }
                seen += 1;
            }
        }
        let local = idx.checked_sub(seen)? as usize;
        self.types.get(*self.funcs.get(local)? as usize)
    }

    /// Looks up an export by name.
    pub fn export(&self, name: &str) -> Option<&Export> {
        self.exports.iter().find(|e| e.name == name)
    }

    /// Iterates over function imports as `(module, name, type_index)`.
    pub fn func_imports(&self) -> impl Iterator<Item = (&str, &str, u32)> {
        self.imports.iter().filter_map(|i| match i.desc {
            ImportDesc::Func(t) => Some((i.module.as_str(), i.name.as_str(), t)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_module() -> Module {
        Module {
            types: vec![
                FuncType::new([ValType::I32], [ValType::I32]),
                FuncType::new([], []),
            ],
            imports: vec![Import {
                module: "wali".into(),
                name: "SYS_getpid".into(),
                desc: ImportDesc::Func(0),
            }],
            funcs: vec![1],
            code: vec![FuncBody::default()],
            exports: vec![Export {
                name: "main".into(),
                desc: ExportDesc::Func(1),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn func_type_spans_imports_and_locals() {
        let m = demo_module();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.func_type(0), Some(&m.types[0]));
        assert_eq!(m.func_type(1), Some(&m.types[1]));
        assert_eq!(m.func_type(2), None);
    }

    #[test]
    fn export_lookup() {
        let m = demo_module();
        assert!(m.export("main").is_some());
        assert!(m.export("missing").is_none());
    }

    #[test]
    fn local_count_sums_runs() {
        let body = FuncBody {
            locals: vec![(3, ValType::I32), (2, ValType::F64)],
            instrs: vec![],
        };
        assert_eq!(body.local_count(), 5);
    }
}
