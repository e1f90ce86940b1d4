//! The guest half of the syscall table: a module imports a syscall by its
//! row, so its name and signature are the ones the registry links.

use wasm::build::{FuncId, ModuleBuilder};
use wasm::types::{FuncType, ValType::I64};

pub use wali_abi::spec::Sysno;

/// A row's import signature: its slots as `i64`s, one `i64` result. The
/// registry registers each row with it, and linking refuses any other.
pub fn signature(sysno: Sysno) -> FuncType {
    FuncType::new(vec![I64; sysno.row().args as usize], [I64])
}

/// Imports `wali.SYS_<name>` of the row `sysno`.
pub fn sys(mb: &mut ModuleBuilder, sysno: Sysno) -> FuncId {
    let FuncType { params, results } = signature(sysno);
    let sig = mb.sig(params, results);
    mb.import_func(crate::WALI_MODULE, sysno.row().import, sig)
}
