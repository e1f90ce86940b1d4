//! A from-scratch WebAssembly engine sized for kernel-interface research.
//!
//! This crate plays the role WAMR plays in the paper: decode, validate and
//! execute core-Wasm modules, expose extensible *host functions* (the hook
//! WALI/WAZI plug into), and insert *safepoints* where asynchronous signal
//! delivery may interrupt execution (§3.3 of the paper).
//!
//! Pipeline:
//!
//! ```text
//! bytes ──decode──▶ Module ──validate──▶ prep (flatten + safepoints) ──▶ regir
//!       ◀─encode──                        │
//!                  Prepared (one per equal module, per process)
//!                                         │
//!                             Program<T> ─┴─ link(Linker<T>)
//!                                  │
//!                          instantiate ──▶ Instance<T> ──▶ Thread::call
//! ```
//!
//! Everything above `Program<T>` is a pure function of the module, the
//! safepoint scheme and the tier, so it is done once per process and
//! structurally equal module ([`prep::Prepared::of`]); a link binds the
//! imports in its own [`host::Linker`] and shares the rest.
//!
//! Design choices that matter for WALI:
//!
//! * **Explicit interpreter frames** — wasm→wasm calls never recurse into
//!   the host stack, so an execution [`interp::Thread`] can be snapshotted
//!   and resumed. This is what makes `fork` (clone-the-world) and re-entrant
//!   signal-handler invocation implementable at the interface layer.
//! * **Host suspension** — a host function may return
//!   [`host::HostOutcome::Suspend`] to hand control (and the resumable
//!   thread) back to the embedder; WALI uses this for `fork`, `execve`,
//!   thread spawn and `exit`.
//! * **Safepoint schemes** — [`safepoint::SafepointScheme`] selects where
//!   `prep` inserts poll points (loop headers, function entries, or every
//!   instruction), reproducing the Table 3 ablation.
//! * **Shared linear memory** — [`mem::Memory`] reserves its maximum size up
//!   front so multiple instance-per-thread instances can share it without
//!   relocation, mirroring the paper's thread model (§3.1).

pub mod build;
pub mod decode;
pub mod encode;
pub mod error;
pub mod host;
pub mod instr;
pub mod interp;
pub mod leb;
pub mod mem;
pub mod module;
pub mod prep;
pub mod regir;
pub mod safepoint;
pub mod types;
pub mod validate;

pub use build::{FuncBuilder, ModuleBuilder};
pub use error::{DecodeError, Trap, ValidateError};
pub use host::{Blocked, Caller, HostFn, HostOutcome, Linker};
pub use interp::{Instance, RunResult, Thread, Value};
pub use module::Module;
pub use prep::Program;
pub use safepoint::SafepointScheme;
pub use types::{FuncType, ValType};

/// Size of one Wasm page in bytes.
pub const PAGE_SIZE: usize = 65536;
