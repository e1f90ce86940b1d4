//! WALI — the WebAssembly Linux Interface (the paper's core contribution).
//!
//! WALI exposes the Linux userspace syscall surface to Wasm modules as
//! ~150 *name-bound* host functions (`wali.SYS_<name>`), each a thin,
//! mostly-passthrough translation between the Wasm sandbox and the kernel:
//!
//! * [`mem`] — address-space translation between wasm32 pointers and
//!   kernel buffers: zero-copy for raw byte buffers, explicit layout
//!   conversion (via `wali-abi::layout`) for the <10 % of structured
//!   arguments (§3.2), and the decoder of every syscall parameter type.
//! * [`mmap`] — sandboxed `mmap`/`mremap`/`munmap` entirely inside linear
//!   memory with single-base-pointer bookkeeping (§3.2).
//! * [`sigtable`] + [`context`] — the virtual signal table, asynchronous
//!   delivery at engine safepoints, handler re-entrancy and mask
//!   restoration (§3.3).
//! * [`registry`] — builds the host-function [`wasm::Linker`] from the
//!   one syscall table ([`wali_abi::wali_syscalls!`]): decode and wrapper
//!   are generated per row, a handler is a plain function of typed
//!   values — the >85 % auto-generation claim (§5). [`guest`] is the
//!   table's other half: a guest imports a syscall by its row.
//! * [`runner`] — the process runtime: the 1-to-1 instance-per-thread
//!   model with `fork` (thread snapshot + memory clone), `execve`
//!   (program swap) and pthread-style `clone` (shared memory sibling),
//!   scheduled cooperatively over the deterministic kernel (§3.1). The
//!   transitions are one scheduling step (the private `task` module)
//!   that this loop and the SMP worker pool (`exec`) both run.
//! * [`policy`] — seccomp-like dynamic syscall policies layered *above*
//!   the interface rather than inside the engine TCB (§3.6).
//! * [`trace`] — syscall profiles (Fig. 2) and the wasm/kernel/wali time
//!   breakdown (Fig. 7).
//!
//! The security model (§3.6) is enforced here: `/proc/self/mem` opens are
//! interposed and denied, `sigreturn` traps, `PROT_EXEC` mappings are
//! refused, and every pointer crossing the boundary is bounds-checked.

pub mod context;
pub(crate) mod exec;
pub(crate) mod fastpath;
pub mod fault;
pub mod guest;
pub mod mem;
pub mod mmap;
pub mod policy;
pub mod registry;
pub(crate) mod ring;
pub mod runner;
pub mod sigtable;
pub(crate) mod task;
pub mod testkit;
pub mod timer;
pub mod trace;

pub use context::{new_kernel_ref, WaliContext};
pub use registry::build_linker;
pub use runner::{Observables, RunOutcome, WaliRunner};
pub use trace::Trace;

/// The import module namespace for WALI syscalls.
pub const WALI_MODULE: &str = "wali";
