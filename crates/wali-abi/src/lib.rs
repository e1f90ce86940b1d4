//! ABI-level data for WALI, the thin Linux kernel interface for WebAssembly.
//!
//! This crate is pure data and conversion logic: it has no I/O and no
//! dependency on the engine or the kernel model. It captures the parts of
//! the paper that are *specification* rather than *mechanism*:
//!
//! * [`errno`] — Linux error numbers shared by every layer.
//! * [`signals`] — signal numbers, default dispositions and `sigaction`
//!   flags used by the WALI virtual signal model (paper §3.3).
//! * [`flags`] — file, mmap, clone, socket and misc syscall flag constants
//!   in their ISA-portable WALI encoding (paper §3.5).
//! * [`isa`] / [`tables`] — per-ISA Linux syscall tables used to quantify
//!   cross-ISA syscall commonality (paper Fig. 3).
//! * [`spec`] — the name-bound WALI syscall specification: the union of
//!   syscalls across ISAs, one row each in [`wali_syscalls!`] with typed
//!   parameters and a class — passthrough / translated / stateful (paper
//!   §3, §5 recipe steps 1–3).
//! * [`layout`] — explicit little-endian byte layouts for the handful of
//!   structured syscall arguments whose native layout varies across ISAs
//!   (`kstat`, `ksigaction`, timespec, iovec, …; paper §3.2 "Layout (ABI)
//!   Conversion").
//! * [`ring`] — the batched-syscall submission/completion ring layout
//!   drained by `wali_ring_enter` (an io_uring-shaped extension beyond
//!   the paper; see DESIGN.md "Substitutions").

pub mod errno;
pub mod flags;
pub mod isa;
pub mod layout;
pub mod ring;
pub mod signals;
pub mod spec;
pub mod tables;

pub use errno::Errno;
pub use isa::Isa;
pub use signals::Signal;
pub use spec::{SyscallClass, WaliSyscall};
