//! Host-function linking — the extension point kernel interfaces plug into.
//!
//! A [`Linker`] maps `(module, name)` import pairs to host closures. WALI
//! registers ~150 `("wali", "SYS_*")` functions; WASI-over-WALI registers
//! `("wasi_snapshot_preview1", *)` functions that are themselves written
//! against WALI. The generic parameter `T` is the embedder context (e.g.
//! `wali::WaliContext`) threaded into every host call.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::error::Trap;
use crate::interp::{Instance, Value};
use crate::types::FuncType;

/// Why a host function did not return values.
pub enum HostOutcome {
    /// Trap the calling Wasm thread.
    Trap(Trap),
    /// Suspend execution and hand the resumable thread to the embedder.
    ///
    /// WALI uses this for control-transferring syscalls: `fork` (snapshot
    /// and resume both sides), `execve` (replace the program), thread
    /// `clone` (spawn an instance-per-thread sibling) and `exit`. What
    /// the suspension is for is between the host function and the
    /// embedder: it is left in the context both can see.
    Suspend,
    /// The call cannot complete yet. The thread parks as it stands — the
    /// argument slots stay on its operand stack — and
    /// [`crate::interp::Thread::retry`] re-enters the same import on
    /// them once the embedder has a reason to: blocking moves no data
    /// and allocates nothing.
    Block(Blocked),
}

/// What a blocked host call tells the embedder's scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocked {
    /// Name of the call that blocked (diagnostics).
    pub import: &'static str,
    /// When to retry even if nothing else happens, on the embedder's
    /// clock.
    pub deadline: Option<u64>,
}

impl From<Trap> for HostOutcome {
    fn from(t: Trap) -> Self {
        HostOutcome::Trap(t)
    }
}

/// The view a host function gets of the running instance.
pub struct Caller<'a, T> {
    /// The instance that performed the call (memory, table, exports).
    pub instance: &'a Instance<T>,
    /// Embedder context.
    pub data: &'a mut T,
    /// Signature of the import being called, when the call comes from a
    /// linked module: raw slots carry no types, so the typed
    /// [`Linker::func`] adapter reads them here. `None` when a resolved
    /// handle is invoked directly (benchmarks, one layer calling down
    /// into another).
    pub sig: Option<&'a FuncType>,
}

impl<'a, T> Caller<'a, T> {
    /// Shorthand for the instance's linear memory.
    pub fn memory(&self) -> &crate::mem::Memory {
        &self.instance.memory
    }
}

/// A host function in the raw-slot convention: the arguments are the
/// caller's operand-stack slots, borrowed in place (the low 32 bits of
/// an `i32`/`f32` slot hold the value, as [`Value::raw`] lays them out),
/// and the result is one slot — ignored when the import's signature has
/// no result. A crossing allocates nothing and knows no types.
pub type HostFn<T> =
    Arc<dyn Fn(&mut Caller<'_, T>, &[u64]) -> Result<u64, HostOutcome> + Send + Sync>;

/// A pending re-entrant call requested at a safepoint (signal delivery).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PendingCall {
    /// Function index (combined space) to invoke.
    pub func: u32,
    /// The argument to pass, if the function takes one (a signal handler
    /// takes the signal number).
    pub arg: Option<Value>,
}

/// Embedder context hooks the interpreter consults during execution.
pub trait HostCtx {
    /// Polled at compiler-inserted safepoints and after host calls return
    /// (the syscall-exit delivery point, as on Linux); returning a call
    /// makes the interpreter execute it re-entrantly before continuing
    /// (§3.3 signal handler execution).
    fn poll_signal(&mut self) -> Option<PendingCall> {
        None
    }

    /// Checked at the same points as [`HostCtx::poll_signal`]; returning a
    /// trap aborts the thread (fatal-signal kill).
    fn check_abort(&mut self) -> Option<Trap> {
        None
    }

    /// Called when a frame injected by [`HostCtx::poll_signal`] returns,
    /// so the embedder can restore the pre-handler signal mask.
    fn signal_return(&mut self) {}

    /// The flag that gates a compiler-inserted safepoint in the register
    /// tier: while it reads `false` (one relaxed load) a safepoint calls
    /// neither hook. The embedder's contract is that whenever the flag is
    /// `false` *and* no host call has returned since the last poll,
    /// [`HostCtx::check_abort`] and [`HostCtx::poll_signal`] would both
    /// answer `None` and change nothing; the polls after a host call
    /// returns are made regardless. The default is a flag that is always
    /// `true` — every safepoint polls, right for any context.
    fn sig_hint(&self) -> &AtomicBool {
        static ALWAYS: AtomicBool = AtomicBool::new(true);
        &ALWAYS
    }
}

/// A [`HostCtx::sig_hint`] for contexts that never deliver a signal or
/// abort (both hooks left at their defaults): always `false`.
pub static NO_SIGNALS: AtomicBool = AtomicBool::new(false);

impl HostCtx for () {
    fn sig_hint(&self) -> &AtomicBool {
        &NO_SIGNALS
    }
}

/// Registry of host functions keyed by `(module, name)`.
///
/// Stored as a two-level map so [`Linker::resolve`] is allocation-free
/// (linking resolves every import of every program registered). Each
/// import module's table sits behind an `Arc` and is copied on write:
/// cloning a linker costs one reference count per module, and a
/// registration made through one clone is never visible to another —
/// which is what lets an embedder build its specification table once per
/// process and hand every runtime a clone of it.
pub struct Linker<T> {
    funcs: HashMap<String, Arc<HashMap<String, HostFn<T>>>>,
}

impl<T> Default for Linker<T> {
    fn default() -> Self {
        Linker {
            funcs: HashMap::new(),
        }
    }
}

impl<T> Clone for Linker<T> {
    fn clone(&self) -> Self {
        Linker {
            funcs: self.funcs.clone(),
        }
    }
}

impl<T> Linker<T> {
    /// Creates an empty linker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a raw-slot host function under `(module, name)`.
    pub fn func_raw(
        &mut self,
        module: &str,
        name: &str,
        f: impl Fn(&mut Caller<'_, T>, &[u64]) -> Result<u64, HostOutcome> + Send + Sync + 'static,
    ) -> &mut Self {
        let table = self.funcs.entry(module.to_string()).or_default();
        Arc::make_mut(table).insert(name.to_string(), Arc::new(f));
        self
    }

    /// Registers a typed host function under `(module, name)`: a thin
    /// adapter over [`Linker::func_raw`] that types the slots by the
    /// import's signature ([`Caller::sig`]) on the way in and flattens
    /// the (at most one) result on the way out. It allocates per call,
    /// and only works as an import — a handle invoked without a
    /// signature traps.
    pub fn func(
        &mut self,
        module: &str,
        name: &str,
        f: impl Fn(&mut Caller<'_, T>, &[Value]) -> Result<Vec<Value>, HostOutcome>
            + Send
            + Sync
            + 'static,
    ) -> &mut Self {
        self.func_raw(module, name, move |caller, slots| {
            let Some(sig) = caller.sig else {
                return Err(
                    Trap::Host("typed host function called without a signature".into()).into(),
                );
            };
            let args: Vec<Value> = sig
                .params
                .iter()
                .zip(slots)
                .map(|(ty, raw)| Value::from_raw(*ty, *raw))
                .collect();
            let values = f(caller, &args)?;
            if values.len() != sig.results.len() {
                return Err(Trap::Host("host result arity".into()).into());
            }
            Ok(values.first().map_or(0, Value::raw))
        })
    }

    /// Looks up a registered function (no allocation).
    pub fn resolve(&self, module: &str, name: &str) -> Option<&HostFn<T>> {
        self.funcs.get(module)?.get(name)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.funcs.values().map(|m| m.len()).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over registered `(module, name)` pairs.
    pub fn names(&self) -> impl Iterator<Item = (&str, &str)> {
        self.funcs
            .iter()
            .flat_map(|(m, inner)| inner.keys().map(move |n| (m.as_str(), n.as_str())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linker_registers_and_resolves() {
        let mut l: Linker<()> = Linker::new();
        l.func("wali", "SYS_getpid", |_, _| Ok(vec![Value::I64(42)]));
        l.func_raw("wali", "SYS_gettid", |_, _| Ok(43));
        assert!(l.resolve("wali", "SYS_getpid").is_some());
        assert!(l.resolve("wali", "SYS_gettid").is_some());
        assert!(l.resolve("wali", "SYS_nope").is_none());
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn registering_into_a_clone_copies_only_the_touched_module() {
        let mut base: Linker<()> = Linker::new();
        base.func_raw("wali", "SYS_getpid", |_, _| Ok(1));
        base.func_raw("wasi", "fd_write", |_, _| Ok(2));

        let mut copy = base.clone();
        assert!(Arc::ptr_eq(&base.funcs["wali"], &copy.funcs["wali"]));
        copy.func_raw("wali", "SYS_getpid", |_, _| Ok(3));
        copy.func_raw("layer", "gate", |_, _| Ok(4));

        assert!(!Arc::ptr_eq(&base.funcs["wali"], &copy.funcs["wali"]));
        assert!(Arc::ptr_eq(&base.funcs["wasi"], &copy.funcs["wasi"]));
        assert!(base.resolve("layer", "gate").is_none());
        assert_eq!((base.len(), copy.len()), (2, 3));
        // The override is the clone's alone; the untouched entry is the
        // same closure in both.
        let getpid = |l: &Linker<()>| l.resolve("wali", "SYS_getpid").unwrap().clone();
        assert!(!Arc::ptr_eq(&getpid(&base), &getpid(&copy)));
        let fd_write = |l: &Linker<()>| l.resolve("wasi", "fd_write").unwrap().clone();
        assert!(Arc::ptr_eq(&fd_write(&base), &fd_write(&copy)));
    }
}
