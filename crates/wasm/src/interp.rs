//! The fast-tier interpreter: explicit frames over prepared code.
//!
//! The execution state ([`Thread`]) is a plain data structure — value stack
//! plus frame stack — so it can be **cloned** (WALI `fork`), **suspended**
//! mid-host-call (WALI `execve`/`clone`/`exit`) and **re-entered** at
//! safepoints to run signal handlers (paper §3.3), all without touching the
//! host call stack.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::Trap;
use crate::host::{Blocked, Caller, HostCtx, HostOutcome, PendingCall};
use crate::instr::{AtomicWidth, BinOp, CvtOp, LoadKind, RelOp, StoreKind, UnOp};
use crate::mem::{MemView, Memory};
use crate::module::{ConstExpr, ElemSegment, ExportDesc, Global};
use crate::prep::{BrDest, FuncDef, Op, Prepared, PreparedFunc, Program};
use crate::regir::{RBr, ROp, RSrc};
use crate::types::{FuncType, ValType};

/// Maximum wasm frame depth before [`Trap::StackOverflow`].
pub const MAX_FRAMES: usize = 4096;
/// Maximum value-stack slots before [`Trap::StackOverflow`].
pub const MAX_STACK: usize = 1 << 20;

/// A typed Wasm value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
}

impl Value {
    /// The value's type.
    pub fn ty(&self) -> ValType {
        match self {
            Value::I32(_) => ValType::I32,
            Value::I64(_) => ValType::I64,
            Value::F32(_) => ValType::F32,
            Value::F64(_) => ValType::F64,
        }
    }

    /// Raw 64-bit representation (as stored on the operand stack).
    pub fn raw(&self) -> u64 {
        match self {
            Value::I32(v) => *v as u32 as u64,
            Value::I64(v) => *v as u64,
            Value::F32(v) => v.to_bits() as u64,
            Value::F64(v) => v.to_bits(),
        }
    }

    /// Reconstructs a value of type `ty` from raw bits.
    pub fn from_raw(ty: ValType, raw: u64) -> Value {
        match ty {
            ValType::I32 => Value::I32(raw as u32 as i32),
            ValType::I64 => Value::I64(raw as i64),
            ValType::F32 => Value::F32(f32::from_bits(raw as u32)),
            ValType::F64 => Value::F64(f64::from_bits(raw)),
            ValType::FuncRef => Value::I32(raw as u32 as i32),
        }
    }

    /// Convenience accessor for i32 values.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::I32(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor for i64 values.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }
}

/// An instantiated module: program + memory + mutable instance state.
pub struct Instance<T> {
    /// The shared prepared program.
    pub program: Arc<Program<T>>,
    /// Linear memory (shared between instance-per-thread siblings).
    pub memory: Arc<Memory>,
    /// Global values (raw bits), one per declared global.
    pub globals: Vec<u64>,
    /// Function table (funcref entries): filled from the element
    /// segments at instantiation and read-only from then on, so forks
    /// and thread siblings share it.
    pub table: Arc<[Option<u32>]>,
}

impl<T> Instance<T> {
    /// Instantiates with a fresh memory, applying data and element
    /// segments. Memories declared `shared` get the flat backing (they may
    /// be accessed from several host threads); private ones the paged
    /// copy-on-write backing.
    pub fn new(program: Arc<Program<T>>) -> Result<Instance<T>, Trap> {
        let memory = Arc::new(match &program.memory {
            Some(m) if m.shared => Memory::new_flat(m.limits.min, m.limits.max),
            Some(m) => Memory::new(m.limits.min, m.limits.max),
            None => Memory::new(0, Some(0)),
        });
        Self::with_memory(program, memory)
    }

    /// Instantiates over an existing memory (instance-per-thread sharing;
    /// data segments are *not* re-applied so sibling state is preserved).
    pub fn spawn_sibling(
        program: Arc<Program<T>>,
        memory: Arc<Memory>,
    ) -> Result<Instance<T>, Trap> {
        Self::bare(program, memory)
    }

    /// Instantiates over the given memory, applying data segments.
    pub fn with_memory(program: Arc<Program<T>>, memory: Arc<Memory>) -> Result<Instance<T>, Trap> {
        let inst = Self::bare(program, memory)?;
        for d in &inst.program.datas {
            let at = Self::eval_const(&d.offset)? as u32 as u64;
            inst.memory.write(at, &d.bytes)?;
        }
        Ok(inst)
    }

    fn bare(program: Arc<Program<T>>, memory: Arc<Memory>) -> Result<Instance<T>, Trap> {
        let mut globals = Vec::with_capacity(program.globals.len());
        for Global { init, .. } in &program.globals {
            let v = match init {
                ConstExpr::I32(v) => *v as u32 as u64,
                ConstExpr::I64(v) => *v as u64,
                ConstExpr::F32(b) => *b as u64,
                ConstExpr::F64(b) => *b,
                ConstExpr::RefFunc(f) => *f as u64,
                ConstExpr::RefNull => u64::MAX,
                ConstExpr::GlobalGet(_) => {
                    return Err(Trap::Host("imported globals unsupported".into()))
                }
            };
            globals.push(v);
        }
        let mut table = match &program.table {
            Some(t) => vec![None; t.limits.min as usize],
            None => Vec::new(),
        };
        for ElemSegment { offset, funcs } in &program.image.elems {
            let at = Self::eval_const(offset)? as u32 as usize;
            let end = at.checked_add(funcs.len()).ok_or(Trap::TableOutOfBounds)?;
            let Some(entries) = table.get_mut(at..end) else {
                return Err(Trap::TableOutOfBounds);
            };
            for (entry, f) in entries.iter_mut().zip(funcs) {
                *entry = Some(*f);
            }
        }
        Ok(Instance {
            program,
            memory,
            globals,
            table: table.into(),
        })
    }

    fn eval_const(e: &ConstExpr) -> Result<i64, Trap> {
        match e {
            ConstExpr::I32(v) => Ok(*v as i64),
            ConstExpr::I64(v) => Ok(*v),
            _ => Err(Trap::Host("unsupported const expr".into())),
        }
    }

    /// Fork-style duplicate: copy-on-write memory snapshot on the paged
    /// backing (O(allocated pages)), deep copy on the flat backing; cloned
    /// globals and the shared table either way.
    pub fn fork_clone(&self) -> Instance<T> {
        Instance {
            program: self.program.clone(),
            memory: Arc::new(self.memory.fork_clone()),
            globals: self.globals.clone(),
            table: self.table.clone(),
        }
    }

    /// Instance-per-thread sibling: shares the linear memory, private
    /// globals and table (paper §3.1).
    pub fn thread_clone(&self) -> Instance<T> {
        Instance {
            program: self.program.clone(),
            memory: Arc::clone(&self.memory),
            globals: self.globals.clone(),
            table: self.table.clone(),
        }
    }

    /// Resolves an exported function index by name.
    pub fn export_func(&self, name: &str) -> Option<u32> {
        let export = self.program.exports.iter().find(|e| e.name == name)?;
        match export.desc {
            ExportDesc::Func(i) => Some(i),
            _ => None,
        }
    }

    /// The signature of a function in the combined index space.
    pub fn func_type(&self, func: u32) -> Option<&FuncType> {
        self.program.func_type(func)
    }
}

/// What the register loop runs on besides the module's [`Prepared`]
/// image: the `T`-free parts of an `Instance<T>`, taken once per run.
struct Env<'a> {
    memory: &'a Memory,
    table: &'a [Option<u32>],
    /// The instance's globals, which the loop alone writes. A raw slice
    /// because the [`Port`] lends the same instance, shared, to host
    /// functions; see [`Thread::run`] for why it stays valid.
    globals: *mut [u64],
}

/// What a crossing through the [`Port`] hands back to the loop.
struct Polled<'a> {
    /// [`HostCtx::sig_hint`], borrowed anew: the context was lent out.
    hint: &'a AtomicBool,
    /// The signal handler to run next, when it is a local function (one
    /// that is an import has run).
    handler: Option<PendingCall>,
}

/// The register loop's way to its embedder. [`Thread::run_reg`] has no
/// type parameter; what depends on the context type `T` — calling a host
/// function with a [`Caller`] over the `Instance<T>`, asking the context
/// whether a signal is due — is behind this object, and the loop goes
/// through it at exactly two places, a host call and the out-of-line half
/// of a safepoint (plus the note that a handler returned).
trait Port {
    /// [`HostCtx::sig_hint`]: while it reads `false` a safepoint is one
    /// load and a branch.
    fn hint(&self) -> &AtomicBool;

    /// Calls import `func` on the argument slots below `top`
    /// ([`Thread::call_host`]), restores the stack to `frame_top` slots —
    /// the caller's full register frame — and makes the poll every
    /// returning host call ends with (Linux delivers signals on the
    /// syscall return path).
    fn call(
        &mut self,
        thread: &mut Thread,
        func: u32,
        top: usize,
        frame_top: usize,
    ) -> Result<Polled<'_>, HostOutcome>;

    /// The out-of-line half of a safepoint (paper §3.3):
    /// [`HostCtx::check_abort`], then [`HostCtx::poll_signal`].
    fn poll(&mut self, thread: &mut Thread) -> Result<Polled<'_>, Trap>;

    /// [`HostCtx::signal_return`]. The context was lent out: take
    /// [`Port::hint`] again.
    fn signal_return(&mut self);
}

/// The [`Port`] onto an `Instance<T>` and its context: the one place the
/// register tier is generic.
struct Embedder<'a, T> {
    inst: &'a Instance<T>,
    ctx: &'a mut T,
}

impl<T: HostCtx> Port for Embedder<'_, T> {
    fn hint(&self) -> &AtomicBool {
        self.ctx.sig_hint()
    }

    fn call(
        &mut self,
        thread: &mut Thread,
        func: u32,
        top: usize,
        frame_top: usize,
    ) -> Result<Polled<'_>, HostOutcome> {
        thread.call_host(self.inst, self.ctx, func, top)?;
        // Before the poll: a handler's frame stacks on the full frame.
        thread.stack.resize(frame_top, 0);
        Ok(self.poll(thread)?)
    }

    /// A handler that is an import runs here, above the live frame; one
    /// that is a local function is handed back for the loop to enter.
    #[inline(always)]
    fn poll(&mut self, thread: &mut Thread) -> Result<Polled<'_>, Trap> {
        if let Some(t) = self.ctx.check_abort() {
            return Err(t);
        }
        let mut handler = self.ctx.poll_signal();
        if let Some(call) = &handler {
            match self.inst.program.funcs.get(call.func as usize) {
                Some(FuncDef::Local(_)) => {}
                Some(FuncDef::Host { .. }) => {
                    thread.signal_host(self.inst, self.ctx, call)?;
                    handler = None;
                }
                None => return Err(Trap::Host("bad signal handler index".into())),
            }
        }
        Ok(Polled {
            hint: self.ctx.sig_hint(),
            handler,
        })
    }

    fn signal_return(&mut self) {
        self.ctx.signal_return();
    }
}

/// Why a call or resume returned.
pub enum RunResult {
    /// The activation completed with these results.
    Done(Vec<Value>),
    /// Execution trapped; the thread is dead.
    Trapped(Trap),
    /// A host function suspended ([`HostOutcome::Suspend`]); call
    /// [`Thread::resume`] to continue.
    Suspended,
    /// The thread exhausted its fuel slice at an op boundary; resuming
    /// with no values continues exactly where it left off. This is what
    /// lets a cooperative scheduler preempt busy-spinning tasks (e.g. a
    /// thread polling shared memory).
    Preempted,
    /// A host function blocked; call [`Thread::retry`] to re-enter it.
    Blocked(Blocked),
}

impl RunResult {
    /// How a run ends when a host call did not return a value. Out of
    /// line: the dispatch loops only pass the outcome through.
    #[cold]
    fn parked(outcome: HostOutcome) -> RunResult {
        match outcome {
            HostOutcome::Trap(t) => RunResult::Trapped(t),
            HostOutcome::Suspend => RunResult::Suspended,
            HostOutcome::Block(b) => RunResult::Blocked(b),
        }
    }
}

impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunResult::Done(v) => write!(f, "Done({v:?})"),
            RunResult::Trapped(t) => write!(f, "Trapped({t:?})"),
            RunResult::Suspended => write!(f, "Suspended"),
            RunResult::Preempted => write!(f, "Preempted"),
            RunResult::Blocked(b) => write!(f, "{b:?}"),
        }
    }
}

#[derive(Clone, Debug)]
struct Frame {
    /// Function index in the combined space (always a local function).
    func: u32,
    /// Next op index to execute.
    pc: usize,
    /// Stack index where locals begin.
    base: usize,
    /// Stack index where operands begin (`base + params + locals`).
    opbase: usize,
    /// Result count of the function.
    results: u32,
    /// Completing this frame ends the activation.
    barrier: bool,
    /// Frame was injected at a safepoint to run a signal handler.
    signal_frame: bool,
}

/// What a suspended thread is waiting on.
#[derive(Clone, Copy)]
struct PendingHost {
    /// The import whose call suspended ([`Thread::retry`] re-enters
    /// it); `None` for a fuel preemption.
    func: Option<u32>,
    /// Result slots the matching `resume` must supply.
    nresults: usize,
    /// Argument slots a blocked call left on top of the stack for its
    /// `retry`; `None` when the call cannot be retried (it suspended,
    /// and its arguments are gone).
    kept: Option<usize>,
}

/// Resumable execution state for one Wasm computation.
///
/// Cloning a [`Thread`] (together with its instance state) yields a
/// fork-style snapshot: both copies resume from the same point.
#[derive(Default)]
pub struct Thread {
    stack: Vec<u64>,
    frames: Vec<Frame>,
    /// Set between a `Suspend` host outcome and the matching `resume`
    /// or `retry`.
    pending: Option<PendingHost>,
    /// Remaining ops before a preemption yield (None = unbounded).
    fuel: Option<u64>,
    /// Executed op count (deterministic work metric).
    pub steps: u64,
    /// Ops executed by the tier-2 register dispatch loop (subset of
    /// `steps`; the per-tier dispatch counter surfaced by the benches).
    pub reg_steps: u64,
}

/// A stack with the contents *and the room* of `of`: the copy goes on
/// from where the original stands — pushes a host call's result, a
/// callee's or a signal handler's frame — and the original's capacity is
/// what running this far took, so the copy's next push fits where an
/// exact-size one would grow at once.
fn snapshot<E: Clone>(of: &Vec<E>) -> Vec<E> {
    let mut copy = Vec::with_capacity(of.capacity());
    copy.extend_from_slice(of);
    copy
}

impl Clone for Thread {
    fn clone(&self) -> Thread {
        Thread {
            stack: snapshot(&self.stack),
            frames: snapshot(&self.frames),
            pending: self.pending,
            fuel: self.fuel,
            steps: self.steps,
            reg_steps: self.reg_steps,
        }
    }
}

impl Thread {
    /// Creates an idle thread.
    pub fn new() -> Thread {
        Thread::default()
    }

    /// True if the thread is mid-suspension and expects `resume`.
    pub fn is_suspended(&self) -> bool {
        self.pending.is_some()
    }

    /// Sets the preemption fuel: the thread yields [`RunResult::Preempted`] after
    /// this many ops. `None` disables preemption.
    pub fn refuel(&mut self, fuel: Option<u64>) {
        self.fuel = fuel;
    }

    /// Current wasm frame depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Calls function `func` with `args`, running to completion,
    /// suspension or trap.
    pub fn call<T: HostCtx>(
        &mut self,
        inst: &mut Instance<T>,
        ctx: &mut T,
        func: u32,
        args: &[Value],
    ) -> RunResult {
        let Some(nparams) = inst.func_type(func).map(|t| t.params.len()) else {
            return RunResult::Trapped(Trap::Host(format!("no function {func}")));
        };
        if nparams != args.len() {
            return RunResult::Trapped(Trap::Host(format!(
                "arity mismatch calling {func}: expected {nparams}, got {}",
                args.len()
            )));
        }
        let base = self.stack.len();
        self.stack.extend(args.iter().map(Value::raw));
        let program = inst.program.clone();
        match &program.funcs[func as usize] {
            // Direct host entry (no wasm frame).
            FuncDef::Host { .. } => self.enter_host(inst, ctx, func, base),
            FuncDef::Local(code) => {
                if let Err(t) = self.push_frame(func, code, true, false) {
                    return RunResult::Trapped(t);
                }
                self.run(inst, ctx)
            }
        }
    }

    /// Re-enters the import this thread is blocked in, on the argument
    /// slots it left on the operand stack, and, once the call returns,
    /// continues exactly as [`Thread::resume`] would with its result. A
    /// call that blocks again leaves the thread as it was.
    pub fn retry<T: HostCtx>(&mut self, inst: &mut Instance<T>, ctx: &mut T) -> RunResult {
        let Some(PendingHost {
            func: Some(func),
            kept: Some(kept),
            ..
        }) = self.pending.take()
        else {
            return RunResult::Trapped(Trap::Host("retry without a blocked host call".into()));
        };
        let base = self.stack.len() - kept;
        self.enter_host(inst, ctx, func, base)
    }

    /// Calls import `func` on the arguments sitting at `base..` and
    /// carries on: into the interrupted frame when there is one, to
    /// `Done` on a direct host entry.
    fn enter_host<T: HostCtx>(
        &mut self,
        inst: &mut Instance<T>,
        ctx: &mut T,
        func: u32,
        base: usize,
    ) -> RunResult {
        match self.call_host(inst, ctx, func, self.stack.len()) {
            Ok(()) if self.frames.is_empty() => {
                RunResult::Done(self.take_results(inst, func, base))
            }
            Ok(()) => self.run(inst, ctx),
            Err(HostOutcome::Trap(t)) => {
                self.frames.clear();
                self.stack.clear();
                RunResult::Trapped(t)
            }
            Err(parked) => RunResult::parked(parked),
        }
    }

    /// The guest→host crossing — the only place one is made: both
    /// dispatch tiers, direct entry, retries and signal delivery to an
    /// import all come through here. The arguments are the slots below
    /// `top`, lent to the host function in place; afterwards the stack
    /// is cut at the argument base and holds the result, if the
    /// signature has one. A suspension is recorded so that `resume` can
    /// pick the call up again; a blocked call keeps its arguments on top
    /// of the stack, where `retry` lends them out again.
    ///
    /// The register loop reaches it through its [`Port`]: inlined, so
    /// that [`Embedder::call`] is the crossing and not a frame above it.
    #[inline(always)]
    fn call_host<T>(
        &mut self,
        inst: &Instance<T>,
        ctx: &mut T,
        func: u32,
        top: usize,
    ) -> Result<(), HostOutcome> {
        let program = &*inst.program;
        let Some(FuncDef::Host { f, ty, .. }) = program.funcs.get(func as usize) else {
            return Err(Trap::Host(format!("no host function {func}")).into());
        };
        let sig = &program.types[*ty as usize];
        let argbase = top - sig.params.len();
        let mut caller = Caller {
            instance: inst,
            data: ctx,
            sig: Some(sig),
        };
        let r = f(&mut caller, &self.stack[argbase..top]);
        // A blocked call keeps its arguments; every other outcome cuts
        // the stack at their base.
        let kept = match &r {
            Err(HostOutcome::Block(_)) => top - argbase,
            _ => 0,
        };
        self.stack.truncate(argbase + kept);
        match r {
            Ok(v) => {
                // `Program::link` admits imports of at most one result.
                if !sig.results.is_empty() {
                    self.stack.push(v);
                }
                Ok(())
            }
            Err(HostOutcome::Trap(t)) => Err(HostOutcome::Trap(t)),
            Err(parked) => {
                self.pending = Some(PendingHost {
                    func: Some(func),
                    nresults: sig.results.len(),
                    kept: matches!(parked, HostOutcome::Block(_)).then_some(kept),
                });
                Err(parked)
            }
        }
    }

    /// Delivers a signal to a handler that is an import (a guest may put
    /// one in its table): arguments above the live frame, result
    /// discarded.
    fn signal_host<T>(
        &mut self,
        inst: &Instance<T>,
        ctx: &mut T,
        call: &PendingCall,
    ) -> Result<(), Trap> {
        if inst.func_type(call.func).map(|t| t.params.len()) != Some(call.arg.iter().len()) {
            return Err(Trap::Host("bad signal handler arity".into()));
        }
        let top = self.stack.len();
        self.stack.extend(call.arg.iter().map(Value::raw));
        let r = self.call_host(inst, ctx, call.func, self.stack.len());
        self.stack.truncate(top);
        match r {
            Ok(()) => Ok(()),
            Err(HostOutcome::Trap(t)) => Err(t),
            Err(HostOutcome::Suspend | HostOutcome::Block(_)) => {
                self.pending = None;
                Err(Trap::Host("suspend in signal handler".into()))
            }
        }
    }

    /// Pops the results of `func` — the slots from `base` up — as typed
    /// values.
    fn take_results<T>(&mut self, inst: &Instance<T>, func: u32, base: usize) -> Vec<Value> {
        self.typed_results(
            &inst.func_type(func).expect("function exists").results,
            base,
        )
    }

    /// Pops the slots from `base` up as values of types `tys`.
    fn typed_results(&mut self, tys: &[ValType], base: usize) -> Vec<Value> {
        let out = tys
            .iter()
            .zip(&self.stack[base..])
            .map(|(ty, raw)| Value::from_raw(*ty, *raw))
            .collect();
        self.stack.truncate(base);
        out
    }

    /// Resumes after a suspension, providing the host call's results.
    pub fn resume<T: HostCtx>(
        &mut self,
        inst: &mut Instance<T>,
        ctx: &mut T,
        results: &[Value],
    ) -> RunResult {
        let Some(pending) = self.pending.take() else {
            return RunResult::Trapped(Trap::Host("resume without suspension".into()));
        };
        if pending.nresults != results.len() {
            return RunResult::Trapped(Trap::Host("resume arity mismatch".into()));
        }
        // Answering a blocked call in its place consumes its arguments.
        self.stack
            .truncate(self.stack.len() - pending.kept.unwrap_or(0));
        if self.frames.is_empty() {
            // The suspension happened in a direct host entry.
            return RunResult::Done(results.to_vec());
        }
        self.stack.extend(results.iter().map(Value::raw));
        self.run(inst, ctx)
    }

    fn push_frame(
        &mut self,
        func: u32,
        code: &PreparedFunc,
        barrier: bool,
        signal_frame: bool,
    ) -> Result<(), Trap> {
        if self.frames.len() >= MAX_FRAMES || self.stack.len() >= MAX_STACK {
            return Err(Trap::StackOverflow);
        }
        let params = code.params as usize;
        let base = self.stack.len() - params;
        if let Some(reg) = &code.reg {
            // Register frame: zero the locals and allocate every canonical
            // operand slot up front; the stack stays at `base + nregs` for
            // the frame's whole lifetime (the safepoint spill invariant).
            let need = base + reg.nregs() as usize;
            if need >= MAX_STACK {
                return Err(Trap::StackOverflow);
            }
            self.stack.resize(need, 0);
        } else {
            for _ in 0..code.locals {
                self.stack.push(0);
            }
        }
        self.frames.push(Frame {
            func,
            pc: 0,
            base,
            opbase: base + params + code.locals as usize,
            results: code.results,
            barrier,
            signal_frame,
        });
        Ok(())
    }

    /// The interpreter dispatcher: the register tier when the program was
    /// lowered ([`crate::regir`]), the reference stack loop otherwise. A
    /// program never mixes tiers within one call stack, so one check per
    /// activation suffices.
    fn run<T: HostCtx>(&mut self, inst: &mut Instance<T>, ctx: &mut T) -> RunResult {
        if inst.program.regir {
            let image = inst.program.image.clone();
            // The vector's own pointer, with no slice reference in between
            // for a later reader of the globals to invalidate.
            let globals =
                std::ptr::slice_from_raw_parts_mut(inst.globals.as_mut_ptr(), inst.globals.len());
            // From here to the end of the run the instance is shared: the
            // loop reads its memory and table, host functions see all of
            // it ([`Caller::instance`]). Nobody holding `&Instance<T>`
            // can resize, replace or drop the `globals` vector, so the
            // pointer taken above stays valid; the loop is the only
            // writer, and it is not running while a host function reads.
            let inst: &Instance<T> = inst;
            let env = Env {
                memory: &inst.memory,
                table: &inst.table,
                globals,
            };
            self.run_reg(&image, env, &mut Embedder { inst, ctx })
        } else {
            self.run_stack(inst, ctx)
        }
    }

    /// The stack-tier interpreter loop: one dispatch per Wasm instruction
    /// over an explicit operand stack. No workload runs it by default
    /// (`WALI_NO_REGIR` selects it); it is the reference semantics the
    /// register tier is tested against.
    fn run_stack<T: HostCtx>(&mut self, inst: &mut Instance<T>, ctx: &mut T) -> RunResult {
        let program = inst.program.clone();
        let mut cur: Arc<PreparedFunc> =
            match &program.funcs[self.frames.last().expect("frame").func as usize] {
                FuncDef::Local(c) => c.clone(),
                FuncDef::Host { .. } => unreachable!("frames are local functions"),
            };

        macro_rules! trap {
            ($t:expr) => {{
                self.frames.clear();
                self.stack.clear();
                return RunResult::Trapped($t);
            }};
        }

        // The safepoint poll (paper §3.3): check for aborts and deliver
        // any pending handler re-entrantly. Runs at `Safepoint` ops and
        // after every host call returns (Linux delivers signals on the
        // return path of syscalls).
        macro_rules! poll_signals {
            () => {{
                if let Some(t) = ctx.check_abort() {
                    trap!(t);
                }
                if let Some(call) = ctx.poll_signal() {
                    match program.funcs.get(call.func as usize) {
                        Some(FuncDef::Local(code)) => {
                            let code = code.clone();
                            self.stack.extend(call.arg.iter().map(Value::raw));
                            if let Err(t) = self.push_frame(call.func, &code, false, true) {
                                trap!(t);
                            }
                            cur = code;
                        }
                        Some(FuncDef::Host { .. }) => {
                            if let Err(t) = self.signal_host(inst, ctx, &call) {
                                trap!(t);
                            }
                        }
                        None => trap!(Trap::Host("bad signal handler index".into())),
                    }
                }
            }};
        }

        // Transfers control to function `f`: a local callee becomes the
        // current frame, an import crosses to the host.
        macro_rules! enter {
            ($f:expr) => {{
                let f = $f;
                match &program.funcs[f as usize] {
                    FuncDef::Local(code) => {
                        let code = code.clone();
                        if let Err(t) = self.push_frame(f, &code, false, false) {
                            trap!(t);
                        }
                        cur = code;
                    }
                    FuncDef::Host { .. } => match self.call_host(inst, ctx, f, self.stack.len()) {
                        Ok(()) => poll_signals!(),
                        Err(HostOutcome::Trap(t)) => trap!(t),
                        Err(parked) => return RunResult::parked(parked),
                    },
                }
            }};
        }

        loop {
            if let Some(fuel) = &mut self.fuel {
                if *fuel == 0 {
                    // Yield at an op boundary; resume(&[]) continues here.
                    self.pending = Some(PendingHost {
                        func: None,
                        nresults: 0,
                        kept: None,
                    });
                    return RunResult::Preempted;
                }
                *fuel -= 1;
            }
            let frame = self.frames.last_mut().expect("frame");
            let pc = frame.pc;
            frame.pc += 1;
            let op = match cur.ops.get(pc) {
                Some(op) => op,
                None => trap!(Trap::Host("pc out of bounds".into())),
            };
            self.steps += 1;

            match op {
                Op::Unreachable => trap!(Trap::Unreachable),
                Op::Safepoint => poll_signals!(),
                Op::Br(d) => {
                    let d = *d;
                    self.do_branch(&d);
                }
                Op::BrIf(d) => {
                    let d = *d;
                    let c = self.pop();
                    if c as u32 != 0 {
                        self.do_branch(&d);
                    }
                }
                Op::BrIfZero(d) => {
                    let d = *d;
                    let c = self.pop();
                    if c as u32 == 0 {
                        self.do_branch(&d);
                    }
                }
                Op::BrTable(dests, def) => {
                    let i = self.pop() as u32 as usize;
                    let d = *dests.get(i).unwrap_or(def);
                    self.do_branch(&d);
                }
                Op::Return => {
                    let frame = self.frames.pop().expect("frame");
                    if frame.signal_frame {
                        ctx.signal_return();
                    }
                    let results = frame.results as usize;
                    let from = self.stack.len() - results;
                    // Move results down over the frame's locals+operands.
                    self.stack.copy_within(from.., frame.base);
                    self.stack.truncate(frame.base + results);
                    if frame.barrier {
                        return RunResult::Done(self.take_results(inst, frame.func, frame.base));
                    }
                    let parent = self.frames.last().expect("parent frame");
                    cur = match &program.funcs[parent.func as usize] {
                        FuncDef::Local(c) => c.clone(),
                        FuncDef::Host { .. } => unreachable!(),
                    };
                }
                Op::Call(f) => enter!(*f),
                Op::CallIndirect(expect_ty) => {
                    let expect_ty = *expect_ty;
                    let idx = self.pop() as u32 as usize;
                    let entry = match inst.table.get(idx) {
                        Some(e) => *e,
                        None => trap!(Trap::TableOutOfBounds),
                    };
                    let f = match entry {
                        Some(f) => f,
                        None => trap!(Trap::UninitializedElement),
                    };
                    if program.sig_of_func(f) != program.sig_of_type(expect_ty) {
                        trap!(Trap::IndirectCallTypeMismatch);
                    }
                    enter!(f);
                }
                Op::Drop => {
                    self.pop();
                }
                Op::Select => {
                    let c = self.pop() as u32;
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(if c != 0 { a } else { b });
                }
                Op::LocalGet(i) => {
                    let frame = self.frames.last().expect("frame");
                    let v = self.stack[frame.base + *i as usize];
                    self.stack.push(v);
                }
                Op::LocalSet(i) => {
                    let v = self.pop();
                    let frame = self.frames.last().expect("frame");
                    self.stack[frame.base + *i as usize] = v;
                }
                Op::LocalTee(i) => {
                    let v = *self.stack.last().expect("operand");
                    let frame = self.frames.last().expect("frame");
                    self.stack[frame.base + *i as usize] = v;
                }
                Op::GlobalGet(i) => self.stack.push(inst.globals[*i as usize]),
                Op::GlobalSet(i) => {
                    let v = self.pop();
                    inst.globals[*i as usize] = v;
                }
                Op::Load(kind, offset) => {
                    let addr = self.pop() as u32 as u64 + offset;
                    let v = match load(&inst.memory, *kind, addr) {
                        Ok(v) => v,
                        Err(t) => trap!(t),
                    };
                    self.stack.push(v);
                }
                Op::Store(kind, offset) => {
                    let v = self.pop();
                    let addr = self.pop() as u32 as u64 + offset;
                    if let Err(t) = store(&inst.memory, *kind, addr, v) {
                        trap!(t);
                    }
                }
                Op::MemorySize => self.stack.push(inst.memory.pages() as u64),
                Op::MemoryGrow => {
                    let delta = self.pop() as u32;
                    let prev = inst.memory.grow(delta);
                    self.stack.push(prev as u32 as u64);
                }
                Op::MemoryCopy => {
                    let len = self.pop() as u32 as u64;
                    let src = self.pop() as u32 as u64;
                    let dst = self.pop() as u32 as u64;
                    if let Err(t) = inst.memory.copy_within(dst, src, len) {
                        trap!(t);
                    }
                }
                Op::MemoryFill => {
                    let len = self.pop() as u32 as u64;
                    let val = self.pop() as u8;
                    let dst = self.pop() as u32 as u64;
                    if let Err(t) = inst.memory.fill(dst, val, len) {
                        trap!(t);
                    }
                }
                Op::Const(v) => self.stack.push(*v),
                Op::Un(op) => {
                    let a = self.pop();
                    match eval_un(*op, a) {
                        Ok(v) => self.stack.push(v),
                        Err(t) => trap!(t),
                    }
                }
                Op::Bin(op) => {
                    let b = self.pop();
                    let a = self.pop();
                    match eval_bin(*op, a, b) {
                        Ok(v) => self.stack.push(v),
                        Err(t) => trap!(t),
                    }
                }
                Op::Rel(op) => {
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(eval_rel(*op, a, b) as u64);
                }
                Op::Cvt(op) => {
                    let a = self.pop();
                    match eval_cvt(*op, a) {
                        Ok(v) => self.stack.push(v),
                        Err(t) => trap!(t),
                    }
                }
                Op::AtomicNotify(offset) => {
                    let _count = self.pop() as u32;
                    let addr = self.pop() as u32 as u64 + offset;
                    if let Err(t) = inst.memory.check(addr, 4) {
                        trap!(t);
                    }
                    // Engine-level parking is not modeled; WALI threads use
                    // SYS_futex. Report zero waiters woken.
                    self.stack.push(0);
                }
                Op::AtomicWait32(offset) => {
                    let _timeout = self.pop() as i64;
                    let expected = self.pop() as u32;
                    let addr = self.pop() as u32 as u64 + offset;
                    let v = match inst.memory.atomic_load32(addr) {
                        Ok(v) => v,
                        Err(t) => trap!(t),
                    };
                    // 1 = value mismatch, 2 = timed out (immediately; see
                    // AtomicNotify above).
                    self.stack.push(if v != expected { 1 } else { 2 });
                }
                Op::AtomicFence => {
                    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
                }
                Op::AtomicLoad(w, offset) => {
                    let addr = self.pop() as u32 as u64 + offset;
                    let r = match w {
                        crate::instr::AtomicWidth::I32 => {
                            inst.memory.atomic_load32(addr).map(|v| v as u64)
                        }
                        crate::instr::AtomicWidth::I64 => inst.memory.atomic_load64(addr),
                    };
                    match r {
                        Ok(v) => self.stack.push(v),
                        Err(t) => trap!(t),
                    }
                }
                Op::AtomicStore(w, offset) => {
                    let v = self.pop();
                    let addr = self.pop() as u32 as u64 + offset;
                    let r = match w {
                        crate::instr::AtomicWidth::I32 => {
                            inst.memory.atomic_store32(addr, v as u32)
                        }
                        crate::instr::AtomicWidth::I64 => inst.memory.atomic_store64(addr, v),
                    };
                    if let Err(t) = r {
                        trap!(t);
                    }
                }
                Op::AtomicRmw(op, offset) => {
                    let v = self.pop() as u32;
                    let addr = self.pop() as u32 as u64 + offset;
                    match inst.memory.atomic_rmw32(addr, *op, v) {
                        Ok(old) => self.stack.push(old as u64),
                        Err(t) => trap!(t),
                    }
                }
                Op::AtomicCmpxchg(offset) => {
                    let new = self.pop() as u32;
                    let expected = self.pop() as u32;
                    let addr = self.pop() as u32 as u64 + offset;
                    match inst.memory.atomic_cmpxchg32(addr, expected, new) {
                        Ok(old) => self.stack.push(old as u64),
                        Err(t) => trap!(t),
                    }
                }
            }
        }
    }

    #[inline]
    fn pop(&mut self) -> u64 {
        self.stack.pop().expect("validated operand stack")
    }

    #[inline]
    fn do_branch(&mut self, d: &BrDest) {
        let frame = self.frames.last_mut().expect("frame");
        frame.pc = d.target as usize;
        let keep = d.keep as usize;
        let tgt = frame.opbase + d.drop_to as usize;
        let from = self.stack.len() - keep;
        if from != tgt {
            self.stack.copy_within(from.., tgt);
            self.stack.truncate(tgt + keep);
        }
    }

    /// The register-tier interpreter loop ([`crate::regir`]): three-address
    /// ops over an in-frame register file, no operand push/pop traffic on
    /// straight-line code. The frame invariant is that the stack holds
    /// exactly `base + nregs` slots while a register frame is on top, so
    /// clone/suspend/safepoint re-entry see the same canonical layout the
    /// stack tier produces.
    ///
    /// It has no type parameter: it runs on the module's [`Prepared`]
    /// image and the `T`-free parts of the instance ([`Env`]), and
    /// reaches the embedder through the [`Port`] alone — for a host call and
    /// for the out-of-line half of a safepoint (and to report a signal
    /// handler's return). So it is compiled once, in this crate, and its
    /// code does not depend on who embeds it.
    ///
    /// The loop is two-level: the outer `'frame` loop re-derives per-frame
    /// state (code, op and pool pointers, the register window, the
    /// instruction pointer) once per activation, and the inner `'dispatch`
    /// loop runs on locals only: one budget counter, one op fetch, one
    /// `match`. `frame.pc` and the thread's step and fuel counters are
    /// written back at frame switches, host calls and run exits — never
    /// on the straight-line or branch fast path.
    #[inline(never)]
    fn run_reg(&mut self, image: &Prepared, env: Env<'_>, port: &mut dyn Port) -> RunResult {
        /// The body of `func`, which a frame or a `call` names: a local
        /// function.
        fn body(image: &Prepared, func: u32) -> &PreparedFunc {
            &image.bodies[(func - image.nimports) as usize]
        }
        let mut cur = body(image, self.frames.last().expect("frame").func);

        // Re-entry after a suspension: the host call truncated the stack to
        // its result top. Re-extend to the full register frame — every slot
        // above the results is dead or re-derivable from locals/immediates.
        {
            let frame = self.frames.last().expect("frame");
            let need = frame.base + cur.reg.as_ref().expect("register tier").nregs() as usize;
            if self.stack.len() < need {
                self.stack.resize(need, 0);
            }
        }

        // One down-counter is both fuel and step count: it starts at the
        // fuel (all ones when there is none) and loses one per op, so
        // what it has lost is what ran.
        let bounded = self.fuel.is_some();
        let start = self.fuel.unwrap_or(u64::MAX);
        let mut budget = start;

        // Reconciles the thread-visible counters, once, on the path that
        // leaves the loop.
        macro_rules! flush {
            () => {{
                let ran = start - budget;
                self.steps += ran;
                self.reg_steps += ran;
                if bounded {
                    self.fuel = Some(budget);
                }
            }};
        }

        macro_rules! trap {
            ($t:expr) => {{
                flush!();
                self.frames.clear();
                self.stack.clear();
                return RunResult::Trapped($t);
            }};
        }

        // The memory with its backing resolved, once per run, and the
        // safepoint flag, borrowed anew after every crossing.
        let mem = env.memory.view();
        let mut hint = port.hint();

        // SAFETY (both): `env.globals` is valid for the whole run and
        // nothing else refers to the globals while the loop runs
        // (`Thread::run`).
        macro_rules! global {
            ($idx:expr) => {
                unsafe { (&*env.globals)[$idx as usize] }
            };
        }
        macro_rules! set_global {
            ($idx:expr, $v:expr) => {{
                let v: u64 = $v;
                unsafe { (&mut *env.globals)[$idx as usize] = v }
            }};
        }

        'frame: loop {
            // Frame activation: hoist everything per-frame out of the
            // dispatch loop.
            let rcode = cur
                .reg
                .as_ref()
                .expect("register tier requires lowered code");
            let ops: *const ROp = rcode.ops().as_ptr();
            let consts: *const u64 = rcode.consts().as_ptr();
            let nregs = rcode.nregs() as usize;
            // What the debug-build assertions of `rd!`/`wr!`/`k!`/`jump!`
            // hold an access to (a release build reads neither).
            let (nops, npool) = (rcode.ops().len(), rcode.consts().len());
            let (pc, base) = {
                let f = self.frames.last().expect("frame");
                (f.pc, f.base)
            };
            // SAFETY: a frame's pc is 0 or was written by `sync_pc!`
            // behind an op that is not the function's last
            // (`regir::validated`, *terminator*: the code is not empty
            // and nothing resumes behind its last op).
            let mut ip: *const ROp = unsafe { ops.add(pc) };
            // The register window: register `r` is `*regs.add(r)`.
            // Re-derived (`rebase!`) wherever the stack may have been
            // reallocated since — here, and after a host call or a poll.
            //
            // SAFETY (for `regs` and the four macros below):
            // `regir::validated` admits only code whose register indices
            // are `< nregs` (*registers*) and whose pool indices are
            // within `consts` (*pool*) — in a specialised variant an `R`
            // operand is held to the first, a `C` operand to the second,
            // and so are a chain's `r` and `k` fields and every `dst`
            // (`variant_in_bounds`) — and the frame invariant keeps
            // `stack.len() >= base + nregs` while
            // this frame is on top (entry resize, `push_frame`,
            // `Port::call` after a host call and the `Return` resize all
            // re-establish it). The unchecked accesses therefore stay in
            // bounds; they are the hottest loads and stores in the
            // interpreter.
            let mut regs: *mut u64 = unsafe { self.stack.as_mut_ptr().add(base) };

            macro_rules! rebase {
                () => {
                    regs = unsafe { self.stack.as_mut_ptr().add(base) }
                };
            }

            // Register read.
            macro_rules! rd {
                ($r:expr) => {{
                    debug_assert!(($r as usize) < nregs, "register read past the frame");
                    unsafe { *regs.add($r as usize) }
                }};
            }

            // Register write.
            macro_rules! wr {
                ($r:expr, $v:expr) => {{
                    let v: u64 = $v;
                    debug_assert!(($r as usize) < nregs, "register write past the frame");
                    unsafe { *regs.add($r as usize) = v }
                }};
            }

            // Constant-pool read.
            macro_rules! k {
                ($i:expr) => {{
                    debug_assert!(($i as usize) < npool, "constant past the pool");
                    unsafe { *consts.add($i as usize) }
                }};
            }

            // Register-or-immediate operand of a generic instruction.
            macro_rules! src {
                ($s:expr) => {
                    match $s {
                        RSrc::Reg(r) => rd!(r),
                        RSrc::Const(i) => k!(i),
                    }
                };
            }

            // Write the pc back to the frame — required before any host
            // call (fork clones the thread mid-call) and any frame push
            // (the interrupted/calling frame must resume after the op).
            macro_rules! sync_pc {
                () => {
                    // SAFETY: `ip` points into (or one past) the op array
                    // `ops` points to.
                    self.frames.last_mut().expect("frame").pc =
                        unsafe { ip.offset_from(ops) } as usize
                };
            }

            // Jumps to op `target` of this function.
            macro_rules! jump {
                ($target:expr) => {{
                    debug_assert!(($target as usize) < nops, "branch past the code");
                    // SAFETY: `regir::validated`, *targets*.
                    ip = unsafe { ops.add($target as usize) }
                }};
            }

            // Stacks the frame of a signal handler that is a local
            // function on the live one, whose pc has been written back.
            // Registers already sit canonically in the frame — no spill.
            macro_rules! deliver {
                ($call:expr) => {{
                    let call: PendingCall = $call;
                    let code = body(image, call.func);
                    self.stack.extend(call.arg.iter().map(Value::raw));
                    if let Err(t) = self.push_frame(call.func, code, false, true) {
                        trap!(t);
                    }
                    cur = code;
                    continue 'frame;
                }};
            }

            // Transfers control to function `f`, whose arguments are the
            // canonical registers below `top`: a local callee's frame
            // starts on them, an import borrows them across the host
            // boundary. `pc` is written back first — the calling frame
            // resumes after the op, and `fork` clones the thread
            // mid-call. The port restores the stack to the full register
            // frame after a host call, then makes the syscall-exit poll
            // (Linux delivers signals on the return path of syscalls).
            macro_rules! enter {
                ($f:expr, $top:expr) => {{
                    let (f, top): (u32, usize) = ($f, base + $top as usize);
                    sync_pc!();
                    if f >= image.nimports {
                        let code = body(image, f);
                        self.stack.truncate(top);
                        if let Err(t) = self.push_frame(f, code, false, false) {
                            trap!(t);
                        }
                        cur = code;
                        continue 'frame;
                    }
                    match port.call(self, f, top, base + nregs) {
                        Ok(polled) => {
                            hint = polled.hint;
                            if let Some(call) = polled.handler {
                                deliver!(call);
                            }
                            rebase!();
                        }
                        Err(HostOutcome::Trap(t)) => trap!(t),
                        Err(parked) => {
                            flush!();
                            return RunResult::parked(parked);
                        }
                    }
                }};
            }

            // A value op whose operator may trap.
            macro_rules! checked {
                ($dst:expr, $r:expr) => {
                    match $r {
                        Ok(v) => wr!($dst, v),
                        Err(t) => trap!(t),
                    }
                };
            }

            // The effective address of a memory access.
            macro_rules! ea {
                ($addr:expr, $offset:expr) => {
                    $addr as u32 as u64 + $offset as u64
                };
            }
            macro_rules! ea_idx {
                ($a:expr, $b:expr, $offset:expr) => {
                    ($a as u32).wrapping_add($b as u32) as u64 + $offset as u64
                };
            }

            macro_rules! store {
                ($kind:expr, $ea:expr, $v:expr) => {{
                    let (ea, v): (u64, u64) = ($ea, $v);
                    if let Err(t) = store_at(&mem, $kind, ea, v) {
                        trap!(t);
                    }
                }};
            }

            'dispatch: loop {
                // A safepoint (paper §3.3): one relaxed load of the embedder's
                // flag. Only when it is raised does the poll happen, behind
                // the dispatch loop (below). Shared by the `Safepoint` op and
                // poll-carrying branches (the back-edge fold,
                // `regir::fold_safepoint_polls`); in every case `ip` is
                // already the handler's resume point.
                macro_rules! safepoint {
                    () => {
                        if hint.load(Ordering::Relaxed) {
                            break 'dispatch;
                        }
                    };
                }

                // The fused `dst = a op b; if (dst rel c) == if_true goto
                // target`, generic and specialised.
                macro_rules! bin_rel_br {
                    ($r:expr, $dst:expr, $rel:expr, $c:expr, $want:expr, $to:expr, $poll:expr) => {
                        match $r {
                            Ok(v) => {
                                // `c` is read after the write: it may be `dst`.
                                wr!($dst, v);
                                if (eval_rel($rel, v, $c) != 0) == $want {
                                    jump!($to);
                                    if $poll {
                                        safepoint!();
                                    }
                                }
                            }
                            Err(t) => trap!(t),
                        }
                    };
                }

                // A chain operand: register field `f` (`r f`), pool field
                // `f` (`k f`), or the result of step `i` (`l i`), which a
                // chain arm keeps in `v`.
                macro_rules! operand {
                    ($v:ident; r $f:ident) => {
                        rd!(*$f)
                    };
                    ($v:ident; k $f:ident) => {
                        k!(*$f)
                    };
                    ($v:ident; l $i:tt) => {
                        $v[$i]
                    };
                }

                // One step of a chain: its value, which only a leading load
                // can fail to produce.
                macro_rules! chain_step {
                    ($v:ident; bin $op:ident ($am:ident $a:tt, $bm:ident $b:tt) []) => {
                        match eval_bin(BinOp::$op, operand!($v; $am $a), operand!($v; $bm $b)) {
                            Ok(x) => x,
                            Err(t) => trap!(t),
                        }
                    };
                    ($v:ident; cvt $op:ident ($am:ident $a:tt) []) => {
                        match eval_cvt(CvtOp::$op, operand!($v; $am $a)) {
                            Ok(x) => x,
                            Err(t) => trap!(t),
                        }
                    };
                    ($v:ident; load_idx $kind:ident ($am:ident $a:tt, $bm:ident $b:tt) [$off:ident]) => {{
                        let ea = ea_idx!(operand!($v; $am $a), operand!($v; $bm $b), *$off);
                        match load_at(&mem, LoadKind::$kind, ea) {
                            Ok(x) => x,
                            Err(t) => trap!(t),
                        }
                    }};
                }

                let Some(left) = budget.checked_sub(1) else {
                    // Yield at an op boundary; resume(&[]) continues here.
                    sync_pc!();
                    flush!();
                    self.pending = Some(PendingHost {
                        func: None,
                        nresults: 0,
                        kept: None,
                    });
                    return RunResult::Preempted;
                };
                budget = left;
                // SAFETY: `regir::validated`, *targets* and *terminator*:
                // neither a jump nor fallthrough can move `ip` past the
                // array (resume pcs always follow non-terminator ops).
                let op = unsafe { &*ip };
                ip = unsafe { ip.add(1) };

                // One `match` runs the op. A taken branch that carries a
                // register fixup leaves it with its destination, for the
                // shared tail below; everything else goes round again.
                let dest: &RBr = 'taken: {
                    // The arms of the one dispatch `match`: the generic
                    // instructions written out, then one arm per entry of
                    // `regir::spec_table!`, each calling the same `eval_bin`
                    // / `eval_cvt` / `eval_rel` / `load_at` a generic arm
                    // calls — with a literal operator, so the inner `match`
                    // and the `Result` fold away at compile time.
                    macro_rules! dispatch {
                        (
                            bin { $($bop:ident => $brr:ident $brc:ident;)* }
                            load_idx {
                                $($lk:ident $(| $lks:ident)* => $xrr:ident $xrc:ident;)*
                            }
                            addbr { $($aop:ident => $ar:ident $ac:ident;)* }
                            pair {
                                bin2 {
                                    $($p1:ident; $p2:ident =>
                                        $prrrr:ident $prrrc:ident $prcrr:ident $prcrc:ident;)*
                                }
                                cvt_bin { $($pcvt:ident; $pbin:ident => $crrr:ident $crrc:ident;)* }
                                bin_rel_br {
                                    $($qop:ident; $qrel:ident =>
                                        $qrrr:ident $qrrc:ident $qrcr:ident $qrcc:ident;)*
                                }
                            }
                            chain {
                                $(
                                    $chn:ident { $($cf:ident: $cty:ty),* } =
                                    $($ci:literal: $ck:ident $cop:ident ($($cm:ident $cv:tt),*)
                                        $(+ $coff:ident)? -> $cd:ident;)*
                                )*
                            }
                            chain_br {
                                $(
                                    $bn:ident { $($bf:ident: $bty:ty),* } =
                                    $($bi:literal: $bk:ident $bo:ident ($($bm:ident $bv:tt),*)
                                        $(+ $boff:ident)? -> $bd:ident;)*
                                    => $brel:ident ($xm:ident $xv:tt, $ym:ident $yv:tt);
                                )*
                            }
                        ) => {
                            match op {
                                ROp::Unreachable => trap!(Trap::Unreachable),
                                ROp::Safepoint => safepoint!(),
                                ROp::Mov { dst, src } => wr!(*dst, src!(*src)),
                                ROp::Br(dest) => break 'taken dest,
                                ROp::BrIf { cond, dest } => {
                                    if src!(*cond) as u32 != 0 {
                                        break 'taken dest;
                                    }
                                }
                                ROp::BrIfZero { cond, dest } => {
                                    if src!(*cond) as u32 == 0 {
                                        break 'taken dest;
                                    }
                                }
                                ROp::RelBr { op, a, b, if_true, dest } => {
                                    if (eval_rel(*op, src!(*a), src!(*b)) != 0) == *if_true {
                                        break 'taken dest;
                                    }
                                }
                                ROp::BrTable { idx, table } => {
                                    let i = src!(*idx) as u32 as usize;
                                    break 'taken table.dests.get(i).unwrap_or(&table.default);
                                }
                                ROp::Return { src, n } => {
                                    let (src, n) = (*src as usize, *n as usize);
                                    let frame = self.frames.pop().expect("frame");
                                    if frame.signal_frame {
                                        port.signal_return();
                                        hint = port.hint();
                                    }
                                    let from = frame.base + src;
                                    // Move results down over the register frame.
                                    self.stack.copy_within(from..from + n, frame.base);
                                    self.stack.truncate(frame.base + n);
                                    if frame.barrier {
                                        flush!();
                                        let ty = image.func_type(frame.func).expect("function");
                                        return RunResult::Done(
                                            self.typed_results(&ty.results, frame.base),
                                        );
                                    }
                                    let parent = self.frames.last().expect("parent frame");
                                    let pbase = parent.base;
                                    cur = body(image, parent.func);
                                    // The results landed exactly in the caller's
                                    // canonical result registers; re-extend to its full
                                    // frame. (The parent's pc was synced at its call.)
                                    let preg = cur.reg.as_ref().expect("register tier");
                                    self.stack.resize(pbase + preg.nregs() as usize, 0);
                                    continue 'frame;
                                }
                                ROp::Call { func, top, .. } => enter!(*func, *top),
                                ROp::CallIndirect { ty, idx, top, .. } => {
                                    let i = src!(*idx) as u32 as usize;
                                    let f = match env.table.get(i) {
                                        Some(Some(f)) => *f,
                                        Some(None) => trap!(Trap::UninitializedElement),
                                        None => trap!(Trap::TableOutOfBounds),
                                    };
                                    if image.sig_of_func(f) != image.sig_of_type(*ty) {
                                        trap!(Trap::IndirectCallTypeMismatch);
                                    }
                                    enter!(f, *top);
                                }
                                ROp::Select { dst, cond, a, b } => {
                                    let (va, vb) = (src!(*a), src!(*b));
                                    wr!(*dst, if src!(*cond) as u32 != 0 { va } else { vb });
                                }
                                ROp::GlobalGet { dst, idx } => wr!(*dst, global!(*idx)),
                                ROp::GlobalSet { idx, src } => set_global!(*idx, src!(*src)),
                                ROp::Load { dst, kind, addr, offset } => {
                                    checked!(*dst, load_at(&mem, *kind, ea!(src!(*addr), *offset)))
                                }
                                ROp::Store { kind, addr, val, offset } => {
                                    store!(*kind, ea!(src!(*addr), *offset), src!(*val))
                                }
                                ROp::MemorySize { dst } => wr!(*dst, env.memory.pages() as u64),
                                ROp::MemoryGrow { dst, delta } => {
                                    let prev = env.memory.grow(src!(*delta) as u32);
                                    wr!(*dst, prev as u32 as u64);
                                }
                                ROp::MemoryCopy { dst, src, len } => {
                                    let len = src!(*len) as u32 as u64;
                                    let s = src!(*src) as u32 as u64;
                                    let d = src!(*dst) as u32 as u64;
                                    if let Err(t) = env.memory.copy_within(d, s, len) {
                                        trap!(t);
                                    }
                                }
                                ROp::MemoryFill { dst, val, len } => {
                                    let len = src!(*len) as u32 as u64;
                                    let v = src!(*val) as u8;
                                    let d = src!(*dst) as u32 as u64;
                                    if let Err(t) = env.memory.fill(d, v, len) {
                                        trap!(t);
                                    }
                                }
                                ROp::Un { dst, op, a } => checked!(*dst, eval_un(*op, src!(*a))),
                                ROp::Bin { dst, op, a, b } => {
                                    checked!(*dst, eval_bin(*op, src!(*a), src!(*b)))
                                }
                                ROp::Rel { dst, op, a, b } => {
                                    wr!(*dst, eval_rel(*op, src!(*a), src!(*b)) as u64)
                                }
                                ROp::Cvt { dst, op, a } => checked!(*dst, eval_cvt(*op, src!(*a))),
                                ROp::Bin2 { op1, a, b, dst1, op2, a2, b2, dst2 } => {
                                    // dst1 is written before the second op's operands
                                    // are read: one aliasing dst1 sees the fresh
                                    // value, exactly as the unfused sequence would.
                                    checked!(*dst1, eval_bin(*op1, src!(*a), src!(*b)));
                                    checked!(*dst2, eval_bin(*op2, src!(*a2), src!(*b2)));
                                }
                                ROp::CvtBin { cvt, a, dst1, op, a2, b2, dst2 } => {
                                    checked!(*dst1, eval_cvt(*cvt, src!(*a)));
                                    checked!(*dst2, eval_bin(*op, src!(*a2), src!(*b2)));
                                }
                                ROp::BinRelBr { op, a, b, dst, rel, c, if_true, target, poll } => {
                                    let r = eval_bin(*op, src!(*a), src!(*b));
                                    bin_rel_br!(r, *dst, *rel, src!(*c), *if_true, *target, *poll)
                                }
                                ROp::AtomicNotify { dst, addr, count, offset } => {
                                    let _count = src!(*count) as u32;
                                    if let Err(t) = env.memory.check(ea!(src!(*addr), *offset), 4) {
                                        trap!(t);
                                    }
                                    // See the stack tier: engine-level parking is not
                                    // modeled, report zero waiters woken.
                                    wr!(*dst, 0);
                                }
                                ROp::AtomicWait32 { dst, addr, expected, timeout, offset } => {
                                    let _timeout = src!(*timeout) as i64;
                                    let expected = src!(*expected) as u32;
                                    match env.memory.atomic_load32(ea!(src!(*addr), *offset)) {
                                        Ok(v) => wr!(*dst, if v != expected { 1 } else { 2 }),
                                        Err(t) => trap!(t),
                                    }
                                }
                                ROp::AtomicFence => {
                                    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
                                }
                                ROp::AtomicLoad { dst, width, addr, offset } => {
                                    let (mem, ea) = (env.memory, ea!(src!(*addr), *offset));
                                    checked!(*dst, match width {
                                        AtomicWidth::I32 => mem.atomic_load32(ea).map(|v| v as u64),
                                        AtomicWidth::I64 => mem.atomic_load64(ea),
                                    })
                                }
                                ROp::AtomicStore { width, addr, val, offset } => {
                                    let (mem, v) = (env.memory, src!(*val));
                                    let ea = ea!(src!(*addr), *offset);
                                    let r = match width {
                                        AtomicWidth::I32 => mem.atomic_store32(ea, v as u32),
                                        AtomicWidth::I64 => mem.atomic_store64(ea, v),
                                    };
                                    if let Err(t) = r {
                                        trap!(t);
                                    }
                                }
                                ROp::AtomicRmw { dst, op, addr, val, offset } => {
                                    let v = src!(*val) as u32;
                                    let ea = ea!(src!(*addr), *offset);
                                    let old = env.memory.atomic_rmw32(ea, *op, v);
                                    checked!(*dst, old.map(u64::from))
                                }
                                ROp::AtomicCmpxchg { dst, addr, expected, new, offset } => {
                                    let new = src!(*new) as u32;
                                    let expected = src!(*expected) as u32;
                                    let ea = ea!(src!(*addr), *offset);
                                    let old = env.memory.atomic_cmpxchg32(ea, expected, new);
                                    checked!(*dst, old.map(u64::from))
                                }
                                $(
                                    ROp::$brr { dst, a, b } => {
                                        checked!(*dst, eval_bin(BinOp::$bop, rd!(*a), rd!(*b)))
                                    }
                                    ROp::$brc { dst, a, b } => {
                                        checked!(*dst, eval_bin(BinOp::$bop, rd!(*a), k!(*b)))
                                    }
                                )*
                                $(
                                    ROp::$xrr { dst, a, b, offset } => {
                                        let ea = ea_idx!(rd!(*a), rd!(*b), *offset);
                                        checked!(*dst, load_at(&mem, LoadKind::$lk, ea))
                                    }
                                    ROp::$xrc { dst, a, b, offset } => {
                                        let ea = ea_idx!(rd!(*a), k!(*b), *offset);
                                        checked!(*dst, load_at(&mem, LoadKind::$lk, ea))
                                    }
                                )*
                                $(
                                    ROp::$ar { a, b, dst, c, if_true, target, poll } => {
                                        let r = eval_bin(BinOp::I32Add, rd!(*a), k!(*b));
                                        let rel = RelOp::$aop;
                                        bin_rel_br!(r, *dst, rel, rd!(*c), *if_true, *target, *poll)
                                    }
                                    ROp::$ac { a, b, dst, c, if_true, target, poll } => {
                                        let r = eval_bin(BinOp::I32Add, rd!(*a), k!(*b));
                                        let rel = RelOp::$aop;
                                        bin_rel_br!(r, *dst, rel, k!(*c), *if_true, *target, *poll)
                                    }
                                )*
                                // A named pair writes `dst1` before it reads the
                                // second half's operands, as `Bin2` does.
                                $(
                                    ROp::$prrrr { a, b, dst1, a2, b2, dst2 } => {
                                        checked!(*dst1, eval_bin(BinOp::$p1, rd!(*a), rd!(*b)));
                                        checked!(*dst2, eval_bin(BinOp::$p2, rd!(*a2), rd!(*b2)));
                                    }
                                    ROp::$prrrc { a, b, dst1, a2, b2, dst2 } => {
                                        checked!(*dst1, eval_bin(BinOp::$p1, rd!(*a), rd!(*b)));
                                        checked!(*dst2, eval_bin(BinOp::$p2, rd!(*a2), k!(*b2)));
                                    }
                                    ROp::$prcrr { a, b, dst1, a2, b2, dst2 } => {
                                        checked!(*dst1, eval_bin(BinOp::$p1, rd!(*a), k!(*b)));
                                        checked!(*dst2, eval_bin(BinOp::$p2, rd!(*a2), rd!(*b2)));
                                    }
                                    ROp::$prcrc { a, b, dst1, a2, b2, dst2 } => {
                                        checked!(*dst1, eval_bin(BinOp::$p1, rd!(*a), k!(*b)));
                                        checked!(*dst2, eval_bin(BinOp::$p2, rd!(*a2), k!(*b2)));
                                    }
                                )*
                                $(
                                    ROp::$crrr { a, dst1, a2, b2, dst2 } => {
                                        checked!(*dst1, eval_cvt(CvtOp::$pcvt, rd!(*a)));
                                        checked!(*dst2, eval_bin(BinOp::$pbin, rd!(*a2), rd!(*b2)));
                                    }
                                    ROp::$crrc { a, dst1, a2, b2, dst2 } => {
                                        checked!(*dst1, eval_cvt(CvtOp::$pcvt, rd!(*a)));
                                        checked!(*dst2, eval_bin(BinOp::$pbin, rd!(*a2), k!(*b2)));
                                    }
                                )*
                                $(
                                    ROp::$qrrr { a, b, dst, c, if_true, target, poll } => {
                                        let r = eval_bin(BinOp::$qop, rd!(*a), rd!(*b));
                                        let rel = RelOp::$qrel;
                                        bin_rel_br!(r, *dst, rel, rd!(*c), *if_true, *target, *poll)
                                    }
                                    ROp::$qrrc { a, b, dst, c, if_true, target, poll } => {
                                        let r = eval_bin(BinOp::$qop, rd!(*a), rd!(*b));
                                        let rel = RelOp::$qrel;
                                        bin_rel_br!(r, *dst, rel, k!(*c), *if_true, *target, *poll)
                                    }
                                    ROp::$qrcr { a, b, dst, c, if_true, target, poll } => {
                                        let r = eval_bin(BinOp::$qop, rd!(*a), k!(*b));
                                        let rel = RelOp::$qrel;
                                        bin_rel_br!(r, *dst, rel, rd!(*c), *if_true, *target, *poll)
                                    }
                                    ROp::$qrcc { a, b, dst, c, if_true, target, poll } => {
                                        let r = eval_bin(BinOp::$qop, rd!(*a), k!(*b));
                                        let rel = RelOp::$qrel;
                                        bin_rel_br!(r, *dst, rel, k!(*c), *if_true, *target, *poll)
                                    }
                                )*
                                // A chain runs its steps in program order, each
                                // writing its destination before the next reads
                                // anything; a link is read from `v`, not the frame.
                                $(
                                    ROp::$chn { $($cf),* } => {
                                        let mut v = [0u64; crate::regir::MAX_CHAIN];
                                        $(
                                            v[$ci] = chain_step!(v; $ck $cop ($($cm $cv),*) [$($coff)?]);
                                            wr!(*$cd, v[$ci]);
                                        )*
                                    }
                                )*
                                $(
                                    ROp::$bn { $($bf,)* if_true, target, poll } => {
                                        let mut v = [0u64; crate::regir::MAX_CHAIN];
                                        $(
                                            v[$bi] = chain_step!(v; $bk $bo ($($bm $bv),*) [$($boff)?]);
                                            wr!(*$bd, v[$bi]);
                                        )*
                                        let (x, y) = (operand!(v; $xm $xv), operand!(v; $ym $yv));
                                        if (eval_rel(RelOp::$brel, x, y) != 0) == *if_true {
                                            jump!(*target);
                                            if *poll {
                                                safepoint!();
                                            }
                                        }
                                    }
                                )*
                            }
                        };
                    }
                    crate::regir::spec_table!(dispatch);
                    continue 'dispatch;
                };

                // A taken branch: jump, plus the statically resolved copy
                // of the `keep` registers carried to their canonical home
                // (a no-op on most branches). Stays inside the current
                // frame, so no writeback. `poll` branches absorbed a
                // loop-header safepoint.
                jump!(dest.target);
                if dest.keep > 0 && dest.src != dest.dst {
                    // SAFETY: `regir::validated`, *fixups*.
                    unsafe {
                        std::ptr::copy(
                            regs.add(dest.src as usize),
                            regs.add(dest.dst as usize),
                            dest.keep as usize,
                        );
                    }
                }
                if dest.poll {
                    safepoint!();
                }
            }

            // Only a safepoint that found the flag raised ends the
            // dispatch loop this way: the out-of-line half, the poll
            // itself. `ip` is where the frame goes on afterwards — behind
            // a handler's frame if the poll delivered one.
            sync_pc!();
            match port.poll(self) {
                Ok(polled) => {
                    hint = polled.hint;
                    if let Some(call) = polled.handler {
                        deliver!(call);
                    }
                }
                Err(t) => trap!(t),
            }
        }
    }
}

#[inline(always)]
fn load(mem: &Memory, kind: LoadKind, addr: u64) -> Result<u64, Trap> {
    load_at(&mem.view(), kind, addr)
}

#[inline(always)]
fn store(mem: &Memory, kind: StoreKind, addr: u64, v: u64) -> Result<(), Trap> {
    store_at(&mem.view(), kind, addr, v)
}

/// A load of shape `kind`: the bytes at `addr`, extended to a slot.
#[inline(always)]
fn load_at(mem: &MemView<'_>, kind: LoadKind, addr: u64) -> Result<u64, Trap> {
    Ok(match kind {
        LoadKind::I32 | LoadKind::F32 => u32::from_le_bytes(mem.load::<4>(addr)?) as u64,
        LoadKind::I64 | LoadKind::F64 => u64::from_le_bytes(mem.load::<8>(addr)?),
        LoadKind::I32_8S => mem.load::<1>(addr)?[0] as i8 as i32 as u32 as u64,
        LoadKind::I32_8U => mem.load::<1>(addr)?[0] as u64,
        LoadKind::I32_16S => i16::from_le_bytes(mem.load::<2>(addr)?) as i32 as u32 as u64,
        LoadKind::I32_16U => u16::from_le_bytes(mem.load::<2>(addr)?) as u64,
        LoadKind::I64_8S => mem.load::<1>(addr)?[0] as i8 as i64 as u64,
        LoadKind::I64_8U => mem.load::<1>(addr)?[0] as u64,
        LoadKind::I64_16S => i16::from_le_bytes(mem.load::<2>(addr)?) as i64 as u64,
        LoadKind::I64_16U => u16::from_le_bytes(mem.load::<2>(addr)?) as u64,
        LoadKind::I64_32S => i32::from_le_bytes(mem.load::<4>(addr)?) as i64 as u64,
        LoadKind::I64_32U => u32::from_le_bytes(mem.load::<4>(addr)?) as u64,
    })
}

/// A store of shape `kind`: the low bytes of slot `v` to `addr`.
#[inline(always)]
fn store_at(mem: &MemView<'_>, kind: StoreKind, addr: u64, v: u64) -> Result<(), Trap> {
    match kind {
        StoreKind::I32 | StoreKind::F32 => mem.store::<4>(addr, (v as u32).to_le_bytes()),
        StoreKind::I64 | StoreKind::F64 => mem.store::<8>(addr, v.to_le_bytes()),
        StoreKind::I32_8 | StoreKind::I64_8 => mem.store::<1>(addr, [v as u8]),
        StoreKind::I32_16 | StoreKind::I64_16 => mem.store::<2>(addr, (v as u16).to_le_bytes()),
        StoreKind::I64_32 => mem.store::<4>(addr, (v as u32).to_le_bytes()),
    }
}

#[inline(always)]
pub(crate) fn eval_un(op: UnOp, a: u64) -> Result<u64, Trap> {
    use UnOp::*;
    let v = match op {
        I32Clz => (a as u32).leading_zeros() as u64,
        I32Ctz => (a as u32).trailing_zeros() as u64,
        I32Popcnt => (a as u32).count_ones() as u64,
        I32Eqz => ((a as u32 == 0) as u32) as u64,
        I64Clz => (a.leading_zeros()) as u64,
        I64Ctz => (a.trailing_zeros()) as u64,
        I64Popcnt => (a.count_ones()) as u64,
        I64Eqz => ((a == 0) as u32) as u64,
        F32Abs => f32b(f32v(a).abs()),
        F32Neg => f32b(-f32v(a)),
        F32Ceil => f32b(f32v(a).ceil()),
        F32Floor => f32b(f32v(a).floor()),
        F32Trunc => f32b(f32v(a).trunc()),
        F32Nearest => f32b(nearest32(f32v(a))),
        F32Sqrt => f32b(f32v(a).sqrt()),
        F64Abs => f64b(f64v(a).abs()),
        F64Neg => f64b(-f64v(a)),
        F64Ceil => f64b(f64v(a).ceil()),
        F64Floor => f64b(f64v(a).floor()),
        F64Trunc => f64b(f64v(a).trunc()),
        F64Nearest => f64b(nearest64(f64v(a))),
        F64Sqrt => f64b(f64v(a).sqrt()),
        I32Extend8S => (a as u8 as i8 as i32) as u32 as u64,
        I32Extend16S => (a as u16 as i16 as i32) as u32 as u64,
        I64Extend8S => (a as u8 as i8 as i64) as u64,
        I64Extend16S => (a as u16 as i16 as i64) as u64,
        I64Extend32S => (a as u32 as i32 as i64) as u64,
    };
    Ok(v)
}

#[inline(always)]
pub(crate) fn eval_bin(op: BinOp, a: u64, b: u64) -> Result<u64, Trap> {
    use BinOp::*;
    let v = match op {
        I32Add => (a as u32).wrapping_add(b as u32) as u64,
        I32Sub => (a as u32).wrapping_sub(b as u32) as u64,
        I32Mul => (a as u32).wrapping_mul(b as u32) as u64,
        I32DivS => {
            let (a, b) = (a as u32 as i32, b as u32 as i32);
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            if a == i32::MIN && b == -1 {
                return Err(Trap::IntegerOverflow);
            }
            (a / b) as u32 as u64
        }
        I32DivU => {
            let (a, b) = (a as u32, b as u32);
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            (a / b) as u64
        }
        I32RemS => {
            let (a, b) = (a as u32 as i32, b as u32 as i32);
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            a.wrapping_rem(b) as u32 as u64
        }
        I32RemU => {
            let (a, b) = (a as u32, b as u32);
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            (a % b) as u64
        }
        I32And => (a as u32 & b as u32) as u64,
        I32Or => (a as u32 | b as u32) as u64,
        I32Xor => (a as u32 ^ b as u32) as u64,
        I32Shl => (a as u32).wrapping_shl(b as u32) as u64,
        I32ShrS => ((a as u32 as i32).wrapping_shr(b as u32)) as u32 as u64,
        I32ShrU => (a as u32).wrapping_shr(b as u32) as u64,
        I32Rotl => (a as u32).rotate_left(b as u32 & 31) as u64,
        I32Rotr => (a as u32).rotate_right(b as u32 & 31) as u64,
        I64Add => a.wrapping_add(b),
        I64Sub => a.wrapping_sub(b),
        I64Mul => a.wrapping_mul(b),
        I64DivS => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            if a == i64::MIN && b == -1 {
                return Err(Trap::IntegerOverflow);
            }
            (a / b) as u64
        }
        I64DivU => {
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            a / b
        }
        I64RemS => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            a.wrapping_rem(b) as u64
        }
        I64RemU => {
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            a % b
        }
        I64And => a & b,
        I64Or => a | b,
        I64Xor => a ^ b,
        I64Shl => a.wrapping_shl(b as u32),
        I64ShrS => ((a as i64).wrapping_shr(b as u32)) as u64,
        I64ShrU => a.wrapping_shr(b as u32),
        I64Rotl => a.rotate_left(b as u32 & 63),
        I64Rotr => a.rotate_right(b as u32 & 63),
        F32Add => f32b(f32v(a) + f32v(b)),
        F32Sub => f32b(f32v(a) - f32v(b)),
        F32Mul => f32b(f32v(a) * f32v(b)),
        F32Div => f32b(f32v(a) / f32v(b)),
        F32Min => f32b(fmin32(f32v(a), f32v(b))),
        F32Max => f32b(fmax32(f32v(a), f32v(b))),
        F32Copysign => f32b(f32v(a).copysign(f32v(b))),
        F64Add => f64b(f64v(a) + f64v(b)),
        F64Sub => f64b(f64v(a) - f64v(b)),
        F64Mul => f64b(f64v(a) * f64v(b)),
        F64Div => f64b(f64v(a) / f64v(b)),
        F64Min => f64b(fmin64(f64v(a), f64v(b))),
        F64Max => f64b(fmax64(f64v(a), f64v(b))),
        F64Copysign => f64b(f64v(a).copysign(f64v(b))),
    };
    Ok(v)
}

#[inline(always)]
pub(crate) fn eval_rel(op: RelOp, a: u64, b: u64) -> u32 {
    use RelOp::*;
    let r = match op {
        I32Eq => a as u32 == b as u32,
        I32Ne => a as u32 != b as u32,
        I32LtS => (a as u32 as i32) < (b as u32 as i32),
        I32LtU => (a as u32) < (b as u32),
        I32GtS => (a as u32 as i32) > (b as u32 as i32),
        I32GtU => (a as u32) > (b as u32),
        I32LeS => (a as u32 as i32) <= (b as u32 as i32),
        I32LeU => (a as u32) <= (b as u32),
        I32GeS => (a as u32 as i32) >= (b as u32 as i32),
        I32GeU => (a as u32) >= (b as u32),
        I64Eq => a == b,
        I64Ne => a != b,
        I64LtS => (a as i64) < (b as i64),
        I64LtU => a < b,
        I64GtS => (a as i64) > (b as i64),
        I64GtU => a > b,
        I64LeS => (a as i64) <= (b as i64),
        I64LeU => a <= b,
        I64GeS => (a as i64) >= (b as i64),
        I64GeU => a >= b,
        F32Eq => f32v(a) == f32v(b),
        F32Ne => f32v(a) != f32v(b),
        F32Lt => f32v(a) < f32v(b),
        F32Gt => f32v(a) > f32v(b),
        F32Le => f32v(a) <= f32v(b),
        F32Ge => f32v(a) >= f32v(b),
        F64Eq => f64v(a) == f64v(b),
        F64Ne => f64v(a) != f64v(b),
        F64Lt => f64v(a) < f64v(b),
        F64Gt => f64v(a) > f64v(b),
        F64Le => f64v(a) <= f64v(b),
        F64Ge => f64v(a) >= f64v(b),
    };
    r as u32
}

#[inline(always)]
pub(crate) fn eval_cvt(op: CvtOp, a: u64) -> Result<u64, Trap> {
    use CvtOp::*;
    let v = match op {
        I32WrapI64 => a as u32 as u64,
        I32TruncF32S => {
            trunc_to_i64(f32v(a) as f64, i32::MIN as f64, i32::MAX as f64)? as u32 as u64
        }
        I32TruncF32U => trunc_to_u64(f32v(a) as f64, u32::MAX as f64)? as u32 as u64,
        I32TruncF64S => trunc_to_i64(f64v(a), i32::MIN as f64, i32::MAX as f64)? as u32 as u64,
        I32TruncF64U => trunc_to_u64(f64v(a), u32::MAX as f64)? as u32 as u64,
        I64ExtendI32S => (a as u32 as i32 as i64) as u64,
        I64ExtendI32U => a as u32 as u64,
        I64TruncF32S => trunc_to_i64(f32v(a) as f64, i64::MIN as f64, i64::MAX as f64)? as u64,
        I64TruncF32U => trunc_to_u64(f32v(a) as f64, u64::MAX as f64)?,
        I64TruncF64S => trunc_to_i64(f64v(a), i64::MIN as f64, i64::MAX as f64)? as u64,
        I64TruncF64U => trunc_to_u64(f64v(a), u64::MAX as f64)?,
        F32ConvertI32S => f32b(a as u32 as i32 as f32),
        F32ConvertI32U => f32b(a as u32 as f32),
        F32ConvertI64S => f32b(a as i64 as f32),
        F32ConvertI64U => f32b(a as f32),
        F32DemoteF64 => f32b(f64v(a) as f32),
        F64ConvertI32S => f64b(a as u32 as i32 as f64),
        F64ConvertI32U => f64b(a as u32 as f64),
        F64ConvertI64S => f64b(a as i64 as f64),
        F64ConvertI64U => f64b(a as f64),
        F64PromoteF32 => f64b(f32v(a) as f64),
        I32ReinterpretF32 => a as u32 as u64,
        I64ReinterpretF64 => a,
        F32ReinterpretI32 => a as u32 as u64,
        F64ReinterpretI64 => a,
    };
    Ok(v)
}

#[inline]
fn f32v(raw: u64) -> f32 {
    f32::from_bits(raw as u32)
}

#[inline]
fn f64v(raw: u64) -> f64 {
    f64::from_bits(raw)
}

#[inline]
fn f32b(v: f32) -> u64 {
    v.to_bits() as u64
}

#[inline]
fn f64b(v: f64) -> u64 {
    v.to_bits()
}

fn trunc_to_i64(v: f64, min: f64, max: f64) -> Result<i64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if t < min || t > max {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i64)
}

fn trunc_to_u64(v: f64, max: f64) -> Result<u64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if t < 0.0 || t > max {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u64)
}

/// Round-half-to-even, per the Wasm spec.
fn nearest32(v: f32) -> f32 {
    let r = v.round();
    if (r - v).abs() == 0.5 && r % 2.0 != 0.0 {
        r - v.signum()
    } else {
        r
    }
}

fn nearest64(v: f64) -> f64 {
    let r = v.round();
    if (r - v).abs() == 0.5 && r % 2.0 != 0.0 {
        r - v.signum()
    } else {
        r
    }
}

fn fmin32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

fn fmax32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else {
        a.max(b)
    }
}

fn fmin64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

fn fmax64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else {
        a.max(b)
    }
}
