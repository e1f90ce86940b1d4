//! The fast-tier interpreter: explicit frames over prepared code.
//!
//! The execution state ([`Thread`]) is a plain data structure — value stack
//! plus frame stack — so it can be **cloned** (WALI `fork`), **suspended**
//! mid-host-call (WALI `execve`/`clone`/`exit`) and **re-entered** at
//! safepoints to run signal handlers (paper §3.3), all without touching the
//! host call stack.

use std::sync::Arc;

use crate::error::Trap;
use crate::host::{Blocked, Caller, HostCtx, HostOutcome, PendingCall, Suspension};
use crate::instr::{BinOp, CvtOp, LoadKind, RelOp, StoreKind, UnOp};
use crate::mem::Memory;
use crate::module::{ConstExpr, ElemSegment, ExportDesc, Global};
use crate::prep::{BrDest, FuncDef, Op, PreparedFunc, Program};
use crate::regir::{ROp, RSrc};
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
    /// Function table (funcref entries).
    pub table: Vec<Option<u32>>,
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
        let mut inst = Self::bare(program, memory)?;
        inst.apply_elems()?;
        Ok(inst)
    }

    /// Instantiates over the given memory, applying data segments.
    pub fn with_memory(program: Arc<Program<T>>, memory: Arc<Memory>) -> Result<Instance<T>, Trap> {
        let mut inst = Self::bare(program, memory)?;
        inst.apply_elems()?;
        for d in &inst.program.datas {
            let at = inst.eval_const(&d.offset)? as u32 as u64;
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
        let table = match &program.table {
            Some(t) => vec![None; t.limits.min as usize],
            None => Vec::new(),
        };
        Ok(Instance {
            program,
            memory,
            globals,
            table,
        })
    }

    fn apply_elems(&mut self) -> Result<(), Trap> {
        // The segments are read through their own handle on the image,
        // so the table can be written while they are borrowed.
        let image = self.program.image.clone();
        for ElemSegment { offset, funcs } in &image.elems {
            let at = self.eval_const(offset)? as u32 as usize;
            let end = at.checked_add(funcs.len()).ok_or(Trap::TableOutOfBounds)?;
            if end > self.table.len() {
                return Err(Trap::TableOutOfBounds);
            }
            for (i, f) in funcs.iter().enumerate() {
                self.table[at + i] = Some(*f);
            }
        }
        Ok(())
    }

    fn eval_const(&self, e: &ConstExpr) -> Result<i64, Trap> {
        match e {
            ConstExpr::I32(v) => Ok(*v as i64),
            ConstExpr::I64(v) => Ok(*v),
            _ => Err(Trap::Host("unsupported const expr".into())),
        }
    }

    /// Fork-style duplicate: copy-on-write memory snapshot on the paged
    /// backing (O(allocated pages)), deep copy on the flat backing; cloned
    /// globals and table either way.
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
        let def = self.program.funcs.get(func as usize)?;
        self.program.types.get(def.type_idx() as usize)
    }
}

/// Why a call or resume returned.
pub enum RunResult {
    /// The activation completed with these results.
    Done(Vec<Value>),
    /// Execution trapped; the thread is dead.
    Trapped(Trap),
    /// A host function suspended; call [`Thread::resume`] to continue.
    Suspended(Suspension),
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
            HostOutcome::Suspend(s) => RunResult::Suspended(s),
            HostOutcome::Block(b) => RunResult::Blocked(b),
        }
    }
}

impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunResult::Done(v) => write!(f, "Done({v:?})"),
            RunResult::Trapped(t) => write!(f, "Trapped({t:?})"),
            RunResult::Suspended(_) => write!(f, "Suspended(..)"),
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

/// Suspension payload produced when a thread exhausts its fuel slice.
///
/// The embedder resumes with no values to continue exactly where the
/// thread left off; this is what lets a cooperative scheduler preempt
/// busy-spinning tasks (e.g. a thread polling shared memory).
pub struct Preempted;

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
#[derive(Clone, Default)]
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

impl Thread {
    /// Creates an idle thread.
    pub fn new() -> Thread {
        Thread::default()
    }

    /// True if the thread is mid-suspension and expects `resume`.
    pub fn is_suspended(&self) -> bool {
        self.pending.is_some()
    }

    /// Sets the preemption fuel: the thread yields [`Preempted`] after
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
    /// Out of line on purpose: the dispatch loops are monomorphised
    /// into the embedder's crate, and keeping this body out of them
    /// keeps their layout independent of it.
    #[inline(never)]
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
        if inst.func_type(call.func).map(|t| t.params.len()) != Some(call.args.len()) {
            return Err(Trap::Host("bad signal handler arity".into()));
        }
        let top = self.stack.len();
        self.stack.extend(call.args.iter().map(Value::raw));
        let r = self.call_host(inst, ctx, call.func, self.stack.len());
        self.stack.truncate(top);
        match r {
            Ok(()) => Ok(()),
            Err(HostOutcome::Trap(t)) => Err(t),
            Err(HostOutcome::Suspend(_) | HostOutcome::Block(_)) => {
                self.pending = None;
                Err(Trap::Host("suspend in signal handler".into()))
            }
        }
    }

    /// Pops the results of `func` — the slots from `base` up — as typed
    /// values.
    fn take_results<T>(&mut self, inst: &Instance<T>, func: u32, base: usize) -> Vec<Value> {
        let tys = &inst.func_type(func).expect("function exists").results;
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
            let need = base + reg.nregs as usize;
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
            self.run_reg(inst, ctx)
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
                            self.stack.extend(call.args.iter().map(Value::raw));
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
                    return RunResult::Suspended(Suspension::new(Preempted));
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
                    let actual = program.funcs[f as usize].type_idx();
                    if program.types[actual as usize] != program.types[expect_ty as usize] {
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
    /// The loop is two-level: the outer `'frame` loop re-derives per-frame
    /// state (code, ops slice, `base`, `pc`) once per activation, and the
    /// inner dispatch loop runs on locals only. `frame.pc` and the step/fuel
    /// counters are synced back exclusively at frame switches, host calls
    /// and run exits — never on the straight-line or branch fast path.
    fn run_reg<T: HostCtx>(&mut self, inst: &mut Instance<T>, ctx: &mut T) -> RunResult {
        let program = inst.program.clone();
        let mut cur: Arc<PreparedFunc> =
            match &program.funcs[self.frames.last().expect("frame").func as usize] {
                FuncDef::Local(c) => c.clone(),
                FuncDef::Host { .. } => unreachable!("frames are local functions"),
            };

        // Re-entry after a suspension: the host call truncated the stack to
        // its result top. Re-extend to the full register frame — every slot
        // above the results is dead or re-derivable from locals/immediates.
        {
            let frame = self.frames.last().expect("frame");
            let need = frame.base + cur.reg.as_ref().expect("register tier").nregs as usize;
            if self.stack.len() < need {
                self.stack.resize(need, 0);
            }
        }

        // Dispatch-loop state held in locals; `flush!` reconciles the
        // thread-visible counters on every path that leaves the loop.
        let mut fuel = self.fuel;
        let mut steps: u64 = 0;

        macro_rules! flush {
            () => {{
                self.fuel = fuel;
                self.steps += steps;
                self.reg_steps += steps;
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

        'frame: loop {
            // Frame activation: hoist everything per-frame out of the
            // dispatch loop. `codearc` pins the borrow of the ops slice so
            // `cur` stays reassignable at the switch points below.
            let codearc = cur.clone();
            let rcode = codearc
                .reg
                .as_ref()
                .expect("register tier requires lowered code");
            let ops: &[ROp] = &rcode.ops;
            let consts: &[u64] = &rcode.consts;
            let nregs = rcode.nregs as usize;
            let (mut pc, base) = {
                let f = self.frames.last().expect("frame");
                (f.pc, f.base)
            };

            // SAFETY (for the three macros below): `regir::lower` only
            // returns code whose register indices are `< nregs` and whose
            // pool indices are within `consts` (its `validated` pass), and
            // the frame invariant keeps `stack.len() >= base + nregs`
            // while this frame is on top (entry resize, `push_frame`,
            // `enter!` after a host call and the `Return` resize all
            // re-establish it). The unchecked accesses therefore stay in
            // bounds; they are the hottest loads/stores in the interpreter.

            // Register read.
            macro_rules! reg {
                ($r:expr) => {
                    unsafe { *self.stack.get_unchecked(base + $r as usize) }
                };
            }

            // Register write.
            macro_rules! set_reg {
                ($r:expr, $v:expr) => {{
                    let v = $v;
                    unsafe {
                        *self.stack.get_unchecked_mut(base + $r as usize) = v;
                    }
                }};
            }

            // Register-or-immediate operand read (immediates live in the
            // function's constant pool).
            macro_rules! src {
                ($s:expr, $base:expr) => {
                    match $s {
                        RSrc::Reg(r) => reg!(r),
                        RSrc::Const(i) => unsafe { *consts.get_unchecked(i as usize) },
                    }
                };
            }

            // Write the local pc back to the frame — required before any
            // host call (fork clones the thread mid-call) and any frame
            // push (the interrupted/calling frame must resume after the op).
            macro_rules! sync_pc {
                () => {
                    self.frames.last_mut().expect("frame").pc = pc
                };
            }

            // The safepoint poll (paper §3.3). Registers already sit
            // canonically in the frame — a handler frame stacks directly
            // on top, no spill needed. Shared by the `Safepoint` op,
            // poll-carrying branches (the back-edge fold) and the return
            // path of host calls (Linux delivers signals at syscall
            // exit); in every case `pc` is already the handler's resume
            // point.
            macro_rules! poll_signals {
                () => {{
                    if let Some(t) = ctx.check_abort() {
                        trap!(t);
                    }
                    if let Some(call) = ctx.poll_signal() {
                        let func = call.func;
                        sync_pc!();
                        match program.funcs.get(func as usize) {
                            Some(FuncDef::Local(code)) => {
                                let code = code.clone();
                                self.stack.extend(call.args.iter().map(Value::raw));
                                if let Err(t) = self.push_frame(func, &code, false, true) {
                                    trap!(t);
                                }
                                cur = code;
                                continue 'frame;
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

            // A register-IR branch: jump, plus the statically resolved copy
            // of the `keep` registers carried to their canonical home (a
            // no-op on most branches). Stays inside the current frame, so
            // no writeback. `poll` branches absorbed a loop-header
            // safepoint (see `regir::fold_safepoint_polls`).
            macro_rules! branch {
                ($d:expr) => {{
                    let d = $d;
                    pc = d.target as usize;
                    if d.keep > 0 && d.src != d.dst {
                        let (s, t) = (base + d.src as usize, base + d.dst as usize);
                        self.stack.copy_within(s..s + d.keep as usize, t);
                    }
                    if d.poll {
                        poll_signals!();
                    }
                }};
            }

            // Transfers control to function `f`, whose arguments are the
            // canonical registers below `top`: a local callee's frame
            // starts on them, an import borrows them across the host
            // boundary. `pc` is written back first — the calling frame
            // resumes after the op, and `fork` clones the thread
            // mid-call. After a host call the stack is restored to the
            // full register frame before the syscall-exit poll can stack
            // a handler frame on it.
            macro_rules! enter {
                ($f:expr, $top:expr) => {{
                    let (f, top) = ($f, base + $top as usize);
                    sync_pc!();
                    match &program.funcs[f as usize] {
                        FuncDef::Local(code) => {
                            let code = code.clone();
                            self.stack.truncate(top);
                            if let Err(t) = self.push_frame(f, &code, false, false) {
                                trap!(t);
                            }
                            cur = code;
                            continue 'frame;
                        }
                        FuncDef::Host { .. } => match self.call_host(inst, ctx, f, top) {
                            Ok(()) => {
                                self.stack.resize(base + nregs, 0);
                                poll_signals!();
                            }
                            Err(HostOutcome::Trap(t)) => trap!(t),
                            Err(parked) => {
                                flush!();
                                return RunResult::parked(parked);
                            }
                        },
                    }
                }};
            }

            loop {
                if let Some(f) = &mut fuel {
                    if *f == 0 {
                        // Yield at an op boundary; resume(&[]) continues here.
                        sync_pc!();
                        flush!();
                        self.pending = Some(PendingHost {
                            func: None,
                            nresults: 0,
                            kept: None,
                        });
                        return RunResult::Suspended(Suspension::new(Preempted));
                    }
                    *f -= 1;
                }
                // SAFETY: `regir::validated` guarantees every branch
                // target is in bounds and the last op is a terminator, so
                // neither fallthrough nor a jump can move `pc` past the
                // array (resume pcs always follow non-terminator ops).
                let op = unsafe { ops.get_unchecked(pc) };
                pc += 1;
                steps += 1;

                match op {
                    ROp::Unreachable => trap!(Trap::Unreachable),
                    ROp::Safepoint => poll_signals!(),
                    ROp::Mov { dst, src } => {
                        let v = src!(*src, base);
                        set_reg!(*dst, v);
                    }
                    ROp::Br(d) => branch!(*d),
                    ROp::BrIf { cond, dest } => {
                        let (c, d) = (src!(*cond, base), *dest);
                        if c as u32 != 0 {
                            branch!(d);
                        }
                    }
                    ROp::BrIfZero { cond, dest } => {
                        let (c, d) = (src!(*cond, base), *dest);
                        if c as u32 == 0 {
                            branch!(d);
                        }
                    }
                    ROp::RelBr {
                        op,
                        a,
                        b,
                        if_true,
                        dest,
                    } => {
                        let (va, vb) = (src!(*a, base), src!(*b, base));
                        let (want, d) = (*if_true, *dest);
                        if (eval_rel(*op, va, vb) != 0) == want {
                            branch!(d);
                        }
                    }
                    ROp::BrTable { idx, table } => {
                        let i = src!(*idx, base) as u32 as usize;
                        let d = *table.dests.get(i).unwrap_or(&table.default);
                        branch!(d);
                    }
                    ROp::Return { src, n } => {
                        let (src, n) = (*src as usize, *n as usize);
                        let frame = self.frames.pop().expect("frame");
                        if frame.signal_frame {
                            ctx.signal_return();
                        }
                        let from = frame.base + src;
                        // Move results down over the register frame.
                        self.stack.copy_within(from..from + n, frame.base);
                        self.stack.truncate(frame.base + n);
                        if frame.barrier {
                            flush!();
                            return RunResult::Done(
                                self.take_results(inst, frame.func, frame.base),
                            );
                        }
                        let parent = self.frames.last().expect("parent frame");
                        let pbase = parent.base;
                        cur = match &program.funcs[parent.func as usize] {
                            FuncDef::Local(c) => c.clone(),
                            FuncDef::Host { .. } => unreachable!(),
                        };
                        // The results landed exactly in the caller's
                        // canonical result registers; re-extend to its full
                        // frame. (The parent's pc was synced at its call.)
                        let pnregs = cur.reg.as_ref().expect("register tier").nregs as usize;
                        self.stack.resize(pbase + pnregs, 0);
                        continue 'frame;
                    }
                    ROp::Call { func, top, .. } => enter!(*func, *top),
                    ROp::CallIndirect {
                        ty: expect_ty,
                        idx,
                        top,
                        ..
                    } => {
                        let expect_ty = *expect_ty;
                        let i = src!(*idx, base) as u32 as usize;
                        let entry = match inst.table.get(i) {
                            Some(e) => *e,
                            None => trap!(Trap::TableOutOfBounds),
                        };
                        let f = match entry {
                            Some(f) => f,
                            None => trap!(Trap::UninitializedElement),
                        };
                        let actual = program.funcs[f as usize].type_idx();
                        if program.types[actual as usize] != program.types[expect_ty as usize] {
                            trap!(Trap::IndirectCallTypeMismatch);
                        }
                        enter!(f, *top);
                    }
                    ROp::Select { dst, cond, a, b } => {
                        let c = src!(*cond, base) as u32;
                        let (va, vb) = (src!(*a, base), src!(*b, base));
                        set_reg!(*dst, if c != 0 { va } else { vb });
                    }
                    ROp::GlobalGet { dst, idx } => {
                        set_reg!(*dst, inst.globals[*idx as usize]);
                    }
                    ROp::GlobalSet { idx, src } => {
                        inst.globals[*idx as usize] = src!(*src, base);
                    }
                    ROp::Load {
                        dst,
                        kind,
                        addr,
                        offset,
                    } => {
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        let v = match load(&inst.memory, *kind, addr) {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        };
                        set_reg!(*dst, v);
                    }
                    ROp::Store {
                        kind,
                        addr,
                        val,
                        offset,
                    } => {
                        let v = src!(*val, base);
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        if let Err(t) = store(&inst.memory, *kind, addr, v) {
                            trap!(t);
                        }
                    }
                    ROp::MemorySize { dst } => {
                        set_reg!(*dst, inst.memory.pages() as u64);
                    }
                    ROp::MemoryGrow { dst, delta } => {
                        let delta = src!(*delta, base) as u32;
                        let prev = inst.memory.grow(delta);
                        set_reg!(*dst, prev as u32 as u64);
                    }
                    ROp::MemoryCopy { dst, src, len } => {
                        let len = src!(*len, base) as u32 as u64;
                        let s = src!(*src, base) as u32 as u64;
                        let d = src!(*dst, base) as u32 as u64;
                        if let Err(t) = inst.memory.copy_within(d, s, len) {
                            trap!(t);
                        }
                    }
                    ROp::MemoryFill { dst, val, len } => {
                        let len = src!(*len, base) as u32 as u64;
                        let v = src!(*val, base) as u8;
                        let d = src!(*dst, base) as u32 as u64;
                        if let Err(t) = inst.memory.fill(d, v, len) {
                            trap!(t);
                        }
                    }
                    ROp::Un { dst, op, a } => {
                        let a = src!(*a, base);
                        match eval_un(*op, a) {
                            Ok(v) => set_reg!(*dst, v),
                            Err(t) => trap!(t),
                        }
                    }
                    ROp::Bin { dst, op, a, b } => {
                        let (va, vb) = (src!(*a, base), src!(*b, base));
                        match eval_bin(*op, va, vb) {
                            Ok(v) => set_reg!(*dst, v),
                            Err(t) => trap!(t),
                        }
                    }
                    ROp::Rel { dst, op, a, b } => {
                        let (va, vb) = (src!(*a, base), src!(*b, base));
                        set_reg!(*dst, eval_rel(*op, va, vb) as u64);
                    }
                    ROp::Cvt { dst, op, a } => {
                        let a = src!(*a, base);
                        match eval_cvt(*op, a) {
                            Ok(v) => set_reg!(*dst, v),
                            Err(t) => trap!(t),
                        }
                    }
                    ROp::LoadIdx {
                        dst,
                        kind,
                        a,
                        b,
                        offset,
                    } => {
                        let (va, vb) = (src!(*a, base), src!(*b, base));
                        let addr = (va as u32).wrapping_add(vb as u32) as u64 + *offset as u64;
                        let v = match load(&inst.memory, *kind, addr) {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        };
                        set_reg!(*dst, v);
                    }
                    ROp::Bin2 {
                        op1,
                        a,
                        b,
                        dst1,
                        op2,
                        a2,
                        b2,
                        dst2,
                    } => {
                        let (va, vb) = (src!(*a, base), src!(*b, base));
                        let v1 = match eval_bin(*op1, va, vb) {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        };
                        // dst1 is written before the second op's operands
                        // are read: one aliasing dst1 sees the fresh
                        // value, exactly as the unfused sequence would.
                        set_reg!(*dst1, v1);
                        let (v2a, v2b) = (src!(*a2, base), src!(*b2, base));
                        match eval_bin(*op2, v2a, v2b) {
                            Ok(v) => set_reg!(*dst2, v),
                            Err(t) => trap!(t),
                        }
                    }
                    ROp::BinRelBr {
                        op,
                        a,
                        b,
                        dst,
                        rel,
                        c,
                        if_true,
                        target,
                        poll,
                    } => {
                        let (va, vb) = (src!(*a, base), src!(*b, base));
                        let v = match eval_bin(*op, va, vb) {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        };
                        set_reg!(*dst, v);
                        let vc = src!(*c, base);
                        if (eval_rel(*rel, v, vc) != 0) == *if_true {
                            pc = *target as usize;
                            if *poll {
                                poll_signals!();
                            }
                        }
                    }
                    ROp::CvtBin {
                        cvt,
                        a,
                        dst1,
                        op,
                        a2,
                        b2,
                        dst2,
                    } => {
                        let va = src!(*a, base);
                        let v1 = match eval_cvt(*cvt, va) {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        };
                        set_reg!(*dst1, v1);
                        let (v2a, v2b) = (src!(*a2, base), src!(*b2, base));
                        match eval_bin(*op, v2a, v2b) {
                            Ok(v) => set_reg!(*dst2, v),
                            Err(t) => trap!(t),
                        }
                    }
                    ROp::AtomicNotify {
                        dst,
                        addr,
                        count,
                        offset,
                    } => {
                        let _count = src!(*count, base) as u32;
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        if let Err(t) = inst.memory.check(addr, 4) {
                            trap!(t);
                        }
                        // See the stack tier: engine-level parking is not
                        // modeled, report zero waiters woken.
                        set_reg!(*dst, 0);
                    }
                    ROp::AtomicWait32 {
                        dst,
                        addr,
                        expected,
                        timeout,
                        offset,
                    } => {
                        let _timeout = src!(*timeout, base) as i64;
                        let expected = src!(*expected, base) as u32;
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        let v = match inst.memory.atomic_load32(addr) {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        };
                        set_reg!(*dst, if v != expected { 1 } else { 2 });
                    }
                    ROp::AtomicFence => {
                        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
                    }
                    ROp::AtomicLoad {
                        dst,
                        width,
                        addr,
                        offset,
                    } => {
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        let r = match width {
                            crate::instr::AtomicWidth::I32 => {
                                inst.memory.atomic_load32(addr).map(|v| v as u64)
                            }
                            crate::instr::AtomicWidth::I64 => inst.memory.atomic_load64(addr),
                        };
                        match r {
                            Ok(v) => set_reg!(*dst, v),
                            Err(t) => trap!(t),
                        }
                    }
                    ROp::AtomicStore {
                        width,
                        addr,
                        val,
                        offset,
                    } => {
                        let v = src!(*val, base);
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        let r = match width {
                            crate::instr::AtomicWidth::I32 => {
                                inst.memory.atomic_store32(addr, v as u32)
                            }
                            crate::instr::AtomicWidth::I64 => inst.memory.atomic_store64(addr, v),
                        };
                        if let Err(t) = r {
                            trap!(t);
                        }
                    }
                    ROp::AtomicRmw {
                        dst,
                        op,
                        addr,
                        val,
                        offset,
                    } => {
                        let v = src!(*val, base) as u32;
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        match inst.memory.atomic_rmw32(addr, *op, v) {
                            Ok(old) => set_reg!(*dst, old as u64),
                            Err(t) => trap!(t),
                        }
                    }
                    ROp::AtomicCmpxchg {
                        dst,
                        addr,
                        expected,
                        new,
                        offset,
                    } => {
                        let new = src!(*new, base) as u32;
                        let expected = src!(*expected, base) as u32;
                        let addr = src!(*addr, base) as u32 as u64 + *offset as u64;
                        match inst.memory.atomic_cmpxchg32(addr, expected, new) {
                            Ok(old) => set_reg!(*dst, old as u64),
                            Err(t) => trap!(t),
                        }
                    }
                }
            }
        }
    }
}

fn load(mem: &Memory, kind: LoadKind, addr: u64) -> Result<u64, Trap> {
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

fn store(mem: &Memory, kind: StoreKind, addr: u64, v: u64) -> Result<(), Trap> {
    match kind {
        StoreKind::I32 | StoreKind::F32 => mem.store::<4>(addr, (v as u32).to_le_bytes()),
        StoreKind::I64 | StoreKind::F64 => mem.store::<8>(addr, v.to_le_bytes()),
        StoreKind::I32_8 | StoreKind::I64_8 => mem.store::<1>(addr, [v as u8]),
        StoreKind::I32_16 | StoreKind::I64_16 => mem.store::<2>(addr, (v as u16).to_le_bytes()),
        StoreKind::I64_32 => mem.store::<4>(addr, (v as u32).to_le_bytes()),
    }
}

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
