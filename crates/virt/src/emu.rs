//! A QEMU-analogue execution tier: naive in-place interpretation.
//!
//! Runs the *same Wasm binary* as the WALI runner, but the way a
//! non-optimizing emulator executes a guest ISA:
//!
//! * **no pre-decoding** — control flow works on the structured
//!   instruction stream, and every `br`/`if`/`end` re-scans for its
//!   matching block boundary (the translation-cache-miss path of an
//!   emulator, taken on every iteration here);
//! * **soft-MMU** — every load and store goes through a page-table
//!   lookup before touching guest memory, as emulated guests do.
//!
//! Syscalls still terminate in the same WALI host functions, so the
//! workload's kernel interaction is identical — only the execution tier
//! differs. Startup is near-zero (no image to materialize, no preparation
//! pass), which is exactly the QEMU trade-off Fig. 8 shows.

use std::sync::Arc;

use wali::context::WaliContext;
use wali::registry::{build_linker, WaliSuspend};
use wasm::host::{Caller, HostOutcome};
use wasm::instr::{BinOp, CvtOp, Instr, LoadKind, RelOp, StoreKind, UnOp};
use wasm::interp::Instance;
use wasm::module::FuncBody;
use wasm::prep::{FuncDef, Program};
use wasm::{Module, SafepointScheme};

/// Soft page size of the emulated MMU.
const SOFT_PAGE: usize = 4096;

/// Result of an emulated run.
#[derive(Debug)]
pub struct EmuOutcome {
    /// Exit code.
    pub exit: i32,
    /// Guest instructions executed.
    pub steps: u64,
    /// Captured console output.
    pub console: Vec<u8>,
}

enum Flow {
    Normal,
    Branch(u32),
    Return,
    Exit(i32),
}

/// The emulator.
pub struct EmuRunner {
    module: Module,
    program: Arc<Program<WaliContext>>,
    kernel: wali::context::KernelRef,
}

impl EmuRunner {
    /// Prepares an emulated run of `module` (single-process workloads).
    pub fn new(module: &Module) -> Result<EmuRunner, String> {
        let linker = build_linker();
        // Scheme is irrelevant: the emulator walks the structured code.
        let program =
            Program::link(module, &linker, SafepointScheme::None).map_err(|e| e.to_string())?;
        Ok(EmuRunner {
            module: module.clone(),
            program: Arc::new(program),
            kernel: wali::new_kernel_ref(vkernel::Kernel::new()),
        })
    }

    /// Shared kernel handle (to pre-populate files).
    pub fn kernel(&self) -> wali::context::KernelRef {
        self.kernel.clone()
    }

    /// Runs `_start` to completion.
    pub fn run(&mut self, args: &[&str]) -> Result<EmuOutcome, String> {
        let tid = self.kernel.lock_ok().spawn_process();
        let mut instance = Instance::new(self.program.clone()).map_err(|t| t.to_string())?;
        let mut ctx = WaliContext::new(
            self.kernel.clone(),
            tid,
            self.program.data_end(),
            wali::runner::ring_default(),
        );
        ctx.args = args.iter().map(|s| s.to_string()).collect();
        let entry = instance
            .export_func("_start")
            .ok_or_else(|| "no _start".to_string())?;

        // Identity-mapped soft page table over the full memory max.
        let pages = instance.memory.max_pages() as usize * wasm::PAGE_SIZE / SOFT_PAGE;
        let page_table: Vec<u32> = (0..pages as u32).collect();

        let mut emu = Emu {
            module: &self.module,
            program: self.program.clone(),
            instance: &mut instance,
            ctx: &mut ctx,
            page_table,
            steps: 0,
            stack: Vec::new(),
        };
        let exit = match emu.call_function(entry)? {
            Flow::Exit(code) => code,
            _ => emu.stack.pop().map(|v| v as i32).unwrap_or(0),
        };
        let steps = emu.steps;
        let console = self.kernel.lock_ok().take_console();
        Ok(EmuOutcome {
            exit,
            steps,
            console,
        })
    }
}

struct Emu<'a> {
    module: &'a Module,
    program: Arc<Program<WaliContext>>,
    instance: &'a mut Instance<WaliContext>,
    ctx: &'a mut WaliContext,
    page_table: Vec<u32>,
    steps: u64,
    stack: Vec<u64>,
}

impl<'a> Emu<'a> {
    fn call_function(&mut self, func: u32) -> Result<Flow, String> {
        match &self.program.funcs[func as usize] {
            FuncDef::Host { .. } => self.call_host(func),
            FuncDef::Local(_) => {
                let imports = self.module.num_imported_funcs();
                let body: &FuncBody = &self.module.code[(func - imports) as usize];
                let ty = self.module.func_type(func).expect("validated").clone();
                let mut locals = vec![0u64; ty.params.len() + body.local_count() as usize];
                for i in (0..ty.params.len()).rev() {
                    locals[i] = self.stack.pop().ok_or("stack underflow")?;
                }
                // The body is a flat region; clone it out so `self` stays
                // borrowable (a real emulator re-reads guest code anyway).
                let instrs = body.instrs.clone();
                match self.exec(&instrs, &mut locals)? {
                    Flow::Exit(c) => Ok(Flow::Exit(c)),
                    _ => Ok(Flow::Normal),
                }
            }
        }
    }

    fn call_host(&mut self, func: u32) -> Result<Flow, String> {
        let FuncDef::Host { f, ty, .. } = &self.program.funcs[func as usize] else {
            unreachable!("checked by caller");
        };
        let f = f.clone();
        let sig = &self.program.types[*ty as usize];
        let args = self.stack.split_off(self.stack.len() - sig.params.len());
        loop {
            let mut caller = Caller {
                instance: self.instance,
                data: self.ctx,
                sig: Some(sig),
            };
            match f(&mut caller, &args) {
                Ok(ret) => {
                    if !sig.results.is_empty() {
                        self.stack.push(ret);
                    }
                    return Ok(Flow::Normal);
                }
                Err(HostOutcome::Trap(t)) => return Err(format!("trap: {t}")),
                Err(HostOutcome::Block(blocked)) => {
                    // Single-task guest: advance virtual time and retry
                    // the call.
                    let mut k = self.ctx.kernel.lock_ok();
                    match blocked.deadline {
                        Some(d) => k.clock.advance_to(d),
                        None => k.clock.advance(1_000_000),
                    }
                    k.fire_timers();
                    drop(k);
                    self.ctx.retry_deadline = blocked.deadline;
                }
                Err(HostOutcome::Suspend) => match self.ctx.take_suspend() {
                    Some(WaliSuspend::Exit { code }) => return Ok(Flow::Exit(code)),
                    Some(_) => return Err("multi-process guest not emulatable".into()),
                    None => return Err("unknown suspension".into()),
                },
            }
        }
    }

    /// Translates a guest address through the soft-MMU.
    #[inline]
    fn mmu(&self, addr: u64) -> Result<u64, String> {
        let page = (addr as usize) / SOFT_PAGE;
        let frame = *self.page_table.get(page).ok_or("guest page fault")?;
        Ok((frame as u64) * SOFT_PAGE as u64 + (addr % SOFT_PAGE as u64))
    }

    fn pop(&mut self) -> Result<u64, String> {
        self.stack
            .pop()
            .ok_or_else(|| "stack underflow".to_string())
    }

    /// Scans forward from `start` (which is *inside* a block) to find the
    /// matching `End`, returning `(else_pos, end_pos)` — the naive branch
    /// resolution an emulator without a translation cache performs.
    fn scan_block(instrs: &[Instr], start: usize) -> (Option<usize>, usize) {
        let mut depth = 0usize;
        let mut else_pos = None;
        let mut i = start;
        while i < instrs.len() {
            match &instrs[i] {
                Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => depth += 1,
                Instr::Else if depth == 0 => else_pos = Some(i),
                Instr::End => {
                    if depth == 0 {
                        return (else_pos, i);
                    }
                    depth -= 1;
                }
                _ => {}
            }
            i += 1;
        }
        (else_pos, instrs.len())
    }

    /// Executes a flat instruction region (one function body or block
    /// interior).
    fn exec(&mut self, instrs: &[Instr], locals: &mut Vec<u64>) -> Result<Flow, String> {
        let mut pc = 0usize;
        while pc < instrs.len() {
            self.steps += 1;
            match &instrs[pc] {
                Instr::Nop | Instr::End => {}
                Instr::Unreachable => return Err("unreachable".into()),
                Instr::Block(_) => {
                    let (_, end) = Self::scan_block(instrs, pc + 1);
                    match self.exec(&instrs[pc + 1..end], locals)? {
                        Flow::Normal => {}
                        Flow::Branch(0) => {}
                        Flow::Branch(d) => return Ok(Flow::Branch(d - 1)),
                        other => return Ok(other),
                    }
                    pc = end;
                }
                Instr::Loop(_) => {
                    // No translation cache: the block boundary is
                    // re-resolved on *every* back-edge, like an emulator
                    // re-decoding the jump target each iteration.
                    let end = loop {
                        let (_, end) = Self::scan_block(instrs, pc + 1);
                        self.steps += (end - pc) as u64; // decode cost
                        match self.exec(&instrs[pc + 1..end], locals)? {
                            Flow::Normal => break end,
                            Flow::Branch(0) => continue, // back-edge
                            Flow::Branch(d) => return Ok(Flow::Branch(d - 1)),
                            other => return Ok(other),
                        }
                    };
                    pc = end;
                }
                Instr::If(_) => {
                    let (else_pos, end) = Self::scan_block(instrs, pc + 1);
                    let cond = self.pop()? as u32;
                    let (from, to) = if cond != 0 {
                        (pc + 1, else_pos.unwrap_or(end))
                    } else {
                        match else_pos {
                            Some(e) => (e + 1, end),
                            None => (end, end),
                        }
                    };
                    if from < to {
                        match self.exec(&instrs[from..to], locals)? {
                            Flow::Normal => {}
                            Flow::Branch(0) => {}
                            Flow::Branch(d) => return Ok(Flow::Branch(d - 1)),
                            other => return Ok(other),
                        }
                    }
                    pc = end;
                }
                Instr::Else => unreachable!("consumed by If"),
                Instr::Br(d) => return Ok(Flow::Branch(*d)),
                Instr::BrIf(d) => {
                    if self.pop()? as u32 != 0 {
                        return Ok(Flow::Branch(*d));
                    }
                }
                Instr::BrTable(targets, default) => {
                    let i = self.pop()? as u32 as usize;
                    let d = targets.get(i).copied().unwrap_or(*default);
                    return Ok(Flow::Branch(d));
                }
                Instr::Return => return Ok(Flow::Return),
                Instr::Call(f) => {
                    if let Flow::Exit(c) = self.call_function(*f)? {
                        return Ok(Flow::Exit(c));
                    }
                }
                Instr::CallIndirect(_) => {
                    let idx = self.pop()? as usize;
                    let f = self
                        .instance
                        .table
                        .get(idx)
                        .copied()
                        .flatten()
                        .ok_or("bad table entry")?;
                    if let Flow::Exit(c) = self.call_function(f)? {
                        return Ok(Flow::Exit(c));
                    }
                }
                Instr::Drop => {
                    self.pop()?;
                }
                Instr::Select => {
                    let c = self.pop()? as u32;
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.stack.push(if c != 0 { a } else { b });
                }
                Instr::LocalGet(i) => self.stack.push(locals[*i as usize]),
                Instr::LocalSet(i) => {
                    let v = self.pop()?;
                    locals[*i as usize] = v;
                }
                Instr::LocalTee(i) => {
                    let v = *self.stack.last().ok_or("underflow")?;
                    locals[*i as usize] = v;
                }
                Instr::GlobalGet(i) => self.stack.push(self.instance.globals[*i as usize]),
                Instr::GlobalSet(i) => {
                    let v = self.pop()?;
                    self.instance.globals[*i as usize] = v;
                }
                Instr::Load(kind, a) => {
                    let addr = self.pop()? as u32 as u64 + a.offset as u64;
                    let host = self.mmu(addr)?;
                    let mem = &self.instance.memory;
                    let v = match kind {
                        LoadKind::I32 | LoadKind::F32 => {
                            u32::from_le_bytes(mem.load::<4>(host).map_err(|e| e.to_string())?)
                                as u64
                        }
                        LoadKind::I64 | LoadKind::F64 => {
                            u64::from_le_bytes(mem.load::<8>(host).map_err(|e| e.to_string())?)
                        }
                        LoadKind::I32_8U | LoadKind::I64_8U => {
                            mem.load::<1>(host).map_err(|e| e.to_string())?[0] as u64
                        }
                        LoadKind::I32_8S => {
                            mem.load::<1>(host).map_err(|e| e.to_string())?[0] as i8 as i32 as u32
                                as u64
                        }
                        other => return Err(format!("emu: load {other:?} unsupported")),
                    };
                    self.stack.push(v);
                }
                Instr::Store(kind, a) => {
                    let v = self.pop()?;
                    let addr = self.pop()? as u32 as u64 + a.offset as u64;
                    let host = self.mmu(addr)?;
                    let mem = &self.instance.memory;
                    match kind {
                        StoreKind::I32 | StoreKind::F32 => mem
                            .store::<4>(host, (v as u32).to_le_bytes())
                            .map_err(|e| e.to_string())?,
                        StoreKind::I64 | StoreKind::F64 => mem
                            .store::<8>(host, v.to_le_bytes())
                            .map_err(|e| e.to_string())?,
                        StoreKind::I32_8 | StoreKind::I64_8 => {
                            mem.store::<1>(host, [v as u8]).map_err(|e| e.to_string())?
                        }
                        other => return Err(format!("emu: store {other:?} unsupported")),
                    }
                }
                Instr::I32Const(v) => self.stack.push(*v as u32 as u64),
                Instr::I64Const(v) => self.stack.push(*v as u64),
                Instr::F32Const(bits) => self.stack.push(*bits as u64),
                Instr::F64Const(bits) => self.stack.push(*bits),
                Instr::Un(op) => {
                    let a = self.pop()?;
                    let v = match op {
                        UnOp::I32Eqz => (a as u32 == 0) as u64,
                        UnOp::I64Eqz => (a == 0) as u64,
                        UnOp::I32Clz => (a as u32).leading_zeros() as u64,
                        UnOp::I32Popcnt => (a as u32).count_ones() as u64,
                        other => return Err(format!("emu: unop {other:?} unsupported")),
                    };
                    self.stack.push(v);
                }
                Instr::Bin(op) => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    let v = match op {
                        BinOp::I32Add => (a as u32).wrapping_add(b as u32) as u64,
                        BinOp::I32Sub => (a as u32).wrapping_sub(b as u32) as u64,
                        BinOp::I32Mul => (a as u32).wrapping_mul(b as u32) as u64,
                        BinOp::I32And => (a as u32 & b as u32) as u64,
                        BinOp::I32Or => (a as u32 | b as u32) as u64,
                        BinOp::I32Xor => (a as u32 ^ b as u32) as u64,
                        BinOp::I32Shl => (a as u32).wrapping_shl(b as u32) as u64,
                        BinOp::I32ShrU => (a as u32).wrapping_shr(b as u32) as u64,
                        BinOp::I64Add => a.wrapping_add(b),
                        BinOp::I64Sub => a.wrapping_sub(b),
                        BinOp::I64Mul => a.wrapping_mul(b),
                        BinOp::I64And => a & b,
                        BinOp::I64Or => a | b,
                        BinOp::I64Xor => a ^ b,
                        other => return Err(format!("emu: binop {other:?} unsupported")),
                    };
                    self.stack.push(v);
                }
                Instr::Rel(op) => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    let v = match op {
                        RelOp::I32Eq => (a as u32 == b as u32) as u64,
                        RelOp::I32Ne => (a as u32 != b as u32) as u64,
                        RelOp::I32LtS => ((a as u32 as i32) < (b as u32 as i32)) as u64,
                        RelOp::I32LtU => ((a as u32) < (b as u32)) as u64,
                        RelOp::I32GtS => ((a as u32 as i32) > (b as u32 as i32)) as u64,
                        RelOp::I32GeS => ((a as u32 as i32) >= (b as u32 as i32)) as u64,
                        RelOp::I32LeS => ((a as u32 as i32) <= (b as u32 as i32)) as u64,
                        RelOp::I64Eq => (a == b) as u64,
                        RelOp::I64Ne => (a != b) as u64,
                        RelOp::I64LtS => ((a as i64) < (b as i64)) as u64,
                        RelOp::I64GeS => ((a as i64) >= (b as i64)) as u64,
                        other => return Err(format!("emu: relop {other:?} unsupported")),
                    };
                    self.stack.push(v);
                }
                Instr::Cvt(op) => {
                    let a = self.pop()?;
                    let v = match op {
                        CvtOp::I32WrapI64 => a as u32 as u64,
                        CvtOp::I64ExtendI32U => a as u32 as u64,
                        CvtOp::I64ExtendI32S => a as u32 as i32 as i64 as u64,
                        other => return Err(format!("emu: cvt {other:?} unsupported")),
                    };
                    self.stack.push(v);
                }
                other => return Err(format!("emu: {other:?} unsupported")),
            }
            pc += 1;
        }
        Ok(Flow::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::lua_sim;

    #[test]
    fn emulator_matches_wali_runner_result() {
        let app = lua_sim(2);
        // WALI fast tier.
        let bytes = wasm::encode::encode(&app.module);
        let module = wasm::decode::decode(&bytes).unwrap();
        let fast = wali::WaliRunner::run_to_exit(&module, &[], &[]).unwrap();
        // Emulated tier.
        let mut emu = EmuRunner::new(&module).unwrap();
        let out = emu.run(&[]).unwrap();
        assert_eq!(
            Some(out.exit),
            fast.exit_code(),
            "same program, same result"
        );
        assert!(String::from_utf8_lossy(&out.console).contains("lua: done"));
        assert!(out.steps > 100);
    }

    #[test]
    fn emulator_is_substantially_slower_per_op() {
        let app = lua_sim(20);
        let bytes = wasm::encode::encode(&app.module);
        let module = wasm::decode::decode(&bytes).unwrap();

        let t0 = std::time::Instant::now();
        let fast = wali::WaliRunner::run_to_exit(&module, &[], &[]).unwrap();
        let fast_t = t0.elapsed();

        let mut emu = EmuRunner::new(&module).unwrap();
        let t1 = std::time::Instant::now();
        let out = emu.run(&[]).unwrap();
        let emu_t = t1.elapsed();

        assert_eq!(fast.exit_code(), Some(0));
        // The per-guest-instruction work ratio is deterministic: the naive
        // tier re-scans block boundaries on every back-edge, so it charges
        // strictly more steps for the same program.
        assert!(
            out.steps > fast.trace.wasm_steps * 2,
            "decode overhead: emu {} steps vs fast {}",
            out.steps,
            fast.trace.wasm_steps
        );
        // Wall-clock separation only holds in optimized builds (in debug
        // the prepared tier is itself unoptimized).
        if !cfg!(debug_assertions) {
            assert!(
                emu_t > fast_t * 2,
                "emulator should be slow: fast={fast_t:?} emu={emu_t:?}"
            );
        }
    }
}
