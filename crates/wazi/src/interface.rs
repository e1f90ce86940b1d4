//! The WAZI host interface, generated from the syscall encoding.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use wasm::host::{Caller, HostCtx, Linker};
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::prep::Program;
use wasm::{Module, SafepointScheme};

use crate::zephyr::Zephyr;

/// SRAM budget in 64 KiB Wasm pages: 384 KiB (Nucleo-F767ZI) = 6 pages.
pub const SRAM_BUDGET_PAGES: u32 = 6;

/// The Zephyr syscall encoding: `(name, arg_count)`.
///
/// In the paper this table is extracted from the Zephyr compiler's
/// syscall encoding and the WAMR glue is auto-generated from it; here the
/// registration loop below plays the generator.
pub const ZEPHYR_SYSCALLS: &[(&str, usize)] = &[
    ("k_sleep", 1),
    ("k_yield", 0),
    ("k_uptime_get", 0),
    ("k_sem_init", 2),
    ("k_sem_give", 1),
    ("k_sem_take", 1),
    ("k_msgq_init", 2),
    ("k_msgq_put", 2),
    ("k_msgq_get", 2),
    ("k_timer_start", 1),
    ("k_timer_status", 1),
    ("gpio_pin_set", 3),
    ("gpio_pin_get", 2),
    ("console_out", 2),
    ("fs_write", 4),
    ("fs_read", 4),
];

/// Per-instance WAZI context.
pub struct WaziCtx {
    /// The RTOS model.
    pub zephyr: Rc<RefCell<Zephyr>>,
}

impl HostCtx for WaziCtx {
    fn sig_hint(&self) -> &std::sync::atomic::AtomicBool {
        &wasm::host::NO_SIGNALS
    }
}

type C<'a, 'b> = &'a mut Caller<'b, WaziCtx>;

fn arg(args: &[Value], i: usize) -> i64 {
    match args.get(i) {
        Some(Value::I64(v)) => *v,
        Some(Value::I32(v)) => *v as i64,
        _ => 0,
    }
}

fn dispatch(c: C, name: &str, a: &[Value]) -> i64 {
    let z = c.data.zephyr.clone();
    let mut z = z.borrow_mut();
    match name {
        "k_sleep" => {
            z.sleep_ms(arg(a, 0) as u64);
            0
        }
        "k_yield" => 0,
        "k_uptime_get" => z.uptime_ms() as i64,
        "k_sem_init" => z.sem_init(arg(a, 0) as u32, arg(a, 1) as u32) as i64,
        "k_sem_give" => z.sem_give(arg(a, 0) as usize),
        "k_sem_take" => z.sem_take(arg(a, 0) as usize),
        "k_msgq_init" => z.msgq_init(arg(a, 0) as u32, arg(a, 1) as u32) as i64,
        "k_msgq_put" => {
            // (queue, msg_ptr); message size from the queue definition.
            let id = arg(a, 0) as usize;
            let ptr = arg(a, 1) as u32;
            let Ok(size) = usize::try_from(z.msgqs_size(id).unwrap_or(0)) else {
                return crate::zephyr::Z_EINVAL;
            };
            match c.instance.memory.read(ptr as u64, size) {
                Ok(msg) => z.msgq_put(id, &msg),
                Err(_) => crate::zephyr::Z_EINVAL,
            }
        }
        "k_msgq_get" => {
            let id = arg(a, 0) as usize;
            let ptr = arg(a, 1) as u32;
            match z.msgq_get(id) {
                Ok(msg) => match c.instance.memory.write(ptr as u64, &msg) {
                    Ok(()) => 0,
                    Err(_) => crate::zephyr::Z_EINVAL,
                },
                Err(e) => e,
            }
        }
        "k_timer_start" => z.timer_start(arg(a, 0) as u64) as i64,
        "k_timer_status" => z.timer_status(arg(a, 0) as usize),
        "gpio_pin_set" => {
            z.gpio_set(arg(a, 0) as u32, arg(a, 1) as u32, arg(a, 2) != 0);
            0
        }
        "gpio_pin_get" => z.gpio_get(arg(a, 0) as u32, arg(a, 1) as u32) as i64,
        "console_out" => {
            let (ptr, len) = (arg(a, 0) as u32, arg(a, 1) as usize);
            match c.instance.memory.read(ptr as u64, len) {
                Ok(bytes) => {
                    z.printk(&bytes);
                    len as i64
                }
                Err(_) => crate::zephyr::Z_EINVAL,
            }
        }
        "fs_write" => {
            let (name_ptr, ptr, len, append) = (
                arg(a, 0) as u32,
                arg(a, 1) as u32,
                arg(a, 2) as usize,
                arg(a, 3) != 0,
            );
            let name = match c.instance.memory.read_cstr(name_ptr as u64) {
                Ok(n) => String::from_utf8_lossy(&n).into_owned(),
                Err(_) => return crate::zephyr::Z_EINVAL,
            };
            match c.instance.memory.read(ptr as u64, len) {
                Ok(bytes) => z.fs_write(&name, &bytes, append),
                Err(_) => crate::zephyr::Z_EINVAL,
            }
        }
        "fs_read" => {
            let (name_ptr, off, ptr, len) = (
                arg(a, 0) as u32,
                arg(a, 1) as usize,
                arg(a, 2) as u32,
                arg(a, 3) as usize,
            );
            let name = match c.instance.memory.read_cstr(name_ptr as u64) {
                Ok(n) => String::from_utf8_lossy(&n).into_owned(),
                Err(_) => return crate::zephyr::Z_EINVAL,
            };
            let mut buf = vec![0u8; len];
            let n = z.fs_read(&name, off, &mut buf);
            if n >= 0
                && c.instance
                    .memory
                    .write(ptr as u64, &buf[..n as usize])
                    .is_err()
            {
                return crate::zephyr::Z_EINVAL;
            }
            n
        }
        _ => crate::zephyr::Z_EINVAL,
    }
}

/// The WAZI linker, built **mechanically from the encoding table** (the
/// §5 auto-generation step) on first use; every call hands out a clone
/// of that one table. The closures capture only the call's name — the
/// board state lives in [`WaziCtx`] — so the table is shared safely.
pub fn build_wazi_linker() -> Linker<WaziCtx> {
    static TABLE: std::sync::OnceLock<Linker<WaziCtx>> = std::sync::OnceLock::new();
    TABLE.get_or_init(build_table).clone()
}

fn build_table() -> Linker<WaziCtx> {
    let mut l = Linker::new();
    for (name, _args) in ZEPHYR_SYSCALLS {
        let name: &'static str = name;
        l.func(
            "wazi",
            &format!("z_{name}"),
            move |c: C<'_, '_>, args: &[Value]| Ok(vec![Value::I64(dispatch(c, name, args))]),
        );
    }
    l
}

/// Runs WAZI modules under the SRAM budget.
pub struct WaziRunner {
    /// The device/kernel model.
    pub zephyr: Rc<RefCell<Zephyr>>,
    linker: Linker<WaziCtx>,
}

impl Default for WaziRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl WaziRunner {
    /// Boots the board model.
    pub fn new() -> WaziRunner {
        WaziRunner {
            zephyr: Rc::new(RefCell::new(Zephyr::new())),
            linker: build_wazi_linker(),
        }
    }

    /// Runs `main` of `module` to completion; rejects modules whose
    /// declared memory exceeds the 384 KiB SRAM budget.
    pub fn run(&mut self, module: &Module, args: &[Value]) -> Result<Vec<Value>, String> {
        if let Some(mem) = module.memories.first() {
            let max = mem.limits.max.unwrap_or(u32::MAX);
            if max > SRAM_BUDGET_PAGES {
                return Err(format!(
                    "module wants {max} pages, SRAM budget is {SRAM_BUDGET_PAGES}"
                ));
            }
        }
        let program = Program::link(module, &self.linker, SafepointScheme::LoopHeaders)
            .map_err(|e| e.to_string())?;
        let mut instance = Instance::new(Arc::new(program)).map_err(|t| t.to_string())?;
        let entry = instance
            .export_func("main")
            .or_else(|| instance.export_func("_start"))
            .ok_or("no entry")?;
        let mut ctx = WaziCtx {
            zephyr: self.zephyr.clone(),
        };
        let mut thread = Thread::new();
        match thread.call(&mut instance, &mut ctx, entry, args) {
            RunResult::Done(v) => Ok(v),
            RunResult::Trapped(t) => Err(format!("trap: {t}")),
            RunResult::Suspended | RunResult::Preempted | RunResult::Blocked(_) => {
                Err("unexpected suspension".into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::build::ModuleBuilder;
    use wasm::types::ValType::{I32, I64};

    fn zsys(mb: &mut ModuleBuilder, name: &str, n: usize) -> wasm::build::FuncId {
        let sig = mb.sig(vec![I64; n], [I64]);
        mb.import_func("wazi", &format!("z_{name}"), sig)
    }

    #[test]
    fn blink_and_log_deploys_under_budget() {
        // The §5.1 demo shape: a control loop that sleeps, toggles a GPIO,
        // logs to flash and prints — on a 384 KiB board.
        let mut mb = ModuleBuilder::new();
        let sleep = zsys(&mut mb, "k_sleep", 1);
        let gpio_set = zsys(&mut mb, "gpio_pin_set", 3);
        let console = zsys(&mut mb, "console_out", 2);
        let fs_write = zsys(&mut mb, "fs_write", 4);
        let uptime = zsys(&mut mb, "k_uptime_get", 0);
        mb.memory(2, Some(4)); // 256 KiB < budget
        let msg = mb.c_str("tick\n");
        let log = mb.c_str("boot.log");
        let sig = mb.sig([], [I64]);
        let main = mb.func(sig, |b| {
            let i = b.local(I32);
            b.loop_(wasm::instr::BlockType::Empty, |b| {
                b.i64(100).call(sleep).drop_();
                b.i64(0)
                    .i64(13)
                    .local_get(i)
                    .i32(1)
                    .and32()
                    .extend_u()
                    .call(gpio_set)
                    .drop_();
                b.i64(msg as i64).i64(5).call(console).drop_();
                b.i64(log as i64)
                    .i64(msg as i64)
                    .i64(5)
                    .i64(1)
                    .call(fs_write)
                    .drop_();
                b.local_get(i)
                    .i32(1)
                    .add32()
                    .local_tee(i)
                    .i32(10)
                    .lt_s32()
                    .br_if(0);
            });
            b.call(uptime);
        });
        mb.export("main", main);
        let module = mb.build();

        let mut runner = WaziRunner::new();
        let out = runner.run(&module, &[]).unwrap();
        assert_eq!(out, vec![Value::I64(1000)], "10 ticks x 100ms uptime");
        let z = runner.zephyr.borrow();
        assert_eq!(
            z.console,
            b"tick\ntick\ntick\ntick\ntick\ntick\ntick\ntick\ntick\ntick\n"
        );
        assert_eq!(z.flash_fs["boot.log"].len(), 50);
        assert!(z.gpio_get(0, 13), "last toggle (i=9) set the pin high");
    }

    #[test]
    fn sram_budget_is_enforced() {
        let mut mb = ModuleBuilder::new();
        mb.memory(2, Some(64)); // 4 MiB: too big for the board
        let sig = mb.sig([], [I64]);
        let main = mb.func(sig, |b| {
            b.i64(0);
        });
        mb.export("main", main);
        let err = WaziRunner::new().run(&mb.build(), &[]).unwrap_err();
        assert!(err.contains("SRAM budget"), "{err}");
    }

    #[test]
    fn interface_is_generated_from_the_encoding() {
        let l = build_wazi_linker();
        assert_eq!(l.len(), ZEPHYR_SYSCALLS.len());
        for (name, _) in ZEPHYR_SYSCALLS {
            assert!(l.resolve("wazi", &format!("z_{name}")).is_some());
        }
    }

    #[test]
    fn semaphores_work_from_wasm() {
        let mut mb = ModuleBuilder::new();
        let sem_init = zsys(&mut mb, "k_sem_init", 2);
        let sem_take = zsys(&mut mb, "k_sem_take", 1);
        let sem_give = zsys(&mut mb, "k_sem_give", 1);
        mb.memory(1, Some(2));
        let sig = mb.sig([], [I64]);
        let main = mb.func(sig, |b| {
            let s = b.local(I64);
            b.i64(1).i64(1).call(sem_init).local_set(s);
            b.local_get(s).call(sem_take).drop_(); // 0
            b.local_get(s).call(sem_take).drop_(); // -EAGAIN
            b.local_get(s).call(sem_give).drop_();
            b.local_get(s).call(sem_take); // 0 again
        });
        mb.export("main", main);
        let out = WaziRunner::new().run(&mb.build(), &[]).unwrap();
        assert_eq!(out, vec![Value::I64(0)]);
    }
}
