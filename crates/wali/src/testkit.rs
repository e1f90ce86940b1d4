//! Shared test support: the builders and run wrappers the integration
//! tests (`sched_stress`, `smp_stress`, `wali_e2e`) and the scenario
//! fuzzer's oracles all use.
//!
//! Everything here was once copied between test files; it lives in the
//! library (not a `tests/` common module) because `crates/fuzzer` links
//! against it too — the fuzzer's oracles must run scenarios exactly the
//! way the tests do, or a fuzzer-found failure would not reproduce as a
//! regression test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vkernel::LeakReport;
use wasm::build::{FuncBuilder, FuncId};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

use crate::runner::{RunOutcome, RunnerError, WaliRunner};

thread_local! {
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting what each thread asks of it: the
/// tests and benches that price a run in allocations install it as
/// their binary's `#[global_allocator]` and read [`allocated`] around
/// the run. Per thread, so a `cargo test` sibling allocating on its own
/// thread is not charged to the one measuring.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        ALLOCATED.with(|c| c.set((c.get().0 + 1, c.get().1 + bytes as u64)));
    }
}

// SAFETY: defers to `System` for every operation; the only addition is a
// bump of a const-initialised, destructor-free thread-local, which itself
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocations, bytes)` this thread has requested so far (a `realloc`
/// is one allocation of its new size) — zeros unless the binary's
/// global allocator is [`CountingAlloc`].
pub fn allocated() -> (u64, u64) {
    ALLOCATED.with(Cell::get)
}

/// Encodes `module` to real binary bytes and decodes it back, so tests
/// exercise the full pipeline (builder → encoder → decoder → validator)
/// rather than handing the in-memory module straight to the linker.
pub fn roundtrip(module: &Module) -> Module {
    let bytes = wasm::encode::encode(module);
    wasm::decode::decode(&bytes).expect("encode/decode round trip")
}

/// Scheduler/engine configuration for one run. `None` fields follow
/// the process defaults (environment toggles); `Some` overrides them —
/// which is how the fuzzer drives the toggle matrix without mutating
/// the environment of its own process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunnerOpts {
    /// Worker-pool width (`WALI_WORKERS`).
    pub workers: Option<usize>,
    /// Tier-2 register IR (`WALI_NO_REGIR` off-switch).
    pub regir: Option<bool>,
    /// Batched syscall rings (`WALI_NO_RING` off-switch): off makes
    /// `wali_ring_enter` return `-ENOSYS` so guests take their
    /// synchronous per-op fallback.
    pub ring: Option<bool>,
}

impl RunnerOpts {
    /// The deterministic baseline: one worker, everything else default.
    pub fn single() -> RunnerOpts {
        RunnerOpts {
            workers: Some(1),
            ..RunnerOpts::default()
        }
    }

    /// Applies the overrides to a runner.
    pub fn apply(self, runner: &mut WaliRunner) {
        if let Some(n) = self.workers {
            runner.set_workers(n);
        }
        if let Some(on) = self.regir {
            runner.set_regir(on);
        }
        if let Some(on) = self.ring {
            runner.set_ring(on);
        }
    }
}

/// A finished run plus its teardown audit.
#[derive(Debug)]
pub struct RunReport {
    /// Everything the run reported.
    pub outcome: RunOutcome,
    /// What the kernel still held at teardown (see
    /// [`vkernel::LeakReport`]).
    pub leaks: LeakReport,
}

/// Round-trips `module`, runs it under `opts` and audits teardown — the
/// one way every test and fuzzer oracle executes a program.
pub fn run_module(
    module: &Module,
    args: &[&str],
    env: &[&str],
    opts: RunnerOpts,
) -> Result<RunReport, RunnerError> {
    run_modules(&[("/usr/bin/app", module)], "/usr/bin/app", args, env, opts)
}

/// Multi-program variant of [`run_module`] for scenarios that `execve`:
/// registers every `(path, module)` pair, spawns `entry`.
pub fn run_modules(
    programs: &[(&str, &Module)],
    entry: &str,
    args: &[&str],
    env: &[&str],
    opts: RunnerOpts,
) -> Result<RunReport, RunnerError> {
    let mut runner = WaliRunner::new_default();
    opts.apply(&mut runner);
    for (path, module) in programs {
        runner.register_program(path, &roundtrip(module))?;
    }
    runner.spawn(entry, args, env)?;
    let outcome = runner.run()?;
    let leaks = runner.leak_audit();
    Ok(RunReport { outcome, leaks })
}

/// The 16-byte `sockaddr_in` image of 127.0.0.1:`port`.
pub fn sockaddr_in(port: u16) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    bytes[0..2].copy_from_slice(&2u16.to_le_bytes());
    bytes[2..4].copy_from_slice(&port.to_be_bytes());
    bytes[4..8].copy_from_slice(&[127, 0, 0, 1]);
    bytes
}

/// Emits a pthread-style thread spawn: `clone(CLONE_PTHREAD_FLAGS)`,
/// with `child` emitted in the tid==0 branch. The child body must end
/// the thread itself (call `exit`) — threads that fall off the end
/// return into the parent's code path.
pub fn spawn_thread(b: &mut FuncBuilder, clone: FuncId, child: impl FnOnce(&mut FuncBuilder)) {
    let t = b.local(I64);
    // 0x10900 = CLONE_VM | CLONE_FS | CLONE_SIGHAND | CLONE_THREAD.
    b.i64(0x10900)
        .i64(0)
        .i64(0)
        .i64(0)
        .i64(0)
        .call(clone)
        .local_set(t);
    b.local_get(t).i64(0).eq64();
    b.if_(BlockType::Empty, child);
}

/// Emits a `timespec` store at reserved offset `ts` (16 bytes) and
/// leaves nothing on the stack: `{sec, nsec}`.
pub fn store_timespec(b: &mut FuncBuilder, ts: u32, sec: i64, nsec: i64) {
    b.i32(ts as i32).i64(sec).store64(0);
    b.i32(ts as i32).i64(nsec).store64(8);
}

/// Emits `nanosleep({sec, nsec})` using reserved scratch `ts`.
pub fn emit_sleep(b: &mut FuncBuilder, nanosleep: FuncId, ts: u32, sec: i64, nsec: i64) {
    store_timespec(b, ts, sec, nsec);
    b.i64(ts as i64).i64(0).call(nanosleep).drop_();
}

/// Emits a fork-then-reap loop: `n` sequential `fork()`s whose children
/// run `child(b, i_local)` (and must exit), while the parent immediately
/// `wait4`s each one. `status` is an 8-byte reserved scratch slot.
pub fn fork_reap_loop(
    b: &mut FuncBuilder,
    fork: FuncId,
    wait4: FuncId,
    status: u32,
    n: u32,
    child: impl Fn(&mut FuncBuilder, u32),
) {
    let pid = b.local(I64);
    let i = b.local(I32);
    b.i32(0).local_set(i);
    b.loop_(BlockType::Empty, |b| {
        b.call(fork).local_set(pid);
        b.local_get(pid).i64(0).eq64();
        b.if_(BlockType::Empty, |b| child(b, i));
        b.local_get(pid)
            .i64(status as i64)
            .i64(0)
            .i64(0)
            .call(wait4)
            .drop_();
        b.local_get(i)
            .i32(1)
            .add32()
            .local_tee(i)
            .i32(n as i32)
            .lt_s32()
            .br_if(0);
    });
}
