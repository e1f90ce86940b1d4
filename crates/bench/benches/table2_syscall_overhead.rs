//! Bench for Table 2: per-syscall WALI interface overhead.
//!
//! The syscalls are invoked as host calls through the registry wrappers,
//! so this exercises the trace/policy/kernel hot path (see `fig8_tiers`
//! for the interpreter side of the fast path).

use bench::harness;
use vkernel::MutexExt;
use wali::registry::build_linker;
use wali::WaliContext;
use wasm::interp::Instance;
use wasm::prep::Program;
use wasm::SafepointScheme;

fn main() {
    let mut mb = wasm::build::ModuleBuilder::new();
    mb.memory(4, Some(16));
    let buf = mb.reserve(4096) as i64;
    let sig = mb.sig([], [wasm::types::ValType::I32]);
    let f = mb.func(sig, |b| {
        b.i32(0);
    });
    mb.export("_start", f);
    let module = mb.build();
    let linker = build_linker();
    let program =
        std::sync::Arc::new(Program::link(&module, &linker, SafepointScheme::None).unwrap());
    let instance = Instance::new(program).unwrap();
    let kernel = wali::new_kernel_ref(vkernel::Kernel::new());
    let tid = kernel.lock_ok().spawn_process();
    let mut ctx = WaliContext::new(kernel, tid, 8192, wali::runner::ring_default());
    instance
        .memory
        .write(buf as u64, b"/tmp/bench.dat\0")
        .unwrap();

    let call = |ctx: &mut WaliContext, name: &str, args: &[i64]| {
        bench::call_sys(&linker, ctx, &instance, name, args);
    };
    call(&mut ctx, "open", &[buf, 0o102, 0o644]);
    let fd = 3i64;

    let mut g = harness::group("table2");
    g.bench_function("getpid", |b| b.iter(|| call(&mut ctx, "getpid", &[])));
    g.bench_function("read", |b| {
        b.iter(|| call(&mut ctx, "read", &[fd, buf, 64]))
    });
    g.bench_function("write_rewind", |b| {
        // Rewind each round so the file stays fixed-size: an append-only
        // file grows with iteration count, which would make the measured
        // cost depend on how fast the rest of the loop is.
        b.iter(|| {
            call(&mut ctx, "lseek", &[fd, 0, 0]);
            call(&mut ctx, "write", &[fd, buf, 64]);
        })
    });
    g.bench_function("fstat", |b| b.iter(|| call(&mut ctx, "fstat", &[fd, buf])));
    g.bench_function("lseek", |b| b.iter(|| call(&mut ctx, "lseek", &[fd, 0, 0])));
    g.bench_function("rt_sigprocmask", |b| {
        b.iter(|| call(&mut ctx, "rt_sigprocmask", &[0, 0, buf, 8]))
    });
    g.bench_function("mmap_munmap", |b| {
        b.iter(|| {
            call(&mut ctx, "mmap", &[0, 4096, 3, 0x22, -1, 0]);
            // Address is deterministic: pool reuses the gap each round.
            let addr = ctx.mmap.lock_ok().base() as i64;
            call(&mut ctx, "munmap", &[addr, 4096]);
        })
    });
    g.finish();
}
