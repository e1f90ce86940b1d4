//! Per-layer probes of the `--trace` pass: direct calls into public
//! functions timed from outside, and differential guests run through the
//! runner. Nothing here reads a counter of the program under test.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use virt::{Container, EmuRunner, Image};
use vkernel::Kernel;
use wali::{WaliContext, WaliRunner};
use wali_abi::flags::{AF_UNIX, AT_FDCWD, EPOLLIN, EPOLL_CTL_ADD, O_CREAT, O_RDWR, SOCK_STREAM};
use wasi_layer::{add_wasi_layer, init_wasi, WasiState};
use wasm::{Instance, Program, SafepointScheme};

use crate::guests::{
    probe_guest, wasi_probe_guest, Probe, WasiProbe, IO_BYTES, NOP_MODULE, NOP_NAME, RING_BATCH,
};
use crate::spans::{Spans, SAMPLE};
use crate::stats::{median, us_since};
use crate::workloads::{start, Expect, Guest, Workload, STARTUP_SPANS};
use crate::Report;

/// Rounds of a differential guest's loop (`N` of the README).
const PROBE_ITERS: u32 = 20_000;
/// `fork` + `wait4` is ~50× a plain crossing; fewer rounds, same run time.
const FORK_ITERS: u32 = 1_000;
/// Calls per timed loop of a direct kernel probe.
const DIRECT_ITERS: u32 = 20_000;
/// Repetitions each probe takes its median over.
const REPS: usize = 5;
/// Repetitions of the µs-scale direct calls (`validate`, `link`, …).
const DIRECT_REPS: usize = 30;

/// Sizes of the Fig. 8 baselines.
const FIG8_LUA_ROUNDS: u32 = 500;
const NATIVE_BASH_ITERS: u32 = 4096;
const NATIVE_SQLITE_ROWS: u32 = 512;

/// Registered connections / ready connections of the epoll probe. A
/// process may hold 1024 descriptors and the kernel's public API has no
/// rlimit setter, so 500 socketpairs is what one task can register.
const EPOLL_CONNS: usize = 500;
const EPOLL_READY: usize = 64;
const EPOLL_STRIDE: usize = EPOLL_CONNS / EPOLL_READY;

const PROBE_PATH: &str = "/usr/bin/probe";

fn err<E: std::fmt::Debug>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e:?}")
}

pub fn run_all(w: &Workload, report: &mut Report) -> Result<(), String> {
    wasm_direct(w, report)?;
    register_again(w, report)?;
    wali_differential(report)?;
    wasi_differential(report)?;
    vkernel_direct(report)?;
    fig8(report)
}

/// `validate`, `Program::link` and `Instance::new` on the workload's own
/// guests, per module (a pass over all guests ÷ their number).
fn wasm_direct(w: &Workload, report: &mut Report) -> Result<(), String> {
    let modules = w
        .guests
        .iter()
        .map(|g| wasm::decode::decode(&g.bytes))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("decode"))?;
    let linker = wali::build_linker();
    let n = modules.len() as f64;
    let (mut validate, mut link, mut instantiate) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..DIRECT_REPS {
        let t0 = Instant::now();
        for m in &modules {
            wasm::validate::validate(m).map_err(err("validate"))?;
        }
        validate.push(us_since(t0) / n);

        let t0 = Instant::now();
        let programs = modules
            .iter()
            .map(|m| Program::<WaliContext>::link(m, &linker, SafepointScheme::LoopHeaders))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err("link"))?;
        link.push(us_since(t0) / n);

        let programs: Vec<_> = programs.into_iter().map(Arc::new).collect();
        let t0 = Instant::now();
        for p in &programs {
            black_box(Instance::new(p.clone()).map_err(err("instantiate"))?);
        }
        instantiate.push(us_since(t0) / n);
    }
    report.set("wasm.validate_us", median(validate));
    report.set("wasm.link_us", median(link));
    report.set("wasm.instantiate_us", median(instantiate));
    let bytes: usize = w.guests.iter().map(|g| g.bytes.len()).sum();
    report.set("wasm.module_bytes", bytes as f64 / n);
    Ok(())
}

/// `register_program` of bytes the runner has already registered once
/// (the path `fork`/`execve`/prefork re-instantiation would hit).
fn register_again(w: &Workload, report: &mut Report) -> Result<(), String> {
    let mut again = Vec::new();
    for _ in 0..DIRECT_REPS {
        let mut pass = 0.0;
        for g in &w.guests {
            let module = wasm::decode::decode(&g.bytes).map_err(err("decode"))?;
            let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
            runner
                .register_program("/usr/bin/first", &module)
                .map_err(err("register"))?;
            let t0 = Instant::now();
            runner
                .register_program("/usr/bin/second", &module)
                .map_err(err("register again"))?;
            pass += us_since(t0);
        }
        again.push(pass / w.guests.len() as f64);
    }
    report.set("wali.register_again_us", median(again));
    Ok(())
}

/// Wall ns of `run()` for one probe guest (exit code 0 required).
fn time_run(bytes: &[u8], wasi: bool) -> Result<f64, String> {
    let module = wasm::decode::decode(bytes).map_err(err("decode"))?;
    let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
    runner.set_workers(1);
    runner
        .linker_mut()
        .func(NOP_MODULE, NOP_NAME, |_, _| Ok(Vec::new()));
    if wasi {
        add_wasi_layer(runner.linker_mut());
    }
    runner
        .register_program(PROBE_PATH, &module)
        .map_err(err("register"))?;
    let tid = runner.spawn(PROBE_PATH, &[], &[]).map_err(err("spawn"))?;
    if wasi {
        runner.configure_ctx(tid, |ctx| {
            init_wasi(ctx, WasiState::with_preopens(&["/tmp"]))
        });
    }
    let t0 = Instant::now();
    let out = runner.run().map_err(err("run"))?;
    let ns = t0.elapsed().as_nanos() as f64;
    match out.exit_code() {
        Some(0) => Ok(ns),
        other => Err(format!("probe guest exited {other:?}")),
    }
}

/// Median over [`REPS`] back-to-back pairs of `(probe − base) ÷ calls`.
fn differential(probe: &[u8], base: &[u8], wasi: bool, calls: u32) -> Result<f64, String> {
    let mut per_call = Vec::new();
    for _ in 0..REPS {
        let with = time_run(probe, wasi)?;
        let without = time_run(base, wasi)?;
        per_call.push((with - without) / calls as f64);
    }
    Ok(median(per_call))
}

fn wali_differential(report: &mut Report) -> Result<(), String> {
    let encoded = |p, iters| wasm::encode::encode(&probe_guest(p, iters));
    let diff = |probe: Probe, iters: u32, calls: u32| {
        differential(
            &encoded(probe, iters),
            &encoded(probe.base(), iters),
            false,
            calls,
        )
    };
    for (metric, probe) in [
        ("wasm.hostcall_ns", Probe::HostNop),
        ("wali.sys.getpid_ns", Probe::Getpid),
        ("wali.sys.clock_gettime_ns", Probe::ClockGettime),
        ("wali.sys.read_ns", Probe::Read),
        ("wali.sys.write_ns", Probe::Write),
        ("wali.sys.writev_ns", Probe::Writev),
        ("wali.sys.lseek_ns", Probe::Lseek),
        ("wali.sys.fstat_ns", Probe::Fstat),
        ("wali.sys.rt_sigprocmask_ns", Probe::RtSigprocmask),
        ("wali.sys.mmap_munmap_ns", Probe::MmapMunmap),
        ("wali.sys.pread_ns", Probe::Pread),
        ("wali.sys.pipe_rw_ns", Probe::PipeRw),
    ] {
        report.set(metric, diff(probe, PROBE_ITERS, PROBE_ITERS)?);
    }
    report.set(
        "wali.sys.fork_wait_us",
        diff(Probe::ForkWait, FORK_ITERS, FORK_ITERS)? / 1e3,
    );
    // The same number of preads, 32 to a crossing.
    let ring_iters = PROBE_ITERS / RING_BATCH;
    report.set(
        "wali.sys.ring_pread_b32_ns",
        diff(Probe::RingPread, ring_iters, ring_iters * RING_BATCH)?,
    );

    // The empty loop itself: two lengths, so the fixed cost of a run
    // (start, prologue, exit) cancels.
    let long = encoded(Probe::Empty, 2 * PROBE_ITERS);
    let short = encoded(Probe::Empty, PROBE_ITERS);
    report.set(
        "wasm.loop_ns_per_iter",
        differential(&long, &short, false, PROBE_ITERS)?,
    );
    Ok(())
}

fn wasi_differential(report: &mut Report) -> Result<(), String> {
    let encoded = |p| wasm::encode::encode(&wasi_probe_guest(p, PROBE_ITERS));
    for (metric, probe) in [
        ("wasi.fd_write_ns", WasiProbe::FdWrite),
        ("wasi.fd_read_ns", WasiProbe::FdRead),
        ("wasi.path_open_close_ns", WasiProbe::PathOpenClose),
    ] {
        let ns = differential(&encoded(probe), &encoded(probe.base()), true, PROBE_ITERS)?;
        report.set(metric, ns);
    }
    let overhead = report.get("wasi.fd_write_ns") - report.get("wali.sys.writev_ns");
    report.set("wasi.overhead_ns", overhead);
    Ok(())
}

/// Median ns per call of `f` over [`REPS`] loops of [`DIRECT_ITERS`].
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..DIRECT_ITERS {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / DIRECT_ITERS as f64);
    }
    median(per_call)
}

/// The kernel model called directly — the "native" column of Table 2.
/// Same operations as the WALI probes: file I/O rewinds first and the
/// `lseek` loop is subtracted.
fn vkernel_direct(report: &mut Report) -> Result<(), String> {
    let mut k = Kernel::new();
    let tid = k.spawn_process();
    let payload = [b'x'; IO_BYTES];
    let mut buf = [0u8; IO_BYTES];
    let fd = k
        .sys_openat(tid, AT_FDCWD, "/tmp/probe.dat", O_CREAT | O_RDWR, 0o644)
        .map_err(err("open"))?;
    k.sys_write(tid, fd, &payload).map_err(err("write"))?;

    report.set(
        "vkernel.sys.getpid_ns",
        per_call_ns(|| {
            black_box(k.sys_getpid(tid).is_ok());
        }),
    );
    let lseek = per_call_ns(|| {
        black_box(k.sys_lseek(tid, fd, 0, 0).is_ok());
    });
    let read = per_call_ns(|| {
        black_box(k.sys_lseek(tid, fd, 0, 0).is_ok());
        black_box(k.sys_read(tid, fd, &mut buf).is_ok());
    });
    report.set("vkernel.sys.read_ns", read - lseek);
    let write = per_call_ns(|| {
        black_box(k.sys_lseek(tid, fd, 0, 0).is_ok());
        black_box(k.sys_write(tid, fd, &payload).is_ok());
    });
    report.set("vkernel.sys.write_ns", write - lseek);
    report.set(
        "vkernel.sys.fstat_ns",
        per_call_ns(|| {
            black_box(k.sys_fstat(tid, fd).is_ok());
        }),
    );
    if buf != payload {
        return Err("direct read returned the wrong bytes".into());
    }

    let (r, wr) = k.sys_pipe2(tid, 0).map_err(err("pipe2"))?;
    report.set(
        "vkernel.sys.pipe_rw_ns",
        per_call_ns(|| {
            black_box(k.sys_write(tid, wr, &payload).is_ok());
            black_box(k.sys_read(tid, r, &mut buf).is_ok());
        }),
    );
    let (a, b) = k
        .sys_socketpair(tid, AF_UNIX, SOCK_STREAM)
        .map_err(err("socketpair"))?;
    report.set(
        "vkernel.sys.socketpair_rw_ns",
        per_call_ns(|| {
            black_box(k.sys_write(tid, a, &payload).is_ok());
            black_box(k.sys_read(tid, b, &mut buf).is_ok());
        }),
    );

    // Level-triggered: the same 64 of 500 connections stay readable, so
    // every call reports the full batch.
    let ep = k.sys_epoll_create1(tid, 0).map_err(err("epoll_create1"))?;
    for conn in 0..EPOLL_CONNS {
        let (server, client) = k
            .sys_socketpair(tid, AF_UNIX, SOCK_STREAM)
            .map_err(err("socketpair"))?;
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, server, EPOLLIN, conn as u64)
            .map_err(err("epoll_ctl"))?;
        if conn % EPOLL_STRIDE == 0 && conn < EPOLL_STRIDE * EPOLL_READY {
            k.sys_write(tid, client, b"x").map_err(err("write"))?;
        }
    }
    let ready = k
        .sys_epoll_wait_ready(tid, ep, EPOLL_READY)
        .map_err(err("epoll_wait"))?;
    if ready.len() != EPOLL_READY {
        return Err(format!(
            "epoll reported {} ready, expected {EPOLL_READY}",
            ready.len()
        ));
    }
    report.set(
        "vkernel.sys.epoll_wait_64of500_ns",
        per_call_ns(|| {
            black_box(k.sys_epoll_wait_ready(tid, ep, EPOLL_READY).is_ok());
        }),
    );
    Ok(())
}

/// The Fig. 8 tiers on the lua workload, whole-app (start-up included):
/// native twin, WALI, emulator, and the container's start-up.
fn fig8(report: &mut Report) -> Result<(), String> {
    let native = |f: &dyn Fn(&mut Kernel, vkernel::Tid)| {
        median(
            (0..REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    let mut k = Kernel::new();
                    let tid = k.spawn_process();
                    f(&mut k, tid);
                    us_since(t0)
                })
                .collect(),
        )
    };
    let native_lua = native(&|k, tid| {
        black_box(apps::native::lua_native(k, tid, FIG8_LUA_ROUNDS));
    });
    report.set("vkernel.native.lua_us", native_lua);
    report.set(
        "vkernel.native.bash_us",
        native(&|k, tid| {
            black_box(apps::native::bash_native(k, tid, NATIVE_BASH_ITERS));
        }),
    );
    report.set(
        "vkernel.native.sqlite_us",
        native(&|k, tid| {
            black_box(apps::native::sqlite_native(k, tid, NATIVE_SQLITE_ROWS));
        }),
    );

    let lua = Guest {
        name: "lua",
        bytes: wasm::encode::encode(&apps::lua_sim(FIG8_LUA_ROUNDS).module),
        input: None,
        expect: Expect {
            exit: 0,
            console: "lua: done\n".into(),
            tasks: 1,
        },
    };
    let mut rec = Spans::new();
    for sample in 0..REPS {
        let mut scope = Some(rec.begin_sample(sample as u32));
        let result = start(&lua, &mut scope);
        scope.expect("tracing").end();
        result?;
    }
    let wali_lua = median(rec.durations_us(SAMPLE));
    let wali_start = rec.median_sum_us(&STARTUP_SPANS);

    let mut emulator = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let module = wasm::decode::decode(&lua.bytes).map_err(err("decode"))?;
        let out = EmuRunner::new(&module)?.run(&[])?;
        emulator.push(us_since(t0));
        if out.exit != 0 {
            return Err(format!("emulated lua exited {}", out.exit));
        }
    }
    let emulator_lua = median(emulator);
    report.set("virt.emulator.lua_us", emulator_lua);

    let image = Image::typical();
    let container_start = median(
        (0..DIRECT_REPS)
            .map(|_| {
                let mut k = Kernel::new();
                let t0 = Instant::now();
                black_box(Container::start(&mut k, &image, "bench").tid);
                us_since(t0)
            })
            .collect(),
    );
    report.set("virt.container.start_us", container_start);

    report.ratio(
        "fig8.wali_over_native",
        "wali lua",
        wali_lua,
        "native lua",
        native_lua,
    );
    report.ratio(
        "fig8.emulator_over_wali",
        "emulated lua",
        emulator_lua,
        "wali lua",
        wali_lua,
    );
    report.ratio(
        "fig8.container_start_over_wali_start",
        "container start",
        container_start,
        "wali start",
        wali_start,
    );
    Ok(())
}
