//! The layering experiment (paper §4.1, artifact E2): a WASI module runs
//! on an engine whose only OS access is the WALI interface; the WASI
//! implementation and its capability model live entirely above it.

use wali::guest::Sysno;
use wali::runner::WaliRunner;
use wali::WaliContext;
use wasi_layer::{add_wasi_layer, init_wasi, WasiState};
use wasm::build::{FuncId, ModuleBuilder};
use wasm::types::ValType::I32;

fn wasi(mb: &mut ModuleBuilder, name: &str, params: usize) -> FuncId {
    let sig = mb.sig(vec![I32; params], [I32]);
    mb.import_func("wasi_snapshot_preview1", name, sig)
}

fn run_wasi(mb: ModuleBuilder, preopens: &[&str], args: &[&str]) -> wali::RunOutcome {
    let bytes = wasm::encode::encode(&mb.build());
    let module = wasm::decode::decode(&bytes).expect("round trip");
    let mut runner = WaliRunner::new_default();
    add_wasi_layer(runner.linker_mut());
    runner
        .register_program("/usr/bin/wasi-app", &module)
        .expect("register");
    let tid = runner
        .spawn("/usr/bin/wasi-app", args, &["LANG=C"])
        .expect("spawn");
    let preopens = WasiState::with_preopens(preopens);
    runner.configure_ctx(tid, |ctx: &mut WaliContext| init_wasi(ctx, preopens));
    runner.run().expect("run")
}

/// Writes an iovec array: one iovec pointing at (`ptr`, `len`).
fn one_iov(mb: &mut ModuleBuilder, ptr: u32, len: u32) -> u32 {
    let iov = mb.reserve(8);
    mb.data_at(iov, &[ptr.to_le_bytes(), len.to_le_bytes()].concat());
    iov
}

#[test]
fn fd_write_reaches_console_through_wali() {
    let mut mb = ModuleBuilder::new();
    let fd_write = wasi(&mut mb, "fd_write", 4);
    mb.memory(2, Some(16));
    let msg = mb.c_str("wasi over wali\n");
    let iov = one_iov(&mut mb, msg, 15);
    let nwritten = mb.reserve(4);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i32(1)
            .i32(iov as i32)
            .i32(1)
            .i32(nwritten as i32)
            .call(fd_write)
            .drop_();
        // return nwritten == 15 ? 0 : 1
        b.i32(nwritten as i32).load32(0).i32(15).ne32();
    });
    mb.export("_start", main);
    let out = run_wasi(mb, &["/tmp"], &[]);
    assert_eq!(out.exit_code(), Some(0));
    assert_eq!(out.stdout(), "wasi over wali\n");
    // The layering is visible in the trace: the WASI call shows up as the
    // underlying WALI syscall.
    assert_eq!(out.trace.counts.of(Sysno::writev), 1);
}

#[test]
fn path_open_respects_preopen_capability() {
    let mut mb = ModuleBuilder::new();
    let path_open = wasi(&mut mb, "path_open", 9);
    mb.memory(2, Some(16));
    // Relative path inside the preopen: allowed. The guest never sees or
    // names /tmp directly — fd 3 *is* the capability.
    let good = mb.data(b"notes.txt");
    let fd_out = mb.reserve(4);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        // path_open(3, 0, good, 9, O_CREAT(1), rights=fd_write|fd_read,
        //           inherit=0, fdflags=0, &fd)
        b.i32(3).i32(0).i32(good as i32).i32(9).i32(0x1);
        b.i32((wasi_layer::layer::RIGHT_FD_READ | wasi_layer::layer::RIGHT_FD_WRITE) as i32);
        b.i32(0).i32(0).i32(fd_out as i32);
        b.call(path_open);
    });
    mb.export("_start", main);
    let out = run_wasi(mb, &["/tmp"], &[]);
    assert_eq!(out.exit_code(), Some(0), "errno 0 expected");
}

#[test]
fn path_escape_is_notcapable() {
    let mut mb = ModuleBuilder::new();
    let path_open = wasi(&mut mb, "path_open", 9);
    mb.memory(2, Some(16));
    let evil = mb.data(b"../etc/passwd");
    let fd_out = mb.reserve(4);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i32(3).i32(0).i32(evil as i32).i32(13).i32(0);
        b.i32(wasi_layer::layer::RIGHT_FD_READ as i32);
        b.i32(0).i32(0).i32(fd_out as i32);
        b.call(path_open);
    });
    mb.export("_start", main);
    let out = run_wasi(mb, &["/tmp"], &[]);
    // 76 = WASI ENOTCAPABLE: the capability model blocked the escape
    // without any engine involvement.
    assert_eq!(out.exit_code(), Some(76));
}

#[test]
fn wasi_file_round_trip_over_wali() {
    let mut mb = ModuleBuilder::new();
    let path_open = wasi(&mut mb, "path_open", 9);
    let fd_write = wasi(&mut mb, "fd_write", 4);
    let fd_seek_sig = mb.sig(vec![I32, wasm::types::ValType::I64, I32, I32], [I32]);
    let fd_seek = mb.import_func("wasi_snapshot_preview1", "fd_seek", fd_seek_sig);
    let fd_read = wasi(&mut mb, "fd_read", 4);
    let fd_close = wasi(&mut mb, "fd_close", 1);
    mb.memory(2, Some(16));
    let name = mb.data(b"round.txt");
    let content = mb.c_str("wasi-data");
    let iov_w = one_iov(&mut mb, content, 9);
    let rbuf = mb.reserve(32);
    let iov_r = one_iov(&mut mb, rbuf, 32);
    let fd_out = mb.reserve(4);
    let nout = mb.reserve(4);
    let newpos = mb.reserve(8);
    let sig = mb.sig([], [I32]);
    let rights = (wasi_layer::layer::RIGHT_FD_READ
        | wasi_layer::layer::RIGHT_FD_WRITE
        | wasi_layer::layer::RIGHT_FD_SEEK) as i32;
    let main = mb.func(sig, |b| {
        let fd = b.local(I32);
        b.i32(3).i32(0).i32(name as i32).i32(9).i32(0x1);
        b.i32(rights).i32(0).i32(0).i32(fd_out as i32);
        b.call(path_open).drop_();
        b.i32(fd_out as i32).load32(0).local_set(fd);
        // write
        b.local_get(fd)
            .i32(iov_w as i32)
            .i32(1)
            .i32(nout as i32)
            .call(fd_write)
            .drop_();
        // seek back
        b.local_get(fd)
            .i64(0)
            .i32(0)
            .i32(newpos as i32)
            .call(fd_seek)
            .drop_();
        // read
        b.local_get(fd)
            .i32(iov_r as i32)
            .i32(1)
            .i32(nout as i32)
            .call(fd_read)
            .drop_();
        b.local_get(fd).call(fd_close).drop_();
        // check: nread == 9 and first byte 'w'
        b.i32(nout as i32).load32(0).i32(9).eq32();
        b.i32(rbuf as i32).load8u(0).i32('w' as i32).eq32();
        b.and32().eqz32();
    });
    mb.export("_start", main);
    let out = run_wasi(mb, &["/tmp"], &[]);
    assert_eq!(out.exit_code(), Some(0));
    // All through WALI: openat + writev + lseek + readv + close.
    use Sysno::{close, lseek, openat, readv, writev};
    for call in [openat, writev, lseek, readv, close] {
        assert!(
            out.trace.counts.contains_key(call),
            "missing WALI call {call:?}"
        );
    }
}

#[test]
fn args_and_environ_round_trip() {
    let mut mb = ModuleBuilder::new();
    let args_sizes = wasi(&mut mb, "args_sizes_get", 2);
    let args_get = wasi(&mut mb, "args_get", 2);
    mb.memory(2, Some(16));
    let argc_out = mb.reserve(4);
    let len_out = mb.reserve(4);
    let argv = mb.reserve(64);
    let buf = mb.reserve(256);
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i32(argc_out as i32)
            .i32(len_out as i32)
            .call(args_sizes)
            .drop_();
        b.i32(argv as i32).i32(buf as i32).call(args_get).drop_();
        // argv[1] first byte should be 'x' (arg "xyz").
        b.i32(argv as i32)
            .load32(4)
            .load8u(0)
            .i32('x' as i32)
            .ne32();
        // plus argc must be 2.
        b.i32(argc_out as i32).load32(0).i32(2).ne32();
        b.emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I32Or));
    });
    mb.export("_start", main);
    let out = run_wasi(mb, &["/tmp"], &["xyz"]);
    assert_eq!(out.exit_code(), Some(0));
}

#[test]
fn proc_exit_goes_through_wali_exit_group() {
    let mut mb = ModuleBuilder::new();
    let proc_exit = wasi(&mut mb, "proc_exit", 1);
    mb.memory(1, Some(4));
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i32(33).call(proc_exit).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    let out = run_wasi(mb, &["/tmp"], &[]);
    assert_eq!(out.exit_code(), Some(33));
    assert_eq!(
        out.trace.counts.of(Sysno::exit_group),
        1,
        "lowered to SYS_exit_group"
    );
}
