//! Guests the benchmark builds itself: the `syscall_dense` workload and
//! the differential probe guests of the `--trace` pass.
//!
//! A probe guest runs one call `iters` times in a loop; the same guest
//! with an empty (or cheaper) body is its base, and
//! `(probe − base) ÷ iters` prices the call from outside, through the
//! runner, without reading any counter of the program.

use wali_abi::ring::op;
use wasm::build::{FuncBuilder, FuncId, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

/// Bytes moved by every read/write in the dense workload and the probes.
pub const IO_BYTES: usize = 64;

/// Import module of the no-op host function `wasm.hostcall_ns` calls.
pub const NOP_MODULE: &str = "bench";
pub const NOP_NAME: &str = "nop";

const WASI: &str = "wasi_snapshot_preview1";
const O_CREAT_RDWR: i64 = 0o102;
/// WASI rights `fd_read | fd_seek | fd_write`.
const WASI_RW_SEEK: i32 = (1 << 1) | (1 << 2) | (1 << 6);

fn sys(mb: &mut ModuleBuilder, name: &str, params: usize) -> FuncId {
    let sig = mb.sig(vec![I64; params], [I64]);
    mb.import_func("wali", &format!("SYS_{name}"), sig)
}

/// `do { body } while (++i < iters)` — the one loop shape every guest
/// here uses, so its cost cancels in a differential.
fn counted_loop(b: &mut FuncBuilder, i: u32, iters: u32, body: impl FnOnce(&mut FuncBuilder)) {
    b.loop_(BlockType::Empty, |b| {
        body(b);
        b.local_get(i)
            .i32(1)
            .add32()
            .local_tee(i)
            .i32(iters.max(1) as i32)
            .lt_s32()
            .br_if(0);
    });
}

/// Exit code the dense guest must produce for `payload`.
pub fn dense_exit_code(payload: &[u8; IO_BYTES]) -> i32 {
    payload.iter().map(|b| *b as i32).sum::<i32>() & 0x7f
}

/// Table 2's syscall set as a guest: `iters` × {`getpid`, `lseek`,
/// `write` 64 B, `lseek`, `read` 64 B, `fstat`, `rt_sigprocmask`} on one
/// file after one `open` — `7·iters + 1` non-blocking crossings. It
/// exits with the byte sum of what the last `read` returned (low seven
/// bits), so a run only passes if the payload made the round trip.
pub fn syscall_dense(iters: u32, payload: &[u8; IO_BYTES]) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let getpid = sys(&mut mb, "getpid", 0);
    let lseek = sys(&mut mb, "lseek", 3);
    let write = sys(&mut mb, "write", 3);
    let read = sys(&mut mb, "read", 3);
    let fstat = sys(&mut mb, "fstat", 2);
    let sigprocmask = sys(&mut mb, "rt_sigprocmask", 4);
    mb.memory(4, Some(16));
    let path = mb.c_str("/tmp/dense.dat");
    let src = mb.data(payload);
    let dst = mb.reserve(IO_BYTES as u32);
    let stat = mb.reserve(256);
    let oldset = mb.reserve(8);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let i = b.local(I32);
        let j = b.local(I32);
        let sum = b.local(I32);
        b.i64(path as i64)
            .i64(O_CREAT_RDWR)
            .i64(0o644)
            .call(open)
            .local_set(fd);
        counted_loop(b, i, iters, |b| {
            b.call(getpid).drop_();
            b.local_get(fd).i64(0).i64(0).call(lseek).drop_();
            b.local_get(fd)
                .i64(src as i64)
                .i64(IO_BYTES as i64)
                .call(write)
                .drop_();
            b.local_get(fd).i64(0).i64(0).call(lseek).drop_();
            b.local_get(fd)
                .i64(dst as i64)
                .i64(IO_BYTES as i64)
                .call(read)
                .drop_();
            b.local_get(fd).i64(stat as i64).call(fstat).drop_();
            b.i64(0)
                .i64(0)
                .i64(oldset as i64)
                .i64(8)
                .call(sigprocmask)
                .drop_();
        });
        counted_loop(b, j, IO_BYTES as u32, |b| {
            b.local_get(sum)
                .i32(dst as i32)
                .local_get(j)
                .add32()
                .load8u(0)
                .add32()
                .local_set(sum);
        });
        b.local_get(sum).i32(0x7f).and32();
    });
    mb.export("_start", main);
    mb.build()
}

/// One differential WALI probe; the variant names the loop body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    Empty,
    /// Call to the no-op `bench.nop` import: the bare host-call boundary.
    HostNop,
    Getpid,
    ClockGettime,
    Lseek,
    /// `lseek` + `read`; base [`Probe::Lseek`] (the file stays 64 B).
    Read,
    /// `lseek` + `write`; base [`Probe::Lseek`].
    Write,
    /// `lseek` + one-element `writev`; base [`Probe::Lseek`].
    Writev,
    Fstat,
    RtSigprocmask,
    /// `mmap` of one anonymous page + `munmap`.
    MmapMunmap,
    Pread,
    /// 64 B `write` into a pipe + `read` back in the same task.
    PipeRw,
    /// `fork`, child `exit_group`, parent `wait4`.
    ForkWait,
    /// One `wali_ring_enter` of [`RING_BATCH`] `pread` SQEs.
    RingPread,
}

/// SQEs per `wali_ring_enter` in [`Probe::RingPread`].
pub const RING_BATCH: u32 = 32;

impl Probe {
    /// The probe whose loop is subtracted from this one's.
    pub fn base(self) -> Probe {
        match self {
            Probe::Read | Probe::Write | Probe::Writev => Probe::Lseek,
            _ => Probe::Empty,
        }
    }
}

/// Builds the probe guest: a common prologue (open a 64 B file, make a
/// pipe, fill the ring's SQEs) and `iters` rounds of `probe`'s body.
pub fn probe_guest(probe: Probe, iters: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let write = sys(&mut mb, "write", 3);
    let read = sys(&mut mb, "read", 3);
    let writev = sys(&mut mb, "writev", 3);
    let lseek = sys(&mut mb, "lseek", 3);
    let fstat = sys(&mut mb, "fstat", 2);
    let getpid = sys(&mut mb, "getpid", 0);
    let clock_gettime = sys(&mut mb, "clock_gettime", 2);
    let sigprocmask = sys(&mut mb, "rt_sigprocmask", 4);
    let mmap = sys(&mut mb, "mmap", 6);
    let munmap = sys(&mut mb, "munmap", 2);
    let pread = sys(&mut mb, "pread64", 4);
    let pipe = sys(&mut mb, "pipe", 1);
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit_group = sys(&mut mb, "exit_group", 1);
    let ring_enter = sys(&mut mb, "wali_ring_enter", 4);
    let nop_sig = mb.sig([], []);
    let nop = mb.import_func(NOP_MODULE, NOP_NAME, nop_sig);
    mb.memory(4, Some(64));
    let path = mb.c_str("/tmp/probe.dat");
    let src = mb.data(&[b'x'; IO_BYTES]);
    let dst = mb.reserve(IO_BYTES as u32);
    let iov = mb.data(&[src.to_le_bytes(), (IO_BYTES as u32).to_le_bytes()].concat());
    let scratch = mb.reserve(256);
    let pipe_fds = mb.reserve(8);
    // Ring image: 32 B header, then the SQEs (32 B each), then the CQEs.
    let ring = mb.reserve(32 + RING_BATCH * 32 + RING_BATCH * 16);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let i = b.local(I32);
        let tmp = b.local(I64);
        b.i64(path as i64)
            .i64(O_CREAT_RDWR)
            .i64(0o644)
            .call(open)
            .local_set(fd);
        b.local_get(fd)
            .i64(src as i64)
            .i64(IO_BYTES as i64)
            .call(write)
            .drop_();
        b.i64(pipe_fds as i64).call(pipe).drop_();
        // The SQEs never change, so they are written once; each round
        // only rewinds the ring indexes.
        let batch = RING_BATCH as i64;
        b.i32(ring as i32).i64(batch | (batch << 32)).store64(0);
        b.i32(ring as i32).i64(0).store64(24);
        for s in 0..RING_BATCH {
            let sqe = (ring + 32 + 32 * s) as i32;
            b.i32(sqe).i32(op::PREAD as i32).store32(0);
            b.i32(sqe).local_get(fd).wrap().store32(4);
            b.i32(sqe).i32(dst as i32).store32(8);
            b.i32(sqe).i32(IO_BYTES as i32).store32(12);
            b.i32(sqe).i64(0).store64(16);
            b.i32(sqe).i64(s as i64).store64(24);
        }

        let rewind = |b: &mut FuncBuilder| {
            b.local_get(fd).i64(0).i64(0).call(lseek).drop_();
        };
        counted_loop(b, i, iters, |b| match probe {
            Probe::Empty => {}
            Probe::HostNop => {
                b.call(nop);
            }
            Probe::Getpid => {
                b.call(getpid).drop_();
            }
            Probe::ClockGettime => {
                b.i64(1).i64(scratch as i64).call(clock_gettime).drop_();
            }
            Probe::Lseek => rewind(b),
            Probe::Read => {
                rewind(b);
                b.local_get(fd)
                    .i64(dst as i64)
                    .i64(IO_BYTES as i64)
                    .call(read)
                    .drop_();
            }
            Probe::Write => {
                rewind(b);
                b.local_get(fd)
                    .i64(src as i64)
                    .i64(IO_BYTES as i64)
                    .call(write)
                    .drop_();
            }
            Probe::Writev => {
                rewind(b);
                b.local_get(fd).i64(iov as i64).i64(1).call(writev).drop_();
            }
            Probe::Fstat => {
                b.local_get(fd).i64(scratch as i64).call(fstat).drop_();
            }
            Probe::RtSigprocmask => {
                b.i64(0)
                    .i64(0)
                    .i64(scratch as i64)
                    .i64(8)
                    .call(sigprocmask)
                    .drop_();
            }
            Probe::MmapMunmap => {
                b.i64(0)
                    .i64(4096)
                    .i64(3)
                    .i64(0x22)
                    .i64(-1)
                    .i64(0)
                    .call(mmap)
                    .local_set(tmp);
                b.local_get(tmp).i64(4096).call(munmap).drop_();
            }
            Probe::Pread => {
                b.local_get(fd)
                    .i64(dst as i64)
                    .i64(IO_BYTES as i64)
                    .i64(0)
                    .call(pread)
                    .drop_();
            }
            Probe::PipeRw => {
                b.i32(pipe_fds as i32 + 4)
                    .load32(0)
                    .extend_u()
                    .i64(src as i64)
                    .i64(IO_BYTES as i64)
                    .call(write)
                    .drop_();
                b.i32(pipe_fds as i32)
                    .load32(0)
                    .extend_u()
                    .i64(dst as i64)
                    .i64(IO_BYTES as i64)
                    .call(read)
                    .drop_();
            }
            Probe::ForkWait => {
                b.call(fork).local_set(tmp);
                b.local_get(tmp).i64(0).eq64();
                b.if_(BlockType::Empty, |b| {
                    b.i64(0).call(exit_group).drop_();
                });
                b.local_get(tmp)
                    .i64(scratch as i64)
                    .i64(0)
                    .i64(0)
                    .call(wait4)
                    .drop_();
            }
            Probe::RingPread => {
                b.i32(ring as i32).i64(batch << 32).store64(8);
                b.i32(ring as i32).i64(0).store64(16);
                b.i64(ring as i64)
                    .i64(batch)
                    .i64(batch)
                    .i64(0)
                    .call(ring_enter)
                    .drop_();
            }
        });
        // Exit 0 iff the last read-type call delivered the payload (the
        // probes that never read leave `dst` zeroed and skip the check).
        let reads = matches!(
            probe,
            Probe::Read | Probe::Pread | Probe::PipeRw | Probe::RingPread
        );
        if reads {
            b.i32(dst as i32).load8u(0).i32(b'x' as i32).ne32();
        } else {
            b.i32(0);
        }
    });
    mb.export("_start", main);
    mb.build()
}

/// One differential probe of the WASI layer (`wasi-layer` over WALI).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WasiProbe {
    Empty,
    Seek,
    /// `fd_seek` + `fd_write` of one 64 B iovec; base [`WasiProbe::Seek`].
    FdWrite,
    /// `fd_seek` + `fd_read`; base [`WasiProbe::Seek`].
    FdRead,
    /// `path_open` (existing file) + `fd_close`.
    PathOpenClose,
}

impl WasiProbe {
    pub fn base(self) -> WasiProbe {
        match self {
            WasiProbe::FdWrite | WasiProbe::FdRead => WasiProbe::Seek,
            _ => WasiProbe::Empty,
        }
    }
}

/// The WASI twin of [`probe_guest`]: opens `probe.dat` under preopen 3
/// (the runner maps it to `/tmp`), writes 64 B, then loops.
pub fn wasi_probe_guest(probe: WasiProbe, iters: u32) -> Module {
    let mut mb = ModuleBuilder::new();
    let rw_sig = mb.sig([I32, I32, I32, I32], [I32]);
    let fd_write = mb.import_func(WASI, "fd_write", rw_sig);
    let fd_read = mb.import_func(WASI, "fd_read", rw_sig);
    let seek_sig = mb.sig([I32, I64, I32, I32], [I32]);
    let fd_seek = mb.import_func(WASI, "fd_seek", seek_sig);
    let close_sig = mb.sig([I32], [I32]);
    let fd_close = mb.import_func(WASI, "fd_close", close_sig);
    let open_sig = mb.sig([I32, I32, I32, I32, I32, I64, I64, I32, I32], [I32]);
    let path_open = mb.import_func(WASI, "path_open", open_sig);
    mb.memory(2, Some(16));
    let name = "probe.dat";
    let name_at = mb.data(name.as_bytes());
    let src = mb.data(&[b'x'; IO_BYTES]);
    let dst = mb.reserve(IO_BYTES as u32);
    let iov_w = mb.data(&[src.to_le_bytes(), (IO_BYTES as u32).to_le_bytes()].concat());
    let iov_r = mb.data(&[dst.to_le_bytes(), (IO_BYTES as u32).to_le_bytes()].concat());
    let fd_out = mb.reserve(4);
    let fd_tmp = mb.reserve(4);
    let nout = mb.reserve(8);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I32);
        let i = b.local(I32);
        let open_into = |b: &mut FuncBuilder, out: u32| {
            // path_open(dirfd 3, 0, name, len, O_CREAT, rights, 0, 0, &fd)
            b.i32(3)
                .i32(0)
                .i32(name_at as i32)
                .i32(name.len() as i32)
                .i32(0x1)
                .i64(WASI_RW_SEEK as i64)
                .i64(0)
                .i32(0)
                .i32(out as i32)
                .call(path_open)
                .drop_();
        };
        open_into(b, fd_out);
        b.i32(fd_out as i32).load32(0).local_set(fd);
        b.local_get(fd)
            .i32(iov_w as i32)
            .i32(1)
            .i32(nout as i32)
            .call(fd_write)
            .drop_();
        let rewind = |b: &mut FuncBuilder| {
            b.local_get(fd)
                .i64(0)
                .i32(0)
                .i32(nout as i32)
                .call(fd_seek)
                .drop_();
        };
        counted_loop(b, i, iters, |b| match probe {
            WasiProbe::Empty => {}
            WasiProbe::Seek => rewind(b),
            WasiProbe::FdWrite => {
                rewind(b);
                b.local_get(fd)
                    .i32(iov_w as i32)
                    .i32(1)
                    .i32(nout as i32)
                    .call(fd_write)
                    .drop_();
            }
            WasiProbe::FdRead => {
                rewind(b);
                b.local_get(fd)
                    .i32(iov_r as i32)
                    .i32(1)
                    .i32(nout as i32)
                    .call(fd_read)
                    .drop_();
            }
            WasiProbe::PathOpenClose => {
                open_into(b, fd_tmp);
                b.i32(fd_tmp as i32).load32(0).call(fd_close).drop_();
            }
        });
        if probe == WasiProbe::FdRead {
            b.i32(dst as i32).load8u(0).i32(b'x' as i32).ne32();
        } else {
            b.i32(0);
        }
    });
    mb.export("_start", main);
    mb.build()
}
