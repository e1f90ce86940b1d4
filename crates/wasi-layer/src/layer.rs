//! The WASI preview1 host functions, every one lowered onto WALI calls.

use std::any::Any;
use std::sync::Arc;

use wali::context::WaliContext;
use wali::mem::{arg as a64, arg_i32 as a32};
use wali::registry::blocked;
use wali_abi::flags::{
    AT_FDCWD, O_APPEND, O_CREAT, O_DIRECTORY, O_EXCL, O_NONBLOCK, O_RDONLY, O_RDWR, O_TRUNC,
    SEEK_CUR, SEEK_END, SEEK_SET, S_IFDIR, S_IFMT, S_IFREG,
};
use wasm::host::{Caller, HostFn, HostOutcome, Linker};

use crate::errno::{self, BADF, INVAL, NOTCAPABLE, SUCCESS};

/// The WASI preview1 import module name.
pub const WASI_MODULE: &str = "wasi_snapshot_preview1";

/// WASI right: `fd_read`.
pub const RIGHT_FD_READ: u64 = 1 << 1;
/// WASI right: `fd_seek`.
pub const RIGHT_FD_SEEK: u64 = 1 << 2;
/// WASI right: `fd_write`.
pub const RIGHT_FD_WRITE: u64 = 1 << 6;
/// WASI right: `path_open`.
pub const RIGHT_PATH_OPEN: u64 = 1 << 13;
/// WASI right: `fd_readdir`.
pub const RIGHT_FD_READDIR: u64 = 1 << 14;
/// WASI right: `path_create_*` / `path_unlink_*`.
pub const RIGHT_PATH_WRITE: u64 = (1 << 9) | (1 << 10) | (1 << 24) | (1 << 25) | (1 << 26);
/// Every right this layer models.
pub const RIGHTS_ALL: u64 = RIGHT_FD_READ
    | RIGHT_FD_SEEK
    | RIGHT_FD_WRITE
    | RIGHT_PATH_OPEN
    | RIGHT_FD_READDIR
    | RIGHT_PATH_WRITE;

/// One preopened directory capability.
#[derive(Clone, Debug)]
pub struct Preopen {
    /// Guest-visible descriptor (3, 4, …).
    pub guest_fd: i32,
    /// Host path inside the WALI filesystem.
    pub host_path: String,
    /// Rights granted on this subtree.
    pub rights: u64,
}

/// Capability state for one WASI instance: the security model the paper
/// moves *out* of the engine.
#[derive(Clone, Debug, Default)]
pub struct WasiState {
    /// Preopened directories.
    pub preopens: Vec<Preopen>,
    /// Per-descriptor rights for fds opened through `path_open`
    /// (stdio 0–2 get read/write implicitly).
    pub fd_rights: Vec<(i32, u64)>,
}

impl WasiState {
    /// Creates a state with one preopen per path, numbered from fd 3.
    pub fn with_preopens(paths: &[&str]) -> WasiState {
        WasiState {
            preopens: paths
                .iter()
                .enumerate()
                .map(|(i, p)| Preopen {
                    guest_fd: 3 + i as i32,
                    host_path: p.to_string(),
                    rights: RIGHTS_ALL,
                })
                .collect(),
            fd_rights: Vec::new(),
        }
    }

    fn preopen(&self, fd: i32) -> Option<&Preopen> {
        self.preopens.iter().find(|p| p.guest_fd == fd)
    }

    fn rights_of(&self, fd: i32) -> u64 {
        if (0..=2).contains(&fd) {
            return RIGHT_FD_READ | RIGHT_FD_WRITE;
        }
        if let Some(p) = self.preopen(fd) {
            return p.rights;
        }
        self.fd_rights
            .iter()
            .find(|(f, _)| *f == fd)
            .map(|(_, r)| *r)
            .unwrap_or(0)
    }

    fn grant(&mut self, fd: i32, rights: u64) {
        self.fd_rights.retain(|(f, _)| *f != fd);
        self.fd_rights.push((fd, rights));
    }

    fn revoke(&mut self, fd: i32) {
        self.fd_rights.retain(|(f, _)| *f != fd);
    }
}

/// Attaches a [`WasiState`] to a context (call before running a WASI
/// module).
pub fn init_wasi(ctx: &mut WaliContext, state: WasiState) {
    ctx.ext = Some(Box::new(state) as Box<dyn Any + Send>);
}

fn state_mut(ctx: &mut WaliContext) -> Option<&mut WasiState> {
    ctx.ext.as_mut()?.downcast_mut::<WasiState>()
}

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
/// A WASI function's outcome in the raw-slot convention: the i32 errno.
type X = Result<u64, HostOutcome>;

fn ok() -> X {
    fail(SUCCESS)
}

fn fail(code: i32) -> X {
    Ok(code as u32 as u64)
}

fn fail_x(code: i32) -> X {
    fail(code)
}

/// Declares [`Wali`]: the handles of the WALI syscalls this layer lowers
/// onto, resolved once when [`add_wasi_layer`] runs so a nested call is
/// one indirect call on raw slots — no name formatting, registry lookup
/// or argument list per call.
macro_rules! wali_handles {
    ($($name:ident),* $(,)?) => {
        struct Wali {
            $($name: HostFn<WaliContext>,)*
        }

        impl Wali {
            fn resolve(linker: &Linker<WaliContext>) -> Wali {
                Wali {
                    $($name: linker
                        .resolve(wali::WALI_MODULE, concat!("SYS_", stringify!($name)))
                        .unwrap_or_else(|| {
                            panic!("WALI registry is complete: {}", stringify!($name))
                        })
                        .clone(),)*
                }
            }
        }
    };
}

wali_handles!(
    clock_gettime,
    close,
    exit_group,
    fdatasync,
    fstat,
    fsync,
    getdents64,
    getrandom,
    lseek,
    mkdirat,
    nanosleep,
    newfstatat,
    openat,
    readlinkat,
    readv,
    renameat,
    sched_yield,
    unlinkat,
    writev,
);

/// Invokes a WALI syscall from inside a WASI function (the layering).
///
/// Blocking propagates under the *WASI* function's name: that is the
/// import the guest is parked in, so the runner's retry re-enters this
/// layer on this layer's arguments, not the raw syscall's.
fn wali_call(
    f: &HostFn<WaliContext>,
    c: C,
    args: &[u64],
    wasi_import: &'static str,
) -> Result<i64, X> {
    match f(c, args) {
        Ok(ret) => Ok(ret as i64),
        Err(HostOutcome::Block(b)) => Err(Err(blocked(wasi_import, b.deadline))),
        Err(other) => Err(Err(other)),
    }
}

/// Demuxes a raw WALI return into a value or a WASI-errno early return.
fn check(ret: i64) -> Result<i64, X> {
    errno::demux(ret).map_err(fail_x)
}

/// The instance's linear memory, borrowed for as long as the instance —
/// not the caller — lives, so host calls can go on using `c`.
fn wmem<'a>(c: &Caller<'a, WaliContext>) -> &'a wasm::mem::Memory {
    &c.instance.memory
}

/// Resolves `(dirfd, guest path)` through the capability table into a host
/// path, rejecting escapes from the preopen subtree.
fn resolve_path(c: C, dirfd: i32, ptr: u32, len: u32) -> Result<(String, u64), X> {
    let mem = wmem(c);
    let raw = mem
        .read(ptr as u64, len as usize)
        .map_err(|_| fail_x(INVAL))?;
    let rel = String::from_utf8(raw).map_err(|_| fail_x(INVAL))?;
    let state = state_mut(c.data).ok_or_else(|| fail_x(NOTCAPABLE))?;
    let pre = state.preopen(dirfd).ok_or_else(|| fail_x(NOTCAPABLE))?;
    if pre.rights & RIGHT_PATH_OPEN == 0 {
        return Err(fail_x(NOTCAPABLE));
    }
    // Sandbox: refuse absolute paths and `..` escapes — this is the WASI
    // filesystem isolation, enforced entirely outside the engine.
    if rel.starts_with('/') {
        return Err(fail_x(NOTCAPABLE));
    }
    let mut depth: i32 = 0;
    for comp in rel.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                depth -= 1;
                if depth < 0 {
                    return Err(fail_x(NOTCAPABLE));
                }
            }
            _ => depth += 1,
        }
    }
    let joined = if pre.host_path == "/" {
        format!("/{rel}")
    } else {
        format!("{}/{}", pre.host_path, rel)
    };
    Ok((joined, pre.rights))
}

/// Scratch linear-memory address where translated paths are staged (the
/// 256..1024 libc reserved zone of the module layout).
const PATH_SCRATCH: u32 = 256;
/// Scratch for struct outputs (timespec/kstat staging).
const STRUCT_SCRATCH: u32 = 768;

fn stage_path(c: C, path: &str) -> Result<u32, X> {
    let mem = wmem(c);
    let mut bytes = path.as_bytes().to_vec();
    bytes.push(0);
    if bytes.len() > 480 {
        return Err(fail_x(INVAL));
    }
    mem.write(PATH_SCRATCH as u64, &bytes)
        .map_err(|_| fail_x(INVAL))?;
    Ok(PATH_SCRATCH)
}

/// Registers the complete WASI preview1 surface over the WALI functions in
/// `linker` (which must already contain them).
pub fn add_wasi_layer(linker: &mut Linker<WaliContext>) {
    // The WALI surface this layer is allowed to use.
    let base = Arc::new(Wali::resolve(linker));

    macro_rules! wasi {
        ($name:literal, $f:expr) => {{
            let base = Arc::clone(&base);
            linker.func_raw(WASI_MODULE, $name, move |c: C<'_, '_>, args: &[u64]| {
                #[allow(clippy::redundant_closure_call)]
                ($f)(&base, c, args)
            });
        }};
    }

    type B = Wali;

    wasi!("args_sizes_get", |_b: &B, c: C, args: &[u64]| -> X {
        let mem = wmem(c);
        let argc = c.data.args.len() as u32;
        let bytes: u32 = c.data.args.iter().map(|a| a.len() as u32 + 1).sum();
        let _ = mem.store::<4>(a32(args, 0) as u32 as u64, argc.to_le_bytes());
        let _ = mem.store::<4>(a32(args, 1) as u32 as u64, bytes.to_le_bytes());
        ok()
    });

    wasi!("args_get", |_b: &B, c: C, args: &[u64]| -> X {
        let mem = wmem(c);
        let mut argv = a32(args, 0) as u32;
        let mut buf = a32(args, 1) as u32;
        for arg in c.data.args.iter() {
            let _ = mem.store::<4>(argv as u64, buf.to_le_bytes());
            let mut bytes = arg.clone().into_bytes();
            bytes.push(0);
            let _ = mem.write(buf as u64, &bytes);
            buf += bytes.len() as u32;
            argv += 4;
        }
        ok()
    });

    wasi!("environ_sizes_get", |_b: &B, c: C, args: &[u64]| -> X {
        let mem = wmem(c);
        let n = c.data.env.len() as u32;
        let bytes: u32 = c.data.env.iter().map(|a| a.len() as u32 + 1).sum();
        let _ = mem.store::<4>(a32(args, 0) as u32 as u64, n.to_le_bytes());
        let _ = mem.store::<4>(a32(args, 1) as u32 as u64, bytes.to_le_bytes());
        ok()
    });

    wasi!("environ_get", |_b: &B, c: C, args: &[u64]| -> X {
        let mem = wmem(c);
        let mut envp = a32(args, 0) as u32;
        let mut buf = a32(args, 1) as u32;
        for e in c.data.env.iter() {
            let _ = mem.store::<4>(envp as u64, buf.to_le_bytes());
            let mut bytes = e.clone().into_bytes();
            bytes.push(0);
            let _ = mem.write(buf as u64, &bytes);
            buf += bytes.len() as u32;
            envp += 4;
        }
        ok()
    });

    wasi!("clock_time_get", |b: &B, c: C, args: &[u64]| -> X {
        let clock = a32(args, 0);
        let out = a32(args, 2) as u32;
        let ts = STRUCT_SCRATCH;
        match wali_call(
            &b.clock_gettime,
            c,
            &[clock as u64, ts as u64],
            "clock_time_get",
        ) {
            Ok(ret) => {
                if let Err(e) = check(ret) {
                    return e;
                }
                let mem = wmem(c);
                let sec = u64::from_le_bytes(mem.load::<8>(ts as u64).unwrap_or_default());
                let nsec = u64::from_le_bytes(mem.load::<8>(ts as u64 + 8).unwrap_or_default());
                let _ = mem.store::<8>(out as u64, (sec * 1_000_000_000 + nsec).to_le_bytes());
                ok()
            }
            Err(x) => x,
        }
    });

    wasi!("clock_res_get", |_b: &B, c: C, args: &[u64]| -> X {
        let mem = wmem(c);
        let _ = mem.store::<8>(a32(args, 1) as u32 as u64, 1u64.to_le_bytes());
        ok()
    });

    wasi!("fd_close", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        if let Some(s) = state_mut(c.data) {
            s.revoke(fd);
        }
        match wali_call(&b.close, c, &[fd as u64], "fd_close") {
            Ok(ret) => match check(ret) {
                Ok(_) => ok(),
                Err(e) => e,
            },
            Err(x) => x,
        }
    });

    wasi!("fd_read", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        if state_mut(c.data)
            .map(|s| s.rights_of(fd) & RIGHT_FD_READ == 0)
            .unwrap_or(true)
        {
            return fail(NOTCAPABLE);
        }
        do_rw(b, c, args, false, "fd_read")
    });

    wasi!("fd_write", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        if state_mut(c.data)
            .map(|s| s.rights_of(fd) & RIGHT_FD_WRITE == 0)
            .unwrap_or(true)
        {
            return fail(NOTCAPABLE);
        }
        do_rw(b, c, args, true, "fd_write")
    });

    wasi!("fd_seek", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        let offset = a64(args, 1);
        let whence = match a32(args, 2) {
            0 => SEEK_SET,
            1 => SEEK_CUR,
            2 => SEEK_END,
            _ => return fail(INVAL),
        };
        match wali_call(
            &b.lseek,
            c,
            &[fd as u64, offset as u64, whence as u64],
            "fd_seek",
        ) {
            Ok(ret) => match check(ret) {
                Ok(pos) => {
                    let mem = wmem(c);
                    let _ = mem.store::<8>(a32(args, 3) as u32 as u64, (pos as u64).to_le_bytes());
                    ok()
                }
                Err(e) => e,
            },
            Err(x) => x,
        }
    });

    wasi!("fd_tell", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        match wali_call(&b.lseek, c, &[fd as u64, 0, SEEK_CUR as u64], "fd_tell") {
            Ok(ret) => match check(ret) {
                Ok(pos) => {
                    let mem = wmem(c);
                    let _ = mem.store::<8>(a32(args, 1) as u32 as u64, (pos as u64).to_le_bytes());
                    ok()
                }
                Err(e) => e,
            },
            Err(x) => x,
        }
    });

    wasi!("fd_fdstat_get", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        let out = a32(args, 1) as u32;
        let st = STRUCT_SCRATCH;
        match wali_call(&b.fstat, c, &[fd as u64, st as u64], "fd_fdstat_get") {
            Ok(ret) => {
                if let Err(e) = check(ret) {
                    return e;
                }
                let mem = wmem(c);
                let mode = u32::from_le_bytes(mem.load::<4>(st as u64 + 16).unwrap_or_default());
                let filetype: u8 = match mode & S_IFMT {
                    S_IFDIR => 3,
                    S_IFREG => 4,
                    wali_abi::flags::S_IFSOCK => 6,
                    _ => 0,
                };
                let rights = state_mut(c.data).map(|s| s.rights_of(fd)).unwrap_or(0);
                let mut img = [0u8; 24];
                img[0] = filetype;
                img[8..16].copy_from_slice(&rights.to_le_bytes());
                img[16..24].copy_from_slice(&rights.to_le_bytes());
                let _ = mem.write(out as u64, &img);
                ok()
            }
            Err(x) => x,
        }
    });

    wasi!("fd_filestat_get", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        let out = a32(args, 1) as u32;
        let st = STRUCT_SCRATCH;
        match wali_call(&b.fstat, c, &[fd as u64, st as u64], "fd_filestat_get") {
            Ok(ret) => {
                if let Err(e) = check(ret) {
                    return e;
                }
                write_wasi_filestat(c, st, out);
                ok()
            }
            Err(x) => x,
        }
    });

    wasi!("fd_prestat_get", |_b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        let out = a32(args, 1) as u32;
        let Some(state) = state_mut(c.data) else {
            return fail(BADF);
        };
        let Some(pre) = state.preopen(fd) else {
            return fail(BADF);
        };
        let name_len = pre.host_path.len() as u32;
        let mem = wmem(c);
        let _ = mem.store::<4>(out as u64, 0u32.to_le_bytes());
        let _ = mem.store::<4>(out as u64 + 4, name_len.to_le_bytes());
        ok()
    });

    wasi!("fd_prestat_dir_name", |_b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        let (ptr, len) = (a32(args, 1) as u32, a32(args, 2) as u32);
        let Some(state) = state_mut(c.data) else {
            return fail(BADF);
        };
        let Some(pre) = state.preopen(fd) else {
            return fail(BADF);
        };
        let name = pre.host_path.clone();
        if (len as usize) < name.len() {
            return fail(INVAL);
        }
        let mem = wmem(c);
        let _ = mem.write(ptr as u64, name.as_bytes());
        ok()
    });

    wasi!("fd_readdir", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        if state_mut(c.data)
            .map(|s| s.rights_of(fd) & RIGHT_FD_READDIR == 0)
            .unwrap_or(true)
        {
            return fail(NOTCAPABLE);
        }
        let (buf, buf_len) = (a32(args, 1) as u32, a32(args, 2) as u32);
        let tmp = STRUCT_SCRATCH;
        match wali_call(
            &b.getdents64,
            c,
            &[fd as u64, tmp as u64, 240],
            "fd_readdir",
        ) {
            Ok(ret) => {
                let n = match check(ret) {
                    Ok(n) => n as usize,
                    Err(e) => return e,
                };
                let mem = wmem(c);
                let raw = mem.read(tmp as u64, n).unwrap_or_default();
                let mut out = Vec::new();
                let mut off = 0usize;
                let mut cookie = 1u64;
                while off < raw.len() {
                    let Ok((d, reclen)) = wali_abi::layout::WaliDirent::read_from(&raw[off..])
                    else {
                        break;
                    };
                    // WASI dirent: next(8) ino(8) namlen(4) type(1) pad(3).
                    out.extend_from_slice(&cookie.to_le_bytes());
                    out.extend_from_slice(&d.ino.to_le_bytes());
                    out.extend_from_slice(&(d.name.len() as u32).to_le_bytes());
                    out.push(match d.file_type {
                        4 => 3,
                        8 => 4,
                        10 => 7,
                        _ => 0,
                    });
                    out.extend_from_slice(&[0, 0, 0]);
                    out.extend_from_slice(d.name.as_bytes());
                    off += reclen;
                    cookie += 1;
                }
                let w = out.len().min(buf_len as usize);
                let _ = mem.write(buf as u64, &out[..w]);
                let _ = mem.store::<4>(a32(args, 4) as u32 as u64, (w as u32).to_le_bytes());
                ok()
            }
            Err(x) => x,
        }
    });

    wasi!("fd_sync", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        match wali_call(&b.fsync, c, &[fd as u64], "fd_sync") {
            Ok(_) => ok(),
            Err(x) => x,
        }
    });

    wasi!("fd_datasync", |b: &B, c: C, args: &[u64]| -> X {
        let fd = a32(args, 0);
        match wali_call(&b.fdatasync, c, &[fd as u64], "fd_datasync") {
            Ok(_) => ok(),
            Err(x) => x,
        }
    });

    wasi!("fd_fdstat_set_flags", |_b: &B, _c: C, _args: &[u64]| -> X {
        ok()
    });

    wasi!("path_open", |b: &B, c: C, args: &[u64]| -> X {
        let dirfd = a32(args, 0);
        let (ptr, len) = (a32(args, 2) as u32, a32(args, 3) as u32);
        let oflags = a32(args, 4);
        let rights = a64(args, 5) as u64;
        let fdflags = a32(args, 7);
        let fd_out = a32(args, 8) as u32;
        let (path, pre_rights) = match resolve_path(c, dirfd, ptr, len) {
            Ok(p) => p,
            Err(x) => return x,
        };
        // Capability monotonicity: requested rights must be a subset.
        if rights & !pre_rights != 0 {
            return fail(NOTCAPABLE);
        }
        let granted = rights & pre_rights;
        let mut flags = 0;
        if oflags & 0x1 != 0 {
            flags |= O_CREAT;
        }
        if oflags & 0x2 != 0 {
            flags |= O_DIRECTORY;
        }
        if oflags & 0x4 != 0 {
            flags |= O_EXCL;
        }
        if oflags & 0x8 != 0 {
            flags |= O_TRUNC;
        }
        if fdflags & 0x1 != 0 {
            flags |= O_APPEND;
        }
        if fdflags & 0x4 != 0 {
            flags |= O_NONBLOCK;
        }
        flags |= if granted & RIGHT_FD_WRITE != 0 {
            O_RDWR
        } else {
            O_RDONLY
        };
        let staged = match stage_path(c, &path) {
            Ok(p) => p,
            Err(x) => return x,
        };
        match wali_call(
            &b.openat,
            c,
            &[AT_FDCWD as u64, staged as u64, flags as u64, 0o644],
            "path_open",
        ) {
            Ok(ret) => match check(ret) {
                Ok(fd) => {
                    if let Some(s) = state_mut(c.data) {
                        s.grant(fd as i32, granted);
                    }
                    let mem = wmem(c);
                    let _ = mem.store::<4>(fd_out as u64, (fd as u32).to_le_bytes());
                    ok()
                }
                Err(e) => e,
            },
            Err(x) => x,
        }
    });

    wasi!("path_filestat_get", |b: &B, c: C, args: &[u64]| -> X {
        let dirfd = a32(args, 0);
        let (ptr, len) = (a32(args, 2) as u32, a32(args, 3) as u32);
        let out = a32(args, 4) as u32;
        let (path, _) = match resolve_path(c, dirfd, ptr, len) {
            Ok(p) => p,
            Err(x) => return x,
        };
        let staged = match stage_path(c, &path) {
            Ok(p) => p,
            Err(x) => return x,
        };
        let st = STRUCT_SCRATCH;
        match wali_call(
            &b.newfstatat,
            c,
            &[AT_FDCWD as u64, staged as u64, st as u64, 0],
            "path_filestat_get",
        ) {
            Ok(ret) => {
                if let Err(e) = check(ret) {
                    return e;
                }
                write_wasi_filestat(c, st, out);
                ok()
            }
            Err(x) => x,
        }
    });

    wasi!("path_create_directory", |b: &B, c: C, args: &[u64]| -> X {
        path_simple(c, args, &b.mkdirat, "path_create_directory", 0o755)
    });
    wasi!("path_remove_directory", |b: &B, c: C, args: &[u64]| -> X {
        path_simple(
            c,
            args,
            &b.unlinkat,
            "path_remove_directory",
            wali_abi::flags::AT_REMOVEDIR as u64,
        )
    });
    wasi!("path_unlink_file", |b: &B, c: C, args: &[u64]| -> X {
        path_simple(c, args, &b.unlinkat, "path_unlink_file", 0)
    });

    wasi!("path_rename", |b: &B, c: C, args: &[u64]| -> X {
        let (old, _) = match resolve_path(c, a32(args, 0), a32(args, 1) as u32, a32(args, 2) as u32)
        {
            Ok(p) => p,
            Err(x) => return x,
        };
        let (new, _) = match resolve_path(c, a32(args, 3), a32(args, 4) as u32, a32(args, 5) as u32)
        {
            Ok(p) => p,
            Err(x) => return x,
        };
        let p1 = match stage_path(c, &old) {
            Ok(p) => p,
            Err(x) => return x,
        };
        let mem = wmem(c);
        let p2 = p1 + old.len() as u32 + 1;
        let mut bytes = new.into_bytes();
        bytes.push(0);
        let _ = mem.write(p2 as u64, &bytes);
        match wali_call(
            &b.renameat,
            c,
            &[AT_FDCWD as u64, p1 as u64, AT_FDCWD as u64, p2 as u64],
            "path_rename",
        ) {
            Ok(ret) => match check(ret) {
                Ok(_) => ok(),
                Err(e) => e,
            },
            Err(x) => x,
        }
    });

    wasi!("path_readlink", |b: &B, c: C, args: &[u64]| -> X {
        let (path, _) =
            match resolve_path(c, a32(args, 0), a32(args, 1) as u32, a32(args, 2) as u32) {
                Ok(p) => p,
                Err(x) => return x,
            };
        let staged = match stage_path(c, &path) {
            Ok(p) => p,
            Err(x) => return x,
        };
        let (buf, len) = (a32(args, 3) as u64, a32(args, 4) as u64);
        match wali_call(
            &b.readlinkat,
            c,
            &[AT_FDCWD as u64, staged as u64, buf, len],
            "path_readlink",
        ) {
            Ok(ret) => match check(ret) {
                Ok(n) => {
                    let mem = wmem(c);
                    let _ = mem.store::<4>(a32(args, 5) as u32 as u64, (n as u32).to_le_bytes());
                    ok()
                }
                Err(e) => e,
            },
            Err(x) => x,
        }
    });

    wasi!("proc_exit", |b: &B, c: C, args: &[u64]| -> X {
        let code = a32(args, 0);
        match wali_call(&b.exit_group, c, &[code as u64], "proc_exit") {
            Ok(_) => ok(),
            Err(x) => x,
        }
    });

    wasi!("random_get", |b: &B, c: C, args: &[u64]| -> X {
        let (buf, len) = (a32(args, 0) as u64, a32(args, 1) as u64);
        match wali_call(&b.getrandom, c, &[buf, len, 0], "random_get") {
            Ok(ret) => match check(ret) {
                Ok(_) => ok(),
                Err(e) => e,
            },
            Err(x) => x,
        }
    });

    wasi!("sched_yield", |b: &B, c: C, _args: &[u64]| -> X {
        match wali_call(&b.sched_yield, c, &[], "sched_yield") {
            Ok(_) => ok(),
            Err(x) => x,
        }
    });

    // poll_oneoff: clock subscriptions sleep via SYS_nanosleep; fd
    // subscriptions report ready immediately.
    wasi!("poll_oneoff", |b: &B, c: C, args: &[u64]| -> X {
        let (subs, events, n) = (
            a32(args, 0) as u32,
            a32(args, 1) as u32,
            a32(args, 2) as u32,
        );
        if n == 0 {
            return fail(INVAL);
        }
        let mem = wmem(c);
        let tag = mem.load::<1>(subs as u64 + 8).map(|b| b[0]).unwrap_or(0);
        if tag == 0 {
            let timeout = u64::from_le_bytes(mem.load::<8>(subs as u64 + 24).unwrap_or_default());
            let ts = STRUCT_SCRATCH;
            let _ = mem.store::<8>(ts as u64, (timeout / 1_000_000_000).to_le_bytes());
            let _ = mem.store::<8>(ts as u64 + 8, (timeout % 1_000_000_000).to_le_bytes());
            if let Err(x) = wali_call(&b.nanosleep, c, &[ts as u64, 0], "poll_oneoff") {
                return x;
            }
        }
        let userdata = mem.load::<8>(subs as u64).unwrap_or_default();
        let mut ev = [0u8; 32];
        ev[..8].copy_from_slice(&userdata);
        ev[10] = tag;
        let _ = mem.write(events as u64, &ev);
        let _ = mem.store::<4>(a32(args, 3) as u32 as u64, 1u32.to_le_bytes());
        ok()
    });
}

fn do_rw(base: &Wali, c: C, args: &[u64], write: bool, import: &'static str) -> X {
    let fd = a32(args, 0);
    let (iovs, iovcnt, nout) = (
        a32(args, 1) as u64,
        a32(args, 2) as u64,
        a32(args, 3) as u32,
    );
    // WASI ciovec has the same wasm32 layout as the WALI iovec, so
    // readv/writev pass through directly — layering at its thinnest.
    let f = if write { &base.writev } else { &base.readv };
    match wali_call(f, c, &[fd as u64, iovs, iovcnt], import) {
        Ok(ret) => match check(ret) {
            Ok(n) => {
                let mem = wmem(c);
                let _ = mem.store::<4>(nout as u64, (n as u32).to_le_bytes());
                ok()
            }
            Err(e) => e,
        },
        Err(x) => x,
    }
}

fn path_simple(
    c: C,
    args: &[u64],
    syscall: &HostFn<WaliContext>,
    import: &'static str,
    extra: u64,
) -> X {
    let (path, rights) =
        match resolve_path(c, a32(args, 0), a32(args, 1) as u32, a32(args, 2) as u32) {
            Ok(p) => p,
            Err(x) => return x,
        };
    if rights & RIGHT_PATH_WRITE == 0 {
        return fail(NOTCAPABLE);
    }
    let staged = match stage_path(c, &path) {
        Ok(p) => p,
        Err(x) => return x,
    };
    let call_args = [AT_FDCWD as u64, staged as u64, extra];
    match wali_call(syscall, c, &call_args, import) {
        Ok(ret) => match check(ret) {
            Ok(_) => ok(),
            Err(e) => e,
        },
        Err(x) => x,
    }
}

/// Converts a WALI `kstat` image (at `st`) into a WASI filestat at `out`.
fn write_wasi_filestat(c: C, st: u32, out: u32) {
    let mem = wmem(c);
    let dev = u64::from_le_bytes(mem.load::<8>(st as u64).unwrap_or_default());
    let ino = u64::from_le_bytes(mem.load::<8>(st as u64 + 8).unwrap_or_default());
    let mode = u32::from_le_bytes(mem.load::<4>(st as u64 + 16).unwrap_or_default());
    let nlink = u32::from_le_bytes(mem.load::<4>(st as u64 + 20).unwrap_or_default());
    let size = u64::from_le_bytes(mem.load::<8>(st as u64 + 48).unwrap_or_default());
    let filetype: u8 = match mode & S_IFMT {
        S_IFDIR => 3,
        S_IFREG => 4,
        _ => 0,
    };
    let mut img = [0u8; 64];
    img[0..8].copy_from_slice(&dev.to_le_bytes());
    img[8..16].copy_from_slice(&ino.to_le_bytes());
    img[16] = filetype;
    img[24..32].copy_from_slice(&(nlink as u64).to_le_bytes());
    img[32..40].copy_from_slice(&size.to_le_bytes());
    let _ = mem.write(out as u64, &img);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rights_narrow_correctly() {
        let mut s = WasiState::with_preopens(&["/tmp"]);
        assert_eq!(s.rights_of(3), RIGHTS_ALL);
        assert_eq!(
            s.rights_of(0) & RIGHT_FD_WRITE,
            RIGHT_FD_WRITE,
            "stdio writable"
        );
        assert_eq!(s.rights_of(9), 0, "unknown fd has no rights");
        s.grant(9, RIGHT_FD_READ);
        assert_eq!(s.rights_of(9), RIGHT_FD_READ);
        s.revoke(9);
        assert_eq!(s.rights_of(9), 0);
    }

    #[test]
    fn preopens_number_from_3() {
        let s = WasiState::with_preopens(&["/a", "/b"]);
        assert_eq!(s.preopen(3).unwrap().host_path, "/a");
        assert_eq!(s.preopen(4).unwrap().host_path, "/b");
        assert!(s.preopen(5).is_none());
    }
}
