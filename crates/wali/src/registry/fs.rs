//! File and filesystem syscalls: mostly zero-copy passthrough (§3.2).

use vkernel::kernel::fs::IoctlOut;
use vkernel::SysError;
use wali_abi::flags::{AT_FDCWD, AT_REMOVEDIR, AT_SYMLINK_NOFOLLOW, O_CREAT, O_RDWR};
use wali_abi::layout::{WaliIovec, WaliStat, WaliTimespec};
use wali_abi::Errno;
use wasm::host::Caller;

use crate::context::WaliContext;
use crate::fastpath;
use crate::mem::{check_range, page_chunks, read_bytes, write_bytes, write_fd_pair, write_u32};
use crate::registry::k;

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

/// The host-address-space escape hatch WALI interposes on (§3.6).
fn forbidden_path(path: &str) -> bool {
    path == "/proc/self/mem" || path.starts_with("/proc/self/mem/")
}

fn stat_out(c: C, ptr: u32, st: WaliStat) -> R {
    let mut buf = [0u8; WaliStat::SIZE];
    st.write_to(&mut buf)?;
    write_bytes(&c.instance.memory, ptr, &buf)?;
    Ok(0)
}

// Descriptor I/O runs against the kernel's shards — the task's fd
// table, the description, the VFS or one pipe/socket — without the
// kernel lock ([`crate::fastpath`]).

pub(super) fn read(c: C, fd: i32, buf: &mut [u8]) -> R {
    fastpath::read(c, fd, buf)
}

pub(super) fn write(c: C, fd: i32, buf: &[u8]) -> R {
    fastpath::write(c, fd, buf)
}

pub(super) fn pread64(c: C, fd: i32, buf: &mut [u8], offset: u64) -> R {
    fastpath::pread(c, fd, buf, offset)
}

pub(super) fn pwrite64(c: C, fd: i32, buf: &[u8], offset: u64) -> R {
    fastpath::pwrite(c, fd, buf, offset)
}

// Scatter-gather I/O needs layout conversion: wasm32 iovecs are 8 bytes,
// native ones 16 (§3.2 "Layout Conversion"). The positional variants
// route through `pread`/`pwrite`, leaving the file cursor unmoved like
// Linux.

pub(super) fn readv(c: C, fd: i32, iov: u32, iovcnt: usize) -> R {
    iov_rw(c, fd, iov, iovcnt, false, None)
}

pub(super) fn writev(c: C, fd: i32, iov: u32, iovcnt: usize) -> R {
    iov_rw(c, fd, iov, iovcnt, true, None)
}

pub(super) fn preadv(c: C, fd: i32, iov: u32, iovcnt: usize, offset: u64) -> R {
    iov_rw(c, fd, iov, iovcnt, false, Some(offset))
}

pub(super) fn pwritev(c: C, fd: i32, iov: u32, iovcnt: usize, offset: u64) -> R {
    iov_rw(c, fd, iov, iovcnt, true, Some(offset))
}

pub(super) fn open(c: C, path: String, flags: i32, mode: u32) -> R {
    openat(c, AT_FDCWD, path, flags, mode)
}

pub(super) fn openat(c: C, dirfd: i32, path: String, flags: i32, mode: u32) -> R {
    if forbidden_path(&path) {
        // Interposed before the kernel ever sees it.
        return Err(Errno::Eacces.into());
    }
    k(c, |kk, tid| kk.sys_openat(tid, dirfd, &path, flags, mode)).map(|fd| fd as i64)
}

pub(super) fn close(c: C, fd: i32) -> R {
    k(c, |kk, tid| kk.sys_close(tid, fd))
}

pub(super) fn lseek(c: C, fd: i32, offset: i64, whence: i32) -> R {
    fastpath::lseek(c, fd, offset, whence)
}

pub(super) fn dup(c: C, fd: i32) -> R {
    k(c, |kk, tid| kk.sys_dup(tid, fd))
}

pub(super) fn dup2(c: C, old: i32, new: i32) -> R {
    if old == new {
        // dup2 is a no-op on equal fds (dup3 errors instead).
        return k(c, |kk, tid| {
            kk.task(tid)?.fdtable.lock_ok().get(old)?;
            Ok(new as i64)
        });
    }
    k(c, |kk, tid| kk.sys_dup3(tid, old, new, 0))
}

pub(super) fn dup3(c: C, old: i32, new: i32, flags: i32) -> R {
    k(c, |kk, tid| kk.sys_dup3(tid, old, new, flags))
}

pub(super) fn pipe(c: C, fds: u32) -> R {
    pipe2(c, fds, 0)
}

/// Like Linux's `do_pipe2`, the descriptors are installed only once
/// `fds` is known to take them: a bad pointer leaves nothing open.
pub(super) fn pipe2(c: C, fds: u32, flags: i32) -> R {
    let mem = &*c.instance.memory;
    check_range(mem, fds, 8)?;
    let pair = k(c, |kk, tid| kk.sys_pipe2(tid, flags))?;
    write_fd_pair(mem, fds, pair)?;
    Ok(0)
}

pub(super) fn fcntl(c: C, fd: i32, cmd: i32, arg: i32) -> R {
    k(c, |kk, tid| kk.sys_fcntl(tid, fd, cmd, arg))
}

pub(super) fn ioctl(c: C, fd: i32, op: u64, argp: u32) -> R {
    let mem = &*c.instance.memory;
    match k(c, |kk, tid| kk.sys_ioctl(tid, fd, op))? {
        IoctlOut::Int(v) => {
            if argp != 0 {
                write_u32(mem, argp, v as u32)?;
            }
        }
        IoctlOut::Winsize { rows, cols } => {
            let mut ws = [0u8; 8];
            ws[0..2].copy_from_slice(&rows.to_le_bytes());
            ws[2..4].copy_from_slice(&cols.to_le_bytes());
            write_bytes(mem, argp, &ws)?;
        }
    }
    Ok(0)
}

/// Single-kernel model: advisory locks always succeed.
pub(super) fn flock(c: C, fd: i32, _op: i32) -> R {
    fsync(c, fd)
}

pub(super) fn fsync(c: C, fd: i32) -> R {
    k(c, |kk, tid| kk.sys_fsync(tid, fd))
}

pub(super) fn fdatasync(c: C, fd: i32) -> R {
    fsync(c, fd)
}

pub(super) fn sync(_c: C) -> R {
    Ok(0)
}

pub(super) fn truncate(c: C, path: String, len: u64) -> R {
    k(c, |kk, tid| kk.sys_truncate(tid, &path, len))
}

pub(super) fn ftruncate(c: C, fd: i32, len: u64) -> R {
    k(c, |kk, tid| kk.sys_ftruncate(tid, fd, len))
}

pub(super) fn fallocate(c: C, fd: i32, _mode: i32, off: u64, len: u64) -> R {
    k(c, |kk, tid| {
        let st = kk.sys_fstat(tid, fd)?;
        let want = off.checked_add(len).ok_or(Errno::Efbig)?;
        if (st.st_size as u64) < want {
            kk.sys_ftruncate(tid, fd, want)?;
        }
        Ok(0)
    })
}

pub(super) fn stat(c: C, path: String, statbuf: u32) -> R {
    let st = k(c, |kk, tid| kk.sys_fstatat(tid, AT_FDCWD, &path, 0))?;
    stat_out(c, statbuf, st)
}

pub(super) fn lstat(c: C, path: String, statbuf: u32) -> R {
    let st = k(c, |kk, tid| {
        kk.sys_fstatat(tid, AT_FDCWD, &path, AT_SYMLINK_NOFOLLOW)
    })?;
    stat_out(c, statbuf, st)
}

pub(super) fn fstat(c: C, fd: i32, statbuf: u32) -> R {
    let st = fastpath::fstat(c, fd)?;
    stat_out(c, statbuf, st)
}

pub(super) fn newfstatat(c: C, dirfd: i32, path: String, statbuf: u32, flags: i32) -> R {
    let st = if path.is_empty() {
        // AT_EMPTY_PATH convention.
        k(c, |kk, tid| kk.sys_fstat(tid, dirfd))?
    } else {
        k(c, |kk, tid| kk.sys_fstatat(tid, dirfd, &path, flags))?
    };
    stat_out(c, statbuf, st)
}

pub(super) fn getdents64(c: C, fd: i32, dirp: u32, count: usize) -> R {
    let mem = &*c.instance.memory;
    let entries = k(c, |kk, tid| kk.sys_getdents(tid, fd, count))?;
    // Sized by what the kernel found room for, never by the guest's
    // `count`.
    let mut image = vec![0u8; entries.iter().map(|e| e.reclen()).sum()];
    let mut used = 0;
    for e in &entries {
        match e.write_to(&mut image[used..]) {
            Some(n) => used += n,
            None => break,
        }
    }
    write_bytes(mem, dirp, &image[..used])?;
    Ok(used as i64)
}

pub(super) fn getcwd(c: C, buf: u32, size: usize) -> R {
    let mem = &*c.instance.memory;
    let cwd = k(c, |kk, tid| kk.sys_getcwd(tid))?;
    if cwd.len() + 1 > size {
        return Err(Errno::Erange.into());
    }
    write_bytes(mem, buf, cwd.as_bytes())?;
    write_bytes(mem, buf + cwd.len() as u32, &[0])?;
    Ok(cwd.len() as i64 + 1)
}

pub(super) fn chdir(c: C, path: String) -> R {
    k(c, |kk, tid| kk.sys_chdir(tid, &path))
}

pub(super) fn fchdir(c: C, fd: i32) -> R {
    k(c, |kk, tid| kk.sys_fchdir(tid, fd))
}

pub(super) fn mkdir(c: C, path: String, mode: u32) -> R {
    mkdirat(c, AT_FDCWD, path, mode)
}

pub(super) fn mkdirat(c: C, dirfd: i32, path: String, mode: u32) -> R {
    k(c, |kk, tid| kk.sys_mkdirat(tid, dirfd, &path, mode))
}

pub(super) fn rmdir(c: C, path: String) -> R {
    unlinkat(c, AT_FDCWD, path, AT_REMOVEDIR)
}

pub(super) fn unlink(c: C, path: String) -> R {
    unlinkat(c, AT_FDCWD, path, 0)
}

pub(super) fn unlinkat(c: C, dirfd: i32, path: String, flags: i32) -> R {
    k(c, |kk, tid| kk.sys_unlinkat(tid, dirfd, &path, flags))
}

pub(super) fn rename(c: C, old: String, new: String) -> R {
    renameat(c, AT_FDCWD, old, AT_FDCWD, new)
}

pub(super) fn renameat(c: C, ofd: i32, old: String, nfd: i32, new: String) -> R {
    k(c, |kk, tid| kk.sys_renameat(tid, ofd, &old, nfd, &new))
}

pub(super) fn renameat2(c: C, ofd: i32, old: String, nfd: i32, new: String, _flags: u32) -> R {
    renameat(c, ofd, old, nfd, new)
}

pub(super) fn link(c: C, old: String, new: String) -> R {
    linkat(c, AT_FDCWD, old, AT_FDCWD, new, 0)
}

pub(super) fn linkat(c: C, ofd: i32, old: String, nfd: i32, new: String, _flags: i32) -> R {
    k(c, |kk, tid| kk.sys_linkat(tid, ofd, &old, nfd, &new))
}

pub(super) fn symlink(c: C, target: String, path: String) -> R {
    symlinkat(c, target, AT_FDCWD, path)
}

pub(super) fn symlinkat(c: C, target: String, dirfd: i32, path: String) -> R {
    k(c, |kk, tid| kk.sys_symlinkat(tid, &target, dirfd, &path))
}

pub(super) fn readlink(c: C, path: String, buf: u32, size: usize) -> R {
    readlinkat(c, AT_FDCWD, path, buf, size)
}

pub(super) fn readlinkat(c: C, dirfd: i32, path: String, buf: u32, size: usize) -> R {
    let mem = &*c.instance.memory;
    let target = k(c, |kk, tid| kk.sys_readlinkat(tid, dirfd, &path))?;
    let n = target.len().min(size);
    write_bytes(mem, buf, &target[..n])?;
    Ok(n as i64)
}

pub(super) fn access(c: C, path: String, mode: i32) -> R {
    faccessat(c, AT_FDCWD, path, mode)
}

pub(super) fn faccessat(c: C, dirfd: i32, path: String, mode: i32) -> R {
    k(c, |kk, tid| kk.sys_faccessat(tid, dirfd, &path, mode))
}

pub(super) fn faccessat2(c: C, dirfd: i32, path: String, mode: i32, _flags: i32) -> R {
    faccessat(c, dirfd, path, mode)
}

pub(super) fn chmod(c: C, path: String, mode: u32) -> R {
    fchmodat(c, AT_FDCWD, path, mode)
}

pub(super) fn fchmod(c: C, fd: i32, mode: u32) -> R {
    k(c, |kk, tid| kk.sys_fchmod(tid, fd, mode))
}

pub(super) fn fchmodat(c: C, dirfd: i32, path: String, mode: u32) -> R {
    k(c, |kk, tid| kk.sys_fchmodat(tid, dirfd, &path, mode))
}

pub(super) fn chown(c: C, path: String, uid: u32, gid: u32) -> R {
    fchownat(c, AT_FDCWD, path, uid, gid, 0)
}

pub(super) fn fchown(c: C, fd: i32, uid: u32, gid: u32) -> R {
    k(c, |kk, tid| kk.sys_fchown(tid, fd, uid, gid))
}

pub(super) fn fchownat(c: C, dirfd: i32, path: String, uid: u32, gid: u32, flags: i32) -> R {
    k(c, |kk, tid| {
        kk.sys_fchownat(tid, dirfd, &path, uid, gid, flags)
    })
}

pub(super) fn umask(c: C, mask: u32) -> R {
    k(c, |kk, tid| kk.sys_umask(tid, mask))
}

/// Userspace mknod: regular files only (devices are privileged).
pub(super) fn mknod(c: C, path: String, mode: u32, _dev: u64) -> R {
    k(c, |kk, tid| {
        kk.sys_openat(tid, AT_FDCWD, &path, O_CREAT | O_RDWR, mode)
            .and_then(|fd| kk.sys_close(tid, fd))
    })
}

pub(super) fn utimensat(
    c: C,
    dirfd: i32,
    path: Option<String>,
    times: Option<u32>,
    _flags: i32,
) -> R {
    if let Some(path) = path {
        k(c, |kk, tid| kk.sys_faccessat(tid, dirfd, &path, 0))?;
    }
    // Timestamps accepted; the virtual clock owns time.
    if let Some(times) = times {
        let raw = read_bytes(&c.instance.memory, times, 2 * WaliTimespec::SIZE)?;
        WaliTimespec::read_from(&raw[..WaliTimespec::SIZE])?;
    }
    Ok(0)
}

/// One filesystem: what `statfs` describes is any path that resolves …
pub(super) fn statfs(c: C, path: String, buf: u32) -> R {
    k(c, |kk, tid| kk.sys_faccessat(tid, AT_FDCWD, &path, 0))?;
    write_statfs(&c.instance.memory, buf)
}

/// … or any open descriptor (`fsync`'s check: the descriptor is open).
pub(super) fn fstatfs(c: C, fd: i32, buf: u32) -> R {
    k(c, |kk, tid| kk.sys_fsync(tid, fd))?;
    write_statfs(&c.instance.memory, buf)
}

pub(super) fn sendfile(c: C, out_fd: i32, in_fd: i32, _offset: Option<u32>, count: usize) -> R {
    k(c, |kk, tid| {
        let mut moved = 0usize;
        let mut chunk = [0u8; 4096];
        while moved < count {
            let want = chunk.len().min(count - moved);
            let n = kk.sys_read(tid, in_fd, &mut chunk[..want])? as usize;
            if n == 0 {
                break;
            }
            let w = kk.sys_write(tid, out_fd, &chunk[..n])? as usize;
            moved += w;
            if w < n {
                break;
            }
        }
        Ok(moved as i64)
    })
}

pub(super) fn copy_file_range(
    c: C,
    in_fd: i32,
    _off_in: Option<u32>,
    out_fd: i32,
    _off_out: Option<u32>,
    count: usize,
    _flags: u32,
) -> R {
    k(c, |kk, tid| {
        let mut moved = 0usize;
        let mut chunk = [0u8; 4096];
        while moved < count {
            let want = chunk.len().min(count - moved);
            let n = kk.sys_read(tid, in_fd, &mut chunk[..want])? as usize;
            if n == 0 {
                break;
            }
            kk.sys_write(tid, out_fd, &chunk[..n])?;
            moved += n;
        }
        Ok(moved as i64)
    })
}

pub(super) fn eventfd2(c: C, initval: u32, flags: i32) -> R {
    k(c, |kk, tid| kk.sys_eventfd2(tid, initval, flags))
}

/// Shared core of `readv`/`writev`/`preadv`/`pwritev` and the ring's
/// vectored SQE opcodes ([`fastpath::vectored`]). Each iov is walked in
/// page-sized `page_chunks` so the kernel sees zero-copy views that never
/// cross a store page.
pub(crate) fn iov_rw(
    c: C,
    fd: i32,
    iov_ptr: u32,
    iovcnt: usize,
    write: bool,
    offset: Option<u64>,
) -> R {
    // Linux bounds iovcnt by UIO_MAXIOV before touching the array; do
    // the same (and use a checked multiply) so a hostile count can't
    // size an allocation.
    if iovcnt > wali_abi::ring::IOV_MAX {
        return Err(Errno::Einval.into());
    }
    let bytes = iovcnt.checked_mul(WaliIovec::SIZE).ok_or(Errno::Einval)?;
    let raw = read_bytes(&c.instance.memory, iov_ptr, bytes)?;
    let iovs = WaliIovec::read_array(&raw, iovcnt)?;
    let chunks = iovs.iter().flat_map(|iov| page_chunks(iov.base, iov.len));
    fastpath::vectored(c, fd, chunks, write, offset)
}

/// Writes a minimal ISA-portable `statfs` image (tmpfs-flavoured).
fn write_statfs(mem: &wasm::mem::Memory, ptr: u32) -> R {
    let mut buf = [0u8; 120];
    let fields: [(usize, u64); 7] = [
        (0, 0x0102_1994), // f_type = TMPFS_MAGIC
        (8, 4096),        // f_bsize
        (16, 4_000_000),  // f_blocks
        (24, 2_000_000),  // f_bfree
        (32, 2_000_000),  // f_bavail
        (40, 1_000_000),  // f_files
        (48, 900_000),    // f_ffree
    ];
    for (off, v) in fields {
        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
    write_bytes(mem, ptr, &buf)?;
    Ok(0)
}
