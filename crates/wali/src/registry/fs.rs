//! File and filesystem syscalls: mostly zero-copy passthrough (§3.2).

use vkernel::kernel::fs::IoctlOut;
use vkernel::SysError;
use wali_abi::flags::{AT_FDCWD, AT_REMOVEDIR, AT_SYMLINK_NOFOLLOW, O_RDWR};
use wali_abi::layout::{WaliIovec, WaliStat, WaliTimespec};
use wali_abi::Errno;
use wasm::host::{Caller, Linker};

use crate::context::WaliContext;
use crate::fastpath;
use crate::mem::{
    arg, arg_i32, arg_ptr, page_chunks, read_bytes, read_cstr, with_slice, with_slice_mut,
    write_bytes, write_u32,
};
use crate::registry::{flat, k, sys};
use vkernel::MutexExt;

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

/// The host-address-space escape hatch WALI interposes on (§3.6).
fn forbidden_path(path: &str) -> bool {
    path == "/proc/self/mem" || path.starts_with("/proc/self/mem/")
}

fn do_openat(c: C, dirfd: i32, path: &str, flags: i32, mode: u32) -> R {
    if forbidden_path(path) {
        // Interposed before the kernel ever sees it.
        return Err(Errno::Eacces.into());
    }
    k(c, |kk, tid| kk.sys_openat(tid, dirfd, path, flags, mode)).map(|fd| fd as i64)
}

fn stat_out(c: C, ptr: u32, st: WaliStat) -> R {
    let mut buf = [0u8; WaliStat::SIZE];
    st.write_to(&mut buf).map_err(SysError::Err)?;
    write_bytes(&c.instance.memory, ptr, &buf).map_err(SysError::Err)?;
    Ok(0)
}

pub(crate) fn register(l: &mut Linker<WaliContext>) {
    // Descriptor I/O runs against the kernel's shards — the task's fd
    // table, the description, the VFS or one pipe/socket — without the
    // kernel lock ([`crate::fastpath`]).
    sys!(l, "read", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len) = (arg_i32(a, 0), arg_ptr(a, 1), arg(a, 2) as usize);
        let mem = &*c.instance.memory;
        flat(with_slice_mut(mem, ptr, len, |buf| {
            fastpath::read(c, fd, buf)
        }))
    });

    sys!(l, "write", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len) = (arg_i32(a, 0), arg_ptr(a, 1), arg(a, 2) as usize);
        let mem = &*c.instance.memory;
        flat(with_slice(mem, ptr, len, |buf| fastpath::write(c, fd, buf)))
    });

    sys!(l, "pread64", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len, off) = (
            arg_i32(a, 0),
            arg_ptr(a, 1),
            arg(a, 2) as usize,
            arg(a, 3) as u64,
        );
        let mem = &*c.instance.memory;
        flat(with_slice_mut(mem, ptr, len, |buf| {
            fastpath::pread(c, fd, buf, off)
        }))
    });

    sys!(l, "pwrite64", |c: C, a: &[u64]| -> R {
        let (fd, ptr, len, off) = (
            arg_i32(a, 0),
            arg_ptr(a, 1),
            arg(a, 2) as usize,
            arg(a, 3) as u64,
        );
        let mem = &*c.instance.memory;
        flat(with_slice(mem, ptr, len, |buf| {
            fastpath::pwrite(c, fd, buf, off)
        }))
    });

    // Scatter-gather I/O needs layout conversion: wasm32 iovecs are 8
    // bytes, native ones 16 (§3.2 "Layout Conversion"). The positional
    // variants route through `pread`/`pwrite`, leaving the file cursor
    // unmoved like Linux.
    sys!(l, "readv", |c: C, a: &[u64]| -> R {
        do_iov(c, a, false, false)
    });
    sys!(l, "writev", |c: C, a: &[u64]| -> R {
        do_iov(c, a, true, false)
    });
    sys!(l, "preadv", |c: C, a: &[u64]| -> R {
        do_iov(c, a, false, true)
    });
    sys!(l, "pwritev", |c: C, a: &[u64]| -> R {
        do_iov(c, a, true, true)
    });

    sys!(l, "open", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        do_openat(c, AT_FDCWD, &path, arg_i32(a, 1), arg(a, 2) as u32)
    });

    sys!(l, "openat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        do_openat(c, arg_i32(a, 0), &path, arg_i32(a, 2), arg(a, 3) as u32)
    });

    sys!(l, "close", |c: C, a: &[u64]| -> R {
        let fd = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_close(tid, fd))
    });

    sys!(l, "lseek", |c: C, a: &[u64]| -> R {
        let (fd, off, whence) = (arg_i32(a, 0), arg(a, 1), arg_i32(a, 2));
        fastpath::lseek(c, fd, off, whence)
    });

    sys!(l, "dup", |c: C, a: &[u64]| -> R {
        let fd = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_dup(tid, fd))
    });

    sys!(l, "dup2", |c: C, a: &[u64]| -> R {
        let (old, new) = (arg_i32(a, 0), arg_i32(a, 1));
        if old == new {
            // dup2 is a no-op on equal fds (dup3 errors instead).
            return k(c, |kk, tid| {
                kk.task(tid)
                    .and_then(|t| t.fdtable.lock_ok().get(old).map(|_| new as i64))
                    .map_err(SysError::Err)
            });
        }
        k(c, |kk, tid| kk.sys_dup3(tid, old, new, 0))
    });

    sys!(l, "dup3", |c: C, a: &[u64]| -> R {
        let (old, new, flags) = (arg_i32(a, 0), arg_i32(a, 1), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_dup3(tid, old, new, flags))
    });

    sys!(l, "pipe", |c: C, a: &[u64]| -> R {
        do_pipe(c, arg_ptr(a, 0), 0)
    });
    sys!(l, "pipe2", |c: C, a: &[u64]| -> R {
        do_pipe(c, arg_ptr(a, 0), arg_i32(a, 1))
    });

    sys!(l, "fcntl", |c: C, a: &[u64]| -> R {
        let (fd, cmd, argv) = (arg_i32(a, 0), arg_i32(a, 1), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_fcntl(tid, fd, cmd, argv))
    });

    sys!(l, "ioctl", |c: C, a: &[u64]| -> R {
        let (fd, op, argp) = (arg_i32(a, 0), arg(a, 1) as u64, arg_ptr(a, 2));
        let mem = &*c.instance.memory;
        let out = k(c, |kk, tid| kk.sys_ioctl(tid, fd, op))?;
        match out {
            IoctlOut::Int(v) => {
                if argp != 0 {
                    write_u32(mem, argp, v as u32).map_err(SysError::Err)?;
                }
                Ok(0)
            }
            IoctlOut::Winsize { rows, cols } => {
                let mut ws = [0u8; 8];
                ws[0..2].copy_from_slice(&rows.to_le_bytes());
                ws[2..4].copy_from_slice(&cols.to_le_bytes());
                write_bytes(mem, argp, &ws).map_err(SysError::Err)?;
                Ok(0)
            }
        }
    });

    sys!(l, "flock", |c: C, a: &[u64]| -> R {
        // Single-kernel model: advisory locks always succeed.
        let fd = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_fsync(tid, fd))
    });

    sys!(l, "fsync", |c: C, a: &[u64]| -> R {
        let fd = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_fsync(tid, fd))
    });
    sys!(l, "fdatasync", |c: C, a: &[u64]| -> R {
        let fd = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_fsync(tid, fd))
    });
    sys!(l, "sync", |_c: C, _a: &[u64]| -> R { Ok(0) });

    sys!(l, "truncate", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let len = arg(a, 1) as u64;
        k(c, |kk, tid| kk.sys_truncate(tid, &path, len))
    });

    sys!(l, "ftruncate", |c: C, a: &[u64]| -> R {
        let (fd, len) = (arg_i32(a, 0), arg(a, 1) as u64);
        k(c, |kk, tid| kk.sys_ftruncate(tid, fd, len))
    });

    sys!(l, "fallocate", |c: C, a: &[u64]| -> R {
        let (fd, off, len) = (arg_i32(a, 0), arg(a, 2) as u64, arg(a, 3) as u64);
        k(c, |kk, tid| {
            let st = kk.sys_fstat(tid, fd)?;
            let want = off.checked_add(len).ok_or(Errno::Efbig)?;
            if (st.st_size as u64) < want {
                kk.sys_ftruncate(tid, fd, want)?;
            }
            Ok(0)
        })
    });

    sys!(l, "stat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let st = k(c, |kk, tid| kk.sys_fstatat(tid, AT_FDCWD, &path, 0))?;
        stat_out(c, arg_ptr(a, 1), st)
    });

    sys!(l, "lstat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let st = k(c, |kk, tid| {
            kk.sys_fstatat(tid, AT_FDCWD, &path, AT_SYMLINK_NOFOLLOW)
        })?;
        stat_out(c, arg_ptr(a, 1), st)
    });

    sys!(l, "fstat", |c: C, a: &[u64]| -> R {
        let st = fastpath::fstat(c, arg_i32(a, 0))?;
        stat_out(c, arg_ptr(a, 1), st)
    });

    sys!(l, "newfstatat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let (dirfd, flags) = (arg_i32(a, 0), arg_i32(a, 3));
        let st = if path.is_empty() {
            // AT_EMPTY_PATH convention.
            k(c, |kk, tid| kk.sys_fstat(tid, dirfd))?
        } else {
            k(c, |kk, tid| kk.sys_fstatat(tid, dirfd, &path, flags))?
        };
        stat_out(c, arg_ptr(a, 2), st)
    });

    sys!(l, "getdents64", |c: C, a: &[u64]| -> R {
        let (fd, dirp, count) = (arg_i32(a, 0), arg_ptr(a, 1), arg(a, 2) as usize);
        let mem = &*c.instance.memory;
        let entries = k(c, |kk, tid| kk.sys_getdents(tid, fd, count))?;
        let mut image = vec![0u8; count];
        let mut used = 0;
        for e in &entries {
            match e.write_to(&mut image[used..]) {
                Some(n) => used += n,
                None => break,
            }
        }
        write_bytes(mem, dirp, &image[..used]).map_err(SysError::Err)?;
        Ok(used as i64)
    });

    sys!(l, "getcwd", |c: C, a: &[u64]| -> R {
        let (buf, size) = (arg_ptr(a, 0), arg(a, 1) as usize);
        let mem = &*c.instance.memory;
        let cwd = k(c, |kk, tid| kk.sys_getcwd(tid))?;
        if cwd.len() + 1 > size {
            return Err(Errno::Erange.into());
        }
        write_bytes(mem, buf, cwd.as_bytes()).map_err(SysError::Err)?;
        write_bytes(mem, buf + cwd.len() as u32, &[0]).map_err(SysError::Err)?;
        Ok(cwd.len() as i64 + 1)
    });

    sys!(l, "chdir", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        k(c, |kk, tid| kk.sys_chdir(tid, &path))
    });

    sys!(l, "fchdir", |c: C, a: &[u64]| -> R {
        let fd = arg_i32(a, 0);
        k(c, |kk, tid| kk.sys_fchdir(tid, fd))
    });

    sys!(l, "mkdir", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let mode = arg(a, 1) as u32;
        k(c, |kk, tid| kk.sys_mkdirat(tid, AT_FDCWD, &path, mode))
    });

    sys!(l, "mkdirat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let (dirfd, mode) = (arg_i32(a, 0), arg(a, 2) as u32);
        k(c, |kk, tid| kk.sys_mkdirat(tid, dirfd, &path, mode))
    });

    sys!(l, "rmdir", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        k(c, |kk, tid| {
            kk.sys_unlinkat(tid, AT_FDCWD, &path, AT_REMOVEDIR)
        })
    });

    sys!(l, "unlink", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        k(c, |kk, tid| kk.sys_unlinkat(tid, AT_FDCWD, &path, 0))
    });

    sys!(l, "unlinkat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let (dirfd, flags) = (arg_i32(a, 0), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_unlinkat(tid, dirfd, &path, flags))
    });

    sys!(l, "rename", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let old = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let new = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        k(c, |kk, tid| {
            kk.sys_renameat(tid, AT_FDCWD, &old, AT_FDCWD, &new)
        })
    });

    sys!(l, "renameat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let old = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let new = read_cstr(mem, arg_ptr(a, 3)).map_err(SysError::Err)?;
        let (ofd, nfd) = (arg_i32(a, 0), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_renameat(tid, ofd, &old, nfd, &new))
    });

    sys!(l, "renameat2", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let old = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let new = read_cstr(mem, arg_ptr(a, 3)).map_err(SysError::Err)?;
        let (ofd, nfd) = (arg_i32(a, 0), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_renameat(tid, ofd, &old, nfd, &new))
    });

    sys!(l, "link", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let old = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let new = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        k(c, |kk, tid| {
            kk.sys_linkat(tid, AT_FDCWD, &old, AT_FDCWD, &new)
        })
    });

    sys!(l, "linkat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let old = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let new = read_cstr(mem, arg_ptr(a, 3)).map_err(SysError::Err)?;
        let (ofd, nfd) = (arg_i32(a, 0), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_linkat(tid, ofd, &old, nfd, &new))
    });

    sys!(l, "symlink", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let target = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        k(c, |kk, tid| kk.sys_symlinkat(tid, &target, AT_FDCWD, &path))
    });

    sys!(l, "symlinkat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let target = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let path = read_cstr(mem, arg_ptr(a, 2)).map_err(SysError::Err)?;
        let dirfd = arg_i32(a, 1);
        k(c, |kk, tid| kk.sys_symlinkat(tid, &target, dirfd, &path))
    });

    sys!(l, "readlink", |c: C, a: &[u64]| -> R {
        do_readlink(
            c,
            AT_FDCWD,
            arg_ptr(a, 0),
            arg_ptr(a, 1),
            arg(a, 2) as usize,
        )
    });

    sys!(l, "readlinkat", |c: C, a: &[u64]| -> R {
        do_readlink(
            c,
            arg_i32(a, 0),
            arg_ptr(a, 1),
            arg_ptr(a, 2),
            arg(a, 3) as usize,
        )
    });

    sys!(l, "access", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let mode = arg_i32(a, 1);
        k(c, |kk, tid| kk.sys_faccessat(tid, AT_FDCWD, &path, mode))
    });

    sys!(l, "faccessat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let (dirfd, mode) = (arg_i32(a, 0), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_faccessat(tid, dirfd, &path, mode))
    });

    sys!(l, "faccessat2", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let (dirfd, mode) = (arg_i32(a, 0), arg_i32(a, 2));
        k(c, |kk, tid| kk.sys_faccessat(tid, dirfd, &path, mode))
    });

    sys!(l, "chmod", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let mode = arg(a, 1) as u32;
        k(c, |kk, tid| kk.sys_fchmodat(tid, AT_FDCWD, &path, mode))
    });

    sys!(l, "fchmod", |c: C, a: &[u64]| -> R {
        let (fd, mode) = (arg_i32(a, 0), arg(a, 1) as u32);
        k(c, |kk, tid| kk.sys_fchmod(tid, fd, mode))
    });

    sys!(l, "fchmodat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let (dirfd, mode) = (arg_i32(a, 0), arg(a, 2) as u32);
        k(c, |kk, tid| kk.sys_fchmodat(tid, dirfd, &path, mode))
    });

    sys!(l, "chown", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let (uid, gid) = (arg(a, 1) as u32, arg(a, 2) as u32);
        k(c, |kk, tid| {
            kk.sys_fchownat(tid, AT_FDCWD, &path, uid, gid, 0)
        })
    });

    sys!(l, "fchown", |_c: C, a: &[u64]| -> R {
        // fd-relative chown: resolve through fstat then ignore (ids only).
        let _fd = arg_i32(a, 0);
        Ok(0)
    });

    sys!(l, "fchownat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 1)).map_err(SysError::Err)?;
        let (dirfd, uid, gid, flags) = (
            arg_i32(a, 0),
            arg(a, 2) as u32,
            arg(a, 3) as u32,
            arg_i32(a, 4),
        );
        k(c, |kk, tid| {
            kk.sys_fchownat(tid, dirfd, &path, uid, gid, flags)
        })
    });

    sys!(l, "umask", |c: C, a: &[u64]| -> R {
        let mask = arg(a, 0) as u32;
        k(c, |kk, tid| kk.sys_umask(tid, mask))
    });

    sys!(l, "mknod", |c: C, a: &[u64]| -> R {
        // Userspace mknod: regular files only (devices are privileged).
        let mem = &*c.instance.memory;
        let path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        let mode = arg(a, 1) as u32;
        k(c, |kk, tid| {
            kk.sys_openat(
                tid,
                AT_FDCWD,
                &path,
                wali_abi::flags::O_CREAT | O_RDWR,
                mode,
            )
            .and_then(|fd| kk.sys_close(tid, fd))
        })
    });

    sys!(l, "utimensat", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let path_ptr = arg_ptr(a, 1);
        if path_ptr != 0 {
            let path = read_cstr(mem, path_ptr).map_err(SysError::Err)?;
            let dirfd = arg_i32(a, 0);
            k(c, |kk, tid| kk.sys_faccessat(tid, dirfd, &path, 0))?;
        }
        // Timestamps accepted; the virtual clock owns time.
        let times_ptr = arg_ptr(a, 2);
        if times_ptr != 0 {
            let raw = read_bytes(mem, times_ptr, 2 * WaliTimespec::SIZE).map_err(SysError::Err)?;
            WaliTimespec::read_from(&raw[..WaliTimespec::SIZE]).map_err(SysError::Err)?;
        }
        Ok(0)
    });

    sys!(l, "statfs", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        let _path = read_cstr(mem, arg_ptr(a, 0)).map_err(SysError::Err)?;
        write_statfs(mem, arg_ptr(a, 1))
    });

    sys!(l, "fstatfs", |c: C, a: &[u64]| -> R {
        let mem = &*c.instance.memory;
        write_statfs(mem, arg_ptr(a, 1))
    });

    sys!(l, "sendfile", |c: C, a: &[u64]| -> R {
        let (out_fd, in_fd, count) = (arg_i32(a, 0), arg_i32(a, 1), arg(a, 3) as usize);
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
    });

    sys!(l, "copy_file_range", |c: C, a: &[u64]| -> R {
        let (in_fd, out_fd, count) = (arg_i32(a, 0), arg_i32(a, 2), arg(a, 4) as usize);
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
    });

    sys!(l, "eventfd2", |c: C, a: &[u64]| -> R {
        let (initval, flags) = (arg(a, 0) as u32, arg_i32(a, 1));
        k(c, |kk, tid| kk.sys_eventfd2(tid, initval, flags))
    });

    sys!(l, "statx", |_c: C, _a: &[u64]| -> R {
        // Modern stat variant: libcs fall back to newfstatat on ENOSYS.
        Err(Errno::Enosys.into())
    });
}

fn do_pipe(c: C, fds_ptr: u32, flags: i32) -> R {
    let mem = &*c.instance.memory;
    let (r, w) = k(c, |kk, tid| kk.sys_pipe2(tid, flags))?;
    write_u32(mem, fds_ptr, r as u32).map_err(SysError::Err)?;
    write_u32(mem, fds_ptr + 4, w as u32).map_err(SysError::Err)?;
    Ok(0)
}

fn do_readlink(c: C, dirfd: i32, path_ptr: u32, buf: u32, size: usize) -> R {
    let mem = &*c.instance.memory;
    let path = read_cstr(mem, path_ptr).map_err(SysError::Err)?;
    let target = k(c, |kk, tid| kk.sys_readlinkat(tid, dirfd, &path))?;
    let n = target.len().min(size);
    write_bytes(mem, buf, &target[..n]).map_err(SysError::Err)?;
    Ok(n as i64)
}

fn do_iov(c: C, a: &[u64], write: bool, positional: bool) -> R {
    let (fd, iov_ptr, iovcnt) = (arg_i32(a, 0), arg_ptr(a, 1), arg(a, 2) as usize);
    let offset = if positional {
        Some(arg(a, 3) as u64)
    } else {
        None
    };
    iov_rw(c, fd, iov_ptr, iovcnt, write, offset)
}

/// Shared core of `readv`/`writev`/`preadv`/`pwritev` and the ring's
/// vectored SQE opcodes. Positional calls (`offset` set) go through
/// `pread`/`pwrite` at `offset + bytes-done`, leaving the file cursor
/// unmoved; sequential calls move it as usual.
///
/// Blocking follows Linux's short-count rule: once any bytes have
/// transferred, a would-block (or error) on a later iov returns the
/// partial total instead of propagating — `Block`ing the whole syscall
/// would re-execute the completed iovs on retry and duplicate their
/// data. Only a zero-progress block propagates; that retry is
/// idempotent. Each iov is walked in page-sized `page_chunks` so the
/// kernel sees zero-copy views that never cross a store page.
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
    let mem = &*c.instance.memory;
    let raw = read_bytes(mem, iov_ptr, bytes).map_err(SysError::Err)?;
    let iovs = WaliIovec::read_array(&raw, iovcnt).map_err(SysError::Err)?;
    let mut total = 0i64;
    for iov in iovs {
        if iov.len == 0 {
            continue;
        }
        let mut done = 0u32;
        let mut short = false;
        for (addr, len) in page_chunks(iov.base, iov.len) {
            let pos = offset.map(|off| off.wrapping_add(total as u64 + done as u64));
            let r = if write {
                flat(with_slice(mem, addr, len as usize, |buf| match pos {
                    Some(off) => fastpath::pwrite(c, fd, buf, off),
                    None => fastpath::write(c, fd, buf),
                }))
            } else {
                flat(with_slice_mut(mem, addr, len as usize, |buf| match pos {
                    Some(off) => fastpath::pread(c, fd, buf, off),
                    None => fastpath::read(c, fd, buf),
                }))
            };
            match r {
                Ok(n) => {
                    done += n as u32;
                    if (n as u32) < len {
                        short = true;
                        break;
                    }
                }
                Err(e) if total == 0 && done == 0 => return Err(e),
                Err(_) => return Ok(total + done as i64),
            }
        }
        total += done as i64;
        if short {
            break;
        }
    }
    Ok(total)
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
    write_bytes(mem, ptr, &buf).map_err(SysError::Err)?;
    Ok(0)
}
