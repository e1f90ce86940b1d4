//! Descriptor I/O without the kernel lock.
//!
//! `read`, `write`, `pread64`, `pwrite64`, `lseek` and `fstat` (and,
//! through them, the vectored forms and the ring's opcodes) touch only
//! shards of the kernel model: the task's own fd table, the open file
//! description, and behind it the VFS, one pipe or one socket, the
//! waitqueue and the clock. The operations themselves live in
//! [`vkernel::kernel::io`], where `Kernel::sys_read` and friends call
//! them too; this module is the embedder's way in:
//!
//! 1. **One resolution.** [`with_file`] finds the description through
//!    the fd table handle the context has kept since the task was made,
//!    and whoever ends up serving the call — the shards, or the kernel core
//!    for what [`vkernel::kernel::io::Core`] names — is handed *that*
//!    description. Nothing is probed and then redone.
//! 2. **The last reference releases.** The call holds a reference to
//!    the description while no lock orders it against a `close` on
//!    another worker, so it drops it the way Linux's `fput` does
//!    ([`with_file`]): `Arc::into_inner` tells exactly one of the two
//!    that it was the last, and that one releases the pipe end or
//!    socket.
//! 3. **Signal precedence.** Whether a park would be interrupted is the
//!    core's to know. Every kill path raises the task's
//!    [`vkernel::HintFlag`] *before* posting its wakeup, so a call that
//!    finds the hint down may park on its own
//!    ([`vkernel::kernel::io::Intr::HintDown`] — all but a stream
//!    socket's receive, whose park the core makes: see there); one that
//!    finds it up — on entry, or again straight after subscribing —
//!    goes through `Kernel::read_file`/`write_file` under the kernel
//!    lock, which see the pending signal and answer `EINTR`.

use std::sync::Arc;

use vkernel::fd::FileRef;
use vkernel::kernel::io::{Core, Intr};
use vkernel::{MutexExt, SysError};
use wali_abi::layout::WaliStat;
use wasm::host::Caller;

use crate::context::WaliContext;
use crate::registry::k;

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

/// One descriptor call: resolves `fd` once — through the task's own fd
/// table, never behind the kernel lock — lends the description to `f`,
/// and releases it if a `close` elsewhere made this the last reference
/// meanwhile.
fn with_file<T>(
    c: C,
    fd: i32,
    f: impl FnOnce(C, &FileRef) -> Result<T, SysError>,
) -> Result<T, SysError> {
    let file = c.data.fdtable.lock_ok().file(fd)?;
    let r = f(c, &file);
    let key = Arc::as_ptr(&file) as usize;
    if let Some(last) = Arc::into_inner(file) {
        k(c, |kk, _| kk.release_description(last.into_inner(), key));
    }
    r
}

/// How a `read` or `write` goes on once the shards had their turn.
enum Next {
    /// Served.
    Done(R),
    /// The description is one whose call the kernel core finishes.
    Rest(Core),
    /// The signal hint is up: the whole call runs under the kernel lock.
    Locked,
}

/// Runs `io` against the shards unless the signal hint says the core
/// must. A park the hint has overtaken is undone: the hint was raised
/// before the signal's wakeup post, so observing it here is enough, and
/// the redo under the kernel lock sees the pending signal.
fn on_shards(
    c: C,
    io: impl FnOnce(&vkernel::KernelHandles, vkernel::Tid) -> Result<R, Core>,
) -> Next {
    if c.data.hint_raised() {
        return Next::Locked;
    }
    match c.data.with_shards(io) {
        Ok(Err(SysError::Block(_))) if c.data.hint_raised() => {
            c.data.handles.waits.lock().unsubscribe(c.data.tid);
            Next::Locked
        }
        Ok(r) => {
            c.data.trace.fastpath_hits += 1;
            Next::Done(r)
        }
        Err(rest) => Next::Rest(rest),
    }
}

/// `read(fd, out)`.
pub(crate) fn read(c: C, fd: i32, out: &mut [u8]) -> R {
    with_file(c, fd, |c, file| {
        match on_shards(c, |h, tid| h.read(tid, file, out, Intr::HintDown)) {
            Next::Done(r) => r,
            Next::Rest(rest) => k(c, |kk, tid| kk.finish_read(tid, rest, out)),
            Next::Locked => k(c, |kk, tid| kk.read_file(tid, file, out)),
        }
    })
}

/// `write(fd, data)`.
pub(crate) fn write(c: C, fd: i32, data: &[u8]) -> R {
    with_file(c, fd, |c, file| {
        match on_shards(c, |h, tid| h.write(tid, file, data, Intr::HintDown)) {
            Next::Done(r) => r,
            Next::Rest(rest) => k(c, |kk, tid| kk.finish_write(tid, rest, data)),
            Next::Locked => k(c, |kk, tid| kk.write_file(tid, file, data)),
        }
    })
}

/// `pread64(fd, out, offset)`.
pub(crate) fn pread(c: C, fd: i32, out: &mut [u8], offset: u64) -> R {
    with_file(c, fd, |c, file| {
        c.data.with_shards(|h, _| h.pread(file, out, offset))
    })
}

/// `pwrite64(fd, data, offset)`.
pub(crate) fn pwrite(c: C, fd: i32, data: &[u8], offset: u64) -> R {
    with_file(c, fd, |c, file| {
        c.data.with_shards(|h, _| h.pwrite(file, data, offset))
    })
}

/// `lseek(fd, offset, whence)`.
pub(crate) fn lseek(c: C, fd: i32, offset: i64, whence: i32) -> R {
    with_file(c, fd, |c, file| {
        c.data.with_shards(|h, _| h.lseek(file, offset, whence))
    })
}

/// `fstat(fd)`.
pub(crate) fn fstat(c: C, fd: i32) -> Result<WaliStat, SysError> {
    with_file(c, fd, |c, file| c.data.with_shards(|h, _| h.fstat(file)))
}
