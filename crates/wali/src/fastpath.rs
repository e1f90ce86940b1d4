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
//!    and whoever ends up serving the call — the shards, or the kernel
//!    core for what [`vkernel::kernel::io::Core`] names — is handed
//!    *that* description. Nothing is probed and then redone. A vectored
//!    call resolves once for all its transfers ([`vectored`]).
//! 2. **Borrowed while the table is the task's alone.** When
//!    `FdTable::members` is one, no other task can close or replace a
//!    descriptor, so the call runs on the description in place, holding
//!    the table's lock (`LockClass::Files`) — Linux's `__fget_light`: no
//!    reference taken, none dropped. If no other descriptor names the
//!    description either, its offset moves without the description lock
//!    (`OpenFile::pos`, Linux's `fdget_pos`). A part the kernel core
//!    must finish leaves the table's lock first, with a reference of its
//!    own.
//! 3. **The last reference releases.** On a table `CLONE_FILES` siblings
//!    share, the call takes a reference and releases the table's lock,
//!    so the description may be closed on another worker meanwhile; the
//!    call drops its reference the way Linux's `fput` does ([`release`]):
//!    `Arc::into_inner` tells exactly one of the two that it was the
//!    last, and that one releases the pipe end or socket.
//! 4. **Signal precedence.** Whether a park would be interrupted is the
//!    core's to know. Every kill path raises the task's
//!    [`vkernel::HintFlag`] *before* posting its wakeup, so a call that
//!    finds the hint down may park on its own
//!    ([`vkernel::kernel::io::Intr::HintDown`] — all but a stream
//!    socket's receive, whose park the core makes: see there); one that
//!    finds it up — on entry, or again straight after subscribing —
//!    goes through `Kernel::read_file`/`write_file` under the kernel
//!    lock, which see the pending signal and answer `EINTR`.
//! 5. **The tick is the context's.** A regular file's `write` and
//!    `pwrite64` stamp the inode from the shared clock, so they charge
//!    the task's deferred syscall ticks to it first
//!    ([`crate::context::Shards::flush_ticks`]).

use std::sync::Arc;

use vkernel::fd::{FileKind, FileRef};
use vkernel::kernel::io::{Core, Intr};
use vkernel::{Kernel, KernelHandles, SysError, Tid};
use wali_abi::layout::WaliStat;
use wali_abi::Errno;
use wasm::host::Caller;
use wasm::mem::Memory;

use crate::context::{Shards, WaliContext};
use crate::mem::{with_slice, with_slice_mut};
use crate::registry::{flat, k};

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

/// What the shard half of a call leaves for the kernel core.
enum Next<T> {
    /// Served.
    Done(Result<T, SysError>),
    /// The core carries on: from what the shards found, or — `None`, the
    /// signal hint is up — with the whole call.
    Core(Option<Core>),
}

/// A call whose shard half ran: its answer, or the core's part with a
/// reference of the call's own to the description.
enum Left<T> {
    Done(Result<T, SysError>),
    Core(Option<Core>, FileRef),
}

/// One descriptor call's shard half: resolves `fd` once — through the
/// task's own fd table, never behind the kernel lock — and runs `f` on
/// its description, borrowed from the table when no other task uses it.
fn with_file<T>(
    c: C,
    fd: i32,
    f: impl FnOnce(&mut Shards<'_>, &FileRef) -> Next<T>,
) -> Result<Left<T>, SysError> {
    let (files, _, mut shards) = c.data.shards();
    let table = files.lock_ok();
    if table.members() == 1 {
        let file = &table.get(fd)?.file;
        return Ok(match f(&mut shards, file) {
            Next::Done(r) => Left::Done(r),
            Next::Core(rest) => Left::Core(rest, file.clone()),
        });
    }
    let file = table.file(fd)?;
    drop(table);
    Ok(match f(&mut shards, &file) {
        Next::Done(r) => {
            release(c, file);
            Left::Done(r)
        }
        Next::Core(rest) => Left::Core(rest, file),
    })
}

/// [`with_file`] for a call the shards always finish.
fn on_file<T>(
    c: C,
    fd: i32,
    f: impl FnOnce(&mut Shards<'_>, &FileRef) -> Result<T, SysError>,
) -> Result<T, SysError> {
    match with_file(c, fd, |sh, file| Next::Done(f(sh, file)))? {
        Left::Done(r) => r,
        Left::Core(..) => unreachable!("a shard-only call leaves nothing to the core"),
    }
}

/// The rest of a call [`with_file`] ran the shard half of: the core's
/// part under the kernel lock, then the call's reference goes.
fn finish<T>(
    c: C,
    left: Left<T>,
    core: impl FnOnce(&mut Kernel, Tid, &FileRef, Option<Core>) -> Result<T, SysError>,
) -> Result<T, SysError> {
    match left {
        Left::Done(r) => r,
        Left::Core(rest, file) => {
            let r = k(c, |kk, tid| core(kk, tid, &file, rest));
            release(c, file);
            r
        }
    }
}

/// Drops a call's reference to a description, releasing it if a `close`
/// elsewhere made this the last one.
fn release(c: C, file: FileRef) {
    let key = Arc::as_ptr(&file) as usize;
    if let Some(last) = Arc::into_inner(file) {
        k(c, |kk, _| kk.release_description(last, key));
    }
}

/// Runs `io` against the shards unless the signal hint says the core
/// must. A park the hint has overtaken is undone: the hint was raised
/// before the signal's wakeup post, so observing it here is enough, and
/// the redo under the kernel lock sees the pending signal.
fn on_shards(
    sh: &mut Shards<'_>,
    io: impl FnOnce(&KernelHandles, Tid) -> Result<R, Core>,
) -> Next<i64> {
    if sh.hint_raised() {
        return Next::Core(None);
    }
    match sh.run(io) {
        Ok(Err(SysError::Block(_))) if sh.hint_raised() => {
            sh.handles.waits.lock().unsubscribe(sh.tid);
            Next::Core(None)
        }
        Ok(r) => {
            sh.trace.fastpath_hits += 1;
            Next::Done(r)
        }
        Err(rest) => Next::Core(Some(rest)),
    }
}

/// A regular file's `write`/`pwrite64` stamps its mtime: the clock must
/// hold every tick of this task's calls first.
fn before_stamp(sh: &Shards<'_>, file: &FileRef) {
    if matches!(file.kind, FileKind::Regular(_)) {
        sh.flush_ticks();
    }
}

fn read_shards(sh: &mut Shards<'_>, file: &FileRef, out: &mut [u8]) -> Next<i64> {
    let task = sh.task();
    on_shards(sh, |h, tid| h.read(tid, file, out, Intr::HintDown(task)))
}

fn read_core(kk: &mut Kernel, tid: Tid, file: &FileRef, rest: Option<Core>, out: &mut [u8]) -> R {
    match rest {
        Some(rest) => kk.finish_read(tid, rest, out),
        None => kk.read_file(tid, file, out),
    }
}

fn write_shards(sh: &mut Shards<'_>, file: &FileRef, data: &[u8]) -> Next<i64> {
    before_stamp(sh, file);
    let task = sh.task();
    on_shards(sh, |h, tid| h.write(tid, file, data, Intr::HintDown(task)))
}

fn write_core(kk: &mut Kernel, tid: Tid, file: &FileRef, rest: Option<Core>, data: &[u8]) -> R {
    match rest {
        Some(rest) => kk.finish_write(tid, rest, data),
        None => kk.write_file(tid, file, data),
    }
}

fn pread_shards(sh: &mut Shards<'_>, file: &FileRef, out: &mut [u8], at: u64) -> R {
    sh.run(|h, _| h.pread(file, out, at))
}

fn pwrite_shards(sh: &mut Shards<'_>, file: &FileRef, data: &[u8], at: u64) -> R {
    before_stamp(sh, file);
    sh.run(|h, _| h.pwrite(file, data, at))
}

/// `read(fd, out)`.
pub(crate) fn read(c: C, fd: i32, out: &mut [u8]) -> R {
    let left = with_file(c, fd, |sh, file| read_shards(sh, file, out))?;
    finish(c, left, |kk, tid, file, rest| {
        read_core(kk, tid, file, rest, out)
    })
}

/// `write(fd, data)`.
pub(crate) fn write(c: C, fd: i32, data: &[u8]) -> R {
    let left = with_file(c, fd, |sh, file| write_shards(sh, file, data))?;
    finish(c, left, |kk, tid, file, rest| {
        write_core(kk, tid, file, rest, data)
    })
}

/// `pread64(fd, out, offset)`.
pub(crate) fn pread(c: C, fd: i32, out: &mut [u8], offset: u64) -> R {
    on_file(c, fd, |sh, file| pread_shards(sh, file, out, offset))
}

/// `pwrite64(fd, data, offset)`.
pub(crate) fn pwrite(c: C, fd: i32, data: &[u8], offset: u64) -> R {
    on_file(c, fd, |sh, file| pwrite_shards(sh, file, data, offset))
}

/// `lseek(fd, offset, whence)`.
pub(crate) fn lseek(c: C, fd: i32, offset: i64, whence: i32) -> R {
    on_file(c, fd, |sh, file| {
        sh.run(|h, _| h.lseek(file, offset, whence))
    })
}

/// `fstat(fd)`.
pub(crate) fn fstat(c: C, fd: i32) -> Result<WaliStat, SysError> {
    on_file(c, fd, |sh, file| sh.run(|h, _| h.fstat(file)))
}

/// `readv`, `writev`, `preadv` and `pwritev` (`offset` set: each transfer
/// at `offset` + bytes done, the cursor unmoved) over `chunks` of guest
/// memory, each inside one page, in order. The descriptor is resolved
/// once, as by Linux's one `fdget`: on a table no other task uses, the
/// shards move every chunk they can with the description borrowed; the
/// first chunk the kernel core has to finish — and every one after it —
/// runs on a reference of the call's own.
///
/// Linux's short-count rule ends the call: a transfer short of its
/// chunk, or one that fails or would block once bytes have moved,
/// answers the bytes moved — blocking the whole call would repeat the
/// transfers already made when it is retried. Only a call that moved
/// nothing blocks or fails.
pub(crate) fn vectored(
    c: C,
    fd: i32,
    mut chunks: impl Iterator<Item = (u32, u32)>,
    write: bool,
    offset: Option<u64>,
) -> R {
    let mem = &*c.instance.memory;
    let mut total = 0i64;
    let mut stopped_at = None;
    let left = with_file(c, fd, |sh, file| {
        for chunk in chunks.by_ref() {
            let pos = offset.map(|off| off.wrapping_add(total as u64));
            let next = with_chunk(mem, chunk, write, |buf| shard_half(sh, file, buf, pos));
            match next.unwrap_or_else(|e| Next::Done(Err(e.into()))) {
                Next::Done(r) => {
                    if let Some(end) = settle(&mut total, r, chunk.1) {
                        return Next::Done(end);
                    }
                }
                rest => {
                    stopped_at = Some(chunk);
                    return rest;
                }
            }
        }
        Next::Done(Ok(total))
    })?;
    let (mut rest, file) = match left {
        Left::Done(r) => return r,
        Left::Core(rest, file) => (Some(rest), file),
    };
    // The chunk the shards stopped at, finished by the core, then the
    // rest — on the call's own reference, with the table's lock let go.
    let mut end = None;
    for chunk in stopped_at.into_iter().chain(chunks) {
        let pos = offset.map(|off| off.wrapping_add(total as u64));
        let r = with_chunk(mem, chunk, write, |mut buf| {
            let next = match rest.take() {
                Some(rest) => Next::Core(rest),
                None => shard_half(&mut c.data.shards().2, &file, buf.reborrow(), pos),
            };
            match next {
                Next::Done(r) => r,
                Next::Core(rest) => k(c, |kk, tid| core_half(kk, tid, &file, rest, buf)),
            }
        });
        end = settle(&mut total, flat(r), chunk.1);
        if end.is_some() {
            break;
        }
    }
    release(c, file);
    end.unwrap_or(Ok(total))
}

/// Adds one transfer of a vectored call to `total`; `Some` is the call's
/// answer when the transfer ends it.
fn settle(total: &mut i64, r: R, len: u32) -> Option<R> {
    match r {
        Ok(n) => {
            *total += n;
            ((n as u32) < len).then_some(Ok(*total))
        }
        Err(e) if *total == 0 => Some(Err(e)),
        Err(_) => Some(Ok(*total)),
    }
}

/// The guest memory a transfer of a vectored call moves bytes into or
/// out of.
enum Buf<'a> {
    Into(&'a mut [u8]),
    OutOf(&'a [u8]),
}

impl Buf<'_> {
    fn reborrow(&mut self) -> Buf<'_> {
        match self {
            Buf::Into(out) => Buf::Into(out),
            Buf::OutOf(data) => Buf::OutOf(data),
        }
    }
}

/// Runs `f` on the `(addr, len)` chunk of guest memory.
fn with_chunk<T>(
    mem: &Memory,
    (addr, len): (u32, u32),
    write: bool,
    f: impl FnOnce(Buf<'_>) -> T,
) -> Result<T, Errno> {
    match write {
        false => with_slice_mut(mem, addr, len as usize, |out| f(Buf::Into(out))),
        true => with_slice(mem, addr, len as usize, |data| f(Buf::OutOf(data))),
    }
}

/// The shard half of one transfer of a vectored call: a `read`/`write`,
/// or at `pos` a `pread64`/`pwrite64` (which the shards always finish).
fn shard_half(sh: &mut Shards<'_>, file: &FileRef, buf: Buf<'_>, pos: Option<u64>) -> Next<i64> {
    match (buf, pos) {
        (Buf::Into(out), None) => read_shards(sh, file, out),
        (Buf::OutOf(data), None) => write_shards(sh, file, data),
        (Buf::Into(out), Some(at)) => Next::Done(pread_shards(sh, file, out, at)),
        (Buf::OutOf(data), Some(at)) => Next::Done(pwrite_shards(sh, file, data, at)),
    }
}

/// The core half of one sequential transfer of a vectored call.
fn core_half(kk: &mut Kernel, tid: Tid, file: &FileRef, rest: Option<Core>, buf: Buf<'_>) -> R {
    match buf {
        Buf::Into(out) => read_core(kk, tid, file, rest, out),
        Buf::OutOf(data) => write_core(kk, tid, file, rest, data),
    }
}
