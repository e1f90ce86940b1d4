//! Descriptor I/O against the shards: `read`, `write`, `pread64`,
//! `pwrite64`, `lseek` and `fstat` on an already-resolved description.
//!
//! Everything these calls touch on a regular file, a pipe, an eventfd
//! or a socket is a shard — the description, the
//! [`VfsShard`](crate::vfs::VfsShard), the pipe or socket the
//! description holds by handle, the waitqueue, the clock — so they are
//! methods of [`KernelHandles`] and run the same whether the caller
//! holds the kernel lock ([`super::Kernel::sys_read`] and friends) or
//! not (an embedder that resolved the descriptor through the task's own
//! fd table). What does need the kernel core — raising `SIGPIPE`, a
//! character device, routing a datagram through the address registry —
//! comes back as a [`Core`] for `Kernel::finish_read` /
//! `Kernel::finish_write`.
//!
//! A call takes the description lock once: it yields the access mode,
//! `O_NONBLOCK` and the object. A regular file's transfer and its
//! offset advance are one step under it (Linux's `f_pos_lock`),
//! `O_APPEND` finds the end of the file and writes there under one hold
//! of the VFS write lock, and an eventfd reader subscribes before a
//! writer can post. Nesting is `Description → Vfs` or `Description →
//! Waits`; a pipe or socket is locked — once, for whatever the call
//! finds: bytes, EOF, `-EAGAIN`, the park — with the description lock
//! released ([`crate::lockorder`]).
//!
//! Blocking follows the protocol of [`crate::wait`]: a consumer that
//! finds nothing subscribes under the object's lock, a producer posts
//! after releasing it. Whether a signal is pending (`EINTR` instead of
//! a park) is the core's to know and is asked only where a call would
//! park ([`Intr`]); a caller outside the kernel lock makes the call
//! while the task's signal hint is down and re-checks the hint after a
//! park (every kill path raises it before posting its wakeup).

use std::sync::Arc;

use wali_abi::flags::{O_APPEND, O_NONBLOCK, SEEK_CUR, SEEK_END, SEEK_SET, S_IFIFO, S_IFSOCK};
use wali_abi::layout::{WaliSockaddr, WaliStat, WaliTimespec};
use wali_abi::Errno;

use crate::fd::{FileKind, FileRef};
use crate::pipe::{Pipe, PipeIo};
use crate::slab::Handle;
use crate::socket::Socket;
use crate::vfs::InodeId;
use crate::wait::Channel;
use crate::{block, SysError, SysResult, Tid};

use super::sock::dontwait;
use super::KernelHandles;

/// How a call about to park learns whether a signal would interrupt it.
#[derive(Clone, Copy)]
pub enum Intr<'a> {
    /// The caller holds the kernel lock: ask the core.
    Ask(&'a dyn Fn() -> bool),
    /// The caller does not, and found the task's signal hint down. A
    /// pipe takes that for "no". A stream socket's receive does not: the
    /// hint says nothing for a thread cloned while a process-directed
    /// signal was pending, a socket's park has always asked the core,
    /// and the single-worker schedule (two of the 360 pinned fuzz seeds)
    /// depends on the difference — it hands the park over
    /// ([`Core::Park`]).
    HintDown,
}

impl Intr<'_> {
    fn pending(self) -> bool {
        match self {
            Intr::Ask(ask) => ask(),
            Intr::HintDown => false,
        }
    }
}

/// The rest of a `read` or `write` the shards could not finish: what the
/// description turned out to be, for the kernel core to carry on with
/// (no second resolution).
#[derive(Clone, Debug, PartialEq)]
pub enum Core {
    /// A stream `read` that found nothing and may block, from a caller
    /// that cannot say whether a signal is pending ([`Intr::HintDown`]):
    /// the socket, for the core to ask and park. (Only `read` is made
    /// off the kernel lock, so the call has no `MSG_*` flags to carry.)
    Park(Handle<Socket>),
    /// A datagram to route through the address registry: the sender's
    /// bound address and its default destination (`connect`). Boxed:
    /// every `read` and `write` returns a `Core`-sized value.
    Dgram(Box<(Option<WaliSockaddr>, Option<WaliSockaddr>)>),
    /// A character device, by inode.
    Dev(InodeId),
    /// A write to a pipe nobody reads or a connection that is gone:
    /// `SIGPIPE`, then `-EPIPE`.
    Sigpipe,
}

impl KernelHandles {
    /// `read` on `file`. `intr` answers "would a park be interrupted"
    /// and is consulted only where the call is about to park.
    pub fn read(
        &self,
        tid: Tid,
        file: &FileRef,
        out: &mut [u8],
        intr: Intr,
    ) -> Result<SysResult, Core> {
        let mut f = file.lock_ok();
        if !f.readable() {
            return Ok(Err(Errno::Ebadf.into()));
        }
        let nonblock = f.flags & O_NONBLOCK != 0;
        let n = match &f.kind {
            FileKind::Regular(inode) => match self.vfs.read().read_at(*inode, f.offset, out) {
                Ok(n) => n,
                Err(e) => return Ok(Err(e.into())),
            },
            FileKind::ProcSnapshot(text) => {
                let off = (f.offset as usize).min(text.len());
                let n = out.len().min(text.len() - off);
                out[..n].copy_from_slice(&text[off..off + n]);
                n
            }
            FileKind::Dir(_) => return Ok(Err(Errno::Eisdir.into())),
            FileKind::PipeRead(pipe) => {
                let pipe = pipe.clone();
                drop(f);
                return Ok(self.pipe_read(tid, &pipe, nonblock, intr, out));
            }
            FileKind::PipeWrite(_) => return Ok(Err(Errno::Ebadf.into())),
            FileKind::Socket(sock) => {
                let sock = sock.clone();
                drop(f);
                let got = self.sock_recv(tid, &sock, out, dontwait(nonblock), false, intr)?;
                return Ok(got.map(|(n, _)| n as i64));
            }
            FileKind::CharDev(inode) => return Err(Core::Dev(*inode)),
            FileKind::Epoll(_) => return Ok(Err(Errno::Einval.into())),
            FileKind::EventFd => {
                if f.counter == 0 {
                    if nonblock {
                        return Ok(Err(Errno::Eagain.into()));
                    }
                    let key = Arc::as_ptr(file) as usize;
                    self.waits.park_on(tid, Channel::EventFd(key));
                    return Ok(Err(block()));
                }
                if out.len() < 8 {
                    return Ok(Err(Errno::Einval.into()));
                }
                out[..8].copy_from_slice(&f.counter.to_le_bytes());
                f.counter = 0;
                return Ok(Ok(8));
            }
        };
        f.offset += n as u64;
        Ok(Ok(n as i64))
    }

    /// `write` on `file` (see [`KernelHandles::read`] for `intr`).
    pub fn write(
        &self,
        tid: Tid,
        file: &FileRef,
        data: &[u8],
        intr: Intr,
    ) -> Result<SysResult, Core> {
        let mut f = file.lock_ok();
        if !f.writable() {
            return Ok(Err(Errno::Ebadf.into()));
        }
        let nonblock = f.flags & O_NONBLOCK != 0;
        match &f.kind {
            FileKind::Regular(inode) => {
                let at = (f.flags & O_APPEND == 0).then_some(f.offset);
                let now = self.clock.realtime_ns();
                let start = self.vfs.write().write_at(*inode, at, data, now);
                Ok(start.map_err(SysError::from).map(|start| {
                    f.offset = start + data.len() as u64;
                    data.len() as i64
                }))
            }
            FileKind::Dir(_) => Ok(Err(Errno::Eisdir.into())),
            FileKind::ProcSnapshot(_) => Ok(Err(Errno::Eacces.into())),
            FileKind::PipeWrite(pipe) => {
                let pipe = pipe.clone();
                drop(f);
                self.pipe_write(tid, &pipe, nonblock, intr, data)
            }
            FileKind::PipeRead(_) => Ok(Err(Errno::Ebadf.into())),
            FileKind::Socket(sock) => {
                let sock = sock.clone();
                drop(f);
                let sent = self.sock_send(tid, &sock, data, dontwait(nonblock))?;
                Ok(sent.map(|n| n as i64))
            }
            FileKind::CharDev(inode) => Err(Core::Dev(*inode)),
            FileKind::Epoll(_) => Ok(Err(Errno::Einval.into())),
            FileKind::EventFd => {
                if data.len() < 8 {
                    return Ok(Err(Errno::Einval.into()));
                }
                let v = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
                f.counter = f.counter.saturating_add(v);
                drop(f);
                // The counter became non-zero: wake blocked readers.
                self.waits
                    .post(Channel::EventFd(Arc::as_ptr(file) as usize));
                Ok(Ok(8))
            }
        }
    }

    /// `pread64`: the file cursor stays where it is.
    pub fn pread(&self, file: &FileRef, out: &mut [u8], offset: u64) -> SysResult {
        let f = file.lock_ok();
        if !f.readable() {
            return Err(Errno::Ebadf.into());
        }
        match &f.kind {
            FileKind::Regular(inode) => Ok(self.vfs.read().read_at(*inode, offset, out)? as i64),
            FileKind::PipeRead(_) | FileKind::PipeWrite(_) | FileKind::Socket(_) => {
                Err(Errno::Espipe.into())
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `pwrite64`: the file cursor stays where it is.
    pub fn pwrite(&self, file: &FileRef, data: &[u8], offset: u64) -> SysResult {
        let f = file.lock_ok();
        if !f.writable() {
            return Err(Errno::Ebadf.into());
        }
        match &f.kind {
            FileKind::Regular(inode) => {
                let now = self.clock.realtime_ns();
                self.vfs.write().write_at(*inode, Some(offset), data, now)?;
                Ok(data.len() as i64)
            }
            FileKind::PipeRead(_) | FileKind::PipeWrite(_) | FileKind::Socket(_) => {
                Err(Errno::Espipe.into())
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `lseek`.
    pub fn lseek(&self, file: &FileRef, offset: i64, whence: i32) -> SysResult {
        let mut f = file.lock_ok();
        let size = match &f.kind {
            FileKind::Regular(inode) => self.vfs.read().get(*inode)?.size(),
            FileKind::ProcSnapshot(t) => t.len() as u64,
            FileKind::Dir(inode) => self.vfs.read().get(*inode)?.dir()?.len() as u64 + 2,
            _ => return Err(Errno::Espipe.into()),
        };
        let base = match whence {
            SEEK_SET => 0i64,
            SEEK_CUR => f.offset as i64,
            SEEK_END => size as i64,
            _ => return Err(Errno::Einval.into()),
        };
        let new = base.checked_add(offset).ok_or(Errno::Eoverflow)?;
        if new < 0 {
            return Err(Errno::Einval.into());
        }
        f.offset = new as u64;
        Ok(new)
    }

    /// `fstat`.
    pub fn fstat(&self, file: &FileRef) -> SysResult<WaliStat> {
        let f = file.lock_ok();
        match &f.kind {
            FileKind::Regular(inode) | FileKind::Dir(inode) | FileKind::CharDev(inode) => {
                self.stat_inode(*inode)
            }
            FileKind::PipeRead(_) | FileKind::PipeWrite(_) => Ok(WaliStat {
                st_mode: S_IFIFO | 0o600,
                st_blksize: 4096,
                ..Default::default()
            }),
            FileKind::Socket(_) => Ok(WaliStat {
                st_mode: S_IFSOCK | 0o777,
                st_blksize: 4096,
                ..Default::default()
            }),
            FileKind::ProcSnapshot(t) => Ok(WaliStat {
                st_mode: 0o100444,
                st_size: t.len() as i64,
                st_blksize: 4096,
                ..Default::default()
            }),
            FileKind::EventFd | FileKind::Epoll(_) => Ok(WaliStat {
                st_mode: 0o600,
                ..Default::default()
            }),
        }
    }

    /// The `stat` image of an inode.
    pub(crate) fn stat_inode(&self, inode: InodeId) -> SysResult<WaliStat> {
        let vfs = self.vfs.read();
        let node = vfs.get(inode)?;
        Ok(WaliStat {
            st_dev: 1,
            st_ino: node.ino,
            st_mode: node.mode(),
            st_nlink: node.nlink,
            st_uid: node.uid,
            st_gid: node.gid,
            st_rdev: 0,
            st_size: node.size() as i64,
            st_blksize: 4096,
            st_blocks: (node.size() as i64 + 511) / 512,
            st_atim: WaliTimespec::from_nanos(node.atime),
            st_mtim: WaliTimespec::from_nanos(node.mtime),
            st_ctim: WaliTimespec::from_nanos(node.ctime),
        })
    }

    fn pipe_read(
        &self,
        tid: Tid,
        pipe: &Handle<Pipe>,
        nonblock: bool,
        intr: Intr,
        out: &mut [u8],
    ) -> SysResult {
        let mut p = pipe.lock_ok();
        match p.read(out) {
            PipeIo::Xfer(n) => {
                drop(p);
                // Space opened up: wake blocked writers.
                self.waits.post(Channel::PipeWritable(pipe.id));
                Ok(n as i64)
            }
            PipeIo::Eof => Ok(0),
            PipeIo::WouldBlock if nonblock => Err(Errno::Eagain.into()),
            PipeIo::WouldBlock if intr.pending() => Err(Errno::Eintr.into()),
            PipeIo::WouldBlock => {
                // Subscribe while still holding the pipe lock: a writer
                // filling the buffer after this point posts only after
                // dropping the lock, so the wakeup cannot be missed.
                self.waits.park_on(tid, Channel::PipeReadable(pipe.id));
                Err(block())
            }
            PipeIo::Broken => unreachable!("read never reports Broken"),
        }
    }

    fn pipe_write(
        &self,
        tid: Tid,
        pipe: &Handle<Pipe>,
        nonblock: bool,
        intr: Intr,
        data: &[u8],
    ) -> Result<SysResult, Core> {
        let mut p = pipe.lock_ok();
        Ok(match p.write(data) {
            PipeIo::Xfer(n) => {
                drop(p);
                // Data arrived: wake blocked readers and pollers.
                self.waits.post(Channel::PipeReadable(pipe.id));
                Ok(n as i64)
            }
            // No pipe state was changed; the signal is the core's.
            PipeIo::Broken => return Err(Core::Sigpipe),
            PipeIo::WouldBlock if nonblock => Err(Errno::Eagain.into()),
            PipeIo::WouldBlock if intr.pending() => Err(Errno::Eintr.into()),
            PipeIo::WouldBlock => {
                // Subscribe under the pipe lock (see `pipe_read`).
                self.waits.park_on(tid, Channel::PipeWritable(pipe.id));
                Err(block())
            }
            PipeIo::Eof => unreachable!("write never reports Eof"),
        })
    }
}
