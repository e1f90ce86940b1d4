//! Descriptor I/O against the shards: `read`, `write`, `pread64`,
//! `pwrite64`, `lseek` and `fstat` on an already-resolved description.
//!
//! Everything these calls touch on a regular file, a pipe, an eventfd
//! or a stream socket with bytes (or room) ready is a shard — the
//! description, the [`VfsShard`](crate::vfs::VfsShard), one pipe or
//! socket, the waitqueue, the clock — so they are methods of
//! [`KernelHandles`] and run the same whether the caller holds the
//! kernel lock ([`super::Kernel::sys_read`] and friends) or not (an embedder
//! that resolved the descriptor through the task's own fd table). What
//! does need the kernel core — raising `SIGPIPE`, a character device, a
//! socket that must block, report a hangup or route a datagram — comes
//! back as a [`Core`] for `Kernel::finish_read` / `Kernel::finish_write`.
//!
//! A call takes the description lock once and keeps it: a regular
//! file's transfer and its offset advance are one step (Linux's
//! `f_pos_lock`), `O_APPEND` finds the end of the file and writes there
//! under one hold of the VFS write lock, and an eventfd reader
//! subscribes before a writer can post. Nesting is `Description → Vfs`
//! or `Description → Waits`; pipe and socket locks are taken with the
//! description lock released ([`crate::lockorder`]).
//!
//! Blocking follows the protocol of [`crate::wait`]: a consumer that
//! finds nothing subscribes under the object's lock, a producer posts
//! after releasing it. Whether a signal is pending (`EINTR` instead of
//! a park) is the core's to know; callers outside the kernel lock pass
//! "no" while the task's signal hint is down and re-check the hint
//! after a park (every kill path raises it before posting its wakeup).

use std::sync::Arc;

use wali_abi::flags::{
    O_APPEND, O_NONBLOCK, SEEK_CUR, SEEK_END, SEEK_SET, SOCK_STREAM, S_IFIFO, S_IFSOCK,
};
use wali_abi::layout::{WaliStat, WaliTimespec};
use wali_abi::Errno;

use crate::fd::{FileKind, FileRef};
use crate::pipe::PipeIo;
use crate::socket::SockState;
use crate::vfs::InodeId;
use crate::wait::Channel;
use crate::{block, SysError, SysResult, Tid};

use super::KernelHandles;

/// The rest of a `read` or `write` the shards could not finish: what the
/// description turned out to be, for the kernel core to carry on with
/// (no second resolution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Core {
    /// A socket off the ready-stream shape.
    Sock(usize),
    /// A character device, by inode.
    Dev(InodeId),
    /// A write to a pipe nobody reads: `SIGPIPE`, then `-EPIPE`.
    Sigpipe,
}

impl KernelHandles {
    /// `read` on `file`. `has_sig` answers "would a park be interrupted"
    /// and is asked only where the call could park.
    pub fn read(
        &self,
        tid: Tid,
        file: &FileRef,
        out: &mut [u8],
        has_sig: &dyn Fn() -> bool,
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
            FileKind::PipeRead(id) => {
                let id = *id;
                drop(f);
                return Ok(self.pipe_read(tid, id, nonblock, has_sig(), out));
            }
            FileKind::PipeWrite(_) => return Ok(Err(Errno::Ebadf.into())),
            FileKind::Socket(id) => {
                let id = *id;
                drop(f);
                return self.stream_recv_ready(id, out).ok_or(Core::Sock(id));
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

    /// `write` on `file` (see [`KernelHandles::read`] for `has_sig`).
    pub fn write(
        &self,
        tid: Tid,
        file: &FileRef,
        data: &[u8],
        has_sig: &dyn Fn() -> bool,
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
            FileKind::PipeWrite(id) => {
                let id = *id;
                drop(f);
                self.pipe_write(tid, id, nonblock, has_sig(), data)
            }
            FileKind::PipeRead(_) => Ok(Err(Errno::Ebadf.into())),
            FileKind::Socket(id) => {
                let id = *id;
                drop(f);
                self.stream_send_ready(id, data).ok_or(Core::Sock(id))
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
        id: usize,
        nonblock: bool,
        has_sig: bool,
        out: &mut [u8],
    ) -> SysResult {
        let pipe = self.pipes.get(id).ok_or(Errno::Ebadf)?;
        let io = {
            let mut p = pipe.lock_ok();
            let r = p.read(out);
            if matches!(r, PipeIo::WouldBlock) && !nonblock && !has_sig {
                // Subscribe while still holding the pipe lock: a writer
                // filling the buffer after this point posts only after
                // dropping the lock, so the wakeup cannot be missed.
                self.waits.park_on(tid, Channel::PipeReadable(id));
            }
            r
        };
        match io {
            PipeIo::Xfer(n) => {
                // Space opened up: wake blocked writers.
                self.waits.post(Channel::PipeWritable(id));
                Ok(n as i64)
            }
            PipeIo::Eof => Ok(0),
            PipeIo::WouldBlock if nonblock => Err(Errno::Eagain.into()),
            PipeIo::WouldBlock if has_sig => Err(Errno::Eintr.into()),
            PipeIo::WouldBlock => Err(block()),
            PipeIo::Broken => unreachable!("read never reports Broken"),
        }
    }

    fn pipe_write(
        &self,
        tid: Tid,
        id: usize,
        nonblock: bool,
        has_sig: bool,
        data: &[u8],
    ) -> Result<SysResult, Core> {
        let Some(pipe) = self.pipes.get(id) else {
            return Ok(Err(Errno::Ebadf.into()));
        };
        let io = {
            let mut p = pipe.lock_ok();
            let r = p.write(data);
            if matches!(r, PipeIo::WouldBlock) && !nonblock && !has_sig {
                // Subscribe under the pipe lock (see `pipe_read`).
                self.waits.park_on(tid, Channel::PipeWritable(id));
            }
            r
        };
        Ok(match io {
            PipeIo::Xfer(n) => {
                // Data arrived: wake blocked readers and pollers.
                self.waits.post(Channel::PipeReadable(id));
                Ok(n as i64)
            }
            // No pipe state was changed; the signal is the core's.
            PipeIo::Broken => return Err(Core::Sigpipe),
            PipeIo::WouldBlock if nonblock => Err(Errno::Eagain.into()),
            PipeIo::WouldBlock if has_sig => Err(Errno::Eintr.into()),
            PipeIo::WouldBlock => Err(block()),
            PipeIo::Eof => unreachable!("write never reports Eof"),
        })
    }

    /// Stream-socket receive, the drain-available-bytes shape only (what
    /// a request/response loop hits); EOF, blocking and datagrams are
    /// `Kernel::sock_recv`'s.
    fn stream_recv_ready(&self, id: usize, out: &mut [u8]) -> Option<SysResult> {
        let sock = self.socks.get(id)?;
        let n = {
            let mut s = sock.lock_ok();
            if s.ty != SOCK_STREAM || s.recv.is_empty() {
                return None;
            }
            let n = out.len().min(s.recv.len());
            for b in out.iter_mut().take(n) {
                *b = s.recv.pop_front().expect("non-empty");
            }
            n
        };
        // Space opened in our receive buffer: wake the peer's blocked
        // senders and POLLOUT pollers (post after dropping the lock).
        self.waits.post(Channel::SockSpace(id));
        Some(Ok(n as i64))
    }

    /// Stream-socket send, the copy-into-peer-space shape only; full
    /// buffers, closed peers (`SIGPIPE`) and datagrams are
    /// `Kernel::sock_send`'s, which redoes the checks (nothing here
    /// changes socket state before it declines).
    fn stream_send_ready(&self, id: usize, data: &[u8]) -> Option<SysResult> {
        let peer = {
            let s = self.socks.get(id)?;
            let g = s.lock_ok();
            if g.ty != SOCK_STREAM || g.shut_wr {
                return None;
            }
            match g.state {
                SockState::Connected { peer } => peer,
                _ => return None,
            }
            // Own lock dropped here: the two per-socket locks never nest.
        };
        let n = {
            let p = self.socks.get(peer)?;
            let mut g = p.lock_ok();
            if !matches!(g.state, SockState::Connected { .. }) || g.shut_rd {
                return None;
            }
            let space = g.recv_space();
            if space == 0 {
                return None;
            }
            let n = data.len().min(space);
            g.recv.extend(&data[..n]);
            n
        };
        // Data arrived at the peer: wake its readers and pollers (post
        // after dropping the peer's lock).
        self.waits.post(Channel::SockReadable(peer));
        Some(Ok(n as i64))
    }
}
