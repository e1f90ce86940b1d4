//! File and filesystem syscalls.

use std::collections::BTreeMap;
use std::sync::Arc;

use wali_abi::flags::{
    AT_FDCWD, AT_REMOVEDIR, AT_SYMLINK_NOFOLLOW, FD_CLOEXEC, FIONBIO, FIONREAD, F_DUPFD,
    F_DUPFD_CLOEXEC, F_GETFD, F_GETFL, F_SETFD, F_SETFL, O_ACCMODE, O_APPEND, O_CLOEXEC, O_CREAT,
    O_DIRECTORY, O_EXCL, O_NOFOLLOW, O_NONBLOCK, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY, TIOCGWINSZ,
};
use wali_abi::layout::{WaliDirent, WaliStat};
use wali_abi::signals::Signal;
use wali_abi::Errno;

use crate::fd::{FdEntry, FileKind, FileRef, OpenFile};
use crate::pipe::Pipe;
use crate::vfs::{DevKind, InodeId, InodeKind};
use crate::wait::Channel;
use crate::{SysResult, Tid};

use super::io::{Core, Intr};
use super::Kernel;

impl Kernel {
    fn base_dir(&self, tid: Tid, dirfd: i32) -> Result<InodeId, Errno> {
        if dirfd == AT_FDCWD {
            return Ok(self.task(tid)?.fs().cwd);
        }
        match self.task(tid)?.fdtable.lock_ok().get(dirfd)?.file.kind {
            FileKind::Dir(id) => Ok(id),
            _ => Err(Errno::Enotdir),
        }
    }

    /// `openat`.
    pub fn sys_openat(
        &mut self,
        tid: Tid,
        dirfd: i32,
        path: &str,
        flags: i32,
        mode: u32,
    ) -> SysResult<i32> {
        let base = self.base_dir(tid, dirfd)?;
        let follow = flags & O_NOFOLLOW == 0;
        let r = self.vfs.resolve(base, path, follow)?;
        let now = self.clock.realtime_ns();

        let inode = match r.inode {
            Some(id) => {
                if flags & O_CREAT != 0 && flags & O_EXCL != 0 {
                    return Err(Errno::Eexist.into());
                }
                id
            }
            None => {
                if flags & O_CREAT == 0 {
                    return Err(Errno::Enoent.into());
                }
                let umask = self.task(tid)?.fs().umask;
                let id = self
                    .vfs
                    .alloc(InodeKind::File(Vec::new()), mode & !umask & 0o777, now);
                self.vfs.link_into(r.parent, &r.name, id)?;
                self.vfs.lock().get_mut(id)?.nlink = 1;
                id
            }
        };

        let vfs = self.vfs.lock();
        let node = vfs.get(inode)?;
        let kind = match &node.kind {
            InodeKind::Dir(_) => {
                if flags & O_ACCMODE != O_RDONLY {
                    return Err(Errno::Eisdir.into());
                }
                FileKind::Dir(inode)
            }
            InodeKind::File(_) => {
                if flags & O_DIRECTORY != 0 {
                    return Err(Errno::Enotdir.into());
                }
                FileKind::Regular(inode)
            }
            InodeKind::Symlink(_) => return Err(Errno::Eloop.into()),
            InodeKind::CharDev(dev) => match dev {
                DevKind::ProcText(which) => {
                    let text = self.proc_text(tid, which);
                    FileKind::ProcSnapshot(Arc::new(text))
                }
                _ => {
                    if flags & O_DIRECTORY != 0 {
                        return Err(Errno::Enotdir.into());
                    }
                    FileKind::CharDev(inode)
                }
            },
        };

        drop(vfs);

        if flags & O_TRUNC != 0 && flags & O_ACCMODE != O_RDONLY {
            if let InodeKind::File(data) = &mut self.vfs.lock().get_mut(inode)?.kind {
                data.clear();
            }
        }

        let file = OpenFile::shared(kind, flags & !O_CLOEXEC);
        let task = self.task(tid)?;
        let fd = task.fdtable.lock_ok().alloc(file, flags & O_CLOEXEC != 0)?;
        Ok(fd)
    }

    fn proc_text(&self, tid: Tid, which: &str) -> Vec<u8> {
        match which {
            "status" => {
                let t = self.task(tid).ok();
                format!(
                    "Name:\twasm\nPid:\t{}\nPPid:\t{}\nThreads:\t1\nVmPeak:\t    4096 kB\n",
                    t.map(|t| t.tgid).unwrap_or(0),
                    t.map(|t| t.ppid).unwrap_or(0),
                )
                .into_bytes()
            }
            "meminfo" => b"MemTotal:       16384000 kB\nMemFree:        8192000 kB\n".to_vec(),
            "cpuinfo" => {
                b"processor\t: 0\nmodel name\t: WALI virtual CPU\nbogomips\t: 4800.00\n".to_vec()
            }
            _ => Vec::new(),
        }
    }

    fn file_of(&self, tid: Tid, fd: i32) -> Result<FileRef, Errno> {
        self.task(tid)?.fdtable.lock_ok().file(fd)
    }

    /// Runs `f` on the description behind `fd`: borrowed from the fd
    /// table, under its lock, while no other task uses the table (Linux's
    /// `__fget_light`), so a call on a description no other descriptor
    /// names moves its offset without the description lock
    /// ([`OpenFile::pos`](crate::fd::OpenFile::pos)); on a reference of
    /// its own otherwise.
    fn on_file<R>(&self, tid: Tid, fd: i32, f: impl FnOnce(&FileRef) -> R) -> Result<R, Errno> {
        let table = self.task(tid)?.fdtable.lock_ok();
        if table.members() == 1 {
            return Ok(f(&table.get(fd)?.file));
        }
        let file = table.file(fd)?;
        drop(table);
        Ok(f(&file))
    }

    /// `read`.
    pub fn sys_read(&mut self, tid: Tid, fd: i32, out: &mut [u8]) -> SysResult {
        let ask = || self.has_pending_signal(tid);
        let intr = Intr::Ask(&ask, self.hint_of(tid));
        let io = self.on_file(tid, fd, |file| self.shards.read(tid, file, out, intr))?;
        io.unwrap_or_else(|rest| self.finish_read(tid, rest, out))
    }

    /// `read` on a description the caller resolved: against the shards
    /// ([`super::io`]), then whatever of it needs the core.
    pub fn read_file(&mut self, tid: Tid, file: &FileRef, out: &mut [u8]) -> SysResult {
        let ask = || self.has_pending_signal(tid);
        let io = self
            .shards
            .read(tid, file, out, Intr::Ask(&ask, self.hint_of(tid)));
        io.unwrap_or_else(|rest| self.finish_read(tid, rest, out))
    }

    /// The part of a `read` [`KernelHandles::read`](super::KernelHandles::read)
    /// left to the core.
    pub fn finish_read(&mut self, tid: Tid, rest: Core, out: &mut [u8]) -> SysResult {
        match rest {
            Core::Park(sock) => {
                let got = self.recv_asking(tid, &sock, out, 0, false);
                got.map(|(n, _)| n as i64)
            }
            Core::Dev(inode) => match self.dev_kind(inode)? {
                DevKind::Null | DevKind::Tty => Ok(0),
                DevKind::Zero => {
                    out.fill(0);
                    Ok(out.len() as i64)
                }
                DevKind::Urandom => self.sys_getrandom(out),
                // Reads of /proc/self/mem are denied by WALI before
                // reaching here; defence in depth returns EIO.
                DevKind::ProcSelfMem => Err(Errno::Eio.into()),
                DevKind::ProcText(_) => Ok(0),
            },
            // Reads leave nothing else to the core.
            Core::Dgram(_) | Core::Sigpipe => self.epipe(tid),
        }
    }

    /// `write`.
    pub fn sys_write(&mut self, tid: Tid, fd: i32, data: &[u8]) -> SysResult {
        let ask = || self.has_pending_signal(tid);
        let intr = Intr::Ask(&ask, self.hint_of(tid));
        let io = self.on_file(tid, fd, |file| self.shards.write(tid, file, data, intr))?;
        io.unwrap_or_else(|rest| self.finish_write(tid, rest, data))
    }

    /// `write` on a description the caller resolved (see
    /// [`Kernel::read_file`]).
    pub fn write_file(&mut self, tid: Tid, file: &FileRef, data: &[u8]) -> SysResult {
        let ask = || self.has_pending_signal(tid);
        let io = self
            .shards
            .write(tid, file, data, Intr::Ask(&ask, self.hint_of(tid)));
        io.unwrap_or_else(|rest| self.finish_write(tid, rest, data))
    }

    /// The part of a `write` [`KernelHandles::write`](super::KernelHandles::write)
    /// left to the core.
    pub fn finish_write(&mut self, tid: Tid, rest: Core, data: &[u8]) -> SysResult {
        match rest {
            Core::Dev(inode) => match self.dev_kind(inode)? {
                DevKind::Null | DevKind::Zero | DevKind::Urandom => Ok(data.len() as i64),
                DevKind::Tty => {
                    self.console.extend_from_slice(data);
                    Ok(data.len() as i64)
                }
                DevKind::ProcSelfMem => Err(Errno::Eio.into()),
                DevKind::ProcText(_) => Err(Errno::Eacces.into()),
            },
            rest => self.finish_send(tid, rest, None, data).map(|n| n as i64),
        }
    }

    fn dev_kind(&self, inode: InodeId) -> Result<DevKind, Errno> {
        match &self.vfs.lock().get(inode)?.kind {
            InodeKind::CharDev(d) => Ok(d.clone()),
            _ => Err(Errno::Eio),
        }
    }

    /// Raises `SIGPIPE` for the caller's process and answers `-EPIPE`.
    pub(crate) fn epipe<T>(&mut self, tid: Tid) -> SysResult<T> {
        let tgid = self.task(tid)?.tgid;
        let _ = self.send_signal_to_process(tgid, Signal::Sigpipe.number());
        Err(Errno::Epipe.into())
    }

    /// `pread64`.
    pub fn sys_pread(&mut self, tid: Tid, fd: i32, out: &mut [u8], offset: u64) -> SysResult {
        let file = self.file_of(tid, fd)?;
        self.shards.pread(&file, out, offset)
    }

    /// `pwrite64`.
    pub fn sys_pwrite(&mut self, tid: Tid, fd: i32, data: &[u8], offset: u64) -> SysResult {
        let file = self.file_of(tid, fd)?;
        self.shards.pwrite(&file, data, offset)
    }

    /// `lseek`.
    pub fn sys_lseek(&mut self, tid: Tid, fd: i32, offset: i64, whence: i32) -> SysResult {
        self.on_file(tid, fd, |file| self.shards.lseek(file, offset, whence))?
    }

    /// `close`.
    pub fn sys_close(&mut self, tid: Tid, fd: i32) -> SysResult {
        let task = self.task(tid)?;
        let entry = task.fdtable.lock_ok().close(fd)?;
        self.release_if_last(entry.file);
        Ok(0)
    }

    /// Drops one reference to a description (a closed descriptor) and,
    /// when it was the last, the description's side-effects.
    pub(crate) fn release_if_last(&mut self, file: FileRef) {
        let key = Arc::as_ptr(&file) as usize;
        // Linux's `fput`: whoever drops the last reference releases, and
        // exactly one holder is told it was the last — also when an
        // embedder's in-flight call on another worker still held the
        // description while its descriptor was closed here.
        if let Some(last) = Arc::into_inner(file) {
            self.release_description(last, key);
        }
    }

    /// Drops the side-effects of a description nobody refers to any more
    /// (pipe end counts, socket refs, wait heads). `key` is the address
    /// its handle had — an eventfd's wait channel.
    pub fn release_description(&mut self, gone: OpenFile, key: usize) {
        match &gone.kind {
            FileKind::PipeRead(pipe) | FileKind::PipeWrite(pipe) => {
                let read = matches!(gone.kind, FileKind::PipeRead(_));
                let dead = {
                    let mut p = pipe.lock_ok();
                    let end = if read { &mut p.readers } else { &mut p.writers };
                    *end = end.saturating_sub(1);
                    p.readers == 0 && p.writers == 0
                };
                if dead {
                    self.pipes.free(pipe.id);
                }
                // Blocked writers must observe EPIPE, blocked readers
                // EOF, pollers the hangup: the other end's channel
                // first. After the last post the heads die with the
                // pipe.
                let (r, w) = (
                    Channel::PipeReadable(pipe.id),
                    Channel::PipeWritable(pipe.id),
                );
                let posts = if read { [w, r] } else { [r, w] };
                self.waits.post_all(&posts, if dead { &posts } else { &[] });
            }
            FileKind::Socket(sock) => self.release_socket(sock),
            FileKind::Epoll(ep) => self.release_epoll(ep),
            FileKind::EventFd => self.waits.lock().release(Channel::EventFd(key)),
            _ => {}
        }
    }

    /// `pipe2`: returns `(read_fd, write_fd)`.
    pub fn sys_pipe2(&mut self, tid: Tid, flags: i32) -> SysResult<(i32, i32)> {
        let pipe = self.pipes.insert(Pipe::new());
        let cloexec = flags & O_CLOEXEC != 0;
        let status = flags & O_NONBLOCK;
        let task = self.task(tid)?;
        let mut table = task.fdtable.lock_ok();
        let r = OpenFile::shared(FileKind::PipeRead(pipe.clone()), status | O_RDONLY);
        let w = OpenFile::shared(FileKind::PipeWrite(pipe), status | O_WRONLY);
        let rfd = table.alloc(r, cloexec)?;
        let wfd = table.alloc(w, cloexec)?;
        Ok((rfd, wfd))
    }

    /// `dup`.
    pub fn sys_dup(&mut self, tid: Tid, fd: i32) -> SysResult {
        let file = self.file_of(tid, fd)?;
        let task = self.task(tid)?;
        let new = task.fdtable.lock_ok().alloc(file, false)?;
        Ok(new as i64)
    }

    /// `dup3` (and `dup2` with `flags = 0`).
    pub fn sys_dup3(&mut self, tid: Tid, old: i32, new: i32, flags: i32) -> SysResult {
        if old == new {
            return Err(Errno::Einval.into());
        }
        let task = self.task(tid)?;
        let closed = {
            let mut table = task.fdtable.lock_ok();
            let prior = table.get(new).ok().map(|e| e.file.clone());
            table.dup_to(old, new, flags & O_CLOEXEC != 0)?;
            prior
        };
        // Release the replaced description if that was its last ref.
        if let Some(file) = closed {
            self.release_if_last(file);
        }
        Ok(new as i64)
    }

    /// `fcntl`.
    pub fn sys_fcntl(&mut self, tid: Tid, fd: i32, cmd: i32, arg: i32) -> SysResult {
        let task = self.task(tid)?;
        match cmd {
            F_DUPFD | F_DUPFD_CLOEXEC => {
                let file = {
                    let table = task.fdtable.lock_ok();
                    table.get(fd)?.file.clone()
                };
                let entry = FdEntry {
                    file,
                    cloexec: cmd == F_DUPFD_CLOEXEC,
                };
                let new = task
                    .fdtable
                    .lock_ok()
                    .alloc_from(arg.max(0) as usize, entry)?;
                Ok(new as i64)
            }
            F_GETFD => {
                let table = task.fdtable.lock_ok();
                Ok(if table.get(fd)?.cloexec {
                    FD_CLOEXEC as i64
                } else {
                    0
                })
            }
            F_SETFD => {
                let mut table = task.fdtable.lock_ok();
                table.get_mut(fd)?.cloexec = arg & FD_CLOEXEC != 0;
                Ok(0)
            }
            F_GETFL => Ok(task.fdtable.lock_ok().get(fd)?.file.flags() as i64),
            F_SETFL => {
                // Only O_APPEND and O_NONBLOCK are changeable.
                let table = task.fdtable.lock_ok();
                table.get(fd)?.file.set_flags(O_APPEND | O_NONBLOCK, arg);
                Ok(0)
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `ioctl` for the operations the app suite uses.
    pub fn sys_ioctl(&mut self, tid: Tid, fd: i32, op: u64) -> SysResult<IoctlOut> {
        let file = self.file_of(tid, fd)?;
        match op {
            TIOCGWINSZ => match file.kind {
                FileKind::CharDev(_) => Ok(IoctlOut::Winsize { rows: 24, cols: 80 }),
                _ => Err(Errno::Enotty.into()),
            },
            FIONREAD => {
                let n = match &file.kind {
                    FileKind::PipeRead(pipe) => pipe.lock_ok().len(),
                    FileKind::Socket(sock) => sock.lock_ok().recv.len(),
                    FileKind::Regular(inode) => {
                        let pos = file.lock_pos();
                        let size = self.vfs.lock().get(*inode)?.size();
                        size.saturating_sub(pos.get()) as usize
                    }
                    _ => 0,
                };
                Ok(IoctlOut::Int(n as i32))
            }
            FIONBIO => {
                file.set_flags(O_NONBLOCK, O_NONBLOCK);
                Ok(IoctlOut::Int(0))
            }
            _ => Err(Errno::Enotty.into()),
        }
    }

    /// `fstat`.
    pub fn sys_fstat(&mut self, tid: Tid, fd: i32) -> SysResult<WaliStat> {
        let file = self.file_of(tid, fd)?;
        self.shards.fstat(&file)
    }

    /// `newfstatat` / `stat` / `lstat`.
    pub fn sys_fstatat(
        &mut self,
        tid: Tid,
        dirfd: i32,
        path: &str,
        flags: i32,
    ) -> SysResult<WaliStat> {
        let base = self.base_dir(tid, dirfd)?;
        let follow = flags & AT_SYMLINK_NOFOLLOW == 0;
        let r = self.vfs.resolve(base, path, follow)?;
        let inode = r.inode.ok_or(Errno::Enoent)?;
        self.shards.stat_inode(inode)
    }

    /// `getdents64`: fills directory entries starting at the open file's
    /// cursor; returns the entries that fit in `capacity` bytes.
    pub fn sys_getdents(
        &mut self,
        tid: Tid,
        fd: i32,
        capacity: usize,
    ) -> SysResult<Vec<WaliDirent>> {
        let file = self.file_of(tid, fd)?;
        // One hold for the whole call: the cursor is read, the entries
        // walked and the cursor moved as one step.
        let FileKind::Dir(inode) = file.kind else {
            return Err(Errno::Enotdir.into());
        };
        let mut pos = file.lock_pos();
        let cursor = pos.get() as usize;
        let vfs = self.vfs.lock();
        let node = vfs.get(inode)?;
        let entries = node.dir()?;

        let mut all: Vec<(String, InodeId, u8)> = Vec::with_capacity(entries.len() + 2);
        all.push((".".into(), inode, 4));
        all.push(("..".into(), inode, 4));
        for (name, &id) in entries {
            let ft = match &vfs.get(id)?.kind {
                InodeKind::Dir(_) => 4,  // DT_DIR
                InodeKind::File(_) => 8, // DT_REG
                InodeKind::Symlink(_) => 10,
                InodeKind::CharDev(_) => 2,
            };
            all.push((name.clone(), id, ft));
        }

        let mut out = Vec::new();
        let mut used = 0usize;
        let mut idx = cursor;
        while idx < all.len() {
            let (name, id, ft) = &all[idx];
            let d = WaliDirent {
                ino: vfs.get(*id)?.ino,
                off: (idx + 1) as i64,
                file_type: *ft,
                name: name.clone(),
            };
            if used + d.reclen() > capacity {
                break;
            }
            used += d.reclen();
            out.push(d);
            idx += 1;
        }
        if out.is_empty() && idx < all.len() {
            return Err(Errno::Einval.into());
        }
        pos.set(idx as u64);
        Ok(out)
    }

    /// `mkdirat`.
    pub fn sys_mkdirat(&mut self, tid: Tid, dirfd: i32, path: &str, mode: u32) -> SysResult {
        let base = self.base_dir(tid, dirfd)?;
        let r = self.vfs.resolve(base, path, true)?;
        if r.inode.is_some() {
            return Err(Errno::Eexist.into());
        }
        let umask = self.task(tid)?.fs().umask;
        let now = self.clock.realtime_ns();
        let id = self
            .vfs
            .alloc(InodeKind::Dir(BTreeMap::new()), mode & !umask & 0o777, now);
        self.vfs.link_into(r.parent, &r.name, id)?;
        self.vfs.lock().get_mut(id)?.nlink = 1;
        Ok(0)
    }

    /// `unlinkat` (with `AT_REMOVEDIR` for rmdir semantics).
    pub fn sys_unlinkat(&mut self, tid: Tid, dirfd: i32, path: &str, flags: i32) -> SysResult {
        let base = self.base_dir(tid, dirfd)?;
        let r = self.vfs.resolve(base, path, false)?;
        let inode = r.inode.ok_or(Errno::Enoent)?;
        {
            let vfs = self.vfs.lock();
            let node = vfs.get(inode)?;
            let is_dir = matches!(node.kind, InodeKind::Dir(_));
            if flags & AT_REMOVEDIR != 0 {
                if !is_dir {
                    return Err(Errno::Enotdir.into());
                }
                if !node.dir()?.is_empty() {
                    return Err(Errno::Enotempty.into());
                }
            } else if is_dir {
                return Err(Errno::Eisdir.into());
            }
        }
        self.vfs.unlink_from(r.parent, &r.name)?;
        Ok(0)
    }

    /// `renameat`.
    pub fn sys_renameat(
        &mut self,
        tid: Tid,
        olddirfd: i32,
        old: &str,
        newdirfd: i32,
        new: &str,
    ) -> SysResult {
        let obase = self.base_dir(tid, olddirfd)?;
        let nbase = self.base_dir(tid, newdirfd)?;
        let or = self.vfs.resolve(obase, old, false)?;
        let inode = or.inode.ok_or(Errno::Enoent)?;
        let nr = self.vfs.resolve(nbase, new, false)?;
        if let Some(existing) = nr.inode {
            if existing == inode {
                return Ok(0);
            }
            // Replace target (directories only onto empty directories).
            {
                let vfs = self.vfs.lock();
                let enode = vfs.get(existing)?;
                if matches!(enode.kind, InodeKind::Dir(_)) && !enode.dir()?.is_empty() {
                    return Err(Errno::Enotempty.into());
                }
            }
            self.vfs.unlink_from(nr.parent, &nr.name)?;
        }
        self.vfs.link_into(nr.parent, &nr.name, inode)?;
        self.vfs.unlink_from(or.parent, &or.name)?;
        Ok(0)
    }

    /// `linkat`.
    pub fn sys_linkat(
        &mut self,
        tid: Tid,
        olddirfd: i32,
        old: &str,
        newdirfd: i32,
        new: &str,
    ) -> SysResult {
        let obase = self.base_dir(tid, olddirfd)?;
        let nbase = self.base_dir(tid, newdirfd)?;
        let or = self.vfs.resolve(obase, old, true)?;
        let inode = or.inode.ok_or(Errno::Enoent)?;
        if matches!(self.vfs.lock().get(inode)?.kind, InodeKind::Dir(_)) {
            return Err(Errno::Eperm.into());
        }
        let nr = self.vfs.resolve(nbase, new, true)?;
        if nr.inode.is_some() {
            return Err(Errno::Eexist.into());
        }
        self.vfs.link_into(nr.parent, &nr.name, inode)?;
        Ok(0)
    }

    /// `symlinkat`.
    pub fn sys_symlinkat(&mut self, tid: Tid, target: &str, dirfd: i32, path: &str) -> SysResult {
        let base = self.base_dir(tid, dirfd)?;
        let r = self.vfs.resolve(base, path, false)?;
        if r.inode.is_some() {
            return Err(Errno::Eexist.into());
        }
        let now = self.clock.realtime_ns();
        let id = self
            .vfs
            .alloc(InodeKind::Symlink(target.to_string()), 0o777, now);
        self.vfs.link_into(r.parent, &r.name, id)?;
        self.vfs.lock().get_mut(id)?.nlink = 1;
        Ok(0)
    }

    /// `readlinkat`.
    pub fn sys_readlinkat(&mut self, tid: Tid, dirfd: i32, path: &str) -> SysResult<Vec<u8>> {
        let base = self.base_dir(tid, dirfd)?;
        let r = self.vfs.resolve(base, path, false)?;
        let inode = r.inode.ok_or(Errno::Enoent)?;
        match &self.vfs.lock().get(inode)?.kind {
            InodeKind::Symlink(t) => Ok(t.clone().into_bytes()),
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `faccessat`: existence plus a permissive mode check (single-user
    /// model: everything readable/writable, nothing executable except
    /// directories).
    pub fn sys_faccessat(&mut self, tid: Tid, dirfd: i32, path: &str, _mode: i32) -> SysResult {
        let base = self.base_dir(tid, dirfd)?;
        let r = self.vfs.resolve(base, path, true)?;
        r.inode.ok_or(Errno::Enoent)?;
        Ok(0)
    }

    /// `fchmodat`.
    pub fn sys_fchmodat(&mut self, tid: Tid, dirfd: i32, path: &str, mode: u32) -> SysResult {
        let base = self.base_dir(tid, dirfd)?;
        let r = self.vfs.resolve(base, path, true)?;
        let inode = r.inode.ok_or(Errno::Enoent)?;
        self.vfs.lock().get_mut(inode)?.perm = mode & 0o7777;
        Ok(0)
    }

    /// `fchmod`.
    pub fn sys_fchmod(&mut self, tid: Tid, fd: i32, mode: u32) -> SysResult {
        let file = self.file_of(tid, fd)?;
        match file.kind {
            FileKind::Regular(i) | FileKind::Dir(i) | FileKind::CharDev(i) => {
                self.vfs.lock().get_mut(i)?.perm = mode & 0o7777;
                Ok(0)
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `fchownat`.
    pub fn sys_fchownat(
        &mut self,
        tid: Tid,
        dirfd: i32,
        path: &str,
        uid: u32,
        gid: u32,
        flags: i32,
    ) -> SysResult {
        let base = self.base_dir(tid, dirfd)?;
        let follow = flags & AT_SYMLINK_NOFOLLOW == 0;
        let r = self.vfs.resolve(base, path, follow)?;
        let inode = r.inode.ok_or(Errno::Enoent)?;
        self.chown_inode(inode, uid, gid)
    }

    /// `fchown`. A pipe, socket or other inode-less description has no
    /// owner to change here.
    pub fn sys_fchown(&mut self, tid: Tid, fd: i32, uid: u32, gid: u32) -> SysResult {
        match self.file_of(tid, fd)?.kind {
            FileKind::Regular(i) | FileKind::Dir(i) | FileKind::CharDev(i) => {
                self.chown_inode(i, uid, gid)
            }
            _ => Ok(0),
        }
    }

    /// Sets an inode's owner and group; `u32::MAX` (`-1`) leaves one as
    /// it is.
    fn chown_inode(&mut self, inode: InodeId, uid: u32, gid: u32) -> SysResult {
        let mut vfs = self.vfs.lock();
        let node = vfs.get_mut(inode)?;
        if uid != u32::MAX {
            node.uid = uid;
        }
        if gid != u32::MAX {
            node.gid = gid;
        }
        Ok(0)
    }

    /// `ftruncate`.
    pub fn sys_ftruncate(&mut self, tid: Tid, fd: i32, len: u64) -> SysResult {
        let file = self.file_of(tid, fd)?;
        match file.kind {
            FileKind::Regular(inode) if file.writable() => {
                self.vfs.lock().set_len(inode, len)?;
                Ok(0)
            }
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `truncate`.
    pub fn sys_truncate(&mut self, tid: Tid, path: &str, len: u64) -> SysResult {
        let base = self.task(tid)?.fs().cwd;
        let r = self.vfs.resolve(base, path, true)?;
        let inode = r.inode.ok_or(Errno::Enoent)?;
        self.vfs.lock().set_len(inode, len)?;
        Ok(0)
    }

    /// `getcwd`.
    pub fn sys_getcwd(&mut self, tid: Tid) -> SysResult<String> {
        let cwd = self.task(tid)?.fs().cwd;
        Ok(self.vfs.abs_path_of(cwd)?)
    }

    /// `chdir`.
    pub fn sys_chdir(&mut self, tid: Tid, path: &str) -> SysResult {
        let base = self.task(tid)?.fs().cwd;
        let r = self.vfs.resolve(base, path, true)?;
        let inode = r.inode.ok_or(Errno::Enoent)?;
        if !matches!(self.vfs.lock().get(inode)?.kind, InodeKind::Dir(_)) {
            return Err(Errno::Enotdir.into());
        }
        self.task(tid)?.fs().cwd = inode;
        Ok(0)
    }

    /// `fchdir`.
    pub fn sys_fchdir(&mut self, tid: Tid, fd: i32) -> SysResult {
        let file = self.file_of(tid, fd)?;
        match file.kind {
            FileKind::Dir(inode) => {
                self.task(tid)?.fs().cwd = inode;
                Ok(0)
            }
            _ => Err(Errno::Enotdir.into()),
        }
    }

    /// `umask`.
    pub fn sys_umask(&mut self, tid: Tid, mask: u32) -> SysResult {
        let task = self.task(tid)?;
        let mut fs = task.fs();
        let old = fs.umask;
        fs.umask = mask & 0o777;
        Ok(old as i64)
    }

    /// `fsync`/`fdatasync`/`sync`: durable by construction.
    pub fn sys_fsync(&mut self, tid: Tid, fd: i32) -> SysResult {
        let _ = self.file_of(tid, fd)?;
        Ok(0)
    }

    /// `eventfd2`.
    pub fn sys_eventfd2(&mut self, tid: Tid, initval: u32, flags: i32) -> SysResult {
        let file = OpenFile::shared(FileKind::EventFd, O_RDWR | (flags & O_NONBLOCK));
        *file.counter() = initval as u64;
        let task = self.task(tid)?;
        let fd = task.fdtable.lock_ok().alloc(file, flags & O_CLOEXEC != 0)?;
        Ok(fd as i64)
    }
}

/// Out-of-band result data for `ioctl`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoctlOut {
    /// Plain integer result.
    Int(i32),
    /// `TIOCGWINSZ` window size.
    Winsize {
        /// Terminal rows.
        rows: u16,
        /// Terminal columns.
        cols: u16,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FILE_SIZE_MAX;
    use crate::SysError;
    use wali_abi::flags::{SEEK_CUR, SEEK_END, SEEK_SET, S_IFMT, S_IFREG};

    fn kp() -> (Kernel, Tid) {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        (k, tid)
    }

    #[test]
    fn open_write_read_round_trip() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/file.txt", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        assert_eq!(k.sys_write(tid, fd, b"hello world").unwrap(), 11);
        k.sys_lseek(tid, fd, 0, SEEK_SET).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(k.sys_read(tid, fd, &mut buf).unwrap(), 11);
        assert_eq!(&buf[..11], b"hello world");
        k.sys_close(tid, fd).unwrap();
        assert_eq!(
            k.sys_read(tid, fd, &mut buf),
            Err(SysError::Err(Errno::Ebadf))
        );
    }

    #[test]
    fn a_write_in_one_kernel_is_invisible_in_the_next() {
        // What a kernel sees of the paths the test changes.
        fn view(k: &mut Kernel, tid: Tid) -> (Vec<u8>, Vec<u8>, u32, bool, usize) {
            let mode =
                |k: &mut Kernel, path| k.sys_fstatat(tid, AT_FDCWD, path, 0).map(|st| st.st_mode);
            (
                k.vfs.read_file("/etc/passwd").unwrap(),
                k.vfs.read_file("/etc/hostname").unwrap(),
                mode(k, "/dev/null").unwrap(),
                mode(k, "/tmp/x").is_ok(),
                k.vfs.inode_count(),
            )
        }
        let (mut before, tid_before) = kp();
        let pristine = view(&mut before, tid_before);

        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/etc/passwd", O_APPEND | O_WRONLY, 0)
            .unwrap();
        k.sys_write(tid, fd, b"mallory:x:0:0::/:/bin/sh\n").unwrap();
        k.sys_mkdirat(tid, AT_FDCWD, "/tmp/x", 0o755).unwrap();
        k.sys_unlinkat(tid, AT_FDCWD, "/etc/hostname", 0).unwrap();
        k.sys_fchmodat(tid, AT_FDCWD, "/dev/null", 0o600).unwrap();
        assert!(k
            .vfs
            .read_file("/etc/passwd")
            .unwrap()
            .ends_with(b"/bin/sh\n"));
        assert!(k.vfs.read_file("/etc/hostname").is_err());

        // A kernel built before and one built after both see the
        // standard layout.
        assert_eq!(view(&mut before, tid_before), pristine);
        let (mut after, tid_after) = kp();
        assert_eq!(view(&mut after, tid_after), pristine);
        let (_, _, null_mode, has_tmp_x, inodes) = pristine;
        assert_eq!((null_mode & 0o777, has_tmp_x, inodes), (0o666, false, 22));
    }

    #[test]
    fn o_excl_and_o_trunc() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/x", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_write(tid, fd, b"data").unwrap();
        k.sys_close(tid, fd).unwrap();
        assert_eq!(
            k.sys_openat(tid, AT_FDCWD, "/tmp/x", O_CREAT | O_EXCL | O_RDWR, 0o644),
            Err(SysError::Err(Errno::Eexist))
        );
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/x", O_TRUNC | O_RDWR, 0)
            .unwrap();
        let st = k.sys_fstat(tid, fd).unwrap();
        assert_eq!(st.st_size, 0);
    }

    #[test]
    fn append_mode_writes_at_end() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/log", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_write(tid, fd, b"aaa").unwrap();
        let fd2 = k
            .sys_openat(tid, AT_FDCWD, "/tmp/log", O_APPEND | O_WRONLY, 0)
            .unwrap();
        k.sys_write(tid, fd2, b"bbb").unwrap();
        assert_eq!(k.vfs.read_file("/tmp/log").unwrap(), b"aaabbb");
    }

    #[test]
    fn pread_pwrite_do_not_move_offset() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/f", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_write(tid, fd, b"0123456789").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(k.sys_pread(tid, fd, &mut buf, 2).unwrap(), 4);
        assert_eq!(&buf, b"2345");
        k.sys_pwrite(tid, fd, b"XY", 0).unwrap();
        // Sequential offset still at 10.
        assert_eq!(k.sys_lseek(tid, fd, 0, SEEK_CUR).unwrap(), 10);
        assert_eq!(k.vfs.read_file("/tmp/f").unwrap(), b"XY23456789");
    }

    #[test]
    fn pipes_block_eof_and_epipe() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let mut buf = [0u8; 8];
        assert!(matches!(
            k.sys_read(tid, r, &mut buf),
            Err(SysError::Block(_))
        ));
        k.sys_write(tid, w, b"ping").unwrap();
        assert_eq!(k.sys_read(tid, r, &mut buf).unwrap(), 4);
        k.sys_close(tid, w).unwrap();
        assert_eq!(
            k.sys_read(tid, r, &mut buf).unwrap(),
            0,
            "EOF after writer closes"
        );
        // Reopen scenario: EPIPE + SIGPIPE when readers are gone.
        let (r2, w2) = k.sys_pipe2(tid, 0).unwrap();
        k.sys_close(tid, r2).unwrap();
        assert_eq!(k.sys_write(tid, w2, b"x"), Err(SysError::Err(Errno::Epipe)));
        assert!(k
            .sys_rt_sigpending(tid)
            .unwrap()
            .contains(Signal::Sigpipe.number()));
    }

    #[test]
    fn pipe_nonblock_returns_eagain() {
        let (mut k, tid) = kp();
        let (r, _w) = k.sys_pipe2(tid, O_NONBLOCK).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            k.sys_read(tid, r, &mut buf),
            Err(SysError::Err(Errno::Eagain))
        );
    }

    /// pipe(7): a write of at most `PIPE_BUF` bytes goes in whole or not
    /// at all — `-EAGAIN` on a non-blocking end, a park on
    /// `PipeWritable` otherwise, which the read that makes room wakes.
    #[test]
    fn a_small_write_into_a_nearly_full_pipe_waits_for_room() {
        use crate::pipe::PIPE_BUF_SIZE;
        for flags in [O_NONBLOCK, 0] {
            let (mut k, tid) = kp();
            let (r, w) = k.sys_pipe2(tid, flags).unwrap();
            let writer = k.sys_fork(tid).unwrap() as Tid;
            let fill = vec![b'f'; PIPE_BUF_SIZE - 40];
            assert_eq!(k.sys_write(tid, w, &fill).unwrap(), fill.len() as i64);
            let refused = k.sys_write(writer, w, &[b'a'; 100]);
            match flags {
                O_NONBLOCK => assert_eq!(refused, Err(SysError::Err(Errno::Eagain))),
                _ => assert!(matches!(refused, Err(SysError::Block(_)))),
            }
            let mut buf = vec![0u8; PIPE_BUF_SIZE];
            assert_eq!(k.sys_read(tid, r, &mut buf[..50]).unwrap(), 50);
            assert!(
                buf[..50].iter().all(|b| *b == b'f'),
                "no part of it went in"
            );
            if flags == 0 {
                let mut woken = Vec::new();
                k.drain_woken(&mut woken);
                assert_eq!(woken, [writer], "room was made");
                // Still short of 100: the retry parks again.
                assert!(matches!(
                    k.sys_write(writer, w, &[b'a'; 100]),
                    Err(SysError::Block(_))
                ));
            }
            assert_eq!(k.sys_read(tid, r, &mut buf[..10]).unwrap(), 10);
            assert_eq!(k.sys_write(writer, w, &[b'a'; 100]).unwrap(), 100);
            let n = k.sys_read(tid, r, &mut buf).unwrap() as usize;
            assert_eq!(n, fill.len() - 60 + 100);
            assert!(buf[n - 100..n].iter().all(|b| *b == b'a'));
        }
    }

    #[test]
    fn dup_shares_offset_dup3_replaces() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/f", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_write(tid, fd, b"abcdef").unwrap();
        let dup = k.sys_dup(tid, fd).unwrap() as i32;
        k.sys_lseek(tid, fd, 2, SEEK_SET).unwrap();
        let mut buf = [0u8; 2];
        assert_eq!(k.sys_read(tid, dup, &mut buf).unwrap(), 2);
        assert_eq!(&buf, b"cd", "dup shares file offset");
        k.sys_dup3(tid, fd, 0, 0).unwrap();
        assert_eq!(k.sys_read(tid, 0, &mut buf).unwrap(), 2);
    }

    #[test]
    fn stdout_writes_reach_console() {
        let (mut k, tid) = kp();
        k.sys_write(tid, 1, b"hello console\n").unwrap();
        assert_eq!(k.take_console(), b"hello console\n");
    }

    #[test]
    fn dev_nodes_behave() {
        let (mut k, tid) = kp();
        let null = k.sys_openat(tid, AT_FDCWD, "/dev/null", O_RDWR, 0).unwrap();
        let mut buf = [1u8; 4];
        assert_eq!(k.sys_read(tid, null, &mut buf).unwrap(), 0);
        assert_eq!(k.sys_write(tid, null, b"discard").unwrap(), 7);
        let zero = k
            .sys_openat(tid, AT_FDCWD, "/dev/zero", O_RDONLY, 0)
            .unwrap();
        assert_eq!(k.sys_read(tid, zero, &mut buf).unwrap(), 4);
        assert_eq!(buf, [0u8; 4]);
        let rand = k
            .sys_openat(tid, AT_FDCWD, "/dev/urandom", O_RDONLY, 0)
            .unwrap();
        assert_eq!(k.sys_read(tid, rand, &mut buf).unwrap(), 4);
    }

    #[test]
    fn proc_self_mem_reads_are_denied() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/proc/self/mem", O_RDWR, 0)
            .unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            k.sys_read(tid, fd, &mut buf),
            Err(SysError::Err(Errno::Eio))
        );
        assert_eq!(k.sys_write(tid, fd, b"pwn"), Err(SysError::Err(Errno::Eio)));
    }

    #[test]
    fn proc_status_is_generated() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/proc/self/status", O_RDONLY, 0)
            .unwrap();
        let mut buf = [0u8; 256];
        let n = k.sys_read(tid, fd, &mut buf).unwrap() as usize;
        let text = String::from_utf8_lossy(&buf[..n]);
        assert!(text.contains(&format!("Pid:\t{tid}")), "{text}");
    }

    #[test]
    fn getdents_enumerates_with_cursor() {
        let (mut k, tid) = kp();
        for name in ["a", "b", "c"] {
            let fd = k
                .sys_openat(
                    tid,
                    AT_FDCWD,
                    &format!("/tmp/{name}"),
                    O_CREAT | O_RDWR,
                    0o644,
                )
                .unwrap();
            k.sys_close(tid, fd).unwrap();
        }
        let dfd = k
            .sys_openat(tid, AT_FDCWD, "/tmp", O_DIRECTORY | O_RDONLY, 0)
            .unwrap();
        let ents = k.sys_getdents(tid, dfd, 4096).unwrap();
        let names: Vec<&str> = ents.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec![".", "..", "a", "b", "c"]);
        // Cursor exhausted.
        assert!(k.sys_getdents(tid, dfd, 4096).unwrap().is_empty());
        // Small buffer: partial enumeration resumes.
        k.sys_lseek(tid, dfd, 0, SEEK_SET).unwrap();
        let first = k.sys_getdents(tid, dfd, 64).unwrap();
        assert!(!first.is_empty() && first.len() < 5);
        let rest = k.sys_getdents(tid, dfd, 4096).unwrap();
        assert_eq!(first.len() + rest.len(), 5);
    }

    #[test]
    fn mkdir_unlink_rename_semantics() {
        let (mut k, tid) = kp();
        k.sys_mkdirat(tid, AT_FDCWD, "/tmp/dir", 0o755).unwrap();
        assert_eq!(
            k.sys_mkdirat(tid, AT_FDCWD, "/tmp/dir", 0o755),
            Err(SysError::Err(Errno::Eexist))
        );
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/dir/f", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_close(tid, fd).unwrap();
        // rmdir of non-empty dir fails.
        assert_eq!(
            k.sys_unlinkat(tid, AT_FDCWD, "/tmp/dir", AT_REMOVEDIR),
            Err(SysError::Err(Errno::Enotempty))
        );
        // unlink of dir without AT_REMOVEDIR fails.
        assert_eq!(
            k.sys_unlinkat(tid, AT_FDCWD, "/tmp/dir", 0),
            Err(SysError::Err(Errno::Eisdir))
        );
        k.sys_renameat(tid, AT_FDCWD, "/tmp/dir/f", AT_FDCWD, "/tmp/g")
            .unwrap();
        assert!(k.vfs.read_file("/tmp/g").is_ok());
        k.sys_unlinkat(tid, AT_FDCWD, "/tmp/dir", AT_REMOVEDIR)
            .unwrap();
        assert_eq!(
            k.sys_faccessat(tid, AT_FDCWD, "/tmp/dir", 0),
            Err(SysError::Err(Errno::Enoent))
        );
    }

    #[test]
    fn symlink_readlink() {
        let (mut k, tid) = kp();
        k.sys_symlinkat(tid, "/etc/passwd", AT_FDCWD, "/tmp/pw")
            .unwrap();
        assert_eq!(
            k.sys_readlinkat(tid, AT_FDCWD, "/tmp/pw").unwrap(),
            b"/etc/passwd"
        );
        // stat follows, lstat does not.
        let st = k.sys_fstatat(tid, AT_FDCWD, "/tmp/pw", 0).unwrap();
        assert_eq!(st.st_mode & S_IFMT, S_IFREG);
        let lst = k
            .sys_fstatat(tid, AT_FDCWD, "/tmp/pw", AT_SYMLINK_NOFOLLOW)
            .unwrap();
        assert_eq!(lst.st_mode & S_IFMT, wali_abi::flags::S_IFLNK);
    }

    #[test]
    fn chdir_getcwd() {
        let (mut k, tid) = kp();
        k.sys_mkdirat(tid, AT_FDCWD, "/tmp/wd", 0o755).unwrap();
        k.sys_chdir(tid, "/tmp/wd").unwrap();
        assert_eq!(k.sys_getcwd(tid).unwrap(), "/tmp/wd");
        // Relative open now lands in /tmp/wd.
        let fd = k
            .sys_openat(tid, AT_FDCWD, "rel.txt", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_close(tid, fd).unwrap();
        assert!(k.vfs.read_file("/tmp/wd/rel.txt").is_ok());
        assert_eq!(
            k.sys_chdir(tid, "/etc/passwd"),
            Err(SysError::Err(Errno::Enotdir))
        );
    }

    #[test]
    fn fcntl_dup_and_flags() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/f", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        let dup = k.sys_fcntl(tid, fd, F_DUPFD, 10).unwrap();
        assert!(dup >= 10);
        assert_eq!(k.sys_fcntl(tid, fd, F_GETFD, 0).unwrap(), 0);
        k.sys_fcntl(tid, fd, F_SETFD, FD_CLOEXEC).unwrap();
        assert_eq!(k.sys_fcntl(tid, fd, F_GETFD, 0).unwrap(), FD_CLOEXEC as i64);
        k.sys_fcntl(tid, fd, F_SETFL, O_NONBLOCK).unwrap();
        assert_ne!(
            k.sys_fcntl(tid, fd, F_GETFL, 0).unwrap() & O_NONBLOCK as i64,
            0
        );
    }

    #[test]
    fn ioctl_winsize_and_fionread() {
        let (mut k, tid) = kp();
        assert_eq!(
            k.sys_ioctl(tid, 1, TIOCGWINSZ).unwrap(),
            IoctlOut::Winsize { rows: 24, cols: 80 }
        );
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        k.sys_write(tid, w, b"12345").unwrap();
        assert_eq!(k.sys_ioctl(tid, r, FIONREAD).unwrap(), IoctlOut::Int(5));
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/f", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        assert_eq!(
            k.sys_ioctl(tid, fd, TIOCGWINSZ),
            Err(SysError::Err(Errno::Enotty))
        );
    }

    #[test]
    fn eventfd_counts() {
        let (mut k, tid) = kp();
        let fd = k.sys_eventfd2(tid, 3, 0).unwrap() as i32;
        let mut buf = [0u8; 8];
        assert_eq!(k.sys_read(tid, fd, &mut buf).unwrap(), 8);
        assert_eq!(u64::from_le_bytes(buf), 3);
        assert!(matches!(
            k.sys_read(tid, fd, &mut buf),
            Err(SysError::Block(_))
        ));
        k.sys_write(tid, fd, &5u64.to_le_bytes()).unwrap();
        k.sys_write(tid, fd, &2u64.to_le_bytes()).unwrap();
        k.sys_read(tid, fd, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn umask_applies_to_create() {
        let (mut k, tid) = kp();
        assert_eq!(k.sys_umask(tid, 0o077).unwrap(), 0o022);
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/f", O_CREAT | O_RDWR, 0o666)
            .unwrap();
        let st = k.sys_fstat(tid, fd).unwrap();
        assert_eq!(st.st_mode & 0o777, 0o600);
    }

    #[test]
    fn truncate_extends_and_shrinks() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/t", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_write(tid, fd, b"hello").unwrap();
        k.sys_ftruncate(tid, fd, 2).unwrap();
        assert_eq!(k.vfs.read_file("/tmp/t").unwrap(), b"he");
        k.sys_truncate(tid, "/tmp/t", 4).unwrap();
        assert_eq!(k.vfs.read_file("/tmp/t").unwrap(), b"he\0\0");
    }

    /// A file open for reading and writing, holding `b"hello"`.
    fn hello_file(k: &mut Kernel, tid: Tid) -> i32 {
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/big", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_write(tid, fd, b"hello").unwrap();
        fd
    }

    const EFBIG: Result<i64, SysError> = Err(SysError::Err(Errno::Efbig));

    #[test]
    fn pwrite_at_a_far_offset_is_efbig() {
        let (mut k, tid) = kp();
        let fd = hello_file(&mut k, tid);
        for offset in [1 << 63, u64::MAX, FILE_SIZE_MAX] {
            assert_eq!(k.sys_pwrite(tid, fd, b"x", offset), EFBIG);
        }
        assert_eq!(
            k.sys_pwrite(tid, fd, b"x", FILE_SIZE_MAX - 1 - (1 << 27)),
            Ok(1)
        );
    }

    #[test]
    fn write_after_a_far_lseek_is_efbig() {
        let (mut k, tid) = kp();
        let fd = hello_file(&mut k, tid);
        assert_eq!(k.sys_lseek(tid, fd, i64::MAX, SEEK_SET), Ok(i64::MAX));
        assert_eq!(k.sys_write(tid, fd, b"x"), EFBIG);
        assert_eq!(k.sys_lseek(tid, fd, 0, SEEK_CUR), Ok(i64::MAX), "unmoved");
        assert_eq!(k.sys_lseek(tid, fd, 0, SEEK_END), Ok(5), "not grown");
    }

    #[test]
    fn ftruncate_to_a_huge_length_is_efbig() {
        let (mut k, tid) = kp();
        let fd = hello_file(&mut k, tid);
        for len in [FILE_SIZE_MAX + 1, 1 << 62, u64::MAX] {
            assert_eq!(k.sys_ftruncate(tid, fd, len), EFBIG);
        }
        assert_eq!(k.sys_fstat(tid, fd).unwrap().st_size, 5);
    }

    #[test]
    fn truncate_to_a_huge_length_is_efbig() {
        let (mut k, tid) = kp();
        hello_file(&mut k, tid);
        assert_eq!(k.sys_truncate(tid, "/tmp/big", u64::MAX), EFBIG);
        assert_eq!(k.vfs.read_file("/tmp/big").unwrap(), b"hello");
        assert_eq!(
            k.sys_truncate(tid, "/tmp", 0),
            Err(SysError::Err(Errno::Eisdir))
        );
    }

    #[test]
    fn the_access_mode_of_a_description_is_enforced() {
        const EBADF: Result<i64, SysError> = Err(SysError::Err(Errno::Ebadf));
        let (mut k, tid) = kp();
        let fd = hello_file(&mut k, tid);
        k.sys_close(tid, fd).unwrap();
        let mut buf = [0u8; 8];

        let wr = k
            .sys_openat(tid, AT_FDCWD, "/tmp/big", O_WRONLY, 0)
            .unwrap();
        assert_eq!(k.sys_read(tid, wr, &mut buf), EBADF);
        assert_eq!(k.sys_pread(tid, wr, &mut buf, 0), EBADF);
        assert_eq!(k.sys_write(tid, wr, b"J"), Ok(1));

        let rd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/big", O_RDONLY, 0)
            .unwrap();
        assert_eq!(k.sys_write(tid, rd, b"x"), EBADF);
        assert_eq!(k.sys_pwrite(tid, rd, b"x", 0), EBADF);
        assert_eq!(
            k.sys_ftruncate(tid, rd, 0),
            Err(SysError::Err(Errno::Einval))
        );
        assert_eq!(k.sys_read(tid, rd, &mut buf), Ok(5));
        assert_eq!(&buf[..5], b"Jello");
        // A duplicate shares the description, access mode included.
        let dup = k.sys_dup(tid, rd).unwrap() as i32;
        assert_eq!(k.sys_write(tid, dup, b"x"), EBADF);

        // Every kind of description carries a mode: a pipe's ends are
        // one-way, sockets, eventfds and the standard streams two-way.
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!(k.sys_write(tid, r, b"x"), EBADF);
        assert_eq!(k.sys_read(tid, w, &mut buf), EBADF);
        assert_eq!(k.sys_fcntl(tid, w, F_GETFL, 0), Ok(O_WRONLY as i64));
        assert_eq!(k.sys_fcntl(tid, 1, F_GETFL, 0), Ok(O_RDWR as i64));
        let ev = k.sys_eventfd2(tid, 0, 0).unwrap() as i32;
        assert_eq!(k.sys_write(tid, ev, &1u64.to_le_bytes()), Ok(8));
        assert_eq!(k.sys_read(tid, ev, &mut buf), Ok(8));
    }

    #[test]
    fn hard_links_share_content() {
        let (mut k, tid) = kp();
        let fd = k
            .sys_openat(tid, AT_FDCWD, "/tmp/a", O_CREAT | O_RDWR, 0o644)
            .unwrap();
        k.sys_write(tid, fd, b"shared").unwrap();
        k.sys_linkat(tid, AT_FDCWD, "/tmp/a", AT_FDCWD, "/tmp/b")
            .unwrap();
        assert_eq!(k.vfs.read_file("/tmp/b").unwrap(), b"shared");
        let st = k.sys_fstatat(tid, AT_FDCWD, "/tmp/b", 0).unwrap();
        assert_eq!(st.st_nlink, 2);
        k.sys_unlinkat(tid, AT_FDCWD, "/tmp/a", 0).unwrap();
        assert_eq!(k.vfs.read_file("/tmp/b").unwrap(), b"shared");
    }
}
