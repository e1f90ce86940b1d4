//! File descriptors and descriptor tables.
//!
//! Linux semantics that matter to applications are preserved exactly:
//! `dup` shares the *open file description* (offset and status flags),
//! `FD_CLOEXEC` lives on the descriptor not the description, and the
//! lowest free slot is always allocated.

use std::sync::Arc;

use wali_abi::flags::{O_ACCMODE, O_RDONLY, O_WRONLY};
use wali_abi::Errno;

use crate::kernel::epoll::Epoll;
use crate::lockorder::{LockClass, Tracked};
use crate::pipe::Pipe;
use crate::slab::Handle;
use crate::socket::Socket;
use crate::vfs::InodeId;

/// Default soft limit on open descriptors (RLIMIT_NOFILE).
pub const DEFAULT_NOFILE: usize = 1024;

/// What an open file description refers to. A pipe, socket or epoll
/// instance is held by [`Handle`] — the object, not a slab id to look
/// up — so a call that has the description has its object.
#[derive(Clone, Debug)]
pub enum FileKind {
    /// Regular file.
    Regular(InodeId),
    /// Open directory (for `getdents64` / `fchdir`).
    Dir(InodeId),
    /// Read end of a pipe.
    PipeRead(Handle<Pipe>),
    /// Write end of a pipe.
    PipeWrite(Handle<Pipe>),
    /// A socket.
    Socket(Handle<Socket>),
    /// Character device by inode.
    CharDev(InodeId),
    /// Snapshot text (generated `/proc` files).
    ProcSnapshot(Arc<Vec<u8>>),
    /// An eventfd counter.
    EventFd,
    /// An epoll instance.
    Epoll(Handle<Epoll>),
}

/// An open file description (shared by duplicated descriptors).
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// Referent.
    pub kind: FileKind,
    /// Byte offset for seekable files.
    pub offset: u64,
    /// Status flags (`O_APPEND`, `O_NONBLOCK`, access mode …).
    pub flags: i32,
    /// eventfd counter value (only for `FileKind::EventFd`).
    pub counter: u64,
}

impl OpenFile {
    /// Creates a description behind its shared handle.
    pub fn shared(kind: FileKind, flags: i32) -> FileRef {
        let file = OpenFile {
            kind,
            offset: 0,
            flags,
            counter: 0,
        };
        Arc::new(Tracked::new(LockClass::Description, file))
    }

    /// Opened `O_RDONLY` or `O_RDWR`: `read`-family calls on anything
    /// else answer `-EBADF`.
    pub fn readable(&self) -> bool {
        self.flags & O_ACCMODE != O_WRONLY
    }

    /// Opened `O_WRONLY` or `O_RDWR`: `write`-family calls on anything
    /// else answer `-EBADF`.
    pub fn writable(&self) -> bool {
        self.flags & O_ACCMODE != O_RDONLY
    }
}

/// A shared open file description handle.
///
/// The description carries its own lock ([`LockClass::Description`]):
/// offset updates and eventfd counter edits on one file never serialize
/// against another file or against the kernel core. A descriptor call
/// takes it once, for the whole call.
pub type FileRef = Arc<Tracked<OpenFile>>;

/// One descriptor-table slot.
#[derive(Clone, Debug)]
pub struct FdEntry {
    /// The shared description.
    pub file: FileRef,
    /// Close-on-exec flag (per descriptor).
    pub cloexec: bool,
}

/// A file descriptor table.
#[derive(Debug)]
pub struct FdTable {
    slots: Vec<Option<FdEntry>>,
    /// RLIMIT_NOFILE soft limit.
    pub limit: usize,
    /// Tasks using this table (`CLONE_FILES` siblings share one). The
    /// task whose exit brings it to zero closes every descriptor —
    /// counted here, not read off the `Arc`, so a handle kept by a
    /// syscall path does not keep the descriptors open.
    members: usize,
}

impl Default for FdTable {
    fn default() -> FdTable {
        FdTable::new()
    }
}

impl FdTable {
    /// Creates an empty table with the default limit, used by one task.
    pub fn new() -> FdTable {
        FdTable {
            slots: Vec::new(),
            limit: DEFAULT_NOFILE,
            members: 1,
        }
    }

    /// Allocates the lowest free descriptor at or above `min`.
    pub fn alloc_from(&mut self, min: usize, entry: FdEntry) -> Result<i32, Errno> {
        if min >= self.limit {
            return Err(Errno::Einval);
        }
        for fd in min..self.slots.len() {
            if self.slots[fd].is_none() {
                self.slots[fd] = Some(entry);
                return Ok(fd as i32);
            }
        }
        let fd = self.slots.len().max(min);
        if fd >= self.limit {
            return Err(Errno::Emfile);
        }
        while self.slots.len() < fd {
            self.slots.push(None);
        }
        self.slots.push(Some(entry));
        Ok(fd as i32)
    }

    /// Allocates the lowest free descriptor.
    pub fn alloc(&mut self, file: FileRef, cloexec: bool) -> Result<i32, Errno> {
        self.alloc_from(0, FdEntry { file, cloexec })
    }

    /// Looks a descriptor up.
    pub fn get(&self, fd: i32) -> Result<&FdEntry, Errno> {
        if fd < 0 {
            return Err(Errno::Ebadf);
        }
        self.slots
            .get(fd as usize)
            .and_then(|e| e.as_ref())
            .ok_or(Errno::Ebadf)
    }

    /// Looks a descriptor up mutably.
    pub fn get_mut(&mut self, fd: i32) -> Result<&mut FdEntry, Errno> {
        if fd < 0 {
            return Err(Errno::Ebadf);
        }
        self.slots
            .get_mut(fd as usize)
            .and_then(|e| e.as_mut())
            .ok_or(Errno::Ebadf)
    }

    /// The open file description behind `fd`.
    pub fn file(&self, fd: i32) -> Result<FileRef, Errno> {
        Ok(self.get(fd)?.file.clone())
    }

    /// Closes a descriptor, returning its description.
    pub fn close(&mut self, fd: i32) -> Result<FdEntry, Errno> {
        if fd < 0 {
            return Err(Errno::Ebadf);
        }
        self.slots
            .get_mut(fd as usize)
            .and_then(|e| e.take())
            .ok_or(Errno::Ebadf)
    }

    /// `dup2`: places a duplicate of `old` at exactly `new`, closing any
    /// existing descriptor there.
    pub fn dup_to(&mut self, old: i32, new: i32, cloexec: bool) -> Result<i32, Errno> {
        if new < 0 || new as usize >= self.limit {
            return Err(Errno::Ebadf);
        }
        let file = self.file(old)?;
        while self.slots.len() <= new as usize {
            self.slots.push(None);
        }
        self.slots[new as usize] = Some(FdEntry { file, cloexec });
        Ok(new)
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Closes every CLOEXEC descriptor (on `execve`), returning the swept
    /// entries so the kernel can release their descriptions (pipe end
    /// counts, socket refs) exactly like an explicit `close`.
    #[must_use = "swept entries must be released by the kernel"]
    pub fn close_cloexec(&mut self) -> Vec<FdEntry> {
        let mut swept = Vec::new();
        for slot in &mut self.slots {
            if slot.as_ref().map(|e| e.cloexec).unwrap_or(false) {
                if let Some(entry) = slot.take() {
                    swept.push(entry);
                }
            }
        }
        swept
    }

    /// One more task uses this table (`clone` with `CLONE_FILES`).
    pub fn join(&mut self) {
        self.members += 1;
    }

    /// A task stops using this table (exit). When it was the last one
    /// the table is emptied and every open entry handed out, in
    /// descriptor order, for the kernel to release; otherwise nothing
    /// is. (The slots leave as they are: no list is built.)
    #[must_use = "the last member's entries must be released by the kernel"]
    pub fn leave(&mut self) -> impl Iterator<Item = FdEntry> {
        self.members = self.members.saturating_sub(1);
        let slots = match self.members {
            0 => std::mem::take(&mut self.slots),
            _ => Vec::new(),
        };
        slots.into_iter().flatten()
    }

    /// Iterates over open `(fd, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (i32, &FdEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i as i32, e)))
    }

    /// Copies the table for one new task, sharing the open file
    /// descriptions (fork semantics: descriptors copied, descriptions
    /// shared).
    pub fn fork_copy(&self) -> FdTable {
        FdTable {
            slots: self.slots.clone(),
            limit: self.limit,
            members: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> FileRef {
        OpenFile::shared(FileKind::Regular(0), 0)
    }

    #[test]
    fn lowest_free_slot_is_allocated() {
        let mut t = FdTable::new();
        assert_eq!(t.alloc(file(), false).unwrap(), 0);
        assert_eq!(t.alloc(file(), false).unwrap(), 1);
        assert_eq!(t.alloc(file(), false).unwrap(), 2);
        t.close(1).unwrap();
        assert_eq!(t.alloc(file(), false).unwrap(), 1);
    }

    #[test]
    fn dup_shares_offset() {
        let mut t = FdTable::new();
        let fd = t.alloc(file(), false).unwrap();
        let dup = t.alloc(t.get(fd).unwrap().file.clone(), false).unwrap();
        t.get(fd).unwrap().file.lock_ok().offset = 42;
        assert_eq!(t.get(dup).unwrap().file.lock_ok().offset, 42);
    }

    #[test]
    fn dup2_replaces_target() {
        let mut t = FdTable::new();
        let a = t.alloc(file(), false).unwrap();
        let b = t.alloc(file(), false).unwrap();
        t.get(a).unwrap().file.lock_ok().offset = 7;
        t.dup_to(a, b, false).unwrap();
        assert_eq!(t.get(b).unwrap().file.lock_ok().offset, 7);
        // dup2 to a large out-of-range fd fails.
        assert_eq!(
            t.dup_to(a, DEFAULT_NOFILE as i32, false).unwrap_err(),
            Errno::Ebadf
        );
    }

    #[test]
    fn cloexec_is_per_descriptor_and_cleared_on_exec() {
        let mut t = FdTable::new();
        let f = file();
        let keep = t.alloc(f.clone(), false).unwrap();
        let lose = t.alloc(f, true).unwrap();
        let swept = t.close_cloexec();
        assert_eq!(swept.len(), 1, "swept entries are returned for release");
        assert!(t.get(keep).is_ok());
        assert_eq!(t.get(lose).unwrap_err(), Errno::Ebadf);
    }

    #[test]
    fn bad_fds_are_ebadf() {
        let mut t = FdTable::new();
        assert_eq!(t.get(-1).unwrap_err(), Errno::Ebadf);
        assert_eq!(t.get(0).unwrap_err(), Errno::Ebadf);
        assert_eq!(t.close(5).unwrap_err(), Errno::Ebadf);
    }

    #[test]
    fn only_the_last_member_to_leave_drains_the_table() {
        let mut t = FdTable::new();
        t.alloc(file(), false).unwrap();
        t.alloc(file(), true).unwrap();
        t.join();
        assert_eq!(t.leave().count(), 0, "a sibling still uses the table");
        assert_eq!(t.open_count(), 2);
        assert_eq!(t.leave().count(), 2);
        assert_eq!(t.open_count(), 0);
        // A copy starts over with the one task it is made for.
        t.alloc(file(), false).unwrap();
        t.join();
        assert_eq!(t.fork_copy().leave().count(), 1);
    }

    #[test]
    fn fork_copy_shares_descriptions() {
        let mut t = FdTable::new();
        let fd = t.alloc(file(), false).unwrap();
        let copy = t.fork_copy();
        t.get(fd).unwrap().file.lock_ok().offset = 99;
        assert_eq!(
            copy.get(fd).unwrap().file.lock_ok().offset,
            99,
            "offset shared across fork"
        );
    }
}
