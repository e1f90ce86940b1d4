//! File descriptors and descriptor tables.
//!
//! Linux semantics that matter to applications are preserved exactly:
//! `dup` shares the *open file description* (offset and status flags),
//! `FD_CLOEXEC` lives on the descriptor not the description, and the
//! lowest free slot is always allocated.

use std::sync::atomic::{fence, AtomicI32, AtomicU64, Ordering};
use std::sync::Arc;

use wali_abi::flags::{O_ACCMODE, O_NONBLOCK, O_RDONLY, O_WRONLY};
use wali_abi::Errno;

use crate::kernel::epoll::Epoll;
use crate::lockorder::{LockClass, Tracked, TrackedGuard};
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
///
/// What a call reads of it is fixed or one word: the referent never
/// changes after open and the status flags are an atomic that
/// `fcntl(F_SETFL)` stores. The description lock
/// ([`LockClass::Description`], Linux's `f_pos_lock`) guards what a call
/// *changes*: the offset, and the eventfd counter behind it. A call
/// that moves the offset of a description nobody else can reach takes
/// no lock at all ([`OpenFile::pos`]).
#[derive(Debug)]
pub struct OpenFile {
    /// Referent (fixed at open).
    pub kind: FileKind,
    /// Status flags (`O_APPEND`, `O_NONBLOCK`, access mode …). `Relaxed`
    /// throughout: the word publishes no other data.
    flags: AtomicI32,
    /// Byte offset of a seekable file: moved under the description lock,
    /// or by the one holder of an exclusive description.
    offset: AtomicU64,
    /// The description lock, and the eventfd counter it guards.
    counter: Tracked<u64>,
}

/// A call's hold on a description's offset ([`OpenFile::pos`],
/// [`OpenFile::lock_pos`]): read, then moved, as one step.
#[derive(Debug)]
pub struct FilePos<'a> {
    offset: &'a AtomicU64,
    _lock: Option<TrackedGuard<'a, u64>>,
}

impl FilePos<'_> {
    /// The offset.
    #[inline]
    pub fn get(&self) -> u64 {
        self.offset.load(Ordering::Relaxed)
    }

    /// Moves the offset.
    #[inline]
    pub fn set(&mut self, offset: u64) {
        self.offset.store(offset, Ordering::Relaxed);
    }
}

impl OpenFile {
    /// Creates a description behind its shared handle.
    pub fn shared(kind: FileKind, flags: i32) -> FileRef {
        Arc::new(OpenFile {
            kind,
            flags: AtomicI32::new(flags),
            offset: AtomicU64::new(0),
            counter: Tracked::new(LockClass::Description, 0),
        })
    }

    /// Status flags.
    #[inline]
    pub fn flags(&self) -> i32 {
        self.flags.load(Ordering::Relaxed)
    }

    /// Replaces the status flags under `mask` with those of `bits`
    /// (`fcntl(F_SETFL)`, `FIONBIO`).
    pub fn set_flags(&self, mask: i32, bits: i32) {
        let _ = self
            .flags
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                Some((f & !mask) | (bits & mask))
            });
    }

    /// `O_NONBLOCK` is set.
    #[inline]
    pub fn nonblock(&self) -> bool {
        self.flags() & O_NONBLOCK != 0
    }

    /// Opened `O_RDONLY` or `O_RDWR`: `read`-family calls on anything
    /// else answer `-EBADF`.
    #[inline]
    pub fn readable(&self) -> bool {
        self.flags() & O_ACCMODE != O_WRONLY
    }

    /// Opened `O_WRONLY` or `O_RDWR`: `write`-family calls on anything
    /// else answer `-EBADF`.
    #[inline]
    pub fn writable(&self) -> bool {
        self.flags() & O_ACCMODE != O_RDONLY
    }

    /// The offset for a `read`, `write` or `lseek` (Linux's
    /// `fdget_pos`): under the description lock, unless `file` is the
    /// only way to the description — one strong reference, borrowed by
    /// the caller from the fd table it holds, and no weak one an epoll
    /// registration could upgrade. Nobody else can then reach the
    /// offset for as long as the caller holds that reference. A
    /// description that was shared (a `dup`, a `fork`) becomes exclusive
    /// when the last other reference drops: the acquire fence orders
    /// that holder's last offset store before this caller's load.
    #[inline]
    pub fn pos(file: &FileRef) -> FilePos<'_> {
        if Arc::strong_count(file) == 1 && Arc::weak_count(file) == 0 {
            fence(Ordering::Acquire);
            return FilePos {
                offset: &file.offset,
                _lock: None,
            };
        }
        file.lock_pos()
    }

    /// The offset under the description lock, shared or not
    /// (`getdents64` and `FIONREAD` read it this way).
    #[inline]
    pub fn lock_pos(&self) -> FilePos<'_> {
        FilePos {
            offset: &self.offset,
            _lock: Some(self.counter.lock_ok()),
        }
    }

    /// The eventfd counter, under the description lock.
    #[inline]
    pub fn counter(&self) -> TrackedGuard<'_, u64> {
        self.counter.lock_ok()
    }
}

/// A shared open file description handle.
pub type FileRef = Arc<OpenFile>;

/// One descriptor-table slot.
#[derive(Clone, Debug)]
pub struct FdEntry {
    /// The shared description.
    pub file: FileRef,
    /// Close-on-exec flag (per descriptor).
    pub cloexec: bool,
}

/// A task's fd table behind its lock ([`LockClass::Files`]); one handle
/// per task, shared by `CLONE_FILES` siblings.
pub type Files = Arc<Tracked<FdTable>>;

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

    /// Puts the table behind its lock.
    pub fn into_files(self) -> Files {
        Arc::new(Tracked::new(LockClass::Files, self))
    }

    /// Tasks using this table. At one, only that task's own calls can
    /// change a slot, so one of them may use a description in place for
    /// as long as it holds the table's lock (Linux's `__fget_light`).
    #[inline]
    pub fn members(&self) -> usize {
        self.members
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
        OpenFile::pos(&t.get(fd).unwrap().file).set(42);
        assert_eq!(OpenFile::pos(&t.get(dup).unwrap().file).get(), 42);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn only_a_description_another_can_reach_locks_its_offset() {
        use crate::lockorder::acquisitions_of;
        let moves = |f: &FileRef, to: u64| {
            let before = acquisitions_of(LockClass::Description);
            OpenFile::pos(f).set(to);
            acquisitions_of(LockClass::Description) - before
        };
        let f = file();
        assert_eq!(moves(&f, 1), 0, "one reference");
        let dup = f.clone();
        assert_eq!(moves(&f, 2), 1, "a dup holds another");
        assert_eq!(OpenFile::pos(&dup).get(), 2, "one offset");
        drop(dup);
        assert_eq!(moves(&f, 3), 0, "the dup closed");
        let watched = Arc::downgrade(&f);
        assert_eq!(moves(&f, 4), 1, "an epoll registration can upgrade");
        drop(watched);
        assert_eq!(f.lock_pos().get(), 4);
    }

    #[test]
    fn dup2_replaces_target() {
        let mut t = FdTable::new();
        let a = t.alloc(file(), false).unwrap();
        let b = t.alloc(file(), false).unwrap();
        OpenFile::pos(&t.get(a).unwrap().file).set(7);
        t.dup_to(a, b, false).unwrap();
        assert_eq!(OpenFile::pos(&t.get(b).unwrap().file).get(), 7);
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
        OpenFile::pos(&t.get(fd).unwrap().file).set(99);
        assert_eq!(
            OpenFile::pos(&copy.get(fd).unwrap().file).get(),
            99,
            "offset shared across fork"
        );
    }
}
