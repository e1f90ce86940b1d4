//! In-memory virtual filesystem: inodes, directories, symlinks, devices
//! and the `/proc` entries WALI's security model interposes on.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use wali_abi::flags::{S_IFCHR, S_IFDIR, S_IFLNK, S_IFMT, S_IFREG};
use wali_abi::Errno;

use crate::lockorder::{LockClass, Tracked, TrackedGuard};

/// Index into the inode table.
pub type InodeId = usize;

/// Maximum symlink traversals before `ELOOP`.
pub const MAX_SYMLINK_DEPTH: u32 = 40;
/// Maximum path length before `ENAMETOOLONG`.
pub const PATH_MAX: usize = 4096;
/// Largest size a regular file may reach (an `RLIMIT_FSIZE` every task
/// runs under): a write or truncate that would end past it answers
/// `-EFBIG`. File contents live in host memory, and the offset and
/// length of such a call are the guest's to choose.
pub const FILE_SIZE_MAX: u64 = 1 << 28;

/// Character/pseudo device behaviours.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DevKind {
    /// `/dev/null`: reads EOF, writes discarded.
    Null,
    /// `/dev/zero`: reads zeros.
    Zero,
    /// `/dev/urandom`: deterministic pseudo-random stream.
    Urandom,
    /// `/dev/tty`: line console (writes captured by the kernel).
    Tty,
    /// `/proc/self/mem`: the host-address-space hole WALI must interpose
    /// on and deny (paper §3.6 pitfall 1).
    ProcSelfMem,
    /// A `/proc` text file whose content is generated at open time.
    ProcText(&'static str),
}

/// What an inode is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file with contents.
    File(Vec<u8>),
    /// Directory mapping names to inodes.
    Dir(BTreeMap<String, InodeId>),
    /// Symbolic link to a target path.
    Symlink(String),
    /// Character device.
    CharDev(DevKind),
}

/// An inode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inode {
    /// Stable inode number (for `stat`).
    pub ino: u64,
    /// Content.
    pub kind: InodeKind,
    /// Permission bits (file-type bits derived from `kind`).
    pub perm: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Hard link count.
    pub nlink: u32,
    /// Access/modify/change times (virtual ns since epoch).
    pub atime: u64,
    /// Modification time.
    pub mtime: u64,
    /// Change time.
    pub ctime: u64,
}

impl Inode {
    /// The full `st_mode` including file-type bits.
    pub fn mode(&self) -> u32 {
        let kind_bits = match &self.kind {
            InodeKind::File(_) => S_IFREG,
            InodeKind::Dir(_) => S_IFDIR,
            InodeKind::Symlink(_) => S_IFLNK,
            InodeKind::CharDev(_) => S_IFCHR,
        };
        kind_bits | (self.perm & !S_IFMT)
    }

    /// Byte size for `stat` (file length, symlink target length, 0 else).
    pub fn size(&self) -> u64 {
        match &self.kind {
            InodeKind::File(data) => data.len() as u64,
            InodeKind::Symlink(t) => t.len() as u64,
            InodeKind::Dir(entries) => (entries.len() as u64 + 2) * 32,
            InodeKind::CharDev(_) => 0,
        }
    }

    /// Directory entries, or `ENOTDIR`.
    pub fn dir(&self) -> Result<&BTreeMap<String, InodeId>, Errno> {
        match &self.kind {
            InodeKind::Dir(d) => Ok(d),
            _ => Err(Errno::Enotdir),
        }
    }

    fn dir_mut(&mut self) -> Result<&mut BTreeMap<String, InodeId>, Errno> {
        match &mut self.kind {
            InodeKind::Dir(d) => Ok(d),
            _ => Err(Errno::Enotdir),
        }
    }
}

/// Result of a path resolution.
#[derive(Clone, Debug)]
pub struct Resolved {
    /// The directory containing the final component.
    pub parent: InodeId,
    /// The final path component (empty for `/`).
    pub name: String,
    /// The inode, if the final component exists.
    pub inode: Option<InodeId>,
}

/// The filesystem. Inodes are shared between clones and copied on
/// write ([`Vfs::get_mut`]), so a clone costs one reference count per
/// inode and a filesystem only ever owns the inodes it changed.
#[derive(Clone, Debug)]
pub struct Vfs {
    inodes: Vec<Option<Arc<Inode>>>,
    /// Root directory inode.
    pub root: InodeId,
    next_ino: u64,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates a filesystem with only `/`.
    pub fn new() -> Vfs {
        let mut vfs = Vfs {
            inodes: Vec::new(),
            root: 0,
            next_ino: 1,
        };
        let root = vfs.alloc(InodeKind::Dir(BTreeMap::new()), 0o755, 0);
        vfs.root = root;
        vfs
    }

    /// Creates a filesystem with the standard layout: `/tmp`, `/home`,
    /// `/etc/passwd`, `/dev/{null,zero,urandom,tty}` and the `/proc`
    /// entries the WALI security model cares about. The layout is built
    /// once per process; every call clones that template.
    pub fn with_std_layout() -> Vfs {
        static TEMPLATE: OnceLock<Vfs> = OnceLock::new();
        TEMPLATE.get_or_init(Vfs::build_std_layout).clone()
    }

    fn build_std_layout() -> Vfs {
        let mut vfs = Vfs::new();
        for dir in [
            "/tmp",
            "/home",
            "/home/user",
            "/etc",
            "/dev",
            "/proc",
            "/proc/self",
            "/var",
            "/var/log",
            "/usr",
            "/usr/bin",
        ] {
            vfs.mkdir_p(dir).expect("std layout");
        }
        vfs.write_file(
            "/etc/passwd",
            b"root:x:0:0:root:/root:/bin/bash\nuser:x:1000:1000::/home/user:/bin/bash\n",
        )
        .expect("std layout");
        vfs.write_file("/etc/hostname", b"wali-vm\n")
            .expect("std layout");
        vfs.mknod_dev("/dev/null", DevKind::Null)
            .expect("std layout");
        vfs.mknod_dev("/dev/zero", DevKind::Zero)
            .expect("std layout");
        vfs.mknod_dev("/dev/urandom", DevKind::Urandom)
            .expect("std layout");
        vfs.mknod_dev("/dev/tty", DevKind::Tty).expect("std layout");
        vfs.mknod_dev("/proc/self/mem", DevKind::ProcSelfMem)
            .expect("std layout");
        vfs.mknod_dev("/proc/self/status", DevKind::ProcText("status"))
            .expect("std layout");
        vfs.mknod_dev("/proc/meminfo", DevKind::ProcText("meminfo"))
            .expect("std layout");
        vfs.mknod_dev("/proc/cpuinfo", DevKind::ProcText("cpuinfo"))
            .expect("std layout");
        vfs
    }

    /// Allocates a new inode.
    pub fn alloc(&mut self, kind: InodeKind, perm: u32, now: u64) -> InodeId {
        let ino = self.next_ino;
        self.next_ino += 1;
        let node = Inode {
            ino,
            kind,
            perm,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime: now,
            mtime: now,
            ctime: now,
        };
        self.inodes.push(Some(Arc::new(node)));
        self.inodes.len() - 1
    }

    /// Fetches an inode.
    pub fn get(&self, id: InodeId) -> Result<&Inode, Errno> {
        self.inodes
            .get(id)
            .and_then(|i| i.as_deref())
            .ok_or(Errno::Enoent)
    }

    /// Fetches an inode mutably — the one place a shared inode becomes
    /// this filesystem's own copy.
    pub fn get_mut(&mut self, id: InodeId) -> Result<&mut Inode, Errno> {
        self.inodes
            .get_mut(id)
            .and_then(|i| i.as_mut())
            .map(Arc::make_mut)
            .ok_or(Errno::Enoent)
    }

    /// Resolves `path` relative to `cwd`, following intermediate symlinks
    /// always and the final symlink only when `follow_last` is set.
    pub fn resolve(&self, cwd: InodeId, path: &str, follow_last: bool) -> Result<Resolved, Errno> {
        self.resolve_depth(cwd, path, follow_last, 0)
    }

    fn resolve_depth(
        &self,
        cwd: InodeId,
        path: &str,
        follow_last: bool,
        depth: u32,
    ) -> Result<Resolved, Errno> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(Errno::Eloop);
        }
        if path.len() > PATH_MAX {
            return Err(Errno::Enametoolong);
        }
        if path.is_empty() {
            return Err(Errno::Enoent);
        }

        // Walk maintaining a directory stack so `..` works without parent
        // pointers.
        let mut stack: Vec<InodeId> = vec![self.root];
        if !path.starts_with('/') && cwd != self.root {
            stack = self.dir_stack_of(cwd)?;
        }

        let comps: Vec<&str> = path
            .split('/')
            .filter(|c| !c.is_empty() && *c != ".")
            .collect();
        if comps.is_empty() {
            // "/" or "." — the directory itself.
            let dir = *stack.last().expect("non-empty stack");
            return Ok(Resolved {
                parent: dir,
                name: String::new(),
                inode: Some(dir),
            });
        }

        for (i, comp) in comps.iter().enumerate() {
            let last = i == comps.len() - 1;
            if *comp == ".." {
                if stack.len() > 1 {
                    stack.pop();
                }
                if last {
                    let dir = *stack.last().expect("root remains");
                    return Ok(Resolved {
                        parent: dir,
                        name: String::new(),
                        inode: Some(dir),
                    });
                }
                continue;
            }
            let dir_id = *stack.last().expect("non-empty stack");
            let dir = self.get(dir_id)?;
            let entries = dir.dir()?;
            match entries.get(*comp) {
                None if last => {
                    return Ok(Resolved {
                        parent: dir_id,
                        name: comp.to_string(),
                        inode: None,
                    });
                }
                None => return Err(Errno::Enoent),
                Some(&child) => {
                    let node = self.get(child)?;
                    if let InodeKind::Symlink(target) = &node.kind {
                        if !last || follow_last {
                            // Re-resolve: target, then the remaining comps.
                            let mut rebuilt = target.clone();
                            for rest in &comps[i + 1..] {
                                rebuilt.push('/');
                                rebuilt.push_str(rest);
                            }
                            return self.resolve_depth(dir_id, &rebuilt, follow_last, depth + 1);
                        }
                    }
                    if last {
                        return Ok(Resolved {
                            parent: dir_id,
                            name: comp.to_string(),
                            inode: Some(child),
                        });
                    }
                    stack.push(child);
                }
            }
        }
        unreachable!("loop returns on the last component");
    }

    /// Rebuilds the directory stack for `dir` by scanning from the root
    /// (directories form a tree, so a DFS finds the unique path).
    fn dir_stack_of(&self, dir: InodeId) -> Result<Vec<InodeId>, Errno> {
        if dir == self.root {
            return Ok(vec![self.root]);
        }
        let mut stack = vec![self.root];
        if self.dfs_to(dir, &mut stack) {
            Ok(stack)
        } else {
            Err(Errno::Enoent)
        }
    }

    fn dfs_to(&self, target: InodeId, stack: &mut Vec<InodeId>) -> bool {
        let cur = *stack.last().expect("non-empty");
        let Ok(node) = self.get(cur) else {
            return false;
        };
        let Ok(entries) = node.dir() else {
            return false;
        };
        for &child in entries.values() {
            if matches!(self.get(child).map(|n| &n.kind), Ok(InodeKind::Dir(_))) {
                stack.push(child);
                if child == target || self.dfs_to(target, stack) {
                    return true;
                }
                stack.pop();
            }
        }
        false
    }

    /// Returns the absolute path of a directory inode (for `getcwd`).
    pub fn abs_path_of(&self, dir: InodeId) -> Result<String, Errno> {
        let stack = self.dir_stack_of(dir)?;
        if stack.len() == 1 {
            return Ok("/".to_string());
        }
        let mut out = String::new();
        for win in stack.windows(2) {
            let parent = self.get(win[0])?;
            let entries = parent.dir()?;
            let name = entries
                .iter()
                .find(|(_, &id)| id == win[1])
                .map(|(n, _)| n.clone())
                .ok_or(Errno::Enoent)?;
            out.push('/');
            out.push_str(&name);
        }
        Ok(out)
    }

    /// Adds a directory entry; the caller ensures `parent` is a directory.
    pub fn link_into(&mut self, parent: InodeId, name: &str, child: InodeId) -> Result<(), Errno> {
        if name.is_empty() || name.contains('/') {
            return Err(Errno::Einval);
        }
        let entries = self.get_mut(parent)?.dir_mut()?;
        if entries.contains_key(name) {
            return Err(Errno::Eexist);
        }
        entries.insert(name.to_string(), child);
        self.get_mut(child)?.nlink += 1;
        Ok(())
    }

    /// Removes a directory entry, freeing the inode when nlink drops to 0.
    pub fn unlink_from(&mut self, parent: InodeId, name: &str) -> Result<(), Errno> {
        let entries = self.get_mut(parent)?.dir_mut()?;
        let child = *entries.get(name).ok_or(Errno::Enoent)?;
        entries.remove(name);
        let node = self.get_mut(child)?;
        node.nlink = node.nlink.saturating_sub(1);
        if node.nlink == 0 {
            self.inodes[child] = None;
        }
        Ok(())
    }

    /// Creates every missing directory along `path`.
    pub fn mkdir_p(&mut self, path: &str) -> Result<InodeId, Errno> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let next = {
                let dir = self.get(cur)?.dir()?;
                dir.get(comp).copied()
            };
            cur = match next {
                Some(id) => id,
                None => {
                    let id = self.alloc(InodeKind::Dir(BTreeMap::new()), 0o755, 0);
                    self.link_into(cur, comp, id)?;
                    id
                }
            };
        }
        Ok(cur)
    }

    /// Copies file bytes from `offset` on into `out`; returns how many
    /// there were (0 at or past the end).
    pub fn read_at(&self, id: InodeId, offset: u64, out: &mut [u8]) -> Result<usize, Errno> {
        match &self.get(id)?.kind {
            InodeKind::File(data) => {
                let off = usize::try_from(offset).map_or(data.len(), |o| o.min(data.len()));
                let n = out.len().min(data.len() - off);
                out[..n].copy_from_slice(&data[off..off + n]);
                Ok(n)
            }
            _ => Err(Errno::Einval),
        }
    }

    /// Writes `data` at `offset` — at the end of the file when `offset`
    /// is `None` (`O_APPEND`: finding the end and writing there are one
    /// step) — zero-filling any gap, and returns where the data went.
    pub fn write_at(
        &mut self,
        id: InodeId,
        offset: Option<u64>,
        data: &[u8],
        now: u64,
    ) -> Result<u64, Errno> {
        let node = self.get_mut(id)?;
        let InodeKind::File(content) = &mut node.kind else {
            return Err(Errno::Einval);
        };
        let start = offset.unwrap_or(content.len() as u64);
        let end = start
            .checked_add(data.len() as u64)
            .filter(|end| *end <= FILE_SIZE_MAX)
            .ok_or(Errno::Efbig)? as usize;
        if end > content.len() {
            content.resize(end, 0);
        }
        content[start as usize..end].copy_from_slice(data);
        node.mtime = now;
        Ok(start)
    }

    /// Sets a regular file's length (`truncate`), zero-filling growth.
    pub fn set_len(&mut self, id: InodeId, len: u64) -> Result<(), Errno> {
        match &mut self.get_mut(id)?.kind {
            InodeKind::File(_) if len > FILE_SIZE_MAX => Err(Errno::Efbig),
            InodeKind::File(data) => {
                data.resize(len as usize, 0);
                Ok(())
            }
            InodeKind::Dir(_) => Err(Errno::Eisdir),
            _ => Err(Errno::Einval),
        }
    }

    /// Creates (or truncates) a regular file at an absolute path.
    pub fn write_file(&mut self, path: &str, content: &[u8]) -> Result<InodeId, Errno> {
        let r = self.resolve(self.root, path, true)?;
        match r.inode {
            Some(id) => match &mut self.get_mut(id)?.kind {
                InodeKind::File(data) => {
                    data.clear();
                    data.extend_from_slice(content);
                    Ok(id)
                }
                _ => Err(Errno::Eisdir),
            },
            None => {
                let id = self.alloc(InodeKind::File(content.to_vec()), 0o644, 0);
                self.link_into(r.parent, &r.name, id)?;
                // link_into bumped nlink to 2 (alloc starts at 1).
                self.get_mut(id)?.nlink = 1;
                Ok(id)
            }
        }
    }

    /// Reads a whole regular file at an absolute path (test convenience).
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, Errno> {
        let r = self.resolve(self.root, path, true)?;
        let id = r.inode.ok_or(Errno::Enoent)?;
        match &self.get(id)?.kind {
            InodeKind::File(data) => Ok(data.clone()),
            InodeKind::Dir(_) => Err(Errno::Eisdir),
            _ => Err(Errno::Einval),
        }
    }

    /// Creates a device node at an absolute path.
    pub fn mknod_dev(&mut self, path: &str, dev: DevKind) -> Result<InodeId, Errno> {
        let r = self.resolve(self.root, path, true)?;
        if r.inode.is_some() {
            return Err(Errno::Eexist);
        }
        let id = self.alloc(InodeKind::CharDev(dev), 0o666, 0);
        self.link_into(r.parent, &r.name, id)?;
        self.get_mut(id)?.nlink = 1;
        Ok(id)
    }

    /// Number of live inodes (for memory accounting).
    pub fn inode_count(&self) -> usize {
        self.inodes.iter().filter(|i| i.is_some()).count()
    }
}

/// The filesystem behind its shard lock (a leaf lock: a lookup and a
/// mutation exclude each other, each for as long as one short section
/// takes). The root inode id is immutable for the filesystem's lifetime
/// and mirrored here so `resolve(vfs.root, …)` call sites need no lock
/// at all for the anchor.
#[derive(Clone, Debug)]
pub struct VfsShard {
    inner: Arc<Tracked<Vfs>>,
    /// Root directory inode (immutable; copied out of the wrapped fs).
    pub root: InodeId,
}

impl Default for VfsShard {
    fn default() -> VfsShard {
        VfsShard::new(Vfs::new())
    }
}

impl VfsShard {
    /// Wraps a filesystem in its shard lock.
    pub fn new(vfs: Vfs) -> VfsShard {
        let root = vfs.root;
        VfsShard {
            inner: Arc::new(Tracked::new(LockClass::Vfs, vfs)),
            root,
        }
    }

    /// Locks the filesystem (lookups, `stat`, `getdents`, namespace and
    /// content mutation alike).
    #[inline]
    pub fn lock(&self) -> TrackedGuard<'_, Vfs> {
        self.inner.lock_ok()
    }

    // Owned-result conveniences: the call sites that only need one
    // operation keep their pre-shard shape (`self.vfs.resolve(…)`).

    /// See [`Vfs::resolve`].
    pub fn resolve(&self, cwd: InodeId, path: &str, follow_last: bool) -> Result<Resolved, Errno> {
        self.lock().resolve(cwd, path, follow_last)
    }

    /// See [`Vfs::alloc`].
    pub fn alloc(&self, kind: InodeKind, perm: u32, now: u64) -> InodeId {
        self.lock().alloc(kind, perm, now)
    }

    /// See [`Vfs::abs_path_of`].
    pub fn abs_path_of(&self, dir: InodeId) -> Result<String, Errno> {
        self.lock().abs_path_of(dir)
    }

    /// See [`Vfs::link_into`].
    pub fn link_into(&self, parent: InodeId, name: &str, child: InodeId) -> Result<(), Errno> {
        self.lock().link_into(parent, name, child)
    }

    /// See [`Vfs::unlink_from`].
    pub fn unlink_from(&self, parent: InodeId, name: &str) -> Result<(), Errno> {
        self.lock().unlink_from(parent, name)
    }

    /// See [`Vfs::mkdir_p`].
    pub fn mkdir_p(&self, path: &str) -> Result<InodeId, Errno> {
        self.lock().mkdir_p(path)
    }

    /// See [`Vfs::write_file`].
    pub fn write_file(&self, path: &str, content: &[u8]) -> Result<InodeId, Errno> {
        self.lock().write_file(path, content)
    }

    /// See [`Vfs::read_file`].
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, Errno> {
        self.lock().read_file(path)
    }

    /// See [`Vfs::mknod_dev`].
    pub fn mknod_dev(&self, path: &str, dev: DevKind) -> Result<InodeId, Errno> {
        self.lock().mknod_dev(path, dev)
    }

    /// See [`Vfs::inode_count`].
    pub fn inode_count(&self) -> usize {
        self.lock().inode_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_layout_has_expected_nodes() {
        let vfs = Vfs::with_std_layout();
        for p in ["/tmp", "/dev/null", "/proc/self/mem", "/etc/passwd"] {
            let r = vfs.resolve(vfs.root, p, true).unwrap();
            assert!(r.inode.is_some(), "{p} missing");
        }
    }

    #[test]
    fn a_template_clone_equals_a_from_scratch_build() {
        let (cloned, built) = (Vfs::with_std_layout(), Vfs::build_std_layout());
        // Inode for inode: numbers, kinds, permissions, link counts, times.
        assert_eq!(cloned.inodes, built.inodes);
        assert_eq!(cloned.inode_count(), 22);
        assert_eq!((cloned.root, cloned.next_ino), (built.root, built.next_ino));
    }

    #[test]
    fn a_clone_owns_only_the_inodes_it_changed() {
        let pristine = Vfs::with_std_layout();
        let mut vfs = Vfs::with_std_layout();
        vfs.write_file("/tmp/f", b"x").unwrap();
        let shared = vfs
            .inodes
            .iter()
            .zip(&pristine.inodes)
            .filter(|pair| matches!(pair, (Some(a), Some(b)) if Arc::ptr_eq(a, b)))
            .count();
        // Only `/tmp` was copied; the new file is this filesystem's own.
        assert_eq!(shared, 21);
        assert_eq!(vfs.inode_count(), 23);
        assert_eq!(pristine.inode_count(), 22);
    }

    #[test]
    fn resolve_relative_and_dotdot() {
        let mut vfs = Vfs::with_std_layout();
        let home = vfs.mkdir_p("/home/user/work").unwrap();
        vfs.write_file("/home/user/notes.txt", b"hi").unwrap();
        let r = vfs.resolve(home, "../notes.txt", true).unwrap();
        assert!(r.inode.is_some());
        let r = vfs.resolve(home, "../../..", true).unwrap();
        assert_eq!(r.inode, Some(vfs.root));
        // `..` from root stays at root.
        let r = vfs.resolve(vfs.root, "../../tmp", true).unwrap();
        assert!(r.inode.is_some());
    }

    #[test]
    fn missing_intermediate_is_enoent() {
        let vfs = Vfs::with_std_layout();
        assert_eq!(
            vfs.resolve(vfs.root, "/no/such/dir", true).unwrap_err(),
            Errno::Enoent
        );
        // Missing *final* component resolves with inode = None.
        let r = vfs.resolve(vfs.root, "/tmp/newfile", true).unwrap();
        assert!(r.inode.is_none());
        assert_eq!(r.name, "newfile");
    }

    #[test]
    fn file_as_directory_is_enotdir() {
        let mut vfs = Vfs::with_std_layout();
        vfs.write_file("/tmp/f", b"x").unwrap();
        assert_eq!(
            vfs.resolve(vfs.root, "/tmp/f/sub", true).unwrap_err(),
            Errno::Enotdir
        );
    }

    #[test]
    fn symlinks_follow_and_detect_loops() {
        let mut vfs = Vfs::with_std_layout();
        vfs.write_file("/tmp/real", b"data").unwrap();
        let link = vfs.alloc(InodeKind::Symlink("/tmp/real".into()), 0o777, 0);
        let tmp = vfs.resolve(vfs.root, "/tmp", true).unwrap().inode.unwrap();
        vfs.link_into(tmp, "alias", link).unwrap();

        let r = vfs.resolve(vfs.root, "/tmp/alias", true).unwrap();
        let node = vfs.get(r.inode.unwrap()).unwrap();
        assert!(matches!(node.kind, InodeKind::File(_)));

        // nofollow returns the symlink itself.
        let r = vfs.resolve(vfs.root, "/tmp/alias", false).unwrap();
        let node = vfs.get(r.inode.unwrap()).unwrap();
        assert!(matches!(node.kind, InodeKind::Symlink(_)));

        // Self-loop traps at depth 40.
        let looper = vfs.alloc(InodeKind::Symlink("/tmp/loop".into()), 0o777, 0);
        vfs.link_into(tmp, "loop", looper).unwrap();
        assert_eq!(
            vfs.resolve(vfs.root, "/tmp/loop", true).unwrap_err(),
            Errno::Eloop
        );
    }

    #[test]
    fn symlink_mid_path_is_followed() {
        let mut vfs = Vfs::with_std_layout();
        vfs.mkdir_p("/data/store").unwrap();
        vfs.write_file("/data/store/x", b"1").unwrap();
        let link = vfs.alloc(InodeKind::Symlink("/data".into()), 0o777, 0);
        vfs.link_into(vfs.root, "d", link).unwrap();
        let r = vfs.resolve(vfs.root, "/d/store/x", false).unwrap();
        assert!(r.inode.is_some());
    }

    #[test]
    fn unlink_frees_at_zero_nlink() {
        let mut vfs = Vfs::with_std_layout();
        let id = vfs.write_file("/tmp/f", b"x").unwrap();
        let tmp = vfs.resolve(vfs.root, "/tmp", true).unwrap().inode.unwrap();
        vfs.link_into(tmp, "g", id).unwrap();
        assert_eq!(vfs.get(id).unwrap().nlink, 2);
        vfs.unlink_from(tmp, "f").unwrap();
        assert!(vfs.get(id).is_ok(), "still linked as g");
        vfs.unlink_from(tmp, "g").unwrap();
        assert_eq!(vfs.get(id).unwrap_err(), Errno::Enoent);
    }

    #[test]
    fn abs_path_round_trips() {
        let mut vfs = Vfs::with_std_layout();
        let work = vfs.mkdir_p("/home/user/work").unwrap();
        assert_eq!(vfs.abs_path_of(work).unwrap(), "/home/user/work");
        assert_eq!(vfs.abs_path_of(vfs.root).unwrap(), "/");
    }

    #[test]
    fn mode_bits_reflect_kind() {
        let vfs = Vfs::with_std_layout();
        let dev = vfs
            .resolve(vfs.root, "/dev/null", true)
            .unwrap()
            .inode
            .unwrap();
        assert_eq!(vfs.get(dev).unwrap().mode() & S_IFMT, S_IFCHR);
        let tmp = vfs.resolve(vfs.root, "/tmp", true).unwrap().inode.unwrap();
        assert_eq!(vfs.get(tmp).unwrap().mode() & S_IFMT, S_IFDIR);
    }

    #[test]
    fn a_file_cannot_grow_past_the_cap() {
        let mut vfs = Vfs::with_std_layout();
        let id = vfs.write_file("/tmp/f", b"abc").unwrap();
        // The guest picks the offset: far ones are refused, not resized to.
        for offset in [FILE_SIZE_MAX, 1 << 63, u64::MAX] {
            assert_eq!(vfs.write_at(id, Some(offset), b"x", 0), Err(Errno::Efbig));
        }
        assert_eq!(vfs.set_len(id, FILE_SIZE_MAX + 1), Err(Errno::Efbig));
        assert_eq!(vfs.read_file("/tmp/f").unwrap(), b"abc", "untouched");
        // Up to the cap everything works, gaps read back as zeros.
        assert_eq!(vfs.write_at(id, Some(5), b"z", 0), Ok(5));
        assert_eq!(
            vfs.write_at(id, None, b"!", 0),
            Ok(6),
            "append finds the end"
        );
        assert_eq!(vfs.read_file("/tmp/f").unwrap(), b"abc\0\0z!");
        let mut buf = [0u8; 4];
        assert_eq!(vfs.read_at(id, 4, &mut buf), Ok(3));
        assert_eq!(vfs.read_at(id, u64::MAX, &mut buf), Ok(0));
    }

    #[test]
    fn long_paths_rejected() {
        let vfs = Vfs::new();
        let long = "/a".repeat(3000);
        assert_eq!(
            vfs.resolve(vfs.root, &long, true).unwrap_err(),
            Errno::Enametoolong
        );
    }
}
