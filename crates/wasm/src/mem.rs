//! Linear memory: flat reservation for thread sharing, paged
//! copy-on-write backing for private (process) memories.
//!
//! Instance-per-thread execution (paper §3.1) shares one linear memory
//! between several instances running on different host threads. To make
//! that sound without locking every access, the **flat** backing allocates
//! its *maximum* size once at creation and never relocates; `memory.grow`
//! only moves the current-length watermark. Plain loads/stores are then
//! racy byte accesses into a stable allocation — the Wasm threads memory
//! model — while `grow` and the atomics use real atomic operations.
//!
//! The process model (`fork`/`exec`, paper §3.1) is dominated by memory
//! work when every spawn deep-copies the whole reservation. The **paged**
//! backing fixes that: the address space is a table of 64 KiB pages
//! allocated lazily on first write (creation and `grow` touch nothing;
//! untouched pages read from one shared zero page), and pages are
//! `Arc`-shared on [`Memory::fork_clone`] so fork is O(allocated pages)
//! and a page is copied only on the first post-fork write (COW).
//!
//! The access hot path stays flat-fast: the store publishes per-page data
//! pointers in two atomic arrays (`read_ptrs` always valid — zero page
//! when untouched; `write_ptrs` non-null only while the page is owned
//! exclusively), so a straight-line load/store costs the same bounds check
//! as the flat backing plus one indexed pointer load and one null compare.
//! Everything else (first touch, COW, release) is the locked slow path.
//!
//! Backing selection follows the one thing the engine can observe: a
//! memory declared `shared` (threaded) gets the flat backing
//! ([`Memory::new_flat`]), a private one the paged backing
//! ([`Memory::new`]).

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::Trap;
use crate::PAGE_SIZE;

/// Default maximum (in pages) when a memory declares no maximum: 1024
/// pages = 64 MiB, a deliberate cap so reservation stays cheap.
pub const DEFAULT_MAX_PAGES: u32 = 1024;

/// log2(PAGE_SIZE): page index is `offset >> PAGE_SHIFT`.
const PAGE_SHIFT: usize = 16;
/// In-page offset mask.
const PAGE_MASK: usize = PAGE_SIZE - 1;

/// The shared all-zero page every untouched page reads from. Never
/// written: the write path goes through `write_ptrs`, which never points
/// here.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];

#[inline]
fn zero_ptr() -> *mut u8 {
    ZERO_PAGE.as_ptr() as *mut u8
}

/// Process-wide count of live [`Page`] allocations, across every paged
/// store (see [`global_resident_pages`]).
static GLOBAL_RESIDENT: AtomicI64 = AtomicI64::new(0);

/// Process-wide count of 64 KiB pages currently allocated by paged
/// (copy-on-write) memories. Fork-shared pages count once — this tracks
/// host allocations, not per-store residency. A run that materializes
/// pages and then drops every memory returns this counter to its
/// starting value; the fuzzer's liveness oracle asserts exactly that
/// (no leaked page at reap).
pub fn global_resident_pages() -> i64 {
    GLOBAL_RESIDENT.load(Ordering::Relaxed)
}

/// One 64 KiB page. Contents are mutated through raw pointers while the
/// page is exclusively owned by one store; `Arc`-shared pages are frozen
/// (copied before the next write).
struct Page(UnsafeCell<Box<[u8]>>);

// SAFETY: Access discipline is enforced by `PageStore`: a page is written
// only while `write_ptrs` publishes it (exclusive ownership), and shared
// pages are read-only until copied. Racy u8 reads/writes that remain are
// the Wasm shared-memory semantics (see the `Memory` impls below).
unsafe impl Send for Page {}
// SAFETY: See `Send`.
unsafe impl Sync for Page {}

thread_local! {
    /// Buffers of the pages this thread dropped, kept for its next
    /// [`Page::zeroed`] instead of going back to the allocator. A runner
    /// that starts, touches a page or two and exits would otherwise free
    /// 64 KiB blocks at the top of the heap and ask for them again a few
    /// microseconds later; glibc answers a top chunk above 128 KiB by
    /// shrinking the heap and the next start by growing it, and how many
    /// page faults a start then costs (none to three, ~2.5 µs each)
    /// depends on what else happens to sit near the top — start-up time
    /// wandered with the embedder's own allocations. Recycling costs the
    /// 64 KiB clear `calloc` performs on reused memory anyway.
    static PAGE_POOL: RefCell<Vec<Box<[u8]>>> = const { RefCell::new(Vec::new()) };
}

/// Most buffers a thread's [`PAGE_POOL`] holds (256 KiB): a process and
/// its forked child in flight; beyond that a dropped page is freed.
const POOL_PAGES: usize = 4;

impl Drop for Page {
    fn drop(&mut self) {
        GLOBAL_RESIDENT.fetch_sub(1, Ordering::Relaxed);
        let buf = std::mem::take(self.0.get_mut());
        // A page dropped while the thread's locals are being torn down
        // is simply freed.
        let _ = PAGE_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_PAGES {
                pool.push(buf);
            }
        });
    }
}

impl Page {
    /// A page of this thread's pool, or of the allocator: all zero if
    /// `clear`, otherwise with whatever its last owner left in it.
    fn fresh(clear: bool) -> Arc<Page> {
        GLOBAL_RESIDENT.fetch_add(1, Ordering::Relaxed);
        let pooled = PAGE_POOL.try_with(|pool| pool.borrow_mut().pop());
        let buf = match pooled.ok().flatten() {
            Some(mut buf) => {
                if clear {
                    buf.fill(0);
                }
                buf
            }
            None => vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        Arc::new(Page(UnsafeCell::new(buf)))
    }

    fn zeroed() -> Arc<Page> {
        Page::fresh(true)
    }

    /// A private copy of `src` (the COW and deep-clone paths).
    fn copy_of(src: &Page) -> Arc<Page> {
        let page = Page::fresh(false);
        // SAFETY: Both allocations are PAGE_SIZE and distinct; the
        // source is frozen while shared (no store writes a shared page)
        // and the whole destination is overwritten.
        unsafe {
            std::ptr::copy_nonoverlapping(src.data(), page.data(), PAGE_SIZE);
        }
        page
    }

    #[inline]
    fn data(&self) -> *mut u8 {
        // SAFETY: Produces a raw pointer only; dereferences are governed
        // by the store's ownership discipline.
        unsafe { (*self.0.get()).as_mut_ptr() }
    }
}

/// The flat max-reserved backing (shared memories).
struct FlatStore {
    /// Backing buffer, sized to `max_pages` once and never reallocated.
    buf: UnsafeCell<Box<[u8]>>,
}

impl FlatStore {
    #[inline]
    fn ptr(&self) -> *mut u8 {
        // SAFETY: We only produce a raw pointer here; all dereferences are
        // bounds-checked by the callers.
        unsafe { (*self.buf.get()).as_mut_ptr() }
    }
}

/// The lazily-allocated paged backing with copy-on-write fork.
struct PageStore {
    /// Owner of record of each materialized page, by index, as long as
    /// the highest page ever touched needs (a slot past the end, like a
    /// `None`, reads as zero). Mutated only under this lock (first
    /// touch, COW, release, fork).
    pages: Mutex<Vec<Option<Arc<Page>>>>,
    /// The two hot-path page-pointer caches, `read` then `write`, each
    /// one entry per reservable page, in one allocation — all a fork
    /// makes besides its short owner list.
    ///
    /// `read`: always valid — the page's data when materialized, the
    /// shared zero page otherwise. `write`: the page's data while this
    /// store owns it exclusively, null otherwise (untouched or
    /// COW-shared → take the slow path).
    ptrs: Box<[AtomicPtr<u8>]>,
    /// Currently materialized pages.
    resident: AtomicU32,
    /// Peak materialized pages over the store's lifetime.
    peak_resident: AtomicU32,
}

impl PageStore {
    fn new(max_pages: u32) -> PageStore {
        let n = max_pages as usize;
        let read = (0..n).map(|_| AtomicPtr::new(zero_ptr()));
        let write = (0..n).map(|_| AtomicPtr::new(std::ptr::null_mut()));
        PageStore {
            pages: Mutex::new(Vec::new()),
            ptrs: read.chain(write).collect(),
            resident: AtomicU32::new(0),
            peak_resident: AtomicU32::new(0),
        }
    }

    #[inline]
    fn read_ptrs(&self) -> &[AtomicPtr<u8>] {
        &self.ptrs[..self.ptrs.len() / 2]
    }

    #[inline]
    fn write_ptrs(&self) -> &[AtomicPtr<u8>] {
        &self.ptrs[self.ptrs.len() / 2..]
    }

    /// Slow path: materializes page `idx` for writing — first touch
    /// allocates a zero page, a COW-shared page is copied into a private
    /// one — and republishes both pointer caches.
    fn page_for_write(&self, idx: usize) -> *mut u8 {
        let mut pages = self.pages.lock().expect("page table");
        if pages.len() <= idx {
            pages.resize(idx + 1, None);
        }
        let ptr = match &mut pages[idx] {
            Some(page) => {
                // Sole owner (again: the sibling wrote or exited first)?
                // Not `strong_count`: `get_mut`'s check acquires the
                // sibling's release of its reference, which orders its
                // last read of the page before the writes this pointer is
                // for. Otherwise the page is shared with a forked
                // sibling: COW.
                if Arc::get_mut(page).is_none() {
                    *page = Page::copy_of(page);
                }
                page.data()
            }
            slot => {
                let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
                self.peak_resident.fetch_max(now, Ordering::Relaxed);
                slot.insert(Page::zeroed()).data()
            }
        };
        self.read_ptrs()[idx].store(ptr, Ordering::Release);
        self.write_ptrs()[idx].store(ptr, Ordering::Release);
        ptr
    }

    /// Whether page `idx` is materialized: its read pointer says so (it
    /// leaves the zero page on first touch and returns on release).
    fn is_resident(&self, idx: usize) -> bool {
        self.read_ptrs()[idx].load(Ordering::Acquire) != zero_ptr()
    }

    /// Hot-path write resolution: the cached exclusive pointer, or the
    /// locked slow path (first touch / COW copy).
    #[inline]
    fn write_ptr(&self, idx: usize) -> *mut u8 {
        let ptr = self.write_ptrs()[idx].load(Ordering::Acquire);
        if ptr.is_null() {
            self.page_for_write(idx)
        } else {
            ptr
        }
    }

    /// Returns page `idx` to the store: subsequent reads see zeros and the
    /// page's allocation is dropped (or its `Arc` reference released).
    fn release_page(&self, idx: usize) {
        let mut pages = self.pages.lock().expect("page table");
        if pages.get_mut(idx).and_then(Option::take).is_some() {
            self.write_ptrs()[idx].store(std::ptr::null_mut(), Ordering::Release);
            self.read_ptrs()[idx].store(zero_ptr(), Ordering::Release);
            self.resident.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

enum Backing {
    Flat(FlatStore),
    Paged(PageStore),
}

/// A Wasm linear memory.
pub struct Memory {
    backing: Backing,
    /// Current size in pages; grows monotonically up to `max_pages`.
    cur_pages: AtomicU32,
    /// Peak observed size in pages (the grow watermark).
    peak_pages: AtomicU32,
    max_pages: u32,
}

// SAFETY: All access to the backing is bounds-checked against
// `cur_pages * 64Ki`. The flat buffer is allocated at maximum size up
// front and never moves; paged mutations of the page table go through a
// Mutex and the hot-path pointer caches are atomics, so concurrent
// accesses never read outside a live allocation. Plain (non-atomic)
// concurrent byte accesses may race, which is exactly the semantics Wasm
// shared memories give to unsynchronized accesses (the value read is
// *some* byte-level interleaving, never UB at the Wasm level); the
// host-level data race is confined to `u8` reads/writes via raw pointers,
// never references with aliasing guarantees. Truly thread-shared memories
// use the flat backing. Paged memories related by `fork` share `Arc`
// pages, and parent and child may well run on two workers at once (the
// SMP executor); page reclaim is sound because of who may touch what:
//
// * a store's owner list changes only inside a slice of the one task
//   that owns the memory (first touch, COW, release and `fork` are all
//   that task's own accesses), and the executor's slot hand-off orders
//   one slice of a task after another — so every page a store's pointer
//   caches name is held alive by a reference in that same store's list,
//   and a sibling dropping or replacing *its* reference (a COW copy, a
//   release, its exit) never frees a page this store can still reach;
// * a page is written in place only through a write pointer, which is
//   published only for a page its store found itself the sole owner of
//   (under its lock, with acquire ordering — `page_for_write`), and a
//   sole owner's count rises again only through a `fork` of that very
//   store, which revokes its write pointers first; a page two stores
//   share is frozen, so its concurrent readers race with no writer.
unsafe impl Sync for Memory {}
// SAFETY: See `Sync` above; ownership transfer adds no additional hazard.
unsafe impl Send for Memory {}

impl Memory {
    /// Creates a private memory with `min` pages and room for `max` (or
    /// [`DEFAULT_MAX_PAGES`]): the paged backing — lazy, copy-on-write
    /// forkable.
    pub fn new(min: u32, max: Option<u32>) -> Memory {
        Self::with_backing(min, max, true)
    }

    /// Creates a flat (eagerly reserved) memory — required for memories
    /// shared between host threads.
    pub fn new_flat(min: u32, max: Option<u32>) -> Memory {
        Self::with_backing(min, max, false)
    }

    fn with_backing(min: u32, max: Option<u32>, paged: bool) -> Memory {
        let max_pages = max.unwrap_or(DEFAULT_MAX_PAGES).max(min);
        let backing = if paged {
            Backing::Paged(PageStore::new(max_pages))
        } else {
            let bytes = max_pages as usize * PAGE_SIZE;
            Backing::Flat(FlatStore {
                buf: UnsafeCell::new(vec![0u8; bytes].into_boxed_slice()),
            })
        };
        Memory {
            backing,
            cur_pages: AtomicU32::new(min),
            peak_pages: AtomicU32::new(min),
            max_pages,
        }
    }

    /// Whether this memory uses the paged copy-on-write backing.
    pub fn is_paged(&self) -> bool {
        matches!(self.backing, Backing::Paged(_))
    }

    /// Current size in pages.
    #[inline]
    pub fn pages(&self) -> u32 {
        self.cur_pages.load(Ordering::Acquire)
    }

    /// Peak size in pages over the memory's lifetime (the grow
    /// watermark — address-space footprint, not residency).
    pub fn peak_pages(&self) -> u32 {
        self.peak_pages.load(Ordering::Relaxed)
    }

    /// Pages currently backed by a host allocation. The flat backing
    /// materializes its whole reservation at creation; the paged backing
    /// counts only touched (written) pages.
    pub fn resident_pages(&self) -> u32 {
        match &self.backing {
            Backing::Flat(_) => self.max_pages,
            Backing::Paged(p) => p.resident.load(Ordering::Relaxed),
        }
    }

    /// Peak resident pages over the memory's lifetime.
    pub fn peak_resident_pages(&self) -> u32 {
        match &self.backing {
            Backing::Flat(_) => self.max_pages,
            Backing::Paged(p) => p.peak_resident.load(Ordering::Relaxed),
        }
    }

    /// Whether the 64 KiB store page containing `addr` is backed by a
    /// host allocation (the flat backing materializes everything).
    pub fn addr_is_resident(&self, addr: u64) -> bool {
        if addr >= self.size() as u64 {
            return false;
        }
        match &self.backing {
            Backing::Flat(_) => true,
            Backing::Paged(p) => p.is_resident(addr as usize >> PAGE_SHIFT),
        }
    }

    /// Declared maximum in pages.
    pub fn max_pages(&self) -> u32 {
        self.max_pages
    }

    /// Current size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.pages() as usize * PAGE_SIZE
    }

    /// Grows by `delta` pages; returns the previous page count or -1,
    /// exactly like `memory.grow`. Neither backing zeroes anything here:
    /// flat pre-zeroed the reservation, paged pages materialize on first
    /// write.
    pub fn grow(&self, delta: u32) -> i32 {
        loop {
            let cur = self.cur_pages.load(Ordering::Acquire);
            let next = match cur.checked_add(delta) {
                Some(n) if n <= self.max_pages => n,
                _ => return -1,
            };
            if self
                .cur_pages
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.peak_pages.fetch_max(next, Ordering::Relaxed);
                return cur as i32;
            }
        }
    }

    /// Deep-copies the memory (same limits, same bytes, independent
    /// backing): the fork of a flat memory. Process forks should use
    /// [`Memory::fork_clone`].
    pub fn deep_clone(&self) -> Memory {
        let new = Memory::with_backing(self.pages(), Some(self.max_pages), self.is_paged());
        match (&self.backing, &new.backing) {
            (Backing::Flat(a), Backing::Flat(b)) => {
                let len = self.size();
                // SAFETY: Both buffers are at least `len` bytes (same page
                // count, maxima allocated up front) and do not overlap.
                unsafe {
                    std::ptr::copy_nonoverlapping(a.ptr(), b.ptr(), len);
                }
            }
            (Backing::Paged(a), Backing::Paged(b)) => {
                let src = a.pages.lock().expect("page table");
                let mut dst = b.pages.lock().expect("page table");
                let mut resident = 0;
                *dst = src
                    .iter()
                    .map(|slot| slot.as_deref().map(Page::copy_of))
                    .collect();
                for (i, page) in dst.iter().enumerate() {
                    if let Some(fresh) = page {
                        b.read_ptrs()[i].store(fresh.data(), Ordering::Release);
                        b.write_ptrs()[i].store(fresh.data(), Ordering::Release);
                        resident += 1;
                    }
                }
                b.resident.store(resident, Ordering::Relaxed);
                b.peak_resident.store(resident, Ordering::Relaxed);
            }
            _ => unreachable!("deep_clone preserves the backing"),
        }
        new.peak_pages.store(self.peak_pages(), Ordering::Relaxed);
        new
    }

    /// Fork-style duplicate. Flat backing: a deep copy (a threaded
    /// process that forks). Paged backing: an O(allocated pages)
    /// copy-on-write snapshot — parent and child share every materialized
    /// page through its `Arc` and both lose in-place write permission;
    /// whoever writes a shared page first copies it.
    pub fn fork_clone(&self) -> Memory {
        let Backing::Paged(parent) = &self.backing else {
            return self.deep_clone();
        };
        let child = Memory::with_backing(self.pages(), Some(self.max_pages), true);
        let Backing::Paged(cs) = &child.backing else {
            unreachable!()
        };
        {
            let src = parent.pages.lock().expect("page table");
            let mut resident = 0;
            for (i, slot) in src.iter().enumerate() {
                if let Some(page) = slot {
                    cs.read_ptrs()[i].store(page.data(), Ordering::Release);
                    resident += 1;
                    // The parent's page is now shared: revoke its in-place
                    // write permission so its next write takes the COW
                    // slow path.
                    parent.write_ptrs()[i].store(std::ptr::null_mut(), Ordering::Release);
                }
            }
            // Every page, shared: one reference each.
            *cs.pages.lock().expect("page table") = src.clone();
            cs.resident.store(resident, Ordering::Relaxed);
            cs.peak_resident.store(resident, Ordering::Relaxed);
        }
        child.peak_pages.store(self.peak_pages(), Ordering::Relaxed);
        child
    }

    /// Checks that `[addr, addr+len)` is in bounds.
    #[inline]
    pub fn check(&self, addr: u64, len: u64) -> Result<usize, Trap> {
        let end = addr.checked_add(len).ok_or(Trap::MemoryOutOfBounds)?;
        if end > self.size() as u64 {
            return Err(Trap::MemoryOutOfBounds);
        }
        Ok(addr as usize)
    }

    /// Copies out of the backing (bounds already checked), chunking at
    /// page boundaries for the paged store.
    fn copy_out(&self, mut off: usize, out: &mut [u8]) {
        match &self.backing {
            Backing::Flat(f) => {
                // SAFETY: Caller bounds-checked `off + out.len() <= size`.
                unsafe {
                    std::ptr::copy_nonoverlapping(f.ptr().add(off), out.as_mut_ptr(), out.len());
                }
            }
            Backing::Paged(p) => {
                let mut done = 0;
                while done < out.len() {
                    let pg = off >> PAGE_SHIFT;
                    let po = off & PAGE_MASK;
                    let n = (PAGE_SIZE - po).min(out.len() - done);
                    let src = p.read_ptrs()[pg].load(Ordering::Acquire);
                    // SAFETY: `src` is a live page (or the zero page) and
                    // `po + n <= PAGE_SIZE`.
                    unsafe {
                        std::ptr::copy_nonoverlapping(src.add(po), out.as_mut_ptr().add(done), n);
                    }
                    off += n;
                    done += n;
                }
            }
        }
    }

    /// Copies into the backing (bounds already checked), materializing
    /// pages as needed.
    fn copy_in(&self, mut off: usize, src: &[u8]) {
        match &self.backing {
            Backing::Flat(f) => {
                // SAFETY: Caller bounds-checked `off + src.len() <= size`.
                unsafe {
                    std::ptr::copy_nonoverlapping(src.as_ptr(), f.ptr().add(off), src.len());
                }
            }
            Backing::Paged(p) => {
                let mut done = 0;
                while done < src.len() {
                    let pg = off >> PAGE_SHIFT;
                    let po = off & PAGE_MASK;
                    let n = (PAGE_SIZE - po).min(src.len() - done);
                    let chunk = &src[done..done + n];
                    // Writing zeros to a page that isn't materialized is a
                    // no-op: keep it lazy (this is what lets bulk copies
                    // of untouched regions — memory.copy, syscall buffer
                    // write-backs — avoid materializing the destination).
                    let skip = !p.is_resident(pg) && chunk.iter().all(|b| *b == 0);
                    if !skip {
                        let dst = p.write_ptr(pg);
                        // SAFETY: `dst` is this store's exclusively-owned
                        // page; `po + n <= PAGE_SIZE`.
                        unsafe {
                            std::ptr::copy_nonoverlapping(chunk.as_ptr(), dst.add(po), n);
                        }
                    }
                    off += n;
                    done += n;
                }
            }
        }
    }

    /// This memory with its backing resolved, for a run of accesses.
    #[inline]
    pub fn view(&self) -> MemView<'_> {
        let (flat, read_ptrs, write_ptrs): (_, &[_], &[_]) = match &self.backing {
            Backing::Flat(f) => (f.ptr(), &[], &[]),
            Backing::Paged(p) => (std::ptr::null_mut(), p.read_ptrs(), p.write_ptrs()),
        };
        MemView {
            mem: self,
            flat,
            read_ptrs,
            write_ptrs,
        }
    }

    /// Reads `N` bytes at `addr`.
    #[inline]
    pub fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N], Trap> {
        self.view().load(addr)
    }

    /// Writes `N` bytes at `addr`.
    #[inline]
    pub fn store<const N: usize>(&self, addr: u64, val: [u8; N]) -> Result<(), Trap> {
        self.view().store(addr, val)
    }

    /// The locked slow path of a paged store: first touch or COW copy of
    /// page `idx` (see [`PageStore::page_for_write`]).
    #[cold]
    fn first_write(&self, idx: usize) -> *mut u8 {
        match &self.backing {
            Backing::Paged(p) => p.page_for_write(idx),
            Backing::Flat(_) => unreachable!("the flat backing has no page table"),
        }
    }

    /// Copies a byte range out of memory.
    pub fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, Trap> {
        let off = self.check(addr, len as u64)?;
        let mut out = vec![0u8; len];
        self.copy_out(off, &mut out);
        Ok(out)
    }

    /// Copies `bytes` into memory at `addr`.
    pub fn write(&self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        let off = self.check(addr, bytes.len() as u64)?;
        self.copy_in(off, bytes);
        Ok(())
    }

    /// Runs `f` over the byte range as a shared slice (zero-copy reads).
    ///
    /// This is the zero-copy fast path WALI uses for I/O syscalls (§3.2).
    /// On the paged backing a range inside one page is zero-copy; a range
    /// crossing pages is gathered into a scratch buffer first (WALI's
    /// syscall helpers chunk at page boundaries to stay on the fast path).
    pub fn with_slice<R>(
        &self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, Trap> {
        let off = self.check(addr, len as u64)?;
        match &self.backing {
            Backing::Flat(fl) => {
                // SAFETY: Bounds checked; concurrent writers may race but
                // byte reads remain valid (shared-memory semantics).
                let slice = unsafe { core::slice::from_raw_parts(fl.ptr().add(off), len) };
                Ok(f(slice))
            }
            Backing::Paged(p) => {
                let po = off & PAGE_MASK;
                if len > 0 && po + len <= PAGE_SIZE {
                    let src = p.read_ptrs()[off >> PAGE_SHIFT].load(Ordering::Acquire);
                    // SAFETY: Bounds checked; in-page range of a live page.
                    let slice = unsafe { core::slice::from_raw_parts(src.add(po), len) };
                    Ok(f(slice))
                } else {
                    let mut buf = vec![0u8; len];
                    self.copy_out(off, &mut buf);
                    Ok(f(&buf))
                }
            }
        }
    }

    /// Runs `f` over the byte range as a mutable slice (zero-copy writes).
    pub fn with_slice_mut<R>(
        &self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, Trap> {
        let off = self.check(addr, len as u64)?;
        match &self.backing {
            Backing::Flat(fl) => {
                // SAFETY: Bounds checked; exclusivity is not required
                // under the shared-memory model (racy writes are program
                // bugs, not UB at the byte level).
                let slice = unsafe { core::slice::from_raw_parts_mut(fl.ptr().add(off), len) };
                Ok(f(slice))
            }
            Backing::Paged(p) => {
                let po = off & PAGE_MASK;
                if po + len <= PAGE_SIZE && len > 0 {
                    let dst = p.write_ptr(off >> PAGE_SHIFT);
                    // SAFETY: Bounds checked; in-page range of this
                    // store's exclusively-owned page.
                    let slice = unsafe { core::slice::from_raw_parts_mut(dst.add(po), len) };
                    Ok(f(slice))
                } else {
                    let mut buf = vec![0u8; len];
                    self.copy_out(off, &mut buf);
                    let r = f(&mut buf);
                    self.copy_in(off, &buf);
                    Ok(r)
                }
            }
        }
    }

    /// `memory.fill`. On the paged backing, zero-filling a whole page
    /// releases it back to the store (madvise(DONTNEED)-style) instead of
    /// materializing it.
    pub fn fill(&self, addr: u64, val: u8, len: u64) -> Result<(), Trap> {
        let off = self.check(addr, len)?;
        match &self.backing {
            Backing::Flat(f) => {
                // SAFETY: Bounds checked above.
                unsafe {
                    std::ptr::write_bytes(f.ptr().add(off), val, len as usize);
                }
            }
            Backing::Paged(p) => {
                let mut off = off;
                let mut left = len as usize;
                while left > 0 {
                    let pg = off >> PAGE_SHIFT;
                    let po = off & PAGE_MASK;
                    let n = (PAGE_SIZE - po).min(left);
                    if val == 0 && po == 0 && n == PAGE_SIZE {
                        p.release_page(pg);
                    } else if val == 0 && !p.is_resident(pg) {
                        // Untouched page already reads as zero.
                    } else {
                        let dst = p.write_ptr(pg);
                        // SAFETY: In-page range of an exclusively-owned page.
                        unsafe {
                            std::ptr::write_bytes(dst.add(po), val, n);
                        }
                    }
                    off += n;
                    left -= n;
                }
            }
        }
        Ok(())
    }

    /// Releases `[addr, addr+len)`: fully covered pages go back to the
    /// store (reads see zeros, allocations are dropped / `Arc` references
    /// released), partial edge pages are zero-filled. This is the
    /// `munmap` / `madvise(MADV_DONTNEED)` path; on the flat backing it
    /// degrades to a zero fill.
    pub fn release(&self, addr: u64, len: u64) -> Result<(), Trap> {
        self.fill(addr, 0, len)
    }

    /// `memory.copy` (overlap-safe).
    pub fn copy_within(&self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        let d = self.check(dst, len)?;
        let s = self.check(src, len)?;
        match &self.backing {
            Backing::Flat(f) => {
                // SAFETY: Both ranges bounds-checked; `copy` handles overlap.
                unsafe {
                    std::ptr::copy(f.ptr().add(s), f.ptr().add(d), len as usize);
                }
            }
            Backing::Paged(_) => {
                // Stage through a scratch buffer: memmove semantics across
                // page boundaries without aliasing pitfalls.
                let mut tmp = vec![0u8; len as usize];
                self.copy_out(s, &mut tmp);
                self.copy_in(d, &tmp);
            }
        }
        Ok(())
    }

    /// Reads a NUL-terminated string starting at `addr` (bounded scan).
    pub fn read_cstr(&self, addr: u64) -> Result<Vec<u8>, Trap> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let [b] = self.load::<1>(a)?;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            a += 1;
            if out.len() > 1 << 20 {
                return Err(Trap::MemoryOutOfBounds);
            }
        }
    }

    /// Resolves an aligned in-page offset to a pointer valid for atomic
    /// *writes* (materializing/COW-copying the page on the paged backing).
    fn atomic_ptr(&self, off: usize) -> *mut u8 {
        match &self.backing {
            Backing::Flat(f) => {
                // SAFETY: Caller bounds-checked.
                unsafe { f.ptr().add(off) }
            }
            Backing::Paged(p) => {
                // SAFETY: Aligned atomics never cross a 64 KiB page.
                unsafe { p.write_ptr(off >> PAGE_SHIFT).add(off & PAGE_MASK) }
            }
        }
    }

    /// Resolves an aligned in-page offset for an atomic *read*. Returns
    /// the writable pointer when this store owns the page; `None` means
    /// the page is frozen (untouched or COW-shared) — no store writes a
    /// frozen page in place, so the caller may read it plainly through
    /// `read_ptrs` without materializing anything. Keeping loads off the
    /// write path preserves the invariant that reads never allocate.
    fn atomic_read_ptr(&self, off: usize) -> Option<*mut u8> {
        match &self.backing {
            Backing::Flat(f) => {
                // SAFETY: Caller bounds-checked.
                Some(unsafe { f.ptr().add(off) })
            }
            Backing::Paged(p) => {
                let ptr = p.write_ptrs()[off >> PAGE_SHIFT].load(Ordering::Acquire);
                if ptr.is_null() {
                    None
                } else {
                    // SAFETY: Aligned atomics never cross a 64 KiB page.
                    Some(unsafe { ptr.add(off & PAGE_MASK) })
                }
            }
        }
    }

    /// Plain read of `N` bytes from a frozen page (paged backing only).
    fn frozen_read<const N: usize>(&self, off: usize) -> [u8; N] {
        let mut out = [0u8; N];
        self.copy_out(off, &mut out);
        out
    }

    /// 32-bit atomic load with SeqCst ordering.
    pub fn atomic_load32(&self, addr: u64) -> Result<u32, Trap> {
        let off = self.check_aligned(addr, 4)?;
        match self.atomic_read_ptr(off) {
            // SAFETY: In-bounds, 4-aligned, and the allocation outlives
            // the reference; AtomicU32 has the same layout as u32.
            Some(ptr) => Ok(unsafe { &*(ptr as *const AtomicU32) }.load(Ordering::SeqCst)),
            // Frozen page: race-free plain read (native byte order, to
            // match what an atomic load of the same bytes would return).
            None => Ok(u32::from_ne_bytes(self.frozen_read::<4>(off))),
        }
    }

    /// 32-bit atomic store with SeqCst ordering.
    pub fn atomic_store32(&self, addr: u64, val: u32) -> Result<(), Trap> {
        let off = self.check_aligned(addr, 4)?;
        // SAFETY: See `atomic_load32`.
        let a = unsafe { &*(self.atomic_ptr(off) as *const AtomicU32) };
        a.store(val, Ordering::SeqCst);
        Ok(())
    }

    /// 64-bit atomic load with SeqCst ordering.
    pub fn atomic_load64(&self, addr: u64) -> Result<u64, Trap> {
        let off = self.check_aligned(addr, 8)?;
        match self.atomic_read_ptr(off) {
            // SAFETY: See `atomic_load32`, with 8-byte alignment.
            Some(ptr) => Ok(unsafe { &*(ptr as *const AtomicU64) }.load(Ordering::SeqCst)),
            None => Ok(u64::from_ne_bytes(self.frozen_read::<8>(off))),
        }
    }

    /// 64-bit atomic store with SeqCst ordering.
    pub fn atomic_store64(&self, addr: u64, val: u64) -> Result<(), Trap> {
        let off = self.check_aligned(addr, 8)?;
        // SAFETY: See `atomic_load32`, with 8-byte alignment.
        let a = unsafe { &*(self.atomic_ptr(off) as *const AtomicU64) };
        a.store(val, Ordering::SeqCst);
        Ok(())
    }

    /// 32-bit atomic read-modify-write; returns the old value.
    pub fn atomic_rmw32(&self, addr: u64, op: crate::instr::RmwOp, val: u32) -> Result<u32, Trap> {
        use crate::instr::RmwOp;
        let off = self.check_aligned(addr, 4)?;
        // SAFETY: See `atomic_load32`.
        let a = unsafe { &*(self.atomic_ptr(off) as *const AtomicU32) };
        let old = match op {
            RmwOp::Add => a.fetch_add(val, Ordering::SeqCst),
            RmwOp::Sub => a.fetch_sub(val, Ordering::SeqCst),
            RmwOp::And => a.fetch_and(val, Ordering::SeqCst),
            RmwOp::Or => a.fetch_or(val, Ordering::SeqCst),
            RmwOp::Xor => a.fetch_xor(val, Ordering::SeqCst),
            RmwOp::Xchg => a.swap(val, Ordering::SeqCst),
        };
        Ok(old)
    }

    /// 32-bit atomic compare-exchange; returns the old value.
    pub fn atomic_cmpxchg32(&self, addr: u64, expected: u32, new: u32) -> Result<u32, Trap> {
        let off = self.check_aligned(addr, 4)?;
        // SAFETY: See `atomic_load32`.
        let a = unsafe { &*(self.atomic_ptr(off) as *const AtomicU32) };
        Ok(
            match a.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(v) => v,
                Err(v) => v,
            },
        )
    }

    fn check_aligned(&self, addr: u64, align: u64) -> Result<usize, Trap> {
        if !addr.is_multiple_of(align) {
            return Err(Trap::MemoryOutOfBounds);
        }
        self.check(addr, align)
    }
}

/// A [`Memory`] whose backing has been looked at once: the flat base
/// pointer, or the paged store's two page-pointer tables. The dispatch
/// loop takes one per run, so that an in-bounds, in-page
/// access is a bounds compare against the *current* size (read per
/// access — a sibling thread's `memory.grow` is seen at once), one
/// page-pointer load and a copy, with no `match` on the backing and no
/// walk through the store in between. [`Memory::load`]/[`Memory::store`]
/// are one-shot uses of the same code.
#[derive(Clone, Copy)]
pub struct MemView<'a> {
    mem: &'a Memory,
    /// Base of the flat reservation; null on the paged backing.
    flat: *mut u8,
    /// [`PageStore::read_ptrs`] (empty on the flat backing).
    read_ptrs: &'a [AtomicPtr<u8>],
    /// [`PageStore::write_ptrs`] (empty on the flat backing).
    write_ptrs: &'a [AtomicPtr<u8>],
}

impl<'a> MemView<'a> {
    /// Reads `N` bytes at `addr`.
    #[inline(always)]
    pub fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N], Trap> {
        let off = self.mem.check(addr, N as u64)?;
        let mut out = [0u8; N];
        let src = if !self.flat.is_null() {
            // SAFETY: `check` guarantees `off + N <= size <= allocation`.
            unsafe { self.flat.add(off) }
        } else {
            let po = off & PAGE_MASK;
            if po + N > PAGE_SIZE {
                self.mem.copy_out(off, &mut out);
                return Ok(out);
            }
            let page = self.read_ptrs[off >> PAGE_SHIFT].load(Ordering::Acquire);
            // SAFETY: `page` is a live page (or the zero page) and the
            // access stays inside it.
            unsafe { page.add(po) }
        };
        // SAFETY: Bounds-checked above; `src` is valid for `N` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(src, out.as_mut_ptr(), N);
        }
        Ok(out)
    }

    /// Writes `N` bytes at `addr`.
    #[inline(always)]
    pub fn store<const N: usize>(&self, addr: u64, val: [u8; N]) -> Result<(), Trap> {
        let off = self.mem.check(addr, N as u64)?;
        let dst = if !self.flat.is_null() {
            // SAFETY: `check` guarantees `off + N <= size <= allocation`.
            unsafe { self.flat.add(off) }
        } else {
            let po = off & PAGE_MASK;
            if po + N > PAGE_SIZE {
                self.mem.copy_in(off, &val);
                return Ok(());
            }
            let idx = off >> PAGE_SHIFT;
            let mut page = self.write_ptrs[idx].load(Ordering::Acquire);
            if page.is_null() {
                page = self.mem.first_write(idx);
            }
            // SAFETY: `page` is this store's exclusively-owned page and
            // the access stays inside it.
            unsafe { page.add(po) }
        };
        // SAFETY: Bounds-checked above; `dst` is valid for `N` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(val.as_ptr(), dst, N);
        }
        Ok(())
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.pages())
            .field("max_pages", &self.max_pages)
            .field("paged", &self.is_paged())
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every behavioral test runs against both backings.
    fn both(f: impl Fn(fn(u32, Option<u32>) -> Memory)) {
        f(Memory::new_flat);
        f(Memory::new);
    }

    #[test]
    fn grow_and_bounds() {
        both(|mk| {
            let m = mk(1, Some(3));
            assert_eq!(m.pages(), 1);
            assert!(m.store::<4>(PAGE_SIZE as u64 - 4, [1, 2, 3, 4]).is_ok());
            assert_eq!(
                m.store::<4>(PAGE_SIZE as u64 - 3, [0; 4]),
                Err(Trap::MemoryOutOfBounds)
            );
            assert_eq!(m.grow(1), 1);
            assert!(m.store::<4>(PAGE_SIZE as u64 - 3, [0; 4]).is_ok());
            assert_eq!(m.grow(2), -1);
            assert_eq!(m.grow(1), 2);
            assert_eq!(m.grow(1), -1);
            assert_eq!(m.peak_pages(), 3);
        });
    }

    #[test]
    fn load_store_round_trip() {
        both(|mk| {
            let m = mk(1, None);
            m.store::<8>(16, 0xdead_beef_cafe_f00du64.to_le_bytes())
                .unwrap();
            assert_eq!(
                u64::from_le_bytes(m.load::<8>(16).unwrap()),
                0xdead_beef_cafe_f00d
            );
        });
    }

    #[test]
    fn global_resident_tracks_page_lifecycle() {
        // Other tests allocate pages concurrently, so assert deltas over
        // a window this test controls rather than absolute values: while
        // our pages are alive the counter sits at least `touched` above
        // the low-water mark we observe after dropping them.
        let before = global_resident_pages();
        let m = Memory::new(4, Some(4));
        for i in 0..4u64 {
            m.store::<4>(i * PAGE_SIZE as u64, [1; 4]).unwrap();
        }
        let alive = global_resident_pages();
        assert!(alive >= before + 4, "4 touched pages counted globally");
        let fork = m.fork_clone();
        // COW shares Arc'd pages: a fork materializes nothing new.
        fork.store::<4>(0, [2; 4]).unwrap(); // one COW copy
        drop(fork);
        drop(m);
        let after = global_resident_pages();
        assert!(after <= alive - 4, "dropped memories return their pages");
    }

    #[test]
    fn unaligned_access_across_a_page_boundary() {
        let m = Memory::new(2, Some(2));
        let at = PAGE_SIZE as u64 - 3;
        m.store::<8>(at, 0x0123_4567_89ab_cdefu64.to_le_bytes())
            .unwrap();
        assert_eq!(
            u64::from_le_bytes(m.load::<8>(at).unwrap()),
            0x0123_4567_89ab_cdef
        );
        assert_eq!(m.resident_pages(), 2, "both straddled pages materialize");
    }

    #[test]
    fn cstr_and_bulk_ops() {
        both(|mk| {
            let m = mk(1, None);
            m.write(100, b"hello\0world").unwrap();
            assert_eq!(m.read_cstr(100).unwrap(), b"hello");
            m.copy_within(200, 100, 11).unwrap();
            assert_eq!(m.read(200, 5).unwrap(), b"hello");
            m.fill(100, b'x', 5).unwrap();
            assert_eq!(m.read_cstr(100).unwrap(), b"xxxxx");
        });
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        both(|mk| {
            let m = mk(1, None);
            m.write(0, b"abcdef").unwrap();
            m.copy_within(2, 0, 4).unwrap();
            assert_eq!(m.read(0, 6).unwrap(), b"ababcd");
        });
    }

    #[test]
    fn atomics_work_and_require_alignment() {
        both(|mk| {
            let m = mk(1, None);
            m.atomic_store32(8, 5).unwrap();
            assert_eq!(m.atomic_rmw32(8, crate::instr::RmwOp::Add, 3).unwrap(), 5);
            assert_eq!(m.atomic_load32(8).unwrap(), 8);
            assert_eq!(m.atomic_cmpxchg32(8, 8, 42).unwrap(), 8);
            assert_eq!(m.atomic_load32(8).unwrap(), 42);
            assert_eq!(m.atomic_load32(6), Err(Trap::MemoryOutOfBounds));
        });
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        both(|mk| {
            let m = Arc::new(mk(1, None));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let m = Arc::clone(&m);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.atomic_rmw32(0, crate::instr::RmwOp::Add, 1).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(m.atomic_load32(0).unwrap(), 4000);
        });
    }

    #[test]
    fn paged_creation_and_grow_allocate_nothing() {
        let m = Memory::new(16, Some(1024));
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.grow(512), 16);
        assert_eq!(m.resident_pages(), 0, "grow moves the watermark only");
        assert_eq!(m.load::<8>(40 * PAGE_SIZE as u64).unwrap(), [0u8; 8]);
        assert_eq!(m.resident_pages(), 0, "reads never materialize");
        m.store::<1>(40 * PAGE_SIZE as u64, [7]).unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.peak_resident_pages(), 1);
    }

    #[test]
    fn a_recycled_page_reads_zero() {
        // Every page here is dirtied in full before it is dropped, and
        // the later rounds get their buffers from the pool.
        for round in 0..2 * POOL_PAGES as u8 {
            let m = Memory::new(2, Some(2));
            m.write(7, &[round + 1]).unwrap();
            let mut expect = vec![0; PAGE_SIZE];
            expect[7] = round + 1;
            assert_eq!(m.read(0, PAGE_SIZE).unwrap(), expect);
            m.write(0, &vec![0xaa; PAGE_SIZE]).unwrap();
            // The child's copy of page 0 and its first touch of page 1.
            let child = m.fork_clone();
            child.write(PAGE_SIZE as u64 - 1, &[0xff, 0xff]).unwrap();
            let head = child.read(0, PAGE_SIZE - 1).unwrap();
            assert_eq!(head, vec![0xaa; PAGE_SIZE - 1]);
            let tail = child.read(PAGE_SIZE as u64 + 1, PAGE_SIZE - 1).unwrap();
            assert_eq!(tail, vec![0; PAGE_SIZE - 1]);
            child
                .write(PAGE_SIZE as u64, &vec![0xbb; PAGE_SIZE])
                .unwrap();
        }
        // More pages dropped than the pool holds: the rest are freed.
        let many: Vec<Memory> = (0..POOL_PAGES + 2).map(|_| Memory::new(1, None)).collect();
        many.iter().for_each(|m| m.write(0, &[1]).unwrap());
        drop(many);
        PAGE_POOL.with(|pool| {
            let pool = pool.borrow();
            assert_eq!(pool.len(), POOL_PAGES, "full, and no fuller");
            assert!(pool.iter().all(|buf| buf.len() == PAGE_SIZE));
        });
    }

    #[test]
    fn fork_clone_is_cow() {
        let parent = Memory::new(8, Some(8));
        parent.write(0, b"parent page 0").unwrap();
        parent
            .write(3 * PAGE_SIZE as u64, b"parent page 3")
            .unwrap();
        assert_eq!(parent.resident_pages(), 2);

        let child = parent.fork_clone();
        assert_eq!(child.resident_pages(), 2, "shared, not copied");
        assert_eq!(child.read(0, 13).unwrap(), b"parent page 0");

        // Child write copies only the touched page; the parent is intact.
        child.write(0, b"child  page 0").unwrap();
        assert_eq!(parent.read(0, 13).unwrap(), b"parent page 0");
        assert_eq!(child.read(0, 13).unwrap(), b"child  page 0");

        // Parent write after fork also copies (both lost in-place writes).
        parent
            .write(3 * PAGE_SIZE as u64, b"parent redone")
            .unwrap();
        assert_eq!(
            child.read(3 * PAGE_SIZE as u64, 13).unwrap(),
            b"parent page 3"
        );
        // Untouched-by-either pages stay zero everywhere.
        assert_eq!(parent.load::<4>(5 * PAGE_SIZE as u64).unwrap(), [0; 4]);
        assert_eq!(child.load::<4>(5 * PAGE_SIZE as u64).unwrap(), [0; 4]);
    }

    #[test]
    fn release_returns_pages_and_zeroes_edges() {
        let m = Memory::new(4, Some(4));
        m.fill(0, 0xaa, 4 * PAGE_SIZE as u64).unwrap();
        assert_eq!(m.resident_pages(), 4);
        // Release page 1 fully plus the first half of page 2.
        m.release(PAGE_SIZE as u64, PAGE_SIZE as u64 + PAGE_SIZE as u64 / 2)
            .unwrap();
        assert_eq!(m.resident_pages(), 3, "page 1 returned to the store");
        assert_eq!(m.load::<1>(PAGE_SIZE as u64).unwrap(), [0]);
        assert_eq!(m.load::<1>(2 * PAGE_SIZE as u64).unwrap(), [0]);
        assert_eq!(
            m.load::<1>(2 * PAGE_SIZE as u64 + PAGE_SIZE as u64 / 2)
                .unwrap(),
            [0xaa],
            "tail of the partial page survives"
        );
        assert_eq!(m.peak_resident_pages(), 4);
    }

    #[test]
    fn deep_clone_preserves_backing_and_content() {
        both(|mk| {
            let m = mk(2, Some(4));
            m.write(10, b"abc").unwrap();
            let c = m.deep_clone();
            assert_eq!(c.is_paged(), m.is_paged());
            assert_eq!(c.read(10, 3).unwrap(), b"abc");
            c.write(10, b"xyz").unwrap();
            assert_eq!(m.read(10, 3).unwrap(), b"abc", "independent copies");
        });
    }

    #[test]
    fn new_is_paged_and_new_flat_is_flat() {
        assert!(Memory::new(1, Some(1)).is_paged());
        assert!(!Memory::new_flat(1, Some(1)).is_paged());
    }

    #[test]
    fn atomic_loads_never_materialize_or_copy() {
        // Pure read of an untouched page: no allocation.
        let m = Memory::new(2, Some(2));
        assert_eq!(m.atomic_load32(64).unwrap(), 0);
        assert_eq!(m.atomic_load64(128).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0, "atomic loads are reads");
        // Read of a fork-shared (frozen) page: no COW copy, value intact.
        m.atomic_store32(64, 77).unwrap();
        let child = m.fork_clone();
        assert_eq!(child.atomic_load32(64).unwrap(), 77);
        assert_eq!(m.atomic_load32(64).unwrap(), 77);
        assert_eq!(child.resident_pages(), 1);
        // An atomic *store* on the shared page does COW as usual.
        child.atomic_store32(64, 99).unwrap();
        assert_eq!(m.atomic_load32(64).unwrap(), 77);
        assert_eq!(child.atomic_load32(64).unwrap(), 99);
    }

    #[test]
    fn writing_zeros_to_untouched_pages_stays_lazy() {
        let m = Memory::new(4, Some(4));
        // Bulk zero write and zero memory.copy over untouched space.
        m.write(100, &[0u8; 4096]).unwrap();
        m.copy_within(2 * PAGE_SIZE as u64, 0, PAGE_SIZE as u64)
            .unwrap();
        assert_eq!(m.resident_pages(), 0, "zeros into zeros is a no-op");
        // A copy of real data still lands.
        m.write(0, b"payload").unwrap();
        m.copy_within(2 * PAGE_SIZE as u64, 0, 16).unwrap();
        assert_eq!(m.read(2 * PAGE_SIZE as u64, 7).unwrap(), b"payload");
        assert_eq!(m.resident_pages(), 2);
    }
}
