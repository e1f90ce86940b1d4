//! Memory-management syscalls: sandboxed mapping inside linear memory
//! (§3.2).

use std::sync::atomic::Ordering;

use vkernel::SysError;
use wali_abi::flags::{MADV_DONTNEED, MAP_ANONYMOUS};
use wali_abi::Errno;
use wasm::host::Caller;
use wasm::PAGE_SIZE;

use vkernel::MutexExt;

use crate::context::WaliContext;
use crate::mem::{page_chunks, write_bytes};
use crate::mmap::Region;
use crate::registry::{flat, k};

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

/// Grows linear memory (if needed) so that `[0, end)` is addressable.
fn ensure_mapped(c: C, end: u32) -> Result<(), SysError> {
    let mem = &c.instance.memory;
    let need_pages = (end as usize).div_ceil(PAGE_SIZE) as u32;
    let have = mem.pages();
    if need_pages > have {
        // Grows up to the module's self-imposed max, failing with ENOMEM
        // beyond it — exactly the paper's policy.
        if mem.grow(need_pages - have) < 0 {
            return Err(Errno::Enomem.into());
        }
    }
    Ok(())
}

/// Reads file content into a fresh mapping, one store-page chunk at a
/// time: each chunk is a zero-copy `with_slice_mut` view (the kernel
/// reads straight into the page, no staging buffer), and the chunk walk
/// is what materializes the mapping's pages on the paged backing.
fn populate_file_mapping(c: C, region: &Region) -> Result<(), SysError> {
    let Some((fd, off)) = region.file else {
        return Ok(());
    };
    let mem = &*c.instance.memory;
    for (at, n) in page_chunks(region.addr, region.len) {
        let file_off = off + (at - region.addr) as u64;
        let got = flat(
            mem.with_slice_mut(at as u64, n as usize, |buf| {
                k(c, |kk, tid| kk.sys_pread(tid, fd, buf, file_off))
            })
            .map_err(|_| Errno::Efault),
        )?;
        // A short read means EOF: the rest of the mapping reads as zeros
        // without materializing its pages (the lazy-residency point of
        // the paged backing — don't touch store pages wholly past EOF).
        if got < n as i64 {
            break;
        }
    }
    Ok(())
}

/// Writes a shared file mapping back to its file (msync/munmap), in
/// store-page chunks so each `with_slice` view is zero-copy.
fn writeback_shared(c: C, region: &Region) -> Result<(), SysError> {
    if !region.is_shared_file() {
        return Ok(());
    }
    let Some((fd, off)) = region.file else {
        return Ok(());
    };
    let mem = &*c.instance.memory;
    for (at, n) in page_chunks(region.addr, region.len) {
        let file_off = off + (at - region.addr) as u64;
        flat(
            mem.with_slice(at as u64, n as usize, |buf| {
                k(c, |kk, tid| kk.sys_pwrite(tid, fd, buf, file_off)).map(|_| ())
            })
            .map_err(|_| Errno::Efault),
        )?;
    }
    Ok(())
}

pub(super) fn mmap(c: C, _addr_hint: u32, len: u32, prot: i32, flags: i32, fd: i32, off: u64) -> R {
    let file = if flags & MAP_ANONYMOUS != 0 || fd < 0 {
        None
    } else {
        Some((fd, off))
    };
    let region = c.data.space.mmap.lock_ok().map(len, prot, flags, file)?;
    ensure_mapped(c, region.addr + region.len)?;
    // Fresh mappings read as zeros without materializing anything:
    // `release` drops whole store pages (lazy-zero anonymous memory) and
    // zero-fills the partial edges that may hold stale bytes from an
    // earlier mapping. File mappings then read their content in.
    c.instance
        .memory
        .release(region.addr as u64, region.len as u64)
        .map_err(|_| Errno::Efault)?;
    if file.is_some() {
        populate_file_mapping(c, &region)?;
    }
    Ok(region.addr as i64)
}

pub(super) fn munmap(c: C, addr: u32, len: u32) -> R {
    let removed = c.data.space.mmap.lock_ok().unmap(addr, len)?;
    for region in &removed {
        writeback_shared(c, region)?;
        // Return the pages to the store (and zero partial edges) so
        // stale data cannot leak into later maps and residency drops.
        let _ = c
            .instance
            .memory
            .release(region.addr as u64, region.len as u64);
    }
    Ok(0)
}

pub(super) fn mremap(c: C, old_addr: u32, old_len: u32, new_len: u32, flags: i32, _to: u32) -> R {
    let (old, new) = c
        .data
        .space
        .mmap
        .lock_ok()
        .remap(old_addr, old_len, new_len, flags)?;
    ensure_mapped(c, new.addr + new.len)?;
    let mem = &c.instance.memory;
    if new.addr != old.addr {
        // Moved: copy the old contents (MREMAP_MAYMOVE path), then
        // return the old range's pages to the store.
        mem.copy_within(
            new.addr as u64,
            old.addr as u64,
            old.len.min(new.len) as u64,
        )
        .map_err(|_| Errno::Efault)?;
        let _ = mem.release(old.addr as u64, old.len as u64);
    } else if new.len > old.len {
        // Grown in place: the extension must read as zeros (and may
        // hold stale bytes from an earlier mapping).
        let _ = mem.release((new.addr + old.len) as u64, (new.len - old.len) as u64);
    } else if new.len < old.len {
        // Shrunk in place: the released tail goes back to the store.
        let _ = mem.release((new.addr + new.len) as u64, (old.len - new.len) as u64);
    }
    Ok(new.addr as i64)
}

pub(super) fn mprotect(c: C, addr: u32, len: u32, prot: i32) -> R {
    let mut pool = c.data.space.mmap.lock_ok();
    match pool.protect(addr, len, prot) {
        Ok(()) => Ok(0),
        // Protecting non-pool memory (data/heap) is a no-op success:
        // the sandbox itself is the protection domain.
        Err(Errno::Enomem) if addr < pool.base() => Ok(0),
        Err(e) => Err(e.into()),
    }
}

pub(super) fn brk(c: C, want: u32) -> R {
    let cur = c.data.space.brk.load(Ordering::Relaxed);
    if want == 0 || want < c.data.space.brk_start {
        return Ok(cur as i64);
    }
    let ceiling = c.data.space.mmap.lock_ok().base();
    if want > ceiling {
        return Ok(cur as i64);
    }
    ensure_mapped(c, want)?;
    c.data.space.brk.store(want, Ordering::Relaxed);
    Ok(want as i64)
}

pub(super) fn madvise(c: C, addr: u32, len: u64, advice: i32) -> R {
    if advice == MADV_DONTNEED {
        // Fully covered store pages are returned to the store; the
        // range reads as zeros afterwards, like the Linux call.
        let _ = c.instance.memory.release(addr as u64, len);
    }
    Ok(0)
}

pub(super) fn msync(c: C, addr: u32, _len: u32, _flags: i32) -> R {
    let region = c.data.space.mmap.lock_ok().region_at(addr).cloned();
    match region {
        Some(r) => {
            writeback_shared(c, &r)?;
            Ok(0)
        }
        None => Err(Errno::Enomem.into()),
    }
}

pub(super) fn mlock(_c: C, _addr: u32, _len: usize) -> R {
    Ok(0)
}

pub(super) fn munlock(_c: C, _addr: u32, _len: usize) -> R {
    Ok(0)
}

pub(super) fn membarrier(_c: C, _cmd: i32, _flags: u32, _cpu_id: i32) -> R {
    Ok(0)
}

pub(super) fn mincore(c: C, addr: u32, len: usize, vec: u32) -> R {
    // Linux contract: addr must be page-aligned and the range mapped.
    if !addr.is_multiple_of(4096) {
        return Err(Errno::Einval.into());
    }
    let mem = &*c.instance.memory;
    let end = (addr as u64).checked_add(len as u64);
    if end.is_none_or(|end| end > mem.size() as u64) {
        return Err(Errno::Enomem.into());
    }
    // Report real residency: a 4 KiB map page is in core iff its
    // containing 64 KiB store page is materialized (the flat backing
    // reports everything resident, as before). Probe once per store
    // page, not once per map page — sixteen aligned map pages share a
    // probe (and alignment means none straddles two store pages).
    let pages = len.div_ceil(4096);
    let mut incore = vec![0u8; pages];
    let mut i = 0;
    while i < pages {
        let at = addr as u64 + i as u64 * 4096;
        let bit = mem.addr_is_resident(at) as u8;
        // Map pages sharing this 64 KiB store page share the answer.
        let same_store_page = ((PAGE_SIZE as u64 - at % PAGE_SIZE as u64) / 4096) as usize;
        let run = same_store_page.max(1).min(pages - i);
        incore[i..i + run].fill(bit);
        i += run;
    }
    write_bytes(mem, vec, &incore)?;
    Ok(0)
}
